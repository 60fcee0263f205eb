"""Every name a module of the package or of the test suite imports is used
in that module, every dataclass field and every function, class and method
is read somewhere in the package, the benchmark or the acceptance tests, no
module keeps a cache other than the wave-profile builds, the package
exports exactly the names its __init__ imports, no certificate takes a
parameter with a default, and a fresh process loads scipy only for the
commands that compute with it.

The package's __init__ imports names only to re-export them, so it is
exempt from the unused-import check.  Uses are found with the stdlib ast
module: a bound name counts as used when it appears as a Name anywhere in
the module, annotations included.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kppfront
from kppfront import ansatz, heatkernel, waves

SRC = Path(__file__).resolve().parents[1] / "src" / "kppfront"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nimport numpy as np\nprint(pi, np.e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau")]


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_fields(sources: list[str], readers: list[str]) -> list[tuple[str, str]]:
    """(class, field) of each dataclass field in `sources` that no module of
    `readers` loads as an attribute (`obj.field`)."""
    fields = []
    for tree in map(ast.parse, sources):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in cls.decorator_list):
                fields += [(cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    loaded = {node.attr for tree in map(ast.parse, readers) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f for f in fields if f[1] not in loaded)


def test_field_checker_flags_an_unread_field():
    source = ("from dataclasses import dataclass\n@dataclass(frozen=True)\n"
              "class P:\n    a: int\n    b: int = 0\nprint(P(1).a)\n")
    assert unread_fields([source], [source]) == [("P", "b")]


def test_every_dataclass_field_is_read():
    # a record field that no program reads is dead weight that every
    # constructor still fills in; tests do not count as readers
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    readers = sources + [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert unread_fields(sources, readers) == []


def unread_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """module.name of each top-level def and class in `sources` (module name
    to text), and module.Class.method of each of their methods not named
    __*, that no module of `readers` loads (`name` or `obj.name`) outside
    the definition itself."""
    def loads(tree) -> Counter:
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute))
                       and isinstance(node.ctx, ast.Load))

    loaded = sum((loads(ast.parse(text)) for text in readers), Counter())
    unread = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            unread += [name for name, d in defs if loaded[d.name] <= loads(d)[d.name]]
    return sorted(unread)


def test_definition_checker_flags_an_unread_definition():
    # f reads itself only, C.m is never read, __len__ is exempt
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "def g():\n    return 1\n"
              "class C:\n    def m(self):\n        return C\n"
              "    def __len__(self):\n        return 0\n"
              "print(g(), C)\n")
    assert unread_definitions({"mod": source}, [source]) == ["mod.C.m", "mod.f"]


def test_every_definition_has_a_program_reader():
    # a function only its own unit tests call is a second numerical route
    # that no run takes; the acceptance tests, which run the paper's
    # criteria, count as a program
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readers = (list(sources.values())
               + [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
               + [(Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")])
    assert unread_definitions(sources, readers) == []


def test_all_exports_resolve():
    # a deleted function must not stay exported: `from kppfront import *`
    # would fail on it
    assert all(hasattr(kppfront, name) for name in kppfront.__all__)
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    assert sorted(kppfront.__all__) == sorted(imported)
    assert len(kppfront.__all__) == len(set(kppfront.__all__))


def test_only_the_wave_profiles_are_cached():
    # a module-level cache is state shared by every caller in the process;
    # only the wave-profile builds keep one: the minimal wave, the gamma = 1
    # orbit and the phi_gamma scaled from it
    modules = [importlib.import_module(f"kppfront.{m.name}")
               for m in pkgutil.iter_modules(kppfront.__path__)]
    cached = {f"{obj.__module__}.{obj.__qualname__}" for mod in modules
              for obj in vars(mod).values() if hasattr(obj, "cache_clear")}
    assert cached == {"kppfront.waves.minimal_wave", "kppfront.waves._unit_orbit",
                      "kppfront.waves.phi_gamma"}


def test_certificates_take_no_defaulted_parameters():
    # a certificate takes only what its verify row names (r, k, t, eps);
    # grids, sample sets and constants live in module constants, which tests
    # patch, so a defaulted knob that only a test sets cannot creep back
    certificates = ([f for name, f in vars(ansatz).items() if name.startswith("check_")]
                    + [f for name, f in vars(heatkernel).items() if name.startswith("verify_")]
                    + [heatkernel.gradient_bound_constant, waves.minimal_wave])
    assert len(certificates) == 11
    defaulted = [f"{f.__name__}({p.name})" for f in certificates
                 for p in inspect.signature(f).parameters.values()
                 if p.default is not inspect.Parameter.empty]
    assert defaulted == []


# A fresh interpreter imports the package and the CLI, runs fit and report on
# a hand-written run directory, then simulate, and prints the scipy modules
# loaded after each stage as its last line.
SCIPY_MODULES = """
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""
COLD_START = "import json, sys\n" + SCIPY_MODULES + r"""
from pathlib import Path

import kppfront, kppfront.cli
from kppfront.cli import main

seen = {"import": scipy_modules()}
run = Path(sys.argv[1])
trace = run / "k1" / "traces" / "level_0.5.csv"
trace.parent.mkdir(parents=True)
trace.write_text("t,x_m\n" + "".join(f"{t},{2 * t - 0.5 * t ** 0.5}\n"
                                        for t in range(100, 2000, 100)))
(run / "k1" / "manifest.json").write_text('{"command": "simulate", "config": {"k": 1}}')
rcs = [main(["fit", str(trace), "--t-min", "150"]), main(["report", str(run)])]
seen["fit_report"] = scipy_modules()
config = run / "run.cfg"
config.write_text("k = 1\nt_end = 2\nsnapshot_times = 2\n")
rcs.append(main(["simulate", "--config", str(config), "--out", str(run / "sim")]))
seen["simulate"] = scipy_modules()
print(json.dumps({"rcs": rcs, "seen": seen}))
"""
# What a fresh interpreter loads for scipy.linalg.lapack alone: that depends
# on the scipy release (some load scipy.sparse with scipy.linalg, 1.17 does
# not), so simulate is held to it rather than to a fixed list.
LAPACK_ONLY = "import json, sys\n" + SCIPY_MODULES + r"""
import scipy.linalg.lapack

print(json.dumps(scipy_modules()))
"""


# A fresh interpreter runs the two verify suites that integrate the heat
# kernel.
VERIFY_HEAT = "import json, sys\n" + SCIPY_MODULES + r"""
from kppfront.cli import main

rcs = [main(["verify", "--suite", suite, "--out", sys.argv[1]]) for suite in ("heat", "critical")]
print(json.dumps({"rcs": rcs, "seen": scipy_modules()}))
"""


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))

    def last_json_line(*argv):
        done = subprocess.run([sys.executable, "-c", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr

    out, stderr = last_json_line(COLD_START, str(tmp_path_factory.mktemp("run")))
    assert out["rcs"] == [0, 0, 0], stderr
    verify, stderr = last_json_line(VERIFY_HEAT, str(tmp_path_factory.mktemp("verify")))
    assert verify["rcs"] == [0, 0], stderr
    return dict(out["seen"], lapack_only=last_json_line(LAPACK_ONLY)[0], verify=verify["seen"])


def test_import_loads_no_scipy(cold_start):
    # scipy.linalg alone would be most of the package's import time, which
    # every command pays as a fresh process
    assert cold_start["import"] == []


def test_fit_and_report_load_no_scipy(cold_start):
    assert cold_start["fit_report"] == []


def test_simulate_loads_only_scipy_linalg(cold_start):
    # no scipy.integrate or scipy.special, which only verify needs
    loaded = set(cold_start["simulate"])
    assert "scipy.linalg.lapack" in loaded
    assert loaded <= set(cold_start["lapack_only"]), sorted(loaded - set(cold_start["lapack_only"]))


def test_heat_verify_loads_no_scipy_integrate(cold_start):
    # the heat-kernel quadrature is numpy's own; scipy.integrate would also
    # load scipy.optimize, scipy.sparse and scipy.spatial
    loaded = cold_start["verify"]
    assert [m for m in loaded if m.split(".")[:2] == ["scipy", "integrate"]] == []
