"""kppfront benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload drift-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  One
caller drives the program in a closed loop: a pass of the workload starts
when the previous one has returned.  Passes repeat until the next one would
overrun --seconds.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1, untraced and traced passes alternate,
and it carries the per-layer metrics.  Lines before it hold the
physics record, the timings and the kernel figures; a JSON record of the run
(and, traced, its spans) goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
# Claims of a gain must also hold on this seed, which tuning never uses.
HELD_OUT_SEED = 20261017

SETUP_CODE = """
import math, time
t0 = time.perf_counter()
import kppfront
from kppfront import waves
waves.minimal_wave()
waves.phi_gamma(math.exp(2.0))
waves.phi_gamma(math.exp(1.0))
print(time.perf_counter() - t0)
"""


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing kppfront and building
    the cached wave profiles the certificate suites use."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(run, draw, rng, reference, budget_s, caches, tracer=None):
    """Closed loop of passes until the next would overrun budget_s.

    Returns (untraced passes, traced passes).  With a tracer the passes
    alternate, untraced first, so that both kinds see the same drift of the
    machine's speed; at least one pass of each kind runs."""
    import layers
    from tracer import Patches

    work = OUT / "work"
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        inputs = draw(rng)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for cache in caches:  # each pass starts as cold as a fresh CLI process
            cache.cache_clear()
        if trace_this:
            with Patches() as patches:
                layers.instrument(tracer, patches)
                t0 = time.perf_counter()
                with tracer.span("bench.pass"):
                    rec = run(work, inputs, reference)
                rec.wall_s = time.perf_counter() - t0
            layers.count_cache_use(tracer.counters)
            traced.append(rec)
        else:
            t0 = time.perf_counter()
            rec = run(work, inputs, reference)
            rec.wall_s = time.perf_counter() - t0
            plain.append(rec)
        owed = tracer is not None and not traced
        if not owed and time.perf_counter() - start + rec.wall_s > budget_s:
            return plain, traced


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kppfront" / "__init__.py").is_file():
        print(f"no kppfront sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import kppfront

    if not Path(kppfront.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"kppfront imported from {kppfront.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    draw, run = workloads.WORKLOADS[args.workload]
    reference = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    rng = np.random.default_rng(args.seed)
    caches = {id(obj): obj for name, mod in list(sys.modules.items())
              if name.startswith("kppfront.") for obj in vars(mod).values()
              if hasattr(obj, "cache_clear")}.values()

    if args.trace == 0:
        setup_s = measure_setup()
        timed, traced = run_passes(run, draw, rng, reference, args.seconds, caches)
    else:
        tracer = Tracer()
        timed, traced = run_passes(run, draw, rng, reference, args.seconds, caches, tracer)
    records = timed + traced

    attempted = sum(len(r.ops) for r in records)
    failed = sum(r.failed for r in records)
    timed_wall = sum(r.wall_s for r in timed)
    timings = {
        "passes": len(timed),
        "wall_s": statistics.median(r.wall_s for r in timed),
        "fail_ratio": failed / attempted,
    }
    if args.workload == "certify":
        timings["checks_per_s"] = sum(len(r.ops) for r in timed) / timed_wall
    else:
        timings["sim_t_per_s"] = sum(r.model_t for r in timed) / timed_wall

    if args.trace == 0:
        values = {
            "setup_s": setup_s,
            "wall_s": timings["wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        listed = spec["end_to_end"]
    else:
        values = layers.per_layer_metrics(
            tracer, len(traced), statistics.mean(r.wall_s for r in timed),
            statistics.mean(r.wall_s for r in traced))
        listed = spec["per_layer"]
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(values):
        print(f"metrics {sorted(set(names) ^ set(values))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    kernel = layers.kernel_record(tracer, values) if args.trace == 1 else {}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "metrics": metrics, "timings": timings, "kernel": kernel,
        "attempted": attempted, "failed": failed,
        "passes": [{"inputs": r.inputs, "wall_s": r.wall_s, "physics": r.physics,
                    "ops": r.ops} for r in records],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace == 1:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n",
                                                encoding="utf-8")

    print(f"perfbench workload={args.workload} seed={args.seed} held_out_seed={HELD_OUT_SEED} "
          f"trace={args.trace} passes={len(records)} record={OUT.name}/{stem}.json")
    for i, r in enumerate(records):
        print("physics", json.dumps({"pass": i, "seed": args.seed, **r.physics}))
    for name, ok in (op for r in records for op in r.ops):
        if not ok:
            print(f"FAILED {name}")
    print("timings", json.dumps({"seed": args.seed, **timings}))
    if kernel:
        print("kernel", json.dumps(kernel))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
