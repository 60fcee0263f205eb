"""Command-line workflow: simulate, fit, verify, report, exit codes,
byte-level determinism."""

import json
import math

import numpy as np
import pytest

from kppfront.cli import main
from kppfront.io import read_csv_columns

FAST_CONFIG = """
# fast run for the command-line workflow
k = 1
amplitude = 1.0
xi_min = -40
xi_max = 110
dxi = 0.1
dt = 0.05
t_end = 200
levels = 0.5
snapshot_times = 200
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return path


class TestSimulateCommand:
    def test_smoke_run_writes_trace_with_30_rows(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
        trace = out / "traces" / "level_0.5.csv"
        assert trace.is_file()
        cols = read_csv_columns(trace)
        assert len(cols["t"]) >= 30
        snap = out / "snapshots" / "t_200.csv"
        assert snap.is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["config_digest"]) == 64

    def test_invalid_k_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = -3\nt_end = 50\nxi_max = 60\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "k must be >= -2" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "xi_min = nan", "xi_max = nan", "snapshot_times = nan",
        "t_end = inf", "k = nan", "amplitude = inf",
    ])
    def test_non_finite_value_rejected(self, line, tmp_path, capsys):
        # NaN and inf pass every range test; without their own check they
        # crash the run or end it as a numerical failure (exit 2)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"k = 1\nt_end = 2\n{line}\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bad config" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # the second value would otherwise silently win
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("k = 1\nt_end = 2\nk = 3\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("bad config: ") and f"{cfg}:3: duplicate key 'k'" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 1

    def test_manifest_records_diagnostics(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0
        diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert set(diagnostics) == {"clamp_total", "boundary_alarm", "n_steps", "dt_min", "dt_max"}
        assert 0.0 <= diagnostics["clamp_total"] <= 1e-9
        assert diagnostics["boundary_alarm"] is False
        # dt = 0.05 is the floor; the step grows like 1e-3 t, to at most 0.2
        assert 0.04 < diagnostics["dt_min"] <= 0.05
        assert 0.15 < diagnostics["dt_max"] <= 0.2
        assert isinstance(diagnostics["n_steps"], int)
        assert 200.0 / 0.2 < diagnostics["n_steps"] < 200.0 / 0.05

    def test_reruns_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
        for rel in ("traces/level_0.5.csv", "snapshots/t_200.csv", "manifest.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_nan_state_exits_with_numerics_code(self, config_file, tmp_path, monkeypatch, capsys):
        from kppfront import sim

        original = sim.init_front_data_weighted

        def poisoned(config):
            ub = original(config)
            ub[ub.size // 2] = np.nan
            return ub

        monkeypatch.setattr(sim, "init_front_data_weighted", poisoned)
        rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "instability" in capsys.readouterr().err


class TestFitCommand:
    def _write_trace(self, path, critical=False):
        t = np.geomspace(100.0, 50000.0, 40)
        if critical:
            x = 2.0 * t - 1.5 * np.log(t) + np.log(np.log(t)) - 2.0
        else:
            x = 2.0 * t - 0.5 * np.log(t) + 3.0
        lines = ["t,x_m"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, x)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_fit_synthetic(self, tmp_path, capsys):
        trace = tmp_path / "sim" / "traces" / "level_0.5.csv"
        self._write_trace(trace)
        rc = main(["fit", str(trace), "--t-min", "150"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+0.5000" in out
        fit_csv = tmp_path / "sim" / "fit_level_0.5.csv"
        cols = read_csv_columns(fit_csv)
        np.testing.assert_allclose(cols["r_hat"][0], 0.5, atol=1e-10)

    def test_fit_critical_flag(self, tmp_path, capsys):
        trace = tmp_path / "sim" / "traces" / "level_0.5.csv"
        self._write_trace(trace, critical=True)
        rc = main(["fit", str(trace), "--critical", "--t-min", "1000"])
        assert rc == 0
        cols = read_csv_columns(tmp_path / "sim" / "fit_level_0.5_critical.csv")
        np.testing.assert_allclose(cols["r_hat"][0], 1.0, atol=1e-8)
        assert cols["coefficient"][0] == "lnln_coeff"

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        assert main(["fit", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_repeated_column_rejected(self, tmp_path, capsys):
        # both t cells would land in one column twice the length of x_m
        bad = tmp_path / "dup.csv"
        bad.write_text("t,x_m,t\n" + "".join(f"{i},{2 * i},{i}\n" for i in range(1, 5)),
                       encoding="utf-8")
        assert main(["fit", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"malformed trace CSV: {bad}: ") and err.count("\n") == 1


# (check, domain) of every row each suite writes, in order: a dropped check or
# a shrunk grid changes this table
SUITE_CHECKS = {
    "supersolutions": [
        ("psi_super_r-1", "t=[4  1e+06];y=[0  50];grid=60x200"),
        ("psi_super_r0", "t=[4  1e+06];y=[0  50];grid=60x200"),
        ("psi_super_r0.5", "t=[11.402  1e+06];y=[0  50];grid=60x200"),
        ("psi_super_r1", "t=[29.4226  1e+06];y=[0  50];grid=60x200"),
        ("psi_super_r1.25", "t=[48.4737  1e+06];y=[0  50];grid=60x200"),
        ("linear_residual_identity_r0_rp0", "samples=15"),
        ("linear_residual_identity_r0.5_rp0.5", "samples=15"),
        ("linear_residual_identity_r1_rp1", "samples=15"),
        ("tw_shift_k1", "t=[1  1e+06];z=[-20  40];grid=24x160"),
        ("tw_shift_k3", "t=[1  1e+06];z=[-20  40];grid=24x160"),
    ],
    "subsolutions": [
        ("psi_sub_r-1", "t=[3808.65  1e+06];y=[0  50];grid=60x200"),
        ("psi_sub_r0", "t=[1024  1e+06];y=[0  50];grid=60x200"),
        ("psi_sub_r0.5", "t=[410.473  1e+06];y=[0  50];grid=60x200"),
        ("psi_sub_r1", "t=[117.691  1e+06];y=[0  50];grid=60x200"),
        ("psi_sub_r1.25", "t=[69.8024  1e+06];y=[0  50];grid=60x200"),
        ("linear_residual_identity_r0.5_rp-1.5", "samples=15"),
        ("linear_residual_identity_r1_rp-1", "samples=15"),
        ("phi_eta_sub_r-1", "t=[10  1e+06];z=(0  2 sqrt t];grid=24x120"),
        ("phi_eta_sub_r-0.25", "t=[10  1e+06];z=(0  2 sqrt t];grid=24x120"),
        ("tw_shift_k0", "t=[1  1e+06];z=[-20  40];grid=24x160"),
    ],
    "critical": [
        ("dirichlet_sub_critical", "t=[1  1e+08];z=(0  3 ln t];grid=10x8"),
        ("dirichlet_super_critical", "t=[1000  1e+08];z=y sqrt(t)  y in [0.1  2];grid=8x8"),
    ],
    "heat": [
        ("dirichlet_band_t1000", "t=1000.0;x=(1  6.91);samples=9"),
        ("dirichlet_band_t100000", "t=100000.0;x=(1  11.5);samples=9"),
        ("dirichlet_band_t1e+07", "t=10000000.0;x=(1  16.1);samples=9"),
        ("weighted_sup_eps0.1", "t=[1  1e+08];x_per_t=12"),
        ("dirichlet_gradient_bound", "t=[100  1e+08];x=(0  min(4 t^3/4  26 sqrt t)]"),
    ],
}


def run_suite(suite, out):
    """Run one verify suite; every check must pass, on its pinned domain."""
    assert main(["verify", "--suite", suite, "--out", str(out)]) == 0
    cols = read_csv_columns(out / f"verify_{suite}.csv")
    assert all(v == "pass" for v in cols["verdict"])
    assert list(zip(cols["check"], cols["domain"])) == SUITE_CHECKS[suite]


class TestVerifyCommand:
    def test_supersolutions_suite_passes(self, tmp_path, capsys):
        run_suite("supersolutions", tmp_path)

    def test_subsolutions_suite_passes(self, tmp_path, capsys):
        run_suite("subsolutions", tmp_path)

    def test_unknown_suite_usage_error(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "bogus", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_heat_suite_emits_sample_sweep(self, tmp_path):
        run_suite("heat", tmp_path)
        cols = read_csv_columns(tmp_path / "heat_sweep_2sqrt_t.csv")
        assert list(cols) == ["t", "x", "value", "error_estimate"]
        assert all(x == 2.0 * math.sqrt(t) for t, x in zip(cols["t"], cols["x"]))

    def test_critical_suite_passes(self, tmp_path):
        run_suite("critical", tmp_path)


class TestReportCommand:
    def test_full_workflow_report(self, tmp_path, capsys):
        # one fast simulation, its fit, and a verify suite, then the roll-up
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CONFIG, encoding="utf-8")
        sim_dir = tmp_path / "rundir" / "k1"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 0
        trace = sim_dir / "traces" / "level_0.5.csv"
        assert main(["fit", str(trace), "--t-min", "20"]) == 0
        assert main(["verify", "--suite", "supersolutions", "--out", str(tmp_path / "rundir")]) == 0
        capsys.readouterr()
        rc = main(["report", str(tmp_path / "rundir")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "r_target" in out
        report = (tmp_path / "rundir" / "report.txt").read_text()
        # r_target column equals (1-k)/2 exactly
        assert "1        0 " in report or "1        0" in report
        cols = read_csv_columns(tmp_path / "rundir" / "report.csv")
        assert cols["r_target"][0] == 0.5 * (1.0 - cols["k"][0])

    def test_missing_fit_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CONFIG, encoding="utf-8")
        sim_dir = tmp_path / "rundir" / "k1"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 0
        rc = main(["report", str(tmp_path / "rundir")])
        assert rc == 1
        assert "fit_level_" in capsys.readouterr().err

    def test_missing_dir(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent")]) == 1

    @pytest.mark.parametrize("text", ["", "estimator,r_hat\nlog,0.5\n",
                                      "coefficient,r_hat,residual_max\n",
                                      "coefficient,r_hat,residual_max,r_hat\nr,0.5,0.001,0.7\n"],
                             ids=["empty", "no_coefficient", "no_rows", "repeated_column"])
    def test_malformed_fit_csv(self, tmp_path, capsys, text):
        sim_dir = tmp_path / "rundir" / "k1"
        sim_dir.mkdir(parents=True)
        (sim_dir / "manifest.json").write_text(
            json.dumps({"command": "simulate", "config": {"k": 1.0}}), encoding="utf-8")
        (sim_dir / "fit_level_0.5.csv").write_text(text, encoding="utf-8")
        assert main(["report", str(tmp_path / "rundir")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed fit CSV: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "{bad", "[]",
        '{"command": "simulate", "config": []}',
        '{"command": "simulate", "config": {"k": "one"}}',
    ], ids=["not_json", "not_object", "config_not_object", "k_not_number"])
    def test_malformed_manifest(self, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        # a well-formed fit next to it, so only the manifest can be at fault
        (tmp_path / "fit_level_0.5.csv").write_text(
            "coefficient,r_hat,residual_max\nr,0.5,0.001\n", encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed manifest: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "check,domain\npsi_super_r1,t=[4]\n",
                                      "check,verdict,check\npsi_super_r1,pass,x\n"],
                             ids=["empty", "no_verdict", "repeated_column"])
    def test_malformed_verify_csv(self, tmp_path, capsys, text):
        (tmp_path / "verify_heat.csv").write_text(text, encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed verify CSV: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "heat", "--bogus", "2"],
    ["simulate", "--out", "somewhere"],
    ["verify", "--suite", "heat", "--threads", "x"],
])
def test_parser_errors_exit_with_usage_code(argv, capsys):
    # argparse's own exit status 2 would read as a numerical failure
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_ok(flag, capsys):
    assert main([flag]) == 0
    assert capsys.readouterr().out


def test_exit_code_constants():
    from kppfront.cli import EXIT_NUMERICS, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION

    assert (EXIT_OK, EXIT_USAGE, EXIT_NUMERICS, EXIT_VERIFICATION) == (0, 1, 2, 3)
