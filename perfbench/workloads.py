"""The benchmark's three workloads: inputs drawn from the seed, one pass of
work, and the physics checks on what the pass produced.

Every simulated run takes its amplitude A from AMPLITUDES, so each input the
seed can draw has a recorded seed-code value in reference.json.  A pass
records one (name, ok) entry per operation: a simulate, fit, report, verify
verdict or physics check.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kppfront import cli, frontfit, heatkernel, io, sim, special, waves
from kppfront.errors import DomainError, NumericsError
from kppfront.grid import GridFunction

from tracer import Patches

REFERENCE_PATH = Path(__file__).with_name("reference.json")
AMPLITUDES = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

# drift-sweep: the acceptance k sweep on the t = 5000 grid (n = 6644) with the
# default dxi and dt, cut to a horizon a pass can afford.
DRIFT_KS = (3.0, 1.0, 0.0, -1.0)
DRIFT_XI_MAX = 3.0 * math.sqrt(5000.0) + 60.0
DRIFT_T_END = 100.0
DRIFT_LEVELS = (0.1, 0.5)
DRIFT_SNAPSHOTS = (25.0, 50.0, 100.0)
DRIFT_T_MIN = 10.0
# dt-refinement error of r_hat and kappa (ROADMAP baseline table)
R_HAT_TOL = 1e-3
KAPPA_TOL = 0.03
# clamping stays at rounding level in an order-preserving run
CLAMP_TOL = 1e-9

# critical-tail: the critical fixture's grid (n = 10688), dxi and dt pinned
CRIT_XI_MAX = 3.0 * math.sqrt(1e5) + 60.0
CRIT_DXI = 0.1
CRIT_DT = 0.1
CRIT_T_END = 2000.0
CRIT_T_MIN = 100.0

# certify
ORACLE_RS = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.25)
ORACLE_N = 100_000
ORACLE_POINTS = 40
HEAT_PROBES = 8
# v_dirichlet and the sinh-form route agree to 1e-15 at the seed code; a
# quadrature tol loosened to 1e-9 moves v by 2e-11 relative
HEAT_RTOL = 1e-12


@dataclass
class PassRecord:
    inputs: dict
    ops: list = field(default_factory=list)
    physics: dict = field(default_factory=dict)
    model_t: float = 0.0
    wall_s: float = 0.0

    def check(self, name: str, ok) -> None:
        self.ops.append((name, bool(ok)))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.ops if not ok)


def _quiet(argv: list[str]) -> int:
    """cli.main with its report text discarded; errors still reach stderr."""
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        return cli.main(argv)


class _SimResults(Patches):
    """Keeps every SimResult sim.simulate returns while active: the CLI
    drops clamp_total and boundary_alarm, which the physics record needs."""

    def __init__(self):
        super().__init__()
        self.results = []
        original = sim.simulate

        def simulate(config):
            result = original(config)
            self.results.append(result)
            return result

        self.set(sim, "simulate", simulate)


def _sim_checks(rec: PassRecord, tag: str, result, times, positions) -> dict:
    ratio = float(positions[-1] / times[-1])
    rec.check(f"{tag} level speed ratio in [1.9, 2.1]", 1.9 <= ratio <= 2.1)
    rec.check(f"{tag} clamp_total <= {CLAMP_TOL:g}", result.clamp_total <= CLAMP_TOL)
    rec.check(f"{tag} no boundary alarm", not result.boundary_alarm)
    return {"speed_ratio": ratio, "clamp_total": result.clamp_total,
            "boundary_alarm": result.boundary_alarm}


# ---------------------------------------------------------------- drift-sweep

def drift_inputs(rng) -> dict:
    return {f"{k:g}": float(rng.choice(AMPLITUDES)) for k in DRIFT_KS}


def _drift_config(k: float, amplitude: float) -> str:
    lines = [
        f"k = {k:g}",
        f"amplitude = {amplitude!r}",
        f"xi_max = {DRIFT_XI_MAX!r}",
        f"t_end = {DRIFT_T_END!r}",
        "levels = " + " ".join(f"{m:g}" for m in DRIFT_LEVELS),
    ]
    if k == 1.0:
        lines.append("snapshot_times = " + " ".join(f"{t:g}" for t in DRIFT_SNAPSHOTS))
    return "\n".join(lines) + "\n"


def drift_sweep(work: Path, inputs: dict, reference: dict | None) -> PassRecord:
    """simulate, fit and report through the CLI for each k, then the wave
    distance of the k = 1 snapshots."""
    rec = PassRecord(inputs)
    runs = {k: work / f"k{k:g}" for k in DRIFT_KS}
    with _SimResults() as captured:
        for k, run in runs.items():
            cfg = work / f"k{k:g}.cfg"
            cfg.write_text(_drift_config(k, inputs[f"{k:g}"]), encoding="utf-8")
            code = _quiet(["simulate", "--config", str(cfg), "--out", str(run)])
            rec.check(f"simulate k={k:g}", code == 0)
    rec.model_t = DRIFT_T_END * len(captured.results)
    results = {k: r for k, r in zip(DRIFT_KS, captured.results)}
    for k, run in runs.items():
        for m in DRIFT_LEVELS:
            trace = run / "traces" / f"level_{m:g}.csv"
            argv = ["fit", str(trace), "--t-min", repr(DRIFT_T_MIN)]
            rec.check(f"fit k={k:g} level={m:g}", trace.exists() and _quiet(argv) == 0)
    code = _quiet(["report", str(work)])
    report_csv = work / "report.csv"
    rows = len(io.read_csv_columns(report_csv)["k"]) if report_csv.exists() else 0
    rec.check("report lists every fit", code == 0 and rows == len(DRIFT_KS) * len(DRIFT_LEVELS))
    if rec.failed:
        return rec

    phys = rec.physics
    r_hat, delays = {}, {}
    for k, run in runs.items():
        amp = inputs[f"{k:g}"]
        entry = phys[f"k={k:g}"] = {"A": amp, "n_nodes": results[k].config.n_nodes,
                                    "r_hat": {}, "trace_sha256": {}}
        for m in DRIFT_LEVELS:
            fit = io.read_csv_columns(run / f"fit_level_{m:g}.csv")
            value = float(fit["r_hat"][0])
            entry["r_hat"][f"{m:g}"] = value
            path = run / "traces" / f"level_{m:g}.csv"
            entry["trace_sha256"][f"{m:g}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            if reference is not None:
                ref = reference["drift-sweep"][f"{k:g}"][f"{amp:g}"][f"{m:g}"]
                rec.check(f"r_hat k={k:g} level={m:g} within {R_HAT_TOL:g} of the seed code",
                          abs(value - ref) <= R_HAT_TOL)
        r_hat[k] = entry["r_hat"]["0.5"]
        cols = io.read_csv_columns(run / "traces" / "level_0.5.csv")
        times, positions = np.asarray(cols["t"]), np.asarray(cols["x_m"])
        entry.update(_sim_checks(rec, f"k={k:g}", results[k], times, positions))
        delays[k] = (times, 2.0 * times - positions)

    rec.check("ordering r_hat(3) < r_hat(1) < r_hat(0) < r_hat(-1)",
              r_hat[3.0] < r_hat[1.0] < r_hat[0.0] < r_hat[-1.0])
    signs = {}
    for k, want in ((0.0, "increasing"), (3.0, "decreasing")):
        times, delay = delays[k]
        steps = np.diff(delay[times >= DRIFT_T_END / 10.0])
        signs[f"k={k:g}"] = ("increasing" if np.all(steps > 0.0)
                             else "decreasing" if np.all(steps < 0.0) else "mixed")
        rec.check(f"k={k:g} delay {want} on t >= {DRIFT_T_END / 10.0:g}", signs[f"k={k:g}"] == want)
    times, delay = delays[1.0]
    late = delay[times >= DRIFT_T_END / 2.0]
    neutral = float(abs(late[-1] - late[0]))
    rec.check(f"k=1 delay span on t >= {DRIFT_T_END / 2.0:g} <= 0.3", neutral <= 0.3)
    phys["deviation"] = {**signs, "k=1 span": neutral}

    wave = waves.minimal_wave()
    grid = results[1.0].config
    dists = []
    for ts in DRIFT_SNAPSHOTS:
        cols = io.read_csv_columns(runs[1.0] / "snapshots" / f"t_{ts:g}.csv")
        snap = GridFunction(grid.xi_min, grid.dxi, np.asarray(cols["u"]))
        center = sim.extract_level(snap, ts, 0.5)
        dists.append(frontfit.wave_distance(snap, ts, wave, center)[1])
    phys["wave_distance"] = {f"{ts:g}": d for ts, d in zip(DRIFT_SNAPSHOTS, dists)}
    rec.check(f"wave distance at t={DRIFT_T_END:g} <= 0.05", dists[-1] <= 0.05)
    rec.check("wave distance non-increasing within 0.005",
              all(b <= a + 0.005 for a, b in zip(dists, dists[1:])))
    return rec


# -------------------------------------------------------------- critical-tail

def critical_inputs(rng) -> dict:
    return {"A": float(rng.choice(AMPLITUDES))}


def critical_tail(work: Path, inputs: dict, reference: dict | None) -> PassRecord:
    """The critical k = -2 run on the fixture grid, then the ln ln t fit and
    the residual comparison."""
    rec = PassRecord(inputs)
    amp = inputs["A"]
    config = sim.SimConfig(k=-2.0, amplitude=amp, xi_max=CRIT_XI_MAX, dxi=CRIT_DXI, dt=CRIT_DT,
                           t_end=CRIT_T_END, levels=(0.5,))
    try:
        result = sim.simulate(config)
    except NumericsError:
        rec.check("simulate k=-2", False)
        return rec
    rec.check("simulate k=-2", True)
    rec.model_t = CRIT_T_END
    trace = result.traces[0.5]
    try:
        fit = frontfit.fit_critical(trace, CRIT_T_MIN)
        comp = frontfit.critical_residual_comparison(trace, CRIT_T_MIN)
    except (DomainError, NumericsError):
        rec.check("fit_critical", False)
        return rec
    rec.check("fit_critical", True)
    kappa = fit.r_hat
    halving = comp["unit_lnln"] / comp["pure_log"]
    phys = rec.physics
    phys.update({
        "A": amp, "n_nodes": config.n_nodes, "kappa": kappa, "halving_ratio": halving,
        "residuals": comp, "trace_sha256": hashlib.sha256(trace.positions.tobytes()).hexdigest(),
    })
    if reference is not None:
        ref = reference["critical-tail"][f"{amp:g}"]
        rec.check(f"kappa within {KAPPA_TOL:g} of the seed code", abs(kappa - ref) <= KAPPA_TOL)
    rec.check("kappa in [0.3, 1.7]", 0.3 <= kappa <= 1.7)
    rec.check("unit ln ln t halves the pure-log residual", halving <= 0.5)
    rec.check("fitted ln ln t no worse than unit", comp["fitted_lnln"] <= comp["unit_lnln"] + 1e-12)
    phys.update(_sim_checks(rec, "k=-2", result, trace.times, trace.positions))
    return rec


# -------------------------------------------------------------------- certify

def certify_inputs(rng) -> dict:
    log_t = rng.uniform(2.0, 8.0, HEAT_PROBES)
    return {
        "oracle_nodes": sorted(int(i) for i in rng.integers(1, ORACLE_N + 1, ORACLE_POINTS)),
        "heat_probes": [(float(10.0 ** lt), float(rng.uniform(0.1, 3.0) * 10.0 ** (0.5 * lt)))
                        for lt in log_t],
    }


def verify_suites(work: Path) -> dict:
    """Each suite's checks as written by `verify`: {suite: {check: [verdict,
    domain]}}, or {suite: None} when the suite wrote no report."""
    out = {}
    for suite in cli.SUITES:
        _quiet(["verify", "--suite", suite, "--out", str(work)])
        path = work / f"verify_{suite}.csv"
        if not path.exists():
            out[suite] = None
            continue
        cols = io.read_csv_columns(path)
        out[suite] = {str(name): [str(verdict), str(domain)]
                      for name, verdict, domain in zip(cols["check"], cols["verdict"],
                                                       cols["domain"])}
    return out


def certify(work: Path, inputs: dict, reference: dict | None) -> PassRecord:
    """The four verify suites through the CLI, the w_eval-against-oracle
    comparison and heat-kernel probes."""
    rec = PassRecord(inputs)
    suites = verify_suites(work)
    for suite, checks in suites.items():
        if checks is None:
            rec.check(f"verify {suite} wrote its report", False)
            continue
        for name, (verdict, _) in checks.items():
            rec.check(f"verify {suite}: {name}", verdict == "pass")
        if reference is not None:
            # a suite that drops a check, or checks it on a smaller domain,
            # is not the seed's certificate
            domains = {name: domain for name, (_, domain) in checks.items()}
            rec.check(f"verify {suite} runs the seed's checks on the seed's domains",
                      domains == reference["certify"][suite])
    phys = rec.physics
    phys["verdicts"] = {suite: checks and {name: v for name, (v, _) in checks.items()}
                        for suite, checks in suites.items()}

    nodes = np.asarray(inputs["oracle_nodes"])
    oracle_err = {}
    for r in ORACLE_RS:
        grid = special.w_ode_oracle(r, 10.0, ORACLE_N)
        ys, ref = grid.grid()[nodes], grid.values[nodes]
        err = max(abs(special.w_eval(r, float(y)) - v) / (1.0 + abs(v)) for y, v in zip(ys, ref))
        oracle_err[f"{r:g}"] = err
        rec.check(f"w_eval r={r:g} matches the ODE oracle to 1e-7", err <= 1e-7)
    phys["w_oracle_max_rel_err"] = oracle_err

    def v_checked(t, x):
        """v_dirichlet(t, x), checked against the sinh-form quadrature."""
        res = heatkernel.v_dirichlet(t, x)
        other = heatkernel.v_dirichlet_sinh_form(t, x).value
        rel = abs(res.value - other) / abs(other)
        rec.check(f"v({t:.4g}, {x:.4g}) matches the sinh form to {HEAT_RTOL:g}", rel <= HEAT_RTOL)
        return res, rel

    ratio = {t: v_checked(t, 2.0 * math.sqrt(t))[0].value * 2.0 * t / math.log(t)
             for t in (1e4, 1e8)}
    limit = heatkernel.X_EQ_2SQRT_T_LIMIT
    rel8 = abs(ratio[1e8] / limit - 1.0)
    rec.check("v(1e8, 2e4) ratio within 15% of its limit", rel8 <= 0.15)
    rec.check("ratio at t=1e8 closer to the limit than at t=1e4",
              abs(ratio[1e8] - limit) < abs(ratio[1e4] - limit))
    phys["heat_ratio"] = {"1e4": ratio[1e4], "1e8": ratio[1e8], "rel_err_1e8": rel8}

    probes = []
    for t, x in inputs["heat_probes"]:
        res, rel = v_checked(t, x)
        probes.append([t, x, res.value, res.evaluations, rel])
        rec.check(f"0 < v({t:.4g}, {x:.4g}) <= 1", 0.0 < res.value <= 1.0)
    phys["heat_probes"] = probes
    return rec


# name -> (draw inputs from the seeded generator, run one pass)
WORKLOADS = {
    "drift-sweep": (drift_inputs, drift_sweep),
    "critical-tail": (critical_inputs, critical_tail),
    "certify": (certify_inputs, certify),
}
