"""Command-line front end: simulate, verify, fit, report.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 verification failure.  All outputs are deterministic given the config
bytes; simulate and verify drop a manifest carrying the config digest
(manifest.json, and manifest_verify_<suite>.json so that the four suites can
share one directory).

This module writes and parses every CSV of a run directory except the heat
sweep, which heatkernel.sweep_to_csv writes; a file that report reads back
(trace, fit, verify) has one column tuple that its writer and reader share.

Only cmd_verify imports ansatz and heatkernel, and with them scipy; simulate
loads what scipy.linalg pulls in, through sim.Stepper.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, frontfit, sim
from .errors import DomainError, NumericsError
from .io import atomic_write_text, read_csv_columns, write_csv
from .report import VerificationReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICS = 2
EXIT_VERIFICATION = 3

SUITES = ("supersolutions", "subsolutions", "critical", "heat")
_R_SET = (-1.0, 0.0, 0.5, 1.0, 1.25)

TRACE_COLUMNS = ("t", "x_m")
FIT_COLUMNS = ("estimator", "coefficient", "r_hat", "intercept", "residual_max",
               "t_min", "t_max", "r_hat_pairwise")
VERIFY_COLUMNS = ("check", "verdict", "worst_signed_residual", "closed_form_mismatch",
                  "domain", "details")
# the coefficient column of a fit CSV: "r" for the ln t coefficient, this
# for the ln ln t coefficient of the critical fit
LNLN_LABEL = "lnln_coeff"
ESTIMATOR = "least_squares"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, digest: str, outputs: list[str],
                    extra: dict | None = None, name: str = "manifest.json") -> None:
    manifest = {
        "command": command,
        "config_digest": digest,
        "tool_version": __version__,
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    atomic_write_text(out_dir / name, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        print(f"config not found: {config_path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = sim.load_config(config_path)
    except ValueError as exc:  # DomainError included; main does not map ValueError
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out)
    result = sim.simulate(config)
    outputs = []
    for level, trace in sorted(result.traces.items()):
        rel = f"traces/level_{level:g}.csv"
        write_csv(out_dir / rel, TRACE_COLUMNS, zip(trace.times.tolist(), trace.positions.tolist()))
        outputs.append(rel)
    for t_snap, snap in sorted(result.snapshots.items()):
        rel = f"snapshots/t_{t_snap:g}.csv"
        write_csv(out_dir / rel, ("xi", "u"), zip(snap.grid().tolist(), snap.values.tolist()))
        outputs.append(rel)
    _write_manifest(
        out_dir, "simulate", _digest(config_path), outputs,
        extra={"config": dataclasses.asdict(config), "diagnostics": {
            "clamp_total": result.clamp_total,
            "boundary_alarm": result.boundary_alarm,
            "n_steps": result.n_steps,
            "dt_min": result.dt_min,
            "dt_max": result.dt_max,
            "newton_iterations": result.newton_iterations,
            "newton_iterations_max": result.newton_iterations_max,
        }},
    )
    print(f"simulate k={config.k:g}: {len(outputs)} files under {out_dir}")
    return EXIT_OK


def text_block(report: VerificationReport) -> str:
    lines = [f"[{report.verdict.upper()}] {report.name}"]
    for key, val in report.domain.items():
        lines.append(f"    domain {key}: {val}")
    lines.append(f"    worst signed residual: {report.worst_signed_residual:.6e}")
    if not math.isnan(report.closed_form_mismatch):
        lines.append(f"    closed-form vs FD mismatch: {report.closed_form_mismatch:.3e}")
    for key, val in report.details.items():
        lines.append(f"    {key}: {val}")
    return "\n".join(lines)


def _kv_cell(mapping: dict) -> str:
    # detail values may be tuples; keep the cell comma-free for the flat CSV
    return ";".join(f"{k}={str(v).replace(',', ' ')}" for k, v in mapping.items())


def reports_to_csv(reports: list[VerificationReport], path) -> None:
    write_csv(path, VERIFY_COLUMNS, [
        (r.name, r.verdict, r.worst_signed_residual, r.closed_form_mismatch,
         _kv_cell(r.domain), _kv_cell(r.details))
        for r in reports
    ])


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}", file=sys.stderr)
        return EXIT_USAGE
    # here, not at module level: the other commands never load their scipy
    from . import ansatz, heatkernel

    if args.suite == "supersolutions":
        reports = ([ansatz.check_supersolution(r) for r in _R_SET]
                   + [ansatz.check_linear_residual_identity(r, max(r, 0.0)) for r in (0.0, 0.5, 1.0)]
                   + [ansatz.check_tw_shift(k) for k in (1.0, 3.0)])
    elif args.suite == "subsolutions":
        reports = ([ansatz.check_subsolution(r) for r in _R_SET]
                   + [ansatz.check_linear_residual_identity(r, r - 2.0) for r in (0.5, 1.0)]
                   + [ansatz.check_phi_eta_sub(r) for r in (-1.0, -0.25)]
                   + [ansatz.check_tw_shift(0.0)])
    elif args.suite == "critical":
        reports = [ansatz.check_critical_sub(), ansatz.check_critical_super()]
    else:
        reports = ([heatkernel.verify_midrange_band(t) for t in (1e3, 1e5, 1e7)]
                   + [heatkernel.verify_weighted_sup_exponent(0.1),
                      heatkernel.gradient_bound_constant()[1]])
    out_dir = Path(args.out)
    outputs = [f"verify_{args.suite}.csv"]
    reports_to_csv(reports, out_dir / outputs[0])
    if args.suite == "heat":
        ts = np.array([1e2, 1e4, 1e6, 1e8])
        xs = 2.0 * np.sqrt(ts)
        res = heatkernel.v_dirichlet(ts, xs)
        records = list(zip(ts.tolist(), xs.tolist(), res.value.tolist(),
                           res.abs_error_estimate.tolist()))
        sweep = "heat_sweep_2sqrt_t.csv"
        heatkernel.sweep_to_csv(records, out_dir / sweep)
        outputs.append(sweep)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        print(text_block(r))
    # one manifest per suite: the suites share an --out directory
    _write_manifest(
        out_dir, f"verify {args.suite}",
        hashlib.sha256(args.suite.encode()).hexdigest(),
        outputs, name=f"manifest_verify_{args.suite}.json",
    )
    if failed:
        worst = max(failed, key=lambda r: abs(r.worst_signed_residual))
        print(
            f"{len(failed)} checks failed; worst violation {worst.worst_signed_residual:.3e} "
            f"in {worst.name}",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def _columns(path: Path, names: tuple[str, ...]) -> dict[str, list]:
    """The columns of a CSV; ValueError unless it has the named ones and a row."""
    cols = read_csv_columns(path)
    if any(name not in cols for name in names) or not cols[names[0]]:
        raise ValueError(f"{path}: expected columns {', '.join(names)} and a data row")
    return cols


def _trace_from_csv(path: Path) -> sim.FrontTrace:
    cols = _columns(path, TRACE_COLUMNS)
    times, positions = (np.asarray(cols[name], dtype=float) for name in TRACE_COLUMNS)
    return sim.FrontTrace(times=times, positions=positions)


def _fit_block(fit: frontfit.FitResult, label: str) -> str:
    lines = [
        f"estimator     : {ESTIMATOR}",
        f"window        : t in [{fit.window[0]:g}, {fit.window[1]:g}]",
        f"{label:<14}: {fit.r_hat:+.6f}",
        f"intercept     : {fit.intercept:+.6f}",
        f"residual_max  : {fit.residual_max:.3e}",
    ]
    if fit.r_hat_pairwise is not None:
        lines.insert(3, f"pairwise      : {fit.r_hat_pairwise:+.6f}")
    return "\n".join(lines)


def cmd_fit(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.is_file():
        print(f"trace not found: {trace_path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        trace = _trace_from_csv(trace_path)
    except ValueError as exc:
        print(f"malformed trace CSV: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.critical:
        fit, label, suffix = frontfit.fit_critical(trace, args.t_min), LNLN_LABEL, "_critical"
    else:
        fit, label, suffix = frontfit.fit_log_correction(trace, args.t_min), "r", ""
    out_dir = Path(args.out) if args.out else trace_path.parent.parent
    pairwise = math.nan if fit.r_hat_pairwise is None else fit.r_hat_pairwise
    write_csv(out_dir / f"fit_{trace_path.stem}{suffix}.csv", FIT_COLUMNS,
              [(ESTIMATOR, label, fit.r_hat, fit.intercept, fit.residual_max, *fit.window,
                pairwise)])
    print(_fit_block(fit, label))
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"run directory not found: {run_dir}", file=sys.stderr)
        return EXIT_USAGE
    manifests = sorted(run_dir.glob("**/manifest.json"))
    sim_rows = []
    critical_rows = []
    for mpath in manifests:
        try:
            meta = json.loads(mpath.read_text())
            if not isinstance(meta, dict):
                raise ValueError("not a JSON object")
            config = meta.get("config", {})
            if not isinstance(config, dict):
                raise ValueError("config is not a JSON object")
            k = config.get("k")
            if k is not None and (isinstance(k, bool) or not isinstance(k, (int, float))):
                raise ValueError(f"config k is not a number: {k!r}")
        except ValueError as exc:
            print(f"malformed manifest: {mpath}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if meta.get("command") != "simulate" or k is None:
            continue
        sim_dir = mpath.parent
        fits = sorted(sim_dir.glob("fit_level_*.csv"))
        if not fits:
            print(f"missing fit result for {sim_dir} (expected fit_level_*.csv)", file=sys.stderr)
            return EXIT_USAGE
        for fpath in fits:
            try:
                cols = _columns(fpath, ("coefficient", "r_hat", "residual_max"))
                coeff = cols["coefficient"][0]
                r_hat = float(cols["r_hat"][0])
                residual = float(cols["residual_max"][0])
            except ValueError as exc:
                print(f"malformed fit CSV: {exc}", file=sys.stderr)
                return EXIT_USAGE
            if coeff == LNLN_LABEL:
                critical_rows.append((k, r_hat, residual, str(fpath)))
            else:
                r_target = frontfit.drift_target(k)
                sim_rows.append((k, r_target, r_hat, abs(r_hat - r_target)))
    verdict_rows = []
    for vpath in sorted(run_dir.glob("**/verify_*.csv")):
        try:
            cols = _columns(vpath, VERIFY_COLUMNS[:2])  # check, verdict
        except ValueError as exc:
            print(f"malformed verify CSV: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for name, verdict in zip(cols["check"], cols["verdict"]):
            verdict_rows.append((str(name), str(verdict)))
    lines = ["run report", "==========", ""]
    if sim_rows:
        lines.append("k        r_target   r_hat      |delta|")
        for k, rt, rh, d in sorted(sim_rows):
            lines.append(f"{k:<8g} {rt:<10g} {rh:<10.4f} {d:<10.4f}")
        lines.append("")
    if critical_rows:
        lines.append("critical-case ln ln t coefficients (target 1):")
        for k, c, res, src in critical_rows:
            lines.append(f"  k={k:g}: coeff={c:.4f} residual={res:.3e}  [{src}]")
        lines.append("")
    if verdict_rows:
        fails = [n for n, v in verdict_rows if v != "pass"]
        lines.append(f"verification checks: {len(verdict_rows)} total, {len(fails)} failed")
        for n, v in verdict_rows:
            lines.append(f"  [{v}] {n}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    atomic_write_text(run_dir / "report.txt", text)
    write_csv(
        run_dir / "report.csv",
        ("k", "r_target", "r_hat", "abs_delta"),
        [(k, rt, rh, d) for k, rt, rh, d in sorted(sim_rows)],
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kppfront",
        description="Drift laws and sub/super-solution certificates for the "
                    "Fisher-KPP front at desk scale",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the co-moving-frame solver from a config file")
    p_sim.add_argument("--config", required=True, help="flat key = value config file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a certificate suite")
    p_ver.add_argument("--suite", required=True, help=f"one of {', '.join(SUITES)}")
    p_ver.add_argument("--out", default=".", help="where to write the report CSV")
    p_ver.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit", help="fit drift laws to a level trace CSV")
    p_fit.add_argument("trace", help="trace CSV with columns t, x_m")
    p_fit.add_argument("--critical", action="store_true", help="fixed 3/2 log, fit the ln ln t coefficient")
    p_fit.add_argument("--t-min", type=float, default=200.0, dest="t_min")
    p_fit.add_argument("--out", default=None, help="output directory (default: next to the trace)")
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser("report", help="summarize a directory of runs")
    p_rep.add_argument("run_dir")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help/--version
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except DomainError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
