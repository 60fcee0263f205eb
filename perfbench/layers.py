"""The program functions the traced run wraps, and the per-layer metrics.

Each function is wrapped at every name its callers look it up by: `cli`
calls `sim.simulate` through the module, while `ansatz` and `cli` bound
`w_eval`, `minimal_wave`, `write_csv` and friends by name at import, so
those copies are replaced too.  Calls made thousands of times per pass are
folded into counts and totals instead of one span per call.
"""

from __future__ import annotations

import os

from kppfront import ansatz, cli, frontfit, heatkernel, io, sim, special, waves

CACHED_PROFILES = (waves.minimal_wave, waves.phi_gamma)
STEP = "sim.Stepper.step_weighted"

# ROADMAP baseline (2-core sandbox) and an earlier reading on a shared 2-core
# x86-64 machine, reported next to the measured per-call figures.
BASELINE_US = {
    "sim.step_us@6644": {"roadmap": 256.0, "earlier_reading": 287.0},
    "sim.step_us@10688": {"roadmap": 330.0, "earlier_reading": 423.0},
    "special.w_eval_us": {"roadmap": 6.6},
    "heatkernel.v_dirichlet_us": {"roadmap": 140.0},
}


def step_cost(n: int) -> dict:
    """Floating-point operations and bytes moved by one Stepper.step_weighted
    call on n nodes, computed from array sizes (8-byte floats, 4-byte
    indices), not measured.

    rhs = ub - dt*(w*ub*ub): four elementwise passes, 4n flops, 80n bytes.
    Tridiagonal LU solve: forward and back substitution, 5n flops; reads rhs
    and the 3n factor values with their row indices, writes the result: 52n
    bytes (the solver's permutation gathers are not counted).
    u = ub * w: n flops, 24n bytes.  min and max: 2n compares, 16n bytes.
    """
    return {"flops": 12 * n, "bytes": 172 * n}


def instrument(tracer, patches) -> None:
    """Wrap every traced function; `patches` restores them on exit."""
    counters = tracer.counters

    def wrap(owner, attr, name, fold=False, after=None, also=()):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, fold, after)
        patches.set(owner, attr, wrapped)
        for other in also:
            if getattr(other, attr) is not original:
                raise RuntimeError(f"{other.__name__}.{attr} no longer binds {name}")
            patches.set(other, attr, wrapped)

    def count(key, amount=1.0):
        counters[key] += amount

    # cli: main and the command handlers it looks up when building its parser
    wrap(cli, "main", "cli.main")
    for command in ("simulate", "fit", "report"):
        wrap(cli, f"cmd_{command}", f"cli.cmd_{command}")
    wrap(cli, "cmd_verify", "cli.cmd_verify",
         after=lambda a, k, r, s: count(f"check_s.{a[0].suite}", s))
    wrap(cli, "reports_to_csv", "cli.reports_to_csv",
         after=lambda a, k, r, s: count("cli.verify_checks", len(a[0])))

    # sim
    wrap(sim, "simulate", "sim.simulate",
         after=lambda a, k, r, s: count("sim.model_t", r.config.t_end))
    wrap(sim, "load_config", "sim.load_config")
    wrap(sim, "extract_level", "sim.extract_level", fold=True)
    wrap(sim.Stepper, "__init__", "sim.Stepper.__init__", fold=True)
    wrap(sim.Stepper, "step_weighted", "sim.Stepper.step_weighted", fold=True,
         after=lambda a, k, r, s: count("sim.node_steps", a[1].size))

    # frontfit
    for name in ("fit_log_correction", "fit_critical", "critical_residual_comparison",
                 "wave_distance"):
        wrap(frontfit, name, f"frontfit.{name}")

    # waves: cached profile builds, profile evaluation
    wrap(waves, "minimal_wave", "waves.minimal_wave", also=(ansatz,))
    wrap(waves, "phi_gamma", "waves.phi_gamma", also=(ansatz,))
    wrap(waves.WaveProfile, "__call__", "waves.WaveProfile.__call__", fold=True)

    # special
    wrap(special, "w_eval", "special.w_eval", fold=True, also=(ansatz,))
    wrap(special, "w_prime_eval", "special.w_prime_eval", fold=True, also=(ansatz,))
    wrap(special, "w_ode_oracle", "special.w_ode_oracle")

    # ansatz: the certificate checks the verify suites call
    def checked(a, k, report, s):
        count("ansatz.checks")
        count("ansatz.checks_failed", 0.0 if report.passed else 1.0)

    for name in ("check_supersolution", "check_subsolution", "check_linear_residual_identity",
                 "check_tw_shift", "check_phi_eta_sub", "check_critical_sub",
                 "check_critical_super"):
        wrap(ansatz, name, f"ansatz.{name}", after=checked)

    # heatkernel
    wrap(heatkernel, "v_dirichlet", "heatkernel.v_dirichlet", fold=True,
         after=lambda a, k, r, s: count("heatkernel.integrand_evals", r.evaluations))
    wrap(heatkernel, "v_dirichlet_dx", "heatkernel.v_dirichlet_dx", fold=True)
    for name in ("verify_midrange_band", "verify_weighted_sup_exponent",
                 "gradient_bound_constant", "sweep_to_csv"):
        wrap(heatkernel, name, f"heatkernel.{name}")

    # io
    wrap(io, "write_csv", "io.write_csv", also=(cli,),
         after=lambda a, k, r, s: count("io.csv_bytes", os.path.getsize(a[0])))
    wrap(io, "atomic_write_text", "io.atomic_write_text", also=(cli,))
    wrap(io, "read_csv_columns", "io.read_csv_columns", also=(cli,))
    wrap(io, "load_key_value_config", "io.load_key_value_config", also=(sim,))


def count_cache_use(counters) -> None:
    """Add the wave-profile caches' hits and misses since their last clear."""
    for fn in CACHED_PROFILES:
        info = fn.cache_info()
        counters["waves.cache_hits"] += info.hits
        counters["waves.cache_misses"] += info.misses


def per_layer_metrics(tracer, passes: int, untraced_wall_s: float,
                      traced_wall_s: float) -> dict[str, float]:
    """Per-pass figures from a traced run of `passes` passes."""
    calls, total, own, c = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    per_pass = 1.0 / passes

    def mean_us(name):
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fits = calls["frontfit.fit_log_correction"] + calls["frontfit.fit_critical"]
    fit_s = total["frontfit.fit_log_correction"] + total["frontfit.fit_critical"]
    cache_calls = c["waves.cache_hits"] + c["waves.cache_misses"]
    nodes = round(ratio(c["sim.node_steps"], calls[STEP]))
    cost = step_cost(nodes)
    layer_self = tracer.module_self_s()

    m = {
        "sim.steps": calls[STEP] * per_pass,
        "sim.step_us": mean_us(STEP),
        "sim.node_steps_per_s": ratio(c["sim.node_steps"], total[STEP]),
        "sim.stepper_init_s": total["sim.Stepper.__init__"] * per_pass,
        "sim.extract_level_calls": calls["sim.extract_level"] * per_pass,
        "sim.extract_level_us": mean_us("sim.extract_level"),
        "sim.model_t_per_s": ratio(c["sim.model_t"], total["sim.simulate"]),
        "sim.step_flops_computed": float(cost["flops"]),
        "sim.step_bytes_computed": float(cost["bytes"]),
        "frontfit.fit_calls": fits * per_pass,
        "frontfit.fit_us": ratio(fit_s, fits) * 1e6,
        "frontfit.wave_distance_s": total["frontfit.wave_distance"] * per_pass,
        "frontfit.profile_evals": ratio(
            tracer.calls_under[("waves.WaveProfile.__call__", "frontfit.wave_distance")],
            calls["frontfit.wave_distance"]),
        "waves.build_s": (total["waves.minimal_wave"] + total["waves.phi_gamma"]) * per_pass,
        "waves.cache_hit_ratio": ratio(c["waves.cache_hits"], cache_calls),
        "special.w_eval_calls": calls["special.w_eval"] * per_pass,
        "special.w_eval_us": mean_us("special.w_eval"),
        "special.w_ode_oracle_s": total["special.w_ode_oracle"] * per_pass,
        "ansatz.checks": c["ansatz.checks"] * per_pass,
        "ansatz.checks_failed": c["ansatz.checks_failed"] * per_pass,
        "heatkernel.v_dirichlet_calls": calls["heatkernel.v_dirichlet"] * per_pass,
        "heatkernel.v_dirichlet_us": mean_us("heatkernel.v_dirichlet"),
        "heatkernel.integrand_evals": c["heatkernel.integrand_evals"] * per_pass,
        "heatkernel.evals_per_call": ratio(c["heatkernel.integrand_evals"],
                                           calls["heatkernel.v_dirichlet"]),
        "cli.verify_checks_per_s": ratio(c["cli.verify_checks"], total["cli.cmd_verify"]),
        "io.csv_writes": calls["io.write_csv"] * per_pass,
        "io.csv_bytes": c["io.csv_bytes"] * per_pass,
        # write_csv nests atomic_write_text, so their self times add up to
        # the inclusive write time
        "io.write_s": (own["io.write_csv"] + own["io.atomic_write_text"]) * per_pass,
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    for suite in cli.SUITES:
        m[f"ansatz.check_s.{suite}"] = c[f"check_s.{suite}"] * per_pass
    for command in ("simulate", "fit", "report", "verify"):
        m[f"cli.{command}_self_s"] = own[f"cli.cmd_{command}"] * per_pass
    for layer in ("sim", "frontfit", "waves", "special", "ansatz", "heatkernel", "cli", "io",
                  "bench"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * per_pass
    return m


def kernel_record(tracer, values: dict[str, float]) -> dict:
    """Measured per-call figures next to their baselines, and the computed
    cost of one step on the grid that was simulated."""
    out = {}
    steps = tracer.calls[STEP]
    if steps:
        n = round(tracer.counters["sim.node_steps"] / steps)
        key = f"sim.step_us@{n}"
        out[key] = {"measured": values["sim.step_us"], **BASELINE_US.get(key, {})}
        out["step_cost_computed"] = {"n": n, **step_cost(n)}
    for name in ("special.w_eval_us", "heatkernel.v_dirichlet_us"):
        if values[name]:
            out[name] = {"measured": values[name], **BASELINE_US[name]}
    return out
