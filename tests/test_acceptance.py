"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as the experiment
log.  The four noncritical runs (t_end = 5000) and the critical run
(t_end = 1e5) come from session fixtures in conftest.py.
"""

import math

import numpy as np
import pytest

from kppfront import (
    extract_level,
    fit_critical,
    fit_log_correction,
    minimal_wave,
    ode_residual,
    phi_gamma,
    w_asymptotic_constant,
    w_eval,
    w_ode_oracle,
    wave_distance,
)
from kppfront.ansatz import (
    check_linear_residual_identity,
    check_phi_eta_sub,
    check_subsolution,
    check_supersolution,
    check_tw_shift,
)
from kppfront.frontfit import critical_residual_comparison
from kppfront.heatkernel import (
    X_EQ_2SQRT_T_LIMIT,
    gradient_bound_constant,
    v_dirichlet,
    verify_midrange_band,
)
from kppfront.sim import Stepper
from kppfront.waves import _rk4_wave

R_TARGETS = {3.0: -1.0, 1.0: 0.0, 0.0: 0.5, -1.0: 1.0}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


class TestCriterion1BramsonCoefficientLaw:
    def test_coefficients_within_tolerance_and_ordered(self, k_runs):
        fits = {}
        for k, res in k_runs.items():
            fits[k] = fit_log_correction(res.traces[0.5], t_min=200.0)
        ok = True
        details = []
        for k in (3.0, 1.0, 0.0, -1.0):
            r_hat, target = fits[k].r_hat, R_TARGETS[k]
            good = abs(r_hat - target) <= 0.2
            ok &= good
            details.append(f"k={k:g}: r_hat={r_hat:+.3f} (target {target:+.1f})")
        order = fits[3.0].r_hat < fits[1.0].r_hat < fits[0.0].r_hat < fits[-1.0].r_hat
        ok &= order
        _report("criterion-1 coefficient law", ok, "; ".join(details) + f"; ordered={order}")
        for k in fits:
            assert abs(fits[k].r_hat - R_TARGETS[k]) <= 0.2
        assert order

    def test_level_positions_spread_at_speed_two(self, k_runs, critical_run):
        all_runs = dict(k_runs)
        all_runs[-2.0] = critical_run
        for k, res in all_runs.items():
            tr = res.traces[0.5]
            late = tr.times >= 500.0
            ratio = tr.positions[late] / tr.times[late]
            assert np.all((1.9 <= ratio) & (ratio <= 2.1)), f"spreading broken for k={k}"
            t100 = tr.times >= 100.0
            bound = 10.0 * np.log(tr.times[t100]) / tr.times[t100]
            assert np.all(np.abs(tr.positions[t100] / tr.times[t100] - 2.0) <= bound)


class TestCriterion2DeviationSign:
    def test_delay_advance_and_neutral(self, k_runs):
        d = {k: r.traces[0.5].delays() for k, r in k_runs.items()}
        t = {k: r.traces[0.5].times for k, r in k_runs.items()}

        win0 = (t[0.0] >= 500.0) & (t[0.0] <= 5000.0)
        increasing = bool(np.all(np.diff(d[0.0][win0]) > 0.0))

        win3 = (t[3.0] >= 500.0) & (t[3.0] <= 5000.0)
        decreasing = bool(np.all(np.diff(d[3.0][win3]) < 0.0))

        d1 = d[1.0][(t[1.0] >= 500.0)]
        neutral_span = abs(d1[-1] - d1[0])
        ok = increasing and decreasing and neutral_span <= 0.3
        _report(
            "criterion-2 deviation signs", ok,
            f"k=0 increasing={increasing}; k=3 decreasing={decreasing}; "
            f"k=1 |d(5000)-d(500)|={neutral_span:.3f} (<=0.3)",
        )
        assert increasing and decreasing
        assert neutral_span <= 0.3


class TestCriterion3CriticalCase:
    def test_lnln_coefficient_and_residual_halving(self, critical_run):
        tr = critical_run.traces[0.5]
        fit = fit_critical(tr, t_min=1000.0, t_max=1e5)
        res = critical_residual_comparison(tr, t_min=1000.0, t_max=1e5)
        in_band = 0.3 <= fit.r_hat <= 1.7
        halved = res["unit_lnln"] <= 0.5 * res["pure_log"]
        ok = in_band and halved
        _report(
            "criterion-3 critical case", ok,
            f"lnln coeff={fit.r_hat:.3f} (band [0.3, 1.7]); residuals: "
            f"pure-log={res['pure_log']:.3f}, unit-lnln={res['unit_lnln']:.3f} "
            f"(must halve), fitted-lnln={res['fitted_lnln']:.3f}",
        )
        assert in_band
        assert halved
        # the fitted model should do at least as well as the pinned one
        assert res["fitted_lnln"] <= res["unit_lnln"] + 1e-12


class TestCriterion4SelfSimilarProfiles:
    R_SET = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.25)

    def test_profile_suite(self):
        worst = 0.0
        for r in self.R_SET:
            grid = w_ode_oracle(r, 10.0, 100_000)
            ys = grid.grid()
            for i in range(0, ys.size, 200):
                err = abs(w_eval(r, float(ys[i])) - grid.values[i]) / (1.0 + abs(grid.values[i]))
                worst = max(worst, err)
        gauss_err = abs(w_eval(1.5, 1.0) - math.exp(-0.25))
        c_worst = 0.0
        for r in self.R_SET:
            grid = w_ode_oracle(r, 50.0, 200_000)
            ratio = grid.values[-1] / 50.0 ** (1.0 - 2.0 * r)
            c_worst = max(c_worst, abs(ratio / w_asymptotic_constant(r) - 1.0))
        ok = worst <= 1e-7 and gauss_err <= 1e-10 and c_worst <= 0.02
        _report(
            "criterion-4 self-similar profiles", ok,
            f"max |w - oracle| = {worst:.2e} (<=1e-7); gaussian closed form err "
            f"{gauss_err:.1e} (<=1e-10); tail-constant mismatch {c_worst:.2%} (<=2%)",
        )
        assert worst <= 1e-7
        assert gauss_err <= 1e-10
        assert c_worst <= 0.02


class TestCriterion5WaveSuite:
    def test_wave_suite(self):
        wave = minimal_wave()
        residual = ode_residual(wave)
        u0 = abs(float(wave(0.0)) - 0.5)
        # window stability: shift the fit window by 5 units
        z = wave.grid()
        ratios = wave.values * np.exp(z) / np.where(z != 0.0, z, 1.0)
        w1 = (z >= wave.z_max - 10.0) & (z <= wave.z_max)
        w2 = (z >= wave.z_max - 15.0) & (z <= wave.z_max - 5.0)
        b1, b2 = float(ratios[w1].mean()), float(ratios[w2].mean())
        b_shift = abs(b1 - b2) / b1

        # phi_gamma is phi_1 / gamma by construction: check it against
        # phi_gamma's own equation integrated from (1/(2 gamma), 0)
        scale_err = 0.0
        for g in (2.0, math.exp(2.0)):
            p = phi_gamma(g)
            direct, _ = _rk4_wave(0.5 / g, 0.0, len(p.values) - 1, p.dz, g)
            scale_err = max(scale_err, g * float(np.max(np.abs(p.values - direct))))
        p2 = phi_gamma(2.0)
        logslope_ok = bool(np.all(p2.dvalues[1:] / p2.values[1:] >= -1.0 - 1e-12))
        phi_residual = ode_residual(p2)

        ok = (
            residual <= 1e-8 and u0 <= 1e-9 and b_shift <= 0.02
            and scale_err <= 1e-10 and logslope_ok and phi_residual <= 1e-8
        )
        _report(
            "criterion-5 wave suite", ok,
            f"residual={residual:.1e} (<=1e-8); |U(0)-1/2|={u0:.1e}; "
            f"B window shift={b_shift:.2%} (<=2%); gamma-scaling err={scale_err:.1e} "
            f"(<=1e-10); phi'/phi >= -1: {logslope_ok}",
        )
        assert residual <= 1e-8
        assert u0 <= 1e-9
        assert b_shift <= 0.02
        assert scale_err <= 1e-10
        assert logslope_ok
        assert phi_residual <= 1e-8


class TestCriterion6AnsatzCertificates:
    R_SET = (-1.0, 0.0, 0.5, 1.0, 1.25)

    def test_certificates(self):
        supers = {r: check_supersolution(r) for r in self.R_SET}
        subs = {r: check_subsolution(r) for r in self.R_SET}
        phis = {r: check_phi_eta_sub(r) for r in (-1.0, -0.25)}
        tws = {k: check_tw_shift(k) for k in (0.0, 1.0, 3.0)}
        idents = [
            check_linear_residual_identity(r, max(r, 0.0)) for r in self.R_SET
        ] + [
            check_linear_residual_identity(r, r - 2.0) for r in self.R_SET
        ]
        mismatch = max(rep.closed_form_mismatch for rep in idents)
        ok = (
            all(r.passed for r in supers.values())
            and all(r.passed for r in subs.values())
            and all(r.passed for r in phis.values())
            and all(r.passed for r in tws.values())
            and mismatch <= 1e-4
        )
        tw_kinds = {k: tws[k].details["acts_as"] for k in tws}
        _report(
            "criterion-6 ansatz certificates", ok,
            f"super/sub pass for r in {self.R_SET}; phi-boost pass for r in (-1, -1/4); "
            f"tw-shift kinds {tw_kinds}; max closed-form-vs-FD mismatch {mismatch:.1e} (<=1e-4)",
        )
        assert ok
        assert tw_kinds == {0.0: "sub", 1.0: "both", 3.0: "super"}


class TestCriterion7HeatKernelAsymptotics:
    def test_heat_kernel(self):
        t8, t4 = 1e8, 1e4
        ratio8 = v_dirichlet(t8, 2e4).value * 2.0 * t8 / math.log(t8)
        ratio4 = v_dirichlet(t4, 200.0).value * 2.0 * t4 / math.log(t4)
        rel8 = abs(ratio8 / X_EQ_2SQRT_T_LIMIT - 1.0)
        closer = abs(ratio8 - X_EQ_2SQRT_T_LIMIT) < abs(ratio4 - X_EQ_2SQRT_T_LIMIT)
        band_reports = [verify_midrange_band(t) for t in (1e3, 1e5, 1e7)]
        bands_ok = all(r.passed for r in band_reports)
        c_hat, grad_report = gradient_bound_constant()
        grad_ok = grad_report.passed and math.isfinite(c_hat)
        ok = rel8 <= 0.15 and closer and bands_ok and grad_ok
        _report(
            "criterion-7 heat-kernel asymptotics", ok,
            f"ratio(1e8)={ratio8:.4f} vs {X_EQ_2SQRT_T_LIMIT:.4f} ({rel8:.1%} <= 15%); "
            f"closer than t=1e4: {closer}; bands pass: {bands_ok}; C_hat={c_hat:.3f}",
        )
        assert rel8 <= 0.15
        assert closer
        assert bands_ok
        assert grad_ok


class TestCriterion8ConvergenceToProfile:
    def test_shift_minimized_distance(self, k_runs):
        wave = minimal_wave()
        res = k_runs[1.0]
        dists = {}
        for ts in (100.0, 1000.0):
            snap = res.snapshots[ts]
            center = extract_level(snap, ts, 0.5)
            _, dist = wave_distance(snap, ts, wave, center)
            dists[ts] = dist
        # both values sit at the discretization floor (~5e-5), so the
        # comparison carries the +0.005 noise allowance the drift-law
        # invariants define for exactly this quantity
        small = dists[1000.0] <= 0.05
        improving = dists[1000.0] <= dists[100.0] + 0.005
        ok = small and improving
        _report(
            "criterion-8 convergence to profile", ok,
            f"dist(t=1000)={dists[1000.0]:.2e} (<=0.05); dist(t=100)={dists[100.0]:.2e}; "
            f"non-increasing within 0.005: {improving}",
        )
        assert small
        assert improving

    def test_monotone_improvement_within_noise(self, k_runs):
        wave = minimal_wave()
        res = k_runs[1.0]
        prev = None
        for ts in (100.0, 300.0, 1000.0):
            snap = res.snapshots[ts]
            center = extract_level(snap, ts, 0.5)
            _, dist = wave_distance(snap, ts, wave, center)
            if prev is not None:
                assert dist <= prev + 0.005
            prev = dist


class TestCriterion9DeterminismAndComparison:
    def test_identical_configs_identical_outputs(self, tmp_path):
        from kppfront.cli import main

        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            "k = 0\nt_end = 60\nxi_min = -40\nxi_max = 90\ndxi = 0.1\ndt = 0.05\nlevels = 0.5\n",
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "traces" / "level_0.5.csv").read_bytes()
        b = (tmp_path / "b" / "traces" / "level_0.5.csv").read_bytes()
        ok = a == b
        _report("criterion-9 determinism", ok, f"byte-identical trace CSVs: {ok}")
        assert ok

    def test_fifty_ordered_pairs_stay_ordered(self, rng):
        n = 240
        stepper = Stepper(n, 0.05, 0.01)
        worst = 0.0
        for _ in range(50):
            a = np.sort(rng.uniform(0.0, 1.0, n))[::-1].copy()
            b = np.sort(rng.uniform(0.0, 1.0, n))[::-1].copy()
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            for arr in (lo, hi):
                arr[0], arr[-1] = 1.0, 0.0
            for _step in range(1000):
                lo = stepper.step_values(lo)
                hi = stepper.step_values(hi)
            worst = max(worst, float(np.max(lo - hi)))
        ok = worst <= 1e-12
        _report(
            "criterion-9 comparison principle", ok,
            f"worst ordering violation over 50 pairs x 1000 steps: {worst:.2e} (<=1e-12)",
        )
        assert ok


class TestDriftLawModuleInvariants:
    """front_fit invariants that need the production traces."""

    def test_k0_module_example_band(self, k_runs):
        fit = fit_log_correction(k_runs[0.0].traces[0.5], t_min=200.0)
        assert 0.35 <= fit.r_hat <= 0.65

    @pytest.mark.parametrize("k", [0.0, 1.0, 3.0])
    def test_estimator_consistency(self, k_runs, k):
        fit = fit_log_correction(k_runs[k].traces[0.5], t_min=500.0)
        assert abs(fit.r_hat - fit.r_hat_pairwise) <= 0.05

    def test_advance_case_positive_drift(self, k_runs):
        # x(t) - 2t grows like +ln t for k = 3
        tr = k_runs[3.0].traces[0.5]
        gain = -(tr.delays()[-1] - tr.delays()[tr.times >= 500.0][0])
        expected = math.log(5000.0 / 500.0)
        assert 0.5 * expected <= gain <= 1.5 * expected


class TestSimulationGuards:
    def test_no_boundary_alarm_in_production_runs(self, k_runs, critical_run):
        for res in list(k_runs.values()) + [critical_run]:
            assert not res.boundary_alarm
