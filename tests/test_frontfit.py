"""Drift-law fitting and wave distance on synthetic data with known answers."""

import warnings

import numpy as np
import pytest

from kppfront import DomainError, GridFunction, fit_critical, fit_log_correction, minimal_wave, wave_distance
from kppfront.frontfit import critical_residual_comparison
from kppfront.sim import FrontTrace


def make_trace(times, positions):
    return FrontTrace(times=np.asarray(times, float), positions=np.asarray(positions, float))


def geometric_times(t0, t1, factor=1.2):
    out = [t0]
    while out[-1] * factor < t1:
        out.append(out[-1] * factor)
    out.append(t1)
    return np.asarray(out)


class TestFitLogCorrection:
    def test_exact_on_model_class(self):
        t = geometric_times(50.0, 5000.0)
        x = 2.0 * t - 0.5 * np.log(t) + 3.0
        fit = fit_log_correction(make_trace(t, x), t_min=50.0)
        np.testing.assert_allclose(fit.r_hat, 0.5, atol=1e-12)
        np.testing.assert_allclose(fit.intercept, -3.0, atol=1e-10)
        assert fit.residual_max < 1e-10
        np.testing.assert_allclose(fit.r_hat_pairwise, 0.5, atol=1e-12)

    def test_advance_sign_convention(self):
        t = geometric_times(50.0, 5000.0)
        x = 2.0 * t + np.log(t) - 7.0
        fit = fit_log_correction(make_trace(t, x), t_min=50.0)
        np.testing.assert_allclose(fit.r_hat, -1.0, atol=1e-12)
        np.testing.assert_allclose(fit.intercept, 7.0, atol=1e-10)

    def test_window_filter_and_underdetermined(self):
        t = np.asarray([10.0, 400.0, 900.0, 2000.0])
        x = 2.0 * t - np.log(t)
        fit = fit_log_correction(make_trace(t, x), t_min=100.0)
        assert fit.window[0] >= 100.0
        with pytest.raises(DomainError, match="under-determined"):
            fit_log_correction(make_trace(t[:2], x[:2]), t_min=1.0)


class TestFitCritical:
    def test_exact_on_model_class(self):
        t = geometric_times(150.0, 100_000.0)
        x = 2.0 * t - 1.5 * np.log(t) + np.log(np.log(t)) - 2.0
        fit = fit_critical(make_trace(t, x), t_min=150.0)
        np.testing.assert_allclose(fit.r_hat, 1.0, atol=1e-10)
        np.testing.assert_allclose(fit.intercept, 2.0, atol=1e-9)
        assert fit.residual_max < 1e-10

    def test_null_model_gives_zero_coefficient(self):
        t = geometric_times(150.0, 100_000.0)
        x = 2.0 * t - 1.5 * np.log(t) - 2.0
        fit = fit_critical(make_trace(t, x), t_min=150.0)
        np.testing.assert_allclose(fit.r_hat, 0.0, atol=1e-10)

    def test_preconditions(self):
        t = geometric_times(150.0, 100_000.0)
        x = 2.0 * t
        with pytest.raises(DomainError, match="t_min"):
            fit_critical(make_trace(t, x), t_min=50.0)
        narrow = (t >= 200.0) & (t <= 900.0)
        with pytest.raises(DomainError, match="decade"):
            fit_critical(make_trace(t[narrow], x[narrow]), t_min=200.0)

    def test_residual_comparison_prefers_true_model(self):
        t = geometric_times(1000.0, 100_000.0)
        x = 2.0 * t - 1.5 * np.log(t) + np.log(np.log(t)) - 2.0
        res = critical_residual_comparison(make_trace(t, x), t_min=1000.0)
        assert res["unit_lnln"] < 1e-10
        assert res["fitted_lnln"] < 1e-10
        assert res["pure_log"] > 0.2  # ln ln t varies by ~0.5 over these two decades
        np.testing.assert_allclose(res["kappa"], 1.0, atol=1e-10)


@pytest.fixture(scope="module")
def wave():
    return minimal_wave()


class TestWaveDistance:
    def test_recovers_known_shift(self, wave):
        dxi = 0.05
        xi = dxi * np.arange(801)  # x in [0, 40] at t = 0
        state = GridFunction(0.0, dxi, wave(xi - 2.5))
        h_star, dist = wave_distance(state, 0.0, wave, center=0.0)
        assert abs(h_star - (-2.5)) <= 1e-3
        assert dist <= 1e-6

    def test_constant_state_cannot_fit(self, wave):
        state = GridFunction(0.0, 0.05, np.full(801, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, dist = wave_distance(state, 0.0, wave, center=20.0)
        assert dist >= 0.49

    def test_translation_invariance(self, wave):
        dxi = 0.05
        xi = dxi * np.arange(801)
        vals = wave(xi - 13.0)
        s = 3.7
        d0 = wave_distance(GridFunction(0.0, dxi, vals), 0.0, wave, center=10.0)
        d1 = wave_distance(GridFunction(s, dxi, vals), 0.0, wave, center=10.0 + s)
        assert abs(d0[1] - d1[1]) <= 1e-9
        assert abs(d0[0] - d1[0]) <= 1e-6

    def test_boundary_hit_warns(self, wave):
        dxi = 0.05
        xi = dxi * np.arange(801)
        state = GridFunction(0.0, dxi, wave(xi - 25.0))  # true shift far outside [-10, 10]
        with pytest.warns(UserWarning, match="boundary"):
            wave_distance(state, 0.0, wave, center=0.0)
