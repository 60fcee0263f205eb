"""Special-function layer: gamma, Kummer 1F1 and the self-similar profile w,
certified against the fixed-step ODE oracle and closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kppfront import (
    DomainError,
    gamma,
    kummer_1f1,
    kummer_1f1_prime,
    w_asymptotic_constant,
    w_eval,
    w_ode_oracle,
    w_prime_eval,
)
from kppfront.special import CROSSOVER_Z, OVERLAP_WIDTH, kummer_1f1_asymptotic, kummer_1f1_series

R_FAMILY = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.25)


def oracle_1f1_exact_rational(a: Fraction, b: Fraction, z: Fraction, terms: int = 300) -> float:
    """Truncated power series in exact rational arithmetic; for z = 5 the last
    term underflows Fraction-to-float, so the truncation error is far below ulp."""
    term = Fraction(1)
    total = Fraction(1)
    for n in range(terms):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
    return float(total)


class TestGamma:
    def test_half_integer_values(self):
        np.testing.assert_allclose(gamma(0.5), math.sqrt(math.pi), rtol=1e-14)
        np.testing.assert_allclose(gamma(1.0), 1.0, rtol=0)
        np.testing.assert_allclose(gamma(1.5), math.sqrt(math.pi) / 2, rtol=1e-14)

    def test_reflection_against_factorials(self):
        for n in range(2, 12):
            np.testing.assert_allclose(gamma(float(n)), math.factorial(n - 1), rtol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-1.3)


class TestKummer:
    def test_series_constant_term(self):
        for a, b in [(0.3, 1.5), (2.0, 0.7), (-1.2, 3.0)]:
            assert kummer_1f1(a, b, 0.0) == 1.0

    def test_exponential_reduction(self):
        np.testing.assert_allclose(kummer_1f1(1.5, 1.5, 2.0), math.exp(2.0), rtol=1e-14)

    def test_frozen_exact_rational_oracle(self):
        # frozen from oracle_1f1_exact_rational(1/2, 3/2, 5); the erfi identity
        # sqrt(pi) erfi(sqrt z)/(2 sqrt z) reproduces the same digits
        frozen = 17.17215777384149
        live = oracle_1f1_exact_rational(Fraction(1, 2), Fraction(3, 2), Fraction(5))
        np.testing.assert_allclose(live, frozen, rtol=1e-15)
        np.testing.assert_allclose(kummer_1f1(0.5, 1.5, 5.0), frozen, rtol=1e-13)

    def test_nonpositive_integer_b_rejected(self):
        for b in (0.0, -1.0, -4.0):
            with pytest.raises(DomainError):
                kummer_1f1(0.5, b, 1.0)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            kummer_1f1(0.5, 1.5, -1.0)

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            kummer_1f1(0.5, 1.5, 800.0)

    def test_terminating_polynomial(self):
        # a = -2: 1F1(-2, b, z) = 1 - 2z/b + z^2/(b(b+1))
        b, z = 1.5, 7.0
        expected = 1.0 - 2.0 * z / b + z * z / (b * (b + 1.0))
        np.testing.assert_allclose(kummer_1f1(-2.0, b, z), expected, rtol=1e-13)

    @pytest.mark.parametrize("r", R_FAMILY)
    def test_series_asymptotic_crossover_agreement(self, r):
        a = 0.5 * (3.0 - 2.0 * r)
        for z in np.linspace(CROSSOVER_Z, CROSSOVER_Z + OVERLAP_WIDTH, 9):
            s = kummer_1f1_series(a, 1.5, float(z))
            asym = kummer_1f1_asymptotic(a, 1.5, float(z))
            np.testing.assert_allclose(asym, s, rtol=1e-8)

    @pytest.mark.parametrize("z", [50.0, 120.0, 300.0])
    def test_leading_asymptotic_form_within_1pct(self, z):
        a, b = 0.75, 1.5
        lead = gamma(b) / gamma(a) * math.exp(z) * z ** (a - b)
        np.testing.assert_allclose(kummer_1f1(a, b, z), lead, rtol=1e-2)


class TestKummerPrime:
    def test_at_zero(self):
        np.testing.assert_allclose(kummer_1f1_prime(1.5, 1.5, 0.0), 1.0, rtol=0)
        np.testing.assert_allclose(kummer_1f1_prime(0.5, 1.5, 0.0), 1.0 / 3.0, rtol=1e-15)

    def test_contiguous_recurrence_exact(self):
        for a, b, z in [(0.5, 1.5, 3.0), (1.25, 1.5, 12.0), (0.25, 1.5, 40.0)]:
            lhs = kummer_1f1_prime(a, b, z)
            rhs = (a / b) * kummer_1f1(a + 1.0, b + 1.0, z)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_matches_finite_difference(self):
        a, b, z = 0.5, 1.5, 4.0
        prev = None
        for h in (1e-3, 5e-4, 2.5e-4):
            fd = (kummer_1f1(a, b, z + h) - kummer_1f1(a, b, z - h)) / (2 * h)
            if prev is not None:
                assert abs(fd - kummer_1f1_prime(a, b, z)) <= abs(prev - kummer_1f1_prime(a, b, z)) + 1e-12
            prev = fd
        np.testing.assert_allclose(kummer_1f1_prime(a, b, z), prev, rtol=1e-6)


class TestProfileW:
    def test_gaussian_case_closed_form(self):
        np.testing.assert_allclose(w_eval(1.5, 1.0), math.exp(-0.25), rtol=1e-10)
        for y in np.linspace(0.0, 8.0, 17):
            np.testing.assert_allclose(w_eval(1.5, float(y)), y * math.exp(-y * y / 4), rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("r", R_FAMILY + (1.5,))
    def test_origin_value_and_slope(self, r):
        assert w_eval(r, 0.0) == 0.0
        for h in (1e-4, 1e-5, 1e-6):
            slope = w_eval(r, h) / h
            assert abs(slope - 1.0) <= 5.0 * h

    def test_half_drift_gives_sqrt_pi_plateau(self):
        # r = 1/2 reduces the profile to the integral of exp(-s^2/4)
        np.testing.assert_allclose(w_eval(0.5, 100.0), math.sqrt(math.pi), atol=1e-4)

    def test_unit_drift_zero_reduction(self):
        # r = 0 gives a = b so w(y) = y exactly
        for y in (0.5, 3.0, 12.0, 80.0):
            np.testing.assert_allclose(w_eval(0.0, y), y, rtol=1e-12)

    def test_domain_error_above_three_halves(self):
        with pytest.raises(DomainError):
            w_eval(1.6, 1.0)
        with pytest.raises(DomainError):
            w_prime_eval(2.0, 1.0)

    @pytest.mark.parametrize("r", R_FAMILY)
    def test_positive_far_out(self, r):
        for y in np.geomspace(0.01, 1e4, 40):
            assert w_eval(r, float(y)) > 0.0

    def test_gaussian_limit_continuity(self):
        r_near = 1.5 - 1e-4
        for y in np.linspace(0.0, 5.0, 21):
            assert abs(w_eval(r_near, float(y)) - w_eval(1.5, float(y))) <= 1e-3


class TestProfileWPrime:
    @pytest.mark.parametrize("r", R_FAMILY + (1.5,))
    def test_unit_slope_at_origin(self, r):
        assert w_prime_eval(r, 0.0) == 1.0

    def test_gaussian_case(self):
        np.testing.assert_allclose(w_prime_eval(1.5, 1.0), 0.5 * math.exp(-0.25), rtol=1e-12)

    def test_matches_finite_difference_of_w(self):
        r, y = -0.5, 10.0
        target = w_prime_eval(r, y)
        best = None
        for h in (1e-3, 5e-4):
            fd = (w_eval(r, y + h) - w_eval(r, y - h)) / (2 * h)
            best = fd
        np.testing.assert_allclose(target, best, rtol=1e-6)

    @pytest.mark.parametrize("r", R_FAMILY)
    def test_log_slope_vanishes_far_out(self, r):
        y = 100.0
        assert abs(w_prime_eval(r, y) / w_eval(r, y)) <= 0.05


class TestOdeOracle:
    def test_gaussian_case_grid(self):
        grid = w_ode_oracle(1.5, 10.0, 100_000)
        ys = grid.grid()
        exact = ys * np.exp(-(ys**2) / 4.0)
        assert np.max(np.abs(grid.values - exact)) <= 1e-8

    def test_half_drift_against_error_function(self):
        grid = w_ode_oracle(0.5, 10.0, 100_000)
        target = math.sqrt(math.pi) * math.erf(5.0)  # integral of exp(-s^2/4) over [0, 10]
        np.testing.assert_allclose(grid.values[-1], target, atol=1e-6)

    @pytest.mark.parametrize("r", R_FAMILY)
    def test_strict_positivity(self, r):
        grid = w_ode_oracle(r, 10.0, 20_000)
        assert np.all(grid.values[1:] > 0.0)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            w_ode_oracle(0.5, 10.0, 50)
        with pytest.raises(DomainError):
            w_ode_oracle(0.5, -1.0, 1000)

    @pytest.mark.parametrize("r", R_FAMILY)
    def test_w_eval_matches_oracle(self, r):
        grid = w_ode_oracle(r, 10.0, 100_000)
        ys = grid.grid()
        idx = np.arange(0, ys.size, 500)
        for i in idx:
            w_ref = grid.values[i]
            assert abs(w_eval(r, float(ys[i])) - w_ref) <= 1e-7 * (1.0 + abs(w_ref))


class TestAsymptoticConstant:
    def test_closed_values(self):
        np.testing.assert_allclose(w_asymptotic_constant(0.5), math.sqrt(math.pi), rtol=1e-13)
        np.testing.assert_allclose(w_asymptotic_constant(0.0), 1.0, rtol=1e-13)
        np.testing.assert_allclose(w_asymptotic_constant(-0.5), math.sqrt(math.pi) / 4.0, rtol=1e-13)

    def test_pole_at_three_halves(self):
        with pytest.raises(DomainError):
            w_asymptotic_constant(1.5)

    @pytest.mark.parametrize("r", R_FAMILY)
    def test_oracle_ratio_at_y50(self, r):
        grid = w_ode_oracle(r, 50.0, 200_000)
        k = 1.0 - 2.0 * r
        ratio = grid.values[-1] / 50.0**k
        np.testing.assert_allclose(ratio, w_asymptotic_constant(r), rtol=0.02)
