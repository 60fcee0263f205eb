"""Special-function layer: the self-similar profile w through Kummer's 1F1,
certified against the fixed-step ODE oracle, closed forms and frozen
high-precision values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kppfront import (
    DomainError,
    NumericsError,
    ansatz,
    special,
    w_asymptotic_constant,
    w_eval,
    w_ode_oracle,
    w_prime_eval,
)

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


# (r, y, w, w') frozen from 40-digit mpmath: y hyp1f1(r, 3/2, -y^2/4) and its
# y-derivative; y = 2 sqrt(30) is where the hand-rolled series used to hand
# over to the asymptotic expansion
MPMATH_TABLE = (
    (1.0, 2.0 * math.sqrt(30.0), 0.1857836665513029, -0.017579049861666186),
    (1.0, 20.0, 0.10050769437519706, -0.005076943751970561),
    (1.0, 50.0, 0.04003207710893281, -0.0008019277233204113),
    (1.25, 2.0 * math.sqrt(30.0), 0.039416587252683224, -0.005648705606490066),
    (1.25, 20.0, 0.015607317886846097, -0.0011856396885481144),
    (1.25, 50.0, 0.003916849284149308, -0.00011774162538607667),
)


class TestKummer:
    """w(y; r) = y 1F1(r, 3/2, -y^2/4) against values known independently."""

    def test_exponential_reduction(self):
        # 1F1(a, a, -z) = e^{-z}: r = 3/2 is the gaussian y e^{-y^2/4}, also
        # far out, where it underflows to 0
        for y in (2.0, 40.0, 1e7, 1e30):
            e = math.exp(-0.25 * y * y)
            np.testing.assert_allclose(w_eval(1.5, y), y * e, rtol=1e-14)
            np.testing.assert_allclose(w_prime_eval(1.5, y), (1.0 - 0.5 * y * y) * e, rtol=1e-14)

    def test_frozen_exact_rational_oracle(self):
        # frozen from oracle_1f1_exact_rational(1/2, 3/2, 5); the erfi identity
        # sqrt(pi) erfi(sqrt z)/(2 sqrt z) reproduces the same digits.  Kummer's
        # transformation makes w(2 sqrt 5; 1) = 2 sqrt 5 e^{-5} 1F1(1/2, 3/2, 5)
        frozen = 17.17215777384149
        live = oracle_1f1_exact_rational(Fraction(1, 2), Fraction(3, 2), Fraction(5))
        np.testing.assert_allclose(live, frozen, rtol=1e-15)
        y = 2.0 * math.sqrt(5.0)
        np.testing.assert_allclose(w_eval(1.0, y), y * math.exp(-5.0) * frozen, rtol=1e-13)

    def test_terminating_polynomial(self):
        # r = -1: 1F1(-1, 3/2, -z) = 1 + 2z/3, so w = y + y^3/6
        for y in (0.5, 3.0, 7.0, 40.0):
            np.testing.assert_allclose(w_eval(-1.0, y), y + y**3 / 6.0, rtol=1e-13)
            np.testing.assert_allclose(w_prime_eval(-1.0, y), 1.0 + y * y / 2.0, rtol=1e-13)

    @pytest.mark.parametrize("r, y, w, wp", MPMATH_TABLE)
    def test_frozen_mpmath_table(self, r, y, w, wp):
        np.testing.assert_allclose(w_eval(r, y), w, rtol=1e-13)
        np.testing.assert_allclose(w_prime_eval(r, y), wp, rtol=1e-13)

    @pytest.mark.parametrize("z", [50.0, 120.0, 300.0])
    def test_leading_asymptotic_form_within_1pct(self, z):
        # 1F1(a, b, z) ~ Gamma(b)/Gamma(a) e^z z^(a-b) is w(y) ~ C y^(1-2r)
        r, y = 0.75, 2.0 * math.sqrt(z)
        lead = w_asymptotic_constant(r) * y ** (1.0 - 2.0 * r)
        np.testing.assert_allclose(w_eval(r, y), lead, rtol=1e-2)


class TestKummerPrime:
    """w'(y) = 1F1(r, 1/2, -y^2/4), the even solution of
    v'' + (y/2) v' + r v = 0 with v(0) = 1, which w_prime_eval uses."""

    @pytest.mark.parametrize("r, closed", [
        # 1F1(b, b, -z) = e^{-z}: exact out where the two-term difference
        # w_prime_eval used to take read rounding noise of either sign
        (0.5, lambda y: np.exp(-0.25 * y * y)),
        # 1F1(b + 1, b, -z) = e^{-z} (1 - z/b)
        (1.5, lambda y: (1.0 - 0.5 * y * y) * np.exp(-0.25 * y * y)),
    ], ids=["r0.5", "r1.5"])
    def test_closed_forms(self, r, closed):
        ys = np.linspace(9.0, 30.0, 85)
        np.testing.assert_allclose(w_prime_eval(r, ys), closed(ys), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(w_prime_eval(r, 13.5), closed(13.5), rtol=1e-14, atol=0.0)
        # hyp1f1 takes time linear in z at these r; the closed form does not
        assert w_prime_eval(r, 1e7) == 0.0

    def test_at_zero(self):
        # the equation gives w(0) = w''(0) = 0 and a third derivative -r at 0,
        # so w'(y) = 1 - r y^2/2 + O(y^4)
        y = 1e-3
        for r in R_FAMILY + (1.5,):
            np.testing.assert_allclose(w_prime_eval(r, y), 1.0 - 0.5 * r * y * y, rtol=1e-12)

    def test_matches_finite_difference(self):
        r, y = 1.25, 2.0 * math.sqrt(30.0)
        exact = w_prime_eval(r, y)
        prev = None
        for h in (1e-3, 5e-4, 2.5e-4):
            fd = (w_eval(r, y + h) - w_eval(r, y - h)) / (2 * h)
            if prev is not None:
                assert abs(fd - exact) <= abs(prev - exact) + 1e-12
            prev = fd
        np.testing.assert_allclose(exact, prev, rtol=1e-6)


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

    @pytest.mark.parametrize("r", [-math.inf, math.nan])
    @pytest.mark.parametrize("f", [w_eval, w_prime_eval])
    def test_non_finite_r_rejected(self, f, r):
        # 1F1 would return NaN for either
        with pytest.raises(DomainError, match="finite"):
            f(r, 1.0)

    def test_non_finite_value_fails_loudly(self):
        # w(y; -1) = y + y^3/6 overflows past y ~ 1e103
        with pytest.raises(NumericsError):
            w_eval(-1.0, np.array([1.0, 1e110]))

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


class TestArrayRoute:
    """w_eval and w_prime_eval take a float or an array; every element equals
    the one-point evaluation bit for bit."""

    GRIDS = {
        "psi_grid": np.linspace(0.0, ansatz.Y_MAX, ansatz.PSI_GRID[1]),
        "constants_grid": np.arange(ansatz.DELTA_SCAN_STEP, ansatz.Y_MAX + 1e-9, 1e-2),
        "ends": np.array([0.0, 1e4]),
    }

    @pytest.mark.parametrize("r", R_FAMILY + (1.5,))
    @pytest.mark.parametrize("f", [w_eval, w_prime_eval])
    def test_elementwise_identical(self, f, r):
        for name, ys in self.GRIDS.items():
            got = f(r, ys)
            want = np.array([f(r, float(y)) for y in ys])
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("r", [0.5, 1.5])
    @pytest.mark.parametrize("y", [0.0, 1.0, 100.0])
    def test_float_in_float_out(self, r, y):
        assert type(w_eval(r, y)) is float
        assert type(w_prime_eval(r, y)) is float

    def test_array_shape_kept(self):
        ys = np.linspace(0.0, 20.0, 12).reshape(3, 4)
        assert w_eval(0.5, ys).shape == (3, 4)
        assert w_prime_eval(0.5, ys).shape == (3, 4)

    def test_domain_checked_per_element(self):
        for bad in (-1e-3, math.nan, math.inf):
            with pytest.raises(DomainError):
                w_eval(0.5, np.array([1.0, bad]))
            with pytest.raises(DomainError):
                w_prime_eval(0.5, bad)


def rk4_loop_oracle(r: float, y_max: float, n: int) -> np.ndarray:
    """The w Cauchy problem stepped node by node with classical RK4: the
    reference for the blocked w_ode_oracle."""
    h = y_max / n
    c = r - 0.5
    w, wp = 0.0, 1.0
    out = np.empty(n + 1)
    out[0] = w
    y = 0.0
    for i in range(n):
        k1w = wp
        k1p = -0.5 * y * wp - c * w
        y2 = y + 0.5 * h
        w2 = w + 0.5 * h * k1w
        p2 = wp + 0.5 * h * k1p
        k2w = p2
        k2p = -0.5 * y2 * p2 - c * w2
        w3 = w + 0.5 * h * k2w
        p3 = wp + 0.5 * h * k2p
        k3w = p3
        k3p = -0.5 * y2 * p3 - c * w3
        y4 = y + h
        w4 = w + h * k3w
        p4 = wp + h * k3p
        k4w = p4
        k4p = -0.5 * y4 * p4 - c * w4
        w += h * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
        wp += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        y = y4
        out[i + 1] = w
    return out


# With ORACLE_BLOCK_STEPS = 100: n = 100, the least the oracle takes, is one
# block; 1001 is one step past 10 full blocks, so its last block holds one
# node and drops 99; 20_000 and 100_000 (certify's grid) fill 200 and 1000
# blocks exactly; y_max = 50 at n = 200_000 is criterion 4's tail-constant
# grid
ORACLE_LAYOUTS = [(10.0, 100), (10.0, 1001), (10.0, 20_000), (10.0, 100_000), (50.0, 200_000)]


class TestOdeOracle:
    def test_layouts_cover_the_block_edges(self):
        # a new block length must keep an exact multiple of it, one step past
        # a multiple and the minimum n among the layouts
        steps = special.ORACLE_BLOCK_STEPS
        ns = [n for _, n in ORACLE_LAYOUTS]
        assert 100 in ns
        assert any(n % steps == 0 and n > steps for n in ns)
        assert any(n % steps == 1 and n > steps for n in ns)

    @pytest.mark.parametrize("y_max, n", ORACLE_LAYOUTS)
    @pytest.mark.parametrize("r", R_FAMILY + (1.5,))
    def test_blocks_match_node_by_node_stepping(self, r, y_max, n):
        grid = w_ode_oracle(r, y_max, n)
        assert grid.values.size == n + 1
        assert grid.values[0] == 0.0
        assert grid.xi0 == 0.0 and grid.dxi == y_max / n
        ref = rk4_loop_oracle(r, y_max, n)
        assert np.all(np.abs(grid.values - ref) <= 1e-11 * (1.0 + np.abs(ref)))

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
        # h y_max / 2 = 12.5, past RK4's real-axis stability bound 2.785:
        # the steps would return values of order 1e130
        with pytest.raises(DomainError, match="stability"):
            w_ode_oracle(0.5, 50.0, 100)

    @pytest.mark.parametrize("r, y_max", [(0.5, math.inf), (math.nan, 10.0),
                                          (math.inf, 10.0), (0.5, math.nan)])
    def test_non_finite_input_rejected(self, r, y_max):
        # a NaN or inf input would otherwise come back as a grid of NaN
        with pytest.raises(DomainError):
            w_ode_oracle(r, y_max, 1000)

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
