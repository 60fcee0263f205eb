"""Half-line Dirichlet heat quadrature: the Gauss-Kronrod table, the batched
integrator against scalar calls and QUADPACK, asymptotic densities, gradient
bound, weighted sups, and the kernel-form cross checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from kppfront import DomainError, NumericsError
from kppfront.heatkernel import (
    MIDRANGE_BAND_LIMIT,
    X_EQ_2SQRT_T_LIMIT,
    _QUAD_LIMIT,
    _WG,
    _WK,
    _XK,
    _dirichlet_edges,
    _piecewise_quad,
    critical_data,
    gradient_bound_constant,
    v_dirichlet,
    v_dirichlet_dx,
    v_dirichlet_sinh_form,
    verify_weighted_sup_exponent,
    verify_midrange_band,
)


@pytest.mark.parametrize("route", [v_dirichlet, v_dirichlet_dx, v_dirichlet_sinh_form],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("t,x", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                 (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
def test_routes_reject_arguments_outside_the_domain(route, t, x):
    with pytest.raises(DomainError):
        route(t, x)


@pytest.mark.parametrize("route", [v_dirichlet, v_dirichlet_dx, v_dirichlet_sinh_form],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("t,x", [([1.0, math.nan], 1.0), (1.0, [2.0, math.inf]),
                                 ([[1.0], [-math.inf]], [0.5, 1.0]), (2.0, [0.5, -1.0])])
def test_routes_reject_array_elements_outside_the_domain(route, t, x):
    with pytest.raises(DomainError):
        route(np.array(t), np.array(x))


def test_nan_error_estimate_fails_the_quadrature():
    with pytest.raises(NumericsError):
        _piecewise_quad(lambda y: math.nan, [0.0, 1.0], 1e-12)


def rule_error(weights, degree: int) -> Fraction:
    """The embedded rule's sum of w x^degree minus the integral of x^degree
    over [-1, 1], in exact rational arithmetic on the stored doubles."""
    moment = Fraction(2, degree + 1) if degree % 2 == 0 else Fraction(0)
    return sum(Fraction(w) * Fraction(x) ** degree for w, x in zip(weights, _XK)) - moment


class TestGaussKronrodTable:
    def test_kronrod_weights_exact_through_degree_31(self):
        assert all(abs(rule_error(_WK, d)) <= 1e-15 for d in range(32))
        # and no further: the 21-point Kronrod extension has degree 31
        assert abs(rule_error(_WK, 32)) > 1e-12

    def test_gauss_weights_exact_through_degree_19(self):
        assert all(abs(rule_error(_WG, d)) <= 1e-15 for d in range(20))
        assert abs(rule_error(_WG, 20)) > 1e-8
        # the Gauss rule uses every other nonzero node and not the centre
        assert np.count_nonzero(_WG) == 10 and _WG[10] == 0.0


class TestBatchedQuadrature:
    """The array routes against scalar calls, scipy's QUADPACK and the
    subinterval limit."""

    POINTS = [(0.5, 0.3, 1e-12), (3.0, 1.0, 1e-13), (40.0, 12.0, 1e-10),
              (1e4, 150.0, 1e-13), (1e8, 2e4, 1e-12), (7.0, 0.0, 1e-12)]
    # x >> sqrt t: the sinh form's kernel overflows there (DomainError)
    FAR_POINTS = [(3.0, 2e4, 1e-12), (1.0, 3e3, 1e-13)]

    @pytest.mark.parametrize("route", [v_dirichlet, v_dirichlet_dx, v_dirichlet_sinh_form],
                             ids=lambda f: f.__name__)
    def test_point_alone_and_in_a_batch_bit_identical(self, route):
        points = self.POINTS + (self.FAR_POINTS if route is not v_dirichlet_sinh_form else [])
        t, x, tol = map(np.array, zip(*points))
        batch = route(t, x, tol)
        assert isinstance(batch.evaluations, int)
        for i, point in enumerate(points):
            alone = route(*point)
            assert isinstance(alone.value, float)
            assert alone.value == batch.value[i]
            assert alone.abs_error_estimate == batch.abs_error_estimate[i]
        # a 2-d batch, mixed with other points, gives the same values again
        grid = route(t[:, None], np.stack([x, 0.5 * x], axis=1), tol[:, None])
        assert grid.value.shape == (len(points), 2)
        np.testing.assert_array_equal(grid.value[:, 0], batch.value)

    @staticmethod
    def quadpack(kernel, t, x, tol):
        """The integral over y > 0 by scipy's QUADPACK, one call per piece
        between the same edges, each to half the tolerance over the pieces."""
        edges = np.unique(_dirichlet_edges(np.array([t]), np.array([x]))[0])
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += quad(kernel, a, b, epsabs=0.5 * tol / (len(edges) - 1),
                          epsrel=1e-11, limit=_QUAD_LIMIT)[0]
        return total

    def test_agrees_with_quadpack_within_tolerance(self):
        def data(y):
            return 1.0 if y <= 1.0 else 1.0 / (y * y)

        def kernels(t, x):
            def image(y):
                return math.exp(-((x - y) ** 2) / (4 * t)) * -math.expm1(-x * y / t) * data(y)

            def image_dx(y):
                a = math.exp(-((x - y) ** 2) / (4 * t))
                b = math.exp(-((x + y) ** 2) / (4 * t))
                return (-(x - y) * a + (x + y) * b) / (2 * t) * data(y)

            def sinh(y):
                return math.exp(-y * y / (4 * t)) * math.sinh(x * y / (2 * t)) * data(y)

            norm = 1.0 / math.sqrt(4 * math.pi * t)
            return {v_dirichlet: (image, norm), v_dirichlet_dx: (image_dx, norm),
                    v_dirichlet_sinh_form: (sinh, math.exp(-x * x / (4 * t)) / math.sqrt(math.pi * t))}

        rng = np.random.default_rng(5)
        t = np.exp(rng.uniform(math.log(0.5), math.log(1e8), 40))
        x = rng.uniform(0.05, 2.5, 40) * np.sqrt(t)
        tol = 10.0 ** rng.uniform(-13, -10, 40)
        for route in (v_dirichlet, v_dirichlet_dx, v_dirichlet_sinh_form):
            got = route(t, x, tol).value
            for i in range(t.size):
                kernel, outer = kernels(float(t[i]), float(x[i]))[route]
                ref = outer * self.quadpack(kernel, float(t[i]), float(x[i]), tol[i] / outer)
                assert abs(got[i] - ref) <= tol[i], (route.__name__, t[i], x[i])

    def test_piece_needing_more_than_the_limit_fails(self):
        rows = []

        def fast_cosine(y):
            rows.append(y.shape[0])
            return np.cos(1e5 * y)

        with pytest.raises(NumericsError):
            _piecewise_quad(fast_cosine, [0.0, 1.0], 1e-12)
        # it was split until it held exactly _QUAD_LIMIT subintervals
        assert sum(rows) == 2 * _QUAD_LIMIT - 1

    def test_piece_within_the_limit_converges(self):
        value, err, evaluations = _piecewise_quad(lambda y: np.cos(1e3 * y), [0.0, 1.0], 1e-12)
        assert abs(value[0] - math.sin(1e3) / 1e3) <= 1e-12
        assert err[0] <= 1e-12 and evaluations < 21 * (2 * _QUAD_LIMIT - 1)


class TestVDirichlet:
    def test_boundary_value_zero(self):
        # both kernels vanish identically at x = 0: the quadrature returns
        # +0 (never -0, which a CSV would print as -0) with estimate 0
        for route in (v_dirichlet, v_dirichlet_sinh_form):
            for t in (1.0, 7.0, 1e8):
                res = route(t, 0.0)
                assert res.value == 0.0 and not np.signbit(res.value)
                assert res.abs_error_estimate == 0.0

    def test_empty_batch(self):
        for route in (v_dirichlet, v_dirichlet_dx, v_dirichlet_sinh_form):
            assert route(np.ones((0, 3)), 1.0).value.shape == (0, 3)

    def test_sinh_form_rejects_an_underflowed_outer_factor(self):
        # e^{-x^2/4t} is 0 at (3, 2e4): the sinh form cannot reach any
        # tolerance there, while the image kernel still resolves v
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="t = 3, x = 20000"):
                v_dirichlet_sinh_form(3.0, 2e4)
            # far from the boundary and the kink, v = 1/x^2 + 6t/x^4 + 60t^2/x^6 + ...
            # (the heat semigroup on the 1/y^2 data): 2.5000001125e-9 here
            assert v_dirichlet(3.0, 2e4).value == pytest.approx(2.5000001125e-9, rel=1e-9)

    def test_sinh_form_rejects_exactly_where_its_kernel_overflows(self):
        # sinh(xy/2t) takes y up to x + radius: at t = 3 its argument stays
        # below arcsinh(DBL_MAX) = 710.476 up to x / sqrt t = 29.5 (710.2)
        # and leaves it at 30 (729.7)
        t = 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ratio in (26.0, 29.0, 29.5):
                x = ratio * math.sqrt(t)
                assert v_dirichlet_sinh_form(t, x).value == pytest.approx(v_dirichlet(t, x).value, rel=1e-10)
            for ratio in (30.0, 40.0, 54.0, 55.0):
                with pytest.raises(DomainError, match="t = 3, x = "):
                    v_dirichlet_sinh_form(t, ratio * math.sqrt(t))

    @pytest.mark.parametrize("ratio", [1e3, 1e4, 3e4])
    @pytest.mark.parametrize("t", [0.5, 3.0, 100.0, 1e4])
    def test_far_field_matches_the_expansion(self, t, ratio):
        # at x >> sqrt t, v = 1/x^2 + 6t/x^4 and v_x = -2/x^3 - 24t/x^5, up to
        # relative terms below 200 (sqrt t / x)^4 <= 2e-10.  Without the lower
        # truncation edge, the piece left of x - sqrt t is far longer than the
        # Gaussian flank it holds, and its rule reads v about 24% low
        x = ratio * math.sqrt(t)
        v, dv = 1.0 / x**2 + 6.0 * t / x**4, -2.0 / x**3 - 24.0 * t / x**5
        assert abs(v_dirichlet(t, x, 1e-9 * v).value - v) <= 2e-9 * v
        assert abs(v_dirichlet_dx(t, x, 1e-9 * abs(dv)).value - dv) <= 2e-9 * abs(dv)
        assert v_dirichlet(t, x, 1e-13).evaluations <= 1000

    def test_maximum_principle_band(self):
        for t, x in [(0.3, 0.5), (2.0, 1.0), (50.0, 10.0), (1e4, 150.0)]:
            v = v_dirichlet(t, x).value
            assert 0.0 <= v <= 1.0

    def test_error_estimate_within_tolerance(self):
        res = v_dirichlet(100.0, 15.0, tol=1e-10)
        assert res.abs_error_estimate <= 1e-10
        assert res.evaluations > 0

    def test_far_field_density_at_2sqrt_t(self):
        # v(t, 2 sqrt t) * 2t / ln t approaches e^{-1}/sqrt(pi) like 1/ln t:
        # ~14% away at t = 1e8, about twice that at t = 1e4
        t = 1e8
        ratio8 = v_dirichlet(t, 2.0 * math.sqrt(t)).value * 2.0 * t / math.log(t)
        assert abs(ratio8 / X_EQ_2SQRT_T_LIMIT - 1.0) <= 0.15
        t = 1e4
        ratio4 = v_dirichlet(t, 2.0 * math.sqrt(t)).value * 2.0 * t / math.log(t)
        assert abs(ratio8 - X_EQ_2SQRT_T_LIMIT) < abs(ratio4 - X_EQ_2SQRT_T_LIMIT)

    def test_far_field_density_monotone_approach(self):
        ratios = []
        for t in (1e4, 1e5, 1e6, 1e7, 1e8):
            ratios.append(v_dirichlet(t, 2.0 * math.sqrt(t)).value * 2.0 * t / math.log(t))
        diffs = np.diff(ratios)
        assert np.all(diffs < 0.0)
        assert np.all(np.asarray(ratios) > X_EQ_2SQRT_T_LIMIT)

    def test_image_kernel_matches_sinh_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = float(rng.uniform(0.5, 50.0))
            x = float(rng.uniform(0.1, 15.0))
            a = v_dirichlet(t, x, tol=1e-13).value
            b = v_dirichlet_sinh_form(t, x, tol=1e-13).value
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_semigroup_property(self):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(11)
        for _ in range(5):
            t1 = float(rng.uniform(0.5, 3.0))
            t2 = float(rng.uniform(0.5, 3.0))
            x = float(rng.uniform(0.5, 6.0))
            direct = v_dirichlet(t1 + t2, x, tol=1e-10).value
            y_hi = x + 8.0 * math.sqrt(t2) + 12.0
            ys = np.linspace(0.0, y_hi, 256)
            vals = v_dirichlet(t1, ys, tol=1e-11).value
            spline = CubicSpline(ys, vals)

            # the image kernel of v_dirichlet, applied to v(t1, .) over t2
            def relay(y, _s=spline, _t=t2, _x=x):
                g = math.exp(-((_x - y) ** 2) / (4.0 * _t))
                return g * (-math.expm1(-_x * y / _t)) * float(_s(y))

            integral = quad(relay, 0.0, y_hi, points=(x,), epsabs=1e-12, limit=200)[0]
            relayed = integral / math.sqrt(4.0 * math.pi * t2)
            np.testing.assert_allclose(relayed, direct, atol=1e-6)

    def test_truncation_stability(self):
        # doubling the requested tolerance (hence truncation radius) does not
        # move the value: the dropped gaussian tail is below 1e-15
        a = v_dirichlet(1e4, 300.0, tol=1e-12).value
        b = v_dirichlet(1e4, 300.0, tol=1e-16).value
        assert abs(a - b) <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            v_dirichlet(0.0, 1.0)
        with pytest.raises(DomainError):
            v_dirichlet(1.0, -1.0)


class TestVDirichletDx:
    def test_positive_near_boundary(self):
        for t in (0.5, 5.0, 500.0):
            assert v_dirichlet_dx(t, 1e-3).value > 0.0

    def test_finite_difference_cross_check_at_fixed_point(self):
        t, x = 1e4, 50.0
        h = 0.05
        fd = (v_dirichlet(t, x + h, tol=1e-14).value - v_dirichlet(t, x - h, tol=1e-14).value) / (2 * h)
        np.testing.assert_allclose(v_dirichlet_dx(t, x).value, fd, rtol=1e-4)

    def test_finite_difference_cross_check_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = float(rng.uniform(1.0, 200.0))
            x = float(rng.uniform(0.3, 12.0))
            h = 1e-3 * max(1.0, x)
            fd = (
                v_dirichlet(t, x + h, tol=1e-14).value
                - v_dirichlet(t, x - h, tol=1e-14).value
            ) / (2 * h)
            np.testing.assert_allclose(v_dirichlet_dx(t, x, tol=1e-13).value, fd, rtol=1e-4)

    def test_gradient_bound_single_constant(self):
        c_hat, report = gradient_bound_constant()
        assert report.passed
        assert 0.0 <= c_hat <= 1.0  # frozen from the t in [1e2, 1e8] sweep; theory gives O(1)


class TestMidrangeBand:
    @pytest.mark.parametrize("t", [1e3, 1e5, 1e7])
    def test_band_inside_two_sided_bound(self, t):
        rep = verify_midrange_band(t)
        assert rep.passed
        assert 0.05 <= rep.details["band_lo"] <= rep.details["band_hi"] <= 5.0

    def test_band_narrows_and_approaches_constant(self):
        reps = {t: verify_midrange_band(t) for t in (1e3, 1e5, 1e7)}
        widths = {t: r.details["band_width"] for t, r in reps.items()}
        assert widths[1e7] <= widths[1e5] <= widths[1e3]
        mids = {t: 0.5 * (r.details["band_lo"] + r.details["band_hi"]) for t, r in reps.items()}
        for t in (1e3, 1e5):
            assert abs(mids[1e7] - MIDRANGE_BAND_LIMIT) <= abs(mids[t] - MIDRANGE_BAND_LIMIT)

    def test_rejects_small_t(self):
        with pytest.raises(DomainError):
            verify_midrange_band(50.0)


class TestWeightedSup:
    def test_eps_positive_stabilizes(self):
        rep = verify_weighted_sup_exponent(0.1)
        assert rep.passed
        assert rep.details["growth_last_decades"] < 0.01

    def test_eps_zero_keeps_growing(self):
        rep = verify_weighted_sup_exponent(0.0)
        assert not rep.passed  # sharp exponent: sup grows like ln t

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            verify_weighted_sup_exponent(0.7)


def test_critical_data_shape():
    assert critical_data(0.5) == 1.0
    assert critical_data(1.0) == 1.0
    assert critical_data(2.0) == 0.25
    assert critical_data(-1.0) == 0.0
