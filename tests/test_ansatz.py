"""Sub/super-solution certificates: sign verdicts, auto-chosen constants, and
finite-difference validation of every closed-form residual."""

import dataclasses
import math

import numpy as np
import pytest

from kppfront import DomainError, ansatz, minimal_wave
from kppfront.ansatz import (
    check_critical_sub,
    check_critical_super,
    check_linear_residual_identity,
    check_phi_eta_sub,
    check_subsolution,
    check_supersolution,
    check_tw_shift,
    fd_residual,
    psi_eval,
    subsolution_constants,
    supersolution_constants,
)
from kppfront.heatkernel import v_dirichlet, v_dirichlet_dx
from kppfront.report import VerificationReport
from kppfront.special import w_eval, w_prime_eval
from kppfront.waves import phi_gamma

R_SET = (-1.0, 0.0, 0.5, 1.0, 1.25)


def test_report_needs_a_verdict():
    # a check that forgets to set its verdict must not pass by default
    with pytest.raises(TypeError):
        VerificationReport(name="x", domain={}, worst_signed_residual=0.0)


def _scan(ts, points, signed, sense):
    return ansatz._sign_scan("scan", {"t": "[1, 3]"}, {"r": 0.5}, ts, points, signed, sense)


@pytest.mark.parametrize("sense", ["super", "sub"])
@pytest.mark.parametrize("rows,first_nan", [
    # a NaN must not hide its row's real worst value, -5 at t = 2
    ([[1.0, 2.0], [math.nan, -5.0], [-7.0, math.nan]], (2.0, 0.0)),
    # nor let a scan whose every row holds one pass with worst +-inf
    ([[math.nan, -5.0], [3.0, math.nan]], (1.0, 0.0)),
])
def test_nan_residual_fails_the_sign_scan(sense, rows, first_nan):
    ts = np.arange(1.0, len(rows) + 1.0)
    rep = _scan(ts, np.array([0.0, 1.0]), np.array(rows), sense)
    assert math.isnan(rep.worst_signed_residual)
    assert rep.details["worst_at"] == first_nan and rep.verdict == "fail"


# per-t points (n_t, n_points), the layout of the critical checks
PER_T_POINTS = np.array([[10.0, 11.0], [20.0, 21.0], [30.0, 31.0]])


@pytest.mark.parametrize("sense,signed,want", [
    # worst_at is points[i, j] of the first (t, point) in row order attaining
    # the worst, here tied within and across rows
    ("super", [[1.0, 2.0], [2.0, -5.0], [-7.0, -7.0]], (-7.0, (3.0, 30.0), "fail")),
    ("sub", [[1.0, 2.0], [2.0, -5.0], [-7.0, -7.0]], (2.0, (1.0, 11.0), "fail")),
    ("super", [[1.0, 2.0], [-5.0, math.nan], [math.nan, -7.0]], (math.nan, (2.0, 21.0), "fail")),
])
def test_sign_scan_reads_per_t_points(sense, signed, want):
    rep = _scan(np.array([1.0, 2.0, 3.0]), PER_T_POINTS, np.array(signed), sense)
    np.testing.assert_equal(rep.worst_signed_residual, want[0])
    assert (rep.details["worst_at"], rep.verdict) == want[1:]
    # name and domain pass through; verify CSVs write details in dict order,
    # so worst_at must stay the last key
    assert (rep.name, rep.domain, list(rep.details)) == ("scan", {"t": "[1, 3]"}, ["r", "worst_at"])


@pytest.mark.parametrize("wrong_sign,verdict", [(ansatz.SIGN_TOL, "pass"),
                                                (2.0 * ansatz.SIGN_TOL, "fail")])
def test_sign_scan_allows_sign_tol(wrong_sign, verdict):
    ts, points = np.array([1.0]), np.array([0.0, 1.0])
    signed = np.array([[0.5, -wrong_sign]])
    assert _scan(ts, points, signed, "super").verdict == verdict
    assert _scan(ts, points, -signed, "sub").verdict == verdict


class TestPsiEval:
    def test_zero_at_boundary(self):
        for r, rp, t in [(0.5, 0.5, 3.0), (-1.0, 0.0, 7.0), (1.0, -1.0, 2.0)]:
            assert psi_eval(r, rp, t, 0.0) == 0.0

    def test_half_drift_quadrature_value(self):
        val = psi_eval(0.5, 0.5, 1.0, 1.0)
        target = math.exp(-1.0) * math.sqrt(math.pi) * math.erf(0.5)
        np.testing.assert_allclose(val, target, rtol=1e-10)

    def test_gaussian_drift_value(self):
        val = psi_eval(1.5, 1.5, 4.0, 2.0)
        np.testing.assert_allclose(val, 2.0 * math.exp(-2.0) * math.exp(-0.25), rtol=1e-12)

    def test_elementwise_identical(self):
        # each element of an array evaluation is its one-point value, bit for bit
        rng = np.random.default_rng(3)
        t, z = rng.uniform(1.0, 100.0, 64), rng.uniform(0.0, 60.0, 64)
        for r, rp in [(0.5, 0.5), (1.0, -1.0), (1.25, 1.25), (-1.0, 0.0)]:
            want = np.array([psi_eval(r, rp, float(a), float(b)) for a, b in zip(t, z)])
            assert psi_eval(r, rp, t, z).tobytes() == want.tobytes()

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_eval(0.5, 0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            psi_eval(0.5, 0.5, 1.0, -0.5)


class TestResidualIdentity:
    def test_delay_subcase_closed_form_vanishes(self):
        # r <= 0 forces r' = 0 and the ansatz solves the linear equation
        rep = check_linear_residual_identity(-1.0, 0.0)
        assert rep.passed
        assert rep.closed_form_mismatch <= 1e-6

    @pytest.mark.parametrize("r,rp", [(1.0, 1.0), (0.5, 0.5), (1.25, 1.25),
                                      (0.5, -1.5), (1.0, -1.0), (-1.0, -3.0)])
    def test_fd_matches_closed_form(self, r, rp):
        rep = check_linear_residual_identity(r, rp)
        assert rep.passed
        assert rep.closed_form_mismatch <= 1e-4

    def test_gaussian_drift_sign_tracks_w_prime(self):
        r = rp = 1.5
        for t, z in [(9.0, 1.0), (9.0, 12.0)]:
            closed = rp * math.exp(-z) * t ** (-1.0) * w_prime_eval(r, z / math.sqrt(t))
            assert math.copysign(1.0, closed) == math.copysign(1.0, w_prime_eval(r, z / math.sqrt(t)))


class TestSupersolution:
    @pytest.mark.parametrize("r", R_SET)
    def test_passes_with_auto_constants(self, r):
        rep = check_supersolution(r)
        assert rep.passed
        assert rep.worst_signed_residual >= -1e-12

    def test_trivial_for_nonpositive_r(self):
        consts = supersolution_constants(-1.0)
        assert consts["M"] == 0.0 and consts["r_prime"] == 0.0
        assert check_supersolution(-1.0).worst_signed_residual == 0.0

    def test_t0_respects_damping_floor(self):
        consts = supersolution_constants(1.25)
        assert 1.0 - consts["M"] / math.sqrt(consts["t0"]) >= 0.5

    def test_refinement_never_flips(self, monkeypatch):
        a = check_supersolution(1.0)
        monkeypatch.setattr(ansatz, "PSI_GRID", (120, 400))
        b = check_supersolution(1.0)
        assert a.passed and b.passed

    def test_fd_validates_bracket(self):
        # L of (1 - M/sqrt t) psi equals e^{-z} t^{-(1+r-r')} [bracket]
        r = 1.0
        consts = supersolution_constants(r)
        M = consts["M"]

        def u(t, x):
            z = x - 2.0 * t + r * math.log(t)
            return (1.0 - M / math.sqrt(t)) * psi_eval(r, r, t, z) if z >= 0.0 else 0.0

        rng = np.random.default_rng(5)
        for _ in range(20):
            t = float(rng.uniform(30.0, 120.0))
            z = float(rng.uniform(0.5, 6.0))
            x = z + 2.0 * t - r * math.log(t)
            y = z / math.sqrt(t)
            bracket = (1.0 - M / math.sqrt(t)) * r * w_prime_eval(r, y) + 0.5 * M * w_eval(r, y)
            closed = math.exp(-z) * t ** (-1.0) * bracket
            fd = fd_residual(u, t, x, h_t=min(2.5e-3, z / 10), h_x=min(5e-3, z / 10))
            assert abs(fd - closed) <= 1e-4 * max(abs(closed), 1e-2 * abs(u(t, x)))


class TestSubsolution:
    @pytest.mark.parametrize("r", R_SET)
    def test_passes_with_auto_constants(self, r):
        rep = check_subsolution(r)
        assert rep.passed
        assert rep.worst_signed_residual <= 1e-12

    def test_braced_expression_negative_at_origin(self):
        # z = 0: braced = (1 + M/sqrt t) r' < 0 since w(0) = 0, w'(0) = 1
        consts = subsolution_constants(0.5)
        t = consts["t0"]
        braced = (1.0 + consts["M"] / math.sqrt(t)) * consts["r_prime"]
        assert braced < 0.0

    @pytest.mark.parametrize("r", R_SET)
    def test_epsilon_is_half_its_bound(self, r):
        # the sign scan passes even at many times the bound, so the bound
        # holds only because the constants are built inside it
        consts = subsolution_constants(r)
        assert consts["epsilon"] == 0.5 * consts["epsilon_bound"] > 0.0

    def test_refinement_never_flips(self, monkeypatch):
        a = check_subsolution(0.5)
        monkeypatch.setattr(ansatz, "PSI_GRID", (120, 400))
        b = check_subsolution(0.5)
        assert a.passed and b.passed

    def test_fd_validates_braced_form(self):
        r = 0.5
        consts = subsolution_constants(r)
        M, eps, rp = consts["M"], consts["epsilon"], consts["r_prime"]

        def u(t, x):
            z = x - 2.0 * t + rp * math.log(t)
            return (1.0 + M / math.sqrt(t)) * eps * psi_eval(r, rp, t, z) if z >= 0.0 else 0.0

        rng = np.random.default_rng(6)
        for _ in range(20):
            t = float(rng.uniform(450.0, 1200.0))
            z = float(rng.uniform(0.5, 6.0))
            x = z + 2.0 * t - rp * math.log(t)
            y = z / math.sqrt(t)
            damp = 1.0 + M / math.sqrt(t)
            braced = (
                -0.5 * M * w_eval(r, y)
                + damp * (rp * w_prime_eval(r, y) + damp * eps * math.exp(-z) * w_eval(r, y) ** 2)
            )
            closed = eps * math.exp(-z) * t ** (-3.0) * braced
            fd = fd_residual(u, t, x, h_t=min(2.5e-3, z / 10), h_x=min(5e-3, z / 10)) + u(t, x) ** 2
            assert abs(fd - closed) <= 1e-4 * max(abs(closed), 1e-2 * abs(u(t, x)))


def _scan_delta_stepped(r, threshold):
    """The stepped scan _scan_delta vectorises: one w' call per y."""
    y = ansatz.DELTA_SCAN_STEP
    delta = ansatz.DELTA_SCAN_STEP
    while y <= 1.0 + 1e-12:
        if w_prime_eval(r, y) <= threshold:
            break
        delta = y
        y += ansatz.DELTA_SCAN_STEP
    return delta


def _supersolution_constants_pointwise(r):
    if r <= 0.0:
        return {"r": r, "r_prime": 0.0, "delta": math.nan, "M": 0.0, "t0": 4.0}
    delta = _scan_delta_stepped(r, 0.0)
    ys = np.arange(delta, ansatz.Y_MAX + 1e-9, 1e-2)
    ratio = max(2.0 * r * abs(w_prime_eval(r, y)) / w_eval(r, y) for y in ys)
    M = ansatz.SAFETY * ratio
    return {"r": r, "r_prime": r, "delta": delta, "M": M, "t0": max((2.0 * M) ** 2, 4.0)}


def _subsolution_constants_pointwise(r):
    r_prime = r - 2.0
    delta = _scan_delta_stepped(r, 0.5)
    ys = np.arange(delta, ansatz.Y_MAX + 1e-9, 1e-2)
    w_vals = np.array([w_eval(r, y) for y in ys])
    wp_vals = np.array([w_prime_eval(r, y) for y in ys])
    m_quoted = max(
        float(np.max(8.0 * abs(r_prime) * np.abs(wp_vals) / w_vals)),
        float(np.max(w_vals / ys ** (1.0 - 2.0 * r))),
    )
    M = ansatz.SAFETY * m_quoted
    ys0 = np.arange(0.0, delta + 1e-12, ansatz.DELTA_SCAN_STEP)
    eps_bound = -r_prime / (2.0 * (1.0 + M) * max(w_eval(r, y) for y in ys0) ** 2)
    eps = 0.5 * eps_bound
    t_tail = (max(0.0, math.log(32.0 * eps * float(np.max(w_vals)) / M)) / delta) ** 2
    return {"r": r, "r_prime": r_prime, "delta": delta, "M": M, "epsilon": eps,
            "epsilon_bound": eps_bound, "t0": max(M * M, 4.0, t_tail)}


class TestGridEvaluation:
    """The psi certificates evaluate w and w' once per grid; the constants
    they derive equal those of one evaluation per point, value for value."""

    @pytest.mark.parametrize("r", R_SET)
    def test_constants_match_pointwise_evaluation(self, r):
        for got, want in ((supersolution_constants(r), _supersolution_constants_pointwise(r)),
                          (subsolution_constants(r), _subsolution_constants_pointwise(r))):
            assert list(got) == list(want)
            np.testing.assert_equal(got, want)

    @pytest.fixture()
    def profile_calls(self, monkeypatch):
        """The sizes of the w and w' evaluations ansatz makes, one per call."""
        calls = []
        for name in ("w_eval", "w_prime_eval"):
            def counted(r, y, f=getattr(ansatz, name)):
                calls.append(np.size(y))
                return f(r, y)

            monkeypatch.setattr(ansatz, name, counted)
        return calls

    @pytest.mark.parametrize("check", [check_supersolution, check_subsolution])
    def test_at_most_eight_profile_calls(self, profile_calls, check):
        assert check(0.5).passed
        assert len(profile_calls) <= 8

    def test_identity_check_at_most_twelve_profile_calls(self, profile_calls):
        # 10 stencil points (2 Richardson levels x 5) and the scale's u take
        # w over all 15 samples at once; the closed form takes w' once
        assert check_linear_residual_identity(0.5, 0.5).passed
        assert len(profile_calls) <= 12


class TestTwShift:
    def test_k_one_is_neutral(self):
        rep = check_tw_shift(1.0)
        assert rep.passed and rep.details["acts_as"] == "both"
        assert rep.worst_signed_residual == 0.0

    def test_k_three_is_super(self):
        rep = check_tw_shift(3.0)
        assert rep.passed and rep.details["acts_as"] == "super"

    def test_k_zero_is_sub(self):
        rep = check_tw_shift(0.0)
        assert rep.passed and rep.details["acts_as"] == "sub"

    def test_antisymmetry_around_k_one(self):
        # r = (1 - k)/2 changes sign under k -> 2 - k, and so does the
        # residual: a sub-solution turns into a super-solution
        for k in (0.0, 0.5, 3.0):
            a, b = check_tw_shift(k), check_tw_shift(2.0 - k)
            assert a.passed and b.passed
            assert {a.details["acts_as"], b.details["acts_as"]} == {"sub", "super"}
            assert a.worst_signed_residual == -b.worst_signed_residual

    def test_fd_validates_shift_residual(self):
        wave = minimal_wave()
        t0 = 1.0
        rng = np.random.default_rng(7)
        for k in (0.0, 3.0):
            r = 0.5 * (1.0 - k)

            def v(t, x, _r=r):
                return float(wave(x - 2.0 * t + _r * math.log(t + t0)))

            for _ in range(10):
                t = float(rng.uniform(2.0, 50.0))
                z = float(rng.uniform(-10.0, 10.0))
                x = z + 2.0 * t - r * math.log(t + t0)
                closed = (r / (t + t0)) * wave.derivative(z)
                fd = fd_residual(v, t, x, h_t=2.5e-3, h_x=5e-3) + v(t, x) ** 2
                assert abs(fd - closed) <= 1e-4 * max(abs(closed), 1e-4)


class TestPhiEtaSub:
    @pytest.mark.parametrize("r", [-1.0, -0.25])
    def test_passes(self, r):
        rep = check_phi_eta_sub(r)
        assert rep.passed
        assert rep.details["min_gluing_slope"] > 0.0

    def test_fails_on_a_negative_gluing_slope(self, monkeypatch):
        # the scan alone reads 0 and passes; phi'(0) = -1e-3 lies below
        # -(eta / sqrt t) phi(0) = -6.8e-5 at t = T_MAX, so the gluing slope
        # there is negative and must fail the verdict
        original = ansatz.phi_gamma

        def tilted(gamma):
            p = original(gamma)
            d = p.dvalues.copy()
            d[0] = -1e-3
            return dataclasses.replace(p, dvalues=d)

        monkeypatch.setattr(ansatz, "phi_gamma", tilted)
        rep = check_phi_eta_sub(-1.0)
        assert rep.verdict == "fail" and rep.worst_signed_residual == 0.0
        np.testing.assert_allclose(rep.details["min_gluing_slope"], -9.32e-4, rtol=1e-3)

    def test_boundary_saturation_is_exact_zero(self):
        eta = math.sqrt(1.0)
        gamma = float(np.exp(2.0 * eta))
        assert float(np.exp(eta * 2.0)) - gamma == 0.0

    def test_requires_negative_r(self):
        with pytest.raises(DomainError):
            check_phi_eta_sub(0.25)

    def test_fd_validates_exact_residual(self):
        # full closed form before any sign-discarding:
        # e^{-eta z/sqrt t} L u = -(eta z / 2 t^{3/2}) phi - (2 eta/sqrt t)(phi' + phi)
        #   - (eta^2/t) phi + (r/t) phi' + (r eta / t^{3/2}) phi + (e^{eta z/sqrt t} - gamma) phi^2
        r = -1.0
        eta = math.sqrt(-r)
        gamma = float(np.exp(2.0 * eta))
        phi = phi_gamma(gamma)

        def u(t, x):
            z = x - 2.0 * t + r * math.log(t)
            if z <= 0.0:
                return 0.5 / gamma
            return math.exp(eta * z / math.sqrt(t)) * float(phi(z))

        rng = np.random.default_rng(8)
        for _ in range(20):
            t = float(rng.uniform(5.0, 80.0))
            z = float(rng.uniform(0.5, min(8.0, 1.8 * math.sqrt(t))))
            x = z + 2.0 * t - r * math.log(t)
            p, dp = float(phi(z)), float(phi.derivative(z))
            boost = math.exp(eta * z / math.sqrt(t))
            closed = boost * (
                -(eta * z / (2.0 * t**1.5)) * p
                - (2.0 * eta / math.sqrt(t)) * (dp + p)
                - (eta * eta / t) * p
                + (r / t) * dp
                + (r * eta / t**1.5) * p
                + (boost - gamma) * p * p
            )
            fd = fd_residual(u, t, x, h_t=min(2.5e-3, z / 10), h_x=min(5e-3, z / 10)) + u(t, x) ** 2
            assert abs(fd - closed) <= 1e-4 * max(abs(closed), 1e-2 * abs(u(t, x)))


class TestCriticalChecks:
    def test_sub_passes_with_auto_constants(self):
        rep = check_critical_sub()
        assert rep.passed
        assert rep.details["delta"] * (1.0 + rep.details["M"]) ** 2 < 1.0

    def test_sub_fails_with_half_M(self, monkeypatch):
        # half the auto-sized M leaves e^{-z} v above the damping term
        original = ansatz.critical_sub_constants

        def half_M():
            consts = original()
            return {**consts, "M": 0.5 * consts["M"]}

        monkeypatch.setattr(ansatz, "critical_sub_constants", half_M)
        assert not check_critical_sub().passed

    def test_super_passes_with_auto_constant(self):
        rep = check_critical_super()
        assert rep.passed

    def test_super_fails_without_damping(self, monkeypatch):
        # C = 0 gives M = 0, which leaves nothing to offset dx v < 0 beyond
        # the hump
        monkeypatch.setattr(ansatz.heatkernel, "gradient_bound_constant", lambda: (0.0, None))
        rep = check_critical_super()
        assert not rep.passed

    def test_fd_validates_sub_closed_form(self):
        M, delta = 1.5, 0.05
        rng = np.random.default_rng(9)

        def u(t, x):
            z = x - 2.0 * t
            if z <= 0.0:
                return 0.0
            return delta * (1.0 + M / (t + 1.0) ** 0.25) * math.exp(-z) * v_dirichlet(t, z, tol=1e-13).value

        for _ in range(8):
            t = float(rng.uniform(5.0, 40.0))
            z = float(rng.uniform(0.8, 4.0))
            x = z + 2.0 * t
            v = v_dirichlet(t, z, tol=1e-13).value
            closed = delta * math.exp(-z) * v * (
                delta * (1.0 + M / (t + 1.0) ** 0.25) ** 2 * math.exp(-z) * v
                - 0.25 * M / (t + 1.0) ** 1.25
            )
            fd = fd_residual(u, t, x, h_t=min(2.5e-3, z / 10), h_x=min(5e-3, z / 10)) + u(t, x) ** 2
            assert abs(fd - closed) <= 1e-4 * max(abs(closed), 1e-2 * abs(u(t, x)))

    def test_fd_validates_super_closed_form(self):
        M = 2.0
        rng = np.random.default_rng(10)

        def frame(t, x):
            return x - 2.0 * t + 1.5 * math.log(t) - math.log(math.log(t))

        def u(t, x):
            z = frame(t, x)
            if z <= 0.0:
                return 0.0
            damp = 1.0 - M / t**0.25
            return damp * (t**1.5 / math.log(t)) * math.exp(-z) * v_dirichlet(t, z, tol=1e-13).value

        for _ in range(8):
            t = float(rng.uniform(30.0, 150.0))
            z = float(rng.uniform(0.8, 4.0))
            x = z - 1.5 * math.log(t) + math.log(math.log(t)) + 2.0 * t
            v = v_dirichlet(t, z, tol=1e-14).value
            dv = v_dirichlet_dx(t, z, tol=1e-14).value
            damp = 1.0 - M / t**0.25
            closed = damp * (t**1.5 / math.log(t)) * math.exp(-z) * (
                (1.5 / t - 1.0 / (t * math.log(t))) * dv
                + (0.25 * M / t**1.25) / damp * v
            )
            fd = fd_residual(u, t, x, h_t=min(2.5e-3, z / 10), h_x=min(5e-3, z / 10))
            assert abs(fd - closed) <= 1e-4 * max(abs(closed), 1e-2 * abs(u(t, x)))
