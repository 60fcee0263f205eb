"""Linear heat solutions behind the critical-case analysis, by adaptive
Gauss-Kronrod quadrature of kernel integrals.

The one family covered is the half-line Dirichlet solution v(t, x) from the
piecewise data (1 on (0,1], 1/x^2 beyond), with its x-derivative and an
independent sinh-form route.  The kernels are arranged so no catastrophic
cancellation or overflow occurs: the image kernel is evaluated as
exp(-(x-y)^2/4t) * (-expm1(-xy/t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericsError
from .report import VerificationReport

# Gaussian factor below 1e-18 of its peak is dropped.
_TRUNC_LOG = math.log(1e18)
_QUAD_LIMIT = 300
# Absolute quadrature tolerance of every verification (and of the critical
# certificates in ansatz).
VERIFY_TOL = 1e-13
# Sample grids (increasing t values, x points per t) of the gradient-bound and
# the weighted-sup sweeps.
GRADIENT_T_SAMPLES = tuple(np.logspace(2, 8, 7).tolist())
GRADIENT_N_X = 10
WEIGHTED_SUP_T_SAMPLES = tuple(np.logspace(0, 8, 17).tolist())
WEIGHTED_SUP_N_X = 12

# Predicted constants for the far-field densities (used by tests/reports only).
X_EQ_2SQRT_T_LIMIT = math.exp(-1.0) / math.sqrt(math.pi)
MIDRANGE_BAND_LIMIT = 1.0 / (4.0 * math.sqrt(math.pi))


@dataclass
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def critical_data(y: float) -> float:
    """Initial data of the critical-case Dirichlet problem."""
    if y <= 0.0:
        return 0.0
    return 1.0 if y <= 1.0 else 1.0 / (y * y)


def _piecewise_quad(f, edges: list[float], tol: float) -> QuadratureResult:
    total = 0.0
    err = 0.0
    neval = 0
    epsabs = 0.5 * tol / max(len(edges) - 1, 1)
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        val, e, info = quad(
            f, a, b, epsabs=epsabs, epsrel=1e-11, limit=_QUAD_LIMIT,
            full_output=True,
        )[:3]
        total += val
        err += e
        neval += info["neval"]
    # negated so that a NaN estimate fails too
    if not err <= max(tol, abs(total) * 1e-10, 1e-300):
        raise NumericsError(f"quadrature error estimate {err:.2e} exceeds tolerance {tol:.2e}")
    return QuadratureResult(total, err, neval)


def _check_heat_domain(t: float, x: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be finite and positive, got {t}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"x must be finite and nonnegative, got {x}")


def _dirichlet_edges(t: float, x: float) -> list[float]:
    radius = 2.0 * math.sqrt(t * _TRUNC_LOG) + 10.0
    hi = x + radius
    pts = {1.0}  # the kink of the critical data; hi > 10 always
    for p in (x - math.sqrt(t), x, x + math.sqrt(t)):
        if 0.0 < p < hi:
            pts.add(p)
    # the 1/y^2 tail of the data decays over decades; seed the splits
    p = 10.0
    while p < hi:
        pts.add(p)
        p *= 10.0
    return [0.0] + sorted(pts) + [hi]


def _dirichlet_integral(t: float, x: float, integrand: Callable[[float], float],
                        outer: float, tol: float) -> QuadratureResult:
    """outer times the integral of integrand over y > 0, to absolute
    tolerance tol on the scaled value."""
    res = _piecewise_quad(integrand, _dirichlet_edges(t, x), tol / outer)
    return QuadratureResult(outer * res.value, outer * res.abs_error_estimate, res.evaluations)


def v_dirichlet(t: float, x: float, tol: float = 1e-12) -> QuadratureResult:
    """Half-line Dirichlet heat solution at (t, x) from the critical data."""
    _check_heat_domain(t, x)
    if x == 0.0:
        return QuadratureResult(0.0, 0.0, 0)

    def integrand(y: float) -> float:
        g = math.exp(-((x - y) ** 2) / (4.0 * t))
        return g * (-math.expm1(-x * y / t)) * critical_data(y)

    return _dirichlet_integral(t, x, integrand, 1.0 / math.sqrt(4.0 * math.pi * t), tol)


def v_dirichlet_dx(t: float, x: float, tol: float = 1e-12) -> QuadratureResult:
    """Spatial derivative of v_dirichlet via the differentiated kernel."""
    _check_heat_domain(t, x)

    def integrand(y: float) -> float:
        a = math.exp(-((x - y) ** 2) / (4.0 * t))
        b = math.exp(-((x + y) ** 2) / (4.0 * t))
        return (-(x - y) * a + (x + y) * b) / (2.0 * t) * critical_data(y)

    return _dirichlet_integral(t, x, integrand, 1.0 / math.sqrt(4.0 * math.pi * t), tol)


def v_dirichlet_sinh_form(t: float, x: float, tol: float = 1e-12) -> QuadratureResult:
    """Independent route: e^{-x^2/4t}/sqrt(pi t) integral of e^{-y^2/4t}
    sinh(xy/2t) v0; cross-checks the image-kernel evaluation."""
    _check_heat_domain(t, x)
    if x == 0.0:
        return QuadratureResult(0.0, 0.0, 0)

    def integrand(y: float) -> float:
        return math.exp(-y * y / (4.0 * t)) * math.sinh(x * y / (2.0 * t)) * critical_data(y)

    outer = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
    return _dirichlet_integral(t, x, integrand, outer, tol)


def verify_midrange_band(t: float) -> VerificationReport:
    """Two-sided x ln t / t^{3/2} band for v on 9 points of x in (1, ln t):
    records the empirical ratio band; pass iff every ratio lies in [0.05, 5]."""
    if t < 100.0:
        raise DomainError("band check needs t >= 100")
    x_samples = np.linspace(1.0 + 1e-6, math.log(t) * (1.0 - 1e-6), 9)
    ratios = []
    for x in x_samples:
        v = v_dirichlet(t, float(x), VERIFY_TOL).value
        ratios.append(v * t**1.5 / (x * math.log(t)))
    lo, hi = min(ratios), max(ratios)
    ok = 0.05 <= lo and hi <= 5.0
    worst = max(0.05 - lo, hi - 5.0)
    return VerificationReport(
        name=f"dirichlet_band_t{t:g}",
        domain={"t": t, "x": f"({min(x_samples):.3g}, {max(x_samples):.3g})", "samples": len(ratios)},
        worst_signed_residual=worst,
        verdict="pass" if ok else "fail",
        details={"band_lo": lo, "band_hi": hi, "band_width": hi - lo,
                 "midrange_limit": MIDRANGE_BAND_LIMIT},
    )


def gradient_bound_constant() -> tuple[float, VerificationReport]:
    """Empirical C with dx v / v >= -C / t^{1/4} over the sampled domain.

    x ranges over (0, min(4 t^{3/4}, 26 sqrt(t))]; the second cap keeps v inside
    double range (beyond it v < 1e-290 and the bound region is long past its
    worst case, which sits at x = O(t^{3/4}) for small t).  The verdict, C
    finite, cannot fail (C only rises from 0, and never to NaN), and the
    report's residual is C itself: no margin, by construction."""
    worst = 0.0
    at = (math.nan, math.nan)
    for t in GRADIENT_T_SAMPLES:
        x_hi = min(4.0 * t**0.75, 26.0 * math.sqrt(t))
        for x in np.geomspace(x_hi / 300.0, x_hi, GRADIENT_N_X):
            v = v_dirichlet(t, float(x), VERIFY_TOL).value
            if v <= 1e-290:
                continue
            dv = v_dirichlet_dx(t, float(x), max(VERIFY_TOL, v * 1e-8)).value
            c = -(dv / v) * t**0.25
            if c > worst:
                worst = c
                at = (t, float(x))
    report = VerificationReport(
        name="dirichlet_gradient_bound",
        domain={"t": f"[{GRADIENT_T_SAMPLES[0]:g}, {GRADIENT_T_SAMPLES[-1]:g}]",
                "x": "(0, min(4 t^3/4, 26 sqrt t)]"},
        worst_signed_residual=worst,
        verdict="pass" if math.isfinite(worst) else "fail",
        details={"C_hat": worst, "worst_at": at},
    )
    return worst, report


def verify_weighted_sup_exponent(eps: float) -> VerificationReport:
    """Running sup of e^{-x} v(t,x) (t+1)^{3/2-eps}; pass iff the sup grows by
    less than 1% between the 1e6 and 1e8 decades (eps = 0 is the sharp exponent
    and is expected to keep growing like ln t).  At eps = 0.1, as the heat
    suite runs it, the sup is attained at small t: the growth reads exactly 0
    and the report shows no margin, by construction."""
    if not 0.0 <= eps <= 0.5:
        raise DomainError("eps must lie in [0, 1/2]")
    running = sup_at_1e6 = 0.0
    for t in WEIGHTED_SUP_T_SAMPLES:
        x_hi = max(3.0 * math.log(t + 3.0), 6.0)
        # e^{-x}-weighted quantities peak near x = 1: sample that region densely
        xs = np.concatenate([np.linspace(0.1, 3.0, WEIGHTED_SUP_N_X // 2),
                             np.linspace(3.5, x_hi, WEIGHTED_SUP_N_X // 2)])
        for x in xs:
            v = v_dirichlet(t, float(x), VERIFY_TOL).value
            val = math.exp(-x) * v * (t + 1.0) ** (1.5 - eps)
            if val > running:
                running = val
        if t <= 1e6:
            sup_at_1e6 = running
    growth = running / sup_at_1e6 - 1.0
    verdict = "pass" if growth < 0.01 else "fail"
    return VerificationReport(
        name=f"weighted_sup_eps{eps:g}",
        domain={"t": f"[{WEIGHTED_SUP_T_SAMPLES[0]:g}, {WEIGHTED_SUP_T_SAMPLES[-1]:g}]",
                "x_per_t": WEIGHTED_SUP_N_X},
        worst_signed_residual=growth,
        verdict=verdict,
        details={"running_sup": running, "growth_last_decades": growth, "eps": eps},
    )


def sweep_to_csv(records, path) -> None:
    """Emit (t, x, value, error_estimate) sample sweeps."""
    from .io import write_csv

    write_csv(path, ("t", "x", "value", "error_estimate"), records)
