"""Linear heat solutions behind the critical-case analysis, by Gauss-Kronrod
quadrature of kernel integrals with per-piece panel doubling.

The one family covered is the half-line Dirichlet solution v(t, x) from the
data 1 on (0,1], 1/x^2 beyond (sim's front datum e^{x} u0 at k = -2, A = 1),
with its x-derivative and an independent sinh-form route.  Each route takes t,
x and tol as floats or as arrays that broadcast together; an array is
integrated in one pass whose every round evaluates the 21-point Gauss-Kronrod
rule on the equal panels of every open piece of every point in one numpy call.
A point's result does not depend on the other points of its batch.  The
kernels are arranged so no catastrophic cancellation or overflow occurs: the
image kernel is evaluated as exp(-(x-y)^2/4t) * (-expm1(-xy/t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .report import VerificationReport
from .sim import _log_front_data

# Most equal panels one piece of a quadrature may be split into (a power of
# two), and the relative tolerance of every piece.
_QUAD_LIMIT = 256
_EPSREL = 1e-11
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

# The 21-point Gauss-Kronrod rule on [-1, 1] of QUADPACK's qk21 (Piessens et
# al., QUADPACK, 1983): the nonnegative nodes, their Kronrod weights, and the
# weights of the 10-point Gauss rule, whose nodes are every other nonzero one.
_GK21_NODES = (0.0, 0.14887433898163122, 0.2943928627014602, 0.4333953941292472,
               0.5627571346686047, 0.6794095682990244, 0.7808177265864169,
               0.8650633666889845, 0.9301574913557082, 0.9739065285171717,
               0.9956571630258081)
_GK21_KRONROD = (0.1494455540029169, 0.14773910490133849, 0.14277593857706009,
                 0.13470921731147334, 0.12349197626206584, 0.10938715880229764,
                 0.0931254545836976, 0.07503967481091996, 0.054755896574351995,
                 0.032558162307964725, 0.011694638867371874)
_GK21_GAUSS = (0.0, 0.29552422471475287, 0.0, 0.26926671930999635, 0.0,
               0.21908636251598204, 0.0, 0.1494513491505806, 0.0,
               0.06667134430868814, 0.0)


# the 21 nodes over [-1, 1] and their two weight vectors
_XK = np.concatenate([-np.array(_GK21_NODES[:0:-1]), _GK21_NODES])
_WK = np.concatenate([_GK21_KRONROD[:0:-1], _GK21_KRONROD])
_WG = np.concatenate([_GK21_GAUSS[:0:-1], _GK21_GAUSS])
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


@dataclass
class QuadratureResult:
    """value and abs_error_estimate are floats for float arguments and arrays
    of the broadcast shape otherwise; evaluations counts integrand values
    over all points."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def critical_data(y):
    """Initial data of the critical-case Dirichlet problem, elementwise: 0 on
    y <= 0, and on y > 0 sim's weighted front datum e^{y} u0 at k = -2, A = 1,
    which is 1 on (0, 1] and 1/y^2 beyond."""
    return np.where(y > 0.0, np.exp(_log_front_data(-2.0, 1.0, y)), 0.0)


def _gk21(f, a, b, params):
    """The qk21 rule on each subinterval [a_i, b_i] (b_i > a_i): the Kronrod
    value and QUADPACK's error estimate.  f takes a (rows, 21) array of nodes
    and each per-row array of params as a (rows, 1) column; a scalar result
    is broadcast.  Sums run along rows, so each row's result depends on that
    row alone."""
    half = 0.5 * (b - a)
    y = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    fv = np.empty_like(y)
    fv[...] = f(y, *(p[:, None] for p in params))
    resk = (fv * _WK).sum(axis=1)
    resg = (fv * _WG).sum(axis=1)
    resabs = (np.abs(fv) * _WK).sum(axis=1) * half
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * _WK).sum(axis=1) * half
    err = np.abs((resk - resg) * half)
    spread = resasc != 0.0  # where err = 0 too, the scaling keeps it 0
    err[spread] = resasc[spread] * np.minimum(1.0, (200.0 * err[spread] / resasc[spread]) ** 1.5)
    above = resabs > _UFLOW / (50.0 * _EPMACH)
    err[above] = np.maximum(50.0 * _EPMACH * resabs[above], err[above])
    return resk * half, err


def _piecewise_quad(f, edges, tol, *params) -> tuple[np.ndarray, np.ndarray, int]:
    """Integral of f over each row of edges, to absolute tolerance tol (one
    per row): returns the values, their error estimates and the number of
    integrand evaluations.

    edges is one increasing list of edges, or one such row per point; a piece
    whose edges do not increase is skipped, so a row may be padded at its end
    by repeating its last edge.  f is called as in _gk21, with params holding
    one value per point.  Each piece has epsabs = tol / (2 pieces) and
    relative tolerance _EPSREL.  Round j applies the rule to 2^j equal panels
    of every piece still open, all in one call, and closes a piece once its
    panels' estimates sum to at most max(epsabs, _EPSREL |integral|) or it
    holds _QUAD_LIMIT panels.  A point whose summed estimate exceeds
    max(tol, |value| 1e-10, 1e-300), or is NaN, raises NumericsError."""
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    n = edges.shape[0]
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    lo, hi = edges[:, :-1], edges[:, 1:]
    live = hi > lo
    point = np.nonzero(live)[0]  # the point of each piece, pieces in row order
    epsabs = (0.5 * tol / np.maximum(live.sum(axis=1), 1))[point]
    params = [np.broadcast_to(np.asarray(p, dtype=float), (n,))[point] for p in params]
    lo, hi = lo[live], hi[live]
    value, error = np.zeros(point.size), np.zeros(point.size)
    open_, panels, evaluations = np.arange(point.size), 1, 0
    while open_.size:
        frac = np.arange(panels + 1) / panels
        cuts = lo[open_, None] * (1.0 - frac) + hi[open_, None] * frac
        area, err = _gk21(f, cuts[:, :-1].ravel(), cuts[:, 1:].ravel(),
                          [np.repeat(p[open_], panels) for p in params])
        evaluations += 21 * area.size
        value[open_] = area.reshape(-1, panels).sum(axis=1)
        error[open_] = err.reshape(-1, panels).sum(axis=1)
        # negated so that a NaN estimate stays open until the limit
        more = ~(error[open_] <= np.maximum(epsabs[open_], _EPSREL * np.abs(value[open_])))
        open_ = open_[more & (panels < _QUAD_LIMIT)]
        panels *= 2
    total, total_err = np.bincount(point, value, n), np.bincount(point, error, n)
    # negated so that a NaN estimate fails too
    failed = np.nonzero(~(total_err <= np.maximum(np.maximum(tol, np.abs(total) * 1e-10), 1e-300)))[0]
    if failed.size:
        i = failed[0]
        raise NumericsError(f"quadrature error estimate {total_err[i]:.2e} exceeds tolerance {tol[i]:.2e}")
    return total, total_err, evaluations


def _truncation_radius(t):
    # the kept half-width about x: the Gaussian factor is below 1e-18 of its peak beyond it
    return 2.0 * np.sqrt(t * math.log(1e18)) + 10.0


def _dirichlet_edges(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Quadrature edges over y > 0 at each point of the 1-d arrays t, x: 0,
    the kink y = 1 of the data, the truncation edge x + radius, and x - radius,
    x - sqrt t, x, x + sqrt t and the decades 10, 100, ... (the 1/y^2 tail of
    the data decays over decades) where they fall inside.  The edge x - radius
    keeps the Gaussian flank of every piece within about 13 sqrt t, which
    equal panels resolve even at x >> sqrt t.  One increasing row per point,
    padded at its end with repeats of x + radius."""
    s, radius = np.sqrt(t), _truncation_radius(t)
    hi = x + radius  # radius > 10, so hi is above the kink
    decades = []
    p = 10.0
    while p < hi.max(initial=0.0):
        decades.append(p)
        p *= 10.0
    inside = np.column_stack([x - radius, x - s, x, x + s,
                              np.broadcast_to(decades, (x.size, len(decades)))])
    inside = np.where((inside > 0.0) & (inside < hi[:, None]), inside, hi[:, None])
    cols = [np.zeros_like(x), np.ones_like(x), *inside.T, hi]
    return np.sort(np.column_stack(cols), axis=1)


def _dirichlet_integral(integrand, outer, t, x, tol) -> QuadratureResult:
    """outer(t, x) times the integral of integrand over y > 0, to absolute
    tolerance tol on the scaled value, at every point of the broadcast t, x,
    tol.  At x = 0 the image and sinh kernels vanish identically, so v reads
    +0 there with error estimate 0."""
    t, x, tol = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, x, tol)))
    shape = t.shape
    t, x, tol = t.ravel(), x.ravel(), tol.ravel()
    bad = ~((0.0 < t) & (t < math.inf))
    if bad.any():
        raise DomainError(f"t must be finite and positive, got {t[bad][0]}")
    bad = ~((0.0 <= x) & (x < math.inf))
    if bad.any():
        raise DomainError(f"x must be finite and nonnegative, got {x[bad][0]}")
    scale = outer(t, x)
    value, err, evaluations = _piecewise_quad(integrand, _dirichlet_edges(t, x), tol / scale, t, x)
    value, err = scale * value, scale * err
    if shape == ():
        return QuadratureResult(float(value[0]), float(err[0]), evaluations)
    return QuadratureResult(value.reshape(shape), err.reshape(shape), evaluations)


def _gaussian_norm(t, x):
    return 1.0 / np.sqrt(4.0 * math.pi * t)


def _image_kernel(y, t, x):
    g = np.exp(-((x - y) ** 2) / (4.0 * t))
    return g * (-np.expm1(-x * y / t)) * critical_data(y)


def _image_kernel_dx(y, t, x):
    a = np.exp(-((x - y) ** 2) / (4.0 * t))
    b = np.exp(-((x + y) ** 2) / (4.0 * t))
    return (-(x - y) * a + (x + y) * b) / (2.0 * t) * critical_data(y)


def _sinh_kernel(y, t, x):
    return np.exp(-y * y / (4.0 * t)) * np.sinh(x * y / (2.0 * t)) * critical_data(y)


def _sinh_norm(t, x):
    # sinh(xy/2t) takes y < x + radius, and overflows past arcsinh(DBL_MAX) = 710.476
    bad = x * (x + _truncation_radius(t)) / (2.0 * t) > np.arcsinh(np.finfo(float).max)
    if bad.any():
        raise DomainError(f"sinh kernel overflows at t = {t[bad][0]:g}, x = {x[bad][0]:g}")
    return np.exp(-x * x / (4.0 * t)) / np.sqrt(math.pi * t)


def v_dirichlet(t, x, tol=1e-12) -> QuadratureResult:
    """Half-line Dirichlet heat solution at (t, x) from the critical data;
    t, x and tol may be arrays that broadcast together."""
    return _dirichlet_integral(_image_kernel, _gaussian_norm, t, x, tol)


def v_dirichlet_dx(t, x, tol=1e-12) -> QuadratureResult:
    """Spatial derivative of v_dirichlet via the differentiated kernel."""
    return _dirichlet_integral(_image_kernel_dx, _gaussian_norm, t, x, tol)


def v_dirichlet_sinh_form(t, x, tol=1e-12) -> QuadratureResult:
    """Independent route: e^{-x^2/4t}/sqrt(pi t) integral of e^{-y^2/4t}
    sinh(xy/2t) v0; cross-checks the image-kernel evaluation."""
    return _dirichlet_integral(_sinh_kernel, _sinh_norm, t, x, tol)


def verify_midrange_band(t: float) -> VerificationReport:
    """Two-sided x ln t / t^{3/2} band for v on 9 points of x in (1, ln t):
    records the empirical ratio band; pass iff every ratio lies in [0.05, 5]."""
    if t < 100.0:
        raise DomainError("band check needs t >= 100")
    x_samples = np.linspace(1.0 + 1e-6, math.log(t) * (1.0 - 1e-6), 9)
    ratios = v_dirichlet(t, x_samples, VERIFY_TOL).value * t**1.5 / (x_samples * math.log(t))
    lo, hi = float(ratios.min()), float(ratios.max())
    ok = 0.05 <= lo and hi <= 5.0
    worst = max(0.05 - lo, hi - 5.0)
    return VerificationReport(
        name=f"dirichlet_band_t{t:g}",
        domain={"t": t, "x": f"({min(x_samples):.3g}, {max(x_samples):.3g})", "samples": ratios.size},
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
    ts = np.array(GRADIENT_T_SAMPLES)
    x_hi = np.minimum(4.0 * ts**0.75, 26.0 * np.sqrt(ts))
    xs = np.geomspace(x_hi / 300.0, x_hi, GRADIENT_N_X, axis=1)
    ts = np.broadcast_to(ts[:, None], xs.shape)
    v = v_dirichlet(ts, xs, VERIFY_TOL).value
    live = v > 1e-290
    dv = v_dirichlet_dx(ts[live], xs[live], np.maximum(VERIFY_TOL, v[live] * 1e-8)).value
    c = np.zeros(v.shape)
    c[live] = -(dv / v[live]) * ts[live] ** 0.25
    # the first largest C > 0 in row order; a NaN C never raises it
    c = np.where(c > 0.0, c, 0.0)
    i = np.unravel_index(np.argmax(c), c.shape)
    worst = float(c[i])
    at = (float(ts[i]), float(xs[i])) if worst > 0.0 else (math.nan, math.nan)
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
    ts = np.array(WEIGHTED_SUP_T_SAMPLES)
    x_hi = np.maximum(3.0 * np.log(ts + 3.0), 6.0)
    # e^{-x}-weighted quantities peak near x = 1: sample that region densely
    half = WEIGHTED_SUP_N_X // 2
    xs = np.column_stack([np.broadcast_to(np.linspace(0.1, 3.0, half), (ts.size, half)),
                          np.linspace(3.5, x_hi, half, axis=1)])
    vals = np.exp(-xs) * v_dirichlet(ts[:, None], xs, VERIFY_TOL).value * (ts[:, None] + 1.0) ** (1.5 - eps)
    # the running sup after each t, from 0
    sups = np.maximum.accumulate(np.maximum(vals.max(axis=1), 0.0))
    running, sup_at_1e6 = float(sups[-1]), float(sups[ts <= 1e6][-1])
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
