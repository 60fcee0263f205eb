"""Fit the level-set drift laws and measure distance to the shifted wave.

The fits work on the delay d(t) = 2t - x_m(t): subtracting the exactly known
2t removes the conditioning problem, leaving the logarithmic laws

    noncritical:  d(t) =  r ln t + c
    critical:     d(t) = (3/2) ln t - kappa ln ln t + c,  3/2 held fixed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import GridFunction
from .sim import FrontTrace
from .waves import WaveProfile

SHIFT_BOUND = 10.0
GOLDEN_TOL = 1e-4
# The ln t coefficient of the critical law, held fixed by its fits.
CRITICAL_LOG_COEFF = 1.5


def drift_target(k: float) -> float:
    """The predicted ln t coefficient r = (1 - k)/2 of the delay for data
    with tail A x^k e^{-x}; k = -2 gives the critical r = 3/2."""
    return 0.5 * (1.0 - k)


@dataclass
class FitResult:
    r_hat: float
    intercept: float
    residual_max: float
    window: tuple[float, float]
    r_hat_pairwise: float | None = None


def _windowed(trace: FrontTrace, t_min: float, t_max: float | None = None):
    t = trace.times
    mask = t >= t_min
    if t_max is not None:
        mask &= t <= t_max
    if mask.sum() < 3:
        raise DomainError("under-determined fit: fewer than 3 samples in window")
    return t[mask], trace.delays()[mask]


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares of y against (x, 1): slope, intercept and the largest
    absolute residual."""
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.abs(y - design @ coef).max())
    return float(coef[0]), float(coef[1]), residual


def fit_log_correction(trace: FrontTrace, t_min: float, t_max: float | None = None) -> FitResult:
    """Least squares of d(t) against (ln t, 1); the extreme-pair slope
    (d(t1)-d(t0))/ln(t1/t0) is reported alongside."""
    t, d = _windowed(trace, t_min, t_max)
    r_hat, intercept, residual = _line_fit(np.log(t), d)
    pairwise = float((d[-1] - d[0]) / math.log(t[-1] / t[0]))
    return FitResult(
        r_hat=r_hat,
        intercept=intercept,
        residual_max=residual,
        window=(float(t[0]), float(t[-1])),
        r_hat_pairwise=pairwise,
    )


def fit_critical(trace: FrontTrace, t_min: float, t_max: float | None = None) -> FitResult:
    """Critical-case fit: with the (3/2) ln t coefficient held fixed, regress
    d - (3/2) ln t on (-ln ln t, 1).  Coefficient target is 1."""
    if t_min < 100.0:
        raise DomainError("critical fit needs t_min >= 100")
    t, d = _windowed(trace, t_min, t_max)
    if t[-1] < 10.0 * t[0]:
        raise DomainError("critical fit needs at least one decade of t")
    y = d - CRITICAL_LOG_COEFF * np.log(t)
    kappa, intercept, residual = _line_fit(-np.log(np.log(t)), y)
    return FitResult(
        r_hat=kappa,
        intercept=intercept,
        residual_max=residual,
        window=(float(t[0]), float(t[-1])),
    )


def critical_residual_comparison(trace: FrontTrace, t_min: float, t_max: float | None = None) -> dict:
    """Residual comparison for the critical drift law, 3/2 log coefficient
    held fixed throughout.

    Returns max-residuals of three nested variants: the pure-log model
    (3/2 ln t + c), the unit-coefficient model (3/2 ln t - ln ln t + c), and
    the fitted model (3/2 ln t - kappa ln ln t + c) with kappa from the
    least-squares fit.  Constants are Chebyshev centers so each residual is
    the best attainable for its model."""
    t, d = _windowed(trace, t_min, t_max)
    base = d - CRITICAL_LOG_COEFF * np.log(t)

    def minimax_residual(y: np.ndarray) -> float:
        return float(0.5 * (y.max() - y.min()))

    fit = fit_critical(trace, t_min, t_max)
    fitted = base + fit.r_hat * np.log(np.log(t))
    return {
        "pure_log": minimax_residual(base),
        "unit_lnln": minimax_residual(base + np.log(np.log(t))),
        "fitted_lnln": minimax_residual(fitted),
        "kappa": fit.r_hat,
    }


def wave_distance(state: GridFunction, t: float, profile: WaveProfile, center: float) -> tuple[float, float]:
    """Shift-minimized sup distance on x >= 0 between the state and the wave
    profile anchored at `center`; golden-section over |h| <= 10."""
    x = state.grid() + 2.0 * t
    mask = x >= 0.0
    if not np.any(mask):
        raise DomainError("state has no nodes with x >= 0")
    u = state.values[mask]
    z = x[mask] - center

    def f(h: float) -> float:
        return float(np.abs(u - profile(z + h)).max())

    scan = np.linspace(-SHIFT_BOUND, SHIFT_BOUND, 81)
    vals = [f(h) for h in scan]
    i = int(np.argmin(vals))
    if i == 0 or i == len(scan) - 1:
        warnings.warn("wave_distance minimizer at the shift-search boundary")
        return float(scan[i]), float(vals[i])
    a, b = float(scan[i - 1]), float(scan[i + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    h_star = 0.5 * (a + b)
    return h_star, f(h_star)
