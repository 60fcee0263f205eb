"""Minimal traveling wave U and the damped profiles phi_gamma.

U solves U'' + 2U' + U(1-U) = 0 with U(-inf)=1, U(+inf)=0, normalized so the
1/2-crossing sits at z = 0: the orbit is unique up to translation, so it is
integrated once and its sample grid is translated onto the crossing.
phi_gamma solves phi'' + 2phi' + phi - gamma phi^2 = 0 from
phi(0) = 1/(2 gamma), phi'(0) = 0, so gamma phi_gamma is the gamma = 1
solution phi_1: every phi_gamma is phi_1 / gamma, read off one cached
integration of phi_1.  Each profile is kept as its samples and derivative
samples on a uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError

# Growing eigenvalue of the linearization at the invaded state u = 1:
# root of mu^2 + 2 mu - 1 = 0.
MU_UNSTABLE = math.sqrt(2.0) - 1.0
# Quadratic coefficient of the unstable manifold u = 1 - d e^{mu z} + C2 d^2 e^{2 mu z}.
_C2 = -1.0 / (7.0 - 4.0 * math.sqrt(2.0))
# Amplitude 1 - U at z = WAVE_Z_MIN; found for PROFILE_DZ and WAVE_Z_MIN as
# they stand (see minimal_wave), so a change of either needs it found again.
_START_AMPLITUDE = 3.30859676777649e-06

# Right end and step of both profiles' samples; the minimal wave starts at
# WAVE_Z_MIN, phi_gamma at 0.
PROFILE_Z_MAX = 55.0
PROFILE_DZ = 4e-3
WAVE_Z_MIN = -30.0


@dataclass
class WaveProfile:
    """Sampled monotone profile and its derivative samples; gamma = 1 is
    the minimal wave."""

    z0: float
    dz: float
    values: np.ndarray = field(repr=False)
    dvalues: np.ndarray = field(repr=False)
    gamma: float = 1.0

    def grid(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.values.size)

    @property
    def z_max(self) -> float:
        return self.z0 + self.dz * (self.values.size - 1)

    def __call__(self, z):
        """Cubic Hermite evaluation (exact nodes, ~dz^4 error between them);
        constant extension outside the sampled range."""
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        lo = z <= self.z0
        hi = z >= self.z_max
        out[lo] = self.values[0]
        out[hi] = self.values[-1]
        mid = ~(lo | hi)
        if np.any(mid):
            s = (z[mid] - self.z0) / self.dz
            i = np.minimum(s.astype(int), self.values.size - 2)
            t = s - i
            h = self.dz
            y0, y1 = self.values[i], self.values[i + 1]
            d0, d1 = self.dvalues[i], self.dvalues[i + 1]
            h00 = (1 + 2 * t) * (1 - t) ** 2
            h10 = t * (1 - t) ** 2
            h01 = t * t * (3 - 2 * t)
            h11 = t * t * (t - 1)
            out[mid] = h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
        return float(out[0]) if scalar else out

    def derivative(self, z):
        """Linear interpolation of the derivative samples (exact at nodes,
        off by up to 2.9e-8 between them for the minimal wave at
        PROFILE_DZ = 4e-3); constant extension outside the sampled range."""
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        s = (np.clip(np.atleast_1d(z), self.z0, self.z_max) - self.z0) / self.dz
        i = np.minimum(s.astype(int), self.values.size - 2)
        d0, d1 = self.dvalues[i], self.dvalues[i + 1]
        out = d0 + (s - i) * (d1 - d0)
        return float(out[0]) if scalar else out


def _rk4_wave(u0: float, up0: float, n: int, h: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate u'' + 2u' + u - gamma u^2 = 0 with classical RK4.

    The stage slopes of u are the stage values of u' (k2u = p2, ...), so the
    loop uses those directly; the floating-point operations are those of the
    textbook form, in the same order.  Samples are stored through memoryviews
    of the preallocated arrays, which take a float faster than numpy's
    indexing does."""
    vals = np.empty(n + 1)
    dvals = np.empty(n + 1)
    v, dv = memoryview(vals), memoryview(dvals)
    u, up = u0, up0
    v[0], dv[0] = u, up
    hh = 0.5 * h
    for i in range(1, n + 1):
        k1p = -2.0 * up - u + gamma * u * u
        u2 = u + hh * up
        p2 = up + hh * k1p
        k2p = -2.0 * p2 - u2 + gamma * u2 * u2
        u3 = u + hh * p2
        p3 = up + hh * k2p
        k3p = -2.0 * p3 - u3 + gamma * u3 * u3
        u4 = u + h * p3
        p4 = up + h * k3p
        k4p = -2.0 * p4 - u4 + gamma * u4 * u4
        u += h * (up + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
        up += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        v[i] = u
        dv[i] = up
    return vals, dvals


@lru_cache(maxsize=1)
def minimal_wave() -> WaveProfile:
    """Minimal-speed wave, translated so U(0) = 1/2.

    Integrates forward once from the unstable manifold of u = 1 (no shooting
    parameter: the orbit is unique up to translation), then translates the
    sample grid so that the 1/2-crossing, read off a linear interpolant of the
    samples, sits at z = 0.  _START_AMPLITUDE puts the crossing -WAVE_Z_MIN
    past the first sample to 1e-9, so z0 = WAVE_Z_MIN to 1e-9.  It was found
    by launching from 1e-8 and four times rescaling the amplitude by
    e^{MU_UNSTABLE crossing} (crossings 14.0, -1.3e-5, 1.9e-9, -1.4e-10,
    then 4.3e-11).
    """
    dz = PROFILE_DZ
    n = int(round((PROFILE_Z_MAX - WAVE_Z_MIN) / dz))
    delta = _START_AMPLITUDE
    u0 = 1.0 - delta + _C2 * delta * delta
    up0 = -MU_UNSTABLE * delta + 2.0 * MU_UNSTABLE * _C2 * delta * delta
    vals, dvals = _rk4_wave(u0, up0, n, dz, 1.0)
    if vals.min() <= 0.0 or vals.max() >= 1.0:
        raise NumericsError("wave trajectory left (0, 1); refine PROFILE_DZ or move WAVE_Z_MIN left")
    above = np.nonzero(vals >= 0.5)[0]
    if above.size == 0 or above[-1] == n:
        raise NumericsError("1/2-crossing not bracketed on the grid")
    i = above[-1]
    crossing = WAVE_Z_MIN + dz * i + dz * (0.5 - vals[i]) / (vals[i + 1] - vals[i])
    z0 = float(WAVE_Z_MIN - crossing)
    # the cache shares the profile with every caller: a write would corrupt later results
    vals.flags.writeable = dvals.flags.writeable = False
    return WaveProfile(z0=z0, dz=dz, values=vals, dvalues=dvals)


@lru_cache(maxsize=1)
def _unit_orbit() -> tuple[np.ndarray, np.ndarray]:
    """phi_1 from (1/2, 0) on [0, PROFILE_Z_MAX], and its derivative samples.

    The guarantees every phi_gamma inherits are checked here, once: phi > 0,
    phi' < 0 on (0, z_max] and phi'/phi >= -1.  Each is invariant under
    phi -> phi / gamma."""
    n = int(round(PROFILE_Z_MAX / PROFILE_DZ))
    vals, dvals = _rk4_wave(0.5, 0.0, n, PROFILE_DZ, 1.0)
    if vals.min() <= 0.0:
        raise NumericsError("phi_1 left (0, 1); refine dz")
    if np.any(dvals[1:] >= 0.0):
        raise NumericsError("phi_1' failed to stay negative on (0, z_max]")
    logslope = dvals[1:] / vals[1:]
    if np.any(logslope < -1.0 - 1e-12):
        raise NumericsError("phi_1'/phi_1 dropped below -1: integration error")
    vals.flags.writeable = dvals.flags.writeable = False  # cached, as minimal_wave
    return vals, dvals


@lru_cache(maxsize=32)
def phi_gamma(gamma: float) -> WaveProfile:
    """Damped companion profile: phi(0) = 1/(2 gamma), phi'(0) = 0.

    The samples are those of the cached gamma = 1 orbit divided by gamma:
    each RK4 step commutes with that scaling up to rounding, so integrating
    phi_gamma's own equation gives the same samples to about 1e-13 relative.
    Guarantees checked numerically on that orbit: phi' < 0 on (0, z_max] and
    phi'/phi >= -1.
    """
    if not 1.0 < gamma < math.inf:  # phi_1 / inf would be a profile of zeros
        raise DomainError("phi_gamma requires a finite gamma > 1")
    unit_vals, unit_dvals = _unit_orbit()
    vals = unit_vals / gamma
    dvals = unit_dvals / gamma
    vals.flags.writeable = dvals.flags.writeable = False  # cached, as minimal_wave
    return WaveProfile(z0=0.0, dz=PROFILE_DZ, values=vals, gamma=gamma, dvalues=dvals)


def ode_residual(profile: WaveProfile) -> float:
    """Max | u'' + 2u' + u - gamma u^2 | over interior nodes, with 4th-order
    centered stencils so the discretization error sits well below 1e-8."""
    u = profile.values
    h = profile.dz
    d1 = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    d2 = (-u[4:] + 16.0 * u[3:-1] - 30.0 * u[2:-2] + 16.0 * u[1:-3] - u[:-4]) / (12.0 * h * h)
    mid = u[2:-2]
    res = d2 + 2.0 * d1 + mid - profile.gamma * mid * mid
    return float(np.abs(res).max())
