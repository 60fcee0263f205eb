"""Kummer's series and the self-similar tail profile w(y; r).

w solves  w'' + (y/2) w' + (r - 1/2) w = 0,  w(0) = 0, w'(0) = 1,  and is
evaluated through the product form  w(y) = y exp(-y^2/4) psi(y^2/4)  with
psi(z) = 1F1((3-2r)/2, 3/2, z): the power series of 1F1 below CROSSOVER_Z,
above it the large-z expansion with e^{-z} 1F1 combined analytically into
w_asymptotic_constant y^(1-2r) S(z).  An explicit fixed-step 4th-order
integrator of the same Cauchy problem serves as the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grid import GridFunction

# w_eval and w_prime_eval: series below, asymptotic expansion above; the test
# suite compares the two branches on [CROSSOVER_Z, CROSSOVER_Z + 10].
CROSSOVER_Z = 30.0

_EPS = 1e-17
# Terms before kummer_1f1_series gives up; z = CROSSOVER_Z takes about 90.
SERIES_MAX_TERMS = 500


def kummer_1f1_series(a: float, b: float, z: float) -> float:
    """Power series for 1F1(a, b, z); converges for all z, efficient for z < ~40."""
    term = 1.0
    total = 1.0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        if abs(term) <= _EPS * abs(total) and n > 3:
            return total
        if term == 0.0:
            return total
    raise DomainError(f"1F1 series did not converge for a={a}, b={b}, z={z}")


def _asymptotic_tail(a: float, b: float, z: float) -> float:
    """S(z) with 1F1(a,b,z) ~ Gamma(b)/Gamma(a) e^z z^(a-b) S(z) as z -> +inf.

    S(z) = sum_n (b-a)_n (1-a)_n / (n! z^n), truncated at the smallest term.
    """
    term = 1.0
    total = 1.0
    prev = math.inf
    for n in range(int(z) + 2):
        term *= (b - a + n) * (1.0 - a + n) / ((n + 1) * z)
        if abs(term) >= prev:  # divergent tail reached; stop at smallest term
            break
        total += term
        prev = abs(term)
        if abs(term) <= _EPS * abs(total):
            break
    return total


def _check_r(r: float) -> None:
    if r > 1.5:
        raise DomainError(f"drift coefficient r must satisfy r <= 3/2, got {r}")


def w_asymptotic_constant(r: float) -> float:
    """C in w(y) ~ C y^(1-2r):  C = 4^r Gamma(3/2) / Gamma((3-2r)/2)."""
    _check_r(r)
    if r == 1.5:
        raise DomainError("r = 3/2 has a gaussian tail; no algebraic constant")
    return 4.0 ** r * math.gamma(1.5) / math.gamma(1.5 - r)


def w_eval(r: float, y: float) -> float:
    """Self-similar profile w(y; r) for r <= 3/2, y >= 0."""
    _check_r(r)
    if y < 0.0:
        raise DomainError("w is defined on y >= 0")
    if y == 0.0:
        return 0.0
    z = 0.25 * y * y
    if r == 1.5:
        return y * math.exp(-z)
    a = 1.5 - r
    if z < CROSSOVER_Z:
        return y * math.exp(-z) * kummer_1f1_series(a, 1.5, z)
    # exp(-z) * 1F1 combined analytically: no overflow however large y gets
    return w_asymptotic_constant(r) * y ** (1.0 - 2.0 * r) * _asymptotic_tail(a, 1.5, z)


def w_prime_eval(r: float, y: float) -> float:
    """w'(y; r), differentiating the product form; w'(0) = 1 exactly."""
    _check_r(r)
    if y < 0.0:
        raise DomainError("w is defined on y >= 0")
    if y == 0.0:
        return 1.0
    z = 0.25 * y * y
    if r == 1.5:
        return (1.0 - 2.0 * z) * math.exp(-z)
    a = 1.5 - r
    if z < CROSSOVER_Z:
        psi = kummer_1f1_series(a, 1.5, z)
        dpsi = (a / 1.5) * kummer_1f1_series(a + 1.0, 2.5, z)
        return math.exp(-z) * ((1.0 - 2.0 * z) * psi + 2.0 * z * dpsi)
    s0 = _asymptotic_tail(a, 1.5, z)
    s1 = _asymptotic_tail(a + 1.0, 2.5, z)
    bracket = s0 + 2.0 * z * (s1 - s0)
    return w_asymptotic_constant(r) * y ** (-2.0 * r) * bracket


def w_ode_oracle(r: float, y_max: float, n: int) -> GridFunction:
    """Classical 4th-order fixed-step integration of the w Cauchy problem.

    Independent of the hypergeometric evaluation path; used to certify w_eval.
    """
    if n < 100:
        raise DomainError("oracle needs n >= 100 steps")
    if not y_max > 0.0:
        raise DomainError("y_max must be positive")
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
    return GridFunction(0.0, h, out)
