"""The self-similar tail profile w(y; r) and its ODE oracle.

w solves  w'' + (y/2) w' + (r - 1/2) w = 0,  w(0) = 0, w'(0) = 1.  Its odd
solution is  w(y) = y M(r, 3/2, -z)  with z = y^2/4 and M = 1F1 Kummer's
function (scipy.special.hyp1f1): Kummer's transformation
M(a, b, z) = e^z M(b - a, b, -z) (DLMF 13.2.39) of the product form
y e^{-z} M(3/2 - r, 3/2, z).  M(r, 3/2, -z) decays algebraically in z, so no
e^z is formed and nothing overflows however large y gets.  w' solves
v'' + (y/2) v' + r v = 0 with v(0) = 1, v'(0) = 0, so w'(y) = M(r, 1/2, -z):
one hyp1f1 call, with no cancelling difference of two.  An explicit
fixed-step 4th-order integrator of the same Cauchy problem serves as the
independent oracle.

w_eval and w_prime_eval take a float y, and return a float, or an array of
y, evaluated elementwise: hyp1f1 is a ufunc, so every element is its
one-point value.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericsError
from .grid import GridFunction


def _check_r(r: float) -> None:
    if not math.isfinite(r):
        raise DomainError(f"drift coefficient r must be finite, got {r}")
    if r > 1.5:
        raise DomainError(f"drift coefficient r must satisfy r <= 3/2, got {r}")


def w_asymptotic_constant(r: float) -> float:
    """C in w(y) ~ C y^(1-2r):  C = 4^r Gamma(3/2) / Gamma((3-2r)/2)."""
    _check_r(r)
    if r == 1.5:
        raise DomainError("r = 3/2 has a gaussian tail; no algebraic constant")
    return 4.0 ** r * math.gamma(1.5) / math.gamma(1.5 - r)


def _profile_z(r: float, y) -> tuple[np.ndarray, np.ndarray]:
    """After the domain checks: y as an array, and z = y^2/4."""
    _check_r(r)
    ys = np.asarray(y, dtype=float)
    if not np.all((ys >= 0.0) & (ys < math.inf)):
        raise DomainError("w is defined on finite y >= 0")
    return ys, 0.25 * ys * ys


def _kummer_neg(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """M(a, b, -z) elementwise.  M(b, b, -z) = e^{-z} and
    M(b + 1, b, -z) = e^{-z} (1 - z/b) in closed form (r = 1/2 and r = 3/2
    for w', r = 3/2 for w): there hyp1f1 takes time linear in z (8 s at
    z = 1e12) and is NaN from z = 1e50."""
    # imported on first use: the package loads no scipy, and simulate, fit
    # and report never need scipy.special (its cost is in CHANGES.md)
    from scipy.special import hyp1f1

    if a == b:
        return np.exp(-z)
    if a == b + 1.0:
        return np.exp(-z) * (1.0 - z / b)
    return hyp1f1(a, b, -z)


def _checked(values: np.ndarray, r: float):
    """`values` as a float for a 0-d array; non-finite values (hyp1f1 gives
    NaN or inf past y ~ 1e78 for some r) fail loudly."""
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"w or w' is not finite at r = {r} on the given y")
    return float(values) if values.ndim == 0 else values


def w_eval(r: float, y):
    """Self-similar profile w(y; r) for r <= 3/2, elementwise over a float or
    array y >= 0; a float y gives a float."""
    ys, z = _profile_z(r, y)
    # an overflow here (y + y^3/6 at r = -1 past y ~ 1e103) is raised by _checked
    with np.errstate(over="ignore"):
        w = ys * _kummer_neg(r, 1.5, z)
    return _checked(w, r)


def w_prime_eval(r: float, y):
    """w'(y; r), elementwise like w_eval; w'(0) = 1 exactly."""
    _, z = _profile_z(r, y)
    return _checked(_kummer_neg(r, 0.5, z), r)


# Steps per oracle block.  A step is about 20 numpy calls, each with ~1 us of
# fixed overhead, while carrying the state across one block is ~1 us of
# Python: the block length trades the first (paid per step of a block)
# against the second (paid per block).  At n = 1e5 and 2e5 the time is
# within 10% of its best for 50 to 150 steps; ceil(sqrt(n)) steps took
# 1.5-2x as long.
ORACLE_BLOCK_STEPS = 100


def w_ode_oracle(r: float, y_max: float, n: int) -> GridFunction:
    """Classical 4th-order fixed-step integration of the w Cauchy problem on
    the grid y_i = i y_max / n.

    The equation is linear, so each RK4 step is a linear map of (w, w').  The
    n steps split into blocks of ORACLE_BLOCK_STEPS steps; at every block
    start the two basis states (1, 0) and (0, 1) are stepped together, all
    blocks at once as arrays, and the true state is carried from block to
    block by the 2x2 matrices of their end states.  The nodes of the last
    block past y_max are dropped.  This is the RK4 map of stepping node by
    node, so the error is the same O(h^4); the stored launches take O(n)
    memory and each step's temporaries 2 ceil(n / ORACLE_BLOCK_STEPS)
    values.  Independent of the hypergeometric evaluation path; used to
    certify w_eval.
    """
    if n < 100:
        raise DomainError("oracle needs n >= 100 steps")
    if not math.isfinite(r):
        raise DomainError(f"drift coefficient r must be finite, got {r}")
    if not 0.0 < y_max < math.inf:
        raise DomainError(f"y_max must be positive and finite, got {y_max}")
    h = y_max / n
    # the stiff rate of the w equation is about y/2, and RK4 is stable on the
    # negative real axis only up to h * rate = 2.785
    if 0.5 * h * y_max > 2.785:
        raise DomainError(f"step {h:g} is past RK4's stability bound at y_max = {y_max:g}")
    c = r - 0.5
    size = ORACLE_BLOCK_STEPS
    blocks = -(-n // size)
    # row 0 launches (1, 0) and row 1 launches (0, 1), one column per block
    w = np.array([[1.0], [0.0]]).repeat(blocks, axis=1)
    wp = 1.0 - w
    # -y/2 at the block starts, in the shape of w: a broadcast product
    # costs about twice a same-shape one
    half_y0 = np.tile(-0.5 * h * size * np.arange(blocks), (2, 1))
    # w of both launches after each step, laid out as the output grid
    ws = np.empty((2, blocks, size))
    for j in range(size):
        a1 = half_y0 - 0.5 * h * j      # -y/2 at the step start,
        a2 = a1 - 0.25 * h              # the midpoint
        a4 = a1 - 0.5 * h               # and the step end
        k1p = a1 * wp - c * w
        p2 = wp + 0.5 * h * k1p
        k2p = a2 * p2 - c * (w + 0.5 * h * wp)
        p3 = wp + 0.5 * h * k2p
        k3p = a2 * p3 - c * (w + 0.5 * h * p2)
        p4 = wp + h * k3p
        k4p = a4 * p4 - c * (w + h * p3)
        w = w + h / 6.0 * (wp + 2.0 * (p2 + p3) + p4)
        wp = wp + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
        ws[:, :, j] = w
    # the true (w, w') at each block start, from (0, 1) at y = 0: the end
    # states of the two launches are the columns of the block's 2x2 map
    coef = np.empty((blocks, 2))
    state = (0.0, 1.0)
    for b, (w_end, wp_end) in enumerate(zip(w.T.tolist(), wp.T.tolist())):
        coef[b] = state
        state = (state[0] * w_end[0] + state[1] * w_end[1],
                 state[0] * wp_end[0] + state[1] * wp_end[1])
    ws[0] *= coef[:, :1]
    ws[1] *= coef[:, 1:]
    ws[0] += ws[1]
    return GridFunction(0.0, h, np.concatenate(([0.0], ws[0].ravel()[:n])))
