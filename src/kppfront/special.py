"""Kummer's series and the self-similar tail profile w(y; r).

w solves  w'' + (y/2) w' + (r - 1/2) w = 0,  w(0) = 0, w'(0) = 1,  and is
evaluated through the product form  w(y) = y exp(-y^2/4) psi(y^2/4)  with
psi(z) = 1F1((3-2r)/2, 3/2, z): the power series of 1F1 below CROSSOVER_Z,
above it the large-z expansion with e^{-z} 1F1 combined analytically into
w_asymptotic_constant y^(1-2r) S(z).  An explicit fixed-step 4th-order
integrator of the same Cauchy problem serves as the independent oracle.

w_eval and w_prime_eval take a float y, and return a float, or an array of
y, evaluated elementwise: both series run along a term axis for all points
at once, each point stopping at its own term, so every element is bit for
bit the one-point value.
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
# Terms in the first pass over the term axis (later passes double it); a
# point leaves the working set after the pass in which it stops.
_TERM_BLOCK = 16


def _shaped(values: np.ndarray, like: np.ndarray):
    """`values` in the shape of `like`; a float for a 0-d `like`."""
    return float(values[0]) if like.ndim == 0 else values.reshape(like.shape)


# exp, log and the power are taken per element as Python floats: numpy's
# vectorised versions differ from libm in the last ulp on some CPUs, and each
# element of w, w' and ansatz's psi must equal its one-point evaluation.
def _exp_neg(z: np.ndarray) -> np.ndarray:
    return np.array([math.exp(-v) for v in z.tolist()])


def _log(t: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in t.tolist()])


def _pow(y: np.ndarray, p: float) -> np.ndarray:
    return np.array([v ** p for v in y.tolist()])


def _running_sums(factors: np.ndarray, term: np.ndarray, total: np.ndarray):
    """Continue the sums of a series from its last (term, total), one row of
    `factors` per term: the sequential products and sums of
    `term *= f; total += term`, so every partial sum is that of a one-point
    loop, overflow to inf included.  Returns the terms and the partial sums,
    sums[0] = total and sums[k + 1] the sum through terms[k].  `factors` is
    overwritten."""
    factors[0] *= term
    with np.errstate(over="ignore"):
        terms = np.multiply.accumulate(factors, axis=0)
        return terms, np.add.accumulate(np.concatenate((total[None], terms)), axis=0)


def _settle(out, live, stop, sums, dropped=None) -> np.ndarray:
    """Write into out[live] each point's partial sum at its first `stop` row:
    the sum through that term, or before it where `dropped` marks the term.
    Returns the mask of live points that did not stop."""
    hit = stop.any(axis=0)
    cols = np.nonzero(hit)[0]
    rows = stop.argmax(axis=0)[cols]
    if dropped is not None:
        rows = rows - dropped[rows, cols]
    out[live[cols]] = sums[rows + 1, cols]
    return ~hit


def _term_blocks(n_terms: int):
    """Indices of the first n_terms terms as columns, one per pass:
    _TERM_BLOCK terms, then twice as many as the pass before."""
    start, size = 0, _TERM_BLOCK
    while start < n_terms:
        yield np.arange(start, min(start + size, n_terms), dtype=float)[:, None]
        start += size
        size *= 2


def kummer_1f1_series(a: float, b: float, z):
    """Power series for 1F1(a, b, z), elementwise over a float or array z;
    converges for all z, efficient for z < ~40.  Each point stops at its own
    term; the points still summing get the next block of terms."""
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    out = np.empty(flat.size)
    live = np.arange(flat.size)
    term = total = np.ones(flat.size)
    for n in _term_blocks(SERIES_MAX_TERMS):
        if live.size == 0:
            break
        terms, sums = _running_sums((a + n) / (b + n) * flat[live] / (n + 1), term, total)
        stop = (np.abs(terms) <= _EPS * np.abs(sums[1:])) & (n > 3) | (terms == 0.0)
        going = _settle(out, live, stop, sums)
        live, term, total = live[going], terms[-1, going], sums[-1, going]
    if live.size:
        raise DomainError(f"1F1 series did not converge for a={a}, b={b}, z={flat[live[0]]}")
    return _shaped(out, zs)


def _asymptotic_tail(a: float, b: float, z):
    """S(z) with 1F1(a,b,z) ~ Gamma(b)/Gamma(a) e^z z^(a-b) S(z) as z -> +inf,
    elementwise over a float or array z > 0.

    S(z) = sum_n (b-a)_n (1-a)_n / (n! z^n) over n < int(z) + 2, stopped
    before the first term that does not shrink (the divergent tail), or after
    the first one below _EPS of the sum.
    """
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    out = np.empty(flat.size)
    live = np.arange(flat.size)
    last_n = flat.astype(int) + 1
    term = total = np.ones(flat.size)
    prev = np.full(flat.size, math.inf)
    for n in _term_blocks(last_n.max(initial=-1) + 1):
        if live.size == 0:
            break
        terms, sums = _running_sums((b - a + n) * (1.0 - a + n) / ((n + 1) * flat[live]), term, total)
        size = np.abs(terms)
        grew = size >= np.concatenate((prev[None], size[:-1]))
        stop = grew | (size <= _EPS * np.abs(sums[1:])) | (n == last_n[live])
        going = _settle(out, live, stop, sums, dropped=grew)
        live, term, total, prev = live[going], terms[-1, going], sums[-1, going], size[-1, going]
    return _shaped(out, zs)


def _check_r(r: float) -> None:
    if r > 1.5:
        raise DomainError(f"drift coefficient r must satisfy r <= 3/2, got {r}")


def w_asymptotic_constant(r: float) -> float:
    """C in w(y) ~ C y^(1-2r):  C = 4^r Gamma(3/2) / Gamma((3-2r)/2)."""
    _check_r(r)
    if r == 1.5:
        raise DomainError("r = 3/2 has a gaussian tail; no algebraic constant")
    return 4.0 ** r * math.gamma(1.5) / math.gamma(1.5 - r)


def _profile_args(r: float, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """After the domain checks: y as an array (the shape of the result), and
    y and z = y^2/4 flattened."""
    _check_r(r)
    ys = np.asarray(y, dtype=float)
    if not np.all((ys >= 0.0) & (ys < math.inf)):
        raise DomainError("w is defined on finite y >= 0")
    flat = ys.ravel()
    return ys, flat, 0.25 * flat * flat


def w_eval(r: float, y):
    """Self-similar profile w(y; r) for r <= 3/2, elementwise over a float or
    array y >= 0; a float y gives a float."""
    ys, y, z = _profile_args(r, y)
    if r == 1.5:
        return _shaped(y * _exp_neg(z), ys)
    a = 1.5 - r
    out = np.empty(y.size)
    lo = z < CROSSOVER_Z
    hi = ~lo
    out[lo] = y[lo] * _exp_neg(z[lo]) * kummer_1f1_series(a, 1.5, z[lo])
    # exp(-z) * 1F1 combined analytically: no overflow however large y gets
    out[hi] = (w_asymptotic_constant(r) * _pow(y[hi], 1.0 - 2.0 * r)
               * _asymptotic_tail(a, 1.5, z[hi]))
    return _shaped(out, ys)


def w_prime_eval(r: float, y):
    """w'(y; r), differentiating the product form, elementwise like w_eval;
    w'(0) = 1 exactly."""
    ys, y, z = _profile_args(r, y)
    if r == 1.5:
        return _shaped((1.0 - 2.0 * z) * _exp_neg(z), ys)
    a = 1.5 - r
    out = np.empty(y.size)
    lo = z < CROSSOVER_Z
    hi = ~lo
    zl = z[lo]
    psi = kummer_1f1_series(a, 1.5, zl)
    dpsi = (a / 1.5) * kummer_1f1_series(a + 1.0, 2.5, zl)
    out[lo] = _exp_neg(zl) * ((1.0 - 2.0 * zl) * psi + 2.0 * zl * dpsi)
    zh = z[hi]
    s0 = _asymptotic_tail(a, 1.5, zh)
    s1 = _asymptotic_tail(a + 1.0, 2.5, zh)
    bracket = s0 + 2.0 * zh * (s1 - s0)
    out[hi] = w_asymptotic_constant(r) * _pow(y[hi], -2.0 * r) * bracket
    return _shaped(out, ys)


def w_ode_oracle(r: float, y_max: float, n: int) -> GridFunction:
    """Classical 4th-order fixed-step integration of the w Cauchy problem on
    the grid y_i = i y_max / n.

    The equation is linear, so each RK4 step is a linear map of (w, w').  The
    n steps split into blocks of size = ceil(sqrt(n)) steps; at every block
    start the two basis states (1, 0) and (0, 1) are stepped together, all
    blocks at once as arrays, and the true state is carried from block to
    block by the 2x2 matrices of their end states.  The nodes of the last
    block past y_max are dropped.  This is the RK4 map of stepping node by
    node, so the error is the same O(h^4); the stored launches take O(n)
    memory and each step's temporaries O(sqrt(n)).  Independent of the
    hypergeometric evaluation path; used to certify w_eval.
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
    size = math.isqrt(n - 1) + 1
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
