"""Numerical certificates for the sub- and super-solution constructions.

Each sign check evaluates a closed-form residual on a (t, point) grid,
together with the magnitude of its terms.  _sign_scan, the one place that
judges a sign, divides the one by the other (a point whose terms all vanish
reads 0) and builds the report: the worst value, worst_at and a verdict with
SIGN_TOL = 1e-12 slack (near z = 0 the expressions vanish and raw rounding
noise would otherwise dominate).  Both psi checks share _psi_scan's grid and
differ only in their bracket.  The residual identity check, the one report
built elsewhere, cross-validates the closed forms against Richardson-refined
finite differences of the moving-frame ansatz functions.
"""

from __future__ import annotations

import math

import numpy as np

from . import heatkernel
from .errors import DomainError
from .frontfit import drift_target
from .heatkernel import VERIFY_TOL
from .report import VerificationReport
from .special import w_eval, w_prime_eval
from .waves import minimal_wave, phi_gamma

SIGN_TOL = 1e-12
SAFETY = 2.0
DELTA_SCAN_STEP = 1e-3

# psi checks: t in [t0, T_MAX] (geometric), y = z / sqrt t in [0, Y_MAX]
T_MAX = 1e6
Y_MAX = 50.0
PSI_GRID = (60, 200)
# shifted wave U(x - 2t + r ln(t + TW_T0)): t in [1, T_MAX], z in TW_Z_RANGE
TW_T0 = 1.0
TW_Z_RANGE = (-20.0, 40.0)
TW_GRID = (24, 160)
# boosted damped profile: t in [PHI_T_MIN, T_MAX], y = z / sqrt t in [1e-3, 2]
PHI_T_MIN = 10.0
PHI_GRID = (24, 120)
# critical checks: t up to CRITICAL_T_MAX, heat quadrature to heatkernel's VERIFY_TOL
CRITICAL_T_MAX = 1e8
CRITICAL_SUB_GRID = (10, 8)
CRITICAL_SUPER_GRID = (8, 8)


def psi_eval(r: float, r_prime: float, t, z):
    """psi(t, z) = e^{-z} t^{1/2 + r' - r} w(z / sqrt t), elementwise over
    floats or 1-d arrays t, z of one length, like w_eval.  A float goes
    through the same ufuncs as a one-element array, so each element of an
    array evaluation equals its one-point value."""
    ts, zs = np.atleast_1d(t).astype(float), np.atleast_1d(z).astype(float)
    if not np.all(ts > 0.0):
        raise DomainError("psi needs t > 0")
    if np.any(zs < 0.0):
        raise DomainError("psi is defined on z >= 0")
    psi = np.exp(-zs) * ts ** (0.5 + r_prime - r) * w_eval(r, zs / np.sqrt(ts))
    return float(psi[0]) if np.ndim(z) == 0 else psi


def _moving_frame_ansatz(r: float, r_prime: float):
    """u(t, x) = psi(t, x - 2t + r' ln t) over arrays; defined on z >= 0, so
    stencils must stay inside the support."""
    return lambda t, x: psi_eval(r, r_prime, t, x - 2.0 * t + r_prime * np.log(t))


def _linear_residual_fd(u, t, x, h_t, h_x):
    du_dt = (u(t + h_t, x) - u(t - h_t, x)) / (2.0 * h_t)
    mid = u(t, x)
    d2u = (u(t, x + h_x) - 2.0 * mid + u(t, x - h_x)) / (h_x * h_x)
    return du_dt - d2u - mid


def fd_residual(u, t, x, h_t, h_x):
    """Richardson-refined centered-difference evaluation of the parabolic
    operator on an ansatz u(t, x); elementwise, so t, x, h_t and h_x may be
    arrays of one shape when u takes and returns such arrays.  Callers must
    size h_t/h_x so the stencil stays inside the ansatz support (moving-frame
    supports depend on t)."""
    coarse = _linear_residual_fd(u, t, x, h_t, h_x)
    fine = _linear_residual_fd(u, t, x, 0.5 * h_t, 0.5 * h_x)
    return (4.0 * fine - coarse) / 3.0


# (t, z) samples of the residual identity, clear of t = 0 and z = 0
IDENTITY_SAMPLES = tuple(
    (t, z) for t in (2.5, 5.0, 10.0, 20.0, 50.0) for z in (0.5, 2.0, 5.0)
)


def check_linear_residual_identity(r: float, r_prime: float) -> VerificationReport:
    """Closed form of the linearized residual of the moving-frame ansatz,
        L u = r' e^{-z} t^{-(1 + r - r')} w'(z / sqrt t),
    against finite differences; relative mismatch must stay below 1e-4.
    Each stencil point is evaluated for all samples in one array call."""
    u = _moving_frame_ansatz(r, r_prime)
    t, z = np.array(IDENTITY_SAMPLES).T
    x = z + 2.0 * t - r_prime * np.log(t)
    closed = r_prime * np.exp(-z) * t ** -(1.0 + r - r_prime) * w_prime_eval(r, z / np.sqrt(t))
    # the t-stencil moves z at rate ~2 through the frame drift, so h_t is
    # sized to the z-scale (not to t) and kept clear of the z = 0 edge
    h_t = np.minimum(2.5e-3, z / 10.0)
    h_x = np.minimum(5e-3, z / 10.0)
    fd = fd_residual(u, t, x, h_t, h_x)
    scale = np.maximum(np.maximum(np.abs(closed), 1e-2 * np.abs(u(t, x))), 1e-300)
    worst = float(np.max(np.abs(fd - closed) / scale))
    return VerificationReport(
        name=f"linear_residual_identity_r{r:g}_rp{r_prime:g}",
        domain={"samples": len(IDENTITY_SAMPLES)},
        worst_signed_residual=0.0,
        closed_form_mismatch=worst,
        verdict="pass" if worst <= 1e-4 else "fail",
        details={"r": r, "r_prime": r_prime},
    )


def _scan_delta(r: float, threshold: float) -> float:
    """Largest y <= 1 with w' above `threshold` on [0, y), scanned at 1e-3."""
    ys = []
    y = DELTA_SCAN_STEP
    while y <= 1.0 + 1e-12:  # repeated addition: np.arange's i * step differs in the last bits
        ys.append(y)
        y += DELTA_SCAN_STEP
    below = np.nonzero(w_prime_eval(r, np.array(ys)) <= threshold)[0]
    first = int(below[0]) if below.size else len(ys)
    return ys[max(first - 1, 0)]


def _t_grid(t0: float, t_max: float, n_t: int) -> np.ndarray:
    if t_max <= t0:
        raise DomainError("empty t range")
    return np.geomspace(t0, t_max, n_t)


def _sign_scan(name: str, domain: dict, details: dict, ts, points, residual, sense: str):
    """The report of a sign condition over a (t, point) grid: the one place
    a sign is judged.  residual is the pair (value, magnitude) of the
    residual and the sum of its terms' magnitudes, broadcasting to one row per
    t in ts; the scan judges value / max(magnitude, 1e-300), so a point whose
    terms all vanish reads 0.  points is 1-d when every t shares them, else
    one row per t.  sense "super" asks residual >= 0 (the worst is the
    minimum), "sub" asks <= 0 (the maximum).  worst_at, the first (t, point)
    in row order attaining the worst, is appended as the last key of details;
    the verdict allows SIGN_TOL of the wrong sign.  A NaN is the worst at its
    first (t, point) and fails, as no comparison with NaN holds."""
    value, magnitude = residual
    flip = 1.0 if sense == "super" else -1.0  # the worst is the minimum of flip * residual
    flipped = flip * (value / np.maximum(magnitude, 1e-300))
    # argmin takes the first minimum in row order, or the first NaN
    i, j = np.unravel_index(np.argmin(flipped), flipped.shape)
    worst = float(flipped[i, j])
    worst_at = (float(ts[i]), float(np.broadcast_to(points, flipped.shape)[i, j]))
    return VerificationReport(name=name, domain=domain, worst_signed_residual=flip * worst,
                              verdict="pass" if worst >= -SIGN_TOL else "fail",
                              details={**details, "worst_at": worst_at})


def _psi_scan(r: float, consts: dict, sense: str, bracket) -> VerificationReport:
    """Sign scan of a psi bracket on PSI_GRID: t geometric in [t0, T_MAX],
    y = z / sqrt t in [0, Y_MAX].  bracket(sqrt_t, y, w, w') returns the
    bracket and the sum of its terms' magnitudes, _sign_scan's residual pair;
    sqrt_t is a column, so both broadcast to one row per t."""
    n_t, n_y = PSI_GRID
    t0 = consts["t0"]
    ys = np.linspace(0.0, Y_MAX, n_y)
    ts = _t_grid(t0, T_MAX, n_t)
    with np.errstate(under="ignore"):  # e^{-z} terms underflow to 0 far out
        residual = bracket(np.sqrt(ts)[:, None], ys, w_eval(r, ys), w_prime_eval(r, ys))
    domain = {"t": f"[{t0:g}, {T_MAX:g}]", "y": f"[0, {Y_MAX:g}]", "grid": f"{n_t}x{n_y}"}
    return _sign_scan(f"psi_{sense}_r{r:g}", domain, consts, ts, ys, residual, sense)


def supersolution_constants(r: float) -> dict:
    """Admissible (delta, M, t0) for the delayed-frame super-solution."""
    if r <= 0.0:
        return {"r": r, "r_prime": 0.0, "delta": math.nan, "M": 0.0, "t0": 4.0}
    delta = _scan_delta(r, 0.0)
    ys = np.arange(delta, Y_MAX + 1e-9, 1e-2)
    ratio = float(np.max(2.0 * r * np.abs(w_prime_eval(r, ys)) / w_eval(r, ys)))
    M = SAFETY * ratio
    t0 = max((2.0 * M) ** 2, 4.0)
    return {"r": r, "r_prime": r, "delta": delta, "M": M, "t0": t0}


def check_supersolution(r: float) -> VerificationReport:
    """Sign certificate for the bracket
        (1 - M/sqrt t) r' w'(y) + (M/2) w(y),  y = z / sqrt t,
    which must be >= 0 for the damped psi ansatz to be a super-solution.
    For r <= 0 the constants r' = 0, M = 0 make the bracket identically 0:
    the report reads 0 and shows no margin, by construction."""
    consts = supersolution_constants(r)
    r_prime, M = consts["r_prime"], consts["M"]
    return _psi_scan(r, consts, "super", lambda sqrt_t, y, w, wp: (
        (1.0 - M / sqrt_t) * r_prime * wp + 0.5 * M * w,
        abs(r_prime) * np.abs(wp) + 0.5 * M * w,
    ))


def subsolution_constants(r: float) -> dict:
    """Admissible (delta, M, epsilon, t0) for the fast-decaying sub-solution."""
    r_prime = r - 2.0
    delta = _scan_delta(r, 0.5)
    k = 1.0 - 2.0 * r
    ys = np.arange(delta, Y_MAX + 1e-9, 1e-2)
    w_vals = w_eval(r, ys)
    wp_vals = w_prime_eval(r, ys)
    m_quoted = max(
        float(np.max(8.0 * abs(r_prime) * np.abs(wp_vals) / w_vals)),
        float(np.max(w_vals / ys**k)),
    )
    M = SAFETY * m_quoted
    ys0 = np.arange(0.0, delta + 1e-12, DELTA_SCAN_STEP)
    w2max = float(np.max(w_eval(r, ys0))) ** 2
    eps_bound = -r_prime / (2.0 * (1.0 + M) * w2max)
    eps = 0.5 * eps_bound
    w_max = float(np.max(w_vals))
    t_tail = (max(0.0, math.log(32.0 * eps * w_max / M)) / delta) ** 2
    t0 = max(M * M, 4.0, t_tail)
    return {
        "r": r, "r_prime": r_prime, "delta": delta, "M": M,
        "epsilon": eps, "epsilon_bound": eps_bound, "t0": t0,
    }


def check_subsolution(r: float) -> VerificationReport:
    """Sign certificate for the braced sub-solution expression
        -(M/2) w + (1 + M/sqrt t) [ r' w' + (1 + M/sqrt t) eps e^{-z} w^2 ],
    z = y sqrt t, which must be <= 0.  The scan does not see the epsilon
    bound: epsilon many times its bound still passes it, so the bound holds
    only by construction (subsolution_constants sets epsilon to half of it)."""
    consts = subsolution_constants(r)
    r_prime, M, eps = consts["r_prime"], consts["M"], consts["epsilon"]

    def bracket(sqrt_t, y, w, wp):
        damp = 1.0 + M / sqrt_t
        quad_term = damp * eps * np.exp(-y * sqrt_t) * w**2
        return (-0.5 * M * w + damp * (r_prime * wp + quad_term),
                0.5 * M * w + damp * (abs(r_prime) * np.abs(wp) + quad_term))

    return _psi_scan(r, consts, "sub", bracket)


def check_tw_shift(k: float) -> VerificationReport:
    """Residual of the log-shifted wave U(x - 2t + r ln(t + t0)):
        L v = (r / (t + t0)) U'(z).
    Super-solution for k >= 1 (r <= 0), sub-solution for k <= 1 (r >= 0).

    The residual is normalized by its own magnitude, so each sample reads
    -1, 0 or +1 and the worst signed residual is one of these by
    construction: the verdict is the sign of r U'(z) on the grid, and the
    report shows no margin.  All samples tie, so worst_at is the first one,
    (1, lowest z), by construction."""
    r = drift_target(k)
    wave = minimal_wave()
    n_t, n_z = TW_GRID
    zs = np.linspace(max(TW_Z_RANGE[0], wave.z0), min(TW_Z_RANGE[1], wave.z_max), n_z)
    du = wave.derivative(zs)
    ts = _t_grid(1.0, T_MAX, n_t)
    rate = r / (ts[:, None] + TW_T0)
    # at k = 1 (r = 0) the residual is identically zero and either sense reads
    # 0; the explicit zeros keep the sign off -0
    if r != 0.0:
        residual = (rate * du, np.abs(rate) * np.abs(du))
    else:
        residual = (np.zeros((n_t, n_z)), 1.0)
    kind = "super" if k > 1.0 else "sub" if k < 1.0 else "both"
    return _sign_scan(
        f"tw_shift_k{k:g}",
        {"t": f"[1, {T_MAX:g}]", "z": f"[{zs[0]:g}, {zs[-1]:g}]", "grid": f"{n_t}x{n_z}"},
        {"k": k, "r": r, "t0": TW_T0, "acts_as": kind},
        ts, zs, residual, "super" if k > 1.0 else "sub",
    )


def check_phi_eta_sub(r: float) -> VerificationReport:
    """Sign certificate for the boosted profile e^{eta z / sqrt t} phi(z) on
    z in (0, 2 sqrt t]:
        (-eta^2 - r)/t + (e^{eta z / sqrt t} - gamma) phi(z) <= 0
    with eta = sqrt(-r), gamma = e^{2 eta}; also checks the positive gluing
    angle at z = 0 (min_gluing_slope).  Normalized by its own magnitude, every
    sample reads -1 but y = 2, where e^{2 eta} = gamma gives an exact 0: the
    scan reads 0 and shows no margin, by construction; only a gluing slope
    that is not positive can fail the verdict."""
    if not r < 0.0:
        raise DomainError("phi_eta_sub requires r < 0")
    eta = math.sqrt(-r)
    # computed through the same exp as the grid factor so the z = 2 sqrt t
    # saturation point evaluates to an exact zero
    gamma = float(np.exp(2.0 * eta))
    phi = phi_gamma(gamma)
    n_t, n_y = PHI_GRID
    ts = _t_grid(PHI_T_MIN, T_MAX, n_t)
    ys = np.linspace(1e-3, 2.0, n_y)  # y = z / sqrt t, domain cap z <= 2 sqrt t
    boost = np.exp(eta * ys)
    zs = ys * np.sqrt(ts)[:, None]
    phis = phi(zs)
    # the 1/t drift term is (-eta^2 - r)/t = 0 by the construction eta = sqrt(-r)
    residual = ((boost - gamma) * phis, (gamma - boost) * phis)
    phi0, dphi0 = phi(0.0), phi.derivative(0.0)
    min_glue = min((eta / math.sqrt(t)) * phi0 + dphi0 for t in ts)
    report = _sign_scan(
        f"phi_eta_sub_r{r:g}",
        {"t": f"[{PHI_T_MIN:g}, {T_MAX:g}]", "z": "(0, 2 sqrt t]", "grid": f"{n_t}x{n_y}"},
        {"r": r, "eta": eta, "gamma": gamma, "min_gluing_slope": min_glue},
        ts, zs, residual, "sub",
    )
    if not min_glue > 0.0:
        report.verdict = "fail"
    return report


def critical_sub_constants() -> dict:
    """Auto-size M = 8 sup e^{-z} v (t+1)^{5/4} and pick delta with
    delta (1+M)^2 = 1/2."""
    ts = np.geomspace(1.0, 1e8, 9)[:, None]
    zs = np.array([0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    v = heatkernel.v_dirichlet(ts, zs, VERIFY_TOL).value
    sup = max(0.0, float(np.max(np.exp(-zs) * v * (ts + 1.0) ** 1.25)))
    M = 8.0 * sup
    delta = 0.5 / (1.0 + M) ** 2
    return {"M": M, "delta": delta, "sup_weighted_v": sup}


def check_critical_sub() -> VerificationReport:
    """Critical-case sub-solution bracket
        e^{-z} v(t, z) - M / (4 (t+1)^{5/4}) <= 0.
    The side condition delta (1 + M)^2 < 1 holds by construction:
    critical_sub_constants sets the product to 1/2."""
    consts = critical_sub_constants()
    M, delta = consts["M"], consts["delta"]
    n_t, n_z = CRITICAL_SUB_GRID
    ts = _t_grid(1.0, CRITICAL_T_MAX, n_t)
    zs = np.array([np.geomspace(0.05, max(3.0 * math.log(t + 3.0), 8.0), n_z) for t in ts])
    lead = np.exp(-zs) * heatkernel.v_dirichlet(ts[:, None], zs, VERIFY_TOL).value
    damp = M / (4.0 * (ts[:, None] + 1.0) ** 1.25)
    domain = {"t": f"[1, {CRITICAL_T_MAX:g}]", "z": "(0, 3 ln t]", "grid": f"{n_t}x{n_z}"}
    return _sign_scan("dirichlet_sub_critical", domain, {"M": M, "delta": delta},
                      ts, zs, (lead - damp, lead + damp), "sub")


def check_critical_super() -> VerificationReport:
    """Critical-case super-solution residual
        (3/(2t) - 1/(t ln t)) dx v + (M / (4 t^{5/4})) (1 - M/t^{1/4})^{-1} v >= 0
    on t in [t0, CRITICAL_T_MAX], with M sized from the empirical
    gradient-bound constant."""
    M = 8.0 * heatkernel.gradient_bound_constant()[0]
    t0 = max((2.0 * M) ** 4, 1e3)
    n_t, n_y = CRITICAL_SUPER_GRID
    ts = _t_grid(t0, CRITICAL_T_MAX, n_t)
    zs = np.linspace(0.1, 2.0, n_y) * np.sqrt(ts)[:, None]
    t = ts[:, None]
    v = heatkernel.v_dirichlet(t, zs, VERIFY_TOL).value
    dv = heatkernel.v_dirichlet_dx(t, zs, np.maximum(VERIFY_TOL, np.abs(v) * 1e-7)).value
    a = (1.5 / t - 1.0 / (t * np.log(t))) * dv
    b = (M / (4.0 * t**1.25)) / (1.0 - M / t**0.25) * v
    domain = {"t": f"[{t0:g}, {CRITICAL_T_MAX:g}]", "z": "y sqrt(t), y in [0.1, 2]",
              "grid": f"{n_t}x{n_y}"}
    return _sign_scan("dirichlet_super_critical", domain, {"M": M, "t0": t0},
                      ts, zs, (a + b, np.abs(a) + np.abs(b)), "super")
