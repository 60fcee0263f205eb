"""Fisher-KPP time stepping in the frame moving at the spreading speed 2.

The equation in the co-moving coordinate xi = x - 2t reads

    u_t = u_xixi + 2 u_xi + u(1 - u).

Weighted field.  The stepper evolves ub := e^{xi} u, in which the equation
is pure diffusion plus a quadratic sink,

    ub_t = ub_xixi - e^{-xi} ub^2.

The drift measurements feed on tail structure out to xi = O(sqrt(t)); by
t = 1e5 that reaches xi ~ 800, where u ~ e^{-800} underflows doubles and any
scheme storing u would silently zero the physics behind the critical-case
double-log term.  The weighted field stays polynomial-sized there.

Grid.  Uniform dxi on [xi_min, XI_GRADE] (up to the node nearest
min(xi_max, XI_GRADE)), where the front and every level set live.  Past it,
where u < 1e-20 and the equation is the heat equation ub_t = ub_xixi, whose
solution varies on the scale sqrt(t), each cell is 1 + GRADE times the last,
out to the first node at or past xi_max: 2,510 nodes instead of 6,644 on the
t = 5000 grid, 1,327 instead of 10,688 on the critical grid.  Smoothly
stretched three-point grids stay second order (Kalnay de Rivas, J. Comput.
Phys. 10, 1972).  Snapshots, level extraction and the wave distance read the
uniform part only: a level whose crossing lies past it is not attained.

Stencil.  ub_xixi is discretized in flux form,

    m_i (D ub)_i = k+ (ub+ - ub_i) - k- (ub_i - ub-),

with row weight m_i = (h- + h+) / (2 dxi) over the cells h- and h+ beside
node i.  A uniform cell conducts k = 1 / (rho dxi^2), rho = 2(cosh dxi - 1)
/ dxi^2: on the uniform part m = 1 and D is the symmetric (1, -2, 1) /
(rho dxi^2), exact on constants in ub (the marginal mode u = e^{-xi}) and on
ub = e^{xi} (the invaded state u = 1).  A graded cell of length h conducts
the plain k = 1 / (h dxi): weights fitted to e^{xi} would divide smooth
diffusion by (2 sinh(h/2) / h)^2, about 100 at h = 9.  So the stencil is
exact on the marginal mode at every node, and u = 0 is a discrete
equilibrium for any dt.  u = 1 is an equilibrium only on the uniform part,
and only where dt e^{-xi} is a normal double (xi below about 708.4 + ln dt;
set_dt flushes it to 0 beyond).  Plain centered
differences in u bias the front speed by dxi^2/4, which is fatal to the
log-law fits (see the refinement evidence in the tests).

Step.  Both kernels solve one equation for the new interior state v,

    A v + s v^2 = M ub + (boundary terms) =: b,  s = dt m e^{-xi},

on the interior matrix A = M + dt K, with M = diag(m), K the conductance
matrix (M D = -K), and the two end nodes held as Dirichlet data.  Their
values are moved to the right-hand side (dt k ub_0 and dt k ub_{n-1} join
the first and last interior rows), which leaves a symmetric tridiagonal A
with diagonal m_i + dt (k- + k+) and off-diagonal -dt k; on the uniform part
it is tridiag(-off, 1 + 2 off, -off), off = dt / (rho dxi^2).  It is
strictly diagonally dominant (row sums m_i) with positive diagonal, hence
positive definite and an M-matrix.  Up to dt = DT_MAX a step is IMEX, the
sink taken at the old state: A v = M ub - s ub^2 + (boundary terms), with A
factored as L D L^T (LAPACK dpttrf, in Stepper._factor, the one routine
that factors for both kernels) once per step size and each step one dpttrs
solve.  Past DT_MAX it is backward Euler, F(v) := A v + s v^2 = b solved by
Newton (below).  Stepper.set_dt decides the kernel once per step size.

Reaction bound.  The explicit sink acts node by node as ub -> m ub - s ub^2
= m (ub - dt e^{-xi} ub^2), with derivative m (1 - 2 dt u).  It is monotone
exactly when dt * max u <= 1/2, i.e. for states in [0, 1] when dt <= 1/2.
DT_MAX = 1/2 is that bound: no IMEX step exceeds it.  An IMEX step is the
composition of two monotone maps (A^{-1} is entrywise nonnegative).  The
backward-Euler map needs no bound: F is an M-function on v >= 0 (an
M-matrix plus a diagonal map isotone in each v_i), and the inverse of an
M-function is isotone at every dt (Ortega & Rheinboldt, Iterative Solution
of Nonlinear Equations in Several Variables, 13.5), while b is isotone in
ub.  So ordered states stay ordered to rounding (the
discrete comparison principle) at every step of either kernel.

Newton.  The iteration from v_0 (simulate's predictor, or ub) solves
J(v_k) v_{k+1} = b + s v_k^2 with J(v) = A + 2 diag(s v): one dpttrf and
one dpttrs per iteration, with J an M-matrix for v >= 0.  F is convex, so
the error e_k = v_k - ub+ obeys e_{k+1} = J(v_k)^{-1} (s e_k^2) >= 0
exactly: from the first iteration on the iterates lie above the solution
and fall to it.  With e_u = e^{-xi} e the error in u units, s e_k^2 =
M (dt e_u e_k), and J^{-1} M is nonnegative with row sums at most 1, so
|e_{k+1}| <= dt max|e_u,k| max|e_k|: quadratic convergence with constant dt.
The iteration stops once the last correction v_{k+1} - v_k, which estimates
e_k, is at most NEWTON_TOL = 1e-7 in u units; what is left is about
dt * 1e-14 in u units, far below every trace's resolution.  A stop at
rounding level (1e-15) cannot be met: the correction stalls at the
rounding of the solve.  Reaching NEWTON_MAX_ITER iterations, a dpttrf
failure or a NaN raises NumericsError.

Step schedule.  The drift laws are laws in ln t, so simulate spends about
the same work on each decade of t.  The output times (the trace ladder
1.2^j < t_end, then t_end and every snapshot time) are hit exactly.  On each
output interval [t_a, t_b] the target step is h = max(config.dt,
DT_GROWTH t_a) while that is at most DT_MAX: config.dt up to
t = config.dt / DT_GROWTH, then growing like t, IMEX throughout.  Past
t = DT_MAX / DT_GROWTH = 500 it is h = NEWTON_GROWTH t_a, backward Euler.
The interval takes the fewest equal steps no longer than h,
n = ceil((t_b - t_a) / h) (one more if an IMEX step would pass DT_MAX), and
the kernel is prepared once per interval (Stepper.set_dt).  On an
interval longer than h the steps lie in (h/2, h]; one shorter than h (a
snapshot time or t_end next to a ladder time) takes one step of its own
length.  So a step can be shorter than config.dt: the critical fixture's
smallest is 0.08 at dt = 0.1.  A scheme that preserves positivity at every
dt is at most first order (Bolley & Crouzeix, RAIRO 1978), so the
schedule, not the order, is where the work is saved.

Range guard.  After each step u must lie in [-OVERSHOOT_TOL,
1 + OVERSHOOT_TOL]; anything else, NaN and inf included, raises
NumericsError.  A step from a valid state (u in [0, 1], ub <= e^{xi_J} past
the last uniform node xi_J) needs no clip.  IMEX: the sink leaves at least
half of each node's value (dt u <= 1/2) and dpttrs's recurrences only add
nonnegative terms (the factor's off-diagonal is negative), so no output is
negative.  Backward Euler: F(0) = 0 and b >= 0, so the isotone inverse
gives ub+ >= 0, and Newton stops above the solution.  The upper barrier is
B = min(e^{xi}, e^{xi_J}): left of xi_J it is e^{xi}, on which the uniform
stencil is exact, (I - dt D) e^{xi} = (1 - dt) e^{xi}, so the IMEX step maps
it to itself and F(e^{xi}) = (1 - dt) e^{xi} + dt e^{xi} = M e^{xi}; from
xi_J on it is a constant, on which every stencil is exact and the sink only
lowers it; the min only lowers the neighbours, and the IMEX sink is
increasing on [0, B].  So B is a discrete supersolution of both kernels,
u = 0 and u = 1 on the uniform part are equilibria of both at every dt, and
ub <= B stays true to rounding (plus Newton's dt * 1e-14): u exceeds 1 only
by rounding.  SimConfig rejects data above B, ln A + k ln xi > xi_J at a
graded node.  e^{xi} itself is no barrier on the graded cells: for
h+ >= h- the second difference of e^{xi} is at least e^{xi} (at least
1.0027 e^{xi} on the critical grid), so u = 1 there grows and trips the
guard.  A front's tail, ub ~ A xi^k, lies far below e^{xi_J}.  Past
xi ~ 708.4 + ln dt, where dt e^{-xi} is flushed to 0, the sink is gone and
e^{xi} is no barrier (u = 1 grows there); on the default grids those nodes
are all graded, where the barrier is the constant e^{xi_J}.  Only beyond
CLAMP_ALLOWANCE is u clipped back to [0, 1], the whole array, and each
node's overshoot beyond it added to Stepper.clamp_total.

Initial datum.  The front-like datum u0 ~ A xi^k e^{-xi} is defined once,
as L = ln(e^{xi} u0) built in weighted log space (_log_front_data).  The
stepper starts from exp(L) at every node (init_front_data_weighted), and the
t = 0 snapshot is exp(L - xi) on the uniform part (init_front_data), which
reads exactly 1 on xi <= 0.

simulate returns plain u (snapshots, and the traces extract_level reads off
them); Stepper.step_values takes one step of a plain-u state.

dpttrf and dpttrs are imported from scipy.linalg.lapack in Stepper.__init__
and bound on the instance, so importing this module loads no scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import DomainError, LevelNotAttainedError, NumericsError
from .grid import GridFunction
from .io import load_key_value_config

log = logging.getLogger(__name__)

# Largest IMEX step: the explicit sink is monotone exactly up to dt = 1/2 (see
# the reaction bound above); longer steps are backward Euler.
DT_MAX = 0.5
# Growth rates of the step schedule: the target step is DT_GROWTH * t up to
# DT_MAX, and NEWTON_GROWTH * t past it.
DT_GROWTH = 1e-3
NEWTON_GROWTH = 5e-3
# Newton stop: the last correction at most NEWTON_TOL in u units, within
# NEWTON_MAX_ITER iterations.
NEWTON_TOL = 1e-7
NEWTON_MAX_ITER = 20
# Out-of-range guard before clamping.
OVERSHOOT_TOL = 1e-9
# Rounding allowance in u: the range guard clips and counts only beyond it; the
# |xi| ulp of rounding in xi keeps u = 1 (ub = e^{xi}) well inside for |xi| <= 745.
CLAMP_ALLOWANCE = 1e-12
# Width coefficient of the diffusive zone the domain must contain.
FAR_ZONE_COEFF = 3.0
# Far-field grid: uniform dxi up to XI_GRADE, then each cell 1 + GRADE times
# the last out to xi_max, where u < 1e-20 and the equation is the heat equation.
XI_GRADE = 60.0
GRADE = 0.05
TRACE_TIME_FACTOR = 1.2


@dataclass(frozen=True)
class SimConfig:
    """Run parameters; defaults resolve the e^{-xi} tail over the whole domain.

    dt is the initial step: the floor of the step schedule's target step
    h (module docstring), which stays dt until DT_GROWTH t exceeds it.  A
    step taken can be shorter than dt: in (h/2, h], or a whole short interval.
    """

    k: float
    amplitude: float = 1.0
    xi_min: float = -60.0
    xi_max: float | None = None
    dxi: float = 0.05
    dt: float = 0.01
    t_end: float = 1000.0
    levels: tuple[float, ...] = (0.5,)
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.k < -2.0:
            raise DomainError(f"k must be >= -2, got {self.k}")
        if not self.amplitude > 0.0:
            raise DomainError("amplitude must be positive")
        if self.xi_max is None:
            object.__setattr__(
                self, "xi_max", FAR_ZONE_COEFF * math.sqrt(self.t_end) + 60.0
            )
        # NaN and inf would slip through the range tests below
        bad = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)
               if not np.all(np.isfinite(getattr(self, f.name)))]
        if bad:
            raise DomainError(f"config values must be finite: {', '.join(bad)}")
        far_zone = FAR_ZONE_COEFF * math.sqrt(self.t_end) + 20.0
        if self.xi_max < far_zone:
            raise DomainError(
                f"xi_max too small: need the O(sqrt(t)) far-away zone, xi_max >= {far_zone:.1f}"
            )
        if self.xi_min > -20.0:
            raise DomainError("xi_min must be <= -20")
        if not 0.0 < self.dt <= DT_MAX:
            raise DomainError(f"dt must lie in (0, {DT_MAX}], the sink's monotonicity bound")
        if not 0.0 < self.dxi <= 0.2:
            raise DomainError("dxi must lie in (0, 0.2]")
        if not self.t_end > 0.0:
            raise DomainError("t_end must be positive")
        for m in self.levels:
            if not 0.0 < m < 1.0:
                raise DomainError(f"levels must lie in (0, 1), got {m}")
        levels = tuple(sorted(set(float(m) for m in self.levels)))
        object.__setattr__(self, "levels", levels)
        snaps = tuple(sorted(set(float(t) for t in self.snapshot_times)))
        if any(not 0.0 <= t <= self.t_end for t in snaps):
            raise DomainError("snapshot times must lie in [0, t_end]")
        object.__setattr__(self, "snapshot_times", snaps)
        # the range guard's barrier min(e^{xi}, e^{xi_J}) must bound the datum,
        # ln A + k ln xi on the graded nodes (capped at xi, a cap the datum of
        # A = tiny stays below wherever a normal A is admissible)
        xi, n, tiny = self.nodes(), self.n_uniform, np.finfo(float).tiny
        k_ln_xi = np.max(_log_front_data(self.k, tiny, xi[n:]), initial=-math.inf) - math.log(tiny)
        ln_a_max = xi[n - 1] - k_ln_xi
        if math.log(self.amplitude) > ln_a_max:
            raise DomainError(
                f"amplitude too large for the graded cells: ln A = {math.log(self.amplitude):.4g}"
                f" exceeds {ln_a_max:.3f} = xi_J - max k ln xi over the graded nodes"
                f" (xi_J = {xi[n - 1]:.4g}, the last uniform node)"
            )

    @property
    def n_uniform(self) -> int:
        """Nodes xi_min + dxi i of the uniform part, up to the node nearest
        min(xi_max, XI_GRADE)."""
        return int(round((min(self.xi_max, XI_GRADE) - self.xi_min) / self.dxi)) + 1

    def nodes(self) -> np.ndarray:
        """The stepped nodes: the uniform part, then, if xi_max lies past
        XI_GRADE, cells of (1 + GRADE)^j dxi, j = 1, 2, ..., up to the first
        node at or past xi_max."""
        xi = self.xi_min + self.dxi * np.arange(self.n_uniform)
        far = []
        x, h = xi[-1], self.dxi
        while self.xi_max > XI_GRADE and x < self.xi_max:
            h *= 1.0 + GRADE
            x += h
            far.append(x)
        return np.concatenate((xi, far))

    @property
    def n_nodes(self) -> int:
        return self.nodes().size


@dataclass
class FrontTrace:
    """Level-set positions x_m(t) in the original frame x = xi + 2t."""

    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)

    def delays(self) -> np.ndarray:
        """d(t) = 2t - x_m(t), the drift behind the unit-speed-2 ray."""
        return 2.0 * self.times - self.positions


@dataclass
class SimResult:
    config: SimConfig
    traces: dict[float, FrontTrace]
    snapshots: dict[float, GridFunction]
    clamp_total: float
    boundary_alarm: bool
    n_steps: int
    dt_min: float
    dt_max: float
    newton_iterations: int  # over all backward-Euler steps
    newton_iterations_max: int  # of one step


def _stencil_rho(h: float) -> float:
    """rho = 2 (cosh h - 1) / h^2, the weight that makes the symmetric stencil
    exact on e^{xi} and e^{-xi}.  Written as (2 sinh(h/2) / h)^2: cosh h - 1
    loses about 3e-14 relative to cancellation at h = 0.05, an error that
    tilts the discrete u = 1 equilibrium and can make the range guard clamp
    on every step."""
    return (2.0 * math.sinh(0.5 * h) / h) ** 2


class Stepper:
    """Stepper on a fixed grid.  Each step solves A v + s v^2 = M ub +
    (boundary terms) with the one sink s = dt m e^{-xi}: IMEX (s v^2 taken
    at ub) up to DT_MAX on a matrix factored once per step size, backward
    Euler by Newton past it; set_dt decides which (module docstring).

    Holds no solution state between steps: step_weighted returns a new array
    and leaves its input untouched.  It does keep scratch arrays, so one
    instance serves one thread at a time.  Its steps run under the caller's
    numpy error settings: numpy's default ignores the underflow of tail
    values, and simulate ignores it for the whole run.
    """

    def __init__(self, n: int, dxi: float, dt: float, xi0: float = 0.0, far=()):
        """n uniform nodes xi0 + dxi i, then the increasing nodes `far`."""
        if n < 3:
            raise DomainError(f"need at least 3 nodes, got {n}")
        # here, not at module level: scipy.linalg is most of the package's
        # import time, which every CLI command pays (CHANGES.md)
        from scipy.linalg.lapack import dpttrf, dpttrs

        self._dpttrf = dpttrf
        self._dpttrs = dpttrs
        self.xi = np.concatenate((xi0 + dxi * np.arange(n), far))
        self.n = self.xi.size
        h = np.diff(self.xi[n - 1:])  # graded cell lengths
        if not np.all(h > 0.0):
            raise DomainError("far nodes must increase past the uniform part")
        with np.errstate(under="ignore"):
            self._weight_down = np.exp(-self.xi)  # u = weight_down * ub
        # 0 beyond xi ~ 708.4 rather than subnormal: every multiply through a
        # subnormal operand runs several times slower
        self._weight_down[self._weight_down < np.finfo(float).tiny] = 0.0
        with np.errstate(over="ignore"):
            self._ceiling = np.exp(self.xi)  # ub image of u = 1; inf far right is fine for clip
        # flux form: conductance of each cell, rho-fitted on the uniform part
        self._k = np.concatenate((np.full(n - 1, 1.0 / (_stencil_rho(dxi) * dxi * dxi)),
                                  1.0 / (h * dxi)))
        # row weights (h- + h+) / (2 dxi) of the interior rows: exactly 1 on the
        # uniform rows, above 1 from the last uniform node on
        cells = np.concatenate(([dxi], h))
        self._m = np.concatenate((np.ones(n - 2), (cells[:-1] + cells[1:]) / (2.0 * dxi)))
        self._s = np.empty(self.n - 2)  # interior sink dt m e^{-xi}
        self._u = np.empty(self.n)  # plain-u image for the range guard
        self.clamp_total = 0.0
        self.newton_iterations = 0
        self.newton_iterations_max = 0
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        """Set the step size, any finite dt > 0: build A's diagonal and
        off-diagonal and the sink s = dt m e^{-xi}, and decide the kernel:
        backward Euler past DT_MAX, else IMEX on A factored here."""
        if not 0.0 < dt < math.inf:
            raise DomainError(f"dt must be finite and positive, got {dt}")
        self.dt = dt
        self._implicit = dt > DT_MAX
        off = dt * self._k
        self._off_first, self._off_last = off[0], off[-1]
        with np.errstate(under="ignore"):
            np.multiply(self._weight_down[1:-1], dt, out=self._s)
        self._s[self._s < np.finfo(float).tiny] = 0.0  # not subnormal, as _weight_down
        self._s *= self._m  # m >= 1: s stays normal or 0
        self._a_diag = self._m + (off[:-1] + off[1:])
        self._a_off = -off[1:-1]
        if not self._implicit:
            self._diag, self._sub = self._factor(self._a_diag)

    def _factor(self, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L D L^T (dpttrf), as new arrays, of A with its diagonal replaced by diag."""
        d, e, info = self._dpttrf(diag, self._a_off)
        if info != 0:
            raise NumericsError(f"matrix not positive definite (dpttrf info={info})")
        return d, e

    def to_weighted(self, u: np.ndarray) -> np.ndarray:
        # zero stays zero even where e^{xi} has overflowed to inf
        with np.errstate(over="ignore", invalid="ignore"):
            out = u * self._ceiling
        out[u == 0.0] = 0.0
        return out

    def to_linear(self, ub: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return ub * self._weight_down

    def step_weighted(self, ub: np.ndarray, guess: np.ndarray | None = None) -> np.ndarray:
        """One step of size dt from the weighted state ub, as a new array, by
        the kernel set_dt decided: IMEX, or backward Euler with Newton started
        from guess (a nonnegative predictor of the result) or else from ub."""
        out = np.empty(self.n)
        out[0], out[-1] = ub[0], ub[-1]
        rhs = out[1:-1]  # built and solved in place
        inner = ub[1:-1]
        np.multiply(inner, self._m, out=rhs)  # M ub
        if not self._implicit:  # the explicit sink s ub^2, in the range guard's scratch
            sink = np.multiply(self._s, inner, out=self._u[1:-1])
            sink *= inner
            rhs -= sink
        rhs[0] += self._off_first * ub[0]
        rhs[-1] += self._off_last * ub[-1]
        if self._implicit:
            rhs[:] = self._newton(rhs, inner if guess is None else guess[1:-1])
        else:
            self._dpttrs(self._diag, self._sub, rhs, overwrite_b=True)
        u_view = np.multiply(out, self._weight_down, out=self._u)
        lo, hi = float(np.minimum.reduce(u_view)), float(np.maximum.reduce(u_view))
        # negated in-range test: a NaN anywhere fails it
        if not (lo >= -OVERSHOOT_TOL and hi <= 1.0 + OVERSHOOT_TOL):
            raise NumericsError(
                f"instability: values reached [{lo:.3e}, {hi:.3e}] outside [0, 1]"
            )
        if lo < -CLAMP_ALLOWANCE or hi > 1.0 + CLAMP_ALLOWANCE:
            # real overshoot: a step from a valid state never gets here
            clipped = np.clip(out, 0.0, self._ceiling)
            with np.errstate(under="ignore"):
                excess = np.abs((out - clipped) * self._weight_down) - CLAMP_ALLOWANCE
            self.clamp_total += float(excess[excess > 0.0].sum())
            return clipped
        return out

    def _newton(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Interior solution of A v + s v^2 = b by Newton from v >= 0 (the
        stop rule and its error bound are in the module docstring)."""
        weight = self._weight_down[1:-1]
        for count in range(1, NEWTON_MAX_ITER + 1):
            d = self._s * v
            x = d * v
            x += b
            d *= 2.0
            d += self._a_diag  # J's diagonal
            x = self._dpttrs(*self._factor(d), x, overwrite_b=True)[0]
            d = np.subtract(x, v, out=d)  # the correction, in u units below
            d *= weight
            correction = max(float(np.maximum.reduce(d)), -float(np.minimum.reduce(d)))
            v = x
            if correction <= NEWTON_TOL:
                break
            if correction != correction:
                raise NumericsError("instability: NaN in the Newton iteration")
        else:
            raise NumericsError(
                f"Newton did not converge in {NEWTON_MAX_ITER} iterations at dt = {self.dt:g}: "
                f"last correction {correction:.3e} in u units"
            )
        self.newton_iterations += count
        self.newton_iterations_max = max(self.newton_iterations_max, count)
        return v

    def step_values(self, u: np.ndarray) -> np.ndarray:
        """One step in plain-u terms (converts at both ends; tail values that
        underflow u-representation stay zero)."""
        return self.to_linear(self.step_weighted(self.to_weighted(u)))


def _log_front_data(k: float, amplitude: float, xi) -> np.ndarray:
    """L = ln(e^{xi} u0) at the nodes xi, for the front-like datum u0: 1 on
    xi <= 0, the A xi^k e^{-xi} tail (capped at 1) from xi = 1 on, and a
    log-linear bridge on (0, 1).  Weighted log space keeps the tail
    polynomial-sized where u0 underflows doubles, and avoids the cancellation
    of xi against ln u0 ~ -xi."""
    ln_a = math.log(amplitude)
    bridge = (1.0 + min(0.0, ln_a - 1.0)) * xi
    tail = np.minimum(xi, ln_a + k * np.log(np.maximum(xi, 1.0)))
    return np.where(xi <= 0.0, xi, np.where(xi < 1.0, bridge, tail))


def init_front_data_weighted(config: SimConfig) -> np.ndarray:
    """Weighted image e^{xi} u0 = exp(L) of the datum at every stepped node."""
    return np.exp(_log_front_data(config.k, config.amplitude, config.nodes()))


def init_front_data(config: SimConfig) -> GridFunction:
    """The plain datum u0 = exp(L - xi) on the uniform part, the t = 0
    snapshot: exactly 1 on xi <= 0, where L = xi."""
    xi = config.nodes()[:config.n_uniform]
    with np.errstate(under="ignore"):
        u = np.exp(_log_front_data(config.k, config.amplitude, xi) - xi)
    return GridFunction(config.xi_min, config.dxi, u)


def extract_level(state: GridFunction, t: float, m: float) -> float:
    """Rightmost m-crossing, log-linear interpolation, reported at x = xi + 2t."""
    if not 0.0 < m < 1.0:
        raise DomainError("level must lie in (0, 1)")
    u = state.values
    above = np.nonzero(u >= m)[0]
    if above.size == 0 or above[-1] == u.size - 1:
        raise LevelNotAttainedError(f"level {m} not attained inside the domain")
    i = int(above[-1])
    xi_i = state.xi0 + state.dxi * i
    if u[i + 1] > 0.0:
        lo, hi = math.log(u[i]), math.log(u[i + 1])
        frac = (math.log(m) - lo) / (hi - lo)
    else:
        frac = (u[i] - m) / (u[i] - u[i + 1])
    return xi_i + state.dxi * frac + 2.0 * t


def _output_times(config: SimConfig) -> tuple[list[float], list[float]]:
    """The trace ladder TRACE_TIME_FACTOR^j < t_end plus t_end, and the
    sorted union of those times with the snapshot times."""
    traces = []
    j = 0
    while TRACE_TIME_FACTOR**j < config.t_end:
        traces.append(TRACE_TIME_FACTOR**j)
        j += 1
    traces.append(config.t_end)
    return traces, sorted(set(traces) | set(config.snapshot_times))


def _step_count(span: float, h: float) -> int:
    """Fewest equal steps covering span, each at most h up to rounding: a
    span that is a whole number of h takes that number, not one more.  For
    an IMEX target (h <= DT_MAX) no step is longer than DT_MAX."""
    n = max(1, math.ceil(span / h - 1e-9))
    return n if h > DT_MAX or span / n <= DT_MAX else n + 1


@np.errstate(under="ignore")  # once per run, not once per step
def simulate(config: SimConfig) -> SimResult:
    """March the Cauchy problem to t_end on the growing step schedule (module
    docstring), sampling level traces at geometrically spaced times and
    snapshots at requested times.  Deterministic given config.

    Newton starts each backward-Euler step from the linear extrapolation
    max(ub + r (ub - ub_prev), 0) of the last two states, r the ratio of
    the new step to the last (1 within an interval); the interval from t = 0
    is IMEX (h = config.dt), so both exist.  Underflow of tail values is
    ignored for the whole run.

    Snapshots and level traces cover the uniform part, the config.n_uniform
    nodes xi_min + dxi i up to the node nearest min(xi_max, XI_GRADE); a
    level whose crossing lies past it raises LevelNotAttainedError.
    boundary_alarm reads u at the 20th stepped node from the right end, a
    graded node when xi_max lies past XI_GRADE."""
    n = config.n_uniform
    stepper = Stepper(n, config.dxi, config.dt, config.xi_min, far=config.nodes()[n:])
    ub = init_front_data_weighted(config)
    trace_times, stops = _output_times(config)
    trace_set, snap_set = set(trace_times), set(config.snapshot_times)
    positions: dict[float, list[float]] = {m: [] for m in config.levels}
    snapshots: dict[float, GridFunction] = {}
    boundary_alarm = False
    guard = min(20, stepper.n - 1)
    t = 0.0
    n_steps, dt_min, dt_max = 0, math.inf, 0.0
    for t_out in stops:
        if t_out == 0.0:  # only a snapshot time can be 0
            snapshots[0.0] = init_front_data(config)
            continue
        h = max(config.dt, DT_GROWTH * t)
        if h > DT_MAX:
            h = NEWTON_GROWTH * t
        steps = _step_count(t_out - t, h)
        stepper.set_dt((t_out - t) / steps)
        for _ in range(steps):
            guess = None
            if stepper._implicit:
                guess = ub - ub_prev
                guess *= stepper.dt / dt_prev
                guess += ub
                np.maximum(guess, 0.0, out=guess)
            ub_prev, dt_prev = ub, stepper.dt  # before the step: one state fewer alive
            ub = stepper.step_weighted(ub, guess)
        n_steps += steps
        dt_min, dt_max = min(dt_min, stepper.dt), max(dt_max, stepper.dt)
        t = t_out
        u = stepper.to_linear(ub)
        g = GridFunction(config.xi_min, config.dxi, u[:n])
        if t in trace_set:
            for m in config.levels:
                positions[m].append(extract_level(g, t, m))
            if u[-guard] > 1e-12:
                boundary_alarm = True
                log.warning(
                    "tail mass %.3e within %d nodes of the outflow boundary at t=%g",
                    u[-guard], guard, t,
                )
        if t in snap_set:
            snapshots[t] = g
    traces = {
        m: FrontTrace(times=np.array(trace_times), positions=np.asarray(positions[m]))
        for m in config.levels
    }
    if stepper.clamp_total > 0.0:
        log.info("cumulative clamp magnitude over the run: %.3e", stepper.clamp_total)
    return SimResult(
        config=config,
        traces=traces,
        snapshots=snapshots,
        clamp_total=stepper.clamp_total,
        boundary_alarm=boundary_alarm,
        n_steps=n_steps,
        dt_min=dt_min,
        dt_max=dt_max,
        newton_iterations=stepper.newton_iterations,
        newton_iterations_max=stepper.newton_iterations_max,
    )


# Every SimConfig field is a config key; a field with a tuple default takes a
# list of floats, every other field one float.
_CONFIG_KEYS = frozenset(f.name for f in fields(SimConfig))
_TUPLE_KEYS = tuple(f.name for f in fields(SimConfig) if isinstance(f.default, tuple))
_REQUIRED_KEYS = tuple(f.name for f in fields(SimConfig) if f.default is MISSING)


def config_from_mapping(raw: dict[str, str]) -> SimConfig:
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise DomainError(f"config must set {', '.join(missing)}")
    kwargs = {}
    for key, text in raw.items():
        if key in _TUPLE_KEYS:
            kwargs[key] = tuple(float(v) for v in text.replace(",", " ").split())
        else:
            kwargs[key] = float(text)
    return SimConfig(**kwargs)


def load_config(path) -> SimConfig:
    """Parse the flat key = value run-config file."""
    return config_from_mapping(load_key_value_config(path))
