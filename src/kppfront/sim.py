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

Stencil.  ub_xixi is discretized by the symmetric stencil
(1, -2, 1) / (rho dxi^2) with rho = 2(cosh dxi - 1)/dxi^2.  It is exact on
constants in ub (the marginal mode u = e^{-xi}) and on ub = e^{xi} (the
invaded state u = 1), so both are discrete equilibria for any dt, as is
u = 0.  Plain centered differences in u bias the front speed by dxi^2/4,
which is fatal to the log-law fits (see the refinement evidence in the tests).

Step.  One IMEX step solves

    (I - dt D) ub+ = ub - dt e^{-xi} ub^2

with the two end nodes held as Dirichlet data.  Their values are moved to
the right-hand side (off ub_0 and off ub_{n-1} join the first and last
interior rows, off = dt / (rho dxi^2)), which leaves the (n-2) x (n-2)
interior matrix tridiag(-off, 1 + 2 off, -off).  It is symmetric and strictly
diagonally dominant with positive diagonal, hence positive definite and an
M-matrix: it is factored as L D L^T (LAPACK dpttrf) once per step size and
each step is one dpttrs solve, and its inverse is entrywise nonnegative, so
the implicit part preserves order for every dt.

Reaction bound.  The explicit sink acts node by node as
ub -> ub - dt e^{-xi} ub^2, with derivative 1 - 2 dt e^{-xi} ub = 1 - 2 dt u.
It is monotone exactly when dt * max u <= 1/2, i.e. for states in [0, 1]
when dt <= 1/2.  DT_MAX = 1/2 is that bound: no step, given or grown, exceeds
it.  A step is the composition of two monotone maps, so ordered states stay
ordered to rounding (the discrete comparison principle) at every step.

Step schedule.  The drift laws are laws in ln t, so simulate spends about
the same work on each decade of t.  The output times (the trace ladder
1.2^j < t_end, then t_end and every snapshot time) are hit exactly.  On each
output interval [t_a, t_b] the target step is
h = min(DT_MAX, max(config.dt, DT_GROWTH t_a)): config.dt up to
t = config.dt / DT_GROWTH, then growing like t, capped at DT_MAX.  The
interval takes the fewest equal steps no longer than h,
n = ceil((t_b - t_a) / h), and the interior matrix is refactored in place
once per interval.  On an interval longer than h the steps lie in (h/2, h];
one shorter than h (a snapshot time or t_end next to a ladder time) takes
one step of its own length.  So a step can be shorter than config.dt: the
critical fixture's smallest is 0.08 at dt = 0.1.  A scheme that
preserves positivity at every dt is at most first order (Bolley & Crouzeix,
RAIRO 1978), so the schedule, not the order, is where the work is saved.

Range guard.  After each step u must lie in [-OVERSHOOT_TOL,
1 + OVERSHOOT_TOL]; anything else, NaN and inf included, raises
NumericsError.  A step from a valid state (u in [0, 1], dt <= DT_MAX) needs
no clip: the sink leaves at least half of each node's value (dt u <= 1/2)
and dpttrs's recurrences only add nonnegative terms (the factor's
off-diagonal is negative), so no output is negative; e^{xi} is a discrete
supersolution, (I - dt D) e^{xi} = (1 - dt) e^{xi} with the sink increasing
on [0, e^{xi}], so u exceeds 1 only by rounding (past xi ~ 700, where
dt e^{-xi} is flushed to 0, this needs u <= 1 - dt, as on a front's tail).
Only beyond CLAMP_ALLOWANCE is u clipped back to [0, 1], the whole array,
and each node's overshoot beyond it added to Stepper.clamp_total.

Initial datum.  The front-like datum u0 ~ A xi^k e^{-xi} is defined once,
by init_front_data_weighted, as the exp of ln(e^{xi} u0) built in weighted
log space.  The plain-u datum (the t = 0 snapshot) is Stepper.to_linear of
that.

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

# Largest step: the explicit sink is monotone exactly up to dt = 1/2 (see the
# reaction bound above), the implicit part at any dt.
DT_MAX = 0.5
# Growth rate of the step schedule: the target step is DT_GROWTH * t.
DT_GROWTH = 1e-3
# Out-of-range guard before clamping.
OVERSHOOT_TOL = 1e-9
# Rounding allowance in u: the range guard clips and counts only beyond it; the
# |xi| ulp of rounding in xi keeps u = 1 (ub = e^{xi}) well inside for |xi| <= 745.
CLAMP_ALLOWANCE = 1e-12
# Width coefficient of the diffusive zone the domain must contain.
FAR_ZONE_COEFF = 3.0
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
        if self.xi_max < FAR_ZONE_COEFF * math.sqrt(self.t_end) + 20.0:
            raise DomainError(
                "xi_max too small: need the O(sqrt(t)) far-away zone, "
                f"xi_max >= {FAR_ZONE_COEFF * math.sqrt(self.t_end) + 20.0:.1f}"
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

    @property
    def n_nodes(self) -> int:
        return int(round((self.xi_max - self.xi_min) / self.dxi)) + 1


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


def _stencil_rho(h: float) -> float:
    """rho = 2 (cosh h - 1) / h^2, the weight that makes the symmetric stencil
    exact on e^{xi} and e^{-xi}.  Written as (2 sinh(h/2) / h)^2: cosh h - 1
    loses about 3e-14 relative to cancellation at h = 0.05, an error that
    tilts the discrete u = 1 equilibrium and can make the range guard clamp
    on every step."""
    return (2.0 * math.sinh(0.5 * h) / h) ** 2


class Stepper:
    """Prefactorized IMEX stepper on a fixed grid (see the module docstring).

    Holds no solution state between steps: step_weighted returns a new array
    and leaves its input untouched.  It does keep scratch arrays, so one
    instance serves one thread at a time.
    """

    def __init__(self, n: int, dxi: float, dt: float, xi0: float = 0.0):
        if n < 3:
            raise DomainError(f"need at least 3 nodes, got {n}")
        # here, not at module level: scipy.linalg is most of the package's
        # import time, which every CLI command pays (CHANGES.md)
        from scipy.linalg.lapack import dpttrf, dpttrs

        self._dpttrf = dpttrf
        self._dpttrs = dpttrs
        self.n = n
        xi = xi0 + dxi * np.arange(n)
        with np.errstate(under="ignore"):
            self._weight_down = np.exp(-xi)  # u = weight_down * ub
        # 0 beyond xi ~ 708.4 rather than subnormal: every multiply through a
        # subnormal operand runs several times slower
        self._weight_down[self._weight_down < np.finfo(float).tiny] = 0.0
        with np.errstate(over="ignore"):
            self._ceiling = np.exp(xi)  # ub image of u = 1; inf far right is fine for clip
        self._inv_h2 = 1.0 / (_stencil_rho(dxi) * dxi * dxi)
        self._sink = np.empty(n - 2)  # interior dt e^{-xi}
        self._diag = np.empty(n - 2)  # L D L^T factor of the interior matrix
        self._sub = np.empty(n - 3)
        self._u = np.empty(n)  # plain-u image for the range guard
        self.clamp_total = 0.0
        self.set_dt(dt)

    def set_dt(self, dt: float) -> None:
        """Refactor the interior matrix for step size dt, in place."""
        if not 0.0 < dt <= DT_MAX:
            raise DomainError(f"dt must lie in (0, {DT_MAX}]")
        self.dt = dt
        self._off = dt * self._inv_h2
        with np.errstate(under="ignore"):
            np.multiply(self._weight_down[1:-1], dt, out=self._sink)
        self._sink[self._sink < np.finfo(float).tiny] = 0.0  # not subnormal, as _weight_down
        self._diag.fill(1.0 + 2.0 * self._off)
        self._sub.fill(-self._off)
        self._diag, self._sub, info = self._dpttrf(self._diag, self._sub,
                                                   overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise NumericsError(f"interior matrix not positive definite (dpttrf info={info})")

    def to_weighted(self, u: np.ndarray) -> np.ndarray:
        # zero stays zero even where e^{xi} has overflowed to inf
        with np.errstate(over="ignore", invalid="ignore"):
            out = u * self._ceiling
        out[u == 0.0] = 0.0
        return out

    def to_linear(self, ub: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):
            return ub * self._weight_down

    def step_weighted(self, ub: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        out[0], out[-1] = ub[0], ub[-1]
        rhs = out[1:-1]  # built and solved in place
        inner = ub[1:-1]
        with np.errstate(under="ignore"):
            np.multiply(self._sink, inner, out=rhs)
            rhs *= inner
            np.subtract(inner, rhs, out=rhs)
            rhs[0] += self._off * ub[0]
            rhs[-1] += self._off * ub[-1]
            self._dpttrs(self._diag, self._sub, rhs, overwrite_b=True)
            u_view = np.multiply(out, self._weight_down, out=self._u)
        lo, hi = float(u_view.min()), float(u_view.max())
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

    def step_values(self, u: np.ndarray) -> np.ndarray:
        """One step in plain-u terms (converts at both ends; tail values that
        underflow u-representation stay zero)."""
        return self.to_linear(self.step_weighted(self.to_weighted(u)))


def init_front_data_weighted(config: SimConfig) -> np.ndarray:
    """Weighted image e^{xi} u0 of the front-like datum u0: 1 on xi <= 0, the
    A xi^k e^{-xi} tail (capped at 1) from xi = 1 on, and a log-linear bridge
    on (0, 1).  Built as the exp of ln(e^{xi} u0): weighted log space keeps
    the tail polynomial-sized where u0 underflows doubles, and avoids the
    cancellation of xi against ln u0 ~ -xi."""
    xi = config.xi_min + config.dxi * np.arange(config.n_nodes)
    ln_a = math.log(config.amplitude)
    bridge = (1.0 + min(0.0, ln_a - 1.0)) * xi
    tail = np.minimum(xi, ln_a + config.k * np.log(np.maximum(xi, 1.0)))
    return np.exp(np.where(xi <= 0.0, xi, np.where(xi < 1.0, bridge, tail)))


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
    span that is a whole number of h takes that number, not one more.  No
    step is longer than DT_MAX."""
    n = max(1, math.ceil(span / h - 1e-9))
    return n if span / n <= DT_MAX else n + 1


def simulate(config: SimConfig) -> SimResult:
    """March the Cauchy problem to t_end on the growing step schedule (module
    docstring), sampling level traces at geometrically spaced times and
    snapshots at requested times.  Deterministic given config."""
    stepper = Stepper(config.n_nodes, config.dxi, config.dt, config.xi_min)
    ub = init_front_data_weighted(config)
    trace_times, stops = _output_times(config)
    trace_set, snap_set = set(trace_times), set(config.snapshot_times)
    positions: dict[float, list[float]] = {m: [] for m in config.levels}
    snapshots: dict[float, GridFunction] = {}
    boundary_alarm = False
    guard = min(20, config.n_nodes - 1)
    t = 0.0
    n_steps, dt_min, dt_max = 0, math.inf, 0.0
    for t_out in stops:
        if t_out > t:
            h = min(DT_MAX, max(config.dt, DT_GROWTH * t))
            n = _step_count(t_out - t, h)
            stepper.set_dt((t_out - t) / n)
            for _ in range(n):
                ub = stepper.step_weighted(ub)
            n_steps += n
            dt_min, dt_max = min(dt_min, stepper.dt), max(dt_max, stepper.dt)
            t = t_out
        u = stepper.to_linear(ub)
        g = GridFunction(config.xi_min, config.dxi, u)
        if t in trace_set:
            for m in config.levels:
                positions[m].append(extract_level(g, t, m))
            if u[-guard] > 1e-12:
                boundary_alarm = True
                log.warning(
                    "tail mass %.3e within %d cells of the outflow boundary at t=%g",
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
