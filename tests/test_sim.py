"""Co-moving-frame solver, IMEX and backward Euler by Newton: initial data,
stepping, level extraction, the scheme's residual on the minimal wave, order
preservation, translation covariance."""

import logging
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kppfront import (
    DomainError,
    GridFunction,
    LevelNotAttainedError,
    SimConfig,
    extract_level,
    fit_critical,
    fit_log_correction,
    minimal_wave,
    simulate,
)
from kppfront import sim
from kppfront.errors import NumericsError
from kppfront.sim import (
    CLAMP_ALLOWANCE,
    DT_GROWTH,
    DT_MAX,
    GRADE,
    NEWTON_GROWTH,
    XI_GRADE,
    Stepper,
    _stencil_rho,
    _step_count,
    config_from_mapping,
    init_front_data,
    init_front_data_weighted,
)


def _dirichlet_splu(n, dt, c_minus, c_0, c_plus):
    """Full n x n splu factor of I - dt L for the 3-point operator
    L = (c_minus, c_0, c_plus), row i reading u_{i-1}, u_i, u_{i+1} (scalars
    or length-n arrays), with identity rows holding the two ends.  Factored
    without pivoting, stable on these row diagonally dominant matrices: a
    row swap would mix the identity rows with rows thousands of times larger
    once dt c is large, and lose the end values they hold."""
    c_minus, c_0, c_plus = (np.broadcast_to(c, n) for c in (c_minus, c_0, c_plus))
    main = 1.0 - dt * c_0
    lower = -dt * c_minus[1:]
    upper = -dt * c_plus[:-1]
    main[0] = main[-1] = 1.0
    upper[0] = lower[-1] = 0.0
    return spla.splu(sp.diags([lower, main, upper], (-1, 0, 1), format="csc"),
                     permc_spec="NATURAL", diag_pivot_thresh=0.0)


def _nonuniform_stencil(x, dxi):
    """(c_minus, c_plus) of the nonuniform three-point stencil
      2/(h- + h+) [c+ (u+ - u)/h+ - c- (u - u-)/h-]
    on the nodes x, zero in the two end rows: c = 1/rho(dxi) on cells up to
    XI_GRADE, 1 on the graded ones."""
    h = np.diff(x)
    c = np.where(x[1:] <= XI_GRADE + 1e-9, dxi**2 / (2.0 * (math.cosh(dxi) - 1.0)), 1.0)
    c_minus, c_plus = np.zeros(x.size), np.zeros(x.size)
    c_minus[1:-1] = 2.0 * c[:-1] / ((h[:-1] + h[1:]) * h[:-1])
    c_plus[1:-1] = 2.0 * c[1:] / ((h[:-1] + h[1:]) * h[1:])
    return c_minus, c_plus


def _graded(x0, dxi, count):
    """count nodes past x0 on cells (1 + GRADE)^j dxi, j = 1, 2, ..."""
    return x0 + dxi * np.cumsum((1.0 + GRADE) ** np.arange(1, count + 1))


def _assert_constant_invariant(n, dxi, dt, far=()):
    stepper = Stepper(n, dxi, dt, 750.0, far)
    const = np.full(stepper.n, 0.7)
    np.testing.assert_allclose(stepper.step_weighted(const), const, rtol=1e-13)


def small_config(**kw):
    defaults = dict(k=1.0, t_end=20.0, xi_min=-40.0, xi_max=60.0, dxi=0.05, dt=0.01)
    defaults.update(kw)
    return SimConfig(**defaults)


# the critical fixture's grid: 1,201 uniform nodes to XI_GRADE, 126 graded
CRITICAL = SimConfig(k=-2.0, t_end=1e5, dxi=0.1, dt=0.1)


def config_stepper(cfg):
    """The stepper simulate builds for cfg."""
    return Stepper(cfg.n_uniform, cfg.dxi, cfg.dt, cfg.xi_min, far=cfg.nodes()[cfg.n_uniform:])


class TestConfig:
    def test_rejects_k_below_minus_two(self):
        with pytest.raises(DomainError, match="k must be >= -2"):
            SimConfig(k=-3.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            small_config(dt=math.nextafter(DT_MAX, 1.0))
        assert small_config(dt=DT_MAX).dt == 0.5

    def test_rejects_narrow_domain(self):
        with pytest.raises(DomainError):
            SimConfig(k=0.0, t_end=400.0, xi_max=40.0)

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            small_config(levels=(0.0,))

    def test_default_domain_covers_far_zone(self):
        cfg = SimConfig(k=0.0, t_end=2500.0)
        assert cfg.xi_max >= 3.0 * math.sqrt(2500.0) + 20.0

    @pytest.mark.parametrize("k", [0.0, -2.0, 3.0])
    def test_rejects_data_above_the_graded_barrier(self, k):
        # the range guard's barrier min(e^{xi}, e^{xi_J}) bounds the datum
        # only while ln A + k ln xi <= xi_J on every graded node: the first
        # one binds for k < 0, the last for k > 0
        probe = SimConfig(k=k, t_end=1.0, levels=(0.9,))
        x = probe.nodes()
        xi_j, far = x[probe.n_uniform - 1], x[probe.n_uniform:]
        assert xi_j == XI_GRADE and far.size > 0
        ln_a = xi_j - np.max(k * np.log(far))
        inside = SimConfig(k=k, amplitude=math.exp(ln_a - 0.1), t_end=1.0, levels=(0.9,))
        assert simulate(inside).clamp_total == 0.0
        # the message names that largest ln A
        with pytest.raises(DomainError, match=re.escape(f"graded cells: ln A = {ln_a + 0.1:.4g}"
                                                        f" exceeds {ln_a:.3f} = xi_J")):
            SimConfig(k=k, amplitude=math.exp(ln_a + 0.1), t_end=1.0, levels=(0.9,))

    def test_mapping_parser(self):
        cfg = config_from_mapping({"k": "1", "levels": "0.1 0.5", "t_end": "50"})
        assert cfg.k == 1.0 and cfg.levels == (0.1, 0.5)
        with pytest.raises(DomainError):
            config_from_mapping({"k": "1", "bogus": "2"})


def _front_data_weighted_closed_form(xi, k, A):
    """e^{xi} u0 written out: e^{xi} on xi <= 0, e^{xi} u1^{xi} with
    u1 = min(1, A/e) on the bridge (0, 1), min(e^{xi}, A xi^k) beyond."""
    with np.errstate(over="ignore"):
        out = np.exp(xi)
        bridge = (xi > 0.0) & (xi < 1.0)
        out[bridge] *= min(1.0, A / math.e) ** xi[bridge]
        tail = xi >= 1.0
        out[tail] = np.minimum(out[tail], A * xi[tail] ** k)
    return out


# the k-run grid and the critical grid, named by the node count a uniform
# grid over their domain would have (6,644 and 10,688); graded, they step
# 2,510 and 1,327 nodes
PRODUCTION_GRIDS = [
    (dict(k=k, t_end=5000.0), 6644) for k in (3.0, 1.0, 0.0, -1.0)
] + [(dict(k=-2.0, t_end=1e5, dxi=0.1, dt=0.1), 10688)]
GRADED_NODES = {6644: 2510, 10688: 1327}


def production_config(kw, n, **more):
    cfg = SimConfig(**kw, **more)
    assert int(round((cfg.xi_max - cfg.xi_min) / cfg.dxi)) + 1 == n
    assert cfg.n_nodes == GRADED_NODES[n]
    return cfg


class TestInitFrontData:
    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kw,n", PRODUCTION_GRIDS)
    def test_weighted_matches_closed_form(self, kw, n, A):
        # at the nodes the stepper steps, graded ones included
        cfg = production_config(kw, n, amplitude=A)
        expected = _front_data_weighted_closed_form(config_stepper(cfg).xi, cfg.k, A)
        np.testing.assert_allclose(init_front_data_weighted(cfg), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kw,n", PRODUCTION_GRIDS)
    def test_plain_is_weighted_times_decay(self, kw, n, A):
        cfg = production_config(kw, n, amplitude=A)
        u0 = init_front_data(cfg)
        assert u0.values.size == cfg.n_uniform and u0.grid()[-1] == XI_GRADE
        u, xi = u0.values, u0.grid()
        with np.errstate(under="ignore"):
            expected = np.exp(-xi) * _front_data_weighted_closed_form(xi, cfg.k, A)
        normal = expected >= np.finfo(float).tiny
        # u = exp(L - xi) with L = ln(e^{xi} u0), |L| <= |xi|: rounding L
        # and L - xi costs about |xi| ulp relative to u
        bound = (4.0 + np.abs(xi[normal])) * np.finfo(float).eps * expected[normal]
        assert np.all(np.abs(u[normal] - expected[normal]) <= bound)
        assert np.all(u[~normal] < np.finfo(float).tiny)

    def test_pure_exponential_tail_point(self):
        cfg = small_config(k=0.0, amplitude=1.0)
        u0 = init_front_data(cfg)
        i = int(round((5.0 - cfg.xi_min) / cfg.dxi))
        np.testing.assert_allclose(u0.values[i], math.exp(-5.0), rtol=1e-12)

    def test_critical_tail_point(self):
        cfg = small_config(k=-2.0, amplitude=1.0)
        u0 = init_front_data(cfg)
        i = int(round((10.0 - cfg.xi_min) / cfg.dxi))
        np.testing.assert_allclose(u0.values[i], math.exp(-10.0) / 100.0, rtol=1e-12)

    def test_left_state_is_one(self):
        # on xi <= 0 the t = 0 snapshot reads exactly 1, and the weighted
        # datum is bit for bit the stepper's image of u = 1, its clamp ceiling
        cfg = small_config(k=3.0, t_end=1.0, snapshot_times=(0.0,))
        snap = simulate(cfg).snapshots[0.0]
        left = snap.grid() <= 0.0
        assert left.sum() == 801 and np.all(snap.values[left] == 1.0)
        assert snap.values.tobytes() == init_front_data(cfg).values.tobytes()
        one = config_stepper(cfg).to_weighted(np.ones(cfg.n_nodes))
        np.testing.assert_array_equal(init_front_data_weighted(cfg)[left], one[left])

    @pytest.mark.parametrize("k,A", [(0.0, 1.0), (-2.0, 1.0), (3.0, 1.0), (1.0, 2.5)])
    def test_two_sided_tail_bound(self, k, A):
        cfg = small_config(k=k, amplitude=A)
        u0 = init_front_data(cfg)
        xi = u0.grid()
        m = xi > 1.0
        envelope = A * xi[m] ** k * np.exp(-xi[m])
        assert np.all(u0.values[m] <= np.minimum(1.0, envelope) + 1e-15)
        unclamped = m.copy()
        unclamped[m] = envelope <= 1.0
        lower = A * (1.0 - 1e-12) * xi[unclamped] ** cfg.k * np.exp(-xi[unclamped])
        assert np.all(u0.values[unclamped] >= lower)

    def test_continuous_positive(self):
        cfg = small_config(k=-2.0)
        u0 = init_front_data(cfg)
        xi = u0.grid()
        core = xi <= 30.0
        assert np.all(u0.values[core] > 0.0)
        # steepest slope is ~1.2 just past the bridge, so per-cell jumps stay
        # below ~1.2 dxi
        jumps = np.abs(np.diff(u0.values))
        assert jumps.max() < 1.5 * cfg.dxi


class TestStep:
    def test_zero_equilibrium(self):
        out = Stepper(200, 0.05, 0.01).step_values(np.zeros(200))
        assert np.all(out == 0.0)

    def test_one_equilibrium(self):
        out = Stepper(200, 0.05, 0.01).step_values(np.ones(200))
        assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_small_constant_matches_logistic(self):
        # interior constant sees no diffusion or advection (the stencil is
        # exact on constants); at dt = 1e-3 the one-step growth factor sits
        # within 1e-6 of the exact logistic factor
        u0 = 1e-6
        dt = 1e-3
        u = np.full(600, u0)
        out = Stepper(600, 0.05, dt).step_values(u)
        growth = out[300] / u0
        logistic = math.exp(dt) / (1.0 + u0 * (math.exp(dt) - 1.0))
        assert abs(growth - logistic) <= 1e-6
        coarse = Stepper(600, 0.05, 1e-2).step_values(u)[300] / u0
        logistic_coarse = math.exp(1e-2) / (1.0 + u0 * (math.exp(1e-2) - 1.0))
        # defect shrinks like dt^2 under refinement
        assert abs(growth - logistic) <= 0.02 * abs(coarse - logistic_coarse)

    def test_instability_reported(self):
        with pytest.raises(NumericsError, match="instability"):
            Stepper(100, 0.05, 0.01).step_values(np.full(100, 2.0))

    def test_nan_raises_in_step_values(self):
        # one NaN node would spread over the whole interior in one solve
        u = np.linspace(1.0, 0.0, 200)
        u[100] = np.nan
        with pytest.raises(NumericsError, match="instability"):
            Stepper(200, 0.05, 0.01).step_values(u)

    def test_marginal_mode_exactly_stationary(self):
        # e^{-xi} data is a constant in the weighted field; the linear solve
        # leaves it exactly invariant, which is the property the weighted
        # scheme exists for.  At xi >= 750 e^{-xi} underflows to 0, so the
        # sink vanishes and a step is the bare linear solve.
        n = 4000
        dxi, dt = 0.05, 0.01
        _assert_constant_invariant(n, dxi, dt)
        # with the quadratic sink included the deviation is O(dt amplitude^2)
        stepper = Stepper(n, dxi, dt, xi0=0.0)
        eps = 1e-3
        xi = dxi * np.arange(n)
        u = eps * np.exp(-xi)
        out_u = stepper.step_values(u.copy())
        interior = slice(50, n - 50)
        assert np.max(np.abs(out_u[interior] - u[interior])) <= 1.5 * dt * eps * eps

    def test_marginal_mode_exactly_stationary_critical_grid(self):
        # the critical grid's 1,201 uniform nodes and 126 graded cells,
        # moved to xi >= 750
        _assert_constant_invariant(1201, 0.1, 0.1, far=_graded(870.0, 0.1, 126))

    def test_no_subnormal_weight_on_critical_grid(self):
        # the grid reaches xi ~ 1040; e^{-xi} leaves the normal range at
        # xi ~ 708.4 and must read 0 from there on, not subnormal
        stepper = config_stepper(CRITICAL)
        u = stepper.to_linear(np.ones(stepper.n))
        assert not np.any((u != 0.0) & (np.abs(u) < np.finfo(float).tiny))
        assert u[-1] == 0.0

    def test_no_subnormal_sink_on_critical_grid(self):
        # dt m e^{-xi} leaves the normal range before e^{-xi} does (from
        # xi ~ 706.1 at dt = 0.1): every IMEX step's sink pass multiplies
        # through the one sink _s, so it must read 0 there too, at every
        # step size set
        stepper = config_stepper(CRITICAL)
        for dt in (0.1, DT_MAX):
            stepper.set_dt(dt)
            sink = stepper._s
            assert not np.any((sink != 0.0) & (sink < np.finfo(float).tiny)), dt
            assert sink[0] > 0.0 and sink[-1] == 0.0

    @pytest.mark.parametrize("n,dxi,dt,k", [(6644, 0.05, 0.01, 0.0), (10688, 0.1, 0.1, -2.0)])
    def test_matches_full_matrix_oracle(self, n, dxi, dt, k):
        # the eliminated-boundary, row-weighted LDL^T solve against a full
        # solve of the nonuniform three-point stencil
        #   2/(h- + h+) [c+ (u+ - u)/h+ - c- (u - u-)/h-]
        # that keeps the two Dirichlet rows, on both production grids, its
        # cells read off the node positions: c = 1/rho(dxi) on cells up to
        # XI_GRADE, 1 on the graded ones
        xi_min = -60.0
        cfg = SimConfig(k=k, xi_min=xi_min, xi_max=xi_min + dxi * (n - 1), dxi=dxi, dt=dt,
                        t_end=100.0)
        assert cfg.n_nodes == GRADED_NODES[n]
        ub = init_front_data_weighted(cfg)
        stepper = config_stepper(cfg)
        for _ in range(20):
            ub = stepper.step_weighted(ub)
        x = cfg.nodes()
        c_minus, c_plus = _nonuniform_stencil(x, dxi)
        lu = _dirichlet_splu(x.size, dt, c_minus, -(c_minus + c_plus), c_plus)
        with np.errstate(under="ignore"):
            rhs = ub - dt * (np.exp(-x) * ub * ub)
        rhs[0], rhs[-1] = ub[0], ub[-1]
        np.testing.assert_allclose(stepper.step_weighted(ub), lu.solve(rhs), rtol=1e-11, atol=0.0)

    def test_rejects_nonpositive_and_nonfinite_step(self):
        # past DT_MAX the step is backward Euler, so any finite dt > 0 is taken
        for bad in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(DomainError):
                Stepper(200, 0.05, bad)
            stepper = Stepper(200, 0.05, DT_MAX)
            with pytest.raises(DomainError):
                stepper.set_dt(bad)
        stepper.set_dt(1e6)
        assert stepper.dt == 1e6

    def test_set_dt_matches_fresh_stepper(self):
        stepper = Stepper(200, 0.05, 0.01)
        stepper.set_dt(0.3)
        ub = stepper.to_weighted(np.linspace(1.0, 0.0, 200))
        np.testing.assert_array_equal(stepper.step_weighted(ub),
                                      Stepper(200, 0.05, 0.3).step_weighted(ub))

    def test_rounding_on_one_is_not_counted_as_clamping(self):
        # u = 1 is held as ub = e^{xi} on a rounded grid, so the range guard
        # clips ulp-level overshoot; none of it is real clamping
        stepper = Stepper(601, 0.1, 0.1, xi0=-60.0)
        ub = stepper.to_weighted(np.ones(601))
        for _ in range(3000):
            ub = stepper.step_weighted(ub)
        assert stepper.clamp_total == 0.0
        np.testing.assert_allclose(stepper.to_linear(ub), 1.0, rtol=0.0, atol=1e-12)

    def test_real_overshoot_is_counted(self):
        # u = 1 + d steps to about 1 + d (1 - 2 dt) / (1 - dt), all clipped
        n, d, dt = 601, 1e-10, 0.1
        stepper = Stepper(n, 0.1, dt, xi0=-60.0)
        out = stepper.step_weighted(stepper.to_weighted(np.full(n, 1.0 + d)))
        np.testing.assert_allclose(stepper.to_linear(out), 1.0, rtol=0.0, atol=1e-15)
        expected = (n - 2) * d * (1.0 - 2.0 * dt) / (1.0 - dt)
        np.testing.assert_allclose(stepper.clamp_total, expected, rtol=0.02)

    def test_clamp_matches_the_whole_array_clip(self):
        # real overshoot clips the whole array to [0, ceiling]; forced solver
        # output below 0 (-0.0 included), above the ceiling by more and by
        # less than CLAMP_ALLOWANCE, and above it at xi = 709 (weight 0,
        # ceiling finite) must give the whole-array clip and excess sum
        n = 297  # xi in [680, 709.6]: weight 0 from xi ~ 708.4, ceiling finite
        stepper = Stepper(n, 0.1, 0.1, xi0=680.0)
        rng = np.random.default_rng(5)
        u = np.linspace(0.9, 0.1, n)
        nodes = rng.permutation(np.arange(1, 280))
        u[nodes[:60]] = 1.0 + rng.uniform(0.0, 5e-10, 60)
        u[nodes[60:100]] = -rng.uniform(0.0, 5e-10, 40)
        u[nodes[100:110]] = 1.0 + 1e-13
        forced = stepper.to_weighted(u)
        forced[nodes[110]] = -0.0
        forced[290] = 1e308  # xi = 709: above e^709, weight 0
        assert forced[290] > stepper._ceiling[290] and stepper._weight_down[290] == 0.0

        def forced_solve(d, e, b, overwrite_b):
            b[:] = forced[1:-1]
            return b, 0

        stepper._dpttrs = forced_solve
        out = stepper.step_weighted(forced)
        clipped = np.clip(forced, 0.0, stepper._ceiling)
        with np.errstate(under="ignore"):
            excess = np.abs((forced - clipped) * stepper._weight_down) - CLAMP_ALLOWANCE
        assert out.tobytes() == clipped.tobytes()
        assert stepper.clamp_total == float(excess[excess > 0.0].sum()) > 0.0

    def test_valid_states_never_enter_the_clamp(self, monkeypatch):
        # from a valid state at dt <= DT_MAX a step stays in range to rounding
        # (the range guard in the sim docstring), so nothing is clipped: front
        # data on the graded grid past xi = 709 (weight 0, then ceiling inf),
        # its barrier min(e^{xi}, e^{XI_GRADE}) (u = 1 on the uniform part),
        # and u = 1 held as ub = e^{xi} out to xi = 690 on a uniform grid
        clip = np.clip
        calls = 0

        def counting_clip(*args, **kwargs):
            nonlocal calls
            calls += 1
            return clip(*args, **kwargs)

        monkeypatch.setattr(np, "clip", counting_clip)
        runs = []
        for k in (-2.0, 1.0):
            cfg = SimConfig(k=k, xi_min=-60.0, dxi=0.1, dt=DT_MAX, t_end=1e5)
            assert cfg.xi_max > 709.0 and cfg.n_nodes == 1327
            stepper = config_stepper(cfg)
            runs.append((stepper, init_front_data_weighted(cfg)))
        barrier = config_stepper(cfg)
        with np.errstate(over="ignore"):
            runs.append((barrier, np.minimum(np.exp(barrier.xi), math.exp(XI_GRADE))))
        one = Stepper(7501, 0.1, DT_MAX, xi0=-60.0)
        runs.append((one, one.to_weighted(np.ones(7501))))
        for stepper, ub in runs:
            for _ in range(1000):
                ub = stepper.step_weighted(ub)
            assert stepper.clamp_total == 0.0
        assert calls == 0
        # ub is the last run's, u = 1
        np.testing.assert_allclose(one.to_linear(ub), 1.0, rtol=0.0, atol=1e-12)

    def test_unclipped_rounding_on_one_does_not_build_up(self):
        # the guard leaves rounding of u = 1 in place; 20,000 small steps
        # must not build it up
        stepper = Stepper(601, 0.1, 1e-4, xi0=-60.0)
        ub = stepper.to_weighted(np.ones(601))
        for _ in range(20000):
            ub = stepper.step_weighted(ub)
        assert stepper.clamp_total == 0.0
        np.testing.assert_allclose(stepper.to_linear(ub), 1.0, rtol=0.0, atol=1e-12)

    def test_step_leaves_input_untouched(self):
        stepper = Stepper(200, 0.05, 0.01)
        ub = stepper.to_weighted(np.linspace(1.0, 0.0, 200))
        before = ub.copy()
        out = stepper.step_weighted(ub)
        assert out is not ub
        np.testing.assert_array_equal(ub, before)

    def test_centered_stencil_would_drift(self):
        # same experiment with plain centered coefficients: the marginal mode
        # decays by about dxi^2/4 per unit time, the front-speed bias that
        # motivated the weighted (rho-fitted) stencil
        n = 4000
        dxi, dt = 0.05, 0.01
        xi = dxi * np.arange(n)
        u = 1e-3 * np.exp(-xi)
        cm_c = 1.0 / dxi**2 - 1.0 / dxi
        cp_c = 1.0 / dxi**2 + 1.0 / dxi
        c0_c = -2.0 / dxi**2
        lu = _dirichlet_splu(n, dt, cm_c, c0_c, cp_c)
        rhs = u + dt * u
        rhs[0], rhs[-1] = u[0], u[-1]
        out = lu.solve(rhs)
        decay = out[2000] / u[2000]
        predicted = 1.0 - dt * dxi**2 / 4.0
        np.testing.assert_allclose(decay, predicted, rtol=1e-3)


class TestNewton:
    """Backward-Euler steps past DT_MAX, solved by Newton."""

    @pytest.mark.parametrize("dt", [2.0, 20.0])
    def test_matches_full_matrix_newton_oracle(self, dt):
        # one step from the critical fixture's datum after 20 IMEX steps,
        # against Newton on the full matrix of the nonuniform stencil with
        # its two Dirichlet rows, iterated far past convergence
        ub = init_front_data_weighted(CRITICAL)
        stepper = config_stepper(CRITICAL)
        for _ in range(20):
            ub_prev, ub = ub, stepper.step_weighted(ub)
        stepper.set_dt(dt)
        x = CRITICAL.nodes()
        c_minus, c_plus = _nonuniform_stencil(x, CRITICAL.dxi)
        with np.errstate(under="ignore"):
            w = np.exp(-x)
        v = ub.copy()
        for _ in range(12):
            lu = _dirichlet_splu(x.size, dt, c_minus, -(c_minus + c_plus) - 2.0 * w * v, c_plus)
            with np.errstate(under="ignore"):
                rhs = ub + dt * w * v * v
            rhs[0], rhs[-1] = ub[0], ub[-1]
            v = lu.solve(rhs)
        np.testing.assert_allclose(stepper.step_weighted(ub), v, rtol=1e-11, atol=0.0)
        # and from simulate's extrapolated predictor
        guess = np.maximum(ub + dt / CRITICAL.dt * (ub - ub_prev), 0.0)
        np.testing.assert_allclose(stepper.step_weighted(ub, guess), v, rtol=1e-11, atol=0.0)

    def test_equilibria_and_barrier_at_dt_50(self, monkeypatch):
        # u = 0 is exact everywhere and u = 1 on a uniform grid; the barrier
        # min(e^{xi}, e^{XI_GRADE}) of the graded critical grid steps
        # without entering the clip
        stepper = config_stepper(CRITICAL)
        stepper.set_dt(50.0)
        assert np.all(stepper.step_values(np.zeros(stepper.n)) == 0.0)
        one = Stepper(601, 0.1, 50.0, xi0=-60.0)
        np.testing.assert_allclose(one.step_values(np.ones(601)), 1.0, rtol=0.0, atol=1e-12)
        calls = 0
        clip = np.clip

        def counting_clip(*args, **kwargs):
            nonlocal calls
            calls += 1
            return clip(*args, **kwargs)

        monkeypatch.setattr(np, "clip", counting_clip)
        with np.errstate(over="ignore"):
            barrier = np.minimum(np.exp(stepper.xi), math.exp(XI_GRADE))
        stepper.step_weighted(barrier)
        assert calls == 0 and stepper.clamp_total == one.clamp_total == 0.0

    @pytest.mark.parametrize("dt", [2.0, 20.0, 200.0])
    def test_ordered_pairs_stay_ordered_on_graded_cells(self, dt):
        assert _pairs_stay_ordered(dt, 200)

    def test_imex_past_its_bound_is_rejected(self, monkeypatch):
        # negative control: with DT_MAX patched to 10 the dt = 2 steps are
        # IMEX, whose sink is not monotone past dt = 1/2
        monkeypatch.setattr(sim, "DT_MAX", 10.0)
        assert not _pairs_stay_ordered(2.0, 200)

    def test_nan_raises(self):
        u = np.linspace(1.0, 0.0, 200)
        u[100] = np.nan
        with pytest.raises(NumericsError, match="NaN"):
            Stepper(200, 0.05, 2.0).step_values(u)

    def test_kernel_decided_at_dt_max(self):
        # dt = DT_MAX is the last IMEX step (no Newton iteration), the next
        # double up is backward Euler
        stepper = Stepper(200, 0.05, DT_MAX)
        u = np.linspace(1.0, 0.0, 200)
        stepper.step_values(u)
        assert stepper.newton_iterations == 0
        stepper.set_dt(np.nextafter(DT_MAX, math.inf))
        stepper.step_values(u)
        assert stepper.newton_iterations > 0

    def test_factor_failure_raises_from_both_kernels(self):
        # the one dpttrf call and its check serve the IMEX factor in set_dt
        # and every Newton iteration: a failed factorization stops either
        stepper = Stepper(200, 0.05, 0.01)
        stepper._dpttrf = lambda d, e: (d, e, 1)
        with pytest.raises(NumericsError, match="dpttrf"):
            stepper.set_dt(0.1)
        stepper.set_dt(2.0)  # Newton factors per iteration, not here
        with pytest.raises(NumericsError, match="dpttrf"):
            stepper.step_values(np.linspace(1.0, 0.0, 200))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sim, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NumericsError, match="did not converge"):
            simulate(SimConfig(k=-2.0, t_end=700.0, dxi=0.1, dt=0.1))

    def test_no_subnormal_in_the_newton_diagonal_on_critical_grid(self):
        # the diagonal's term 2 s v, s = dt m e^{-xi}: s is flushed to 0
        # where it leaves the normal range, and on the critical grid the
        # graded cells are too coarse there for s v to be subnormal, for
        # the datum and for the states Newton steps reach
        stepper = config_stepper(CRITICAL)
        ub = init_front_data_weighted(CRITICAL)
        tiny = np.finfo(float).tiny
        for dt in (2.0, 50.0, 500.0):
            stepper.set_dt(dt)
            s = stepper._s
            for v in (ub, stepper.step_weighted(ub, ub)):
                sv = s * v[1:-1]
                assert not np.any((sv != 0.0) & (sv < tiny)), dt
            assert not np.any((s != 0.0) & (s < tiny)), dt
            assert s[0] > 0.0 and s[-1] == 0.0


class TestStencil:
    @pytest.mark.parametrize("h", [0.025, 0.05, 0.1, 0.2])
    def test_weight_free_of_cancellation(self, h):
        # rho = 2(cosh h - 1)/h^2 against its Taylor series; the cosh h - 1
        # form is off by ~3e-14 at h = 0.05
        rho = _stencil_rho(h)
        series = 1.0 + h**2 / 12 + h**4 / 360 + h**6 / 20160 + h**8 / 1814400 + h**10 / 239500800
        assert abs(rho / series - 1.0) <= 2e-15


class TestGradedGrid:
    def test_nodes(self):
        cfg = CRITICAL
        x, n = cfg.nodes(), cfg.n_uniform
        np.testing.assert_array_equal(x[:n], cfg.xi_min + cfg.dxi * np.arange(n))
        assert x[n - 1] == XI_GRADE and x.size == cfg.n_nodes == 1327
        h = np.diff(x[n - 1:])
        np.testing.assert_allclose(h, cfg.dxi * (1.0 + GRADE) ** np.arange(1, h.size + 1),
                                   rtol=1e-12)
        assert x[-2] < cfg.xi_max <= x[-1]
        # up to XI_GRADE the grid is today's uniform one, end node included
        for xi_max in (XI_GRADE, 55.03):
            small = small_config(xi_max=xi_max, t_end=1.0)
            assert small.n_nodes == small.n_uniform == int(round((xi_max + 40.0) / 0.05)) + 1

    def test_zero_and_marginal_mode_exact_on_every_node(self):
        stepper = Stepper(200, 0.05, 0.01, far=_graded(9.95, 0.05, 60))
        assert np.all(stepper.step_values(np.zeros(stepper.n)) == 0.0)
        # at xi >= 750 the sink is 0: a step is the bare linear solve
        _assert_constant_invariant(200, 0.05, DT_MAX, far=_graded(759.95, 0.05, 60))

    def test_second_difference_of_exp(self):
        # (D e^{xi}) / e^{xi} in the flux form: 1 to rounding on the uniform
        # rows, at least 1 from the last uniform node on (h+ >= h-)
        stepper = config_stepper(CRITICAL)
        n = CRITICAL.n_uniform
        cells = np.diff(stepper.xi)
        cells[: n - 1] = CRITICAL.dxi
        k = stepper._k
        ratio = (k[1:] * np.expm1(cells[1:]) + k[:-1] * np.expm1(-cells[:-1])) / stepper._m
        assert np.all(np.abs(ratio[: n - 2] - 1.0) <= 1e-11)
        assert np.all(ratio[n - 2:] >= 1.0) and ratio[n - 1] > 1.002

    def test_one_is_an_equilibrium_only_on_the_uniform_part(self):
        # u = 1 up to the last uniform node and the marginal mode past it:
        # u falls off near the junction as a front would, and over t = 1
        # that reaches 1.3e-12 at xi = 40, so u stays 1 on xi <= 30; u = 1
        # on the graded cells grows and trips the guard
        stepper = config_stepper(SimConfig(k=0.0, t_end=2000.0, dxi=0.1, dt=0.1))
        ub = np.minimum(np.exp(stepper.xi), math.exp(XI_GRADE))
        for _ in range(10):
            ub = stepper.step_weighted(ub)
        u = stepper.to_linear(ub)
        np.testing.assert_allclose(u[stepper.xi <= XI_GRADE - 30.0], 1.0, rtol=0.0, atol=1e-12)
        assert stepper.clamp_total == 0.0
        with pytest.raises(NumericsError, match="instability"):
            stepper.step_values(np.ones(stepper.n))

    def test_one_is_an_equilibrium_only_where_the_sink_is_normal(self):
        # uniform grid to xi = 705: dt e^{-xi} is normal up to xi ~ 706.1 at
        # dt = 0.1, but only up to ~ 701.5 at dt = 1e-3, where the sink
        # reads 0 on nodes with u = 1 still visible
        stepper = Stepper(7651, 0.1, 0.1, xi0=-60.0)
        ub = stepper.to_weighted(np.ones(stepper.n))
        for _ in range(100):
            ub = stepper.step_weighted(ub)
        np.testing.assert_allclose(stepper.to_linear(ub), 1.0, rtol=0.0, atol=1e-12)
        stepper.set_dt(1e-3)
        with pytest.raises(NumericsError, match="instability"):
            stepper.step_values(np.ones(stepper.n))

    @pytest.mark.parametrize("kw,t_min,tol", [
        (dict(k=3.0, t_end=500.0, levels=(0.1, 0.5)), 20.0, 1e-3),
        (dict(k=-2.0, t_end=2000.0, dxi=0.1, dt=0.1), 100.0, 1e-3),
    ])
    def test_graded_agrees_with_uniform(self, kw, t_min, tol, monkeypatch):
        # against the uniform grid over the same domain: levels within 1e-3
        # (2.0e-4 measured for both) and r_hat / kappa within tol (4.6e-5 and
        # 3.7e-4 measured).  rho(h)-fitted weights on the graded cells, the
        # negative control, move them by 0.024-0.038 and 8.8e-3 / 0.031.
        cfg = SimConfig(**kw)
        fit = fit_critical if cfg.k == -2.0 else fit_log_correction

        def run():
            res = simulate(cfg)
            return res.traces, fit(res.traces[0.5], t_min).r_hat

        def shifts(traces, est):
            moved = max(np.max(np.abs(traces[m].positions - uniform[m].positions))
                        for m in cfg.levels)
            return moved, abs(est - est_uniform)

        graded, est_graded = run()
        with monkeypatch.context() as patch:
            patch.setattr(sim, "XI_GRADE", math.inf)
            assert cfg.n_nodes == cfg.n_uniform > 2500
            uniform, est_uniform = run()
        moved, drift = shifts(graded, est_graded)
        assert moved <= 1e-3 and drift <= tol

        init = Stepper.__init__

        def rho_fitted(self, n, dxi, dt, xi0=0.0, far=()):
            init(self, n, dxi, dt, xi0, far)
            self._k[n - 1:] /= [_stencil_rho(h) for h in np.diff(self.xi[n - 1:])]
            self.set_dt(dt)

        monkeypatch.setattr(Stepper, "__init__", rho_fitted)
        moved, drift = shifts(*run())
        assert moved > 10 * 1e-3 and drift > 5 * tol


class TestExtractLevel:
    def test_exact_on_pure_exponential(self):
        xi = 0.05 * np.arange(400)
        g = GridFunction(0.0, 0.05, np.exp(-xi))
        m = math.exp(-3.0)
        np.testing.assert_allclose(extract_level(g, 0.0, m), 3.0, atol=1e-12)
        np.testing.assert_allclose(extract_level(g, 7.0, m), 3.0 + 14.0, atol=1e-12)

    def test_tanh_midpoint(self):
        dxi = 0.05
        xi = -20.0 + dxi * np.arange(800)
        g = GridFunction(-20.0, dxi, 0.5 * (1.0 - np.tanh(xi / 2.0)))
        assert abs(extract_level(g, 0.0, 0.5)) <= dxi

    def test_level_ordering_on_simulated_state(self):
        cfg = small_config(k=1.0, t_end=30.0, snapshot_times=(30.0,))
        res = simulate(cfg)
        snap = res.snapshots[30.0]
        x_01 = extract_level(snap, 30.0, 0.1)
        x_05 = extract_level(snap, 30.0, 0.5)
        assert x_01 > x_05

    def test_not_attained(self):
        g = GridFunction(0.0, 0.05, 1e-6 * np.exp(-0.05 * np.arange(100)))
        with pytest.raises(LevelNotAttainedError):
            extract_level(g, 0.0, 0.5)

    def test_crossing_past_the_uniform_part_is_not_attained(self):
        # datum u0 = min(1, A e^{-xi}), A = e^{XI_GRADE} / 2, the marginal
        # mode through 1/2 at XI_GRADE.  At t = 1 a uniform grid puts the
        # 0.5 crossing at xi = 59.04 and the 0.1 crossing at 61.44, past
        # the uniform part of the graded grid
        kw = dict(k=0.0, amplitude=0.5 * math.exp(XI_GRADE), xi_max=130.0, t_end=1.0)
        inside = simulate(small_config(**kw, levels=(0.5,))).traces[0.5].positions[-1]
        assert abs(inside - 2.0 - 59.04) < 0.01
        with pytest.raises(LevelNotAttainedError):
            simulate(small_config(**kw, levels=(0.1,)))


class TestDiscreteResidual:
    def test_traveling_wave_richardson(self):
        # the minimal wave U is steady in the co-moving frame, so one step's
        # defect max |u+ - U| / dt is the scheme's residual on U; halving
        # (dxi, dt) must cut it to about a quarter (second-order consistency)
        wave = minimal_wave()

        def residual_at(dxi, dt):
            n = int(round(80.0 / dxi)) + 1
            xi = -40.0 + dxi * np.arange(n)
            vals = wave(np.clip(xi, wave.z0, wave.z_max))
            step = Stepper(n, dxi, dt, xi0=-40.0).step_values(vals)
            # keep clear of the constant extensions beyond the sampled profile
            inner = (xi >= -25.0) & (xi <= 35.0)
            return np.max(np.abs(step - vals)[inner]) / dt

        coarse = residual_at(0.05, 0.01)
        fine = residual_at(0.025, 0.005)
        assert fine <= 0.35 * coarse


def _monotone_pair(rng, n):
    a = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    b = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    for arr in (lo, hi):
        arr[0] = 1.0
        arr[-1] = 0.0
    return lo.copy(), hi.copy()


def _pairs_stay_ordered(dt, steps):
    """Whether 20 ordered monotone pairs on a graded stepper (240 uniform
    nodes, 40 graded cells, h up to 0.35) stay ordered to 1e-12 over `steps`
    steps of size dt; a step that fails the range guard counts as a
    failure."""
    rng = np.random.default_rng(5)
    stepper = Stepper(240, 0.05, dt, far=_graded(11.95, 0.05, 40))
    for _ in range(20):
        lo, hi = _monotone_pair(rng, stepper.n)
        try:
            for _step in range(steps):
                lo = stepper.step_values(lo)
                hi = stepper.step_values(hi)
        except NumericsError:
            return False
        if np.min(hi - lo) < -1e-12:
            return False
    return True


class TestComparisonPrinciple:
    def test_fifty_random_ordered_pairs_for_1000_steps(self):
        # dt = DT_MAX is where the grown schedule ends up; the sink is still
        # monotone there (dt max u <= 1/2).  Criterion 9 runs the same check
        # at dt = 0.01.
        rng = np.random.default_rng(20260808)
        n = 240
        stepper = Stepper(n, 0.05, DT_MAX)
        for _ in range(50):
            lo, hi = _monotone_pair(rng, n)
            for _step in range(1000):
                lo = stepper.step_values(lo)
                hi = stepper.step_values(hi)
            assert np.min(hi - lo) >= -1e-12

    def test_ordered_pairs_stay_ordered_on_graded_cells(self):
        assert _pairs_stay_ordered(DT_MAX, 1000)

    def test_monotone_data_stays_monotone(self):
        cfg = small_config(k=0.0, t_end=5.0)
        stepper = config_stepper(cfg)
        u = init_front_data(cfg).values
        assert np.all(np.diff(u) <= 1e-12)
        for _ in range(500):
            u = stepper.step_values(u)
        assert np.all(np.diff(u) <= 1e-12)


class TestTranslationCovariance:
    def test_ten_cell_shift_moves_levels_exactly(self):
        cfg = small_config(k=0.0, t_end=20.0)
        stepper = config_stepper(cfg)
        a = init_front_data(cfg).values
        b = np.concatenate([np.ones(10), a[:-10]])
        out_times = (5.0, 10.0, 20.0)
        t = 0.0
        checks = 0
        while t < 20.0 - 1e-9:
            a = stepper.step_values(a)
            b = stepper.step_values(b)
            t += cfg.dt
            if any(abs(t - ot) < 1e-9 for ot in out_times):
                xa = extract_level(GridFunction(cfg.xi_min, cfg.dxi, a), t, 0.5)
                xb = extract_level(GridFunction(cfg.xi_min, cfg.dxi, b), t, 0.5)
                np.testing.assert_allclose(xb - xa, 10 * cfg.dxi, atol=1e-9)
                checks += 1
        assert checks == len(out_times)


class TestSimulate:
    def test_deterministic_and_bounded(self):
        cfg = small_config(k=0.0, t_end=25.0, levels=(0.1, 0.5), snapshot_times=(25.0,))
        r1 = simulate(cfg)
        r2 = simulate(cfg)
        for m in cfg.levels:
            np.testing.assert_array_equal(r1.traces[m].positions, r2.traces[m].positions)
            np.testing.assert_array_equal(r1.traces[m].times, r2.traces[m].times)
        snap = r1.snapshots[25.0]
        assert snap.values.min() >= 0.0 and snap.values.max() <= 1.0

    def test_trace_times_geometric(self):
        cfg = small_config(k=1.0, t_end=50.0)
        res = simulate(cfg)
        t = res.traces[0.5].times
        assert t[0] == pytest.approx(1.0, abs=cfg.dt)
        ratios = t[1:-1] / t[:-2]  # last sample is t_end, off the ladder
        assert np.all(ratios <= 1.21)
        assert np.all(ratios >= 1.19)

    def test_front_moves_at_speed_two_plus_drift(self):
        cfg = small_config(k=1.0, t_end=50.0)
        res = simulate(cfg)
        tr = res.traces[0.5]
        mask = tr.times >= 10.0
        speeds = np.diff(tr.positions[mask]) / np.diff(tr.times[mask])
        assert np.all(np.abs(speeds - 2.0) < 0.2)

    @pytest.mark.parametrize("kw,ln_a", [
        (dict(xi_max=50.0, t_end=1.0), 30.0),  # uniform: u = 5.3e-9 at that node
        (dict(t_end=10.0), 59.9),  # graded: the datum at the barrier e^{XI_GRADE}
    ])
    def test_boundary_alarm_fires_on_tail_mass_at_the_outflow(self, kw, ln_a, caplog):
        # positive control for the guard that production runs must not trip:
        # a datum that puts mass near the right end fires it, the same domain
        # with A = 1 does not
        with caplog.at_level(logging.WARNING, logger="kppfront.sim"):
            assert simulate(SimConfig(k=0.0, amplitude=math.exp(ln_a), **kw)).boundary_alarm
        assert "of the outflow boundary" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kppfront.sim"):
            assert not simulate(SimConfig(k=0.0, **kw)).boundary_alarm
        assert "outflow" not in caplog.text


class TestStepSchedule:
    def test_trace_times_are_the_exact_ladder(self):
        cfg = small_config(k=1.0, t_end=50.0)
        res = simulate(cfg)
        ladder = [1.2**j for j in range(22)]  # 1.2^21 = 46.0 < 50 < 1.2^22
        expected = np.array(ladder + [50.0])
        for trace in res.traces.values():
            np.testing.assert_array_equal(trace.times, expected)

    def test_snapshot_sits_at_its_exact_time(self):
        # off every multiple of dt; up to ts the two runs stop at the same
        # times, so the snapshot is bit for bit the state at t_end = ts
        ts = 7.1234
        cfg = small_config(k=0.0, t_end=12.0, snapshot_times=(0.0, ts))
        snap = simulate(cfg).snapshots
        assert sorted(snap) == [0.0, ts]
        np.testing.assert_array_equal(snap[0.0].values, init_front_data(cfg).values)
        direct = simulate(small_config(k=0.0, t_end=ts)).traces[0.5]
        assert direct.times[-1] == ts
        assert extract_level(snap[ts], ts, 0.5) == direct.positions[-1]

    @pytest.mark.parametrize("span,h,n", [
        (3 * 0.1, 0.1, 3),  # (3 * 0.1) / 0.1 rounds to 3.0000000000000004
        (0.25, 0.1, 3),
        (1.0 + 1e-10, DT_MAX, 3),  # two steps would overshoot DT_MAX by 5e-11
    ])
    def test_step_count(self, span, h, n):
        assert _step_count(span, h) == n
        assert span / n <= DT_MAX

    def test_rejects_negative_snapshot_time(self):
        with pytest.raises(DomainError, match="snapshot"):
            small_config(snapshot_times=(-1.0,))

    def test_every_step_within_bound_and_grows_to_it(self, monkeypatch):
        # t_end = 2000 takes the step from dt = 0.1 through 1e-3 t to DT_MAX
        # (IMEX), then past t = 500 to 5e-3 t (backward Euler)
        sizes = []
        original = Stepper.set_dt

        def recording(self, dt):
            sizes.append(dt)
            original(self, dt)

        monkeypatch.setattr(Stepper, "set_dt", recording)
        cfg = SimConfig(k=0.0, xi_min=-20.0, dxi=0.2, dt=0.1, t_end=2000.0)
        res = simulate(cfg)
        grown = sizes[1:]  # the first call is the constructor's config.dt
        stops = sim._output_times(cfg)[1]
        for t_a, dt in zip([0.0] + stops[:-1], grown):
            h = max(cfg.dt, DT_GROWTH * t_a)
            if h <= DT_MAX:
                assert 0.0 < dt <= min(h, DT_MAX) * (1.0 + 1e-9), (t_a, dt)
            else:
                assert DT_MAX < dt <= NEWTON_GROWTH * t_a * (1.0 + 1e-9), (t_a, dt)
        assert res.dt_min == min(grown) and res.dt_max == max(grown)
        assert res.dt_max > 8.0  # 5e-3 t on the last ladder interval, from t = 1750
        assert cfg.dt / 2 < res.dt_min <= cfg.dt  # a short span can halve the step
        # 1000 steps to t = 100, 1000 ln 5.9 to the first ladder time past
        # t = 500 (590.7), 200 ln(2000 / 590.7) = 244 backward Euler, each
        # interval's count rounded up: 2,955 IMEX steps and 267 Newton steps
        assert 3000 < res.n_steps < 3500
        assert res.newton_iterations >= 267 and res.newton_iterations_max >= 1
