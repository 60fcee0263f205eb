"""Minimal wave and damped-profile construction, tails, residuals."""

import math

import numpy as np
import pytest

from kppfront import (
    DomainError,
    NumericsError,
    minimal_wave,
    ode_residual,
    phi_gamma,
    waves,
)
from kppfront.waves import _rk4_wave


@pytest.fixture(scope="module")
def wave():
    return minimal_wave()


@pytest.fixture()
def rebuilt_wave(monkeypatch, wave):
    """Build the minimal wave again from patched module constants.  The cache
    is cleared before and after, so the patched profile never reaches a later
    caller and the production one is never handed back here."""

    def build(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(waves, name, value)
        minimal_wave.cache_clear()
        return minimal_wave()

    yield build
    minimal_wave.cache_clear()


@pytest.fixture()
def rebuilt_unit_orbit(monkeypatch):
    """Route the next build of the gamma = 1 orbit through a patched
    integrator.  Both caches are cleared before and after, so no patched
    profile reaches a later caller."""

    def build(integrator):
        monkeypatch.setattr(waves, "_rk4_wave", integrator)
        waves._unit_orbit.cache_clear()
        phi_gamma.cache_clear()

    yield build
    waves._unit_orbit.cache_clear()
    phi_gamma.cache_clear()


class TestMinimalWave:
    def test_half_crossing_at_origin(self, wave):
        i0 = int(round((0.0 - wave.z0) / wave.dz))
        assert abs(wave.values[i0] - 0.5) <= 1e-9
        assert abs(wave(0.0) - 0.5) <= 1e-9

    def test_strictly_decreasing(self, wave):
        assert np.all(np.diff(wave.values) < 0.0)
        assert np.all(wave.dvalues < 0.0)

    def test_range(self, wave):
        assert wave.values.min() > 0.0
        assert wave.values.max() < 1.0

    def test_ode_residual(self, wave):
        assert ode_residual(wave) <= 1e-8

    def test_tail_ratio_convergence(self, wave):
        # the subleading (B z + C) e^{-z} term has C ~ -3.4 B for this
        # normalization, so 2% point agreement needs z >= ~45
        z = wave.grid()
        i45 = int(round((45.0 - wave.z0) / wave.dz))
        i55 = int(round((55.0 - wave.z0) / wave.dz))
        r45 = wave.values[i45] * math.exp(z[i45]) / z[i45]
        r55 = wave.values[i55] * math.exp(z[i55]) / z[i55]
        assert abs(r55 - r45) / r55 <= 0.02

    def test_translation_consistency(self, wave, rebuilt_wave):
        # a start amplitude delta e^{-mu s} launches the same orbit s units
        # further right; recentred on its 1/2-crossing it is the same wave
        delta = waves._START_AMPLITUDE
        zs = np.linspace(-25.0, 45.0, 7001)
        for s in (5.0, -3.0):
            other = rebuilt_wave(_START_AMPLITUDE=delta * math.exp(-waves.MU_UNSTABLE * s))
            assert abs((wave.z0 - other.z0) - s) <= 1e-4
            assert np.max(np.abs(other(zs) - wave(zs))) <= 1e-8

    def test_wave_launched_once(self, rebuilt_wave):
        # recentring translates the grid; the orbit is integrated once
        launches = []

        def counted(*args):
            launches.append(args)
            return _rk4_wave(*args)

        assert abs(rebuilt_wave(_rk4_wave=counted)(0.0) - 0.5) <= 1e-9
        assert len(launches) == 1

    def test_start_amplitude_fits_the_window(self, wave):
        # _START_AMPLITUDE puts the crossing -WAVE_Z_MIN past the first
        # sample; a new PROFILE_DZ or WAVE_Z_MIN needs a new amplitude
        assert abs(wave.z0 - waves.WAVE_Z_MIN) <= 1e-9


class TestPhiGamma:
    def test_initial_values(self):
        for g in (2.0, math.exp(2.0)):
            p = phi_gamma(g)
            assert p.values[0] == 0.5 / g
            assert p.dvalues[0] == 0.0

    def test_monotone_decay_and_log_slope(self):
        p = phi_gamma(2.0)
        assert np.all(p.dvalues[1:] < 0.0)
        assert np.all(p.dvalues[1:] / p.values[1:] >= -1.0 - 1e-12)

    @pytest.mark.parametrize("g", [2.0, math.exp(2.0)])
    def test_scaling_identity_to_gamma_one(self, g):
        # phi_gamma is phi_1 / gamma by construction; integrating its own
        # equation from (1/(2 gamma), 0) is the independent route, and the
        # two differ only by rounding (about 1e-13 relative)
        p = phi_gamma(g)
        direct, _ = _rk4_wave(0.5 / g, 0.0, len(p.values) - 1, p.dz, g)
        assert g * np.max(np.abs(p.values - direct)) <= 1e-10

    def test_one_orbit_for_every_gamma(self, rebuilt_unit_orbit):
        launches = []

        def counted(*args):
            launches.append(args)
            return _rk4_wave(*args)

        rebuilt_unit_orbit(counted)
        for g in (1.5, math.exp(2.0)):
            p = phi_gamma(g)
            unit_vals, unit_dvals = waves._unit_orbit()
            assert np.array_equal(p.values, unit_vals / g)
            assert np.array_equal(p.dvalues, unit_dvals / g)
        assert len(launches) == 1

    def test_unit_orbit_checks_reach_every_gamma(self, rebuilt_unit_orbit):
        # phi' >= 0 at one node (z = 20) of the gamma = 1 orbit: the checks
        # run there once, and phi_gamma must not hand out a profile scaled
        # from it
        def bumped(*args):
            vals, dvals = _rk4_wave(*args)
            dvals[int(round(20.0 / waves.PROFILE_DZ))] = 1e-9
            return vals, dvals

        rebuilt_unit_orbit(bumped)
        with pytest.raises(NumericsError, match="negative"):
            phi_gamma(3.25)


    def test_gamma_one_orbit_distinct_from_wave_but_tail_equivalent(self, wave):
        # phi_1 launches flat at height 1/2 while the wave crosses 1/2 with
        # negative slope: distinct phase-plane orbits that share the
        # (B z + C) e^{-z} tail family, so a shift matching the tail constants
        # aligns them far out
        phi1, dphi1 = _rk4_wave(0.5, 0.0, int(round(55.0 / 1e-3)), 1e-3, 1.0)
        assert dphi1[0] == 0.0
        assert wave.derivative(0.0) < -0.05
        assert abs(phi1[1000] - wave(1e-3 * 1000)) > 1e-3  # near z = 1 they differ
        z = 1e-3 * np.arange(phi1.size)
        m = z >= 45.0
        b_phi1 = float(np.mean(phi1[m] * np.exp(z[m]) / z[m]))
        zw = wave.grid()
        w = zw >= wave.z_max - 10.0
        b_wave = float(np.mean(wave.values[w] * np.exp(zw[w]) / zw[w]))
        shift = math.log(b_phi1 / b_wave)
        zz = z[m]
        assert np.max(np.abs(phi1[m] - wave(zz + shift))) <= 1e-6

    def test_requires_gamma_above_one(self):
        with pytest.raises(DomainError):
            phi_gamma(1.0)

    def test_rejects_infinite_gamma(self):
        # phi_1 / inf would be a profile of zeros
        with pytest.raises(DomainError):
            phi_gamma(math.inf)

    def test_residual(self):
        assert ode_residual(phi_gamma(2.0)) <= 1e-8


def _profiles_from(**constants):
    """minimal_wave() and phi_gamma(e^2) built from patched module constants.
    The caches are cleared before and after, so neither profile reaches
    another caller."""
    caches = (minimal_wave, waves._unit_orbit, phi_gamma)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(waves, name, value)
        for cache in caches:
            cache.cache_clear()
        try:
            return minimal_wave(), phi_gamma(math.exp(2.0))
        finally:
            for cache in caches:
                cache.cache_clear()


class TestGridConvergence:
    """The profiles on PROFILE_DZ against RK4 at dz = 1e-3, on the 1e-3
    nodes of z in [-25, 45] (phi_gamma: [0, 45])."""

    FINE_DZ = 1e-3
    FINE_AMPLITUDE = 3.3085967671439886e-06  # _START_AMPLITUDE found for 1e-3

    @pytest.fixture(scope="class")
    def fine(self):
        wave, _ = _profiles_from(PROFILE_DZ=self.FINE_DZ, _START_AMPLITUDE=self.FINE_AMPLITUDE)
        z = wave.grid()
        keep = (z >= -25.0) & (z <= 45.0)
        g = math.exp(2.0)
        n = int(round(45.0 / self.FINE_DZ))
        phi, _ = _rk4_wave(0.5 / g, 0.0, n, self.FINE_DZ, g)
        return z[keep], wave.values[keep], self.FINE_DZ * np.arange(n + 1), phi

    @staticmethod
    def gaps(fine, wave, phi):
        zw, uw, zp, up = fine
        return np.max(np.abs(wave(zw) - uw)), np.max(np.abs(phi(zp) - up))

    def test_profiles_match_a_fine_integration(self, fine, wave):
        # measured: U 2.7e-14; phi_gamma(e^2) 1.1e-13 at z = 0.5, where
        # phi'' is largest (RK4's own error on the 4e-3 grid: an integration
        # of phi_gamma's equation at 4e-3 is off by the same amount there)
        wave_gap, phi_gap = self.gaps(fine, wave, phi_gamma(math.exp(2.0)))
        assert wave_gap <= 1e-13
        assert phi_gap <= 2e-13

    def test_a_coarser_grid_fails(self, fine):
        # negative control: at dz = 1e-2 the gaps are 9.6e-13 and 4.2e-12
        wave_gap, phi_gap = self.gaps(fine, *_profiles_from(PROFILE_DZ=1e-2))
        assert wave_gap > 1e-13
        assert phi_gap > 2e-13


class TestCachedProfilesReadOnly:
    def test_writes_raise(self, wave):
        # the lru_cache hands the same profile to every caller
        for profile in (wave, phi_gamma(2.0)):
            for arr in (profile.values, profile.dvalues):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
