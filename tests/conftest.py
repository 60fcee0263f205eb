"""Shared fixtures: the expensive production runs are computed once per
session and reused by the acceptance criteria and drift-law tests."""

import numpy as np
import pytest

from kppfront import SimConfig, simulate


@pytest.fixture(scope="session")
def k_runs():
    """Noncritical sweep to t_end = 5000 at default resolution, k in {3,1,0,-1};
    the k = 1 run carries the snapshots used by the wave-convergence checks."""
    runs = {}
    for k in (3.0, 1.0, 0.0, -1.0):
        snaps = (100.0, 300.0, 1000.0) if k == 1.0 else ()
        cfg = SimConfig(k=k, t_end=5000.0, levels=(0.1, 0.5), snapshot_times=snaps)
        runs[k] = simulate(cfg)
    return runs


@pytest.fixture(scope="session")
def critical_run():
    """k = -2 run to t_end = 1e5; the coarser grid and initial step, with the
    step grown like 1e-3 t up to DT_MAX = 1/2 and like 5e-3 t past it
    (backward Euler), keep it to 4,081 steps (about 0.2 s), and the
    weighted scheme's marginal-mode exactness makes the drift measurement
    insensitive to dxi and dt (checked during calibration: kappa moved
    < 0.01 between dt = 0.1 and dt = 0.05; 0.6834 to 0.6868 over Newton
    growth rates 2.5e-3 to 1e-2)."""
    cfg = SimConfig(k=-2.0, t_end=1e5, dxi=0.1, dt=0.1, levels=(0.5,))
    return simulate(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
