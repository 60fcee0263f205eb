"""Desk-scale laboratory for Fisher-KPP front drift laws.

Submodules: special (self-similar profile machinery), waves (minimal wave and
damped profiles), sim (co-moving IMEX and
backward-Euler solver), frontfit (drift-law fits and
wave distance), ansatz (sub/super-solution certificates), heatkernel (linear
heat quadrature), cli (command-line front end).
"""

__version__ = "0.1.0"

from .errors import DomainError, LevelNotAttainedError, NumericsError
from .grid import GridFunction
from .special import (
    w_asymptotic_constant,
    w_eval,
    w_ode_oracle,
    w_prime_eval,
)
from .waves import WaveProfile, minimal_wave, ode_residual, phi_gamma
from .sim import (
    FrontTrace,
    SimConfig,
    SimResult,
    extract_level,
    load_config,
    simulate,
)
from .frontfit import FitResult, fit_critical, fit_log_correction, wave_distance
from .report import VerificationReport

__all__ = [
    "DomainError",
    "FitResult",
    "FrontTrace",
    "GridFunction",
    "LevelNotAttainedError",
    "NumericsError",
    "SimConfig",
    "SimResult",
    "VerificationReport",
    "WaveProfile",
    "extract_level",
    "fit_critical",
    "fit_log_correction",
    "load_config",
    "minimal_wave",
    "ode_residual",
    "phi_gamma",
    "simulate",
    "w_asymptotic_constant",
    "w_eval",
    "w_ode_oracle",
    "w_prime_eval",
    "wave_distance",
]
