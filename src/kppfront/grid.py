"""Uniform 1-D grid samples of real functions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GridFunction:
    """A real function sampled on a uniform grid: node i sits at xi0 + i*dxi."""

    xi0: float
    dxi: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("GridFunction needs a 1-D array with at least 2 values")
        if not self.dxi > 0.0:
            raise ValueError("grid spacing must be positive")

    def grid(self) -> np.ndarray:
        return self.xi0 + self.dxi * np.arange(self.values.size)
