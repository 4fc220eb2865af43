"""Planar Poisson point process sampling around a receiver at the origin."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Window:
    """Axis-aligned square observation window centered on the origin.

    half_width is in meters, so the window covers
    [-half_width, half_width] x [-half_width, half_width].
    """

    half_width: float

    def __post_init__(self):
        if not math.isfinite(self.half_width) or self.half_width <= 0:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")

    @property
    def area(self) -> float:
        return (2.0 * self.half_width) ** 2


def sample_ppp(density: float, window: Window, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw one homogeneous Poisson point process realization.

    Returns an (n, 2) array of coordinates in meters: the count n is
    Poisson(density * area) and positions are i.i.d. uniform over the
    window. With density 0 the array is empty. The draws are the count,
    then the coordinates, from rng.
    """
    if not math.isfinite(density) or density < 0:
        raise ValueError(f"density must be finite and nonnegative, got {density}")
    rng = np.random.default_rng() if rng is None else rng
    n = rng.poisson(density * window.area)
    return rng.uniform(-window.half_width, window.half_width, size=(n, 2))
