"""Transmitter lifespan models.

A transmitter holds its position for a random lifespan and then vanishes
from the receiver's perspective (sudden displacement). A download succeeds
only if it completes within the serving transmitter's lifespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedLifespan:
    mean: float

    def __post_init__(self):
        if not 0 < self.mean < math.inf:
            raise ValueError("lifespan must be finite and positive")


@dataclass(frozen=True)
class ExponentialLifespan:
    """Exponential lifespan with the given mean (rate 1/mean)."""

    mean: float

    def __post_init__(self):
        if not 0 < self.mean < math.inf:
            raise ValueError("mean lifespan must be finite and positive")


LifespanLaw = FixedLifespan | ExponentialLifespan


def sample_lifespan(law: LifespanLaw, rng: np.random.Generator, size=None):
    """Draw lifespans in seconds (scalar or array of `size`)."""
    if isinstance(law, FixedLifespan):
        return np.full(size, law.mean) if size is not None else law.mean
    if isinstance(law, ExponentialLifespan):
        return rng.exponential(law.mean, size=size)
    raise TypeError(f"unknown lifespan law {law!r}")
