"""Transmitter lifespan models.

A transmitter holds its position for a random lifespan and then vanishes
from the receiver's perspective (sudden displacement). A download succeeds
only if it completes within the serving transmitter's lifespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .content import check_real


@dataclass(frozen=True)
class FixedLifespan:
    mean: float

    def __post_init__(self):
        check_real("mean", self.mean, 0, math.inf)


@dataclass(frozen=True)
class ExponentialLifespan:
    """Exponential lifespan with the given mean (rate 1/mean)."""

    mean: float

    def __post_init__(self):
        check_real("mean", self.mean, 0, math.inf)


LifespanLaw = FixedLifespan | ExponentialLifespan


def sample_lifespan(law: LifespanLaw, rng: np.random.Generator, size=None):
    """Draw lifespans in seconds (scalar or array of `size`)."""
    if isinstance(law, FixedLifespan):
        return np.full(size, law.mean) if size is not None else law.mean
    if isinstance(law, ExponentialLifespan):
        return rng.exponential(law.mean, size=size)
    raise TypeError(f"unknown lifespan law {law!r}")
