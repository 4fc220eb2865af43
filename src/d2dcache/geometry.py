"""Planar Poisson point process sampling around a receiver at the origin."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .content import check_real, check_reals


@dataclass(frozen=True)
class Window:
    """Observation window: the simulation disc never exceeds half_width meters."""

    half_width: float

    def __post_init__(self):
        check_real("half_width", self.half_width, 0, math.inf)


def sample_disc(intensity, radius, rng: np.random.Generator):
    """Distances to the origin of independent Poisson fields on discs.

    Field i is a homogeneous Poisson point process of intensity[i] points
    per square meter on the disc of radius[i] meters around the origin
    (both broadcast to one dimension). Only distances matter to a receiver
    at the origin, so no angles are drawn. The draws are the counts,
    Poisson(intensity * pi * radius^2) per field (none at intensity 0,
    whatever the radius; ValueError past what numpy can draw), then one
    uniform U per point, placed at radius * sqrt(1 - U): uniform over the
    disc's area and never at the origin. Returns (owner, distance), one
    entry per point, grouped by field in index order.
    """
    intensity = np.atleast_1d(check_reals("intensity", intensity, 0, math.inf, "[)"))
    intensity, radius = np.broadcast_arrays(intensity, check_reals("radius", radius, 0, math.inf, "[)"))
    with np.errstate(over="ignore"):  # a mean past the float range is inf, refused below
        r = np.where(intensity > 0, radius, 0.0)
        # left to right, so that a tiny intensity scales r before r^2 overflows
        mean = intensity * math.pi * r * r
    try:
        counts = rng.poisson(mean)
    except ValueError:
        i = mean.argmax()
        raise ValueError(f"intensity={intensity[i]:g} and radius={radius[i]:g} give too many points to draw") from None
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, radius[owner] * np.sqrt(1.0 - rng.random(owner.size))
