"""Content catalogue: Zipf popularity and file-size distributions.

Sizes are always in bits. Each size law exposes its inverse CDF, through
which catalogue sampling, the simulator's order statistics and the
size-expectation quadrature all map uniforms to sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, ndtri

# How sizes are assigned to popularity ranks: as drawn, or sorted so that
# size increases (decreases) from the most popular object down.
ORDERING_MODES = ("independent", "increasing", "decreasing")

_U_EPS = 1e-15  # keeps inverse CDFs strictly inside the law's support
_REALS = (int, float, np.integer, np.floating)  # what check_real accepts, bools aside


@dataclass(frozen=True)
class PopularityLaw:
    """Request probabilities a_j of F objects, nonincreasing in rank j."""

    F: int
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", check_reals("a", self.a, 0, 1, "[]"))
        if self.a.shape != (self.F,):
            raise ValueError(f"need one probability per object: F={self.F!r}, a has shape {self.a.shape}")
        if not abs(float(self.a.sum()) - 1.0) <= 1e-12:
            raise ValueError("popularity vector must sum to 1")
        if not np.all(np.diff(self.a) <= 0):
            raise ValueError("popularity vector must be nonincreasing")


def zipf_popularity(F: int, gamma: float) -> PopularityLaw:
    """Build the Zipf popularity vector for a catalogue of F >= 2 objects."""
    check_integer("F", F, 2)
    check_real("gamma", gamma, 0, math.inf, "[)")
    ranks = np.arange(1, F + 1, dtype=float)
    weights = ranks ** (-gamma)
    a = weights / weights.sum()
    return PopularityLaw(F=F, a=a)


def _clip_unit(u):
    return np.clip(u, _U_EPS, 1.0 - _U_EPS)


@dataclass(frozen=True)
class UniformSize:
    z_min: float
    z_max: float

    def __post_init__(self):
        check_real("z_max", self.z_max, 0, math.inf)
        # z_min == z_max is allowed: a point mass at a single size
        check_real("z_min", self.z_min, 0, self.z_max, "(]")

    def inverse_cdf(self, u):
        return self.z_min + (self.z_max - self.z_min) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class ExponentialSize:
    rate: float

    def __post_init__(self):
        check_real("rate", self.rate, 0, math.inf)

    def inverse_cdf(self, u):
        return -np.log1p(-_clip_unit(u)) / self.rate


@dataclass(frozen=True)
class ParetoSize:
    shape: float
    scale: float

    def __post_init__(self):
        check_real("shape", self.shape, 0, math.inf)
        check_real("scale", self.scale, 0, math.inf)

    def inverse_cdf(self, u):
        return self.scale * (1.0 - _clip_unit(u)) ** (-1.0 / self.shape)


@dataclass(frozen=True)
class WeibullSize:
    scale: float
    shape: float

    def __post_init__(self):
        check_real("scale", self.scale, 0, math.inf)
        check_real("shape", self.shape, 0, math.inf)

    def inverse_cdf(self, u):
        return self.scale * (-np.log1p(-_clip_unit(u))) ** (1.0 / self.shape)


@dataclass(frozen=True)
class LogNormalSize:
    mu: float
    sigma: float

    def __post_init__(self):
        check_real("mu", self.mu)
        check_real("sigma", self.sigma, 0, math.inf)

    def inverse_cdf(self, u):
        return np.exp(self.mu + self.sigma * ndtri(_clip_unit(u)))


SizeLaw = UniformSize | ExponentialSize | ParetoSize | WeibullSize | LogNormalSize


def sample_sizes(law: SizeLaw, F: int, rng: np.random.Generator) -> np.ndarray:
    """Draw F i.i.d. sizes via the law's inverse CDF."""
    return law.inverse_cdf(rng.random(F))


def mean_size(law: SizeLaw) -> float:
    """Analytic mean of the size law in bits."""
    if isinstance(law, UniformSize):
        return 0.5 * (law.z_min + law.z_max)
    if isinstance(law, ExponentialSize):
        return 1.0 / law.rate
    if isinstance(law, ParetoSize):
        if law.shape <= 1:
            raise ValueError(f"Pareto mean is infinite for shape <= 1 (got {law.shape})")
        return law.scale * law.shape / (law.shape - 1.0)
    if isinstance(law, WeibullSize):
        return law.scale * gamma_fn(1.0 + 1.0 / law.shape)
    if isinstance(law, LogNormalSize):
        return math.exp(law.mu + 0.5 * law.sigma**2)
    raise TypeError(f"unknown size law {law!r}")


@dataclass(frozen=True)
class ContentCatalogue:
    """F objects with fixed popularity and one realized size per object.

    Object j (0-based internally) has request probability popularity.a[j]
    and size sizes[j] bits.
    """

    popularity: PopularityLaw
    sizes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes", check_reals("sizes", self.sizes, 0, math.inf))
        if self.sizes.shape != (self.popularity.F,):
            raise ValueError("need exactly one size per object")

    @property
    def F(self) -> int:
        return self.popularity.F


def check_integer(name: str, value, floor: int) -> None:
    """Raise ValueError unless value is an integer of at least floor; numpy integers count, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < floor:
        rule = {0: "a nonnegative integer", 1: "a positive integer"}.get(floor, f"an integer of at least {floor}")
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _is_real(value, low: float, high: float, ends: str) -> bool:
    finite = isinstance(value, _REALS) and not isinstance(value, bool) and math.isfinite(value)
    above = finite and (low <= value if ends[0] == "[" else low < value)
    return above and (value <= high if ends[1] == "]" else value < high)


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf, ends: str = "()") -> None:
    """Raise ValueError unless value is a finite int or float (numpy's count, bools do not) from low
    to high, each end open or closed as ends writes it: "()", "[)", "(]" or "[]"."""
    if not _is_real(value, low, high, ends):
        raise ValueError(f"{name} must be a finite number in {ends[0]}{low:.12g}, {high:.12g}{ends[1]}, got {value!r}")


def check_reals(name: str, values, low: float = -math.inf, high: float = math.inf, ends: str = "()") -> np.ndarray:
    """values as a float array of any shape once each entry passes check_real. For an int or float ndarray the
    least and greatest entries decide, as the range is an interval and NaN carries through both; anything else,
    where numpy would read True or "1" as 1.0, has each entry checked, and so does a failure, to name the first."""
    array = np.asarray(values)
    if isinstance(values, np.ndarray) and array.dtype.kind in "iuf":
        array = array.astype(float, copy=False)
        if not array.size or (_is_real(array.min(), low, high, ends) and _is_real(array.max(), low, high, ends)):
            return array
    for value in np.asarray(values, dtype=object).flat:
        check_real(name, value, low, high, ends)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be an array of finite numbers, got one of dtype {array.dtype}")
    return array.astype(float, copy=False)


def check_ordering(mode: str) -> None:
    """Raise ValueError for a mode outside ORDERING_MODES."""
    if mode not in ORDERING_MODES:
        raise ValueError(f"unknown ordering mode {mode!r}; expected one of {ORDERING_MODES}")


def order_statistic(mode: str, j, F: int):
    """Rank k, among F sizes sorted ascending, of the size that popularity
    rank j (0-based) gets: j + 1 under increasing, F - j under decreasing,
    None under independent (a plain draw from the law). Its uniform is
    Beta(k, F-k+1) (David & Nagaraja, Order Statistics)."""
    check_ordering(mode)
    if mode == "independent":
        return None
    return j + 1 if mode == "increasing" else F - j


def order_sizes(z, mode: str):
    """Assign size draws to popularity ranks along the last axis of z: rank j
    gets the k-th smallest, k = order_statistic(mode, j, F). So increasing
    gives the most popular object the smallest file, decreasing the largest,
    and independent keeps the drawn order.
    """
    F = np.shape(z)[-1]
    k = order_statistic(mode, np.arange(F), F)
    return z if k is None else np.sort(z, axis=-1)[..., k - 1]
