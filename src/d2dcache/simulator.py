"""Event-level Monte Carlo estimation of service success probabilities.

Each iteration realizes the full generative model once: a request drawn
from the popularity law, a Poisson field of transmitters, and per
transmitter a cache inventory, a fading value and a lifespan. The request
succeeds if some transmitter both caches the object and can push all of
its bits within the transmitter's lifespan at the Shannon rate of its
link.

Reproducibility contract: iteration i consumes only the stream derived
from (master_seed, spawn_key=(i,)), and estimates combine iteration
results in index order, so results are bit-identical for any parallelism
width and across process boundaries.
"""

from __future__ import annotations

import csv
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticInputs, MetricEstimate, coverage_radius_scale
from .channel import RadioParams, sample_fading
from .content import ORDERING_MODES, SizeLaw, order_sizes
from .geometry import Window, sample_ppp
from .mobility import sample_lifespan

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SimulationConfig:
    """A complete, seeded simulation setup.

    size_law, when set, redraws the catalogue's sizes from the law on
    every iteration and assigns them to popularity ranks per reorder (one
    of content.ORDERING_MODES), which turns the estimate into an
    expectation over file-size realizations as well.
    """

    inputs: AnalyticInputs
    window: Window
    iterations: int
    master_seed: int | tuple = 0
    parallelism: int = 1
    size_law: SizeLaw | None = None
    reorder: str = "independent"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.parallelism < 1:
            raise ValueError("parallelism must be positive")
        if self.reorder not in ORDERING_MODES:
            raise ValueError(f"unknown ordering mode {self.reorder!r}; expected one of {ORDERING_MODES}")


@dataclass(frozen=True)
class ServiceOutcome:
    """Result of one simulated request.

    nearest_m is the distance of the closest transmitter that could have
    served the request (NaN when none exists); success holds exactly when
    n_qualifiers >= 1.
    """

    iteration: int
    requested: int
    success: bool
    n_qualifiers: int
    nearest_m: float

    def __post_init__(self):
        if self.success != (self.n_qualifiers >= 1):
            raise ValueError("success flag inconsistent with qualifier count")


@dataclass
class _IterationDraws:
    """Everything one iteration sampled, with marks for caching nodes only."""

    requested: int
    size_bits: float
    distances: np.ndarray  # all transmitters
    cached: np.ndarray  # bool mask over transmitters
    h: np.ndarray  # fading, one per caching transmitter
    tau: np.ndarray  # lifespan, one per caching transmitter


def _iteration_rng(master_seed, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _draw_sizes(config: SimulationConfig, rng: np.random.Generator) -> np.ndarray:
    if config.size_law is None:
        return config.inputs.catalogue.sizes
    z = config.size_law.inverse_cdf(rng.random(config.inputs.catalogue.F))
    return order_sizes(np.asarray(z), config.reorder)


def _draw_iteration(config: SimulationConfig, rng: np.random.Generator, pinned_object: int | None) -> _IterationDraws:
    """Sample one iteration in a fixed order: request, sizes, field, caches, marks."""
    inputs = config.inputs
    if pinned_object is None:
        cum = np.cumsum(inputs.catalogue.popularity.a)
        j = int(np.searchsorted(cum, rng.random(), side="right"))
    else:
        j = pinned_object
    sizes = _draw_sizes(config, rng)
    pos = sample_ppp(inputs.density, config.window, rng)
    dist = np.hypot(pos[:, 0], pos[:, 1])
    cached = inputs.policy.membership(j, rng.random(dist.size))
    m = int(cached.sum())
    h = np.asarray(sample_fading(inputs.fading, rng, size=m))
    tau = np.asarray(sample_lifespan(inputs.lifespan, rng, size=m))
    return _IterationDraws(requested=j, size_bits=float(sizes[j]), distances=dist, cached=cached, h=h, tau=tau)


def _deliverable(radio: RadioParams, size_bits: float, r: np.ndarray, h: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Which links can move size_bits within their lifespan."""
    r = np.maximum(r, 1e-12)  # a transmitter exactly at the origin has measure zero
    snr = radio.power * h * r ** (-radio.pathloss_exponent) / radio.noise
    bits = tau * radio.bandwidth * np.log1p(snr) / _LN2
    return bits >= size_bits


def run_iteration(config: SimulationConfig, iteration: int, pinned_object: int | None = None) -> ServiceOutcome:
    """Simulate one request; deterministic given (master_seed, iteration)."""
    rng = _iteration_rng(config.master_seed, iteration)
    draws = _draw_iteration(config, rng, pinned_object)
    r_cached = draws.distances[draws.cached]
    ok = _deliverable(config.inputs.radio, draws.size_bits, r_cached, draws.h, draws.tau)
    n_q = int(ok.sum())
    nearest = float(r_cached[ok].min()) if n_q else math.nan
    return ServiceOutcome(
        iteration=iteration, requested=draws.requested, success=n_q >= 1, n_qualifiers=n_q, nearest_m=nearest
    )


def _run_chunk(config: SimulationConfig, lo: int, hi: int, pinned_object: int | None):
    out = [run_iteration(config, i, pinned_object) for i in range(lo, hi)]
    return (
        np.array([o.success for o in out], dtype=bool),
        np.array([o.requested for o in out], dtype=np.int64),
        np.array([o.n_qualifiers for o in out], dtype=np.int64),
        np.array([o.nearest_m for o in out], dtype=float),
    )


def _check_window(config: SimulationConfig) -> None:
    scale = coverage_radius_scale(config.inputs)
    if config.window.half_width < 10.0 * scale:
        warnings.warn(
            f"window half-width {config.window.half_width:.0f} m is within a factor 10 of the "
            f"coverage radius scale {scale:.0f} m; the truncated field may bias estimates low",
            UserWarning,
            stacklevel=3,
        )


def _collect(config: SimulationConfig, pinned_object: int | None):
    n = config.iterations
    if config.parallelism == 1:
        return _run_chunk(config, 0, n, pinned_object)
    bounds = np.linspace(0, n, config.parallelism + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
        parts = list(
            pool.map(
                _run_chunk,
                [config] * config.parallelism,
                bounds[:-1],
                bounds[1:],
                [pinned_object] * config.parallelism,
            )
        )
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(4))


def _estimate(config: SimulationConfig, pinned_object: int | None, outcomes_path) -> MetricEstimate:
    _check_window(config)
    success, requested, n_qual, nearest = _collect(config, pinned_object)
    if outcomes_path is not None:
        with open(outcomes_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iteration", "object", "success", "n_qualifiers", "nearest_m"])
            for i in range(success.size):
                writer.writerow([i, int(requested[i]) + 1, int(success[i]), int(n_qual[i]), repr(float(nearest[i]))])
    p = float(success.mean())
    stderr = math.sqrt(p * (1.0 - p) / success.size)
    return MetricEstimate(value=p, standard_error=stderr, sample_count=int(success.size))


def estimate_total_success(config: SimulationConfig, outcomes_path=None) -> MetricEstimate:
    """Estimate the popularity-averaged success probability.

    Optionally streams per-iteration outcome rows (iteration, object,
    success, n_qualifiers, nearest_m) to a CSV at outcomes_path; the
    object column is the 1-based popularity rank.
    """
    return _estimate(config, None, outcomes_path)


def estimate_per_object_success(config: SimulationConfig, j: int, outcomes_path=None) -> MetricEstimate:
    """Estimate the success probability with every request pinned to object j."""
    if not 0 <= j < config.inputs.catalogue.F:
        raise ValueError(f"object index {j} out of range")
    if config.inputs.policy.b[j] == 0.0:
        return MetricEstimate(value=0.0, standard_error=0.0, sample_count=0)
    return _estimate(config, j, outcomes_path)


def required_half_width(inputs: AnalyticInputs, safety: float = 10.0, minimum: float = 500.0) -> float:
    """A window half-width safely beyond the coverage radius scale.

    Rounded up to the next 100 m so preset geometry stays stable under
    small parameter perturbations.
    """
    scale = coverage_radius_scale(inputs)
    return max(minimum, 100.0 * math.ceil(safety * scale / 100.0))
