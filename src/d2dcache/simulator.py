"""Event-level Monte Carlo estimate of the service success probability.

Each request draws only what can serve it. Under independent thinning,
the transmitters that cache the requested object j form a Poisson field
of intensity lambda_t * b_j, whatever else the caches hold, so a request
draws that field on a disc of radius R_j around the receiver and marks
each of its transmitters with a fading value and a lifespan. The request
succeeds if one of them can push all of the file's bits within its
lifespan at the Shannon rate of its link. Requests for uncached objects
draw no transmitters at all.

R_j is computed, not guessed. Under exponential fading of rate mu, a
transmitter at distance r qualifies with probability E_T[exp(-k_T r^alpha)],
k_T = mu N (2^(z/(W T)) - 1) / P, so by Campbell's theorem the expected
number of qualifiers inside and beyond R is

    M_in(R)  = lambda_t b E_T[(2 pi/alpha) k_T^(-2/alpha) gamma(2/alpha, k_T R^alpha)],
    M_out(R) = lambda_t b E_T[(2 pi/alpha) k_T^(-2/alpha) Gamma(2/alpha, k_T R^alpha)],

with the lower and upper incomplete gamma functions. The disc misses a
success exactly when it holds no qualifier and the plane beyond holds
one, with probability beta(R) = exp(-M_in) (1 - exp(-M_out)). R is the
smallest radius with beta(R) <= TRUNCATION_BOUND, found by bisection in
log R, and capped at the window's half-width; the estimate warns when
the cap binds. Under other fading laws R is the half-width. R comes from
scipy.special alone and never from the closed forms in analytics, so the
Monte Carlo does not read the value it checks.

Reproducibility contract: requests run in blocks of BLOCK_SIZE. Block k
draws only from the stream SeedSequence(master_seed, spawn_key=(k,)), in
this order: the requested ranks, the requested sizes (none for a fixed
catalogue), the transmitter counts,
their distances, their fading, their lifespans. Blocks are concatenated
in index order, so estimates are bit-identical for any parallelism
width and across process boundaries.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammainc, gammaincc

from .analytics import AnalyticInputs, MetricEstimate
from .channel import ExponentialFading, link_bits, sample_fading
from .content import SizeLaw, check_ordering, order_statistic
from .geometry import Window, sample_disc
from .mobility import ExponentialLifespan, FixedLifespan, sample_lifespan

BLOCK_SIZE = 256
# Largest probability that a request's disc misses a transmitter which
# would have served it from farther away.
TRUNCATION_BOUND = 1e-9
# Bisection in log R over [half_width / 1024, half_width]: R comes out
# within a factor 1 + 1.1e-4 above the smallest radius that meets the
# bound, and never below half_width / 1024.
_BISECTIONS = 16
_LN2 = math.log(2.0)


def _exponential_lifespan_rule():
    """Nodes s and weights w with E[f(T)] ~ sum w f(tau e^s) for T ~ Exp(mean tau).

    Gauss-Legendre with 16 nodes in each of seven panels of s = ln(T/tau):
    one on [-30, -6], where the density e^(s - e^s) is e^s to within e^-6,
    and six equal ones on [-6, ln 100]. The density leaves out about e^-30
    below the rule and e^-100 above it.
    """
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate([[-30.0], np.linspace(-6.0, math.log(100.0), 7)])
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    s = (lo + width * (x + 1.0) / 2.0).ravel()
    return s, (width * w / 2.0).ravel() * np.exp(s - np.exp(s))


_EXPONENTIAL_RULE = _exponential_lifespan_rule()


@dataclass(frozen=True)
class SimulationConfig:
    """A complete, seeded simulation setup.

    window caps the radius of every simulation disc. size_law, when set,
    draws the requested object's size from the law for every request, as
    the object's rank order statistic among F draws when reorder (one of
    content.ORDERING_MODES) sorts them, which turns the estimate into an
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
        check_ordering(self.reorder)
        seeds = self.master_seed if isinstance(self.master_seed, tuple) else (self.master_seed,)
        if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in seeds):
            raise ValueError(f"master_seed must be a nonnegative integer or a tuple of them, got {self.master_seed!r}")


def _campbell_terms(inputs: AnalyticInputs, z, b):
    """Per request (rows) and lifespan node (columns): k_T, and the node's
    share of the expected qualifiers in the whole plane,
    lambda_t b w (2 pi/alpha) Gamma(2/alpha) k_T^(-2/alpha).

    z and b are per-request sizes (bits) and cache marginals, and
    inputs.fading is exponential. E_T is one evaluation under a fixed
    lifespan and the module's rule in ln T under an exponential one.
    """
    radio, law = inputs.radio, inputs.lifespan
    if isinstance(law, FixedLifespan):
        t, w = np.array([law.mean]), np.array([1.0])
    elif isinstance(law, ExponentialLifespan):
        s, w = _EXPONENTIAL_RULE
        t = law.mean * np.exp(s)
    else:
        raise TypeError(f"unknown lifespan law {law!r}")
    q = 2.0 / radio.pathloss_exponent
    with np.errstate(over="ignore"):
        # k_T overflows to inf for lifespans far too short to deliver z,
        # where the node's share is then exactly 0
        k = inputs.fading.rate * radio.noise / radio.power * np.expm1(np.outer(z, _LN2 / (radio.bandwidth * t)))
        return k, (inputs.density * math.pi * q * gamma_fn(q)) * np.outer(b, w) * k**-q


def _qualifier_means(k, share, alpha: float, radius):
    """(M_in, M_out) at one radius per row, from _campbell_terms' k and
    share, each through its own incomplete gamma function: for tiny files
    M_in is a tiny part of a huge whole."""
    q = 2.0 / alpha
    with np.errstate(over="ignore"):
        y = k * np.asarray(radius, dtype=float)[:, None] ** alpha
    return (share * gammainc(q, y)).sum(axis=1), (share * gammaincc(q, y)).sum(axis=1)


def _radii(inputs: AnalyticInputs, z, b, half_width: float):
    """Simulation radius of each request, and the largest truncation bound
    among those capped at half_width (0 when none is)."""
    cap = np.full(len(z), half_width)
    if not isinstance(inputs.fading, ExponentialFading) or cap.size == 0:
        return cap, 0.0
    terms = _campbell_terms(inputs, z, b)

    def bound(log_r):
        m_in, m_out = _qualifier_means(*terms, inputs.radio.pathloss_exponent, np.exp(log_r))
        return np.exp(-m_in) * -np.expm1(-m_out)

    lo, hi = np.log(cap / 1024.0), np.log(cap)
    at_cap = bound(hi)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        inside = bound(mid) <= TRUNCATION_BOUND
        lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    capped = at_cap > TRUNCATION_BOUND
    return np.where(capped, cap, np.exp(hi)), float(at_cap[capped].max(initial=0.0))


def _request_sizes(config: SimulationConfig, rng: np.random.Generator, j: np.ndarray) -> np.ndarray:
    """The requested objects' sizes; a size law draws one uniform per request,
    or rank j's order statistic of F uniforms when sizes are sorted."""
    if config.size_law is None:
        return config.inputs.catalogue.sizes[j]
    F = config.inputs.catalogue.F
    k = order_statistic(config.reorder, j, F)
    u = rng.random(j.size) if k is None else rng.beta(k, F - k + 1)
    return np.asarray(config.size_law.inverse_cdf(u), dtype=float)


def _run_block(config: SimulationConfig, radii, k: int):
    """Success of each request in block k, and the largest truncation bound
    of a capped disc drawn for it (radii, per object, is None under a size
    law: each request then gets its own)."""
    inputs = config.inputs
    n = min(BLOCK_SIZE, config.iterations - k * BLOCK_SIZE)
    rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(k,)))
    cum = np.cumsum(inputs.catalogue.popularity.a)
    j = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), inputs.catalogue.F - 1)
    z = _request_sizes(config, rng, j)
    b = inputs.policy.b[j]
    worst = 0.0
    if radii is None:
        cached = b > 0
        r_max = np.zeros(n)
        r_max[cached], worst = _radii(inputs, z[cached], b[cached], config.window.half_width)
    else:
        r_max = radii[j]
    owner, r = sample_disc(inputs.density * b, r_max, rng)
    h = sample_fading(inputs.fading, rng, size=owner.size)
    tau = sample_lifespan(inputs.lifespan, rng, size=owner.size)
    delivered = link_bits(inputs.radio, h, r, tau) >= z[owner]
    return np.bincount(owner, weights=delivered, minlength=n) > 0, worst


def estimate_total_success(config: SimulationConfig) -> MetricEstimate:
    """Estimate the popularity-averaged success probability."""
    inputs = config.inputs
    half_width = config.window.half_width
    radii, worst = None, 0.0
    if config.size_law is None:
        objects = np.flatnonzero(inputs.policy.b > 0)
        radii = np.zeros(inputs.catalogue.F)
        radii[objects], worst = _radii(inputs, inputs.catalogue.sizes[objects], inputs.policy.b[objects], half_width)
    run = functools.partial(_run_block, config, radii)
    blocks = range(-(-config.iterations // BLOCK_SIZE))
    workers = min(config.parallelism, len(blocks))
    if workers == 1:
        parts = [run(k) for k in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks, chunksize=-(-len(blocks) // workers)))
    worst = max([worst] + [w for _, w in parts])
    if worst > TRUNCATION_BOUND:
        warnings.warn(
            f"window half-width {half_width:g} m caps the simulation disc below its computed radius: "
            f"truncation bias bound {worst:.3g} exceeds {TRUNCATION_BOUND:g}",
            UserWarning,
            stacklevel=2,
        )
    success = np.concatenate([s for s, _ in parts])
    p = float(success.mean())
    stderr = math.sqrt(p * (1.0 - p) / success.size)
    return MetricEstimate(value=p, standard_error=stderr, sample_count=int(success.size))

