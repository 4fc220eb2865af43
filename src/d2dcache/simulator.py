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
one, with probability beta(R) = exp(-M_in) (1 - exp(-M_out)). Bisection
in log R finds R where elementary bounds (_qualifier_bounds) put beta at
most TRUNCATION_BOUND, and the window's half-width caps it; the estimate
warns when the cap binds. Under other fading laws R is the half-width. No
scipy and no closed form go into R: the Monte Carlo reads nothing it checks.

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
from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticInputs, MetricEstimate
from .channel import ExponentialFading, link_bits, sample_fading
from .content import SizeLaw, check_ordering, order_statistic
from .geometry import Window, sample_disc
from .mobility import ExponentialLifespan, FixedLifespan, sample_lifespan

BLOCK_SIZE = 256
# Largest probability that a request's disc misses a transmitter which
# would have served it from farther away.
TRUNCATION_BOUND = 1e-9
# Bisection in log R over [half_width / 1024, half_width]: R comes out on
# a grid of ratio 1 + 1.1e-4 there, and never below half_width / 1024.
_BISECTIONS = 16


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
    """Per request (rows) and lifespan node (columns): log k_T, then
    log(share / Gamma(2/alpha)) and share, the node's part of the expected
    qualifiers in the plane, lambda_t b w (2 pi/alpha) Gamma(2/alpha) k_T^(-2/alpha).

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
    with np.errstate(over="ignore", divide="ignore"):
        # k_T = inf (a lifespan far too short to deliver z) has share 0; log k_T = 0 keeps it 0
        k = inputs.fading.rate * radio.noise / radio.power * np.expm1(np.outer(z, math.log(2) / (radio.bandwidth * t)))
        share = (inputs.density * math.pi * q * math.gamma(q)) * np.outer(b, w) * k**-q
        return np.log(np.where(share > 0, k, 1.0)), np.log(share / math.gamma(q)), share


def _qualifier_bounds(log_k, log_share, share, alpha: float, log_r):
    """Per row at R = exp(log_r), M_in from below and M_out from above, each
    summed on its own: for tiny files M_in is a tiny part of a huge whole.
    With y = k_T R^alpha and q = 2/alpha < 1, gamma(q, y) >= y^q e^(-y) / q,
    Gamma(q, y) <= y^(q-1) e^(-y) and gamma + Gamma = Gamma(q), so each node
    takes the tighter bound on each. Log y keeps y = inf from making NaN."""
    q = 2.0 / alpha
    log_y = log_k + alpha * log_r[:, None]
    log_tail = log_share + (q - 1.0) * log_y - np.exp(log_y)
    tail, head = np.exp(log_tail), np.exp(log_tail + log_y - math.log(q))
    return np.maximum(share - tail, head).sum(axis=1), np.minimum(share - head, tail).sum(axis=1)


def _radii(inputs: AnalyticInputs, z, b, half_width: float):
    """Simulation radius of each request, and the largest truncation bound
    among those capped at half_width (0 when none is)."""
    cap = np.full(len(z), half_width)
    if not isinstance(inputs.fading, ExponentialFading) or cap.size == 0:
        return cap, 0.0
    terms = _campbell_terms(inputs, z, b)

    def bound(log_r):
        m_in, m_out = _qualifier_bounds(*terms, inputs.radio.pathloss_exponent, log_r)
        return np.exp(-m_in) * -np.expm1(-m_out)

    lo, hi = np.log(cap / 1024.0), np.log(cap)
    with np.errstate(over="ignore"):
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
        from concurrent.futures import ProcessPoolExecutor
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

