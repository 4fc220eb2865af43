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

Reproducibility contract: each configuration draws only from the stream
SeedSequence(master_seed), in this order: the requested ranks, the
requested sizes (none for a fixed catalogue), the transmitter counts,
their distances, their fading, their lifespans. An estimate runs in
three phases: every configuration of the sweep draws its ranks and
sizes before any radius search; then the searches run, one over each
size-law configuration's cached requests and one over the cached objects
of all the sweep's fixed-catalogue configurations that share a radio,
fading law and lifespan law; then each configuration draws its fields.
Every radius depends on its own row alone, so
estimates are bit-identical whatever else shares the sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytics import AnalyticInputs, MetricEstimate
from .channel import ExponentialFading, link_bits, sample_fading
from .content import SizeLaw, check_integer, check_ordering, order_statistic
from .geometry import Window, sample_disc
from .mobility import ExponentialLifespan, FixedLifespan, sample_lifespan

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
    expectation over file-size realizations as well. parallelism is
    validated but selects nothing: every estimate runs serially.
    """

    inputs: AnalyticInputs
    window: Window
    iterations: int
    master_seed: int | tuple = 0
    parallelism: int = 1
    size_law: SizeLaw | None = None
    reorder: str = "independent"

    def __post_init__(self):
        check_integer("iterations", self.iterations, 1)
        check_integer("parallelism", self.parallelism, 1)
        check_ordering(self.reorder)
        seeds = self.master_seed if isinstance(self.master_seed, tuple) else (self.master_seed,)
        if not seeds:
            # numpy would read SeedSequence(()) as seed 0
            raise ValueError("master_seed must be a nonnegative integer or a nonempty tuple of them, got ()")
        for seed in seeds:
            check_integer("master_seed", seed, 0)


def _campbell_terms(inputs: AnalyticInputs, z, b, density, tau):
    """Per row and lifespan node (columns): log k_T, then
    log(share / Gamma(2/alpha)) and share, the node's part of the expected
    qualifiers in the plane, lambda_t b w (2 pi/alpha) Gamma(2/alpha) k_T^(-2/alpha).

    A row is a request or a cached object: z, b, density and tau are its
    size (bits), cache marginal, transmitter density and mean lifespan,
    each an array with one entry per row or one value for all. inputs
    supplies the radio, the fading, which is exponential, and the
    lifespan law. E_T is one evaluation under a fixed lifespan and the
    module's rule in ln T under an exponential one.
    """
    radio, law = inputs.radio, inputs.lifespan
    density, tau = (v if np.isscalar(v) else np.reshape(v, (-1, 1)) for v in (density, tau))
    if isinstance(law, FixedLifespan):
        t, w = tau, np.array([1.0])
    elif isinstance(law, ExponentialLifespan):
        s, w = _EXPONENTIAL_RULE
        t = tau * np.exp(s)
    else:
        raise TypeError(f"unknown lifespan law {law!r}")
    q = 2.0 / radio.pathloss_exponent
    with np.errstate(over="ignore", divide="ignore"):
        # k_T = inf (a lifespan far too short to deliver z) has share 0; log k_T = 0 keeps it 0.
        # Dividing by t last keeps W t, which overflows at lifespans near 1e300 s, from being formed
        x = np.reshape(z, (-1, 1)) * (math.log(2) / radio.bandwidth) / t
        k = inputs.fading.rate * radio.noise / radio.power * np.expm1(x)
        share = (density * math.pi * q * math.gamma(q)) * np.outer(b, w) * k**-q
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


def _radii(inputs: AnalyticInputs, z, b, density, tau, half_width):
    """Simulation radius of each row (see _campbell_terms; half_width caps
    it and, like density and tau, is one value or one per row), and the
    truncation bound of each row capped at its half_width (0 elsewhere)."""
    cap = np.full(len(z), half_width, dtype=float)
    if not isinstance(inputs.fading, ExponentialFading) or cap.size == 0:
        return cap, np.zeros(cap.size)
    terms = _campbell_terms(inputs, z, b, density, tau)

    def bound(log_r):
        m_in, m_out = _qualifier_bounds(*terms, inputs.radio.pathloss_exponent, log_r)
        return np.exp(-m_in) * -np.expm1(-m_out)

    lo, hi = np.log(cap / 1024.0), np.log(cap)
    with np.errstate(over="ignore", invalid="ignore"):
        at_cap = bound(hi)
        # a NaN bound comes from an infinite share, which makes it NaN at every radius
        if np.isnan(at_cap).any():
            i = np.argmax(np.isnan(at_cap))
            at = (np.broadcast_to(v, cap.shape)[i] for v in (z, b, tau))
            raise ArithmeticError("the radius search's bound is NaN at z={:g} bits, b={:g}, tau={:g} s".format(*at))
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            inside = bound(mid) <= TRUNCATION_BOUND
            lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    capped = at_cap > TRUNCATION_BOUND
    return np.where(capped, cap, np.exp(hi)), np.where(capped, at_cap, 0.0)


def _request_sizes(config: SimulationConfig, rng: np.random.Generator, j: np.ndarray) -> np.ndarray:
    """The requested objects' sizes; a size law draws one uniform per request,
    or rank j's order statistic of F uniforms when sizes are sorted."""
    if config.size_law is None:
        return config.inputs.catalogue.sizes[j]
    F = config.inputs.catalogue.F
    k = order_statistic(config.reorder, j, F)
    u = rng.random(j.size) if k is None else rng.beta(k, F - k + 1)
    return np.asarray(config.size_law.inverse_cdf(u), dtype=float)


def _draw_requests(config: SimulationConfig):
    """Phase 1: the config's generator, after it has drawn the requested ranks j, then their sizes z."""
    rng = np.random.default_rng(np.random.SeedSequence(config.master_seed))
    cum = np.cumsum(config.inputs.catalogue.popularity.a)
    j = np.minimum(np.searchsorted(cum, rng.random(config.iterations), side="right"), config.inputs.catalogue.F - 1)
    return rng, j, _request_sizes(config, rng, j)


def _sweep_radii(configs, drawn) -> list:
    """Phase 2: per config, each request's radius (0 when uncached) and the
    largest truncation bound of a capped one. A size-law config takes one
    search over its cached requests; the fixed-catalogue configs that share
    a radio, a fading law and a lifespan law take one over all their cached
    objects, broadcast and concatenated."""
    groups = {}
    for i, config in enumerate(configs):
        x = config.inputs
        key = (x.radio, x.fading, type(x.lifespan)) if config.size_law is None else i
        groups.setdefault(key, []).append(i)
    found = [None] * len(configs)
    for members in groups.values():
        searches, picks = [], []
        for i in members:
            # a search's rows are the config's objects, whose radii its requests look up, or its requests
            config, (_, j, z) = configs[i], drawn[i]
            x = config.inputs
            sizes, b, pick = (x.catalogue.sizes, x.policy.b, j) if config.size_law is None else (z, x.policy.b[j], ...)
            rows = np.flatnonzero(b > 0)
            searches.append((sizes[rows], b[rows], x.density, x.lifespan.mean, config.window.half_width))
            picks.append((rows, np.zeros(b.size), pick))
        if len(searches) > 1:
            searches = [np.concatenate([np.broadcast_arrays(*search) for search in searches], axis=1)]
        radius, capped = _radii(configs[members[0]].inputs, *searches[0])
        splits = np.cumsum([rows.size for rows, _, _ in picks])[:-1]
        for i, (rows, full, pick), r, c in zip(members, picks, np.split(radius, splits), np.split(capped, splits)):
            full[rows] = r
            found[i] = full[pick], float(c.max(initial=0.0))
    return found


def _sample_requests(inputs: AnalyticInputs, rng: np.random.Generator, j: np.ndarray, z: np.ndarray, r_max: np.ndarray):
    """Phase 3 of a config: whether each request is served by the field
    drawn on its disc of radius r_max."""
    owner, r = sample_disc(inputs.density * inputs.policy.b[j], r_max, rng)
    h = sample_fading(inputs.fading, rng, size=owner.size)
    tau = sample_lifespan(inputs.lifespan, rng, size=owner.size)
    delivered = link_bits(inputs.radio, h, r, tau) >= z[owner]
    return np.bincount(owner, weights=delivered, minlength=j.size) > 0


def _estimate(configs: list) -> list:
    """The estimate of each config, warning (at the public caller's line)
    once for each config whose window caps a disc."""
    drawn = [_draw_requests(config) for config in configs]
    radii = _sweep_radii(configs, drawn)
    for config, (_, worst) in zip(configs, radii):
        if worst > TRUNCATION_BOUND:
            warnings.warn(
                f"window half-width {config.window.half_width:g} m caps the simulation disc below its computed "
                f"radius: truncation bias bound {worst:.3g} exceeds {TRUNCATION_BOUND:g}",
                stacklevel=3,
            )
    estimates = []
    for config, requests, (r_max, _) in zip(configs, drawn, radii):
        success = _sample_requests(config.inputs, *requests, r_max)
        p = float(success.mean())
        estimates.append(MetricEstimate(p, math.sqrt(p * (1.0 - p) / success.size), success.size))
    return estimates


def estimate_sweep(configs) -> list[MetricEstimate]:
    """estimate_total_success of each config, in order and bit for bit. Every
    config's requests are drawn first; then come one radius search per config
    under a size law and one for the fixed catalogues of all configs that
    share a radio, fading law and lifespan law; then every config's fields."""
    return _estimate(list(configs))


def estimate_total_success(config: SimulationConfig) -> MetricEstimate:
    """Estimate the popularity-averaged success probability."""
    return _estimate([config])[0]
