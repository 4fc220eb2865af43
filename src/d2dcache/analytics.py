"""Closed-form service success probabilities.

For a request of an object of size z (bits), cached with marginal b at
transmitters of density lambda_t, the probability that at least one
transmitter delivers the whole file within its lifespan is

    1 - exp(-pi * lambda_t * b * (P/N)^(2/alpha) * E[H^(2/alpha)] * I_T)

where I_T = E[(2^(z/(W*T)) - 1)^(-2/alpha)] is a moment over the lifespan
law T. The factor decomposes the PPP void probability of the random
coverage disc: (P/N)^(2/alpha) * E[H^(2/alpha)] * I_T is the mean squared
coverage radius up to the factor pi * lambda_t.

Total success averages the per-object probability over the request
popularity; expected success additionally averages over random file sizes.

Under an exponential lifespan of mean tau, I_T = int_0^inf e^(-t)
(2^(x0/t) - 1)^(-2/alpha) dt with x0 = z/(W*tau). One vectorized kernel
evaluates it for every object and size draw at once: a composite
Gauss-Legendre rule in s = ln t (16 nodes in each of 24 equal panels) over
a window set for each argument, where the integrand decays
double-exponentially at both ends. The same rule on 12 panels gives an
error estimate; a value that is not finite or whose estimate exceeds 1e-8
relative raises ArithmeticError.

Expected success is a Monte Carlo over size draws in two steps:
draw_expectation_sizes draws the sizes once, and evaluate_expected_success
averages each draw's failure mass sum_j a_j exp(-c b_j I_T(z_j)) over the
cached objects at one density and lifespan, so a sweep reuses one sample
at every point. I_T and the failure mass are evaluated in blocks of
_FAILURE_BLOCK draws, so every temporary stays cache-sized: the terms go
through buffers allocated once per call, never a whole 2K x draws matrix.
Exponents are clamped at _EXP_FLOOR = -700 and their terms set to 0,
because numpy's exp takes a slow path on results below about e^-708
(subnormal or zero), 35 to 150 times slower than just above it in
timings over 2 million values. A zeroed term is at most e^-700 < 1e-304,
so it cannot move a draw's failure mass once that mass exceeds about
1e-288, nor the returned value: that adds the uncached popularity mass,
and when nothing is uncached any failure mass this small leaves the
value at 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import FadingLaw, RadioParams, fading_moment
from .content import ContentCatalogue, SizeLaw, order_sizes
from .mobility import ExponentialLifespan, FixedLifespan, LifespanLaw
from .placement import PlacementPolicy

_LN2 = math.log(2.0)
# Beyond this value of z/(W*tau) the power (2^x - 1)^(-2/alpha) underflows
# for every alpha of interest; treated as exactly zero.
_X_CUTOFF = 1024.0
# Largest relative error estimate accepted from the exponential-lifespan rule.
_MOMENT_RTOL = 1e-8
# Rows of the exponential-lifespan kernel evaluated together: bounds its
# temporaries to _MOMENT_CHUNK x 384 values whatever the number of draws.
_MOMENT_CHUNK = 64
# Draws per block of the size expectation: bounds the buffers of I_T and
# the failure mass to 2K x _FAILURE_BLOCK values (320 KB at 2K = 10),
# whatever the number of draws.
_FAILURE_BLOCK = 4096
# Failure-mass exponents below this give terms of 0 (see the module
# docstring): numpy's exp takes a slow path on results below about e^-708.
_EXP_FLOOR = -700.0


def _composite_gauss_legendre(panels: int):
    """Nodes and weights on [0, 1]: 16-point Gauss-Legendre in equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    u = ((np.arange(panels)[:, None] + (nodes + 1.0) / 2.0) / panels).ravel()
    return u, np.tile(weights / (2.0 * panels), panels)


# the rule and, for its error estimate, the same rule on half the panels
_MOMENT_RULES = (_composite_gauss_legendre(24), _composite_gauss_legendre(12))


@dataclass(frozen=True)
class MetricEstimate:
    """A probability estimate with its standard error and sample count.

    Closed-form values carry standard_error 0 and sample_count 0.
    """

    value: float
    standard_error: float = 0.0
    sample_count: int = 0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability out of range: {self.value}")
        if not 0 <= self.standard_error < math.inf:
            raise ValueError("standard error must be finite and nonnegative")


@dataclass(frozen=True)
class AnalyticInputs:
    """Everything the closed forms need: network, link, content, placement."""

    density: float
    radio: RadioParams
    fading: FadingLaw
    lifespan: LifespanLaw
    policy: PlacementPolicy
    catalogue: ContentCatalogue

    def __post_init__(self):
        if self.density < 0 or not math.isfinite(self.density):
            raise ValueError("density must be finite and nonnegative")
        if self.policy.b.size != self.catalogue.F:
            raise ValueError("placement policy and catalogue disagree on F")


def _log_threshold_power(x, q: float):
    """log (2^x - 1)^(-q) for x in (0, inf].

    Written as -q * (x*ln2 + log(-expm1(-x*ln2))), so neither the huge
    values near x = 0 nor the tiny ones at large x lose precision.
    """
    y = np.asarray(x, dtype=float) * _LN2
    return -q * (y + np.log(-np.expm1(-y)))


def _threshold_power(x, alpha: float):
    """(2^x - 1)^(-2/alpha) for x in (0, inf), zero beyond the cutoff."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(_log_threshold_power(x, 2.0 / alpha))
    return np.where(x > _X_CUTOFF, 0.0, out)


def _moment_argument(z, tau: float, bandwidth: float, alpha: float) -> np.ndarray:
    """x0 = z/(W*tau) as an array, once every argument is finite and positive."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z) & (z > 0)):
        raise ValueError("z must be finite and positive")
    for name, value in (("tau", tau), ("bandwidth", bandwidth), ("alpha", alpha)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return z / (bandwidth * tau)


def _exponential_moment(x0, alpha: float):
    """I_T under an exponential lifespan, and its error estimate, for each x0.

    x0 = z/(W*tau) > 0, of any shape. In s = ln t the integral is
    int exp(g(s)) ds with g = s - t + log (2^(x0/t) - 1)^(-q), q = 2/alpha.
    With t_r^2 = q*ln2*x0 and c = 1 + q, the slope of g satisfies
    dg/ds >= c - t, dg/ds >= t_r^2/t - t and dg/dt <= c/t + t_r^2/t^2 - 1.
    The first bounds the fall of g below t = 1/8, the second gives
    g(ln t_r) - g(s) >= 2 t_r (cosh(ln t_r - s) - 1) below t_r, and the
    third gives dg/dt <= -5/8 above 2 t_r + 8c. So g lies at least 40
    below its peak outside [t_lo, t_hi]:
        t_lo = max(e^(-40/(c - 1/8)) / 8, t_r e^(-acosh(1 + 20/t_r))),
        t_hi = 2 t_r + 8c + 64.
    Each row is scaled by its own peak before exponentiating, so neither
    tiny nor huge moments underflow or overflow on the way. Returns
    (values, |values - half-panel values|); raises ArithmeticError when a
    value is not finite or its estimate exceeds _MOMENT_RTOL relative.
    """
    q = 2.0 / alpha
    c = 1.0 + q
    x0 = np.asarray(x0, dtype=float)
    flat = x0.ravel()
    values = np.empty_like(flat)
    errors = np.empty_like(flat)
    for lo in range(0, flat.size, _MOMENT_CHUNK):
        x = flat[lo : lo + _MOMENT_CHUNK, None]
        t_r = np.sqrt(q * _LN2 * x)
        s_lo = np.maximum(math.log(0.125) - 40.0 / (c - 0.125), np.log(t_r) - np.arccosh(1.0 + 20.0 / t_r))
        width = np.log(2.0 * t_r + 8.0 * c + 64.0) - s_lo
        estimates = []
        for u, w in _MOMENT_RULES:
            s = s_lo + width * u
            t = np.exp(s)
            log_g = s - t + _log_threshold_power(x / t, q)
            peak = log_g.max(axis=1, keepdims=True)
            with np.errstate(under="ignore"):
                estimates.append((np.exp(peak) * width)[:, 0] * (np.exp(log_g - peak) @ w))
        values[lo : lo + _MOMENT_CHUNK] = estimates[0]
        errors[lo : lo + _MOMENT_CHUNK] = np.abs(estimates[0] - estimates[1])
    bad = ~np.isfinite(values) | (errors > _MOMENT_RTOL * values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"lifespan moment quadrature failed at x0=z/(W*tau)={float(flat[i])!r}, alpha={alpha}: "
            f"value={float(values[i])!r}, error estimate={float(errors[i])!r} "
            f"({int(bad.sum())} of {flat.size} arguments)"
        )
    return values.reshape(x0.shape), errors.reshape(x0.shape)


def lifespan_moment_fixed(z: float, tau: float, bandwidth: float, alpha: float):
    """I_T for a deterministic lifespan: (2^(z/(W*tau)) - 1)^(-2/alpha).

    Returns 0 when z/(W*tau) exceeds the underflow cutoff. Accepts array z.
    Raises ValueError unless every argument is finite and positive.
    """
    result = _threshold_power(_moment_argument(z, tau, bandwidth, alpha), alpha)
    return float(result) if result.ndim == 0 else result


def lifespan_moment_exponential(z: float, tau: float, bandwidth: float, alpha: float) -> float:
    """I_T for one file size z under an exponential lifespan with mean tau.

    Evaluates int_0^inf e^(-t) (2^(x0/t) - 1)^(-2/alpha) dt with
    x0 = z/(W*tau) by the fixed-node rule of the module docstring: 16-point
    Gauss-Legendre in each of 24 panels of s = ln t over
    [ln t_lo, ln t_hi], where t_lo and t_hi come from bounds on the slope
    of the log integrand and leave out less than e^(-40) of its peak. The
    error estimate is the difference from the same rule on 12 panels; a
    value that is not finite, or whose estimate exceeds 1e-8 relative,
    raises ArithmeticError. Raises ValueError unless every argument is
    finite and positive. lifespan_moment evaluates whole arrays of sizes
    in one call.
    """
    values, _ = _exponential_moment(_moment_argument(z, tau, bandwidth, alpha), alpha)
    return float(values)


def lifespan_moment(law: LifespanLaw, z, bandwidth: float, alpha: float):
    """I_T under either lifespan law; z may be an array of any shape."""
    if isinstance(law, FixedLifespan):
        return lifespan_moment_fixed(z, law.mean, bandwidth, alpha)
    if isinstance(law, ExponentialLifespan):
        values, _ = _exponential_moment(_moment_argument(z, law.mean, bandwidth, alpha), alpha)
        return float(values) if values.ndim == 0 else values
    raise TypeError(f"unknown lifespan law {law!r}")


def _coefficient(inputs: AnalyticInputs) -> float:
    """pi * lambda_t * (P/N)^(2/alpha) * E[H^(2/alpha)] (marginal excluded)."""
    alpha = inputs.radio.pathloss_exponent
    snr_gain = (inputs.radio.power / inputs.radio.noise) ** (2.0 / alpha)
    return math.pi * inputs.density * snr_gain * fading_moment(inputs.fading, alpha)


def _clamp(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def per_object_success(inputs: AnalyticInputs, j: int) -> MetricEstimate:
    """Probability the request for object j (0-based) is served."""
    b_j = inputs.policy.b[j]
    if b_j == 0.0:
        return MetricEstimate(value=0.0)
    it = lifespan_moment(
        inputs.lifespan, inputs.catalogue.sizes[j], inputs.radio.bandwidth, inputs.radio.pathloss_exponent
    )
    exponent = _coefficient(inputs) * b_j * float(it)
    return MetricEstimate(value=_clamp(-math.expm1(-exponent)))


def total_success(inputs: AnalyticInputs) -> MetricEstimate:
    """Popularity-averaged service success probability of the catalogue."""
    a = inputs.catalogue.popularity.a
    b = inputs.policy.b
    cached = b > 0
    success = 0.0
    if np.any(cached):
        its = np.atleast_1d(
            lifespan_moment(
                inputs.lifespan,
                inputs.catalogue.sizes[cached],
                inputs.radio.bandwidth,
                inputs.radio.pathloss_exponent,
            )
        )
        # success mass summed directly (a_j * -expm1(-exponent_j)) rather
        # than 1 - failure mass: exact when nothing is cached and free of
        # cancellation when every term is small
        success = float(np.sum(a[cached] * -np.expm1(-_coefficient(inputs) * b[cached] * its)))
    return MetricEstimate(value=_clamp(success))


def draw_expectation_sizes(
    inputs: AnalyticInputs, size_law: SizeLaw, mc_samples: int, rng: np.random.Generator | None, order: str
) -> np.ndarray:
    """The size draws behind expected_success, one column per draw.

    With order "independent" the result has one row of mc_samples sizes,
    each shared by every cached object (common random numbers).
    Otherwise each of max(200, mc_samples // F) draws is a whole catalogue
    of F sizes, assigned to popularity ranks per order (see
    content.order_sizes), and the result keeps one row per cached object.
    The draws depend only on the catalogue size and the placement, so one
    sample serves every density and lifespan of a sweep.
    """
    if not isinstance(mc_samples, numbers.Integral):
        raise ValueError(f"mc_samples must be an integer, got {mc_samples!r}")
    if mc_samples < 1000:
        raise ValueError("mc_samples must be at least 1000")
    rng = np.random.default_rng() if rng is None else rng
    if order == "independent":
        return np.asarray(size_law.inverse_cdf(rng.random(mc_samples)), dtype=float)[None, :]
    draws = max(200, mc_samples // inputs.catalogue.F)
    u = rng.random((draws, inputs.catalogue.F))
    return order_sizes(np.asarray(size_law.inverse_cdf(u), dtype=float), order)[:, inputs.policy.b > 0].T


def _failure_mass(inputs: AnalyticInputs, sizes: np.ndarray) -> np.ndarray:
    """Per draw, the failure mass sum_j a_j exp(-c b_j I_T(z_j)) of the cached objects.

    I_T and the terms are evaluated in blocks of _FAILURE_BLOCK draws with
    reused buffers, sized for at most that many draws; exponents below
    _EXP_FLOOR give terms of 0 (see the module docstring).
    """
    cached = inputs.policy.b > 0
    sizes = np.asarray(sizes, dtype=float)
    if sizes.ndim != 2 or sizes.shape[0] not in (1, int(cached.sum())) or sizes.shape[1] < 2:
        raise ValueError(f"sizes of shape {sizes.shape} do not fit {int(cached.sum())} cached objects")
    draws = sizes.shape[1]
    neg_coeffs = -(_coefficient(inputs) * inputs.policy.b[cached])[:, None]
    a_cached = inputs.catalogue.popularity.a[cached]
    per_draw = np.empty(draws)
    block = min(_FAILURE_BLOCK, draws)
    terms = np.empty(neg_coeffs.size * block)
    kept = np.empty(terms.size, dtype=bool)
    for lo in range(0, draws, block):
        width = min(block, draws - lo)
        t = terms[: neg_coeffs.size * width].reshape(-1, width)
        keep = kept[: t.size].reshape(t.shape)
        its = lifespan_moment(
            inputs.lifespan, sizes[:, lo : lo + width], inputs.radio.bandwidth, inputs.radio.pathloss_exponent
        )
        np.multiply(neg_coeffs, its, out=t)
        np.greater_equal(t, _EXP_FLOOR, out=keep)
        np.maximum(t, _EXP_FLOOR, out=t)
        np.exp(t, out=t)
        np.multiply(t, keep, out=t)
        np.matmul(a_cached, t, out=per_draw[lo : lo + width])
    return per_draw


def evaluate_expected_success(inputs: AnalyticInputs, sizes: np.ndarray) -> MetricEstimate:
    """Success averaged over popularity and the size draws of sizes.

    sizes comes from draw_expectation_sizes: one shared row, or one row
    per cached object, and one column per draw. The standard error and
    sample count are those of the draws.
    """
    per_draw = _failure_mass(inputs, sizes)
    uncached = ~(inputs.policy.b > 0)
    failure = float(inputs.catalogue.popularity.a[uncached].sum()) + float(per_draw.mean())
    stderr = float(per_draw.std(ddof=1) / math.sqrt(per_draw.size))
    return MetricEstimate(value=_clamp(1.0 - failure), standard_error=stderr, sample_count=per_draw.size)


def expected_success(
    inputs: AnalyticInputs,
    size_law: SizeLaw,
    mc_samples: int = 100_000,
    rng: np.random.Generator | None = None,
    order: str = "independent",
) -> MetricEstimate:
    """Service success averaged over both popularity and random file sizes.

    Sizes enter only through I_T, so the expectation over the size law is
    estimated by Monte Carlo over the draws of draw_expectation_sizes (see
    there for order); the catalogue's realized sizes are ignored. This is
    evaluate_expected_success of those draws, so a sweep can draw once and
    evaluate at each point. I_T and the failure mass are evaluated in
    blocks of _FAILURE_BLOCK draws, and terms below e^-700 count as 0:
    that avoids numpy's slow exp path and leaves the value exact (see the
    module docstring). The returned standard error and sample count are
    those of the draws, so they reflect the size sampling only.
    """
    return evaluate_expected_success(inputs, draw_expectation_sizes(inputs, size_law, mc_samples, rng, order))


def coverage_radius_scale(inputs: AnalyticInputs) -> float:
    """Radius scale (meters) below which service is plausible.

    (P/N)^(1/alpha) * sqrt(E[H^(2/alpha)] * max I_T) over cached objects:
    the square root of the mean squared coverage radius entering the void
    probability, maximized over the objects that can actually be served.
    Observation windows should be an order of magnitude wider than this.
    """
    alpha = inputs.radio.pathloss_exponent
    cached = inputs.policy.b > 0
    if not np.any(cached):
        return 0.0
    its = np.atleast_1d(
        lifespan_moment(
            inputs.lifespan,
            inputs.catalogue.sizes[cached],
            inputs.radio.bandwidth,
            alpha,
        )
    )
    gain = (inputs.radio.power / inputs.radio.noise) ** (1.0 / alpha)
    return gain * math.sqrt(fading_moment(inputs.fading, alpha) * float(its.max()))
