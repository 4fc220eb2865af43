"""Closed-form service success probabilities.

For a request of an object of size z (bits), cached with marginal b at
transmitters of density lambda_t, the probability that at least one
transmitter delivers the whole file within its lifespan is

    1 - exp(-pi * lambda_t * b * (P/N)^(2/alpha) * E[H^(2/alpha)] * I_T)

where I_T = E[(2^(z/(W*T)) - 1)^(-2/alpha)] is a moment over the lifespan
law T. The factor decomposes the PPP void probability of the random
coverage disc: (P/N)^(2/alpha) * E[H^(2/alpha)] * I_T is the mean squared
coverage radius up to the factor pi * lambda_t.

Total success averages this probability over the request popularity, one
term per cached object; expected success additionally averages over
random file sizes. lifespan_moment evaluates I_T under every lifespan law.

Under an exponential lifespan of mean tau, I_T = int_0^inf e^(-t)
(2^(x0/t) - 1)^(-2/alpha) dt with x0 = z/(W*tau). One vectorized kernel
evaluates it for every object and size draw at once: the trapezoid rule
in s = ln t on 385 evenly spaced nodes over a window set for each
argument, where the integrand decays double-exponentially at both ends
and the rule converges geometrically, as size_rule's does. The sum over
every other node, at twice the step, is the error estimate; a value that
is not finite or whose estimate exceeds 1e-8 relative raises
ArithmeticError.

Expected success averages over random file sizes. Success is a
popularity-weighted sum of per-object terms, so only each cached object's
marginal size law matters: the law itself for independent sizes, and for
sizes sorted against popularity the law of rank k of F sorted uniforms,
Beta(k, F-k+1), with k from content.order_statistic. size_rule integrates
each marginal over u in (0, 1) by the trapezoid rule in L = logit(u),
where the integrand decays exponentially at both ends and the rule
converges geometrically (Trefethen & Weideman, SIAM Review 2014).
evaluate_expected_success applies a rule at one density and lifespan, so
a sweep builds it once. Given a sample count, expected_success instead
estimates the same expectation by Monte Carlo over size draws, a check of
the rule that shares only I_T with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, expit, log_expit, polygamma

from .channel import FadingLaw, RadioParams, fading_moment
from .content import ContentCatalogue, SizeLaw, check_integer, check_real, check_reals, order_sizes, order_statistic
from .mobility import ExponentialLifespan, FixedLifespan, LifespanLaw
from .placement import PlacementPolicy

_LN2 = math.log(2.0)
# Beyond this value of z/(W*tau) the power (2^x - 1)^(-2/alpha) underflows
# for every alpha of interest; treated as exactly zero.
_X_CUTOFF = 1024.0
# Largest relative error estimate accepted from the exponential-lifespan rule.
_MOMENT_RTOL = 1e-8
# Nodes of the exponential-lifespan trapezoid rule: odd, so that every other
# node, both ends included, is the coarser rule of its error estimate.
_MOMENT_NODES = 385
# Rows of the exponential-lifespan kernel evaluated together: bounds its
# temporaries to _MOMENT_CHUNK x 385 values whatever the number of draws.
_MOMENT_CHUNK = 64
# Trapezoid rule of the size expectation in L = logit(u): nodes at
# multiples of the step on [-_LOGIT_SPAN, _LOGIT_SPAN], the largest step,
# and the largest absolute error estimate accepted from it.
_LOGIT_SPAN = 36.0
_LOGIT_STEP = 0.125
_SIZE_ATOL = 1e-6


@dataclass(frozen=True, slots=True)
class MetricEstimate:
    """A probability estimate with its standard error and sample count.

    Closed-form values carry standard_error 0 and sample_count 0.
    """

    value: float
    standard_error: float = 0.0
    sample_count: int = 0

    def __post_init__(self):
        check_real("value", self.value, 0, 1, "[]")
        check_real("standard_error", self.standard_error, 0, math.inf, "[)")


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
        check_real("density", self.density, 0, math.inf, "[)")
        if self.policy.b.size != self.catalogue.F:
            raise ValueError("placement policy and catalogue disagree on F")


def _log_threshold_power(x, q: float):
    """log (2^x - 1)^(-q) for x in (0, inf].

    Written as -q * (x*ln2 + log(-expm1(-x*ln2))), so neither the huge
    values near x = 0 nor the tiny ones at large x lose precision.
    """
    y = x * _LN2
    return -q * (y + np.log(-np.expm1(-y)))


def _threshold_power(x, alpha: float):
    """(2^x - 1)^(-2/alpha) for x in (0, inf), zero beyond the cutoff."""
    with np.errstate(over="ignore"):
        out = np.exp(_log_threshold_power(x, 2.0 / alpha))
    return np.where(x > _X_CUTOFF, 0.0, out)


def _moment_argument(z, tau: float, bandwidth: float, alpha: float) -> np.ndarray:
    """x0 = z/(W*tau) as an array once every argument is finite and positive and no entry underflows to 0."""
    for name, value in (("tau", tau), ("bandwidth", bandwidth), ("alpha", alpha)):
        check_real(name, value, 0, math.inf)
    x0 = check_reals("z", z, 0, math.inf) / (bandwidth * tau)
    if x0.min(initial=math.inf) == 0.0:
        raise ArithmeticError(f"z/(W*tau) underflows to 0 at z={float(np.min(z))!r}, W*tau={bandwidth * tau!r}")
    return x0


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
    The value is the sum over _MOMENT_NODES evenly spaced nodes of that
    window times their step: end weights do not matter, as both ends lie
    e^-40 or more below the peak. Each row is scaled by its own peak before
    exponentiating, so no moment underflows or overflows on the way.
    Returns (values, |values - every-other-node values|); raises
    ArithmeticError when a value is not finite or its estimate exceeds
    _MOMENT_RTOL relative.
    """
    q = 2.0 / alpha
    c = 1.0 + q
    flat = x0.ravel()
    values = np.empty_like(flat)
    errors = np.empty_like(flat)
    for lo in range(0, flat.size, _MOMENT_CHUNK):
        x = flat[lo : lo + _MOMENT_CHUNK, None]
        t_r = np.sqrt(q * _LN2 * x)
        s_lo = np.maximum(math.log(0.125) - 40.0 / (c - 0.125), np.log(t_r) - np.arccosh(1.0 + 20.0 / t_r))
        step = (np.log(2.0 * t_r + 8.0 * c + 64.0) - s_lo) / (_MOMENT_NODES - 1)
        s = s_lo + step * np.arange(_MOMENT_NODES)
        t = np.exp(s)
        log_g = s - t + _log_threshold_power(x / t, q)
        peak = log_g.max(axis=1, keepdims=True)
        with np.errstate(under="ignore"):
            terms = np.exp(log_g - peak)
            scale = (np.exp(peak) * step)[:, 0]
        values[lo : lo + _MOMENT_CHUNK] = value = scale * terms.sum(axis=1)
        errors[lo : lo + _MOMENT_CHUNK] = np.abs(value - 2.0 * scale * terms[:, ::2].sum(axis=1))
    bad = ~np.isfinite(values) | (errors > _MOMENT_RTOL * values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"lifespan moment quadrature failed at x0=z/(W*tau)={float(flat[i])!r}, alpha={alpha}: "
            f"value={float(values[i])!r}, error estimate={float(errors[i])!r} "
            f"({int(bad.sum())} of {flat.size} arguments)"
        )
    return values.reshape(x0.shape), errors.reshape(x0.shape)


def lifespan_moment_exponential(z: float, tau: float, bandwidth: float, alpha: float) -> float:
    """I_T for one file size z under an exponential lifespan with mean tau.

    The fixed-node rule of the module docstring (see _exponential_moment);
    raises ArithmeticError when its error estimate exceeds 1e-8 relative,
    and ValueError unless every argument is finite and positive.
    lifespan_moment evaluates whole arrays of sizes in one call.
    """
    values, _ = _exponential_moment(_moment_argument(z, tau, bandwidth, alpha), alpha)
    return float(values)


def lifespan_moment(law: LifespanLaw, z, bandwidth: float, alpha: float):
    """I_T under either lifespan law; z may be an array of any shape.

    Under a fixed lifespan tau it is (2^(z/(W*tau)) - 1)^(-2/alpha), 0 once
    z/(W*tau) exceeds the underflow cutoff; under an exponential one, the
    rule of the module docstring, which raises ArithmeticError when its
    error estimate exceeds 1e-8 relative. Raises ValueError unless z, the
    mean lifespan, bandwidth and alpha are all finite and positive.
    """
    if isinstance(law, FixedLifespan):
        values = _threshold_power(_moment_argument(z, law.mean, bandwidth, alpha), alpha)
    elif isinstance(law, ExponentialLifespan):
        values, _ = _exponential_moment(_moment_argument(z, law.mean, bandwidth, alpha), alpha)
    else:
        raise TypeError(f"unknown lifespan law {law!r}")
    return float(values) if values.ndim == 0 else values


def _coefficient(inputs: AnalyticInputs) -> float:
    """pi * lambda_t * (P/N)^(2/alpha) * E[H^(2/alpha)] (marginal excluded)."""
    alpha = inputs.radio.pathloss_exponent
    snr_gain = (inputs.radio.power / inputs.radio.noise) ** (2.0 / alpha)
    return math.pi * inputs.density * snr_gain * fading_moment(inputs.fading, alpha)


def _clamp(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def total_success(inputs: AnalyticInputs) -> MetricEstimate:
    """Popularity-averaged service success probability of the catalogue."""
    # success mass summed directly (a_j * -expm1(-exponent_j)) rather than
    # 1 - failure mass: exact when nothing is cached and free of
    # cancellation when every term is small
    sizes = inputs.catalogue.sizes[inputs.policy.b > 0, None]
    return MetricEstimate(value=_clamp(float(_success_terms(inputs, sizes).sum())))


def _success_terms(inputs: AnalyticInputs, sizes: np.ndarray) -> np.ndarray:
    """a_j (1 - exp(-c b_j I_T(z))), one row per cached object j and one
    column per size z; sizes has one row for every object or one each."""
    cached = inputs.policy.b > 0
    its = lifespan_moment(inputs.lifespan, sizes, inputs.radio.bandwidth, inputs.radio.pathloss_exponent)
    exponents = (_coefficient(inputs) * inputs.policy.b[cached])[:, None] * its
    return inputs.catalogue.popularity.a[cached, None] * -np.expm1(-exponents)


@dataclass(frozen=True)
class SizeRule:
    """Quadrature nodes and weights of expected_success for one size law and ordering.

    sizes holds the nodes in bits. weights has one column per node and
    either one row shared by every cached object (order "independent") or
    one row per cached object, in rank order.
    """

    law: SizeLaw
    order: str
    sizes: np.ndarray
    weights: np.ndarray


def size_rule(inputs: AnalyticInputs, size_law: SizeLaw, order: str) -> SizeRule:
    """The trapezoid rule in logit(u) over each cached object's marginal size law.

    The nodes are size_law.inverse_cdf(expit(L)) at L = n h on
    [-_LOGIT_SPAN, _LOGIT_SPAN], beyond which less than e^-36 of u-mass
    lies. Under an ordering the object of popularity rank j (0-based) gets
    the k-th smallest of F sizes, k = order_statistic(order, j, F), whose
    u is Beta(k, F-k+1); independent sizes are Beta(1, 1), not Beta(1, F),
    one row for every object. The weights are h times the Beta
    density in L, u^k (1-u)^(F-k+1) / B(k, F-k+1). h is _LOGIT_STEP (577
    nodes), halved until it is at most half the narrowest cached marginal's
    standard deviation in L, sqrt(psi1(k) + psi1(F-k+1)): from about 17
    cached objects under an ordering. The rule depends only on F and the
    placement, so one rule serves every density and lifespan.
    """
    F = inputs.catalogue.F
    k = order_statistic(order, np.flatnonzero(inputs.policy.b > 0), F)
    if k is None:
        k = m = np.ones((1, 1))
    else:
        k = k[:, None]
        m = F - k + 1
    spread = np.min(np.sqrt(polygamma(1, k) + polygamma(1, m)), initial=math.inf)
    step = _LOGIT_STEP
    while step > spread / 2.0:
        step /= 2.0
    half = round(_LOGIT_SPAN / step)
    logit = np.arange(-half, half + 1) * step
    log_u, log_v = log_expit(logit), log_expit(-logit)  # log u, log(1 - u)
    sizes = np.asarray(size_law.inverse_cdf(expit(logit)), dtype=float)
    log_w = k * log_u + m * log_v - betaln(k, m)
    return SizeRule(law=size_law, order=order, sizes=sizes, weights=step * np.exp(log_w))


def evaluate_expected_success(inputs: AnalyticInputs, rule: SizeRule) -> MetricEstimate:
    """Success averaged over popularity and the marginal size laws of rule.

    Sums a_j w_jn (1 - exp(-c b_j I_T(z_n))) over the cached objects j and
    the nodes n, the success mass taken directly as in total_success. The
    sum over every other node, at twice the weight, is the error estimate;
    raises ArithmeticError, naming the law and ordering, when the value is
    not finite or the two differ by more than _SIZE_ATOL.
    """
    cached = inputs.policy.b > 0
    if rule.weights.shape[0] not in (1, int(cached.sum())):
        raise ValueError(f"rule weights of shape {rule.weights.shape} do not fit {int(cached.sum())} cached objects")
    terms = rule.weights * _success_terms(inputs, rule.sizes)
    value = float(terms.sum())
    error = abs(value - 2.0 * float(terms[:, ::2].sum()))
    if not error <= _SIZE_ATOL:
        raise ArithmeticError(
            f"size expectation failed for {rule.law!r}, order={rule.order!r}: "
            f"value={value!r}, error estimate={error!r}"
        )
    return MetricEstimate(value=_clamp(value))


def expected_success(
    inputs: AnalyticInputs,
    size_law: SizeLaw,
    mc_samples: int | None = None,
    rng: np.random.Generator | None = None,
    order: str = "independent",
) -> MetricEstimate:
    """Service success averaged over both popularity and random file sizes.

    Sizes enter only through I_T, per cached object through its marginal
    size law under order (see content.order_sizes); the catalogue's
    realized sizes are ignored. By default this is evaluate_expected_success
    of size_rule, with standard error 0 and sample count 0. Given
    mc_samples (an integer of at least 1000) it is a Monte Carlo estimate
    over draws from rng instead, with the draws' standard error and count:
    mc_samples sizes, each shared by every cached object, under
    "independent", else max(200, mc_samples // F) catalogues of F sizes
    ordered per order. One of mc_samples and rng without the other raises
    ValueError.
    """
    if (mc_samples is None) != (rng is None):
        raise ValueError("mc_samples and rng are given together or not at all")
    if mc_samples is None:
        return evaluate_expected_success(inputs, size_rule(inputs, size_law, order))
    check_integer("mc_samples", mc_samples, 1000)
    if order == "independent":
        sizes = np.asarray(size_law.inverse_cdf(rng.random(mc_samples)), dtype=float)[None, :]
    else:
        u = rng.random((max(200, mc_samples // inputs.catalogue.F), inputs.catalogue.F))
        sizes = order_sizes(np.asarray(size_law.inverse_cdf(u), dtype=float), order)[:, inputs.policy.b > 0].T
    per_draw = _success_terms(inputs, sizes).sum(axis=0)
    stderr = float(per_draw.std(ddof=1) / math.sqrt(per_draw.size))
    return MetricEstimate(value=_clamp(float(per_draw.mean())), standard_error=stderr, sample_count=per_draw.size)


def coverage_radius_scale(inputs: AnalyticInputs) -> float:
    """Radius scale (meters) below which service is plausible.

    (P/N)^(1/alpha) * sqrt(E[H^(2/alpha)] * max I_T) over cached objects:
    the square root of the mean squared coverage radius entering the void
    probability, maximized over the objects that can actually be served.
    """
    alpha = inputs.radio.pathloss_exponent
    cached = inputs.policy.b > 0
    if not np.any(cached):
        return 0.0
    its = lifespan_moment(inputs.lifespan, inputs.catalogue.sizes[cached], inputs.radio.bandwidth, alpha)
    gain = (inputs.radio.power / inputs.radio.noise) ** (1.0 / alpha)
    return gain * math.sqrt(fading_moment(inputs.fading, alpha) * float(its.max()))
