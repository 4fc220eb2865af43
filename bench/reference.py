"""Evaluations made apart from d2dcache, and the checks that use them.

Nothing here imports d2dcache. The closed form is the one documented in
the ``analytics`` module docstring:

    P(served | z) = 1 - exp(-pi * lambda * b * (P/N)^(2/alpha) * E[H^(2/alpha)] * I_T(z))

with Rayleigh fading (E[H^q] = Gamma(1 + q)), Zipf popularity, the
popularity-weighted marginals b_j = min(K a_j / sum(a_1..a_2K), 1) on the
top 2K objects, and I_T the lifespan moment E[(2^(z/(W T)) - 1)^(-2/alpha)].

The exponential-lifespan moment is computed by the trapezoidal rule in
s = ln t over a per-argument window. The integrand decays
double-exponentially at both ends in s, so that rule converges
geometrically; the package uses adaptive Gauss-Kronrod quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv, ndtri

LN2 = math.log(2.0)
LN10 = math.log(10.0)
# false-alarm rate of all statistical checks of one workload run together
FALSE_ALARM = 1e-3


# ----------------------------------------------------------------- model


def zipf(F: int, gamma: float) -> np.ndarray:
    weights = np.arange(1, F + 1, dtype=float) ** -gamma
    return weights / math.fsum(weights)


def marginals(a: np.ndarray, K: int) -> np.ndarray:
    head = a[: 2 * K]
    b = np.zeros_like(a)
    b[: 2 * K] = np.minimum(K * head / math.fsum(head), 1.0)
    return b


def coefficient(density: float, power: float, noise: float, alpha: float) -> float:
    """pi * lambda * (P/N)^(2/alpha) * E[H^(2/alpha)] for Rayleigh fading."""
    q = 2.0 / alpha
    return math.pi * density * (power / noise) ** q * math.gamma(1.0 + q)


def _log_threshold_power(x, q):
    """log of (2^x - 1)^(-q), stable for tiny and huge x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return -q * (x * LN2 + np.log(-np.expm1(-x * LN2)))


def moment_fixed(x, alpha: float):
    """I_T for a deterministic lifespan, x = z / (W * tau)."""
    with np.errstate(under="ignore"):
        return np.exp(_log_threshold_power(x, 2.0 / alpha))


def moment_exponential(x, alpha: float, nodes: int = 2400) -> np.ndarray:
    """I_T = int_0^inf e^(-t) (2^(x/t) - 1)^(-2/alpha) dt for each x > 0.

    Trapezoidal rule in s = ln t on [ln t_lo, ln t_hi], where every
    neglected piece is below e^(-60) of the integral:
    - below t_lo the factor 2^(-q x / t) or the t^(1+q) growth of the
      integrand in s has cut it off;
    - above t_hi = 100 + 4 t_r the factor e^(-t) has, with t_r the ridge
      of -t - q x ln2 / t.
    Rows are evaluated in chunks to bound memory.
    """
    q = 2.0 / alpha
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    u = np.linspace(0.0, 1.0, nodes)
    weights = np.full(nodes, 1.0)
    weights[[0, -1]] = 0.5
    for lo in range(0, x.size, 512):
        xc = x[lo : lo + 512, None]
        t_ridge = np.sqrt(q * LN2 * xc)
        t_lo = np.maximum(np.minimum(q * LN2 * xc / 100.0, t_ridge / 4.0), math.exp(-60.0 / (1.0 + q)))
        s_lo = np.log(t_lo)
        s_hi = np.log(100.0 + 4.0 * t_ridge)
        h = (s_hi - s_lo) / (nodes - 1)
        s = s_lo + (s_hi - s_lo) * u
        t = np.exp(s)
        log_g = s - t + _log_threshold_power(xc / t, q)
        peak = log_g.max(axis=1, keepdims=True)
        with np.errstate(under="ignore"):
            total = (np.exp(log_g - peak) * weights).sum(axis=1, keepdims=True) * h
            out[lo : lo + 512] = (np.exp(peak) * total)[:, 0]
    return out


# -------------------------------------------------------- size-law tails
#
# Each law is given by its tail quantile Q(w) = F^-1(1 - w), which keeps
# full precision for the largest sizes. Parameters are those of the
# paper's size-law comparison (all five have a mean near 1 Gb).

SIZE_LAWS = {
    "uniform": lambda w: 2e9 - (2e9 - 0.05e9) * w,
    "exponential": lambda w: -1e9 * np.log(w),
    "pareto": lambda w: 0.05e9 * w ** (-19.0 / 20.0),
    "lognormal": lambda w: np.exp(5.0 * LN10 - math.sqrt(8.0 * LN10) * ndtri(w)),
    "weibull": lambda w: 276.0 * (-np.log(w)) ** 10.0,
}


def size_draws(law: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. sizes of the named law."""
    return SIZE_LAWS[law](1.0 - rng.random(n))


def top_order_sizes(law: str, F: int, k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The k largest of F i.i.d. sizes, descending, for n catalogues.

    Uses uniform spacings: the k smallest of F uniforms are S_1..S_k / S_(F+1)
    with S_i partial sums of i.i.d. unit exponentials, and
    S_(F+1) = S_k + Gamma(F + 1 - k). Tail quantiles of those give the k
    largest sizes without drawing or sorting the other F - k.
    """
    partial = np.cumsum(rng.exponential(size=(n, k)), axis=1)
    total = partial[:, -1:] + rng.gamma(F + 1 - k, size=(n, 1))
    return SIZE_LAWS[law](partial / total)


# ------------------------------------------------------------- checks


def binomial_interval(successes: int, n: int, alpha: float) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided interval; valid at 0 and n."""
    lo = 0.0 if successes == 0 else float(betaincinv(successes, n - successes + 1, alpha / 2))
    hi = 1.0 if successes == n else float(betaincinv(successes + 1, n - successes, 1 - alpha / 2))
    return lo, hi


def normal_quantile(alpha: float) -> float:
    """z with P(|N(0,1)| > z) = alpha."""
    return float(-ndtri(alpha / 2))


def check_relative(label: str, got: float, want: float, rel: float) -> list[str]:
    if abs(got - want) <= rel * abs(want) or (want == 0.0 and got == 0.0):
        return []
    return [f"{label}: {got!r} differs from independent {want!r} by more than {rel:g} relative"]


def check_binomial(label: str, simulated: float, n: int, p: float, alpha: float, p_error: float = 0.0) -> list[str]:
    """Simulated frequency against probability p.

    p_error is the standard error of p itself; half of alpha goes to the
    exact interval of the frequency and half to a normal band around p.
    """
    k = round(simulated * n)
    if abs(k - simulated * n) > 1e-6:
        return [f"{label}: simulated {simulated!r} is not a frequency over {n} iterations"]
    lo, hi = binomial_interval(k, n, alpha / 2 if p_error else alpha)
    band = normal_quantile(alpha / 2) * p_error if p_error else 0.0
    if p + band < lo or p - band > hi:
        return [f"{label}: simulated {k}/{n} excludes {p:.6f} (+/- {band:.2g}); exact interval [{lo:.4f}, {hi:.4f}]"]
    return []


def check_within(label: str, got: float, want: float, stderr: float, alpha: float) -> list[str]:
    """Two Monte Carlo estimates agree within their combined error.

    1e-12 absolute allows for rounding where both saturate and the
    per-draw spread, and so stderr, is 0.
    """
    if abs(got - want) <= normal_quantile(alpha) * stderr + 1e-12:
        return []
    return [f"{label}: {got!r} differs from independent {want!r} by {abs(got - want) / stderr:.1f} combined SE"]


def check_nondecreasing(label: str, values, slack: float = 1e-12) -> list[str]:
    """Nondecreasing up to float rounding of one unit in the 12th place."""
    values = list(values)
    bad = [i for i in range(1, len(values)) if values[i] < values[i - 1] - slack]
    return [f"{label}: decreases at step {i}: {values[i - 1]!r} -> {values[i]!r}" for i in bad]
