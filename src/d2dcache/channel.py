"""Radio link model: fading laws, the link budget and fading moments.

The link budget is intentionally minimal: a transmit power, a receiver
noise power, a power-law path loss and a multiplicative fading variable H.
Everything downstream (simulation and closed forms) consumes only the
quantities defined here; every fading moment is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, hyp1f1, poch

from .content import check_real, check_reals


@dataclass(frozen=True)
class RadioParams:
    """Static radio parameters of every link.

    power and noise must be expressed in the same units; only their ratio
    enters the SNR. bandwidth is in Hz and pathloss_exponent must exceed 2
    for the planar coverage integrals to converge.
    """

    power: float
    noise: float
    bandwidth: float
    pathloss_exponent: float

    def __post_init__(self):
        check_real("power", self.power, 0, math.inf)
        check_real("noise", self.noise, 0, math.inf)
        check_real("bandwidth", self.bandwidth, 0, math.inf)
        check_real("pathloss_exponent", self.pathloss_exponent, 2, math.inf)


@dataclass(frozen=True)
class ExponentialFading:
    rate: float = 1.0

    def __post_init__(self):
        check_real("rate", self.rate, 0, math.inf)


@dataclass(frozen=True)
class LogNormalFading:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_real("mu", self.mu)
        check_real("sigma", self.sigma, 0, math.inf, "[)")


@dataclass(frozen=True)
class WeibullFading:
    scale: float = 1.0
    shape: float = 1.0

    def __post_init__(self):
        check_real("scale", self.scale, 0, math.inf)
        check_real("shape", self.shape, 0, math.inf)


@dataclass(frozen=True)
class NakagamiFading:
    m: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        check_real("m", self.m, 0, math.inf)
        check_real("omega", self.omega, 0, math.inf)


@dataclass(frozen=True)
class RiceFading:
    nu: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        check_real("nu", self.nu, 0, math.inf, "[)")
        check_real("sigma", self.sigma, 0, math.inf)


FadingLaw = ExponentialFading | LogNormalFading | WeibullFading | NakagamiFading | RiceFading


def sample_fading(law: FadingLaw, rng: np.random.Generator, size=None):
    """Draw fading values from the given law (scalar or array of `size`)."""
    if isinstance(law, ExponentialFading):
        return rng.exponential(1.0 / law.rate, size=size)
    if isinstance(law, LogNormalFading):
        return rng.lognormal(law.mu, law.sigma, size=size)
    if isinstance(law, WeibullFading):
        return law.scale * rng.weibull(law.shape, size=size)
    if isinstance(law, NakagamiFading):
        return np.sqrt(rng.gamma(law.m, law.omega / law.m, size=size))
    if isinstance(law, RiceFading):
        z1 = rng.standard_normal(size)
        z2 = rng.standard_normal(size)
        return np.hypot(law.nu + law.sigma * z1, law.sigma * z2)
    raise TypeError(f"unknown fading law {law!r}")


def link_bits(params: RadioParams, h, r, tau):
    """Bits a link moves within its lifespan at the Shannon rate.

    tau * W * log2(1 + P * h * r^(-alpha) / N) for fading h >= 0, distance
    r > 0 in meters (the power-law path loss is singular at 0) and lifespan
    tau >= 0 in seconds, broadcast together. A file of z bits is delivered
    when this is at least z.
    """
    h, tau = check_reals("h", h, 0, math.inf, "[)"), check_reals("tau", tau, 0, math.inf, "[)")
    r = check_reals("r", r, 0, math.inf)
    gain = params.power * h * r ** (-params.pathloss_exponent) / params.noise
    return tau * params.bandwidth * np.log1p(gain) / math.log(2.0)


def fading_moment(law: FadingLaw, alpha: float) -> float:
    """The moment E[H^(2/alpha)] of the fading variable.

    Every law has a closed form (Simon & Alouini, 2005). With s = 2/alpha,
    Nakagami gives omega^(s/2) [Gamma(m + s/2) / Gamma(m)] / m^(s/2), the
    bracket as a Pochhammer symbol that does not overflow, and Rice gives
    (2 sigma^2)^(s/2) Gamma(1 + s/2) 1F1(-s/2; 1; -K), K = nu^2 / (2 sigma^2).
    scipy's 1F1 gives inf or NaN below K ~ 1e-166 or above 1e10 at small s;
    K <= 1e-16 takes 1F1 = 1 and K > 1e8 the expansion nu^s (1 + s^2/(4K)).
    """
    check_real("alpha", alpha, 2, math.inf)
    q = 2.0 / alpha
    if isinstance(law, ExponentialFading):
        return law.rate ** (-q) * gamma_fn(q + 1.0)
    if isinstance(law, LogNormalFading):
        return math.exp(q * law.mu + 0.5 * q * q * law.sigma**2)
    if isinstance(law, WeibullFading):
        return law.scale**q * gamma_fn(1.0 + q / law.shape)
    if isinstance(law, NakagamiFading):
        return law.omega ** (q / 2.0) * (poch(law.m, q / 2.0) / law.m ** (q / 2.0))
    if isinstance(law, RiceFading):
        K = 0.5 * (law.nu / law.sigma) ** 2
        if K > 1e8:
            return law.nu**q * (1.0 + 0.25 * q * q / K)
        kummer = hyp1f1(-q / 2.0, 1.0, -K) if K > 1e-16 else 1.0
        return (math.sqrt(2.0) * law.sigma) ** q * gamma_fn(1.0 + q / 2.0) * kummer
    raise TypeError(f"unknown fading law {law!r}")
