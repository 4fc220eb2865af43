import math
import re

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gamma as gamma_fn, i0e

from d2dcache import (
    ExponentialFading,
    LogNormalFading,
    NakagamiFading,
    RadioParams,
    RiceFading,
    WeibullFading,
    fading_moment,
    link_bits,
    sample_fading,
)


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((91, tag)))


@pytest.fixture
def params():
    return RadioParams(power=0.5, noise=1e-11, bandwidth=5e6, pathloss_exponent=4.0)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(power=0.0, noise=1.0, bandwidth=1.0, pathloss_exponent=4.0)
    with pytest.raises(ValueError):
        RadioParams(power=1.0, noise=-1.0, bandwidth=1.0, pathloss_exponent=4.0)
    with pytest.raises(ValueError):
        RadioParams(power=1.0, noise=1.0, bandwidth=0.0, pathloss_exponent=4.0)
    with pytest.raises(ValueError):
        RadioParams(power=1.0, noise=1.0, bandwidth=1.0, pathloss_exponent=2.0)


def test_snr_reference_value(params):
    # P/N = 5e10 and r^-4 = 1e-4 at 10 m: SNR 5e6, so one second at unit
    # fading moves W log2(1 + 5e6) bits
    assert link_bits(params, 1.0, 10.0, 1.0) == pytest.approx(5e6 * math.log2(1.0 + 5e6), rel=1e-12)


def test_snr_zero_fading_and_power_law(params):
    assert link_bits(params, 0.0, 10.0, 1.0) == 0.0
    # doubling the distance divides the SNR by 2^alpha = 16
    assert link_bits(params, 1.0, 20.0, 1.0) == pytest.approx(5e6 * math.log2(1.0 + 5e6 / 16.0), rel=1e-12)


def test_snr_rejects_zero_distance(params):
    for bad in (0.0, np.array([10.0, -1.0]), math.nan, True, "1"):
        with pytest.raises(ValueError):
            link_bits(params, 1.0, bad, 1.0)


def test_rate_reference_values(params):
    # fading h sets the SNR to 5e10 * h * 1e-4 at 10 m
    h_for_snr = lambda target: target / 5e6
    assert link_bits(params, h_for_snr(1.0), 10.0, 1.0) == pytest.approx(5e6, rel=1e-12)
    assert link_bits(params, h_for_snr(3.0), 10.0, 1.0) == pytest.approx(1e7, rel=1e-12)
    assert link_bits(params, h_for_snr(3.0), 10.0, 2.5) == pytest.approx(2.5e7, rel=1e-12)
    assert link_bits(params, 1.0, 10.0, 0.0) == 0.0
    for bad in (-0.5, math.nan, True, "1"):
        with pytest.raises(ValueError):
            link_bits(params, bad, 10.0, 1.0)
        with pytest.raises(ValueError):
            link_bits(params, 1.0, 10.0, bad)


def test_rate_monotone_and_snr_decreasing_in_distance(params):
    fading = np.linspace(0.0, 10.0, 50)
    assert np.all(np.diff(link_bits(params, fading, 10.0, 1.0)) > 0)
    distances = np.linspace(1.0, 100.0, 50)
    assert np.all(np.diff(link_bits(params, 1.0, distances, 1.0)) < 0)
    lifespans = np.linspace(0.0, 10.0, 50)
    assert np.all(np.diff(link_bits(params, 1.0, 10.0, lifespans)) > 0)


def test_exponential_fading_sample_mean():
    h = sample_fading(ExponentialFading(1.0), rng_for(0), size=100_000)
    se = h.std(ddof=1) / math.sqrt(h.size)
    assert abs(h.mean() - 1.0) < 3 * se


def test_lognormal_degenerate_limit():
    h = sample_fading(LogNormalFading(0.0, 1e-12), rng_for(1), size=1000)
    np.testing.assert_allclose(h, 1.0, rtol=1e-9)


def test_weibull_shape_one_is_exponential():
    h_w = sample_fading(WeibullFading(scale=1.0, shape=1.0), rng_for(2), size=20_000)
    h_e = sample_fading(ExponentialFading(1.0), rng_for(3), size=20_000)
    _, p_value = stats.ks_2samp(h_w, h_e)
    assert p_value > 0.01


def test_fading_law_validation():
    with pytest.raises(ValueError):
        ExponentialFading(0.0)
    with pytest.raises(ValueError):
        WeibullFading(scale=-1.0, shape=1.0)
    with pytest.raises(ValueError):
        NakagamiFading(m=0.0, omega=1.0)
    with pytest.raises(ValueError):
        RiceFading(nu=-0.1, sigma=1.0)


def test_fading_moment_exponential_reference():
    # independent oracle: direct quadrature of h^(1/2) e^(-h)
    oracle, _ = integrate.quad(lambda h: math.sqrt(h) * math.exp(-h), 0, np.inf)
    value = fading_moment(ExponentialFading(1.0), 4.0)
    assert value == pytest.approx(oracle, rel=1e-9)
    assert value == pytest.approx(0.886227, abs=1e-6)


def test_fading_moment_exponential_rate_scaling():
    lam = 4.0
    expected = lam ** (-0.5) * gamma_fn(1.5)
    assert fading_moment(ExponentialFading(lam), 4.0) == pytest.approx(expected, rel=1e-12)


def test_fading_moment_degenerate_is_one():
    for alpha in (3.0, 4.0, 6.0):
        assert fading_moment(LogNormalFading(0.0, 1e-12), alpha) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize(
    "law,alpha",
    [(ExponentialFading(1e-320), 2.0001), (LogNormalFading(0.0, 1e3), 4.0), (WeibullFading(1.0, 1e-3), 4.0)],
    ids=["exponential", "lognormal", "weibull"],
)
def test_fading_moment_beyond_the_floats_raises_naming_the_law(law, alpha):
    # the lognormal's math.exp used to raise a bare OverflowError, and the Weibull returned inf;
    # a Nakagami or Rice moment E[H^s], s < 1, is at most a power s of the finite E[H]
    match = re.escape(f"fading_moment is not finite at law={law!r}, alpha={alpha!r}, got inf")
    with pytest.raises(ArithmeticError, match=match):
        fading_moment(law, alpha)


def test_fading_moment_requires_alpha_above_two():
    with pytest.raises(ValueError):
        fading_moment(ExponentialFading(1.0), 2.0)


def test_nakagami_moment_against_gamma_closed_form():
    # H^2 ~ Gamma(m, omega/m), so E[H^q] = (omega/m)^(q/2) Gamma(m + q/2)/Gamma(m)
    for m, omega, alpha in ((2.0, 1.0, 4.0), (0.7, 2.0, 3.0), (3.5, 0.5, 6.0)):
        q = 2.0 / alpha
        expected = (omega / m) ** (q / 2.0) * gamma_fn(m + q / 2.0) / gamma_fn(m)
        assert fading_moment(NakagamiFading(m, omega), alpha) == pytest.approx(expected, rel=1e-7)


def test_rice_moment_small_line_of_sight_approaches_rayleigh():
    # nu -> 0 reduces Rice to Rayleigh(sigma): E[H^q] = (2 sigma^2)^(q/2) Gamma(1 + q/2)
    sigma, alpha = 0.8, 4.0
    q = 2.0 / alpha
    rayleigh = (2.0 * sigma**2) ** (q / 2.0) * gamma_fn(1.0 + q / 2.0)
    assert fading_moment(RiceFading(1e-9, sigma), alpha) == pytest.approx(rayleigh, rel=1e-6)


def test_fading_moment_spot_check_against_sampling():
    rng = rng_for(4)
    for law in (WeibullFading(1.2, 1.5), RiceFading(1.0, 0.5)):
        h = sample_fading(law, rng, size=200_000)
        mc = h ** 0.5
        se = mc.std(ddof=1) / math.sqrt(mc.size)
        assert abs(mc.mean() - fading_moment(law, 4.0)) < 3 * se


# ------------------------------------------- oracle: quadrature of the densities


def nakagami_pdf(m, omega):
    lognorm = math.log(2.0) + m * math.log(m / omega) - math.lgamma(m)
    return lambda h: math.exp(lognorm + (2 * m - 1) * math.log(h) - m * h * h / omega)


def rice_pdf(nu, sigma):
    s2 = sigma * sigma
    # i0e carries the e^{-x} factor, which cancels the cross term of the
    # Gaussian exponent and keeps the product finite for large h
    return lambda h: (h / s2) * i0e(h * nu / s2) * math.exp(-((h - nu) ** 2) / (2 * s2))


def quadrature_moment(law, alpha):
    """E[H^(2/alpha)] by quad over a finite window around the density's mass.

    The window leaves out at most 2e-30 of the mass (quantiles of the gamma
    law of H^2 for Nakagami, nu +- 40 sigma for Rice) and has a breakpoint
    at the Nakagami mode or at nu, so quad cannot miss a narrow peak far
    out on the half line.
    """
    q = 2.0 / alpha
    if isinstance(law, NakagamiFading):
        power = stats.gamma(law.m, scale=law.omega / law.m)
        pdf, lo, hi = nakagami_pdf(law.m, law.omega), math.sqrt(power.ppf(1e-30)), math.sqrt(power.isf(1e-30))
        peak = math.sqrt(law.omega * max(1.0 - 0.5 / law.m, 0.0))
    else:
        pdf, lo, hi = rice_pdf(law.nu, law.sigma), max(law.nu - 40.0 * law.sigma, 0.0), law.nu + 40.0 * law.sigma
        peak = law.nu
    value, abserr = integrate.quad(
        lambda h: h**q * pdf(h) if h > 0 else 0.0, lo, hi, points=[peak], epsabs=0.0, epsrel=1e-12, limit=500
    )
    assert abserr <= 1e-11 * value
    return value


ORACLE_LAWS = [
    NakagamiFading(0.5, 1.0),
    NakagamiFading(0.7, 2.0),
    NakagamiFading(2.0, 1.0),
    NakagamiFading(3.5, 0.5),
    NakagamiFading(300.0, 1.0),  # Gamma(m) alone overflows past m = 171
    RiceFading(0.0, 1.0),
    RiceFading(1e-100, 1.0),  # scipy's 1F1 alone returns inf here at alpha = 12
    RiceFading(1e-9, 0.8),
    RiceFading(1.0, 0.5),
    RiceFading(3.0, 1.0),
    RiceFading(30.0, 0.1),
    RiceFading(100.0, 1.0),
    RiceFading(10.0, 0.01),  # nu / sigma = 1e3
    RiceFading(1.4e4, 1.0),  # K just below the large-K switch at 1e8
    RiceFading(2e4, 1.0),  # and just above it
    RiceFading(1e6, 1.0),  # scipy's 1F1 alone returns NaN here at alpha = 12
]


def test_nakagami_moment_at_extreme_parameters():
    # Gamma(m + s) / Gamma(m) tends to m^s as m grows and to Gamma(s) m as m
    # falls to 0, while omega / m under- or overflows
    s = 0.25
    assert fading_moment(NakagamiFading(1e300, 1e-300), 4.0) == pytest.approx(1e-75, rel=1e-12)
    expected = 1e300**s * gamma_fn(s) * 1e-300 ** (1 - s)
    assert fading_moment(NakagamiFading(1e-300, 1e300), 4.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 12.0])
@pytest.mark.parametrize("law", ORACLE_LAWS, ids=repr)
def test_fading_moment_against_density_quadrature(law, alpha):
    assert fading_moment(law, alpha) == pytest.approx(quadrature_moment(law, alpha), rel=1e-9)


def test_rice_moment_strong_line_of_sight_reference():
    # nu^2 / (2 sigma^2) = 4.5e4 puts all the mass in a narrow peak at nu,
    # which quadrature over the whole half line misses; 10^6 draws give
    # 5.477231 +- 9e-6
    assert fading_moment(RiceFading(30.0, 0.1), 4.0) == pytest.approx(5.47723318, abs=1e-8)
    assert fading_moment(RiceFading(100.0, 1.0), 4.0) == pytest.approx(10.0001250, abs=1e-7)
