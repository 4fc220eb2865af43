import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline

import d2dcache
from d2dcache import (
    AnalyticInputs,
    ContentCatalogue,
    ExponentialFading,
    ExponentialLifespan,
    FixedLifespan,
    MetricEstimate,
    RadioParams,
    UniformSize,
    WeibullFading,
    coverage_radius_scale,
    expected_success,
    lifespan_moment,
    lifespan_moment_exponential,
    popularity_weighted_marginals,
    total_success,
    zipf_popularity,
)
import d2dcache.analytics as analytics
from d2dcache.analytics import (
    SizeRule,
    _coefficient,
    _exponential_moment,
    evaluate_expected_success,
    size_rule,
)
from d2dcache.experiments import COMPARISON_SIZE_LAWS

from conftest import single_object

W = 5e6
ALPHA = 4.0
ORDERS = ("independent", "increasing", "decreasing")


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((95, tag)))


def fixed_moment(z, tau, bandwidth, alpha):
    """I_T under a fixed lifespan tau, in lifespan_moment_exponential's argument order."""
    return lifespan_moment(FixedLifespan(tau), z, bandwidth, alpha)


def make_inputs(
    density=2.5e-3,
    power=0.5,
    noise=1e-11 * 5e6,
    bandwidth=W,
    alpha=ALPHA,
    F=100,
    gamma=0.78,
    K=5,
    sizes=None,
    lifespan=None,
):
    pop = zipf_popularity(F, gamma)
    if sizes is None:
        sizes = np.full(F, 1e9)
    catalogue = ContentCatalogue(popularity=pop, sizes=np.asarray(sizes, dtype=float))
    return AnalyticInputs(
        density=density,
        radio=RadioParams(power=power, noise=noise, bandwidth=bandwidth, pathloss_exponent=alpha),
        fading=ExponentialFading(),
        lifespan=lifespan if lifespan is not None else ExponentialLifespan(1000.0),
        policy=popularity_weighted_marginals(pop, K),
        catalogue=catalogue,
    )


# ------------------------------------------------------- lifespan moments


def test_fixed_moment_reference_point():
    # z/(W*tau) = 0.2 at alpha=4 gives (2^0.2 - 1)^(-1/2)
    value = fixed_moment(0.2 * W * 50.0, 50.0, W, 4.0)
    assert value == pytest.approx((2.0 ** 0.2 - 1.0) ** -0.5, rel=1e-12)
    assert value == pytest.approx(2.59327, abs=1e-5)


def test_fixed_moment_unit_threshold():
    # z = W*tau makes the rate threshold exactly 1 bit/s/Hz, so the moment is 1
    assert fixed_moment(W * 100.0, 100.0, W, 4.0) == 1.0
    assert fixed_moment(W * 100.0, 100.0, W, 3.0) == 1.0


def test_fixed_moment_has_no_cutoff_for_huge_files():
    # no cutoff: at x = 2000 and alpha = 4 the moment is 2^-1000, not 0
    assert fixed_moment(2000.0 * W * 100.0, 100.0, W, 4.0) == pytest.approx(2.0**-1000, rel=1e-12)


def test_fixed_moment_accepts_arrays():
    z = np.array([0.2, 1.0, 2000.0]) * W * 100.0
    out = fixed_moment(z, 100.0, W, 4.0)
    np.testing.assert_allclose(out, [(2.0 ** 0.2 - 1.0) ** -0.5, 1.0, 2.0**-1000], rtol=1e-12)


def test_moment_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        fixed_moment(-1.0, 100.0, W, 4.0)
    with pytest.raises(ValueError):
        fixed_moment(1e9, 0.0, W, 4.0)
    with pytest.raises(ValueError):
        lifespan_moment_exponential(0.0, 100.0, W, 4.0)
    with pytest.raises(ValueError):
        lifespan_moment_exponential(1e9, -1.0, W, 4.0)


def test_exponential_moment_increases_with_mean_lifespan():
    values = [lifespan_moment_exponential(1e9, tau, W, 4.0) for tau in (10.0, 100.0, 1000.0)]
    assert values[0] < values[1] < values[2]
    assert all(v > 0 for v in values)


def test_exponential_moment_lower_bound():
    # conditioning on the lifespan exceeding its mean: the integrand is
    # nondecreasing in t, so the moment is at least e^(-1) times the value
    # at t = 1 (which is the fixed-lifespan moment at the same mean)
    for z, tau in ((1e9, 100.0), (1e7, 10.0), (5e8, 1000.0)):
        exp_val = lifespan_moment_exponential(z, tau, W, 4.0)
        fix_val = fixed_moment(z, tau, W, 4.0)
        assert exp_val >= math.exp(-1.0) * fix_val


def test_exponential_moment_against_monte_carlo():
    # independent oracle: draw the lifespan scale t ~ Exp(1) and average the
    # fixed-lifespan formula at effective threshold x0/t
    for z, tau in ((1e9, 1000.0), (1e7, 100.0), (5e8, 40.0)):
        quad_value = lifespan_moment_exponential(z, tau, W, 4.0)
        t = rng_for(0).exponential(1.0, size=1_000_000)
        draws = np.asarray(fixed_moment(z / t, tau, W, 4.0))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - quad_value) < 3 * se, (z, tau)


def _quad_oracle(x0, alpha):
    """(I_T, abserr) by adaptive quadrature in t, split around the ridge."""
    q = 2.0 / alpha
    y0 = x0 * math.log(2.0)

    def f(t):
        return math.exp(-t - q * y0 / t) * (-math.expm1(-y0 / t)) ** -q

    ridge = math.sqrt(q * y0)
    edges = [0.0, *sorted({ridge / 4.0, ridge, 1.0, 4.0 * ridge + 4.0}), math.inf]
    pieces = [
        integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[:2] for a, b in zip(edges, edges[1:])
    ]
    return math.fsum(v for v, _ in pieces), math.fsum(e for _, e in pieces)


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0])
def test_exponential_kernel_against_quad_oracle(alpha):
    x0 = np.logspace(-6.0, 2.0, 17)
    values, estimates = _exponential_moment(x0, alpha)
    for x, got, estimate in zip(x0, values, estimates):
        want, oracle_err = _quad_oracle(float(x), alpha)
        assert got == pytest.approx(want, rel=1e-9), x
        # the every-other-node estimate bounds the error, up to the oracle's own
        assert abs(got - want) <= estimate + oracle_err, x


@pytest.mark.parametrize("alpha", [2.01, 2.5, 4.0, 8.0, 12.0, 20.0, 50.0])
def test_exponential_kernel_holds_over_every_argument(alpha):
    # from x0 = 1e-300, where I_T reaches about 1e298 at alpha = 2.01, to the underflow cutoff
    x0 = np.logspace(-300.0, math.log10(1024.0), 4001)[:-1]
    values, _ = _exponential_moment(x0, alpha)
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)


def test_exponential_kernel_array_matches_scalar():
    tau = 300.0
    z = np.logspace(-3.0, 12.0, 150)
    array = lifespan_moment(ExponentialLifespan(tau), z, W, 4.0)
    scalar = [lifespan_moment_exponential(float(v), tau, W, 4.0) for v in z]
    np.testing.assert_allclose(array, scalar, rtol=1e-14, atol=0.0)
    grid = z[:120].reshape(12, 10)
    two_d = lifespan_moment(ExponentialLifespan(tau), grid, W, 4.0)
    assert two_d.shape == (12, 10)
    np.testing.assert_allclose(two_d, array[:120].reshape(12, 10), rtol=1e-14, atol=0.0)


def test_exponential_moment_tiny_threshold_matches_asymptote():
    # x0 = z/(W*tau) = 2e-10: the moment tends to Gamma(1 + q) (x0 ln2)^(-q)
    x0 = 1.0 / (W * 1000.0)
    asymptote = math.gamma(1.5) * (x0 * math.log(2.0)) ** -0.5
    assert asymptote == pytest.approx(75269.184779, rel=1e-11)
    assert lifespan_moment_exponential(1.0, 1000.0, W, 4.0) == pytest.approx(asymptote, rel=1e-9)


@pytest.mark.parametrize("law", sorted(COMPARISON_SIZE_LAWS))
def test_expected_success_under_exponential_lifespan_for_every_size_law(law):
    # lognormal and Weibull draws reach sizes far below a bit
    inputs = make_inputs(lifespan=ExponentialLifespan(300.0))
    est = expected_success(inputs, COMPARISON_SIZE_LAWS[law])
    assert math.isfinite(est.value) and 0.0 <= est.value <= 1.0
    assert (est.standard_error, est.sample_count) == (0.0, 0)


_NONFINITE_CALLS = {
    "exponential": lifespan_moment_exponential,
    "dispatch_fixed": lambda z, tau, w, alpha: lifespan_moment(FixedLifespan(tau), z, w, alpha),
    "dispatch_exponential": lambda z, tau, w, alpha: lifespan_moment(ExponentialLifespan(tau), z, w, alpha),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("entry", sorted(_NONFINITE_CALLS))
def test_moment_rejects_nonfinite_inputs(entry, position, bad):
    args = [1e9, 100.0, W, 4.0]
    args[position] = bad
    with pytest.raises(ValueError):
        _NONFINITE_CALLS[entry](*args)
    if position == 0:
        with pytest.raises(ValueError):
            _NONFINITE_CALLS[entry](np.array([1e9, bad]), *args[1:])


def test_package_import_does_not_load_scipy_integrate():
    src = str(Path(d2dcache.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # importing the package and taking the Nakagami and Rice moments must not load it
    code = (
        "import sys, d2dcache as d; "
        "d.fading_moment(d.NakagamiFading(2.0, 1.0), 4.0); d.fading_moment(d.RiceFading(1.0, 0.5), 4.0); "
        "sys.exit('scipy.integrate' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_moment_dispatcher_matches_specialized_forms():
    z = 1e9
    threshold = 2.0 ** (z / (W * 100.0)) - 1.0
    assert lifespan_moment(FixedLifespan(100.0), z, W, 4.0) == pytest.approx(threshold**-0.5, rel=1e-12)
    assert lifespan_moment(ExponentialLifespan(100.0), z, W, 4.0) == pytest.approx(
        lifespan_moment_exponential(z, 100.0, W, 4.0), rel=1e-12
    )


# ------------------------------------------------------- success metrics


def test_metric_estimate_validation():
    MetricEstimate(value=0.5, standard_error=0.01, sample_count=10)
    with pytest.raises(ValueError):
        MetricEstimate(value=-0.1)
    with pytest.raises(ValueError):
        MetricEstimate(value=1.1)
    with pytest.raises(ValueError):
        MetricEstimate(value=0.5, standard_error=-1.0)


def test_inputs_validation():
    good = make_inputs()
    with pytest.raises(ValueError):
        replace(good, density=-1.0)
    with pytest.raises(ValueError):
        replace(good, density=float("nan"))
    other_policy = popularity_weighted_marginals(zipf_popularity(50, 0.78), 5)
    with pytest.raises(ValueError):
        replace(good, policy=other_policy)


def test_uncached_object_never_served():
    # an uncached object's size does not enter total success, however small
    inputs = make_inputs()
    for j in (10, 50, 99):
        sizes = inputs.catalogue.sizes.copy()
        sizes[j] = 1.0
        tiny = replace(inputs, catalogue=replace(inputs.catalogue, sizes=sizes))
        assert total_success(tiny).value == total_success(inputs).value
    assert total_success(single_object(inputs, 10)).value == 0.0


def test_single_object_success_saturates_with_density():
    values = [total_success(single_object(make_inputs(density=d), 0)).value for d in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)]
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
    assert total_success(single_object(make_inputs(density=10.0), 0)).value == 1.0


def test_total_success_zero_with_empty_caches():
    inputs = make_inputs()
    empty = replace(inputs.policy, b=np.zeros(100))
    assert total_success(replace(inputs, policy=empty)).value == 0.0


@pytest.mark.parametrize("density", [2.5e-3, 0.0])
def test_total_success_raises_where_the_fading_moment_is_not_finite(density):
    # an infinite moment used to give the cached mass, and NaN at density 0
    inputs = replace(make_inputs(density=density), fading=WeibullFading(1.0, 1e-3))
    match = r"fading_moment is not finite at law=WeibullFading\(scale=1.0, shape=0.001\)"
    with pytest.raises(ArithmeticError, match=match):
        total_success(inputs)


def test_total_success_bounded_by_cached_popularity_mass():
    for tau in (10.0, 100.0, 1000.0, 1e7):
        inputs = make_inputs(lifespan=ExponentialLifespan(tau))
        cached_mass = inputs.catalogue.popularity.a[inputs.policy.b > 0].sum()
        assert total_success(inputs).value <= cached_mass + 1e-12


def test_total_success_approaches_cached_mass_for_long_lifespans():
    inputs = make_inputs(lifespan=FixedLifespan(1e12))
    cached_mass = inputs.catalogue.popularity.a[inputs.policy.b > 0].sum()
    assert total_success(inputs).value == pytest.approx(cached_mass, abs=1e-9)


def test_smaller_files_on_popular_objects_win():
    # matching the smallest files to the most popular objects beats the
    # reverse assignment at every lifespan
    sizes = np.sort(rng_for(1).exponential(1e9, size=100))
    for tau in (100.0, 400.0, 1000.0):
        increasing = make_inputs(sizes=sizes, lifespan=ExponentialLifespan(tau))
        decreasing = make_inputs(sizes=sizes[::-1], lifespan=ExponentialLifespan(tau))
        assert total_success(decreasing).value < total_success(increasing).value


def _engineered_base(rng):
    # threshold x = z/(W*tau) in [0.01, 10]; P/N = (2^x - 1) * 10^u with
    # u ~ U[1, 4] keeps the link budget in the regime where success is
    # monotone in every parameter, including the pathloss exponent
    x = 10.0 ** rng.uniform(-2.0, 1.0)
    u = rng.uniform(1.0, 4.0)
    tau = 10.0 ** rng.uniform(1.0, 3.0)
    noise = 1e-11 * W
    power = (2.0 ** x - 1.0) * 10.0 ** u * noise
    z = x * W * tau
    return make_inputs(
        density=10.0 ** rng.uniform(-4.0, -2.0),
        power=power,
        noise=noise,
        F=20,
        K=3,
        sizes=np.full(20, z),
        lifespan=FixedLifespan(tau),
    )


def test_success_monotone_in_every_parameter():
    rng = rng_for(2)
    for _ in range(10):
        inputs = _engineered_base(rng)
        base = total_success(inputs).value
        tau = inputs.lifespan.mean

        def val(**changes):
            lifespan = changes.pop("lifespan", inputs.lifespan)
            catalogue = changes.pop("catalogue", inputs.catalogue)
            radio = replace(inputs.radio, **changes) if changes else inputs.radio
            return total_success(
                replace(inputs, radio=radio, lifespan=lifespan, catalogue=catalogue)
            ).value

        assert total_success(replace(inputs, density=inputs.density * 2)).value >= base
        assert val(power=inputs.radio.power * 2) >= base
        assert val(bandwidth=inputs.radio.bandwidth * 2) >= base
        assert val(lifespan=FixedLifespan(tau * 2)) >= base
        assert val(noise=inputs.radio.noise * 2) <= base
        assert val(pathloss_exponent=inputs.radio.pathloss_exponent + 0.5) <= base
        bigger = replace(inputs.catalogue, sizes=inputs.catalogue.sizes * 2)
        assert val(catalogue=bigger) <= base


def test_scaled_down_marginals_reduce_success():
    inputs = make_inputs()
    halved = replace(inputs, policy=replace(inputs.policy, b=inputs.policy.b * 0.5))
    assert total_success(halved).value < total_success(inputs).value


# ------------------------------------------------------- size-law average


def test_expected_success_with_point_mass_matches_total():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    point = UniformSize(1e9, 1e9)
    for order in ("independent", "increasing", "decreasing"):
        est = expected_success(inputs, point, order=order)
        assert est.value == pytest.approx(total_success(inputs).value, abs=1e-12)
        assert (est.standard_error, est.sample_count) == (0.0, 0)


def test_expected_success_rejects_stream_without_samples():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    with pytest.raises(ValueError, match="mc_samples"):
        expected_success(inputs, UniformSize(5e7, 2e9), rng=rng_for(4))
    # and samples without a stream: no draw is unseeded
    with pytest.raises(ValueError, match="rng"):
        expected_success(inputs, UniformSize(5e7, 2e9), mc_samples=5000)


def test_expected_success_requires_enough_samples():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    with pytest.raises(ValueError, match="at least 1000"):
        expected_success(inputs, UniformSize(1e8, 1e9), mc_samples=999, rng=rng_for(4))


@pytest.mark.parametrize("mc_samples", [1500.5, 2000.0, math.nan, math.inf, "5000"])
def test_expected_success_requires_integer_samples(mc_samples):
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    with pytest.raises(ValueError, match="mc_samples"):
        expected_success(inputs, UniformSize(1e8, 1e9), mc_samples=mc_samples, rng=rng_for(3))


def test_sampled_expected_success_deterministic_given_stream():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    law = UniformSize(5e7, 2e9)
    first = expected_success(inputs, law, mc_samples=5000, rng=rng_for(4))
    assert first == expected_success(inputs, law, 5000, rng_for(4))
    assert first.sample_count == 5000 and first.standard_error > 0


@pytest.mark.parametrize("lifespan", [FixedLifespan(500.0), ExponentialLifespan(500.0)], ids=["fixed", "exponential"])
@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_sampled_expectation_matches_sorted_catalogue_draws(order, lifespan):
    # oracle: from the same generator state, draw each catalogue row by
    # row, sort it by hand and average total_success over the draws
    inputs = make_inputs(lifespan=lifespan)
    law = UniformSize(5e7, 2e9)
    est = expected_success(inputs, law, mc_samples=30_000, rng=rng_for(6), order=order)
    rng = rng_for(6)
    direct = []
    for _ in range(300):
        sizes = np.sort(law.inverse_cdf(rng.random(100)))
        sizes = sizes if order == "increasing" else sizes[::-1]
        catalogue = ContentCatalogue(popularity=inputs.catalogue.popularity, sizes=sizes)
        direct.append(total_success(replace(inputs, catalogue=catalogue)).value)
    assert est.sample_count == 300
    assert est.value == pytest.approx(math.fsum(direct) / 300, rel=1e-12)
    assert est.standard_error == pytest.approx(np.std(direct, ddof=1) / math.sqrt(300), rel=1e-9)


@pytest.mark.parametrize("order", ORDERS)
def test_sampled_expected_success_agrees_with_rule(order):
    inputs = make_inputs(F=200, lifespan=FixedLifespan(300.0))
    law = COMPARISON_SIZE_LAWS["exponential"]
    sampled = expected_success(inputs, law, mc_samples=200_000, rng=rng_for(13), order=order)
    exact = expected_success(inputs, law, order=order)
    assert abs(sampled.value - exact.value) <= 4 * sampled.standard_error


def test_expected_success_tracks_direct_average():
    # independent oracle: average total_success over catalogues with sizes
    # resampled from the law (same uniforms via inverse transform)
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    law = UniformSize(5e7, 2e9)
    est = expected_success(inputs, law)
    direct = []
    for ui in rng_for(5).random(400):
        sizes = np.full(100, float(law.inverse_cdf(ui)))
        direct.append(total_success(replace(inputs, catalogue=replace(inputs.catalogue, sizes=sizes))).value)
    direct = np.asarray(direct)
    assert abs(est.value - direct.mean()) < 3 * direct.std(ddof=1) / math.sqrt(direct.size)


SIZE_DRAWS = 1_000_000
RULE_TAU = 300.0


@pytest.fixture(scope="module")
def tabulated_exponential_moment():
    """I_T(z) under an exponential lifespan of mean RULE_TAU, as a cubic
    spline in log-log through the package's kernel on a grid of x0.

    The kernel costs about 20 us a size, too slow for 10^6 sizes a case.
    The spline is checked against the kernel at 2000 random x0 (relative
    error about 2e-9, far below the Monte Carlo's); below the grid I_T
    exceeds 1e13, so success is 1, and above it I_T < 1e-50 is taken as 0.
    """
    s = np.arange(-60.0, 9.25, 0.02)
    spline = CubicSpline(s, np.log(_exponential_moment(np.exp(s), ALPHA)[0]))
    x = np.exp(rng_for(11).uniform(s[0], s[-1], 2000))
    np.testing.assert_allclose(np.exp(spline(np.log(x))), _exponential_moment(x, ALPHA)[0], rtol=1e-8)

    def moment(z):
        log_x = np.log(z / (W * RULE_TAU))
        return np.where(log_x > s[-1], 0.0, np.exp(spline(np.maximum(log_x, s[0]))))

    return moment


def _monte_carlo_success(inputs, law, order, moment, rng):
    """Per-draw success of an independent Monte Carlo over SIZE_DRAWS sizes.

    With order "independent" each draw is one size, shared by every cached
    object; otherwise each draw is a whole catalogue of F sizes, sorted by
    hand and assigned to popularity ranks (SIZE_DRAWS // F catalogues).
    """
    a, b = inputs.catalogue.popularity.a, inputs.policy.b
    cached = np.flatnonzero(b > 0)
    F = inputs.catalogue.F
    if order == "independent":
        its = np.broadcast_to(moment(law.inverse_cdf(rng.random(SIZE_DRAWS))), (cached.size, SIZE_DRAWS))
    else:
        catalogues = np.sort(law.inverse_cdf(rng.random((SIZE_DRAWS // F, F))), axis=1)
        its = moment((catalogues if order == "increasing" else catalogues[:, ::-1])[:, cached].T)
    success = np.zeros(its.shape[1])
    for j, row in zip(cached, its):
        success += a[j] * -np.expm1(-_coefficient(inputs) * b[j] * row)
    return success


@pytest.mark.parametrize("lifespan", ["fixed", "exponential"])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("law", sorted(COMPARISON_SIZE_LAWS))
def test_size_rule_matches_monte_carlo(law, order, lifespan, tabulated_exponential_moment):
    # F = 20 keeps 5 x 10^4 sorted catalogues cheap; rank k of 20 is a
    # broad Beta(k, 21 - k), so a wrong k or density would show
    if lifespan == "fixed":
        inputs = make_inputs(F=20, lifespan=FixedLifespan(RULE_TAU))
        moment = lambda z: fixed_moment(z, RULE_TAU, W, ALPHA)  # noqa: E731
    else:
        inputs = make_inputs(F=20, lifespan=ExponentialLifespan(RULE_TAU))
        moment = tabulated_exponential_moment
    size_law = COMPARISON_SIZE_LAWS[law]
    # one stream per case, so that the 30 checks are independent
    case = (sorted(COMPARISON_SIZE_LAWS).index(law), ORDERS.index(order), lifespan == "fixed")
    rng = np.random.default_rng(np.random.SeedSequence((95, 12, *case)))
    draws = _monte_carlo_success(inputs, size_law, order, moment, rng)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    exact = expected_success(inputs, size_law, order=order).value
    # n draws do not see an event rarer than about 1/n, so their spread
    # cannot bound its share: allow 3/n (the rule of three) on top of 4 SE
    assert abs(exact - draws.mean()) <= 4 * se + 3 / draws.size, (exact, draws.mean(), se)


@pytest.mark.parametrize("lifespan", [FixedLifespan(100.0), ExponentialLifespan(100.0)], ids=["fixed", "exponential"])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("law", sorted(COMPARISON_SIZE_LAWS))
def test_size_rule_converged_at_its_step(monkeypatch, law, order, lifespan):
    # the rule at h = 1/8 against the same rule at h = 1/32
    for density in (1e-4, 1e-2):
        inputs = make_inputs(F=200, density=density, lifespan=lifespan)
        size_law = COMPARISON_SIZE_LAWS[law]
        coarse = expected_success(inputs, size_law, order=order).value
        with monkeypatch.context() as patch:
            patch.setattr(analytics, "_LOGIT_STEP", 1.0 / 32.0)
            fine_rule = size_rule(inputs.policy, size_law, order)
            fine = evaluate_expected_success(inputs, fine_rule).value
        assert fine_rule.sizes.size == 2305
        assert abs(coarse - fine) <= 1e-12, (density, coarse, fine)


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
@pytest.mark.parametrize("law", sorted(COMPARISON_SIZE_LAWS))
def test_size_rule_narrows_its_step_for_large_ordered_caches(monkeypatch, law, order):
    # K = 50 of F = 200 caches rank k = 101 (decreasing) or 100
    # (increasing), whose marginal has standard deviation 0.141 in logit(u):
    # step 1/8 would not resolve it, so the step halves to 1/16
    inputs = make_inputs(F=200, K=50, lifespan=FixedLifespan(RULE_TAU))
    size_law = COMPARISON_SIZE_LAWS[law]
    rule = size_rule(inputs.policy, size_law, order)
    assert rule.sizes.size == 1153 and rule.weights.shape == (100, 1153)
    value = evaluate_expected_success(inputs, rule).value
    with monkeypatch.context() as patch:
        patch.setattr(analytics, "_LOGIT_STEP", 1.0 / 64.0)
        fine = expected_success(inputs, size_law, order=order).value
    assert abs(value - fine) <= 1e-12, (value, fine)
    case = (sorted(COMPARISON_SIZE_LAWS).index(law), ORDERS.index(order))
    rng = np.random.default_rng(np.random.SeedSequence((95, 14, *case)))
    moment = lambda z: fixed_moment(z, RULE_TAU, W, ALPHA)  # noqa: E731
    draws = _monte_carlo_success(inputs, size_law, order, moment, rng)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(value - draws.mean()) <= 4 * se + 3 / draws.size, (value, draws.mean(), se)


def test_size_rule_raises_when_error_estimate_exceeds_tolerance(monkeypatch):
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    monkeypatch.setattr(analytics, "_SIZE_ATOL", -1.0)
    law = UniformSize(5e7, 2e9)
    with pytest.raises(ArithmeticError, match=re.escape(f"{law!r}, order='decreasing'")):
        expected_success(inputs, law, order="decreasing")


def test_size_rule_shapes():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    law = UniformSize(5e7, 2e9)
    assert size_rule(inputs.policy, law, "independent").weights.shape == (1, 577)
    assert size_rule(inputs.policy, law, "decreasing").weights.shape == (10, 577)
    with pytest.raises(ValueError, match="ordering"):
        size_rule(inputs.policy, law, "shuffled")


def test_evaluation_rejects_rule_of_another_shape():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    rule = size_rule(inputs.policy, UniformSize(5e7, 2e9), "independent")
    with pytest.raises(ValueError, match="cached objects"):
        evaluate_expected_success(inputs, SizeRule(rule.law, "decreasing", rule.sizes, np.ones((3, 577))))


# ------------------------------------------------------- coverage scale


def test_coverage_scale_behaviour():
    inputs = make_inputs(lifespan=FixedLifespan(1000.0))
    scale = coverage_radius_scale(inputs)
    assert scale > 0
    louder = replace(inputs, radio=replace(inputs.radio, power=inputs.radio.power * 16))
    assert coverage_radius_scale(louder) == pytest.approx(scale * 2.0, rel=1e-9)
    empty = replace(inputs, policy=replace(inputs.policy, b=np.zeros(100)))
    assert coverage_radius_scale(empty) == 0.0
