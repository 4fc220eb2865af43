import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from d2dcache import (
    ORDERING_MODES,
    AnalyticInputs,
    ContentCatalogue,
    ExponentialFading,
    ExponentialLifespan,
    ExponentialSize,
    FixedLifespan,
    PopularityLaw,
    RadioParams,
    SimulationConfig,
    UniformSize,
    WeibullSize,
    Window,
    build_preset,
    estimate_total_success,
    link_bits,
    popularity_weighted_marginals,
    required_half_width,
    sample_disc,
    sample_fading,
    sample_lifespan,
    sample_sizes,
    total_success,
    zipf_popularity,
)
from d2dcache.analytics import size_rule
from d2dcache.experiments import _radio
from d2dcache.simulator import BLOCK_SIZE, _campbell_terms, _qualifier_means, _radii, _request_sizes, _run_block

from conftest import single_object


def small_inputs(density=2.5e-3, tau_mean=100.0, F=20, K=3, size_bits=1e7, lifespan=ExponentialLifespan):
    pop = zipf_popularity(F, 0.78)
    return AnalyticInputs(
        density=density,
        radio=RadioParams(power=0.5, noise=1e-11 * 5e6, bandwidth=5e6, pathloss_exponent=4.0),
        fading=ExponentialFading(),
        lifespan=lifespan(tau_mean),
        policy=popularity_weighted_marginals(pop, K),
        catalogue=ContentCatalogue(popularity=pop, sizes=np.full(F, size_bits)),
    )


def make_config(inputs, iterations=400, seed=11, **kw):
    hw = kw.pop("half_width", None) or required_half_width(inputs)
    return SimulationConfig(
        inputs=inputs, window=Window(hw), iterations=iterations, master_seed=seed, **kw
    )


# ------------------------------------------------------------- degenerate


def test_empty_field_never_serves():
    inputs = small_inputs(density=0.0)
    est = estimate_total_success(make_config(inputs, iterations=50, half_width=500.0))
    assert est.value == 0.0
    assert est.sample_count == 50


def test_all_empty_caches_never_serve():
    inputs = small_inputs()
    empty = replace(inputs, policy=replace(inputs.policy, b=np.zeros(20)))
    est = estimate_total_success(make_config(empty, iterations=50))
    assert est.value == 0.0


def test_requests_for_an_uncached_object_never_serve():
    # every request is for object 0, which no transmitter caches; the
    # cached objects 1-5 are never requested
    inputs = small_inputs()
    b = inputs.policy.b.copy()
    b[0] = 0.0
    a = np.zeros(20)
    a[0] = 1.0
    unrequested = replace(
        inputs,
        policy=replace(inputs.policy, b=b),
        catalogue=replace(inputs.catalogue, popularity=PopularityLaw(20, a)),
    )
    est = estimate_total_success(make_config(unrequested, iterations=300))
    assert est.value == 0.0 and est.standard_error == 0.0 and est.sample_count == 300


def test_single_close_transmitter_delivers():
    radio = RadioParams(power=0.5, noise=1e-11, bandwidth=5e6, pathloss_exponent=4.0)
    # at r=1 m the link runs at W*log2(1+5e10) bits/s; one second moves
    # ~1.8e8 bits, far more than the 1e7-bit file
    assert link_bits(radio, 1.0, 1.0, 1.0) >= 1e7
    # the same link cannot move a 1e12-bit file in that second
    assert link_bits(radio, 1.0, 1.0, 1.0) < 1e12


def test_config_validation():
    inputs = small_inputs()
    with pytest.raises(ValueError):
        make_config(inputs, iterations=0)
    with pytest.raises(ValueError):
        SimulationConfig(inputs=inputs, window=Window(500.0), iterations=10, parallelism=0)
    with pytest.raises(ValueError):
        SimulationConfig(inputs=inputs, window=Window(500.0), iterations=10, reorder="shuffled")


# ---------------------------------------------------------- reproducibility


def _block_radii(config):
    cached = np.flatnonzero(config.inputs.policy.b > 0)
    radii = np.zeros(config.inputs.catalogue.F)
    radii[cached], _ = _radii(
        config.inputs, config.inputs.catalogue.sizes[cached], config.inputs.policy.b[cached], config.window.half_width
    )
    return radii


def test_same_seed_reproduces_every_outcome():
    config = make_config(small_inputs(), iterations=3 * BLOCK_SIZE, seed=42)
    radii = _block_radii(config)
    first = [_run_block(config, radii, k)[0] for k in range(3)]
    second = [_run_block(config, radii, k)[0] for k in range(3)]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    shifted = [_run_block(replace(config, master_seed=43), radii, k)[0] for k in range(3)]
    assert any(not np.array_equal(a, b) for a, b in zip(first, shifted))
    # a full block's outcomes do not depend on how many requests follow it
    short = replace(config, iterations=BLOCK_SIZE + 10)
    assert np.array_equal(_run_block(short, radii, 0)[0], first[0])
    assert _run_block(short, radii, 1)[0].size == 10


def test_parallelism_does_not_change_the_estimate():
    # 1000 requests: three full blocks and a partial one
    inputs = small_inputs()
    estimates = [
        estimate_total_success(make_config(inputs, iterations=1000, seed=7, parallelism=workers))
        for workers in (1, 2, 3)
    ]
    assert all(e == estimates[0] for e in estimates)
    law = WeibullSize(276.0, 0.1)
    ordered = [
        estimate_total_success(
            make_config(inputs, iterations=1000, seed=7, parallelism=workers, size_law=law, reorder="decreasing")
        )
        for workers in (1, 3)
    ]
    assert ordered[0] == ordered[1]


@pytest.mark.parametrize(
    "draw",
    [
        lambda: sample_disc(1e-3, 100.0),
        lambda: sample_fading(ExponentialFading(1.0)),
        lambda: sample_lifespan(ExponentialLifespan(100.0)),
        lambda: sample_sizes(ExponentialSize(1e-9), 10),
    ],
    ids=["disc", "fading", "lifespan", "sizes"],
)
def test_samplers_require_a_generator(draw):
    # no draw can bypass a seeded generator
    with pytest.raises(TypeError):
        draw()


def test_tuple_master_seeds_are_accepted():
    inputs = small_inputs()
    a = estimate_total_success(make_config(inputs, iterations=40, seed=(3, 1, 0)))
    b = estimate_total_success(make_config(inputs, iterations=40, seed=(3, 1, 0)))
    assert a.value == b.value


@pytest.mark.parametrize("seed", [-1, (3, -1), 1.5, "7"], ids=["negative", "negative-entry", "float", "str"])
def test_master_seed_must_be_nonnegative_integers(seed):
    # numpy would only refuse it inside a block, without naming the field
    with pytest.raises(ValueError, match="master_seed"):
        make_config(small_inputs(), iterations=10, seed=seed)


# ------------------------------------------------------- against the closed form


def test_single_object_catalogues_match_closed_form():
    inputs = small_inputs(tau_mean=100.0)
    for j in (0, 2, 5):
        one = single_object(inputs, j)
        sim = estimate_total_success(make_config(one, iterations=1500, seed=5))
        ana = total_success(one)
        se = max(sim.standard_error, 1e-12)
        assert abs(sim.value - ana.value) < 3 * se, (j, sim.value, ana.value)


def test_total_matches_closed_form():
    inputs = small_inputs(tau_mean=100.0)
    sim = estimate_total_success(make_config(inputs, iterations=2000, seed=6))
    ana = total_success(inputs)
    assert abs(sim.value - ana.value) < 3 * sim.standard_error


def _validate_inputs(name, tau):
    """The validate preset's seed-0 catalogue at mean lifespan tau."""
    preset = build_preset(name, seed=0)
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    rng = np.random.default_rng(np.random.SeedSequence((0, 1)))
    return AnalyticInputs(
        density=preset.density,
        radio=_radio(preset),
        fading=ExponentialFading(1.0),
        lifespan=ExponentialLifespan(tau),
        policy=popularity_weighted_marginals(popularity, preset.cache_capacity),
        catalogue=ContentCatalogue(
            popularity=popularity,
            sizes=sample_sizes(ExponentialSize(1.0 / preset.size_mean_bits), preset.catalogue_size, rng),
        ),
    )


@pytest.mark.parametrize(
    "name,tau", [("validate_audio", 10.0), ("validate_audio", 100.0), ("validate_video", 100.0), ("validate_video", 1000.0)]
)
def test_validate_catalogues_match_closed_form_at_grid_ends(name, tau):
    inputs = _validate_inputs(name, tau)
    sim = estimate_total_success(make_config(inputs, iterations=200_000, seed=(61, int(tau))))
    ana = total_success(inputs).value
    z = (sim.value - ana) / sim.standard_error
    assert abs(z) <= 4.0, (name, tau, sim.value, ana, z)


def test_popular_small_files_served_more_often():
    # under increasing size order the most popular object has the smallest
    # file, so requests for it alone must beat requests for the least
    # popular cached one alone
    pop = zipf_popularity(20, 0.78)
    sizes = np.sort(np.random.default_rng(np.random.SeedSequence((96, 0))).exponential(5e8, 20))
    inputs = replace(small_inputs(tau_mean=100.0), catalogue=ContentCatalogue(popularity=pop, sizes=sizes))
    top, bottom = (
        estimate_total_success(make_config(single_object(inputs, j), iterations=1200, seed=8)) for j in (0, 5)
    )
    se = math.hypot(top.standard_error, bottom.standard_error)
    assert top.value - bottom.value > 3 * se


# --------------------------------------------------------- simulation radius


def qualifier_means(inputs, z, b, radius):
    return _qualifier_means(*_campbell_terms(inputs, z, b), inputs.radio.pathloss_exponent, radius)


def truncation_bound(m_in, m_out):
    return np.exp(-m_in) * -np.expm1(-m_out)


def _outside_mean_oracle(inputs, z, b, radius):
    """lambda b int_R^inf 2 pi r E_T[exp(-k_T r^alpha)] dr by adaptive quadrature."""
    radio = inputs.radio
    c = inputs.fading.rate * radio.noise / radio.power

    def qualifies(r, t):
        x = z * math.log(2.0) / (radio.bandwidth * t)
        return 0.0 if x > 700.0 else math.exp(-c * math.expm1(x) * r**radio.pathloss_exponent)

    tau = inputs.lifespan.mean
    if isinstance(inputs.lifespan, FixedLifespan):
        mean_over_t = lambda r: qualifies(r, tau)
    else:
        # E_T over s = ln(T/tau), whose density is e^(s - e^s)
        mean_over_t = lambda r: integrate.quad(
            lambda s: math.exp(s - math.exp(s)) * qualifies(r, tau * math.exp(s)),
            -45.0,
            math.log(300.0),
            epsabs=0.0,
            epsrel=1e-12,
            limit=500,
            points=[-5.0, 0.0, 1.0, 2.0, 3.0, 4.0],
        )[0]
    outer = integrate.quad(lambda r: 2.0 * math.pi * r * mean_over_t(r), radius, math.inf, epsabs=0.0, epsrel=1e-11, limit=500)
    return inputs.density * b * outer[0]


@pytest.mark.parametrize("lifespan", [FixedLifespan, ExponentialLifespan])
@pytest.mark.parametrize("z,tau,b", [(1e7, 10.0, 1.0), (1e9, 1000.0, 0.3), (3e8, 100.0, 0.6)])
def test_outside_mean_against_quadrature_oracle(lifespan, z, tau, b):
    inputs = small_inputs(tau_mean=tau, lifespan=lifespan)
    radius, _ = _radii(inputs, np.array([z]), np.array([b]), 2000.0)
    for r in (radius[0], radius[0] / 2.0):
        _, m_out = qualifier_means(inputs, np.array([z]), np.array([b]), np.array([r]))
        assert m_out[0] == pytest.approx(_outside_mean_oracle(inputs, z, b, r), rel=1e-6), r


def test_radius_is_smallest_meeting_the_bound():
    inputs = small_inputs(tau_mean=100.0)
    z, b = np.array([1e7, 3e8, 1e9]), np.array([1.0, 0.5, 0.2])
    radius, worst = _radii(inputs, z, b, 2000.0)
    assert worst == 0.0 and np.all(radius < 2000.0)
    beta = truncation_bound(*qualifier_means(inputs, z, b, radius))
    assert np.all(beta <= 1e-9)
    shy = truncation_bound(*qualifier_means(inputs, z, b, radius * (1.0 - 2e-4)))
    assert np.all(shy > 1e-9)


def test_window_truncation_contributes_nothing_beyond_half_width():
    # fields drawn on discs twice the computed radius: no request that a
    # transmitter beyond the radius could serve is missed inside it
    for inputs, seed in ((small_inputs(tau_mean=100.0, size_bits=1e9), 21), (small_inputs(tau_mean=50.0), 22)):
        rng = np.random.default_rng(seed)
        b = inputs.policy.b[:6]
        z = inputs.catalogue.sizes[:6]
        radius, _ = _radii(inputs, z, b, 5000.0)
        n = 20_000
        j = rng.integers(0, b.size, n)
        owner, r = sample_disc(inputs.density * b[j], 2.0 * radius[j], rng)
        h = rng.exponential(1.0, owner.size)
        t = rng.exponential(inputs.lifespan.mean, owner.size)
        ok = link_bits(inputs.radio, h, r, t) >= z[j][owner]
        inside = np.bincount(owner, weights=ok & (r <= radius[j][owner]), minlength=n) > 0
        anywhere = np.bincount(owner, weights=ok, minlength=n) > 0
        assert anywhere.mean() > 0.1
        assert not np.any(anywhere & ~inside)


def test_resampled_sizes_follow_the_law_each_iteration():
    inputs = small_inputs(tau_mean=100.0)
    law = WeibullSize(276.0, 0.1)
    config = make_config(inputs, iterations=10, seed=9, size_law=law)
    z = _request_sizes(config, np.random.default_rng(9), np.zeros(20_000, dtype=int))
    _, p_value = stats.kstest(z, lambda x: -np.expm1(-((x / law.scale) ** law.shape)))
    assert p_value > 0.01
    # without a size law every request gets its object's catalogue size
    fixed = replace(config, size_law=None)
    j = np.array([0, 3, 7])
    np.testing.assert_array_equal(_request_sizes(fixed, np.random.default_rng(9), j), inputs.catalogue.sizes[j])


@pytest.mark.parametrize("j", [0, 4, 19])
def test_decreasing_rank_sizes_follow_the_order_statistic(j):
    # rank j (0-based) of a decreasing catalogue holds the (F - j)-th
    # smallest of F draws, so its uniform is Beta(F - j, j + 1)
    inputs = small_inputs(tau_mean=100.0)
    law = WeibullSize(276.0, 0.1)
    config = make_config(inputs, iterations=10, size_law=law, reorder="decreasing")
    z = _request_sizes(config, np.random.default_rng(j), np.full(20_000, j))
    u = -np.expm1(-((z / law.scale) ** law.shape))
    F = inputs.catalogue.F
    _, p_value = stats.kstest(u, stats.beta(F - j, j + 1).cdf)
    assert p_value > 0.01


@pytest.mark.parametrize("mode", ORDERING_MODES)
def test_request_sizes_and_size_rule_give_each_rank_one_marginal(mode):
    # the simulator's draws and expected_success's rule both take rank j's
    # order statistic from content.order_statistic; under a uniform law the
    # mean of rank j's draws must match the mean of its row of the rule
    inputs = small_inputs(F=200, K=5)
    law = UniformSize(0.05e9, 2e9)
    config = make_config(inputs, iterations=10, size_law=law, reorder=mode)
    rule = size_rule(inputs, law, mode)
    for j in (0, 5, 9):
        rng = np.random.default_rng(np.random.SeedSequence((97, ORDERING_MODES.index(mode), j)))
        z = _request_sizes(config, rng, np.full(20_000, j))
        want = float(rule.weights[0 if mode == "independent" else j] @ rule.sizes)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - want) <= 4 * se, (j, z.mean(), want, se)


def _user_warnings(config):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate_total_success(config)
    return [w for w in caught if issubclass(w.category, UserWarning)]


def test_narrow_window_warns():
    # object 0's computed radius is about 80 m; a 40 m window caps it
    inputs = small_inputs(tau_mean=100.0)
    narrow = make_config(single_object(inputs, 0), iterations=5, half_width=40.0)
    caught = _user_warnings(narrow)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "half-width 40 m" in messages[0]
    # the warning names the line that called estimate_total_success
    assert caught[0].filename == __file__
    b, z = inputs.policy.b[0], inputs.catalogue.sizes[0]
    oracle_out = _outside_mean_oracle(inputs, z, b, 40.0)
    oracle_in = _outside_mean_oracle(inputs, z, b, 1e-9) - oracle_out
    bound = float(messages[0].split("bound ")[1].split(" ")[0])
    assert bound == pytest.approx(float(truncation_bound(oracle_in, oracle_out)), rel=1e-2)
    assert bound > 1e-9


def test_preset_window_does_not_warn():
    inputs = small_inputs(tau_mean=100.0)
    assert _user_warnings(make_config(inputs, iterations=5)) == []
    # nor any other warning, e.g. a numpy overflow on the total-success path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_total_success(make_config(inputs, iterations=5))


# ------------------------------------------------------------- window sizing


def test_required_half_width_contract():
    inputs = small_inputs(tau_mean=100.0)
    hw = required_half_width(inputs)
    assert hw >= 500.0
    assert hw == 100.0 * round(hw / 100.0)
    assert required_half_width(inputs, safety=40.0) >= 2 * hw
    tiny = small_inputs(density=1e-9, tau_mean=1e-6)
    assert required_half_width(tiny) == 500.0
