import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn

from d2dcache import (
    ORDERING_MODES,
    ContentCatalogue,
    ExponentialSize,
    LogNormalSize,
    ParetoSize,
    PopularityLaw,
    UniformSize,
    WeibullSize,
    mean_size,
    order_sizes,
    sample_sizes,
    zipf_popularity,
)
from d2dcache.content import order_statistic

VIDEO_LAWS = {
    "uniform": UniformSize(0.05e9, 2e9),
    "exponential": ExponentialSize(1e-9),
    "pareto": ParetoSize(20.0 / 19.0, 0.05e9),
    "lognormal": LogNormalSize(5.0 * math.log(10.0), math.sqrt(8.0 * math.log(10.0))),
    "weibull": WeibullSize(276.0, 0.1),
}


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((92, tag)))


# ---------------------------------------------------------------- popularity


def test_zipf_uniform_two_objects():
    law = zipf_popularity(2, 0.0)
    np.testing.assert_allclose(law.a, [0.5, 0.5])


def test_zipf_hand_computed_three_objects():
    law = zipf_popularity(3, 1.0)
    np.testing.assert_allclose(law.a, [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)


def test_zipf_normalization_across_sizes_and_exponents():
    for F in (2, 100, 10_000, 1_000_000):
        for gamma in (0.0, 0.5, 1.3, 3.0):
            law = zipf_popularity(F, gamma)
            assert abs(law.a.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(law.a) <= 0)


def test_zipf_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        zipf_popularity(1, 0.78)
    with pytest.raises(ValueError):
        zipf_popularity(10, -0.1)
    # a float F used to give F=20.5 with 21 probabilities
    for F in (20.5, 3.0, True, np.float64(10.0)):
        with pytest.raises(ValueError, match="F must be an integer of at least 2"):
            zipf_popularity(F, 0.78)
    assert zipf_popularity(np.int64(3), 1.0).a.shape == (3,)


def test_popularity_law_needs_one_probability_per_object():
    with pytest.raises(ValueError, match="one probability per object"):
        PopularityLaw(F=3, a=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="one probability per object"):
        PopularityLaw(F=2, a=np.array([[0.5, 0.5]]))


# ---------------------------------------------------------------- size laws


def test_uniform_samples_within_bounds_and_mean():
    law = VIDEO_LAWS["uniform"]
    z = sample_sizes(law, 1_000_000, rng_for(0))
    assert z.min() >= 5e7 and z.max() <= 2e9
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - 1.025e9) < 3 * se


def test_pareto_minimum_and_median():
    law = VIDEO_LAWS["pareto"]
    z = sample_sizes(law, 1_000_000, rng_for(1))
    assert z.min() >= 5e7
    # heavy tail: the mean converges too slowly, check the median instead
    median = 0.05e9 * 2.0 ** (19.0 / 20.0)
    below = (z < median).mean()
    assert abs(below - 0.5) < 3 * 0.5 / math.sqrt(z.size)


def test_sample_mean_matches_analytic_mean():
    for name in ("exponential", "lognormal", "weibull"):
        law = VIDEO_LAWS[name]
        z = sample_sizes(law, 1_000_000, rng_for(2))
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - mean_size(law)) < 3 * se, name


def test_mean_size_reference_values():
    assert mean_size(VIDEO_LAWS["uniform"]) == pytest.approx(1.025e9, rel=1e-12)
    assert mean_size(VIDEO_LAWS["exponential"]) == pytest.approx(1e9, rel=1e-12)
    assert mean_size(VIDEO_LAWS["pareto"]) == pytest.approx(1e9, rel=1e-12)
    assert mean_size(VIDEO_LAWS["lognormal"]) == pytest.approx(1e9, rel=1e-9)
    assert mean_size(VIDEO_LAWS["weibull"]) == pytest.approx(276.0 * gamma_fn(11.0), rel=1e-12)
    assert mean_size(VIDEO_LAWS["weibull"]) == pytest.approx(276.0 * 3_628_800.0, rel=1e-12)


@pytest.mark.parametrize(
    "law",
    [ExponentialSize(1e-320), ParetoSize(1.0 + 1e-15, 1e300), LogNormalSize(0.0, 1e3), WeibullSize(1.0, 1e-3)],
    ids=["exponential", "pareto", "lognormal", "weibull"],
)
def test_mean_size_beyond_the_floats_raises_naming_the_law(law):
    # the lognormal's math.exp used to raise a bare OverflowError, and the others returned inf
    with pytest.raises(ArithmeticError, match=re.escape(f"mean_size is not finite at law={law!r}, got inf")):
        mean_size(law)


def test_uniform_mean_size_does_not_overflow():
    # z_min + z_max overflows, their mean does not
    assert mean_size(UniformSize(1e308, 1.7e308)) == 1.35e308


def test_pareto_infinite_mean_rejected():
    with pytest.raises(ValueError):
        mean_size(ParetoSize(1.0, 5e7))
    with pytest.raises(ValueError):
        mean_size(ParetoSize(0.9, 5e7))


def test_degenerate_uniform_point_mass():
    law = UniformSize(1e9, 1e9)
    z = sample_sizes(law, 100, rng_for(3))
    np.testing.assert_allclose(z, 1e9)
    assert mean_size(law) == 1e9


def test_size_law_validation():
    with pytest.raises(ValueError):
        UniformSize(0.0, 1.0)
    with pytest.raises(ValueError):
        UniformSize(2.0, 1.0)
    with pytest.raises(ValueError):
        ExponentialSize(0.0)
    with pytest.raises(ValueError):
        ParetoSize(-1.0, 1.0)
    with pytest.raises(ValueError):
        WeibullSize(1.0, 0.0)
    with pytest.raises(ValueError):
        LogNormalSize(0.0, 0.0)


def test_weibull_shape_one_matches_exponential():
    z_w = sample_sizes(WeibullSize(1e9, 1.0), 20_000, rng_for(4))
    z_e = sample_sizes(ExponentialSize(1e-9), 20_000, rng_for(5))
    _, p_value = stats.ks_2samp(z_w, z_e)
    assert p_value > 0.01


def test_inverse_cdf_monotone_for_common_random_numbers():
    u = np.linspace(0.0, 1.0, 1001)
    for name, law in VIDEO_LAWS.items():
        z = np.asarray(law.inverse_cdf(u))
        assert np.all(np.diff(z) >= 0), name
        assert np.all(z > 0), name


# ---------------------------------------------------------------- catalogue


def test_order_statistic_names_the_rank_that_order_sizes_assigns():
    z = np.array([3.0, 1.0, 2.0, 5.0])
    np.testing.assert_array_equal(order_statistic("increasing", np.arange(4), 4), [1, 2, 3, 4])
    np.testing.assert_array_equal(order_statistic("decreasing", np.arange(4), 4), [4, 3, 2, 1])
    np.testing.assert_array_equal(order_sizes(z, "increasing"), [1.0, 2.0, 3.0, 5.0])
    np.testing.assert_array_equal(order_sizes(z, "decreasing"), [5.0, 3.0, 2.0, 1.0])
    assert order_statistic("increasing", 0, 200) == 1
    assert order_statistic("decreasing", 0, 200) == 200
    assert order_statistic("independent", 5, 200) is None
    with pytest.raises(ValueError, match="ordering mode"):
        order_statistic("shuffled", 0, 200)


def test_order_sizes_preserves_multiset():
    sizes = sample_sizes(VIDEO_LAWS["weibull"], 50, rng_for(7))
    for mode in ("independent", "increasing", "decreasing"):
        np.testing.assert_allclose(np.sort(order_sizes(sizes, mode)), np.sort(sizes))


def test_order_sizes_sorts_each_row():
    z = np.array([[3.0, 1.0, 2.0], [5.0, 6.0, 4.0]])
    np.testing.assert_array_equal(order_sizes(z, "increasing"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(order_sizes(z, "decreasing"), [[3.0, 2.0, 1.0], [6.0, 5.0, 4.0]])
    assert order_sizes(z, "independent") is z
    assert ORDERING_MODES == ("independent", "increasing", "decreasing")
    with pytest.raises(ValueError, match="ordering mode"):
        order_sizes(z, "shuffled")


def test_catalogue_validates_sizes():
    pop = zipf_popularity(3, 1.0)
    with pytest.raises(ValueError):
        ContentCatalogue(popularity=pop, sizes=np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError):
        ContentCatalogue(popularity=pop, sizes=np.array([1.0, 2.0]))
