import math

import numpy as np
import pytest
from scipy import stats

from d2dcache import Window, sample_disc


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((90, tag)))


def test_window_requires_positive_half_width():
    with pytest.raises(ValueError):
        Window(0.0)
    with pytest.raises(ValueError):
        Window(-5.0)
    assert Window(250.0).half_width == 250.0


def nearest(owner, distance, fields):
    """Distance of each field's nearest point (inf for an empty field)."""
    out = np.full(fields, np.inf)
    np.minimum.at(out, owner, distance)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_density_gives_empty_field():
    owner, distance = sample_disc(np.zeros(3), np.full(3, 1000.0), rng_for(0))
    assert owner.size == 0 and distance.size == 0
    # at any finite radius: pi * radius^2 overflows past 1.3e154 m, and 0 * inf used to be NaN
    for radius in (1e200, np.finfo(float).max):
        owner, distance = sample_disc(0.0, radius, rng_for(0))
        assert owner.size == 0 and distance.size == 0
    # a field of zero intensity draws nothing, so its neighbours' draws
    # are those of the same fields sampled without it
    mixed = sample_disc([1e-3, 0.0, 1e-3], [300.0, 300.0, 300.0], rng_for(1))
    alone = sample_disc([1e-3, 1e-3], [300.0, 300.0], rng_for(1))
    np.testing.assert_array_equal(mixed[1], alone[1])
    assert not np.any(mixed[0] == 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_negative_or_nonfinite_density_rejected():
    for bad in (-1e-3, float("nan"), float("inf"), True, "1"):
        with pytest.raises(ValueError):
            sample_disc(bad, 100.0, rng_for(1))
        with pytest.raises(ValueError):
            sample_disc(1e-3, bad, rng_for(1))
    # a finite mean count too large for numpy's Poisson sampler names both inputs
    with pytest.raises(ValueError, match=r"^intensity=0\.001 and radius=1e\+100 give too many points"):
        sample_disc([1e-3, 1e-3], [10.0, 1e100], rng_for(1))
    # and so does one past the float range, without an overflow warning
    with pytest.raises(ValueError, match=r"^intensity=0\.001 and radius=1e\+200 give too many points to draw"):
        sample_disc(1e-3, 1e200, rng_for(1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_intensity_on_a_disc_whose_square_overflows():
    # radius^2 overflows at 1e155 m, but intensity * pi * radius * radius is about 3.14
    owner, distance = sample_disc(np.full(1000, 1e-310), 1e155, rng_for(8))
    assert owner.size > 0 and np.all((distance > 0) & (distance <= 1e155))
    expected = 1e-310 * math.pi * 1e155 * 1e155
    assert abs(owner.size / 1000 - expected) < 4 * math.sqrt(expected / 1000)


def test_mean_count_matches_intensity_on_reference_window():
    # a disc of radius 20 km at 2.5e-3 per m^2: about 3.1e6 points per field
    radius = 20_000.0
    rng = rng_for(2)
    counts = [sample_disc(2.5e-3, radius, rng)[0].size for _ in range(5)]
    expected = 2.5e-3 * math.pi * radius**2
    se = np.sqrt(expected / len(counts))
    assert abs(np.mean(counts) - expected) < 3 * se


def test_count_mean_and_variance_within_5_percent():
    density, radius = 2.5e-3, 500.0
    owner, _ = sample_disc(np.full(4000, density), radius, rng_for(3))
    counts = np.bincount(owner, minlength=4000)
    expected = density * math.pi * radius**2
    assert abs(counts.mean() - expected) < 0.05 * expected
    assert abs(counts.var(ddof=1) - expected) < 0.05 * expected


def test_nearest_point_distance_mean():
    # for a homogeneous field the nearest distance averages (2 sqrt(lambda))^-1,
    # and P(nearest > x) = exp(-lambda pi x^2) inside the disc
    density, fields = 2.5e-3, 2000
    owner, distance = sample_disc(np.full(fields, density), 400.0, rng_for(4))
    near = nearest(owner, distance, fields)
    target = 1.0 / (2.0 * np.sqrt(density))
    se = near.std(ddof=1) / np.sqrt(near.size)
    assert abs(near.mean() - target) < 3 * se
    _, p_value = stats.kstest(near, lambda x: -np.expm1(-density * np.pi * x**2))
    assert p_value > 0.01


def test_distances_uniform_over_disc():
    # uniform over the disc's area: (r / R)^2 is uniform on (0, 1], for
    # fields of different radii alike
    radius = np.array([300.0, 50.0, 1200.0])
    owner, distance = sample_disc(np.full(3, 1e-3) * (300.0 / radius) ** 2, radius, rng_for(5))
    assert np.all((distance > 0) & (distance <= radius[owner]))
    _, p_value = stats.kstest((distance / radius[owner]) ** 2, "uniform")
    assert p_value > 0.01
    assert np.all(np.diff(owner) >= 0)


def test_sampling_deterministic_given_stream():
    a = sample_disc(np.full(4, 1e-3), 500.0, rng_for(6))
    b = sample_disc(np.full(4, 1e-3), 500.0, rng_for(6))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_distances_consistent_with_points():
    # the draws are the counts, then one uniform per point
    intensity, radius = np.array([1e-3, 2e-3]), np.array([100.0, 60.0])
    owner, distance = sample_disc(intensity, radius, rng_for(7))
    rng = rng_for(7)
    counts = rng.poisson(intensity * np.pi * radius**2)
    np.testing.assert_array_equal(owner, np.repeat([0, 1], counts))
    np.testing.assert_array_equal(distance, radius[owner] * np.sqrt(1.0 - rng.random(owner.size)))
