import numpy as np
import pytest
from scipy import stats

from d2dcache import SimulationConfig, Window, sample_ppp
from d2dcache.simulator import _draw_iteration, _iteration_rng


def rng_for(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((90, tag)))


def test_window_requires_positive_half_width():
    with pytest.raises(ValueError):
        Window(0.0)
    with pytest.raises(ValueError):
        Window(-5.0)
    assert Window(250.0).area == pytest.approx(500.0**2)


def distances(points):
    return np.hypot(points[:, 0], points[:, 1])


def test_zero_density_gives_empty_field():
    points = sample_ppp(0.0, Window(1000.0), rng_for(0))
    assert points.shape == (0, 2)
    assert distances(points).size == 0


def test_negative_or_nonfinite_density_rejected():
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sample_ppp(bad, Window(100.0), rng_for(1))


def test_mean_count_matches_intensity_on_reference_window():
    # 100 km x 100 km at 2.5e-3 per m^2: expected 2.5e7 points per draw
    window = Window(50_000.0)
    rng = rng_for(2)
    counts = []
    for _ in range(5):
        points = sample_ppp(2.5e-3, window, rng)
        counts.append(points.shape[0])
        del points
    expected = 2.5e-3 * window.area
    se = np.sqrt(expected / len(counts))
    assert abs(np.mean(counts) - expected) < 3 * se


def test_count_mean_and_variance_within_5_percent():
    window = Window(500.0)
    density = 2.5e-3
    rng = rng_for(3)
    counts = np.array([sample_ppp(density, window, rng).shape[0] for _ in range(4000)])
    expected = density * window.area
    assert abs(counts.mean() - expected) < 0.05 * expected
    assert abs(counts.var(ddof=1) - expected) < 0.05 * expected


def test_nearest_point_distance_mean():
    # for a homogeneous field the nearest distance averages (2 sqrt(lambda))^-1
    density = 2.5e-3
    rng = rng_for(4)
    nearest = []
    for _ in range(2000):
        nearest.append(distances(sample_ppp(density, Window(400.0), rng)).min())
    nearest = np.array(nearest)
    target = 1.0 / (2.0 * np.sqrt(density))
    se = nearest.std(ddof=1) / np.sqrt(nearest.size)
    assert abs(nearest.mean() - target) < 3 * se


def test_positions_uniform_over_quadrants():
    rng = rng_for(5)
    pooled = np.concatenate([sample_ppp(1e-3, Window(300.0), rng) for _ in range(50)])
    quadrant = (pooled[:, 0] > 0).astype(int) * 2 + (pooled[:, 1] > 0).astype(int)
    observed = np.bincount(quadrant, minlength=4)
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.01


def test_sampling_deterministic_given_stream():
    a = sample_ppp(1e-3, Window(500.0), rng_for(6))
    b = sample_ppp(1e-3, Window(500.0), rng_for(6))
    np.testing.assert_array_equal(a, b)


def test_distances_consistent_with_points(video_inputs):
    points = sample_ppp(1e-3, Window(500.0), rng_for(7))
    assert np.all(np.abs(points) <= 500.0)
    # the simulator's transmitter distances are those of sample_ppp's
    # field, drawn from the iteration stream right after the request
    config = SimulationConfig(inputs=video_inputs, window=Window(300.0), iterations=1, master_seed=7)
    draws = _draw_iteration(config, _iteration_rng(7, 0), None)
    rng = _iteration_rng(7, 0)
    rng.random()
    np.testing.assert_array_equal(draws.distances, distances(sample_ppp(video_inputs.density, config.window, rng)))
