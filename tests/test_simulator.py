import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from d2dcache import (
    AnalyticInputs,
    ContentCatalogue,
    ExponentialFading,
    ExponentialLifespan,
    FixedLifespan,
    RadioParams,
    ServiceOutcome,
    SimulationConfig,
    WeibullSize,
    Window,
    estimate_per_object_success,
    estimate_total_success,
    per_object_success,
    popularity_weighted_marginals,
    required_half_width,
    run_iteration,
    total_success,
    zipf_popularity,
)
from d2dcache.simulator import _deliverable, _draw_iteration, _iteration_rng


def small_inputs(density=2.5e-3, tau_mean=100.0, F=20, K=3, size_bits=1e7):
    pop = zipf_popularity(F, 0.78)
    return AnalyticInputs(
        density=density,
        radio=RadioParams(power=0.5, noise=1e-11 * 5e6, bandwidth=5e6, pathloss_exponent=4.0),
        fading=ExponentialFading(),
        lifespan=ExponentialLifespan(tau_mean),
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


def test_uncached_object_estimate_is_exact_zero():
    inputs = small_inputs()
    est = estimate_per_object_success(make_config(inputs), 15)
    assert est.value == 0.0 and est.standard_error == 0.0 and est.sample_count == 0
    with pytest.raises(ValueError):
        estimate_per_object_success(make_config(inputs), 20)
    with pytest.raises(ValueError):
        estimate_per_object_success(make_config(inputs), -1)


def test_single_close_transmitter_delivers():
    radio = RadioParams(power=0.5, noise=1e-11, bandwidth=5e6, pathloss_exponent=4.0)
    # at r=1 m the link runs at W*log2(1+5e10) bits/s; one second moves
    # ~1.8e8 bits, far more than the 1e7-bit file
    ok = _deliverable(radio, 1e7, np.array([1.0]), np.array([1.0]), np.array([1.0]))
    assert bool(ok[0])
    # the same link cannot move a 1e12-bit file in that second
    ok = _deliverable(radio, 1e12, np.array([1.0]), np.array([1.0]), np.array([1.0]))
    assert not bool(ok[0])


def test_outcome_consistency_enforced():
    with pytest.raises(ValueError):
        ServiceOutcome(iteration=0, requested=1, success=True, n_qualifiers=0, nearest_m=math.nan)
    with pytest.raises(ValueError):
        ServiceOutcome(iteration=0, requested=1, success=False, n_qualifiers=2, nearest_m=5.0)


def test_config_validation():
    inputs = small_inputs()
    with pytest.raises(ValueError):
        make_config(inputs, iterations=0)
    with pytest.raises(ValueError):
        SimulationConfig(inputs=inputs, window=Window(500.0), iterations=10, parallelism=0)
    with pytest.raises(ValueError):
        SimulationConfig(inputs=inputs, window=Window(500.0), iterations=10, reorder="shuffled")


# ---------------------------------------------------------- reproducibility


def test_same_seed_reproduces_every_outcome():
    inputs = small_inputs()
    config = make_config(inputs, iterations=30, seed=42)
    first = [run_iteration(config, i) for i in range(30)]
    second = [run_iteration(config, i) for i in range(30)]
    assert first == second
    shifted = [run_iteration(replace(config, master_seed=43), i) for i in range(30)]
    assert any(a != b for a, b in zip(first, shifted))


def test_parallelism_does_not_change_the_estimate():
    inputs = small_inputs()
    serial = estimate_total_success(make_config(inputs, iterations=120, seed=7, parallelism=1))
    parallel = estimate_total_success(make_config(inputs, iterations=120, seed=7, parallelism=4))
    assert serial.value == parallel.value
    assert serial.standard_error == parallel.standard_error


def test_tuple_master_seeds_are_accepted():
    inputs = small_inputs()
    a = estimate_total_success(make_config(inputs, iterations=40, seed=(3, 1, 0)))
    b = estimate_total_success(make_config(inputs, iterations=40, seed=(3, 1, 0)))
    assert a.value == b.value


# ------------------------------------------------------- against the closed form


def test_pinned_objects_match_closed_form():
    inputs = small_inputs(tau_mean=100.0)
    config = make_config(inputs, iterations=1500, seed=5)
    for j in (0, 2, 5):
        sim = estimate_per_object_success(config, j)
        ana = per_object_success(inputs, j)
        se = max(sim.standard_error, 1e-12)
        assert abs(sim.value - ana.value) < 3 * se, (j, sim.value, ana.value)


def test_total_matches_closed_form():
    inputs = small_inputs(tau_mean=100.0)
    sim = estimate_total_success(make_config(inputs, iterations=2000, seed=6))
    ana = total_success(inputs)
    assert abs(sim.value - ana.value) < 3 * sim.standard_error


def test_popular_small_files_served_more_often():
    # under increasing size order the most popular object has the smallest
    # file, so pinning it must beat pinning the least popular cached one
    pop = zipf_popularity(20, 0.78)
    sizes = np.sort(np.random.default_rng(np.random.SeedSequence((96, 0))).exponential(5e8, 20))
    inputs = replace(
        small_inputs(tau_mean=100.0),
        catalogue=ContentCatalogue(
            popularity=pop, sizes=sizes, ordering_mode="increasing"
        ),
    )
    config = make_config(inputs, iterations=1200, seed=8)
    top = estimate_per_object_success(config, 0)
    bottom = estimate_per_object_success(config, 5)
    se = math.hypot(top.standard_error, bottom.standard_error)
    assert top.value - bottom.value > 3 * se


# ------------------------------------------------------------- truncation


def _disc_restricted_success(config, radius, iterations):
    """Success frequencies using all points vs. only points within radius.

    Both estimates reuse the same draws, so the difference isolates the
    contribution of transmitters beyond the disc.
    """
    full = np.empty(iterations, dtype=bool)
    disc = np.empty(iterations, dtype=bool)
    for i in range(iterations):
        rng = _iteration_rng(config.master_seed, i)
        draws = _draw_iteration(config, rng, None)
        r = draws.distances[draws.cached]
        ok = _deliverable(config.inputs.radio, draws.size_bits, r, draws.h, draws.tau)
        full[i] = bool(ok.any())
        disc[i] = bool((ok & (r <= radius)).any())
    return full, disc


def test_window_truncation_contributes_nothing_beyond_half_width():
    # a window of twice the preset half-width, with success additionally
    # restricted to the inner disc of the preset half-width: any mass the
    # preset window loses to truncation shows up as full > disc
    for inputs, seed in ((small_inputs(tau_mean=100.0, size_bits=1e9), 21), (small_inputs(tau_mean=50.0), 22)):
        hw = required_half_width(inputs)
        wide = make_config(inputs, iterations=2000, seed=seed, half_width=2.0 * hw)
        full, disc = _disc_restricted_success(wide, hw, 2000)
        p = full.mean()
        se = math.sqrt(max(p * (1 - p), 0.25 / 2000) / 2000)
        assert (full & ~disc).mean() < se


def test_resampled_sizes_follow_the_law_each_iteration():
    inputs = small_inputs(tau_mean=100.0)
    law = WeibullSize(276.0, 0.1)
    config = make_config(inputs, iterations=10, seed=9, size_law=law, reorder="decreasing")
    rng = _iteration_rng(config.master_seed, 3)
    draws = _draw_iteration(config, rng, None)
    # sizes drawn fresh (not the catalogue constant) and sorted descending
    assert draws.size_bits != 1e7
    plain = replace(config, reorder="independent")
    rng = _iteration_rng(config.master_seed, 3)
    draws_plain = _draw_iteration(plain, rng, None)
    assert draws_plain.requested == draws.requested


def test_narrow_window_warns():
    inputs = small_inputs(tau_mean=100.0)
    with pytest.warns(UserWarning, match="half-width"):
        estimate_total_success(make_config(inputs, iterations=5, half_width=200.0))


def test_preset_window_does_not_warn():
    inputs = small_inputs(tau_mean=100.0)
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("error")
        estimate_total_success(make_config(inputs, iterations=5))


# ------------------------------------------------------------- outcome log


def test_outcome_csv_layout(tmp_path):
    inputs = small_inputs()
    path = tmp_path / "outcomes.csv"
    est = estimate_total_success(make_config(inputs, iterations=25, seed=10), outcomes_path=path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert list(rows[0]) == ["iteration", "object", "success", "n_qualifiers", "nearest_m"]
    objects = [int(row["object"]) for row in rows]
    assert min(objects) >= 1 and max(objects) <= 20
    successes = [int(row["success"]) for row in rows]
    assert sum(successes) / 25 == pytest.approx(est.value)
    for row in rows:
        if int(row["success"]):
            assert float(row["nearest_m"]) > 0
        else:
            assert math.isnan(float(row["nearest_m"]))


# ------------------------------------------------------------- window sizing


def test_required_half_width_contract():
    inputs = small_inputs(tau_mean=100.0)
    hw = required_half_width(inputs)
    assert hw >= 500.0
    assert hw == 100.0 * round(hw / 100.0)
    assert required_half_width(inputs, safety=40.0) >= 2 * hw
    tiny = small_inputs(density=1e-9, tau_mean=1e-6)
    assert required_half_width(tiny) == 500.0
