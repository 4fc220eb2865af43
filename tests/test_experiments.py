import csv
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import d2dcache.experiments as experiments
import numpy as np

from d2dcache import (
    AnalyticInputs,
    ConfigError,
    ContentCatalogue,
    ExponentialFading,
    FixedLifespan,
    MetricEstimate,
    PRESET_NAMES,
    ResultRow,
    build_preset,
    emit_results,
    expected_success,
    load_config,
    mean_size,
    popularity_weighted_marginals,
    run_preset,
    zipf_popularity,
)
from d2dcache.experiments import WINDOW_HALF_WIDTH, _at_point


# ------------------------------------------------------------- presets


def test_builtin_preset_names():
    assert set(PRESET_NAMES) == {
        "validate_audio",
        "validate_video",
        "correlation_video",
        "expected_comparison",
        "ordered_comparison",
    }


def test_build_preset_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset"):
        build_preset("validate_ultrasound")


def test_build_preset_applies_overrides():
    preset = build_preset("validate_audio", iterations=50, seed=9, tau_grid=(10.0, 20.0))
    assert preset.iterations == 50
    assert preset.seed == 9
    assert preset.sweeps == (("tau_mean", (10.0, 20.0)),)
    assert preset.size_mean_bits == 1e7  # untouched default


def test_build_preset_out_and_format_renames():
    preset = build_preset("validate_video", out="rows.json", format="json")
    assert preset.out_path == "rows.json"
    assert preset.out_format == "json"


def test_build_preset_rejects_unknown_field():
    with pytest.raises(ConfigError):
        build_preset("validate_audio", lifespa_grid=(1.0,))


def test_parallelism_field_selects_nothing():
    # still validated because callers pass it, but the run is serial at any value
    serial = run_preset(build_preset("validate_audio", iterations=50, tau_grid=(10.0, 100.0)))
    wide = run_preset(build_preset("validate_audio", iterations=50, tau_grid=(10.0, 100.0), parallelism=2))
    assert wide == serial


def test_custom_preset_is_a_video_validate_clone():
    preset = build_preset("custom", iterations=10)
    assert preset.name == "custom"
    assert preset.kind == "validate"
    assert preset.variants == ("custom",)


def test_preset_validation_errors():
    with pytest.raises(ConfigError, match="strictly increasing"):
        build_preset("validate_audio", tau_grid=(20.0, 10.0))
    with pytest.raises(ConfigError, match="positive"):
        build_preset("validate_audio", tau_grid=(-5.0, 10.0))
    with pytest.raises(ConfigError, match="alpha"):
        build_preset("validate_audio", alpha=2.0)
    # the analytic column is exact, so its draw count is no option
    with pytest.raises(ConfigError, match="mc_samples"):
        build_preset("expected_comparison", mc_samples=200_000)
    assert build_preset("ordered_comparison").mc_samples == math.inf
    with pytest.raises(ConfigError, match="cache_capacity"):
        build_preset("validate_audio", catalogue_size=6, cache_capacity=5)
    with pytest.raises(ConfigError, match="format"):
        build_preset("validate_audio", format="xml")
    with pytest.raises(ConfigError, match="iterations"):
        build_preset("validate_audio", iterations=0)
    # a float catalogue size used to build and then fail inside run_preset
    with pytest.raises(ConfigError, match="catalogue_size must be an integer"):
        build_preset("validate_audio", catalogue_size=20.5)
    # one past the limit used to build, and run_preset then allocated by it
    with pytest.raises(ConfigError, match=r"catalogue_size must be a finite number in \[2, 1000000\]"):
        build_preset("validate_audio", catalogue_size=10**6 + 1)
    # an unknown sweep name used to run every point at fixed_lifespan
    with pytest.raises(ConfigError, match="unknown sweep 'bogus'"):
        build_preset("validate_audio", iterations=50, sweeps=(("bogus", (10.0, 100.0)),))


def test_preset_validation_allocates_nothing_per_object():
    # the popularity law and the placement hold one float per object, so a
    # preset checks their inputs instead of building them: validating must
    # not allocate by a count it has yet to bound
    tracemalloc.start()
    try:
        build_preset("validate_audio", catalogue_size=10**6, cache_capacity=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "name,variants",
    [
        ("expected_comparison", ("gamma",)),
        ("ordered_comparison", ("uniform", "Pareto")),
        ("correlation_video", ("shuffled",)),
        # no variant used to build, and run_preset then returned no rows
        ("validate_audio", ()),
        ("expected_comparison", ()),
    ],
)
def test_preset_variants_must_fit_their_kind(name, variants):
    # an unknown comparison law used to build, then fail in run_preset with a bare KeyError
    with pytest.raises(ConfigError, match="variants must come from"):
        build_preset(name, variants=variants)
    assert build_preset("expected_comparison", variants=("weibull",)).variants == ("weibull",)
    assert build_preset("correlation_video", variants=("decreasing",)).variants == ("decreasing",)


def test_ordered_comparison_uses_bigger_catalogue():
    ordered = build_preset("ordered_comparison")
    plain = build_preset("expected_comparison")
    assert ordered.catalogue_size == 200
    assert ordered.reorder == "decreasing"
    assert plain.catalogue_size == 100
    assert plain.reorder == "independent"
    assert plain.variants == ("uniform", "exponential", "pareto", "lognormal", "weibull")


# ------------------------------------------------------------- config files


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_load_config_round_trip(tmp_path):
    path = write_config(
        tmp_path,
        "[validate_audio]\niterations = 25\nseed = 3\ntau_grid = 10, 50, 100\n",
    )
    preset = load_config(path)
    assert preset.name == "validate_audio"
    assert preset.iterations == 25
    assert preset.seed == 3
    assert preset.sweeps == (("tau_mean", (10.0, 50.0, 100.0)),)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_load_config_empty_file(tmp_path):
    path = write_config(tmp_path, "")
    with pytest.raises(ConfigError, match="missing preset section"):
        load_config(path)


def test_load_config_two_sections(tmp_path):
    path = write_config(tmp_path, "[validate_audio]\n\n[validate_video]\n")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(path)


@pytest.mark.parametrize("key", ["lifespan", "mc_samples", "parallelism"])
def test_load_config_unknown_key(tmp_path, key):
    # the size expectation is deterministic, so mc_samples is no config key,
    # and the simulator runs serially, so parallelism is none either
    path = write_config(tmp_path, f"[expected_comparison]\n{key} = 100\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_bad_value(tmp_path):
    path = write_config(tmp_path, "[validate_audio]\niterations = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_config_rejects_bad_physics(tmp_path):
    path = write_config(tmp_path, "[validate_audio]\nalpha = 2.0\n")
    with pytest.raises(ConfigError, match="alpha"):
        load_config(path)


def test_load_config_unknown_section_name(tmp_path):
    path = write_config(tmp_path, "[validate_everything]\n")
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(path)


# ------------------------------------------------------------- emission


def rows_fixture():
    return [
        ResultRow(
            sweep_name="tau_mean",
            sweep_value=100.0,
            variant="audio",
            analytic=0.38591324159218864,
            simulated=0.39,
            stderr=math.sqrt(0.39 * 0.61 / 2000),
            n_iter=2000,
            seed=0,
        )
    ]


def test_emit_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    emit_results(rows_fixture(), "csv", path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        row = next(reader)
    assert header == list(experiments.CSV_COLUMNS)
    assert row[0] == "tau_mean" and row[2] == "audio"
    assert float(row[3]) == 0.38591324159218864  # repr() floats survive exactly
    # stderr is the simulator's binomial standard error of simulated
    assert float(row[5]) == math.sqrt(0.39 * 0.61 / 2000)
    assert int(row[6]) == 2000 and int(row[7]) == 0


def test_emit_csv_empty_rows_keeps_header(tmp_path):
    path = tmp_path / "rows.csv"
    emit_results([], "csv", path)
    assert path.read_text() == ",".join(experiments.CSV_COLUMNS) + "\n"


def test_emit_json_field_names(tmp_path):
    path = tmp_path / "rows.json"
    emit_results(rows_fixture(), "json", path)
    payload = json.loads(path.read_text())
    assert len(payload) == 1
    assert set(payload[0]) == set(experiments.CSV_COLUMNS)
    assert payload[0]["analytic"] == 0.38591324159218864


def test_emit_json_writes_numpy_integers_as_ints(tmp_path):
    preset = tiny_validate_preset(seed=np.int64(3), iterations=np.int64(10), catalogue_size=np.int32(20))
    path = tmp_path / "rows.json"
    emit_results(run_preset(preset), "json", path)
    payload = json.loads(path.read_text())
    assert type(payload[0]["seed"]) is int and payload[0]["seed"] == 3
    assert type(payload[0]["n_iter"]) is int and payload[0]["n_iter"] == 10
    # the same preset with plain integers gives the same rows
    plain = tmp_path / "plain.json"
    emit_results(run_preset(tiny_validate_preset(seed=3)), "json", plain)
    assert path.read_text() == plain.read_text()


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        emit_results(rows_fixture(), "xml", tmp_path / "rows.xml")


def test_emit_wraps_write_failures(tmp_path):
    with pytest.raises(ConfigError, match="cannot write"):
        emit_results(rows_fixture(), "csv", tmp_path / "missing" / "rows.csv")


# ------------------------------------------------------------- runners


def tiny_validate_preset(**overrides):
    defaults = dict(
        iterations=10,
        seed=1,
        tau_grid=(50.0,),
        catalogue_size=20,
        cache_capacity=3,
        size_mean_bits=1e7,
    )
    defaults.update(overrides)
    return build_preset("validate_audio", **defaults)


def test_run_validate_rows_in_sweep_order():
    preset = tiny_validate_preset(tau_grid=(20.0, 50.0, 80.0), iterations=5)
    rows = run_preset(preset)
    assert [r.sweep_value for r in rows] == [20.0, 50.0, 80.0]
    assert all(r.sweep_name == "tau_mean" and r.variant == "audio" for r in rows)
    assert all(0 <= r.analytic <= 1 and 0 <= r.simulated <= 1 for r in rows)
    assert all(r.n_iter == 5 and r.seed == 1 for r in rows)


def test_run_preset_is_deterministic():
    preset = tiny_validate_preset()
    first = run_preset(preset)
    second = run_preset(preset)
    assert [(r.simulated, r.analytic) for r in first] == [(r.simulated, r.analytic) for r in second]


def _stub_simulator(monkeypatch, estimate):
    """Replace run_preset's one simulator call with estimate applied to each config."""
    monkeypatch.setattr(experiments, "estimate_sweep", lambda configs: [estimate(config) for config in configs])


def test_soft_gate_warns_on_large_deviation(monkeypatch, caplog):
    # force the simulated value far from the closed form: the run must
    # complete and log a warning rather than fail
    _stub_simulator(monkeypatch, lambda config: MetricEstimate(value=0.9, standard_error=0.001, sample_count=100))
    with caplog.at_level(logging.WARNING, logger="d2dcache.experiments"):
        rows = run_preset(tiny_validate_preset())
    assert len(rows) == 1
    assert any("standard errors from analytic" in rec.message for rec in caplog.records)


def test_rows_carry_the_simulators_standard_error(monkeypatch):
    _stub_simulator(monkeypatch, lambda config: MetricEstimate(value=0.5, standard_error=0.123, sample_count=10))
    rows = run_preset(tiny_validate_preset())
    assert [row.stderr for row in rows] == [0.123]


def test_row_rejects_a_bad_standard_error():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="stderr"):
            replace(rows_fixture()[0], stderr=bad)


def _flagged(monkeypatch, caplog, analytic, simulated, iterations):
    """Whether run_preset warns about one validate row with these values."""
    monkeypatch.setattr(experiments, "total_success", lambda inputs: MetricEstimate(value=analytic))
    _stub_simulator(
        monkeypatch,
        lambda config: MetricEstimate(
            value=simulated,
            standard_error=math.sqrt(simulated * (1.0 - simulated) / config.iterations),
            sample_count=config.iterations,
        ),
    )
    with caplog.at_level(logging.WARNING, logger="d2dcache.experiments"):
        run_preset(tiny_validate_preset(iterations=iterations))
    return any("standard errors from analytic" in rec.message for rec in caplog.records)


def test_flag_catches_zero_frequency(monkeypatch, caplog):
    # p-hat = 0 has a zero normal standard error; its Wilson interval at
    # 4 standard errors over 2000 iterations ends near 0.008
    assert _flagged(monkeypatch, caplog, analytic=0.05, simulated=0.0, iterations=2000)


def test_flag_spares_small_samples_inside_wilson_interval(monkeypatch, caplog):
    # 1/20 against 0.3 is 5.1 normal standard errors, but inside the
    # Wilson interval at 4 standard errors, about [0.003, 0.497]
    assert not _flagged(monkeypatch, caplog, analytic=0.3, simulated=0.05, iterations=20)


def _comparison_flagged(monkeypatch, caplog, analytic):
    """Whether run_preset warns about one comparison row whose simulated
    frequency is 100/2000 and whose expected success is analytic."""
    monkeypatch.setattr(experiments, "evaluate_expected_success", lambda *a, **kw: MetricEstimate(value=analytic))
    _stub_simulator(
        monkeypatch,
        lambda config: MetricEstimate(value=0.05, standard_error=math.sqrt(0.05 * 0.95 / 2000), sample_count=2000),
    )
    preset = replace(
        build_preset("expected_comparison", iterations=2000),
        sweeps=(("tau_mean", (1000.0,)),),
        variants=("uniform",),
    )
    with caplog.at_level(logging.WARNING, logger="d2dcache.experiments"):
        run_preset(preset)
    return any("standard errors from analytic" in rec.message for rec in caplog.records)


def test_flag_with_exact_analytic_value(monkeypatch, caplog):
    # the Wilson interval at 4 standard errors around 0.05 over 2000
    # requests ends near 0.0733; the closed form carries no error, so
    # nothing widens it and 0.08 lies outside
    assert _comparison_flagged(monkeypatch, caplog, analytic=0.08)


def test_flag_spares_exact_analytic_value_inside_interval(monkeypatch, caplog):
    assert not _comparison_flagged(monkeypatch, caplog, analytic=0.07)


def _comparison_inputs(preset, law, density, tau):
    """AnalyticInputs of one comparison point; the sizes are placeholders."""
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    return AnalyticInputs(
        density=density,
        radio=experiments._radio(preset),
        fading=ExponentialFading(1.0),
        lifespan=FixedLifespan(tau),
        policy=popularity_weighted_marginals(popularity, preset.cache_capacity),
        catalogue=ContentCatalogue(popularity=popularity, sizes=np.full(preset.catalogue_size, mean_size(law))),
    )


@pytest.mark.parametrize("name", ["expected_comparison", "ordered_comparison"])
def test_comparison_analytic_column_matches_per_point_expected_success(monkeypatch, name):
    # one size rule per variant must give exactly what expected_success
    # gives at every point, and the column must not depend on the seed
    _stub_simulator(
        monkeypatch, lambda config: MetricEstimate(value=0.5, standard_error=0.1, sample_count=config.iterations)
    )
    columns = []
    for seed in (3, 4):
        preset = replace(
            build_preset(name, seed=seed, iterations=1),
            sweeps=(("tau_mean", (100.0, 1000.0)), ("density", (1e-4, 1e-2))),
        )
        rows = run_preset(preset)
        assert len(rows) == 4 * len(preset.variants)
        columns.append([row.analytic for row in rows])
    assert columns[0] == columns[1]
    for row in rows:
        law = experiments.COMPARISON_SIZE_LAWS[row.variant]
        density = row.sweep_value if row.sweep_name == "density" else preset.density
        tau = row.sweep_value if row.sweep_name == "tau_mean" else preset.fixed_lifespan
        want = expected_success(_comparison_inputs(preset, law, density, tau), law, order=preset.reorder)
        assert row.analytic == want.value


def test_size_rule_errors_name_the_variant(monkeypatch):
    def fail(*args):
        raise ValueError("inverse CDF failed")

    monkeypatch.setattr(experiments, "size_rule", fail)
    preset = replace(build_preset("expected_comparison", iterations=1), variants=("weibull",))
    with pytest.raises(ValueError, match=r"inverse CDF failed \(building the size rule for variant='weibull'\)"):
        run_preset(preset)


# ------------------------------------------------------------- seed contract


def _simulator_calls(monkeypatch, preset):
    """run_preset with the simulator stubbed out: (master seed, window
    half-width, reorder, size law) of each simulated point, in order."""
    calls = []

    def record(config):
        calls.append((config.master_seed, config.window.half_width, config.reorder, config.size_law))
        return MetricEstimate(value=0.5, standard_error=0.1, sample_count=config.iterations)

    _stub_simulator(monkeypatch, record)
    run_preset(preset)
    return calls


@pytest.mark.parametrize("name", ["validate_audio", "validate_video"])
def test_validate_seed_keys_and_window(monkeypatch, name):
    grid = build_preset(name).sweeps[0][1]
    preset = build_preset(name, seed=4, iterations=1, tau_grid=(grid[0], grid[4], grid[-1]))
    calls = _simulator_calls(monkeypatch, preset)
    assert [c[0] for c in calls] == [(4, 3, 0, p, 0) for p in range(3)]
    assert all(c[1:] == (WINDOW_HALF_WIDTH, "independent", None) for c in calls)


def test_correlation_variants_share_seed_keys(monkeypatch):
    preset = build_preset("correlation_video", seed=1, iterations=1, tau_grid=(100.0, 1000.0))
    calls = _simulator_calls(monkeypatch, preset)
    orders = ("increasing", "independent", "decreasing")
    assert [(c[0], c[2]) for c in calls] == [((1, 3, 0, p), v) for p in range(2) for v in orders]
    assert all(c[1] == WINDOW_HALF_WIDTH and c[3] is None for c in calls)


@pytest.mark.parametrize("name", ["expected_comparison", "ordered_comparison"])
def test_comparison_seed_keys_and_window(monkeypatch, name):
    preset = replace(
        build_preset(name, seed=2, iterations=1),
        sweeps=(("tau_mean", (100.0, 500.0)), ("density", (1e-4, 1e-2))),
    )
    calls = _simulator_calls(monkeypatch, preset)
    laws = [experiments.COMPARISON_SIZE_LAWS[v] for v in preset.variants]
    assert [(c[0], c[3]) for c in calls] == [
        ((2, 3, s, p, v), law) for s in range(2) for p in range(2) for v, law in enumerate(laws)
    ]
    assert all(c[1] == WINDOW_HALF_WIDTH and c[2] == preset.reorder for c in calls)


def test_window_half_width_overrides_the_default(monkeypatch, tmp_path):
    preset = build_preset("validate_audio", iterations=1, tau_grid=(10.0, 20.0), window_half_width=800.0)
    assert [c[1] for c in _simulator_calls(monkeypatch, preset)] == [800.0, 800.0]
    path = tmp_path / "run.ini"
    path.write_text("[validate_audio]\nwindow_half_width = 650\n")
    assert load_config(path).window_half_width == 650.0
    with pytest.raises(ConfigError, match="window_half_width"):
        build_preset("validate_audio", window_half_width=0.0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_default_window_does_not_warn(name, seed):
    # every computed simulation radius lies inside the default window, so
    # no disc is capped, whatever the size law's small-file tail
    preset = build_preset(name, seed=seed, iterations=20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_preset(preset)
    assert len(rows) == sum(len(grid) for _, grid in preset.sweeps) * len(preset.variants)
    assert not [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def test_at_point_annotates_errors():
    with pytest.raises(ValueError, match=r"boom \(at tau_mean=50.0, variant='audio'\)"):
        with _at_point("tau_mean", 50.0, "audio"):
            raise ValueError("boom")
    with pytest.raises(ArithmeticError, match="variant='video'"):
        with _at_point("density", 0.01, "video"):
            raise ArithmeticError("quadrature failed")


# ------------------------------------------------------------- CLI


def test_cli_list_presets(capsys):
    assert experiments.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES + ("custom",):
        assert name in out


def test_module_execution_runs_the_cli():
    # python -m d2dcache from a source tree, with runpy's warnings raised as errors
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "d2dcache", "list-presets"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line.split(":")[0] for line in done.stdout.splitlines()] == list(PRESET_NAMES + ("custom",))


def test_cli_validate_config(tmp_path, capsys):
    good = write_config(tmp_path, "[validate_audio]\niterations = 5\n")
    assert experiments.main(["validate", str(good)]) == 0
    assert "ok: validate_audio" in capsys.readouterr().out
    bad = write_config(tmp_path, "[validate_audio]\nalpha = 1.0\n", name="bad.ini")
    assert experiments.main(["validate", str(bad)]) == 1


def test_cli_rejects_negative_seed(tmp_path, capsys):
    path = write_config(tmp_path, "[validate_audio]\nseed = -1\n")
    assert experiments.main(["validate", str(path)]) == 1
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert experiments.main(["run", "validate_audio", "--seed", "-1"]) == 1
    assert "error: seed must be a nonnegative integer" in capsys.readouterr().err


def test_cli_flags_validate_like_config_keys(tmp_path, capsys):
    path = write_config(tmp_path, "[validate_audio]\niterations = 0\n")
    assert experiments.main(["validate", str(path)]) == 1
    from_file = capsys.readouterr().err
    assert experiments.main(["run", "validate_audio", "--iterations", "0"]) == 1
    assert capsys.readouterr().err == from_file == "error: iterations must be a positive integer, got 0\n"
    # a bad file key fails even when a flag would override it
    bad = write_config(tmp_path, "[validate_audio]\nseed = 1.5\n", name="bad.ini")
    assert experiments.main(["run", str(bad), "--seed", "2"]) == 1
    assert "bad value for 'seed'" in capsys.readouterr().err


def test_cli_run_unknown_target(capsys):
    assert experiments.main(["run", "validate_ultrasound"]) == 1
    assert experiments.main(["run", "expected_comparison", "--mc-samples", "1000"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_has_no_parallelism_option(tmp_path, capsys):
    # the simulator runs serially, so no flag or key sets a worker count
    assert experiments.main(["run", "validate_audio", "--parallelism", "2"]) == 1
    assert "unrecognized arguments: --parallelism 2" in capsys.readouterr().err
    path = write_config(tmp_path, "[validate_audio]\niterations = 10\nparallelism = 2\n")
    assert experiments.main(["run", str(path)]) == 1
    assert "unknown key 'parallelism'" in capsys.readouterr().err


def test_cli_custom_requires_config(capsys):
    assert experiments.main(["run", "custom"]) == 1
    assert "config file" in capsys.readouterr().err


def test_cli_numeric_failures_exit_two(monkeypatch, capsys):
    monkeypatch.setattr(
        experiments, "run_preset", lambda preset: (_ for _ in ()).throw(ArithmeticError("diverged"))
    )
    assert experiments.main(["run", "validate_audio"]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        experiments.main(["--help"])
    assert exc.value.code == 0


def test_cli_requires_a_command():
    assert experiments.main([]) == 1


def test_cli_run_config_file_end_to_end(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    path = write_config(
        tmp_path,
        "[validate_audio]\n"
        "iterations = 10\n"
        "seed = 1\n"
        "tau_grid = 50\n"
        "catalogue_size = 20\n"
        "cache_capacity = 3\n"
        f"out = {out}\n",
    )
    assert experiments.main(["run", str(path)]) == 0
    assert "1 rows" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["sweep_name"] == "tau_mean"
    assert float(rows[0]["sweep_value"]) == 50.0


def test_cli_overrides_beat_config(tmp_path):
    out = tmp_path / "rows.json"
    path = write_config(
        tmp_path,
        "[validate_audio]\niterations = 10\ntau_grid = 50\ncatalogue_size = 20\ncache_capacity = 3\n",
    )
    code = experiments.main(
        ["run", str(path), "--iterations", "5", "--seed", "4", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["n_iter"] == 5
    assert payload[0]["seed"] == 4
