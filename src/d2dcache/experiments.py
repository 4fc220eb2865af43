"""Experiment presets, configuration files, result emission and the CLI.

Default experiment constants (all presets start from these):

    ========================  =========  =====================================
    constant                  value      meaning
    ========================  =========  =====================================
    DENSITY                   2.5e-3     transmitters per square meter
    POWER                     0.5        transmit power
    NOISE_DENSITY             1e-11      noise power per Hz (in-band noise is
                                         NOISE_DENSITY * BANDWIDTH)
    BANDWIDTH                 5e6        per-link bandwidth, Hz
    PATHLOSS_EXPONENT         4.0        power-law path loss exponent
    CATALOGUE_SIZE            100        objects (200 for ordered_comparison)
    ZIPF_EXPONENT             0.78       popularity skew
    CACHE_CAPACITY            5          objects per transmitter cache
    ITERATIONS                2000       Monte Carlo iterations per point
    AUDIO_MEAN_BITS           1e7        mean audio file size
    VIDEO_MEAN_BITS           1e9        mean video file size
    AUDIO_TAU_GRID            10..100    mean-lifespan sweep, audio (s)
    VIDEO_TAU_GRID            100..1000  mean-lifespan sweep, video (s)
    COMPARISON_LIFESPAN       1000.0     fixed lifespan of the density sweep
    DENSITY_GRID              1e-4..1e-2 density sweep (log-spaced)
    MC_SIZE_SAMPLES           200000     size draws for the expected metric
    ========================  =========  =====================================

Seed derivation: a preset's integer seed S feeds three independent
sub-streams — (S, 1) for the catalogue size sample, (S, 2) for the
size-expectation Monte Carlo, and (S, 3, sweep, point[, variant]) as the
simulator master seed. The correlation preset deliberately shares the
simulator stream across its variants so their curves differ only through
the size permutation.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .analytics import AnalyticInputs, expected_success, total_success
from .channel import ExponentialFading, RadioParams
from .content import (
    ContentCatalogue,
    ExponentialSize,
    LogNormalSize,
    ParetoSize,
    UniformSize,
    WeibullSize,
    apply_ordering,
    mean_size,
    sample_sizes,
    zipf_popularity,
)
from .geometry import Window
from .mobility import ExponentialLifespan, FixedLifespan
from .placement import popularity_weighted_marginals
from .simulator import SimulationConfig, estimate_total_success, required_half_width

log = logging.getLogger(__name__)

DENSITY = 2.5e-3
POWER = 0.5
NOISE_DENSITY = 1e-11
BANDWIDTH = 5e6
PATHLOSS_EXPONENT = 4.0
CATALOGUE_SIZE = 100
ZIPF_EXPONENT = 0.78
CACHE_CAPACITY = 5
ITERATIONS = 2000
AUDIO_MEAN_BITS = 1e7
VIDEO_MEAN_BITS = 1e9
AUDIO_TAU_GRID = tuple(np.linspace(10.0, 100.0, 10))
VIDEO_TAU_GRID = tuple(np.linspace(100.0, 1000.0, 10))
COMPARISON_LIFESPAN = 1000.0
COMPARISON_CATALOGUE_SIZE = 200
DENSITY_GRID = tuple(np.logspace(-4, -2, 7))
MC_SIZE_SAMPLES = 200_000

COMPARISON_SIZE_LAWS = {
    "uniform": UniformSize(0.05e9, 2e9),
    "exponential": ExponentialSize(1e-9),
    "pareto": ParetoSize(20.0 / 19.0, 0.05e9),
    "lognormal": LogNormalSize(5.0 * math.log(10.0), math.sqrt(8.0 * math.log(10.0))),
    "weibull": WeibullSize(276.0, 0.1),
}

CSV_COLUMNS = ("sweep_name", "sweep_value", "variant", "analytic", "simulated", "stderr", "n_iter", "seed")


class ConfigError(Exception):
    """Invalid preset name, config file or parameter value."""


@dataclass(frozen=True)
class ExperimentPreset:
    """A fully resolved experiment: sweeps, variants and model parameters."""

    name: str
    kind: str  # validate | correlation | comparison
    sweeps: tuple  # ((sweep_name, grid), ...)
    variants: tuple
    density: float = DENSITY
    power: float = POWER
    noise_density: float = NOISE_DENSITY
    bandwidth: float = BANDWIDTH
    alpha: float = PATHLOSS_EXPONENT
    catalogue_size: int = CATALOGUE_SIZE
    zipf_exponent: float = ZIPF_EXPONENT
    cache_capacity: int = CACHE_CAPACITY
    size_mean_bits: float = VIDEO_MEAN_BITS
    fixed_lifespan: float = COMPARISON_LIFESPAN
    iterations: int = ITERATIONS
    seed: int = 0
    mc_samples: int = MC_SIZE_SAMPLES
    parallelism: int = 1
    window_half_width: float | None = None
    reorder: str | None = None
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.kind not in ("validate", "correlation", "comparison"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.sweeps:
            raise ConfigError("preset needs at least one sweep")
        for sweep_name, grid in self.sweeps:
            if len(grid) == 0:
                raise ConfigError(f"sweep {sweep_name!r} has an empty grid")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"sweep {sweep_name!r} grid must be strictly increasing")
            if min(grid) <= 0:
                raise ConfigError(f"sweep {sweep_name!r} values must be positive")
        if self.alpha <= 2:
            raise ConfigError("alpha must exceed 2")
        if min(self.density, self.power, self.noise_density, self.bandwidth) <= 0:
            raise ConfigError("density, power, noise_density and bandwidth must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.mc_samples < 1000:
            raise ConfigError("mc_samples must be at least 1000")
        if 2 * self.cache_capacity > self.catalogue_size:
            raise ConfigError("need catalogue_size >= 2 * cache_capacity")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.out_format!r}")
        if self.window_half_width is not None and self.window_half_width <= 0:
            raise ConfigError("window_half_width must be positive")


@dataclass
class ResultRow:
    """One (sweep point, variant) result; wall_time is not emitted.

    n_iter is the number of simulated requests behind simulated.
    """

    sweep_name: str
    sweep_value: float
    variant: str
    analytic: float
    simulated: float
    stderr: float
    n_iter: int
    seed: int
    wall_time: float = 0.0

    def __post_init__(self):
        for value in (self.analytic, self.simulated):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"probability out of range: {value}")


def _builtin_presets() -> dict:
    return {
        "validate_audio": ExperimentPreset(
            name="validate_audio",
            kind="validate",
            sweeps=(("tau_mean", AUDIO_TAU_GRID),),
            variants=("audio",),
            size_mean_bits=AUDIO_MEAN_BITS,
        ),
        "validate_video": ExperimentPreset(
            name="validate_video",
            kind="validate",
            sweeps=(("tau_mean", VIDEO_TAU_GRID),),
            variants=("video",),
            size_mean_bits=VIDEO_MEAN_BITS,
        ),
        "correlation_video": ExperimentPreset(
            name="correlation_video",
            kind="correlation",
            sweeps=(("tau_mean", VIDEO_TAU_GRID),),
            variants=("increasing", "independent", "decreasing"),
            size_mean_bits=VIDEO_MEAN_BITS,
        ),
        "expected_comparison": ExperimentPreset(
            name="expected_comparison",
            kind="comparison",
            sweeps=(("tau_mean", VIDEO_TAU_GRID), ("density", DENSITY_GRID)),
            variants=tuple(COMPARISON_SIZE_LAWS),
        ),
        "ordered_comparison": ExperimentPreset(
            name="ordered_comparison",
            kind="comparison",
            sweeps=(("tau_mean", VIDEO_TAU_GRID), ("density", DENSITY_GRID)),
            variants=tuple(COMPARISON_SIZE_LAWS),
            catalogue_size=COMPARISON_CATALOGUE_SIZE,
            reorder="decreasing",
        ),
    }


PRESET_NAMES = tuple(_builtin_presets())

PRESET_SUMMARIES = {
    "validate_audio": "simulated vs closed-form success over the audio mean-lifespan sweep",
    "validate_video": "simulated vs closed-form success over the video mean-lifespan sweep",
    "correlation_video": "size/popularity ordering study on a common video size sample",
    "expected_comparison": "expected success for five size laws over lifespan and density sweeps",
    "ordered_comparison": "the five-law comparison with sizes assigned large-to-popular",
    "custom": "validate-style run with user-supplied parameters (config file only)",
}

# keys accepted in config files and their parsers
_OVERRIDE_TYPES = {
    "iterations": int,
    "seed": int,
    "parallelism": int,
    "mc_samples": int,
    "window_half_width": float,
    "density": float,
    "power": float,
    "noise_density": float,
    "bandwidth": float,
    "alpha": float,
    "catalogue_size": int,
    "zipf_exponent": float,
    "cache_capacity": int,
    "size_mean_bits": float,
    "tau_grid": lambda s: tuple(float(v) for v in s.split(",")),
    "out": str,
    "format": str,
}


def build_preset(name: str, **overrides) -> ExperimentPreset:
    """Instantiate a named preset, applying field overrides."""
    presets = _builtin_presets()
    if name == "custom":
        base = replace(presets["validate_video"], name="custom", variants=("custom",))
    elif name in presets:
        base = presets[name]
    else:
        raise ConfigError(f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES + ('custom',))}")
    renames = {"out": "out_path", "format": "out_format"}
    mapped = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "tau_grid":
            mapped["sweeps"] = (("tau_mean", tuple(value)),)
            continue
        mapped[renames.get(key, key)] = value
    try:
        return replace(base, **mapped)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentPreset:
    """Read a preset from an INI-style file with a single [preset-name] section."""
    parser = configparser.ConfigParser()
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not loaded:
        raise ConfigError(f"config file not found: {path}")
    sections = parser.sections()
    if not sections:
        raise ConfigError(f"{path}: missing preset section; expected one [section] naming a preset")
    if len(sections) > 1:
        raise ConfigError(f"{path}: expected exactly one preset section, found {sections}")
    name = sections[0]
    overrides = {}
    for key, raw in parser.items(name):
        if key not in _OVERRIDE_TYPES:
            raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
        try:
            overrides[key] = _OVERRIDE_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None
    return build_preset(name, **overrides)


@contextlib.contextmanager
def _at_point(sweep_name, value, variant):
    """Attach the failing sweep point to numeric and value errors."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise type(exc)(f"{exc} (at {sweep_name}={value}, variant={variant!r})") from exc


def _radio(preset: ExperimentPreset) -> RadioParams:
    return RadioParams(
        power=preset.power,
        noise=preset.noise_density * preset.bandwidth,
        bandwidth=preset.bandwidth,
        pathloss_exponent=preset.alpha,
    )


def _sim_seed(preset: ExperimentPreset, *key) -> tuple:
    return (preset.seed, 3, *key)


def _simulate(preset, inputs, window, master_seed, size_law=None, reorder=None):
    config = SimulationConfig(
        inputs=inputs,
        window=window,
        iterations=preset.iterations,
        master_seed=master_seed,
        parallelism=preset.parallelism,
        size_law=size_law,
        reorder=reorder,
    )
    return estimate_total_success(config)


def _run_validate(preset: ExperimentPreset) -> list:
    radio = _radio(preset)
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    policy = popularity_weighted_marginals(popularity, preset.cache_capacity)
    law = ExponentialSize(1.0 / preset.size_mean_bits)
    sizes = sample_sizes(law, preset.catalogue_size, np.random.default_rng(np.random.SeedSequence((preset.seed, 1))))
    catalogue = ContentCatalogue(popularity=popularity, sizes=sizes)
    sweep_name, grid = preset.sweeps[0]

    def inputs_at(tau):
        return AnalyticInputs(
            density=preset.density,
            radio=radio,
            fading=ExponentialFading(1.0),
            lifespan=ExponentialLifespan(tau),
            policy=policy,
            catalogue=catalogue,
        )

    hw = preset.window_half_width or required_half_width(inputs_at(max(grid)))
    rows = []
    for p_idx, tau in enumerate(grid):
        start = time.perf_counter()
        with _at_point(sweep_name, tau, preset.variants[0]):
            inputs = inputs_at(tau)
            analytic = total_success(inputs)
            sim = _simulate(preset, inputs, Window(hw), _sim_seed(preset, 0, p_idx, 0))
        rows.append(
            ResultRow(
                sweep_name=sweep_name,
                sweep_value=float(tau),
                variant=preset.variants[0],
                analytic=analytic.value,
                simulated=sim.value,
                stderr=sim.standard_error,
                n_iter=sim.sample_count,
                seed=preset.seed,
                wall_time=time.perf_counter() - start,
            )
        )
    return rows


_ORDERING_MODES = {
    "increasing": "increasing_with_popularity_index",
    "independent": "independent",
    "decreasing": "decreasing_with_popularity_index",
}


def _run_correlation(preset: ExperimentPreset) -> list:
    radio = _radio(preset)
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    policy = popularity_weighted_marginals(popularity, preset.cache_capacity)
    law = ExponentialSize(1.0 / preset.size_mean_bits)
    sizes = sample_sizes(law, preset.catalogue_size, np.random.default_rng(np.random.SeedSequence((preset.seed, 1))))
    base = ContentCatalogue(popularity=popularity, sizes=sizes)
    catalogues = {v: apply_ordering(base, _ORDERING_MODES[v]) for v in preset.variants}
    sweep_name, grid = preset.sweeps[0]

    def inputs_at(tau, cat):
        return AnalyticInputs(
            density=preset.density,
            radio=radio,
            fading=ExponentialFading(1.0),
            lifespan=ExponentialLifespan(tau),
            policy=policy,
            catalogue=cat,
        )

    hw = preset.window_half_width or required_half_width(inputs_at(max(grid), base))
    rows = []
    for p_idx, tau in enumerate(grid):
        for variant in preset.variants:
            start = time.perf_counter()
            with _at_point(sweep_name, tau, variant):
                inputs = inputs_at(tau, catalogues[variant])
                analytic = total_success(inputs)
                # one shared stream per sweep point: variants differ only
                # through the size permutation, so their curves are coupled
                sim = _simulate(preset, inputs, Window(hw), _sim_seed(preset, 0, p_idx))
            rows.append(
                ResultRow(
                    sweep_name=sweep_name,
                    sweep_value=float(tau),
                    variant=variant,
                    analytic=analytic.value,
                    simulated=sim.value,
                    stderr=sim.standard_error,
                    n_iter=sim.sample_count,
                    seed=preset.seed,
                    wall_time=time.perf_counter() - start,
                )
            )
    return rows


def _ordered_expected(inputs, law, n_draws, rng):
    """Expected success when each size sample is sorted large-to-popular.

    Draws whole catalogues, sorts each descending and evaluates the closed
    form per draw; returns (mean, stderr). Used for the ordered comparison,
    where sizes are no longer independent across objects.
    """
    from .analytics import lifespan_moment, _coefficient  # local: keep module surface small

    F = inputs.catalogue.F
    a = inputs.catalogue.popularity.a
    b = inputs.policy.b
    cached = np.nonzero(b > 0)[0]
    u = rng.random((n_draws, F))
    z = np.sort(np.asarray(law.inverse_cdf(u)), axis=1)[:, ::-1]
    its = np.asarray(
        lifespan_moment(inputs.lifespan, z[:, cached], inputs.radio.bandwidth, inputs.radio.pathloss_exponent)
    )
    coeff = _coefficient(inputs) * b[cached]
    per_draw = np.exp(-its * coeff) @ a[cached] + a.sum() - a[cached].sum()
    mean = float(1.0 - per_draw.mean())
    stderr = float(per_draw.std(ddof=1) / math.sqrt(n_draws))
    return min(max(mean, 0.0), 1.0), stderr


def _run_comparison(preset: ExperimentPreset) -> list:
    radio = _radio(preset)
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    policy = popularity_weighted_marginals(popularity, preset.cache_capacity)
    rows = []

    def inputs_at(density, tau, law):
        # placeholder catalogue at the law's mean size: the simulator
        # resamples real sizes every iteration
        template = ContentCatalogue(
            popularity=popularity, sizes=np.full(preset.catalogue_size, mean_size(law))
        )
        return AnalyticInputs(
            density=density,
            radio=radio,
            fading=ExponentialFading(1.0),
            lifespan=FixedLifespan(tau),
            policy=policy,
            catalogue=template,
        )

    max_tau = max(max(grid) for name, grid in preset.sweeps if name == "tau_mean") if any(
        name == "tau_mean" for name, _ in preset.sweeps
    ) else preset.fixed_lifespan
    hw = preset.window_half_width or max(
        required_half_width(inputs_at(preset.density, max_tau, law)) for law in COMPARISON_SIZE_LAWS.values()
    )

    if preset.reorder:
        for variant in preset.variants:
            law = COMPARISON_SIZE_LAWS[variant]
            sample = np.sort(
                sample_sizes(law, preset.catalogue_size, np.random.default_rng(np.random.SeedSequence((preset.seed, 1))))
            )[::-1]
            log.info(
                "top-5 %s sizes (Gb): %s", variant, np.array2string(sample[:5] / 1e9, precision=3, separator=", ")
            )

    for s_idx, (sweep_name, grid) in enumerate(preset.sweeps):
        for p_idx, value in enumerate(grid):
            density = value if sweep_name == "density" else preset.density
            tau = value if sweep_name == "tau_mean" else preset.fixed_lifespan
            for v_idx, variant in enumerate(preset.variants):
                start = time.perf_counter()
                with _at_point(sweep_name, value, variant):
                    law = COMPARISON_SIZE_LAWS[variant]
                    inputs = inputs_at(density, tau, law)
                    rng = np.random.default_rng(np.random.SeedSequence((preset.seed, 2)))
                    if preset.reorder == "decreasing":
                        value_a, _ = _ordered_expected(
                            inputs, law, max(200, preset.mc_samples // preset.catalogue_size), rng
                        )
                    elif preset.reorder is None:
                        value_a = expected_success(inputs, law, preset.mc_samples, rng).value
                    else:
                        raise ConfigError(f"unsupported reorder {preset.reorder!r} for comparisons")
                    sim = _simulate(
                        preset,
                        inputs,
                        Window(hw),
                        _sim_seed(preset, s_idx, p_idx, v_idx),
                        size_law=law,
                        reorder=preset.reorder,
                    )
                rows.append(
                    ResultRow(
                        sweep_name=sweep_name,
                        sweep_value=float(value),
                        variant=variant,
                        analytic=value_a,
                        simulated=sim.value,
                        stderr=sim.standard_error,
                        n_iter=sim.sample_count,
                        seed=preset.seed,
                        wall_time=time.perf_counter() - start,
                    )
                )
    return rows


def _wilson_interval(p_hat: float, n: int, z: float) -> tuple:
    """Wilson score interval of a binomial proportion; valid at p_hat 0 and 1."""
    z2n = z * z / n
    center = (p_hat + z2n / 2.0) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2n / (4.0 * n))
    return center - half, center + half


def run_preset(preset: ExperimentPreset) -> list:
    """Run all sweep points and variants of a preset, in deterministic order.

    Logs a warning for each row whose analytic value lies outside the
    Wilson score interval at 4 standard errors around the simulated
    frequency of its n_iter requests.
    """
    runner = {"validate": _run_validate, "correlation": _run_correlation, "comparison": _run_comparison}[preset.kind]
    rows = runner(preset)
    for r in rows:
        lo, hi = _wilson_interval(r.simulated, r.n_iter, 4.0)
        if not lo <= r.analytic <= hi:
            log.warning(
                "simulated value %.4g more than 4 standard errors from analytic %.4g at %s=%s (%s): "
                "Wilson score interval [%.4g, %.4g] over %d iterations",
                r.simulated,
                r.analytic,
                r.sweep_name,
                r.sweep_value,
                r.variant,
                lo,
                hi,
                r.n_iter,
            )
    return rows


def emit_results(rows, out_format: str, path) -> None:
    """Write rows as CSV or JSON with exactly the documented columns."""
    if out_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {out_format!r}")
    try:
        if out_format == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                for row in rows:
                    writer.writerow(
                        [
                            row.sweep_name,
                            repr(float(row.sweep_value)),
                            row.variant,
                            repr(float(row.analytic)),
                            repr(float(row.simulated)),
                            repr(float(row.stderr)),
                            row.n_iter,
                            row.seed,
                        ]
                    )
        else:
            payload = [
                {
                    "sweep_name": row.sweep_name,
                    "sweep_value": float(row.sweep_value),
                    "variant": row.variant,
                    "analytic": float(row.analytic),
                    "simulated": float(row.simulated),
                    "stderr": float(row.stderr),
                    "n_iter": row.n_iter,
                    "seed": row.seed,
                }
                for row in rows
            ]
            with open(path, "w", encoding="utf-8", newline="") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="d2dcache", description="cache-aided network experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named preset or a config file")
    run.add_argument("target", help="preset name or path to a config file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--iterations", type=int, default=None)
    run.add_argument("--parallelism", type=int, default=None)
    run.add_argument("--mc-samples", type=int, default=None, dest="mc_samples")
    run.add_argument("--out", default=None, help="output path (default <preset>.<format>)")
    run.add_argument("--format", choices=("csv", "json"), default=None)

    sub.add_parser("list-presets", help="list available presets")

    val = sub.add_parser("validate", help="check a config file without running it")
    val.add_argument("path")
    return parser


def _cmd_run(args) -> int:
    if args.target in PRESET_NAMES or args.target == "custom":
        if args.target == "custom":
            raise ConfigError("the custom preset requires a config file")
        preset = build_preset(args.target)
    elif os.path.exists(args.target):
        preset = load_config(args.target)
    else:
        raise ConfigError(f"{args.target!r} is neither a preset name nor an existing config file")
    cli_overrides = {
        "seed": args.seed,
        "iterations": args.iterations,
        "parallelism": args.parallelism,
        "mc_samples": args.mc_samples,
        "out_path": args.out,
        "out_format": args.format,
    }
    updates = {k: v for k, v in cli_overrides.items() if v is not None}
    if updates:
        try:
            preset = replace(preset, **updates)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
    rows = run_preset(preset)
    out = preset.out_path or f"{preset.name}.{preset.out_format}"
    emit_results(rows, preset.out_format, out)
    print(f"{preset.name}: {len(rows)} rows -> {out}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            for name in PRESET_NAMES + ("custom",):
                print(f"{name}: {PRESET_SUMMARIES[name]}")
            return 0
        if args.command == "validate":
            preset = load_config(args.path)
            print(f"ok: {preset.name}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
