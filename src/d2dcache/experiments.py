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
    CATALOGUE_SIZE_LIMIT      10**6      largest catalogue_size a preset takes
    ZIPF_EXPONENT             0.78       popularity skew
    CACHE_CAPACITY            5          objects per transmitter cache
    ITERATIONS                2000       Monte Carlo iterations per point
    AUDIO_MEAN_BITS           1e7        mean audio file size
    VIDEO_MEAN_BITS           1e9        mean video file size
    AUDIO_TAU_GRID            10..100    mean-lifespan sweep, audio (s)
    VIDEO_TAU_GRID            100..1000  mean-lifespan sweep, video (s)
    COMPARISON_LIFESPAN       1000.0     fixed lifespan of the density sweep
    DENSITY_GRID              1e-4..1e-2 density sweep (log-spaced)
    WINDOW_HALF_WIDTH         3000.0     cap on every simulation radius, m
                                         (window_half_width overrides it)
    ========================  =========  =====================================

One sweep runner, run_preset, serves the three preset kinds; they differ
only in how each variant is set up:

- validate: an exponential lifespan and one catalogue of exponential
  sizes, assigned to popularity ranks per the preset's reorder; the
  closed form is total_success.
- correlation: the same catalogue, and each variant names the ordering
  (one of content.ORDERING_MODES) applied to it.
- comparison: a fixed lifespan and, per variant, a size law from which
  the simulator draws each requested object's size, ordered per reorder;
  the closed form is expected_success over that law with the same
  ordering. Each variant builds its size rule once, before the sweep, and
  every point of the variant evaluates that one rule.

Seed derivation: a preset's integer seed S feeds two independent
sub-streams — (S, 1) for the catalogue size sample of the validate and
correlation presets, and (S, 3, sweep, point, variant) as the simulator
master seed. The correlation preset deliberately shares
(S, 3, sweep, point) across its variants. The simulator draws each
configuration's requested ranks first, so the variants see the same request
sequence; the transmitter fields that follow differ, because each
ordering gives the requested object its own size and simulation radius.
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
from dataclasses import dataclass, replace

import numpy as np

from .analytics import (
    AnalyticInputs,
    evaluate_expected_success,
    size_rule,
    total_success,
)
from .channel import ExponentialFading, RadioParams
from .content import (
    ORDERING_MODES,
    ContentCatalogue,
    ExponentialSize,
    LogNormalSize,
    ParetoSize,
    UniformSize,
    WeibullSize,
    check_integer,
    check_ordering,
    check_real,
    mean_size,
    order_sizes,
    sample_sizes,
    zipf_popularity,
)
from .geometry import Window
from .mobility import ExponentialLifespan, FixedLifespan
from .placement import popularity_weighted_marginals
from .simulator import SimulationConfig, estimate_sweep

log = logging.getLogger(__name__)

DENSITY = 2.5e-3
POWER = 0.5
NOISE_DENSITY = 1e-11
BANDWIDTH = 5e6
PATHLOSS_EXPONENT = 4.0
CATALOGUE_SIZE = 100
CATALOGUE_SIZE_LIMIT = 10**6
ZIPF_EXPONENT = 0.78
CACHE_CAPACITY = 5
ITERATIONS = 2000
AUDIO_MEAN_BITS = 1e7
VIDEO_MEAN_BITS = 1e9
AUDIO_TAU_GRID = tuple(np.linspace(10.0, 100.0, 10).tolist())
VIDEO_TAU_GRID = tuple(np.linspace(100.0, 1000.0, 10).tolist())
COMPARISON_LIFESPAN = 1000.0
COMPARISON_CATALOGUE_SIZE = 200
DENSITY_GRID = tuple(np.logspace(-4, -2, 7).tolist())
WINDOW_HALF_WIDTH = 3000.0

COMPARISON_SIZE_LAWS = {
    "uniform": UniformSize(0.05e9, 2e9),
    "exponential": ExponentialSize(1e-9),
    "pareto": ParetoSize(20.0 / 19.0, 0.05e9),
    "lognormal": LogNormalSize(5.0 * math.log(10.0), math.sqrt(8.0 * math.log(10.0))),
    "weibull": WeibullSize(276.0, 0.1),
}

OUTPUT_FORMATS = ("csv", "json")
CSV_COLUMNS = ("sweep_name", "sweep_value", "variant", "analytic", "simulated", "stderr", "n_iter", "seed")
# the preset field behind each model input that check_real's and check_integer's messages lead with
_PRESET_FIELDS = dict(noise="noise_density * bandwidth", pathloss_exponent="alpha", rate="1 / size_mean_bits",
                      mean="fixed_lifespan", half_width="window_half_width")


class ConfigError(Exception):
    """Invalid preset name, config file or parameter value."""


def _radio(preset: ExperimentPreset) -> RadioParams:
    check_real("noise_density", preset.noise_density, 0, math.inf)  # True times the bandwidth is a valid noise
    noise = preset.noise_density * preset.bandwidth
    return RadioParams(power=preset.power, noise=noise, bandwidth=preset.bandwidth, pathloss_exponent=preset.alpha)


@dataclass(frozen=True)
class ExperimentPreset:
    """A fully resolved experiment: sweeps, variants and model parameters.

    Each sweep varies tau_mean or density. parallelism is validated but
    selects nothing: the simulator runs serially.
    """

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
    parallelism: int = 1
    window_half_width: float = WINDOW_HALF_WIDTH
    reorder: str = "independent"
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.kind not in ("validate", "correlation", "comparison"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        known = {"comparison": tuple(COMPARISON_SIZE_LAWS), "correlation": ORDERING_MODES}.get(self.kind, self.variants)
        if not self.variants or not set(self.variants) <= set(known):
            detail = f"{known or 'any names'}, at least one, got {self.variants}"
            raise ConfigError(f"{self.kind} variants must come from {detail}")
        if not self.sweeps or not all(len(grid) for _, grid in self.sweeps):
            raise ConfigError(f"preset needs at least one sweep, each with a nonempty grid, got {self.sweeps}")
        for sweep_name, _ in self.sweeps:
            if sweep_name not in ("tau_mean", "density"):
                raise ConfigError(f"unknown sweep {sweep_name!r}; expected tau_mean or density")
        if self.out_format not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown output format {self.out_format!r}")
        try:
            for sweep_name, grid in self.sweeps:
                for low, value in zip((0, *grid), grid):
                    check_real(f"each {sweep_name} of a positive, strictly increasing grid", value, low, math.inf)
            check_real("density", self.density, 0, math.inf)
            check_ordering(self.reorder)
            floors = (("iterations", 1), ("parallelism", 1), ("seed", 0), ("catalogue_size", 2), ("cache_capacity", 1))
            for name, floor in floors:
                check_integer(name, getattr(self, name), floor)
            # the popularity law and the placement hold catalogue_size floats each: checked, not built
            check_real("catalogue_size", self.catalogue_size, 2, CATALOGUE_SIZE_LIMIT, "[]")
            check_real("zipf_exponent", self.zipf_exponent, 0, math.inf, "[)")
            check_real("cache_capacity", self.cache_capacity, 0, self.catalogue_size / 2, "(]")
            # the other fields are valid when the model built from them is
            _radio(self)
            check_real("size_mean_bits", self.size_mean_bits, 0, math.inf)  # its reciprocal is a rate, 1.0 for True
            ExponentialSize(1.0 / self.size_mean_bits)
            FixedLifespan(self.fixed_lifespan)
            Window(self.window_half_width)
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{_PRESET_FIELDS.get(name, name)} {rest}") from None

    @property
    def mc_samples(self) -> float:
        """Size draws behind the analytic column, for callers that combine its
        sampling error sd / sqrt(mc_samples) with their own: the column is
        exact (expected_success's rule), so the count is unbounded, inf."""
        return math.inf


@dataclass(slots=True)
class ResultRow:
    """One (sweep point, variant) result; its fields are CSV_COLUMNS.

    stderr is the simulator's standard error of simulated, and n_iter the
    number of simulated requests behind it.
    """

    sweep_name: str
    sweep_value: float
    variant: str
    analytic: float
    simulated: float
    stderr: float
    n_iter: int
    seed: int

    def __post_init__(self):
        check_real("analytic", self.analytic, 0, 1, "[]")
        check_real("simulated", self.simulated, 0, 1, "[]")
        check_real("stderr", self.stderr, 0, math.inf, "[)")


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
# config keys that are also run flags; a flag given beats the file's key
_CLI_KEYS = ("seed", "iterations", "out", "format")


def build_preset(name: str, **overrides) -> ExperimentPreset:
    """Instantiate a named preset, applying overrides: config keys or preset field names."""
    presets = _builtin_presets()
    if name == "custom":
        base = replace(presets["validate_video"], name="custom", variants=("custom",))
    elif name in presets:
        base = presets[name]
    else:
        raise ConfigError(f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES + ('custom',))}")
    renames = {"out": "out_path", "format": "out_format"}
    mapped = {renames.get(key, key): value for key, value in overrides.items() if key != "tau_grid"}
    if "tau_grid" in overrides:
        try:
            mapped["sweeps"] = (("tau_mean", tuple(overrides["tau_grid"])),)
        except TypeError:
            raise ConfigError(f"tau_grid must be a sequence of mean lifespans, got {overrides['tau_grid']!r}") from None
    try:
        return replace(base, **mapped)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _read_config(path) -> dict:
    """build_preset's keywords from an INI-style file: its one [section]'s name, and its keys."""
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
    keys = {"name": name}
    for key, raw in parser.items(name):
        if key not in _OVERRIDE_TYPES:
            raise ConfigError(f"{path}: unknown key {key!r} in [{name}]")
        try:
            keys[key] = _OVERRIDE_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from None
    return keys


def load_config(path) -> ExperimentPreset:
    """Read a preset from an INI-style file with a single [preset-name] section."""
    return build_preset(**_read_config(path))


@contextlib.contextmanager
def _annotated(context: str):
    """Attach context to numeric and value errors."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise type(exc)(f"{exc} ({context})") from exc


def _at_point(sweep_name, value, variant):
    """Attach the failing sweep point to numeric and value errors."""
    return _annotated(f"at {sweep_name}={value}, variant={variant!r}")


def _variants(preset: ExperimentPreset, popularity, policy) -> list:
    """The variant table: per variant, (name, catalogue ordered per its
    ordering, ordering, size law or None, size rule or None).

    Comparison variants name a size law that the simulator redraws every
    iteration, and the size rule that every point's closed form evaluates;
    their catalogue is a placeholder at the law's mean size. Validate and
    correlation variants share one exponential size sample from the
    (seed, 1) stream, and a correlation variant names its ordering.
    """
    F = preset.catalogue_size
    if preset.kind == "comparison":
        table = []
        for variant in preset.variants:
            law = COMPARISON_SIZE_LAWS[variant]
            with _annotated(f"building the size rule for variant={variant!r}"):
                rule = size_rule(policy, law, preset.reorder)
            catalogue = ContentCatalogue(popularity=popularity, sizes=np.full(F, mean_size(law)))
            table.append((variant, catalogue, preset.reorder, law, rule))
        return table
    rng = np.random.default_rng(np.random.SeedSequence((preset.seed, 1)))
    sizes = sample_sizes(ExponentialSize(1.0 / preset.size_mean_bits), F, rng)
    table = []
    for variant in preset.variants:
        order = variant if preset.kind == "correlation" else preset.reorder
        catalogue = ContentCatalogue(popularity=popularity, sizes=order_sizes(sizes, order))
        table.append((variant, catalogue, order, None, None))
    return table


def _wilson_interval(p_hat: float, n: int, z: float) -> tuple:
    """Wilson score interval of a binomial proportion; valid at p_hat 0 and 1."""
    z2n = z * z / n
    center = (p_hat + z2n / 2.0) / (1.0 + z2n)
    half = z / (1.0 + z2n) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2n / (4.0 * n))
    return center - half, center + half


def _check_agreement(row: ResultRow) -> None:
    """Warn when the analytic value lies outside the Wilson score interval
    at 4 standard errors around the simulated frequency."""
    lo, hi = _wilson_interval(row.simulated, row.n_iter, 4.0)
    if not lo <= row.analytic <= hi:
        log.warning(
            "simulated value %.4g more than 4 standard errors from analytic %.4g at %s=%s (%s): "
            "Wilson score interval [%.4g, %.4g] over %d iterations",
            row.simulated,
            row.analytic,
            row.sweep_name,
            row.sweep_value,
            row.variant,
            lo,
            hi,
            row.n_iter,
        )


def run_preset(preset: ExperimentPreset) -> list:
    """Run all sweep points and variants of a preset, in deterministic order.

    Each preset kind sets up its variants as the module docstring says.
    Every simulation disc takes the simulator's computed radius, capped at
    the preset's window_half_width (WINDOW_HALF_WIDTH unless overridden);
    the simulator warns, with the truncation bias bound, for each point
    where the cap binds. One pass over the points evaluates each closed
    form and builds its simulation configuration; one estimate_sweep call
    then simulates them all, so they share the simulator's radius searches.

    Logs a warning for each row, in row order, whose analytic value lies
    outside the Wilson score interval at 4 standard errors around the
    simulated frequency of its n_iter requests.
    """
    radio = _radio(preset)
    popularity = zipf_popularity(preset.catalogue_size, preset.zipf_exponent)
    policy = popularity_weighted_marginals(popularity, preset.cache_capacity)
    lifespan_law = FixedLifespan if preset.kind == "comparison" else ExponentialLifespan
    variants = _variants(preset, popularity, policy)

    pending = []  # (simulation config, the row's other fields), in row order
    for s_idx, (sweep_name, grid) in enumerate(preset.sweeps):
        for p_idx, value in enumerate(grid):
            for v_idx, (variant, catalogue, order, law, rule) in enumerate(variants):
                with _at_point(sweep_name, value, variant):
                    inputs = AnalyticInputs(
                        density=value if sweep_name == "density" else preset.density,
                        radio=radio,
                        fading=ExponentialFading(1.0),
                        lifespan=lifespan_law(value if sweep_name == "tau_mean" else preset.fixed_lifespan),
                        policy=policy,
                        catalogue=catalogue,
                    )
                    analytic = total_success(inputs) if rule is None else evaluate_expected_success(inputs, rule)
                    # correlation variants share one stream per sweep point, so
                    # their curves are coupled through a common request sequence
                    key = (s_idx, p_idx) if preset.kind == "correlation" else (s_idx, p_idx, v_idx)
                    config = SimulationConfig(
                        inputs=inputs,
                        window=Window(preset.window_half_width),
                        iterations=preset.iterations,
                        master_seed=(preset.seed, 3, *key),
                        size_law=law,
                        reorder=order,
                    )
                fields = dict(sweep_name=sweep_name, sweep_value=float(value), variant=variant, analytic=analytic.value)
                pending.append((config, fields))
    with _annotated(f"simulating preset {preset.name!r}"):
        estimates = estimate_sweep(config for config, _ in pending)

    rows = []
    for (_, fields), sim in zip(pending, estimates):
        rows.append(
            ResultRow(
                **fields,
                simulated=sim.value,
                stderr=sim.standard_error,
                n_iter=sim.sample_count,
                seed=preset.seed,
            )
        )
        _check_agreement(rows[-1])
    return rows


def _record(row: ResultRow) -> dict:
    """The output record of a row: CSV_COLUMNS in order, numpy scalars as Python numbers."""
    values = {name: getattr(row, name) for name in CSV_COLUMNS}
    return {name: v.item() if isinstance(v, np.generic) else v for name, v in values.items()}


def emit_results(rows, out_format: str, path) -> None:
    """Write rows as CSV or JSON with exactly the documented columns."""
    if out_format not in OUTPUT_FORMATS:
        raise ConfigError(f"unknown output format {out_format!r}")
    records = [_record(row) for row in rows]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if out_format == "csv":
                writer = csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\n")
                writer.writeheader()
                writer.writerows(records)
            else:
                json.dump(records, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="d2dcache", description="cache-aided network experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named preset or a config file, writing <preset>.<format> unless --out")
    run.add_argument("target", help="preset name or path to a config file")
    for key in _CLI_KEYS:
        run.add_argument(f"--{key}", type=_OVERRIDE_TYPES[key], choices=OUTPUT_FORMATS if key == "format" else None)

    sub.add_parser("list-presets", help="list available presets")

    val = sub.add_parser("validate", help="check a config file without running it")
    val.add_argument("path")
    return parser


def _cmd_run(args) -> int:
    if args.target == "custom":
        raise ConfigError("the custom preset requires a config file")
    if args.target in PRESET_NAMES:
        keys = {"name": args.target}
    elif os.path.exists(args.target):
        keys = _read_config(args.target)
    else:
        raise ConfigError(f"{args.target!r} is neither a preset name nor an existing config file")
    keys.update((key, getattr(args, key)) for key in _CLI_KEYS if getattr(args, key) is not None)
    preset = build_preset(**keys)
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

