"""Property tests: every validator accepts only finite numbers.

For each numeric field of each model dataclass, each entry of an array
input and each numeric INI key of a config file, any value is either
rejected with ValueError
(ConfigError for presets and config files) or was a finite int or float;
the integer preset fields must also be integers and at least their
floors: catalogue_size 2, iterations, cache_capacity and parallelism 1,
and seed 0.
NaN and +-inf are always among the examples tried, because comparisons
with NaN are false and so slip past a plain range check. So are True and
False, which compare as 1 and 0, and the string "1".
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import d2dcache.experiments as experiments
from d2dcache import (
    AnalyticInputs,
    ConfigError,
    ContentCatalogue,
    ExponentialFading,
    ExponentialLifespan,
    ExponentialSize,
    FixedLifespan,
    LogNormalFading,
    LogNormalSize,
    MetricEstimate,
    NakagamiFading,
    ParetoSize,
    PlacementPolicy,
    PopularityLaw,
    RadioParams,
    RiceFading,
    UniformSize,
    WeibullFading,
    WeibullSize,
    Window,
    build_preset,
    fading_moment,
    lifespan_moment,
    link_bits,
    load_config,
    popularity_weighted_marginals,
    sample_disc,
    zipf_popularity,
)

RADIO = RadioParams(power=0.5, noise=5e-5, bandwidth=5e6, pathloss_exponent=4.0)


def _inputs(density):
    popularity = zipf_popularity(10, 0.78)
    return AnalyticInputs(
        density=density,
        radio=RADIO,
        fading=ExponentialFading(1.0),
        lifespan=FixedLifespan(100.0),
        policy=popularity_weighted_marginals(popularity, 2),
        catalogue=ContentCatalogue(popularity=popularity, sizes=np.full(10, 1e9)),
    )


def _quiet(function):
    """function with numpy's floating-point warnings off: an extreme finite input (a huge h, a tiny r
    or z) may overflow or underflow on the way, which is a result, not an input error."""

    def call(**kwargs):
        with np.errstate(all="ignore"):
            return function(**kwargs)

    return call


# constructor and a valid keyword set; each keyword is varied on its own
CONSTRUCTORS = {
    "RadioParams": (RadioParams, dict(power=0.5, noise=5e-5, bandwidth=5e6, pathloss_exponent=4.0)),
    "ExponentialFading": (ExponentialFading, dict(rate=1.0)),
    "LogNormalFading": (LogNormalFading, dict(mu=0.0, sigma=1.0)),
    "WeibullFading": (WeibullFading, dict(scale=1.0, shape=1.5)),
    "NakagamiFading": (NakagamiFading, dict(m=2.0, omega=1.0)),
    "RiceFading": (RiceFading, dict(nu=1.0, sigma=0.5)),
    "fading_moment": (lambda alpha: fading_moment(ExponentialFading(1.0), alpha), dict(alpha=4.0)),
    "FixedLifespan": (FixedLifespan, dict(mean=100.0)),
    "ExponentialLifespan": (ExponentialLifespan, dict(mean=100.0)),
    "UniformSize": (UniformSize, dict(z_min=1e8, z_max=2e9)),
    "ExponentialSize": (ExponentialSize, dict(rate=1e-9)),
    "ParetoSize": (ParetoSize, dict(shape=1.5, scale=5e7)),
    "WeibullSize": (WeibullSize, dict(scale=276.0, shape=0.1)),
    "LogNormalSize": (LogNormalSize, dict(mu=20.0, sigma=4.0)),
    "zipf_popularity": (lambda gamma: zipf_popularity(100, gamma), dict(gamma=0.78)),
    "PopularityLaw": (lambda a0: PopularityLaw(F=2, a=[a0, 0.0]), dict(a0=1.0)),
    "ContentCatalogue": (
        lambda size: ContentCatalogue(popularity=zipf_popularity(3, 1.0), sizes=[1e9, size, 2e9]),
        dict(size=1.5e9),
    ),
    "PlacementPolicy": (lambda b0, K: PlacementPolicy(b=[b0, 0.5], K=K), dict(b0=0.5, K=1)),
    "Window": (Window, dict(half_width=500.0)),
    # each field varies on a disc of radius 0 or of intensity 0, so that no value draws points
    "sample_disc": (
        _quiet(lambda intensity, radius: sample_disc(intensity, radius, np.random.default_rng(0))),
        dict(intensity=0.0, radius=0.0),
    ),
    "link_bits": (_quiet(lambda h, r, tau: link_bits(RADIO, h, r, tau)), dict(h=1.0, r=10.0, tau=1.0)),
    "lifespan_moment": (_quiet(lambda z: lifespan_moment(FixedLifespan(10.0), z, 5e6, 4.0)), dict(z=1e6)),
    "AnalyticInputs": (_inputs, dict(density=2.5e-3)),
    "MetricEstimate": (MetricEstimate, dict(value=0.5, standard_error=0.01)),
}

FIELDS = [(name, key) for name, (_, kwargs) in CONSTRUCTORS.items() for key in kwargs]


def _finite_number(value):
    """A finite int or float (numpy's count); booleans and strings are not numbers."""
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool) and math.isfinite(value)


@pytest.mark.parametrize("name,key", FIELDS)
@settings(max_examples=12, deadline=None)
@given(value=st.floats())
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=True)
@example(value=False)
@example(value="1")
def test_dataclass_fields_accept_only_finite_values(name, key, value):
    build, kwargs = CONSTRUCTORS[name]
    try:
        build(**{**kwargs, key: value})
    except ValueError:
        return
    assert _finite_number(value), f"{name}({key}={value!r}) was accepted"


# preset fields that must moreover be integers, with their floors
INTEGER_FLOORS = {"catalogue_size": 2, "iterations": 1, "cache_capacity": 1, "parallelism": 1, "seed": 0}


def _admissible(key, value):
    if not _finite_number(value):
        return False
    if key in INTEGER_FLOORS:
        return value >= INTEGER_FLOORS[key] and float(value).is_integer()
    return True


def _integral(value):
    """An integral float as an int, so that integer fields see 0, -1, 3, ...;
    booleans pass through as booleans."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


# every numeric preset field, set through build_preset: a config file
# cannot express fixed_lifespan, booleans or strings
REAL_FIELDS = (
    "density", "power", "noise_density", "bandwidth", "alpha", "zipf_exponent", "size_mean_bits", "fixed_lifespan",
    "window_half_width",
)
PRESET_OVERRIDES = {
    "tau_grid": lambda value: dict(tau_grid=(10.0, value)),
    **{key: (lambda value, key=key: {key: value}) for key in REAL_FIELDS},
    **{key: (lambda value, key=key: {key: _integral(value)}) for key in INTEGER_FLOORS},
}


@pytest.mark.parametrize("key", sorted(PRESET_OVERRIDES))
@settings(max_examples=12, deadline=None)
@given(value=st.floats())
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0.0)
@example(value=-1.0)
@example(value=1500.5)
@example(value=True)
@example(value=False)
@example(value="1")
def test_preset_overrides_accept_only_finite_values(key, value):
    try:
        build_preset("validate_audio", **PRESET_OVERRIDES[key](value))
    except ConfigError:
        return
    assert _admissible(key, value), f"build_preset({key}) with {value!r} was accepted"


NUMERIC_KEYS = [key for key, parse in experiments._OVERRIDE_TYPES.items() if parse is not str]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
@settings(max_examples=12, deadline=None)
@given(value=st.floats())
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0.0)
@example(value=-1.0)
def test_ini_keys_accept_only_finite_values(tmp_path_factory, key, value):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text(f"[validate_audio]\n{key} = {_integral(value)!r}\n")
    try:
        load_config(path)
    except ConfigError:
        return
    assert _admissible(key, value), f"{key} = {value!r} was accepted"


@pytest.mark.parametrize(
    "overrides,field",
    [
        # an increasing grid as 1 < 5, so it used to build
        (dict(tau_grid=(True, 5.0)), "tau_mean"),
        # a string used to fail with a bare TypeError from a comparison, naming no field
        (dict(power="1"), "power"),
        (dict(noise_density="1"), "noise_density"),
        # used to raise a bare TypeError from tuple(5)
        (dict(tau_grid=5), "tau_grid"),
    ],
)
def test_preset_refuses_booleans_and_strings_naming_the_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        build_preset("validate_audio", **overrides)


def test_model_refuses_strings_naming_the_field():
    # used to raise TypeError: '<' not supported between instances of 'int' and 'str'
    with pytest.raises(ValueError, match="power must be a finite number"):
        RadioParams(power="1", noise=5e-5, bandwidth=5e6, pathloss_exponent=4.0)
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        fading_moment(ExponentialFading(1.0), "4")


@pytest.mark.parametrize(
    "build,name",
    [
        # each used to be accepted: numpy read True, False and numeric strings in a list as floats
        (lambda: PopularityLaw(F=2, a=np.array([1.5, -0.5])), "a"),
        (lambda: ContentCatalogue(popularity=zipf_popularity(3, 1.0), sizes=[1e9, True, "2e9"]), "sizes"),
        (lambda: PlacementPolicy(b=[False, 0.5], K=1), "b"),
        (lambda: link_bits(RADIO, np.nan, 10.0, 1.0), "h"),
        (lambda: link_bits(RADIO, ["1.0"], [10.0], [1.0]), "h"),
        (lambda: sample_disc(True, 10.0, np.random.default_rng(0)), "intensity"),
        (lambda: sample_disc("0.01", "10", np.random.default_rng(0)), "intensity"),
        (lambda: lifespan_moment(FixedLifespan(10.0), True, 5e6, 4.0), "z"),
        (lambda: lifespan_moment(FixedLifespan(10.0), ["1e6"], 5e6, 4.0), "z"),
    ],
    ids=[
        "PopularityLaw-range", "ContentCatalogue-bool", "PlacementPolicy-bool", "link_bits-nan", "link_bits-string",
        "sample_disc-bool", "sample_disc-string", "lifespan_moment-bool", "lifespan_moment-string",
    ],
)
def test_array_inputs_refuse_bad_entries_naming_the_input(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        build()
