"""Cache-aided device-to-device network simulator and closed-form evaluator.

The package estimates the probability that a typical receiver's content
request is served by a nearby transmitter that (a) caches the object and
(b) can deliver the whole file over a noise-limited link before moving
away — once by Monte Carlo over sampled transmitter fields and once from
a closed form, so each route checks the other.
"""

from .analytics import (
    AnalyticInputs,
    MetricEstimate,
    coverage_radius_scale,
    expected_success,
    lifespan_moment,
    lifespan_moment_exponential,
    total_success,
)
from .channel import (
    ExponentialFading,
    LogNormalFading,
    NakagamiFading,
    RadioParams,
    RiceFading,
    WeibullFading,
    fading_moment,
    link_bits,
    sample_fading,
)
from .content import (
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
from .experiments import (
    ConfigError,
    ExperimentPreset,
    PRESET_NAMES,
    ResultRow,
    build_preset,
    emit_results,
    load_config,
    run_preset,
)
from .geometry import Window, sample_disc
from .mobility import ExponentialLifespan, FixedLifespan, sample_lifespan
from .placement import PlacementPolicy, popularity_weighted_marginals
from .simulator import SimulationConfig, estimate_sweep, estimate_total_success

__version__ = "0.1.0"

__all__ = [
    "AnalyticInputs",
    "ConfigError",
    "ContentCatalogue",
    "ExperimentPreset",
    "ExponentialFading",
    "ExponentialLifespan",
    "ExponentialSize",
    "FixedLifespan",
    "LogNormalFading",
    "LogNormalSize",
    "MetricEstimate",
    "NakagamiFading",
    "ORDERING_MODES",
    "PRESET_NAMES",
    "ParetoSize",
    "PlacementPolicy",
    "PopularityLaw",
    "RadioParams",
    "ResultRow",
    "RiceFading",
    "SimulationConfig",
    "UniformSize",
    "WeibullFading",
    "WeibullSize",
    "Window",
    "build_preset",
    "coverage_radius_scale",
    "emit_results",
    "estimate_sweep",
    "estimate_total_success",
    "expected_success",
    "fading_moment",
    "lifespan_moment",
    "lifespan_moment_exponential",
    "link_bits",
    "load_config",
    "mean_size",
    "order_sizes",
    "popularity_weighted_marginals",
    "run_preset",
    "sample_fading",
    "sample_disc",
    "sample_lifespan",
    "sample_sizes",
    "total_success",
    "zipf_popularity",
]
