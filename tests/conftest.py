"""Shared fixtures, the single_object helper and the acceptance-criteria
summary hook.

Tests marked ``@pytest.mark.criterion(n, "label", part="...")`` are
aggregated at the end of the run into one PASS/FAIL line per criterion.
"""

from dataclasses import replace

import numpy as np
import pytest

from d2dcache import (
    AnalyticInputs,
    ContentCatalogue,
    ExponentialFading,
    ExponentialLifespan,
    ExponentialSize,
    PopularityLaw,
    RadioParams,
    popularity_weighted_marginals,
    sample_sizes,
    zipf_popularity,
)

# reference configuration used across test modules: density and radio
# parameters of the default presets, exponential video sizes, seed 0
REF_DENSITY = 2.5e-3
REF_RADIO = RadioParams(power=0.5, noise=1e-11 * 5e6, bandwidth=5e6, pathloss_exponent=4.0)


@pytest.fixture(scope="session")
def video_inputs():
    """AnalyticInputs for the video configuration at mean lifespan 1000 s."""
    popularity = zipf_popularity(100, 0.78)
    policy = popularity_weighted_marginals(popularity, 5)
    sizes = sample_sizes(ExponentialSize(1e-9), 100, np.random.default_rng(np.random.SeedSequence((0, 1))))
    catalogue = ContentCatalogue(popularity=popularity, sizes=sizes)
    return AnalyticInputs(
        density=REF_DENSITY,
        radio=REF_RADIO,
        fading=ExponentialFading(1.0),
        lifespan=ExponentialLifespan(1000.0),
        policy=policy,
        catalogue=catalogue,
    )


def single_object(inputs, j):
    """inputs with every request for one object of object j's size and
    cache marginal: it takes rank 0 at popularity 1, and nothing else is cached."""
    F = inputs.catalogue.F
    a, b, sizes = np.zeros(F), np.zeros(F), inputs.catalogue.sizes.copy()
    a[0], b[0], sizes[0] = 1.0, inputs.policy.b[j], sizes[j]
    return replace(
        inputs,
        policy=replace(inputs.policy, b=b),
        catalogue=ContentCatalogue(popularity=PopularityLaw(F, a), sizes=sizes),
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, label, part=None): acceptance-criterion test, aggregated in the summary",
    )
    config._criterion_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or report.when != "call":
        return
    num, label = marker.args
    part = marker.kwargs.get("part")
    store = item.config._criterion_results.setdefault(num, {"label": label, "parts": []})
    store["parts"].append((part, report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_criterion_results", None)
    if not results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(results):
        entry = results[num]
        outcomes = [o for _, o in entry["parts"]]
        verdict = "PASS" if outcomes and all(o == "passed" for o in outcomes) else "FAIL"
        detail = ""
        named = [(p, o) for p, o in entry["parts"] if p]
        if named and len(entry["parts"]) > 1:
            detail = " [" + ", ".join(f"{p}: {'PASS' if o == 'passed' else 'FAIL'}" for p, o in named) + "]"
        tr.write_line(f"criterion {num} ({entry['label']}): {verdict}{detail}")
