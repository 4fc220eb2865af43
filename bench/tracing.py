"""Spans around the calls into each d2dcache module, for the traced run.

A ``Tracer`` replaces public names where their callers look them up (a
module global, a package attribute or a class attribute) with a wrapper
that records a span: name, start, end, the enclosing span and a few
counts. Spans stay in memory until the run ends. A name that is missing
is listed in ``absent`` and the metrics built on it read 0.

Spans recorded in pool workers would not return to this process; every
workload simulates serially, so none are lost.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

ESTIMATE = "simulator.estimate_total_success"
SIZE_LAW_CLASSES = ("UniformSize", "ExponentialSize", "ParetoSize", "WeibullSize", "LogNormalSize")


def _membership_info(args, result):
    policy, j, u = args[:3]
    return {"n": len(u), "useful": bool(policy.b[j] > 0)}


def _moment_info(args, result):
    return {"key": (float(args[0]), float(args[1]))}


def _estimate_info(args, result):
    config = args[0]
    return {"iterations": config.iterations}


def _points_info(args, result):
    return {"points": len(result)}


# (module, attribute path, span name, info) for every wrapped lookup
TARGETS = [
    ("d2dcache", "run_preset", "experiments.run_preset", _points_info),
    ("d2dcache", "total_success", "analytics.total_success", None),
    ("d2dcache", "coverage_radius_scale", "analytics.coverage_radius_scale", None),
    ("d2dcache", "expected_success", "analytics.expected_success", None),
    ("d2dcache.experiments", "total_success", "analytics.total_success", None),
    ("d2dcache.experiments", "expected_success", "analytics.expected_success", None),
    ("d2dcache.experiments", "estimate_total_success", ESTIMATE, _estimate_info),
    ("d2dcache.experiments", "required_half_width", "simulator.required_half_width", None),
    ("d2dcache.simulator", "coverage_radius_scale", "analytics.coverage_radius_scale", None),
    ("d2dcache.simulator", "sample_fading", "channel.sample_fading", None),
    ("d2dcache.simulator", "sample_lifespan", "mobility.sample_lifespan", None),
    ("d2dcache.analytics", "lifespan_moment", "analytics.lifespan_moment", None),
    ("d2dcache.analytics", "lifespan_moment_exponential", "analytics.lifespan_moment_exponential", _moment_info),
    ("d2dcache.placement", "PlacementPolicy.membership", "placement.membership", _membership_info),
] + [("d2dcache.content", f"{law}.inverse_cdf", "content.inverse_cdf", None) for law in SIZE_LAW_CLASSES]


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, info)
        self.absent = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, path, name, info in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (name, start, perf_counter(), parent, None)
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, info(args, result) if info else None)
            return result

        return traced


def layer_metrics(spans, offset: int) -> dict:
    """Per-layer metrics of one traced round.

    spans are that round's spans; offset is the index of its first span
    in the whole run, which parent indices refer to.
    """
    spans = [
        (name, start, end, parent - offset if parent >= 0 else -1, detail)
        for name, start, end, parent, detail in spans
    ]
    by_name = {}
    child_time = [0.0] * len(spans)
    for index, (name, start, end, parent, detail) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent >= 0:
            child_time[parent] += end - start

    def duration(i):
        return spans[i][2] - spans[i][1]

    def total(name, keep=lambda i: True):
        return sum(duration(i) for i in by_name.get(name, ()) if keep(i))

    def within(name):
        def test(i):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        return test

    def parent_is(name):
        return lambda i: spans[i][3] >= 0 and spans[spans[i][3]][0] == name

    def details(name):
        return [spans[i][4] for i in by_name.get(name, ()) if spans[i][4] is not None]

    estimates = by_name.get(ESTIMATE, ())
    iterations = sum(d["iterations"] for d in details(ESTIMATE))
    membership = details("placement.membership")
    moments = [d["key"] for d in details("analytics.lifespan_moment_exponential")]
    estimate_s = total(ESTIMATE)
    metrics = {
        "simulator.estimate_s": estimate_s,
        "simulator.self_s": sum(duration(i) - child_time[i] for i in estimates),
        "placement.membership_s": total("placement.membership"),
        "channel.sample_fading_s": total("channel.sample_fading", within(ESTIMATE)),
        "mobility.sample_lifespan_s": total("mobility.sample_lifespan", within(ESTIMATE)),
        "content.size_draw_s": total("content.inverse_cdf", within(ESTIMATE)),
        "analytics.lifespan_moment_calls": len(moments),
        "analytics.total_success_s": total("analytics.total_success"),
        "analytics.coverage_radius_scale_s": total("analytics.coverage_radius_scale"),
        # the ordered comparison evaluates its expectation through
        # lifespan_moment called straight from run_preset
        "analytics.expected_success_s": total("analytics.expected_success")
        + total("analytics.lifespan_moment", parent_is("experiments.run_preset")),
        "experiments.self_s": sum(duration(i) - child_time[i] for i in by_name.get("experiments.run_preset", ())),
        "experiments.points": sum(d["points"] for d in details("experiments.run_preset")),
    }
    metrics["simulator.iteration_us"] = 1e6 * estimate_s / iterations if iterations else 0.0
    metrics["simulator.transmitters_per_iteration"] = (
        statistics.fmean(m["n"] for m in membership) if membership else 0.0
    )
    metrics["simulator.useful_iteration_ratio"] = (
        sum(m["useful"] for m in membership) / len(membership) if membership else 0.0
    )
    moment_s = total("analytics.lifespan_moment_exponential")
    metrics["analytics.lifespan_moment_us"] = 1e6 * moment_s / len(moments) if moments else 0.0
    metrics["analytics.distinct_moment_ratio"] = len(set(moments)) / len(moments) if moments else 0.0
    return metrics
