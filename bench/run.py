"""Run one workload of the d2dcache benchmark and print its result.

    python3 bench/run.py --workload validate_sweep --seed 1 --seconds 20 --trace 0

Builds the workload from the seed, runs as many whole rounds of its
operations as fit in --seconds (at least one), checks the first round against the
benchmark's own evaluations and every later round for bit-identical
results, then measures set-up time in fresh interpreters. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics; --trace 1 gives the
per-layer metrics of traced rounds (see tracing.py). A fuller record of
the run, with the versions and core count, goes to bench/results/.

It imports d2dcache from the src/ directory next to bench/ and exits
with an error, printing no result, if that directory is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
PROBE_PAIRS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulator.estimate_s": "s",
    "simulator.self_s": "s",
    "simulator.iteration_us": "us",
    "simulator.transmitters_per_iteration": "count",
    "simulator.useful_iteration_ratio": "ratio",
    "simulator.pool_start_ms": "ms",
    "placement.membership_s": "s",
    "channel.sample_fading_s": "s",
    "mobility.sample_lifespan_s": "s",
    "content.size_draw_s": "s",
    "analytics.lifespan_moment_calls": "count",
    "analytics.lifespan_moment_us": "us",
    "analytics.distinct_moment_ratio": "ratio",
    "analytics.total_success_s": "s",
    "analytics.coverage_radius_scale_s": "s",
    "analytics.expected_success_s": "s",
    "experiments.self_s": "s",
    "experiments.points": "count",
    "trace.overhead_s": "s",
}


def _import_package():
    """Put the checkout's src/ first on the path and import d2dcache from it."""
    if not (SRC / "d2dcache" / "__init__.py").is_file():
        sys.exit(f"error: no d2dcache package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import d2dcache

    if Path(d2dcache.__file__).resolve().parent != SRC / "d2dcache":
        sys.exit(f"error: imported d2dcache from {d2dcache.__file__}, not from {SRC}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def run_round(ops):
    """Run every operation once, in order; failures are counted, not raised."""
    results, failed = [], 0
    cpu0, wall0 = _cpu_seconds(), perf_counter()
    for label, call in ops:
        try:
            results.append(call())
        except Exception:
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            results.append(None)
            failed += 1
    wall, cpu = perf_counter() - wall0, _cpu_seconds() - cpu0
    return {"wall": wall, "cpu": cpu, "results": results, "failed": failed}


def verify(workload, rounds) -> list[str]:
    """Check the first round; every later round must repeat it exactly."""
    first = rounds[0]["results"]
    errors = workload.check(first)
    reference = [None if r is None else workload.fingerprint(r) for r in first]
    for n, rnd in enumerate(rounds[1:], start=2):
        for i, result in enumerate(rnd["results"]):
            if result is not None and reference[i] is not None and workload.fingerprint(result) != reference[i]:
                errors.append(f"round {n}: operation {i} differs from round 1")
    return errors


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import d2dcache and build the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload_name, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - start)
    return samples


def pool_start_ms(config) -> float:
    """Median extra time of a 2-iteration estimate at parallelism 2 over the serial one."""
    import d2dcache as d2d

    serial = dataclasses.replace(config, parallelism=1)
    extra = []
    for _ in range(PROBE_PAIRS):
        start = perf_counter()
        d2d.estimate_total_success(config)
        middle = perf_counter()
        d2d.estimate_total_success(serial)
        extra.append((middle - start) - (perf_counter() - middle))
    return 1e3 * statistics.median(extra)


def _room_for_another(start: float, seconds: float, done: int) -> bool:
    """Whether one more round, of the mean length so far, ends within seconds."""
    elapsed = perf_counter() - start
    return done == 0 or elapsed + elapsed / done <= seconds


def timed_run(workload, seconds: float):
    ops = workload.operations()
    rounds, start = [], perf_counter()
    while _room_for_another(start, seconds, len(rounds)):
        rounds.append(run_round(ops))
    own, workers = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics = {
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        # this process plus the largest child it reaped (a pool worker,
        # should a workload start one), read before the set-up interpreters
        "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024.0,
    }
    return rounds, metrics, {}


def traced_run(workload, seconds: float):
    """Alternate untraced and traced rounds."""
    import tracing

    ops = workload.operations()
    tracer = tracing.Tracer()
    plain, traced, per_round, start = [], [], [], perf_counter()
    while _room_for_another(start, seconds, len(traced)):
        plain.append(run_round(ops))
        first = len(tracer.spans)
        with tracer:
            traced.append(run_round(ops))
        per_round.append(tracing.layer_metrics(tracer.spans[first:], first))
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in plain
    )
    # only the comparison sweep, whose points could run on a pool, has a probe
    probe = getattr(workload, "pool_probe", None)
    metrics["simulator.pool_start_ms"] = pool_start_ms(probe()) if probe else 0.0
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, detail in tracer.spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "detail": detail}) + "\n")
    return plain + traced, metrics, {"absent": sorted(set(tracer.absent)), "trace_file": str(path.relative_to(ROOT))}


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    rounds, metrics, extra = (traced_run if args.trace else timed_run)(workload, args.seconds)
    errors = verify(workload, rounds)
    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
        metrics["setup_s"] = statistics.median(setup)
        extra["setup_samples"] = setup
    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(len(r["results"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "errors": errors,
        "rounds": [{"wall_s": r["wall"], "cpu_s": r["cpu"], "failed": r["failed"]} for r in rounds],
        **extra,
        **environment(),
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
