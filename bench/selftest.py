"""Self-test of the benchmark's checks: each must reject a perturbed result.

    python3 bench/selftest.py

Runs every workload's operations once, serially, confirms that the checks accept the program's results, then
feeds each check a perturbed copy and confirms that it fails:
- an analytic value scaled by 1.001 (for the comparison sweep, at a
  saturated point whose Monte Carlo error is 0, since elsewhere a 0.1%
  shift is inside the combined error by design);
- the closed form's I_T scaled by 1.001 inside the package;
- a simulated value moved by 6 binomial standard errors;
- a sweep made non-monotone by swapping two neighbouring analytic values;
- a total success above the cached mass;
- the size-law expectation moved by 6 of its standard errors.
It also checks that BENCHMARK.json names the metrics run.py prints.
Exits 1 on the first check that does not behave.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import d2dcache as d2d  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        sys.exit(1)


def rejects(workload, results, marker: str, what: str) -> None:
    errors = workload.check(results)
    expect(any(marker in e for e in errors), f"{workload.name}: {what} is rejected")


def six_se_step(row) -> float:
    return 6.0 * math.sqrt(row.analytic * (1.0 - row.analytic) / row.n_iter)


def moved_by_six_se(rows):
    """Index and copy of the widest row whose simulated value can move 6
    binomial standard errors from its analytic value inside [0, 1]."""
    fits = [i for i, r in enumerate(rows) if r.analytic + six_se_step(r) <= 1.0 and six_se_step(r) > 0]
    i = max(fits, key=lambda i: six_se_step(rows[i]))
    row = rows[i]
    return i, dataclasses.replace(row, simulated=math.ceil((row.analytic + six_se_step(row)) * row.n_iter) / row.n_iter)


def swap_analytic(rows, i):
    """Rows i and i + 1 with their analytic values exchanged (distinct values only)."""
    rows = list(rows)
    a, b = rows[i], rows[i + 1]
    rows[i], rows[i + 1] = dataclasses.replace(a, analytic=b.analytic), dataclasses.replace(b, analytic=a.analytic)
    return rows


def replaced(results, index, value):
    return [value if i == index else r for i, r in enumerate(results)]


def test_validate():
    workload = workloads.ValidateSweep(SEED)
    results = [call() for _, call in workload.operations()]
    expect(workload.check(results) == [], "validate_sweep: program results pass")
    audio = results[0]
    rejects(workload, replaced(results, 0, replaced(audio, 4, dataclasses.replace(audio[4], analytic=audio[4].analytic * 1.001))), "analytic", "analytic x 1.001")
    i, moved = moved_by_six_se(audio)
    rejects(workload, replaced(results, 0, replaced(audio, i, moved)), "simulated", "simulated moved 6 SE")
    rejects(workload, replaced(results, 0, swap_analytic(audio, 4)), "decreases", "non-monotone tau sweep")


def test_comparison():
    workload = workloads.ComparisonSweep(SEED)
    results = [call() for _, call in workload.operations()]
    expect(workload.check(results) == [], "comparison_sweep: program results pass")
    rows = results[0]
    saturated = max(
        (i for i, r in enumerate(rows) if r.variant == "uniform" and r.sweep_name == "density"),
        key=lambda i: rows[i].sweep_value,
    )
    scaled = dataclasses.replace(rows[saturated], analytic=rows[saturated].analytic * 1.001)
    rejects(workload, replaced(results, 0, replaced(rows, saturated, scaled)), "analytic", "saturated analytic x 1.001")
    i, moved = moved_by_six_se(rows)
    rejects(workload, replaced(results, 0, replaced(rows, i, moved)), "simulated", "simulated moved 6 SE")
    taus = [i for i, r in enumerate(rows) if r.variant == "exponential" and r.sweep_name == "tau_mean"]
    rejects(workload, replaced(results, 0, swap_analytic(rows, taus[3])), "decreases", "non-monotone tau sweep")
    densities = [i for i, r in enumerate(rows) if r.variant == "pareto" and r.sweep_name == "density"]
    rejects(workload, replaced(results, 0, swap_analytic(rows, densities[2])), "decreases", "non-monotone density sweep")


def test_closed_form():
    workload = workloads.ClosedForm(SEED)
    results = [call() for _, call in workload.operations()]
    expect(workload.check(results) == [], "closed_form: program results pass")
    total = results[8]
    rejects(workload, replaced(results, 8, dataclasses.replace(total, value=total.value * 1.001)), "total_success", "total_success x 1.001")
    rejects(workload, replaced(results, 9, results[9] * 1.001), "coverage_radius_scale", "coverage_radius_scale x 1.001")
    swapped = replaced(replaced(results, 8, results[10]), 10, results[8])
    rejects(workload, swapped, "decreases", "non-monotone tau sweep")
    rejects(workload, replaced(results, 38, dataclasses.replace(results[38], value=0.99)), "exceeds cached mass", "success above cached mass")
    expected = results[-1]
    moved = dataclasses.replace(expected, value=expected.value + 6 * expected.standard_error)
    rejects(workload, replaced(results, len(results) - 1, moved), "expected_success", "expected_success moved 6 SE")

    original = d2d.lifespan_moment_exponential
    d2d.lifespan_moment_exponential = lambda *args: original(*args) * 1.001
    try:
        rejects(workload, results, "I_T", "lifespan moment x 1.001")
    finally:
        d2d.lifespan_moment_exponential = original


def test_manifest():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads match")


if __name__ == "__main__":
    test_manifest()
    test_validate()
    test_comparison()
    test_closed_form()
    print("all checks reject their perturbations")
