"""The output contract: the rows of every preset at seeds 0 and 1 and 200
iterations, as committed in preset_rows.csv.

Every column but analytic must match exactly, and analytic to 1e-12
relative. simulated depends on the last ulp of numpy's exp and log, so a
mismatch there reports z, its move in combined standard errors: a few
units say the stream changed, thousands say a defect. agreement sums
these up per preset. After a deliberate change of the stream, rewrite the
file with

    PYTHONPATH=src python tests/test_output_contract.py

which first prints the new rows' agreement with the committed ones.
"""

import csv
import math
import pathlib

import pytest

from d2dcache import PRESET_NAMES, build_preset, run_preset
from d2dcache.experiments import CSV_COLUMNS, _record

ROWS = pathlib.Path(__file__).with_name("preset_rows.csv")
SEEDS = (0, 1)
ITERATIONS = 200


def _run_all():
    """(preset, seed, row index, record) for every row, in the committed order."""
    for name in PRESET_NAMES:
        for seed in SEEDS:
            for index, row in enumerate(run_preset(build_preset(name, seed=seed, iterations=ITERATIONS))):
                yield name, seed, index, _record(row)


def _committed():
    with open(ROWS, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _z(old, new):
    """The move of simulated from row old to row new in combined standard errors."""
    delta = float(new["simulated"]) - float(old["simulated"])
    se = math.hypot(float(old["stderr"]), float(new["stderr"]))
    return delta / se if se > 0 else math.copysign(math.inf, delta) if delta else 0.0


def agreement(old, new) -> dict:
    """Per preset, (largest |z|, mean z^2) of simulated between two row sets
    of the same rows in the same order, each row a mapping with preset,
    simulated and stderr. Two independent streams of one model give about
    3 and 1 over a few hundred rows."""
    zs = {}
    for before, after in zip(old, new, strict=True):
        if before["preset"] != after["preset"]:
            raise ValueError(f"row of {before['preset']!r} paired with a row of {after['preset']!r}")
        zs.setdefault(before["preset"], []).append(_z(before, after))
    return {preset: (max(map(abs, z)), sum(v * v for v in z) / len(z)) for preset, z in zs.items()}


def _summary(stats) -> str:
    return "\n".join(f"{preset}: largest |z| {top:.2f}, mean z^2 {mean:.2f}" for preset, (top, mean) in stats.items())


def _mismatches(preset, seed, index, committed, fresh):
    """One line per column of the row that breaks the contract."""
    where = f"{preset} seed {seed} row {index}"
    for column in CSV_COLUMNS:
        old, new = type(fresh[column])(committed[column]), fresh[column]
        if column == "analytic":
            if not math.isclose(new, old, rel_tol=1e-12, abs_tol=0.0):
                yield f"{where} analytic: committed {old!r}, now {new!r}"
        elif new != old:
            line = f"{where} {column}: committed {old!r}, now {new!r}"
            if column == "simulated":
                line += f" (z = {_z(committed, fresh):+.2f})"
            yield line


def test_presets_reproduce_the_committed_rows():
    committed = _committed()
    fresh = list(_run_all())
    assert len(fresh) == len(committed), f"{len(fresh)} rows, {len(committed)} committed"
    problems = []
    for old, (preset, seed, index, new) in zip(committed, fresh):
        assert (old["preset"], int(old["seed"])) == (preset, seed), "rows out of the committed order"
        problems += _mismatches(preset, seed, index, old, new)
    assert not problems, (
        f"{len(problems)} values break the output contract:\n"
        + "\n".join(problems[:20])
        + "\nagreement of simulated with the committed rows:\n"
        + _summary(agreement(committed, [{"preset": name, **new} for name, _, _, new in fresh]))
    )


def test_agreement_reads_shifts_in_standard_errors():
    # combined SE hypot(0.03, 0.04) = 0.05: rows shifted by +3 and -1 of it,
    # an unmoved row, and a move where both rows have standard error 0
    old = [
        {"preset": "a", "simulated": "0.5", "stderr": "0.03"},
        {"preset": "a", "simulated": "0.2", "stderr": "0.03"},
        {"preset": "b", "simulated": "0.4", "stderr": "0.03"},
        {"preset": "c", "simulated": "0.0", "stderr": "0.0"},
    ]
    new = [
        {"preset": "a", "simulated": 0.5 + 3 * 0.05, "stderr": 0.04},
        {"preset": "a", "simulated": 0.2 - 0.05, "stderr": 0.04},
        {"preset": "b", "simulated": 0.4, "stderr": 0.04},
        {"preset": "c", "simulated": 0.01, "stderr": 0.0},
    ]
    stats = agreement(old, new)
    assert stats["a"] == pytest.approx((3.0, 5.0), rel=1e-12)
    assert stats["b"] == (0.0, 0.0)
    assert stats["c"] == (math.inf, math.inf)
    with pytest.raises(ValueError):
        agreement(old, new[:3])


if __name__ == "__main__":
    fresh = [{"preset": name, **record} for name, _, _, record in _run_all()]
    committed = _committed()
    if len(committed) == len(fresh):
        print(_summary(agreement(committed, fresh)))
    else:
        print(f"{len(fresh)} rows against {len(committed)} committed: no agreement to report")
    with open(ROWS, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, ("preset",) + CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(fresh)
