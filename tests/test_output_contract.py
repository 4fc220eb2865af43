"""The output contract: the rows of every preset at seeds 0 and 1 and 200
iterations, as committed in preset_rows.csv.

Every column but analytic must match exactly, and analytic to 1e-12
relative. simulated depends on the last ulp of numpy's exp and log, so a
mismatch there reports z, its move in combined standard errors: a few
units say the stream changed, thousands say a defect. After a deliberate
change of the stream, rewrite the file with

    PYTHONPATH=src python tests/test_output_contract.py
"""

import csv
import math
import pathlib

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
                se = math.hypot(float(committed["stderr"]), fresh["stderr"])
                line += f" (z = {(new - old) / se if se > 0 else math.copysign(math.inf, new - old):+.2f})"
            yield line


def test_presets_reproduce_the_committed_rows():
    with open(ROWS, newline="", encoding="utf-8") as fh:
        committed = list(csv.DictReader(fh))
    fresh = list(_run_all())
    assert len(fresh) == len(committed), f"{len(fresh)} rows, {len(committed)} committed"
    problems = []
    for old, (preset, seed, index, new) in zip(committed, fresh):
        assert (old["preset"], int(old["seed"])) == (preset, seed), "rows out of the committed order"
        problems += _mismatches(preset, seed, index, old, new)
    assert not problems, f"{len(problems)} values break the output contract:\n" + "\n".join(problems[:20])


if __name__ == "__main__":
    with open(ROWS, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, ("preset",) + CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows({"preset": name, **record} for name, _, _, record in _run_all())
