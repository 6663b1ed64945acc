"""Fixed reference job, timed beside each repetition of a workload.

The machine the benchmark runs on may change speed over minutes, and a
workload's wall time changes with it.  ``run.py`` runs this job before
every repetition and reports the workload's median wall over this job's
median wall (``wall_over_ref``): when the machine slows, both slow
together and the ratio holds.  The job does the pipeline's kind of work
(CSV writing and parsing into dicts, grouping, float conversion, a numpy
bisection) with the standard library and numpy only.  It imports nothing
from the package, so a change to the package moves only the numerator.
Do not change it between two measurements that are compared.

Run ``python3 bench/reference.py FILE`` to do the job once; it writes and
reads a scratch CSV at FILE and prints the bisection's result.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

ROWS = 40_000
EXPECTED = 129.04305736584158  # the job's result; a different one means a broken job


def job(path: Path, rows: int = ROWS) -> float:
    rng = np.random.default_rng(12345)
    keys = rng.integers(0, 4_000, rows).tolist()
    values = rng.lognormal(1.0, 1.0, rows).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["zcta", "naics", "bin", "value"])
        for i, (key, value) in enumerate(zip(keys, values)):
            writer.writerow([f"{key:05d}", f"{(i * 7919) % 1000:06d}", str(i % 9), repr(value)])
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    groups: dict[str, list[float]] = {}
    for row in parsed:
        groups.setdefault(row["zcta"], []).append(float(row["value"]) * (int(row["bin"]) + 1))
    totals = np.array([sum(v) for v in groups.values()])
    weights = np.array([len(v) for v in groups.values()], dtype=float)
    lo, hi = 0.0, float(totals.max())
    for _ in range(100):  # bisection on a cap, as the calibration does
        mid = 0.5 * (lo + hi)
        share = np.minimum(totals, mid) @ weights / (totals @ weights)
        lo, hi = (mid, hi) if share < 0.5 else (lo, mid)
    return lo


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 bench/reference.py FILE", file=sys.stderr)
        return 2
    result = job(Path(args[0]))
    print(repr(result))
    return 0 if abs(result - EXPECTED) <= 1e-9 * EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
