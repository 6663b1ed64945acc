"""Seeded synthetic inputs for the benchmark.

Writes every input the pipeline reads: occupations, the industry-occupation
matrix, ZIP-level establishment counts (CBP) with suppressed batches,
national size distributions, density, exclusions, region groups and
industry names.  The same seed and shape give the same bytes.

Shape choices that make each pipeline path run:

* Matrix sectors use the range codes ``31-33``/``44-45``/``48-49`` plus
  two three-digit industries (``622``, excluded by default, and ``722``),
  so range aliases and ancestor fallbacks both resolve establishment codes.
* Establishment codes are six-digit; sector ``99`` has no matrix row, so
  some codes stay unresolved, and it has no national size rows, so its
  suppressed cells are dropped.
* National sizes are given at two-digit level only, so every imputation
  walks up the NAICS hierarchy.
* A small share of ZCTAs has no density record.
* Denser ZCTAs lean toward communication-heavy sectors, so the density
  regression moment is positive and the elasticity solve succeeds.

Run ``python3 bench/gen.py --workload subsidy-national --seed 1 --out DIR
--verify`` to write one workload's inputs and check that a second
generation gives identical sha256 digests.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIZE_BINS = ("1-4", "5-9", "10-19", "20-49", "50-99", "100-249", "250-499", "500-999", "1000+")
BIN_MIDPOINTS = (2.5, 7.0, 14.5, 34.5, 74.5, 174.5, 374.5, 749.5, 1800.0)
# Smaller plants are far more common; the open 1000+ bin is rare.
BIN_WEIGHTS = np.array([40.0, 22.0, 14.0, 10.0, 6.0, 4.0, 2.0, 1.2, 0.8])

# Matrix industries: (code, establishment prefixes, name).
INDUSTRIES = (
    ("11", ("11",), "Agriculture"),
    ("21", ("21",), "Mining"),
    ("22", ("22",), "Utilities"),
    ("23", ("23",), "Construction"),
    ("31-33", ("31", "32", "33"), "Manufacturing"),
    ("42", ("42",), "Wholesale trade"),
    ("44-45", ("44", "45"), "Retail trade"),
    ("48-49", ("48", "49"), "Transportation"),
    ("51", ("51",), "Information"),
    ("52", ("52",), "Finance"),
    ("53", ("53",), "Real estate"),
    ("54", ("54",), "Professional services"),
    ("55", ("55",), "Management of companies"),
    ("56", ("56",), "Administrative services"),
    ("61", ("61",), "Education"),
    ("62", ("62",), "Health care"),
    ("622", (), "Hospitals"),
    ("71", ("71",), "Arts and recreation"),
    ("72", ("72",), "Accommodation and food"),
    ("722", (), "Restaurants"),
    ("81", ("81",), "Other services"),
)
UNRESOLVED_PREFIX = "99"
N_OCCUPATIONS = 400
OCCUPATIONS_PER_INDUSTRY = 60
REGION_NAMES = ("Metro-A", "Metro-B", "Metro-C")


@dataclass(frozen=True)
class Shape:
    """Input shape of one workload; ``cells`` per ZCTA is approximate."""

    zctas: int
    cells: int
    bins_min: int
    bins_max: int
    suppressed_frac: float
    codes: int


def task_groups() -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Teamwork, customer and presence task names, from the package itself."""
    from distancing import occupations  # noqa: PLC0415  (src/ is on the path only at run time)

    return occupations.TEAMWORK_TASKS, occupations.CUSTOMER_TASKS, occupations.PRESENCE_TASKS


def _occupations(rng: np.random.Generator):
    """Occupation rows and which of them are built to be communication-flagged.

    Communication occupations get customer (or teamwork) task scores in
    [65, 100] and a frequent face-to-face level; the rest score below the
    62.5 cutoff on every teamwork and customer task.
    """
    teamwork, customer, presence_tasks = task_groups()
    tasks = list(dict.fromkeys(teamwork + customer + presence_tasks))  # first-seen order
    socs = rng.choice(np.arange(110000, 540000), size=N_OCCUPATIONS, replace=False)
    socs.sort()
    kind = rng.choice(3, size=N_OCCUPATIONS, p=[0.25, 0.2, 0.55])  # customer, teamwork, neither
    presence = rng.random(N_OCCUPATIONS) < 0.4
    scores = rng.uniform(0.0, 60.0, size=(N_OCCUPATIONS, len(tasks)))
    for j, task in enumerate(tasks):
        high_customer = (kind == 0) & (task in customer)
        high_team = (kind == 1) & (task in teamwork)
        high_presence = presence & (task in presence_tasks)
        high = high_customer | high_team | high_presence
        scores[high, j] = rng.uniform(65.0, 100.0, size=int(high.sum()))
    face = np.where(kind == 2, rng.integers(1, 6, N_OCCUPATIONS), rng.integers(4, 6, N_OCCUPATIONS))
    face = np.where(kind == 1, 5, face)
    email = np.where(kind == 1, rng.integers(1, 5, N_OCCUPATIONS),
                     rng.integers(1, 6, N_OCCUPATIONS))
    letters = rng.integers(1, 5, N_OCCUPATIONS)
    proximity = np.where(presence, rng.integers(3, 6, N_OCCUPATIONS),
                         rng.integers(1, 6, N_OCCUPATIONS))
    header = ["soc_code", "title", *tasks, "ctx_face_to_face", "ctx_email", "ctx_letters",
              "ctx_proximity"]
    lines = [_csv_line(header)]
    soc_codes = [f"{s // 10000:02d}-{s % 10000:04d}" for s in socs.tolist()]
    for i, soc in enumerate(soc_codes):
        cells = [soc, f"Occupation {i}"] + [f"{v:.2f}" for v in scores[i].tolist()]
        cells += [str(face[i]), str(email[i]), str(letters[i]), str(proximity[i])]
        lines.append(_csv_line(cells))
    return "".join(lines), soc_codes, kind != 2


def _matrix(rng: np.random.Generator, soc_codes, is_comm):
    """Industry-occupation employment and each industry's communication target."""
    comm_idx = np.flatnonzero(is_comm)
    other_idx = np.flatnonzero(~is_comm)
    targets = rng.uniform(0.05, 0.45, size=len(INDUSTRIES))
    lines = [_csv_line(["industry_code", "soc_code", "employment"])]
    for (code, _, _), target in zip(INDUSTRIES, targets.tolist()):
        n_comm = max(1, round(target * OCCUPATIONS_PER_INDUSTRY))
        picks = np.concatenate([
            rng.choice(comm_idx, size=n_comm, replace=False),
            rng.choice(other_idx, size=OCCUPATIONS_PER_INDUSTRY - n_comm, replace=False),
        ])
        employment = rng.lognormal(8.0, 1.0, size=picks.size)
        for occ, emp in sorted(zip(picks.tolist(), employment.tolist())):
            lines.append(_csv_line([code, soc_codes[occ], f"{emp:.1f}"]))
    return "".join(lines), targets


def _establishment_codes(rng: np.random.Generator, n_codes: int):
    """Distinct six-digit codes spread over every establishment prefix.

    Returns (codes, sector index per code); the unresolved sector gets the
    index ``len(INDUSTRIES)``.
    """
    prefixes = [(p, i) for i, (_, ps, _) in enumerate(INDUSTRIES) for p in ps]
    prefixes.append((UNRESOLVED_PREFIX, len(INDUSTRIES)))
    per_prefix = max(2, n_codes // len(prefixes))
    codes, sectors = [], []
    for prefix, sector in prefixes:
        suffixes = rng.choice(10000, size=per_prefix, replace=False)
        suffixes.sort()
        for s in suffixes.tolist():
            codes.append(f"{prefix}{s:04d}")
            sectors.append(sector)
    return codes, np.array(sectors)


def _cbp(rng, shape: Shape, codes, code_sector, sector_targets, log_density, zcta_codes):
    """Establishment rows, sorted by (zcta, naics) like the published files."""
    n_sectors = len(INDUSTRIES) + 1
    targets = np.append(sector_targets, sector_targets.mean())
    tilt = 1.2 * np.outer(log_density, targets - targets.mean())  # denser -> more communication
    sector_p = np.exp(tilt)
    sector_p[:, -1] *= 0.02  # the unresolved sector is rare
    sector_p[:, [i for i, (_, ps, _) in enumerate(INDUSTRIES) if not ps]] = 0.0
    sector_p /= sector_p.sum(axis=1, keepdims=True)

    by_sector = [np.flatnonzero(code_sector == s) for s in range(n_sectors)]
    draws = shape.cells
    cum = sector_p.cumsum(axis=1)
    u = rng.random((shape.zctas, draws))
    sector = (u[:, :, None] > cum[:, None, :]).sum(axis=2)
    sector = np.minimum(sector, n_sectors - 1)
    pick = rng.random((shape.zctas, draws))
    code_index = np.empty_like(sector)
    for s in range(n_sectors):
        mask = sector == s
        code_index[mask] = by_sector[s][(pick[mask] * by_sector[s].size).astype(int)]
    cell_key = np.unique(np.arange(shape.zctas)[:, None] * len(codes) + code_index)
    cell_zcta = cell_key // len(codes)
    cell_code = cell_key % len(codes)
    n_cells = cell_key.size

    # Distinct size bins per cell, weighted toward small plants
    # (exponential keys give weighted sampling without replacement).
    n_bins = rng.integers(shape.bins_min, shape.bins_max + 1, size=n_cells)
    keys = rng.exponential(size=(n_cells, len(SIZE_BINS))) / BIN_WEIGHTS
    rank = np.argsort(np.argsort(keys, axis=1), axis=1)
    chosen = rank < n_bins[:, None]
    fewer_large = np.arange(len(SIZE_BINS)) // 2
    counts = np.maximum(1, rng.geometric(0.25, size=(n_cells, len(SIZE_BINS))) - fewer_large)
    suppressed = rng.random(n_cells) < shape.suppressed_frac
    suppressed_count = rng.integers(1, 4, size=n_cells)

    lines = [_csv_line(["zcta", "naics", "size_bin", "establishments", "suppressed"])]
    chosen_l, counts_l = chosen.tolist(), counts.tolist()
    for c in range(n_cells):
        head = f"{zcta_codes[cell_zcta[c]]},{codes[cell_code[c]]},"
        row_bins, row_counts = chosen_l[c], counts_l[c]
        for b in range(len(SIZE_BINS)):
            if row_bins[b]:
                lines.append(f"{head}{SIZE_BINS[b]},{row_counts[b]},0\n")
        if suppressed[c]:
            lines.append(f"{head},{suppressed_count[c]},1\n")
    return "".join(lines), len(lines) - 1, n_cells


def _national_sizes(rng: np.random.Generator) -> str:
    prefixes = sorted({p for _, ps, _ in INDUSTRIES for p in ps})
    lines = [_csv_line(["naics", "size_bin", "establishments", "employment"])]
    for prefix in prefixes:
        est = np.round(rng.uniform(0.5, 1.5, len(SIZE_BINS)) * 1e5 / BIN_MIDPOINTS)
        est = np.maximum(est, 1.0)
        emp = est * np.array(BIN_MIDPOINTS) * rng.uniform(0.85, 1.15, len(SIZE_BINS))
        for b, size_bin in enumerate(SIZE_BINS):
            lines.append(_csv_line([prefix, size_bin, f"{est[b]:.0f}", f"{emp[b]:.1f}"]))
    return "".join(lines)


def generate(out: Path, seed: int, shape: Shape) -> dict[str, object]:
    """Write all inputs under ``out``; returns sizes and input paths."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    occ_text, soc_codes, is_comm = _occupations(rng)
    matrix_text, targets = _matrix(rng, soc_codes, is_comm)
    codes, code_sector = _establishment_codes(rng, shape.codes)

    zcta_ints = rng.choice(np.arange(501, 99951), size=shape.zctas, replace=False)
    zcta_ints.sort()
    zcta_codes = [f"{z:05d}" for z in zcta_ints.tolist()]
    log_density = rng.normal(0.0, 1.2, size=shape.zctas)
    cbp_text, n_rows, n_cells = _cbp(
        rng, shape, codes, code_sector, targets, log_density, zcta_codes
    )

    area = rng.lognormal(3.0, 1.0, size=shape.zctas)
    population = np.maximum(1.0, np.round(np.exp(log_density + 5.0) * area))
    has_density = rng.random(shape.zctas) >= 0.005
    density_lines = [_csv_line(["zcta", "population", "land_area_km2"])]
    for z in np.flatnonzero(has_density).tolist():
        density_lines.append(f"{zcta_codes[z]},{population[z]:.0f},{area[z]:.4f}\n")

    densest = np.argsort(-log_density, kind="stable")
    per_region = max(3, shape.zctas // 50)
    group_lines = [_csv_line(["zcta", "region"])]
    members = []
    for r, name in enumerate(REGION_NAMES):
        for z in densest[r * per_region:(r + 1) * per_region].tolist():
            members.append((zcta_codes[z], name))
    group_lines += [_csv_line(m) for m in sorted(members)]

    files = {
        "occupations": ("occupations.csv", occ_text),
        "matrix": ("matrix.csv", matrix_text),
        "cbp": ("cbp.csv", cbp_text),
        "national_sizes": ("national_sizes.csv", _national_sizes(rng)),
        "density": ("density.csv", "".join(density_lines)),
        "exclusions": ("exclusions.txt", "622\n"),
        "region_groups": ("region_groups.csv", "".join(group_lines)),
        "industry_names": (
            "industry_names.csv",
            _csv_line(["industry_code", "name"])
            + "".join(_csv_line([code, name]) for code, _, name in INDUSTRIES),
        ),
    }
    paths = {}
    for key, (name, text) in files.items():
        (out / name).write_text(text, encoding="utf-8")
        paths[key] = name
    return {"paths": paths, "rows": n_rows, "cells": n_cells, "zctas": shape.zctas}


def digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


def _csv_line(cells) -> str:
    return ",".join(f'"{c}"' if "," in str(c) else str(c) for c in cells) + "\n"


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from run import WORKLOADS  # noqa: PLC0415  (bench/ is on sys.path when run as a script)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--verify", action="store_true",
                        help="generate twice and compare sha256 digests")
    args = parser.parse_args(argv)
    info = generate(args.out, args.seed, WORKLOADS[args.workload].shape)
    print(f"rows={info['rows']} cells={info['cells']} zctas={info['zctas']}")
    if args.verify:
        first = digests(args.out)
        generate(args.out, args.seed, WORKLOADS[args.workload].shape)
        if digests(args.out) != first:
            print("generator is not deterministic", file=sys.stderr)
            return 1
        for name, digest in first.items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
