"""ZIP-level establishment data: employment estimates, density, exposure.

Establishment counts come in employment-size bins per (ZCTA, NAICS) cell;
employment is estimated with bin midpoints.  Cells whose size classes are
partly withheld get those establishments imputed at the national mean
plant size of the classes the cell does not report.  Population densities
are normalized so their employment-weighted national mean is one, which
is the unit the cost model expects; they travel as one plain float per
ZCTA.

The establishment file is the largest input, so its reader streams plain
``(zcta, naics, size_bin, establishments, suppressed)`` tuples with no
per-row object, and the national size distribution memoizes its mean
plant sizes, which every suppressed cell of an industry asks for again.

Group totals go through :func:`weighted_sums`, which adds with
``math.fsum``.  That sum is correctly rounded (Shewchuk 1997), so its
result does not depend on the order of the terms, and totals are
bit-stable regardless of input row order.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from math import fsum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from . import csvio
from .errors import IngestionError
from .industries import GROUPS, MixResolver

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

# Establishment-size bins and their midpoint employment estimates.  The
# open-ended 1000+ bin has no midpoint; it uses the national mean size of
# 1000+ plants in the industry, or a configured default when unavailable.
DEFAULT_BIN_MIDPOINTS = {
    "1-4": 2.5,
    "5-9": 7.0,
    "10-19": 14.5,
    "20-49": 34.5,
    "50-99": 74.5,
    "100-249": 174.5,
    "250-499": 374.5,
    "500-999": 749.5,
}
OPEN_BIN = "1000+"
DEFAULT_OPEN_BIN_MEAN = 1500.0


class CbpRow(NamedTuple):
    """One establishment-count record: a size bin or a suppressed batch.

    :func:`read_cbp_csv` returns plain tuples in this field order.
    """

    zcta: str
    naics: str
    size_bin: str
    establishments: int
    suppressed: bool = False


@dataclass
class RegionCell:
    """Estimated employment of one industry in one ZCTA."""

    zcta: str
    industry_code: str
    employment: float
    imputed_fraction: float = 0.0

    def __post_init__(self):
        if self.employment < 0:
            raise IngestionError(f"negative employment in cell {self.zcta}/{self.industry_code}")
        if not 0.0 <= self.imputed_fraction <= 1.0:
            raise IngestionError(
                f"imputed_fraction {self.imputed_fraction!r} outside [0, 1] "
                f"in cell {self.zcta}/{self.industry_code}"
            )


class NationalSizeDistribution:
    """National establishment counts and employment by size bin per NAICS.

    Lookups fall back to ancestor codes (one digit truncated at a time)
    when the exact industry is absent.  The table is fixed at construction,
    so mean sizes are memoized per (industry, excluded bins).
    """

    def __init__(self, table: Mapping[str, Mapping[str, tuple[float, float]]]):
        self._table = {code: dict(bins) for code, bins in table.items()}
        self._mean_sizes: dict[tuple[str, frozenset[str]], float | None] = {}

    @classmethod
    def from_csv(cls, path: str | Path) -> "NationalSizeDistribution":
        fieldnames, rows = csvio.read_rows(path)
        csvio.require_fields(
            fieldnames, ["naics", "size_bin", "establishments", "employment"], path=path
        )
        table: dict[str, dict[str, tuple[float, float]]] = {}
        first_row: dict[tuple[str, str], int] = {}
        for i, row in enumerate(rows, start=1):
            naics = row["naics"].strip()
            size_bin = row["size_bin"].strip()
            csvio.require_unique(
                first_row, (naics, size_bin), i, path=path, field="naics/size_bin"
            )
            where = f"{path} row {i}"
            est = csvio.parse_float(row["establishments"], path=where, field="establishments")
            emp = csvio.parse_float(row["employment"], path=where, field="employment")
            table.setdefault(naics, {})[size_bin] = (est, emp)
        return cls(table)

    def resolve(self, naics: str) -> dict[str, tuple[float, float]] | None:
        probe = naics
        while len(probe) >= 2:
            if probe in self._table:
                return self._table[probe]
            probe = probe[:-1]
        return None

    def mean_size(self, naics: str, exclude_bins: Iterable[str] = ()) -> float | None:
        """Mean plant size over the bins NOT in ``exclude_bins``.

        Falls back to the mean over all bins when the complement is empty,
        and to None when no distribution covers the industry at all.
        """
        key = (naics, frozenset(exclude_bins))
        if key not in self._mean_sizes:
            self._mean_sizes[key] = self._mean_size(naics, key[1])
        return self._mean_sizes[key]

    def _mean_size(self, naics: str, excluded: frozenset[str]) -> float | None:
        bins = self.resolve(naics)
        if bins is None:
            return None
        usable = {b: v for b, v in bins.items() if b not in excluded}
        est = fsum(v[0] for b, v in sorted(usable.items()))
        emp = fsum(v[1] for b, v in sorted(usable.items()))
        if est <= 0.0:
            est = fsum(v[0] for b, v in sorted(bins.items()))
            emp = fsum(v[1] for b, v in sorted(bins.items()))
        if est <= 0.0:
            return None
        return emp / est

    def open_bin_mean(self, naics: str, default: float = DEFAULT_OPEN_BIN_MEAN) -> float:
        bins = self.resolve(naics)
        if bins and OPEN_BIN in bins:
            est, emp = bins[OPEN_BIN]
            if est > 0:
                return emp / est
        return default


def estimate_cell_employment(
    size_bin_counts: Mapping[str, int], bin_midpoints: Mapping[str, float]
) -> float:
    """Sum of establishment counts times bin midpoints."""
    total = []
    for size_bin in sorted(size_bin_counts):
        count = size_bin_counts[size_bin]
        if count < 0:
            raise IngestionError(f"negative establishment count in bin {size_bin!r}")
        if size_bin not in bin_midpoints:
            raise IngestionError(f"unknown size bin label {size_bin!r}")
        total.append(count * bin_midpoints[size_bin])
    return fsum(total)


def impute_suppressed(
    known_bins: Mapping[str, int],
    suppressed_count: int,
    naics: str,
    national: NationalSizeDistribution,
    bin_midpoints: Mapping[str, float] | None = None,
) -> tuple[float, float]:
    """Employment estimate for a cell with possibly-withheld size classes.

    Establishments with withheld sizes are assigned the national mean plant
    size over the size classes the cell does not report.  Returns
    (employment, imputed_fraction).  Raises :class:`IngestionError` when
    imputation is needed but no national distribution covers the industry
    at any ancestor level.
    """
    if suppressed_count < 0:
        raise IngestionError("suppressed establishment count cannot be negative")
    midpoints = bin_midpoints if bin_midpoints is not None else DEFAULT_BIN_MIDPOINTS
    known = estimate_cell_employment(known_bins, midpoints)
    if suppressed_count == 0:
        return known, 0.0
    mean_size = national.mean_size(naics, exclude_bins=known_bins.keys())
    if mean_size is None:
        raise IngestionError(f"no national size distribution covers NAICS {naics!r}")
    imputed = suppressed_count * mean_size
    total = known + imputed
    return total, (imputed / total if total > 0 else 0.0)


def build_cells(
    rows: Iterable[CbpRow],
    national: NationalSizeDistribution,
    open_bin_mean: float = DEFAULT_OPEN_BIN_MEAN,
) -> tuple[list[RegionCell], list[tuple[str, str, str]]]:
    """Aggregate establishment rows into per-(zcta, naics) employment cells.

    ``rows`` are :class:`CbpRow` or plain tuples in its field order.
    Returns the cells sorted by (zcta, naics) and a list of dropped cells
    as (zcta, naics, reason).
    """
    grouped: dict[tuple[str, str], dict[str, int]] = defaultdict(dict)
    suppressed: dict[tuple[str, str], int] = {}
    for zcta, naics, size_bin, establishments, is_suppressed in rows:
        key = (zcta, naics)
        bins = grouped[key]
        if is_suppressed:
            suppressed[key] = suppressed.get(key, 0) + establishments
        else:
            bins[size_bin] = bins.get(size_bin, 0) + establishments

    cells: list[RegionCell] = []
    dropped: list[tuple[str, str, str]] = []
    # bin midpoints per industry: the open bin's value depends on the industry only
    industry_midpoints: dict[str, dict[str, float]] = {}
    for key in sorted(grouped):
        zcta, naics = key
        midpoints = industry_midpoints.get(naics)
        if midpoints is None:
            midpoints = industry_midpoints[naics] = {
                **DEFAULT_BIN_MIDPOINTS,
                OPEN_BIN: national.open_bin_mean(naics, default=open_bin_mean),
            }
        try:
            employment, imputed_fraction = impute_suppressed(
                grouped[key], suppressed.get(key, 0), naics, national, midpoints
            )
        except IngestionError as exc:
            logger.warning("cell %s/%s dropped: %s", zcta, naics, exc)
            dropped.append((zcta, naics, str(exc)))
            continue
        cells.append(RegionCell(zcta, naics, employment, imputed_fraction))
    return cells, dropped


def weighted_sums(items: Iterable[tuple]) -> dict:
    """Per-key totals of ``(key, weight, weighted value, ...)`` tuples.

    Returns ``{key: (total weight, total of each weighted value...)}`` with
    the keys in sorted order.  Every total is a ``math.fsum``, so it does
    not depend on the order of ``items``.
    """
    groups: dict = {}
    for item in items:
        groups.setdefault(item[0], []).append(item)
    return {key: tuple(map(fsum, islice(zip(*groups[key]), 1, None))) for key in sorted(groups)}


def region_employment(cells: Iterable[RegionCell]) -> dict[str, float]:
    """Total estimated employment per ZCTA."""
    sums = weighted_sums((cell.zcta, cell.employment) for cell in cells)
    return {zcta: employment for zcta, (employment,) in sums.items()}


def industry_totals(cells: Iterable[RegionCell]) -> dict[str, float]:
    """Total estimated employment per industry code (as ingested)."""
    sums = weighted_sums((cell.industry_code, cell.employment) for cell in cells)
    return {code: employment for code, (employment,) in sums.items()}


def normalize_density(
    records: Iterable[tuple[str, float, float]],
    weights: Mapping[str, float],
) -> dict[str, float]:
    """Population densities divided by their employment-weighted mean.

    ``records`` are (zcta, population, land_area_km2); ``weights`` maps
    zcta to employment.  Returns ``{zcta: normalized density}`` with the
    keys in sorted order.  Regions with nonpositive land area or density
    are dropped with a warning: they cannot enter the model.  The
    employment-weighted mean of the returned densities is 1.
    """
    raw: dict[str, float] = {}
    for zcta, population, area in records:
        if area <= 0.0:
            logger.warning("region %s has nonpositive land area; dropped", zcta)
            continue
        density = population / area
        if density <= 0.0:
            logger.warning("region %s has zero population density; dropped", zcta)
            continue
        raw[zcta] = density

    weighted = [
        (weights[zcta] * raw[zcta], weights[zcta])
        for zcta in sorted(raw)
        if weights.get(zcta, 0.0) > 0.0
    ]
    total_weight = fsum(w for _, w in weighted)
    if total_weight <= 0.0:
        raise IngestionError("no employment overlaps the density data; cannot normalize")
    mean = fsum(wd for wd, _ in weighted) / total_weight
    return {zcta: raw[zcta] / mean for zcta in sorted(raw)}


@dataclass
class RegionExposure:
    """Employment-weighted occupation-group shares for one ZCTA."""

    zcta: str
    shares: dict[str, float]
    employment: float


def regional_exposure(
    cells: Iterable[RegionCell], resolver: MixResolver
) -> tuple[dict[str, RegionExposure], list[tuple[str, str]]]:
    """Per-ZCTA exposure shares: employment-weighted industry chi values.

    Cells whose industry cannot be resolved to a mix are skipped with a
    warning and returned as (zcta, code) pairs; regions with zero
    resolvable employment are omitted.  The resolver walks each code once.
    Output is invariant to splitting a cell into same-industry parts with
    the same total employment.
    """
    items = []
    skipped: list[tuple[str, str]] = []
    for cell in cells:
        mix = resolver.resolve(cell.industry_code)
        if mix is None:
            skipped.append((cell.zcta, cell.industry_code))
            continue
        items.append(
            (cell.zcta, cell.employment, *(cell.employment * mix.chi[g] for g in GROUPS))
        )

    if skipped:
        codes = sorted({code for _, code in skipped})
        logger.warning(
            "%d cells skipped: no industry mix for codes %s",
            len(skipped), ", ".join(codes),
        )

    exposures: dict[str, RegionExposure] = {}
    for zcta, (employment, *weighted) in weighted_sums(items).items():
        if employment <= 0.0:
            continue
        shares = {group: total / employment for group, total in zip(GROUPS, weighted)}
        exposures[zcta] = RegionExposure(zcta=zcta, shares=shares, employment=employment)
    return exposures, skipped


# ---------------------------------------------------------------------------
# Locally weighted smoothing (for the density profiles of exposure shares)
# ---------------------------------------------------------------------------


def lowess_curve(
    x: Sequence[float],
    y: Sequence[float],
    weights: Sequence[float] | None = None,
    bandwidth: float = 0.5,
    grid_points: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Tricube-weighted local linear fit on an even grid spanning the data.

    At each grid point g, the window radius h is the distance to the
    ceil(bandwidth * n)-th nearest observation (at least 2).  Observations
    inside the window get tricube kernel weight (1 - (dist/h)**3)**3 times
    their point weight, and a weighted straight line is fitted; its value
    at g is the curve.  Degenerate windows fall back deterministically:
    zero radius or zero x-variance (below 1e-12 * h**2) means a weighted
    local mean, and if no observation falls strictly inside the radius the
    nearest observations are averaged by point weight.

    Requires at least 10 points and bandwidth in (0, 1].
    """
    import numpy as np  # only the smoothing needs numpy; keep it off the import path

    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    n = xs.size
    if n < 10:
        raise ValueError(f"lowess needs at least 10 points, got {n}")
    if not 0.0 < bandwidth <= 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1], got {bandwidth!r}")
    if ys.size != n:
        raise ValueError("x and y must have the same length")
    if weights is None:
        ws = np.ones(n)
    else:
        ws = np.asarray(weights, dtype=float)
        if ws.size != n:
            raise ValueError("weights must have the same length as x")
        if np.any(ws < 0):
            raise ValueError("weights must be nonnegative")
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        raise ValueError("x values span zero range; nothing to smooth over")

    r = min(n, max(2, int(math.ceil(bandwidth * n))))
    grid = np.linspace(lo, hi, grid_points)
    fitted = np.empty(grid_points)
    for j, g in enumerate(grid):
        dist = np.abs(xs - g)
        h = np.partition(dist, r - 1)[r - 1]
        if h <= 0.0:
            at = dist == 0.0
            fitted[j] = _weighted_mean(ys[at], ws[at])
            continue
        u = dist / h
        kernel = np.where(u < 1.0, (1.0 - np.minimum(u, 1.0) ** 3) ** 3, 0.0)
        omega = ws * kernel
        total = omega.sum()
        if total <= 0.0:
            nearest = dist == dist.min()
            fitted[j] = _weighted_mean(ys[nearest], ws[nearest])
            continue
        dx = xs - g
        sx = float(np.dot(omega, dx))
        sxx = float(np.dot(omega, dx * dx))
        sy = float(np.dot(omega, ys))
        sxy = float(np.dot(omega, dx * ys))
        var = sxx - sx * sx / total
        if var <= 1e-12 * h * h:
            fitted[j] = sy / total
            continue
        slope = (sxy - sx * sy / total) / var
        intercept = (sy - slope * sx) / total
        fitted[j] = intercept  # dx is centered on g, so the intercept is the value there
    return grid, fitted


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    import numpy as np

    total = weights.sum()
    if total <= 0.0:
        return float(values.mean())
    return float(np.dot(weights, values) / total)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def read_cbp_csv(path: str | Path) -> list[tuple[str, str, str, int, bool]]:
    """Read ``zcta,naics,size_bin,establishments`` with optional ``suppressed`` flag.

    Returns plain tuples in :class:`CbpRow` field order.  The flag is an
    integer (nonzero means suppressed) or empty.
    """
    columns = ("zcta", "naics", "size_bin", "establishments")
    header, records = csvio.read_records(path, columns)
    zcta_col, naics_col, bin_col, count_col = map(header.index, columns)
    flag_col = header.index("suppressed") if "suppressed" in header else None
    out = []
    for i, fields in records:
        raw_flag = fields[flag_col].strip() if flag_col is not None else ""
        try:
            flag = int(raw_flag) != 0 if raw_flag else False
            establishments = int(fields[count_col])
        except ValueError:
            # parse again through csvio for its error text, naming the file and row
            where = f"{path} row {i}"
            if raw_flag:
                csvio.parse_int(raw_flag, path=where, field="suppressed")
            csvio.parse_int(fields[count_col], path=where, field="establishments")
            raise
        out.append((
            fields[zcta_col].strip(),
            fields[naics_col].strip(),
            fields[bin_col].strip(),
            establishments,
            flag,
        ))
    return out


def read_density_csv(path: str | Path) -> list[tuple[str, float, float]]:
    """Read ``zcta,population,land_area_km2`` records; a ZCTA may appear once."""
    fieldnames, rows = csvio.read_rows(path)
    csvio.require_fields(fieldnames, ["zcta", "population", "land_area_km2"], path=path)
    records = []
    first_row: dict[str, int] = {}
    for i, row in enumerate(rows, start=1):
        where = f"{path} row {i}"
        zcta = row["zcta"].strip()
        csvio.require_unique(first_row, zcta, i, path=path, field="zcta")
        records.append((
            zcta,
            csvio.parse_float(row["population"], path=where, field="population"),
            csvio.parse_float(row["land_area_km2"], path=where, field="land_area_km2"),
        ))
    return records


def write_location_index_csv(
    path: str | Path,
    exposures: Mapping[str, RegionExposure],
    densities: Mapping[str, float],
    comment: str | None = None,
) -> None:
    """Write the per-location exposure table (one row per ZCTA with density).

    ``densities`` maps zcta to normalized density, as
    :func:`normalize_density` returns it.
    """
    rows = []
    for zcta in sorted(exposures):
        if zcta not in densities:
            logger.warning("region %s has no density record; omitted from location index", zcta)
            continue
        exposure = exposures[zcta]
        rows.append(
            [
                zcta,
                densities[zcta],
                exposure.shares["teamwork"],
                exposure.shares["customer"],
                exposure.shares["communication"],
                exposure.shares["presence"],
                exposure.employment,
            ]
        )
    csvio.write_rows(
        path,
        [
            "zcta",
            "density",
            "share_teamwork",
            "share_customer",
            "share_communication",
            "share_presence",
            "employment",
        ],
        rows,
        comment=comment,
    )
