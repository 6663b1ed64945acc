"""ZIP-level establishment data: employment estimates, density, exposure.

Establishment counts come in employment-size bins per (ZCTA, NAICS) cell;
employment is estimated with bin midpoints.  Cells whose size classes are
partly withheld get those establishments imputed at the national mean
plant size of the classes the cell does not report.  Population densities
are normalized so their employment-weighted national mean is one, the
unit the cost model expects; they travel as one plain float per ZCTA.

The establishment file is the largest input, so nothing here keeps an
object per record or per cell.  The reader interns ZCTA, NAICS and size
bin labels into :class:`Coded` integer columns as it streams: a plain
file through :func:`csvio.read_columns`, which hands each distinct field
of a chunk to this module's tables once, any other file through the
block reader, a field at a time per block of rows; here lives only what
a CBP value means.  :func:`build_cells` prices whole columns with numpy,
imported at load: :mod:`~distancing.industries` imports nothing from
here, so ``index`` without establishment inputs loads neither this
module nor numpy.  It reads each cell's sums and reported-bins bitmask
off the rows, and imputes once per covering code and bitmask.

Every employment-weighted total is an exact sum (:mod:`~distancing.exact`),
alone or per group (:func:`group_totals`), so none depends on row order.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cache
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import csvio
from .errors import IngestionError
from .exact import _group_sums, _row_sums, exact_sum
from .industries import GROUPS, CodeTable, IndustryMix, exclusion_prefixes

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


@dataclass(frozen=True, eq=False)
class Coded:
    """A string column as integer codes into its sorted distinct labels.

    Sorting by code sorts by label; a selection keeps every label.
    """

    labels: list[str]
    codes: np.ndarray

    @classmethod
    def of(cls, values: Iterable[str]) -> Coded:
        index: dict[str, int] = {}
        codes = [index.setdefault(value, len(index)) for value in values]
        return cls.from_codes(list(index), codes)

    @classmethod
    def from_codes(cls, labels: list[str], codes) -> Coded:
        """Recode ``codes``, given into ``labels`` in any order, into sorted labels."""
        order = sorted(range(len(labels)), key=labels.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        return cls([labels[i] for i in order], rank[np.asarray(codes, dtype=np.int64)])

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index) -> Coded:
        return Coded(self.labels, self.codes[index])

    def tolist(self) -> list[str]:
        return list(map(self.labels.__getitem__, self.codes.tolist()))

    def present(self) -> list[int]:
        """The codes that occur, ascending."""
        # bincount, not np.unique: a plain np.unique imports all of numpy.ma
        return np.flatnonzero(np.bincount(self.codes)).tolist()


class Columns:
    """``len()`` and iteration for a dataclass of equal-length columns:
    arrays, :class:`Coded` or None.  Iteration yields one named
    tuple per row, its fields the dataclass fields in order; a None column
    gives None in every row."""

    def _columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self._columns()[0])

    def __iter__(self) -> Iterator:
        columns = [repeat(None) if c is None else c.tolist() for c in self._columns()]
        return map(_row_type(type(self))._make, zip(*columns))


@cache
def _row_type(frame: type) -> type:
    """The named tuple that iterating a :class:`Columns` class yields."""
    return namedtuple(f"{frame.__name__}Row", [f.name for f in fields(frame)])


@dataclass(frozen=True, eq=False)
class CbpColumns(Columns):
    """Establishment-count records (a size bin or a suppressed batch each), in file order."""

    zcta: Coded
    naics: Coded
    size_bin: Coded
    establishments: np.ndarray  # int64
    suppressed: np.ndarray  # bool


@dataclass(frozen=True, eq=False)
class Cells(Columns):
    """Estimated employment per (ZCTA, NAICS code as ingested) cell."""

    zcta: Coded
    industry_code: Coded
    employment: np.ndarray
    imputed_fraction: np.ndarray


class NationalSizeDistribution:
    """National establishment counts and employment by size bin per NAICS.

    A code gets the distribution of the code that :attr:`codes`, an
    :class:`~distancing.industries.CodeTable`, finds for it: itself, its
    nearest ancestor, or a range sector such as ``44-45`` that holds it.
    """

    def __init__(self, table: Mapping[str, Mapping[str, tuple[float, float]]]):
        self.codes = CodeTable({code: dict(bins) for code, bins in table.items()})

    @classmethod
    def from_csv(cls, path: str | Path) -> "NationalSizeDistribution":
        """Read national totals, at least one row; counts are nonnegative,
        establishments are whole numbers, and 0 plants employ no one.

        Each code's establishments and employment, summed over its bins,
        must be finite, so no sum over some of its bins can overflow.
        """
        labels, numbers = ["naics", "size_bin"], ["establishments", "employment"]
        columns = csvio.read_table(path, labels, numbers, key=labels)
        csvio.require_rows(len(columns[0]), path=path)
        table: dict[str, dict[str, tuple[float, float]]] = {}
        for i, (naics, size_bin, est, emp) in enumerate(zip(*columns), start=1):
            if not est.is_integer():
                raise IngestionError(f"{path} row {i}: field 'establishments': not a whole "
                                     f"number: {est!r}")
            if est == 0.0 and emp > 0.0:
                raise IngestionError(f"{path} row {i}: field 'employment': {emp!r} workers "
                                     "in 0 establishments")
            table.setdefault(naics, {})[size_bin] = (est, emp)
        for naics, bins in table.items():
            if not all(exact_sum(column) < math.inf for column in zip(*bins.values())):
                raise IngestionError(f"{path}: naics {naics!r}: total establishments or "
                                     "employment is beyond the float range")
        return cls(table)

    def mean_sizes(self, naics: Sequence[str], reported: np.ndarray,
                   bins: Sequence[str]) -> np.ndarray:
        """Mean plant size of each (code, reported bins) pair, in one grouped pass.

        Pair ``i`` takes the distribution covering ``naics[i]`` over its
        bins that ``reported[i]``, a bitmask with bit ``j`` for ``bins[j]``,
        does not set (bins not in ``bins`` are never excluded), or over all
        its bins when those hold no establishments; nan where no
        distribution covers the code or it holds no establishments.
        Establishments and employment are :func:`_group_sums` totals, over
        the pairs' bins and over their codes' whole distributions.
        """
        rows: dict[str, int] = {}
        row = np.array([rows.setdefault(code, len(rows)) for code in naics], dtype=np.intp)
        tables = [self.codes.resolve(code) or {} for code in rows]
        labels = list(dict.fromkeys([*bins, *(b for table in tables for b in table)]))
        column = {label: j for j, label in enumerate(labels)}
        held = np.zeros((len(tables), len(labels)), dtype=bool)
        sizes = np.zeros((2, len(tables), len(labels)))  # establishments, employment
        for i, table in enumerate(tables):
            for label, counts in table.items():
                held[i, column[label]] = True
                sizes[:, i, column[label]] = counts
        usable = held[row]
        usable[:, :len(bins)] &= reported[:, None] >> np.arange(len(bins)) & 1 == 0
        est, emp = (_row_sums(size[row], usable) for size in sizes)
        whole = est <= 0.0
        est[whole], emp[whole] = (_row_sums(size, held)[row[whole]] for size in sizes)
        return np.divide(emp, est, out=np.full(len(row), np.nan), where=est > 0.0)

    def open_bin_mean(self, naics: str, default: float) -> float:
        """Mean size of the 1000+ plants covering ``naics``, or ``default`` without any."""
        est, emp = (self.codes.resolve(naics) or {}).get(OPEN_BIN, (0.0, 0.0))
        return emp / est if est > 0 else default


def build_cells(
    cbp: CbpColumns,
    national: NationalSizeDistribution,
    open_bin_mean: float,
    exclusions: Iterable[str],
) -> tuple[Cells, list[tuple[str, str, str]]]:
    """Aggregate establishment records into per-(zcta, naics) employment cells.

    Employment is each size bin's count times its midpoint, the open bin
    at the industry's national mean size, or at ``open_bin_mean`` where the
    national file has no 1000+ plants for it.  Withheld (suppressed) plants
    are imputed at the national mean size over the bins the cell does not
    report (a reported 0 counts as reported); ``imputed_fraction`` is
    their share.  A negative suppressed or bin count, an unknown bin label
    or withheld plants no national distribution covers drop the cell; an
    employment beyond the float range raises :class:`IngestionError`
    naming the first such cell.  After these rules, the cells whose code
    starts with a prefix :func:`industries.exclusion_prefixes` gives for
    ``exclusions`` are removed, their count logged: an excluded sector's
    cell is still dropped with its warning, and still raises on overflow.
    Returns the kept cells sorted by (zcta, naics) and the dropped cells
    as (zcta, naics, reason).  The closed bins' products are half-integers,
    exact in any order below a cell total of 2**51 in magnitude, beyond
    which a cell sums its rows exactly; the open bin and the imputation
    then round once each, as a correctly rounded sum per cell would.

    Sums are bincounts over :func:`csvio.distinct`'s cell index (no sort
    for records in (zcta, naics) order, as Census ZIP files come).  A
    cell's reported bins are one bitmask; with its covering code it keys
    the imputation, all priced in one :meth:`NationalSizeDistribution.mean_sizes`
    call.  Only a cell with a negative or unknown-label row is summed per bin.
    """
    zcta_labels, naics_labels, bins = cbp.zcta.labels, cbp.naics.labels, cbp.size_bin.labels
    n_naics, n_bins = max(len(naics_labels), 1), len(bins)
    keys, cell = csvio.distinct(cbp.zcta.codes * n_naics + cbp.naics.codes)
    zcta, naics = np.divmod(keys, n_naics)
    n = len(keys)
    withheld, reporting = cbp.suppressed, ~cbp.suppressed
    suppressed = np.bincount(cell[withheld], cbp.establishments[withheld], n)
    cell, label, count = (c[reporting] for c in (cell, cbp.size_bin.codes, cbp.establishments))
    known = [b for b in bins if b in DEFAULT_BIN_MIDPOINTS or b == OPEN_BIN]
    bit = np.array([1 << known.index(b) if b in known else 0 for b in bins], dtype=np.int64)
    reported = np.zeros(n, dtype=np.int64)  # bit j set: the cell reports known[j]
    np.bitwise_or.at(reported, cell, bit[label])

    products = count * np.array([DEFAULT_BIN_MIDPOINTS.get(b, 0.0) for b in bins])[label]
    employment = np.bincount(cell, products, n)
    # products and partial sums are multiples of 1/2, so exact in any order
    # below 2**52; a cell whose terms reach 2**51 sums its own rows exactly
    huge = (np.bincount(cell, np.abs(products), n) >= 2.0 ** 51)[cell]
    order = np.argsort(cell[huge])
    owner, products = cell[huge][order], products[huge][order]  # frees the rows' products
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    employment[owner[starts]] = _group_sums(products, starts)

    # a bin's rows add up before the negative check, so suspect cells sum per bin
    at = (np.bincount(cell, (count < 0) | (bit == 0)[label], n) > 0)[cell]
    slots, slot = csvio.distinct(cell[at] * n_bins + label[at])
    totals = np.bincount(slot, count[at], len(slots))
    faulty = (totals < 0) | (bit[slots % n_bins] == 0)
    bad = suppressed < 0
    # each bad cell's first fault: a negative suppressed count, else by bin label
    fault = dict.fromkeys(np.flatnonzero(bad).tolist(),
                          "suppressed establishment count cannot be negative")
    for key, total in zip(slots[faulty].tolist(), totals[faulty].tolist()):
        c, j = divmod(key, n_bins)
        bad[c] = True
        fault.setdefault(c, f"negative establishment count in bin {bins[j]!r}" if total < 0
                         else f"unknown size bin label {bins[j]!r}")

    # one mean size per distinct (covering national code, reported bins), all
    # in one call; an industry no distribution covers gets nan
    covering: dict[str | None, int] = {}
    cover = np.array([covering.setdefault(national.codes.covering(c), len(covering))
                      for c in naics_labels], dtype=np.int64)
    covers = list(covering)
    imputing = np.flatnonzero(~bad & (suppressed > 0))
    pairs, pair = csvio.distinct(cover[naics[imputing]] << len(known) | reported[imputing])
    codes = [covers[key] for key in (pairs >> len(known)).tolist()]
    priced = np.array([code is not None for code in codes], dtype=bool)
    means = np.full(len(pairs), np.nan)
    means[priced] = national.mean_sizes([c for c in codes if c is not None],
                                        pairs[priced] & (1 << len(known)) - 1, known)
    mean = np.zeros(n)
    mean[imputing] = means[pair]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        if OPEN_BIN in bins:
            opened = label == bins.index(OPEN_BIN)
            open_mean = np.array([national.open_bin_mean(c, open_bin_mean)
                                  for c in naics_labels])
            employment = employment + np.bincount(cell[opened], count[opened], n) * open_mean[naics]
            del opened
        imputed = suppressed * mean
        total = employment + imputed
        fraction = np.divide(imputed, total, out=np.zeros(n), where=total > 0.0)
    # the row columns go before the keep-mask gathers, which would otherwise set the peak
    del cell, label, count, reporting, withheld, huge, at

    drop = bad | np.isnan(mean)
    dropped = []
    for c in np.flatnonzero(drop).tolist():
        reason = fault.get(c) or ("no national size distribution covers NAICS "
                                  f"{naics_labels[naics[c]]!r}")
        dropped.append((zcta_labels[zcta[c]], naics_labels[naics[c]], reason))
        logger.warning("cell %s/%s dropped: %s", *dropped[-1])
    keep = ~drop
    overflow = np.flatnonzero(keep & np.isinf(total))
    if overflow.size:
        c = overflow[0]
        raise IngestionError(f"cell {zcta_labels[zcta[c]]}/{naics_labels[naics[c]]}: "
                             "estimated employment is beyond the float range")
    prefixes = exclusion_prefixes(exclusions)
    excluded = keep & np.array([c.startswith(prefixes) for c in naics_labels], dtype=bool)[naics]
    if excluded.any():
        logger.info("excluded sectors removed %d establishment cells", int(excluded.sum()))
        keep &= ~excluded
    cells = Cells(Coded(zcta_labels, zcta[keep]), Coded(naics_labels, naics[keep]),
                  total[keep], fraction[keep])
    return cells, dropped


def group_totals(keys: Coded, *columns: np.ndarray) -> tuple[list[str], list[list[float]]]:
    """The keys that occur, sorted, and per column each key's :func:`exact_sum`.

    Each column's groups are summed in one call of the exact kernel,
    :func:`_group_sums`, with ``exact_sum``'s overflow rule.  Rows
    already in key order (frames keep ``build_cells``' zcta order) are
    summed in place: one O(n) check replaces the sort and the gathers.
    Other rows are sorted as the narrowest unsigned codes that hold every
    label, which numpy's stable sort radix-sorts up to 16 bits.
    """
    codes = keys.codes
    if (codes[1:] < codes[:-1]).any():
        order = np.argsort(codes.astype(np.min_scalar_type(len(keys.labels))), kind="stable")
        codes = codes[order]
        columns = tuple(column[order] for column in columns)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    totals = [_group_sums(np.asarray(column, dtype=float), starts).tolist()
              for column in columns]
    return [keys.labels[code] for code in codes[starts].tolist()], totals


def region_employment(cells: Cells) -> dict[str, float]:
    """Total estimated employment per ZCTA, in sorted order.

    A ZCTA's total, or the total of them all, beyond the float range raises
    :class:`IngestionError`, naming the ZCTA.  Every employment total taken
    later in a run sums a part of these cells, so none of them overflows.
    """
    zctas, (employment,) = group_totals(cells.zcta, cells.employment)
    if math.inf in employment:
        raise IngestionError(f"zcta {zctas[employment.index(math.inf)]!r}: total employment "
                             "is beyond the float range")
    if exact_sum(employment) == math.inf:
        raise IngestionError("the total employment of all ZCTAs is beyond the float range")
    return dict(zip(zctas, employment))


def normalize_density(
    records: Iterable[tuple[str, float, float]],
    weights: Mapping[str, float],
) -> dict[str, float]:
    """Population densities divided by their employment-weighted mean.

    ``records`` are (zcta, population, land_area_km2); ``weights`` maps
    zcta to employment.  Returns ``{zcta: normalized density}`` with the
    keys in sorted order.  Regions with nonpositive land area or density
    are dropped with a warning: they cannot enter the model.  The
    employment-weighted mean of the returned densities is 1; a mean beyond
    the float range raises :class:`IngestionError`.  The
    pipeline passes all measured employment as ``weights``, cells whose
    code no industry mix covers included, though only resolved cells are
    priced.
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

    employed = [zcta for zcta in raw if weights.get(zcta, 0.0) > 0.0]
    total_weight = exact_sum(weights[zcta] for zcta in employed)
    if total_weight <= 0.0:
        raise IngestionError("no employment overlaps the density data; cannot normalize")
    mean = exact_sum(weights[zcta] * raw[zcta] for zcta in employed) / total_weight
    if not math.isfinite(mean):
        raise IngestionError("the employment-weighted mean density is not finite; "
                             "cannot normalize")
    return {zcta: raw[zcta] / mean for zcta in sorted(raw)}


def location_exposure(frame, mixes: Iterable[IndustryMix]) -> dict[str, tuple[float, list]]:
    """``{zcta: (employment, employment-weighted share of each of GROUPS)}``, sorted.

    ``frame`` is a :class:`~distancing.calibrate.CellFrame`, whose cells
    all have employment, and ``mixes`` give its industries' chi values.
    Splitting a cell into same-industry parts leaves the shares unchanged.
    """
    chi = {mix.industry_code: [mix.chi[g] for g in GROUPS] for mix in mixes}
    by_industry = np.array([chi[code] for code in frame.industry_code.labels], dtype=float)
    cell_chi = by_industry.reshape(-1, len(GROUPS))[frame.industry_code.codes]
    employment = frame.employment
    zctas, (totals, *weighted) = group_totals(
        frame.zcta, employment, *(employment * cell_chi[:, j] for j in range(len(GROUPS)))
    )
    return {zcta: (total, [group[i] / total for group in weighted])
            for i, (zcta, total) in enumerate(zip(zctas, totals))}


# ---------------------------------------------------------------------------
# Locally weighted smoothing (for the density profiles of exposure shares)
# ---------------------------------------------------------------------------


def lowess_curve(
    x: Sequence[float],
    y: Sequence[float] | Sequence[Sequence[float]],
    weights: Sequence[float],
    bandwidth: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Tricube-weighted local linear fit on an even 100-point grid spanning the data.

    At each grid point g, the window radius h is the distance to the
    ceil(bandwidth * n)-th nearest observation (at least 2).  Observations
    inside the window get tricube kernel weight (1 - (dist/h)**3)**3 times
    their point weight, and a weighted straight line is fitted; its value
    at g is the curve.  Degenerate windows fall back deterministically:
    zero radius or zero x-variance (below 1e-12 * h**2) means a weighted
    local mean, and if no observation falls strictly inside the radius the
    nearest observations are averaged by point weight.

    ``y`` is one series (the fit is 1-D) or a 2-D array of series sharing
    ``x`` and the weights (one fitted row per series).  The series share
    each window; every row equals, bit for bit, a fit of that series alone.

    Requires at least 10 points and bandwidth in (0, 1].
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    n = xs.size
    if n < 10:
        raise ValueError(f"lowess needs at least 10 points, got {n}")
    if not 0.0 < bandwidth <= 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1], got {bandwidth!r}")
    if ys.ndim not in (1, 2) or ys.shape[-1] != n:
        raise ValueError("x and y must have the same length")
    ws = np.asarray(weights, dtype=float)
    if ws.size != n:
        raise ValueError("weights must have the same length as x")
    if np.any(ws < 0):
        raise ValueError("weights must be nonnegative")
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        raise ValueError("x values span zero range; nothing to smooth over")

    series = ys.reshape(-1, n)
    r = min(n, max(2, int(math.ceil(bandwidth * n))))
    grid = np.linspace(lo, hi, 100)
    fitted = np.empty((len(series), grid.size))
    for j, g in enumerate(grid):
        dx = xs - g
        dist = np.abs(dx)
        h = np.partition(dist, r - 1)[r - 1]
        if h <= 0.0:
            at = dist == 0.0
            fitted[:, j] = [_weighted_mean(s[at], ws[at]) for s in series]
            continue
        u = dist / h
        inside = u < 1.0
        # the tricube only inside the window, as products: IEEE fixes their
        # bits, while numpy's ``**`` takes a SIMD power whose bits vary by CPU
        ui = u[inside]
        c = 1.0 - ui * ui * ui
        kernel = np.zeros(n)
        kernel[inside] = c * c * c
        omega = ws * kernel
        total = omega.sum()
        if total <= 0.0:
            nearest = dist == dist.min()
            fitted[:, j] = [_weighted_mean(s[nearest], ws[nearest]) for s in series]
            continue
        # sums of products, not ``np.dot``: numpy hands a float dot to BLAS,
        # whose order of additions follows its CPU kernel
        sx = float((omega * dx).sum())
        sxx = float((omega * (dx * dx)).sum())
        var = sxx - sx * sx / total
        flat = var <= 1e-12 * h * h
        # one 1-D sum per series, as a single-series fit makes: a sum over a
        # 2-D array may add in another order
        for k, s in enumerate(series):
            sy = float((omega * s).sum())
            if flat:
                fitted[k, j] = sy / total
                continue
            sxy = float((omega * (dx * s)).sum())
            slope = (sxy - sx * sy / total) / var
            # dx is centered on g, so the intercept is the value there
            fitted[k, j] = (sy - slope * sx) / total
    return grid, fitted if ys.ndim == 2 else fitted[0]


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0.0:
        return float(values.mean())
    return float((weights * values).sum() / total)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


class _Interned(dict):
    """Raw field -> code of its stripped label, in first-seen order; a raw value is
    stripped, and checked if ``blank`` names a field that may not be blank, once."""

    def __init__(self, blank: str | None = None):
        super().__init__()
        self.blank = blank
        self.labels: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        label = raw.strip()
        if self.blank and not label:
            raise ValueError(f"blank {self.blank}")  # the reader names the file and row
        code = self[raw] = self.labels.setdefault(label, len(self.labels))
        return code


class _Parsed(dict):
    """Raw field -> ``parse(raw)``, parsed once per distinct raw value."""

    def __init__(self, parse: Callable[[str], int]):
        super().__init__()
        self.parse = parse

    def __missing__(self, raw: str) -> int:
        value = self[raw] = self.parse(raw)
        return value


def _flag(raw: str) -> int:
    """The ``suppressed`` field: an integer, nonzero means suppressed, or empty."""
    return int(raw) != 0 if raw.strip() else False


_CBP_FIELDS = ("zcta", "naics", "size_bin", "establishments")


def _cbp_tables() -> list[dict]:
    """Fresh lookup tables for ``_CBP_FIELDS`` and ``suppressed``, in that order."""
    return [_Interned("zcta"), _Interned("naics"), _Interned(), _Parsed(int), _Parsed(_flag)]


def read_cbp_csv(path: str | Path) -> CbpColumns:
    """Read ``zcta,naics,size_bin,establishments`` with optional ``suppressed`` flag.

    The flag is an integer (nonzero means suppressed) or empty.  A file
    without data rows is a data error naming the file; a blank ZCTA or
    NAICS code, or a count that is not a 64-bit integer, one naming the
    file and row.  A plain file goes through
    :func:`csvio.read_columns`, which looks each distinct field up once
    per chunk; any other file, and one with a value that does not read,
    is read (again) by the block reader, so every error is the block
    reader's.
    """
    tables = _cbp_tables()
    columns = csvio.read_columns(path, _CBP_FIELDS, ["suppressed"], tables)
    if columns is None:
        tables = _cbp_tables()
        columns = _read_cbp_blocks(path, tables)
    csvio.require_rows(len(columns[3]), path=path)
    flags = columns.pop()  # freed as int64 before the codes are recoded: a lower peak
    flags = np.zeros(len(columns[3]), bool) if flags is None else flags.astype(bool)
    *codes, counts = columns
    return CbpColumns(
        *(Coded.from_codes(list(t.labels), c) for t, c in zip(tables, codes)), counts, flags
    )


def _read_cbp_blocks(path, tables: list[dict]) -> list:
    """``read_cbp_csv``'s columns through the block reader: each block of rows
    extends ``array`` columns a whole field at a time."""
    header, blocks = csvio.read_blocks(path, _CBP_FIELDS)
    fields = [header.index(name) for name in (*_CBP_FIELDS, "suppressed") if name in header]
    columns = [array("q") for _ in fields]
    work = list(zip(columns, tables, map(itemgetter, fields)))
    for first, block in blocks:
        try:
            for column, table, field in work:
                column.extend(map(table.__getitem__, map(field, block)))
        except (ValueError, OverflowError):
            _check_cbp_rows(path, first, block, fields)
            raise
    columns = [np.frombuffer(c, dtype=np.int64) for c in columns]
    return columns if "suppressed" in header else [*columns, None]


def _check_cbp_rows(path, first: int, block: list[list[str]], fields: list[int]) -> None:
    """Raise the first fault of a block that did not read, naming its row: each
    row is checked in the reader's order, blank ZCTA, blank NAICS, flag, count."""
    zcta, naics, _, count, *flag = fields
    for i, record in enumerate(block, first):
        where = f"{path} row {i}"
        for name, field in (("zcta", zcta), ("naics", naics)):
            if not record[field].strip():
                raise IngestionError(f"{where}: field {name!r}: blank") from None
        if flag and record[flag[0]].strip():
            csvio.parse_int(record[flag[0]].strip(), path=where, field="suppressed")
        value = csvio.parse_int(record[count], path=where, field="establishments")
        if not -(1 << 63) <= value < 1 << 63:
            raise IngestionError(
                f"{where}: field 'establishments': not a 64-bit integer: {record[count]!r}"
            ) from None


def read_density_csv(path: str | Path) -> list[tuple[str, float, float]]:
    """Read ``zcta,population,land_area_km2`` records through
    :func:`csvio.read_table`; a ZCTA may appear once.

    A zero population or land area leaves the region to
    :func:`normalize_density`, which drops it with a warning.
    """
    return list(zip(*csvio.read_table(path, ["zcta"], ["population", "land_area_km2"],
                                      key=["zcta"])))


_LOCATION_FIELDS = ("density", "employment", *(f"share_{group}" for group in GROUPS))


def read_location_index_csv(path: str | Path) -> list[list[float]]:
    """The density, employment and ``share_*`` columns of a location index,
    through :func:`csvio.read_table`; density is positive, and a share, a
    fraction of employment, at most 1."""
    columns = csvio.read_table(path, [], _LOCATION_FIELDS, positive=["density"])
    for name, column in zip(_LOCATION_FIELDS[2:], columns[2:]):
        if max(column, default=0.0) > 1.0:
            row, value = next((i, v) for i, v in enumerate(column, start=1) if v > 1.0)
            raise IngestionError(f"{path} row {row}: field {name!r}: above 1: {value!r}")
    return columns


def location_index_table(
    exposures: Mapping[str, tuple[float, Sequence[float]]], densities: Mapping[str, float]
) -> tuple[list[str], list[list]]:
    """:func:`location_exposure`'s table with each ZCTA's normalized density."""
    return ["zcta", "density", *(f"share_{group}" for group in GROUPS), "employment"], [
        [z, densities[z], *shares, employment] for z, (employment, shares) in exposures.items()
    ]
