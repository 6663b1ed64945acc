"""Employment estimation, imputation, density normalization, exposure, lowess."""

import math
import random
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distancing import csvio, geo, industries
from distancing.calibrate import cell_parameters
from distancing.cli import read_region_groups
from distancing.errors import IngestionError
from distancing.geo import (
    DEFAULT_BIN_MIDPOINTS,
    DEFAULT_OPEN_BIN_MEAN,
    OPEN_BIN,
    Coded,
    NationalSizeDistribution,
    build_cells,
    exact_sum,
    group_totals,
    location_exposure,
    lowess_curve,
    normalize_density,
    read_cbp_csv,
    read_density_csv,
    region_employment,
)
from distancing.industries import GROUPS, IndustryMix, MixResolver

from frames import cbp_of, cells_of, outcome


def oracle_lowess(x, y, w, bandwidth, grid_points=100):
    """Direct-summation tricube local-linear smoother (independent oracle).

    Follows the documented algorithm with plain Python accumulation: window
    radius from the ceil(bandwidth*n)-th nearest point, tricube times point
    weight, straight-line fit by the textbook normal equations.
    """
    n = len(x)
    r = min(n, max(2, math.ceil(bandwidth * n)))
    lo, hi = min(x), max(x)
    grid = [lo + (hi - lo) * j / (grid_points - 1) for j in range(grid_points)]
    fitted = []
    for g in grid:
        dist = sorted(abs(xi - g) for xi in x)
        h = dist[r - 1]
        if h <= 0.0:
            num = den = 0.0
            for xi, yi, wi in zip(x, y, w):
                if xi == g:
                    num += wi * yi
                    den += wi
            fitted.append(num / den if den > 0 else 0.0)
            continue
        s0 = s1 = s2 = sy = sxy = 0.0
        for xi, yi, wi in zip(x, y, w):
            u = abs(xi - g) / h
            if u >= 1.0:
                continue
            k = wi * (1.0 - u**3) ** 3
            dx = xi - g
            s0 += k
            s1 += k * dx
            s2 += k * dx * dx
            sy += k * yi
            sxy += k * dx * yi
        if s0 <= 0.0:
            dmin = min(abs(xi - g) for xi in x)
            num = den = 0.0
            for xi, yi, wi in zip(x, y, w):
                if abs(xi - g) == dmin:
                    num += wi * yi
                    den += wi
            fitted.append(num / den if den > 0 else 0.0)
            continue
        var = s2 - s1 * s1 / s0
        if var <= 1e-12 * h * h:
            fitted.append(sy / s0)
            continue
        slope = (sxy - s1 * sy / s0) / var
        fitted.append((sy - slope * s1) / s0)
    return grid, fitted


def cell_estimate(bins, suppressed=0, naics="441200", national=None):
    """(employment, imputed fraction) of one cell priced by ``build_cells``.

    A dropped cell raises its reason as an :class:`IngestionError`.
    """
    rows = [("z", naics, size_bin, count) for size_bin, count in bins.items()]
    if suppressed or not bins:
        rows.append(("z", naics, "", suppressed, True))
    cells, dropped = build_cells(cbp_of(rows), national or NATIONAL)
    if dropped:
        raise IngestionError(dropped[0][2])
    (cell,) = cells
    return cell.employment, cell.imputed_fraction


class TestCellEmployment:
    def test_single_small_establishment(self):
        assert cell_estimate({"1-4": 1}) == (2.5, 0.0)

    def test_empty_counts(self):
        assert cell_estimate({}) == (0.0, 0.0)

    def test_hand_sum(self):
        got, _ = cell_estimate({"1-4": 2, "5-9": 1})
        assert got == 12.0

    def test_unknown_bin_named(self):
        with pytest.raises(IngestionError, match="0-3"):
            cell_estimate({"0-3": 1})

    def test_linear_in_counts(self):
        rng = np.random.default_rng(37)
        bins = list(DEFAULT_BIN_MIDPOINTS)
        for _ in range(100):
            a = {b: int(rng.integers(0, 9)) for b in bins}
            b = {b_: int(rng.integers(0, 9)) for b_ in bins}
            combined = {k: a[k] + b[k] for k in bins}
            assert cell_estimate(combined)[0] == pytest.approx(
                cell_estimate(a)[0] + cell_estimate(b)[0]
            )


NATIONAL = NationalSizeDistribution(
    {
        "44": {
            "1-4": (100, 250),
            "5-9": (50, 350),
            "10-19": (20, 290),
            "20-49": (10, 345),
        },
        "31": {"1-4": (10, 25), "5-9": (10, 400)},
    }
)


class TestImputation:
    def test_no_suppression_unchanged(self):
        emp, frac = cell_estimate({"1-4": 4}, 0, "441200")
        assert emp == 10.0 and frac == 0.0

    def test_suppressed_plant_gets_complement_mean(self):
        # cell reports only 1-4; national mean over the other bins is
        # (350 + 290 + 345) / (50 + 20 + 10) = 12.3125
        emp, frac = cell_estimate({"1-4": 4}, 1, "441200")
        assert emp == pytest.approx(10.0 + 12.3125)
        assert frac == pytest.approx(12.3125 / 22.3125)

    @pytest.mark.parametrize("naics", ["441200", "453110", "45", "44-45"])
    @pytest.mark.parametrize("bins", [{"1-4": 4}, {"5-9": 1, OPEN_BIN: 1}, {}])
    def test_range_code_imputes_as_its_sectors(self, naics, bins):
        """National rows keyed ``44-45``, as Census writes the retail sector,
        price a cell as the same rows keyed by each sector do."""
        rows = dict(_NATIONAL_TABLE["44"])
        by_range = NationalSizeDistribution({"44-45": rows, "31": _NATIONAL_TABLE["31"]})
        by_sector = NationalSizeDistribution({"44": rows, "45": rows, "44-45": rows})
        assert cell_estimate(bins, 2, naics, by_range) == cell_estimate(bins, 2, naics, by_sector)
        assert by_range.open_bin_mean(naics) == 3100 / 2

    def test_fixture_mean_forty(self):
        national = NationalSizeDistribution({"31": {"1-4": (5, 12.5), "20-49": (10, 400)}})
        emp, frac = cell_estimate({"1-4": 5}, 1, "311811", national)
        assert emp == pytest.approx(12.5 + 40.0)

    def test_never_reduces_and_never_fires_unsuppressed(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            bins = {"1-4": int(rng.integers(0, 5)), "5-9": int(rng.integers(0, 5))}
            base, frac0 = cell_estimate(bins, 0, "44")
            assert frac0 == 0.0
            suppressed = int(rng.integers(1, 4))
            more, frac = cell_estimate(bins, suppressed, "44")
            assert more >= base
            assert 0.0 < frac <= 1.0

    def test_ancestor_fallback(self):
        emp, _ = cell_estimate({}, 1, "445110")  # resolves via "44"
        assert emp == pytest.approx((250 + 350 + 290 + 345) / 180.0)

    def test_missing_distribution_raises(self):
        with pytest.raises(IngestionError):
            cell_estimate({}, 1, "99999")


class TestBuildCells:
    def test_cells_sorted_and_dropped_reported(self):
        rows = cbp_of([
            ("10002", "441200", "1-4", 4),
            ("10001", "441100", "20-49", 2),
            ("10002", "441200", "", 1, True),
            ("10009", "99999", "", 2, True),  # no national data
        ])
        cells, dropped = build_cells(rows, NATIONAL)
        assert [(c.zcta, c.industry_code) for c in cells] == [
            ("10001", "441100"),
            ("10002", "441200"),
        ]
        first, second = cells
        assert first.employment == 69.0
        assert second.employment == pytest.approx(22.3125)
        assert dropped == [("10009", "99999", dropped[0][2])]

    def test_each_fault_drops_its_cell_with_the_first_reason(self):
        rows = cbp_of([
            ("z1", "441100", "5-9", -1),
            ("z1", "441100", "1-4", -2),  # "1-4" sorts first, so it names the fault
            ("z2", "441100", "5-9", -1),
            ("z2", "441100", "0-3", 2),  # an unknown label sorting first names it
            ("z3", "441100", "5-9", 1),
            ("z3", "441100", "", -1, True),
            ("z4", "441100", "1-4", 3),
            ("z4", "441100", "1-4", -3),  # bin counts add up before the check
        ])
        cells, dropped = build_cells(rows, NATIONAL)
        assert [(c.zcta, c.employment) for c in cells] == [("z4", 0.0)]
        assert [reason for _, _, reason in dropped] == [
            "negative establishment count in bin '1-4'",
            "unknown size bin label '0-3'",
            "suppressed establishment count cannot be negative",
        ]


# A national table with an open-bin mean for one sector and a sparse
# detailed code under another, so cells resolve at different levels.
_NATIONAL_TABLE = {
    "44": {"1-4": (100, 250), "5-9": (50, 350), "10-19": (20, 290), "20-49": (10, 345),
           OPEN_BIN: (2, 3100)},
    "4412": {"1-4": (30, 80), "50-99": (4, 300)},
    "31": {"1-4": (10, 25), "5-9": (10, 400), "100-249": (3, 520)},
}
# An unknown label "0-3" and counts of -1 make cells the reference drops.
_CBP_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["10001", "10002", "10003"]),
        st.sampled_from(["441100", "441200", "311811", "31", "99999"]),
        st.sampled_from([*DEFAULT_BIN_MIDPOINTS, OPEN_BIN, "0-3"]),
        st.integers(-1, 30),
        st.booleans(),
    ).map(lambda r: (r[0], r[1], "" if r[4] else r[2], r[3], r[4])),
    max_size=60,
)


def estimate_cell_employment(size_bin_counts, bin_midpoints):
    """Sum of establishment counts times bin midpoints, one cell at a time."""
    total = []
    for size_bin in sorted(size_bin_counts):
        count = size_bin_counts[size_bin]
        if count < 0:
            raise IngestionError(f"negative establishment count in bin {size_bin!r}")
        if size_bin not in bin_midpoints:
            raise IngestionError(f"unknown size bin label {size_bin!r}")
        total.append(count * bin_midpoints[size_bin])
    return math.fsum(total)


def impute_suppressed(known_bins, suppressed_count, naics, national, bin_midpoints):
    """One cell's (employment, imputed fraction): withheld plants at the complement mean."""
    if suppressed_count < 0:
        raise IngestionError("suppressed establishment count cannot be negative")
    known = estimate_cell_employment(known_bins, bin_midpoints)
    if suppressed_count == 0:
        return known, 0.0
    mean_size = national.mean_size(naics, exclude_bins=known_bins.keys())
    if mean_size is None:
        raise IngestionError(f"no national size distribution covers NAICS {naics!r}")
    imputed = suppressed_count * mean_size
    total = known + imputed
    return total, (imputed / total if total > 0 else 0.0)


def reference_cells(rows, open_bin_mean):
    """Each cell on its own, with a fresh (never cached) national table:
    dicts of bin counts, an ``fsum`` per cell, one imputation call per cell."""
    known, suppressed = {}, {}
    for zcta, naics, size_bin, count, is_suppressed in rows:
        bins = known.setdefault((zcta, naics), {})
        if is_suppressed:
            suppressed[(zcta, naics)] = suppressed.get((zcta, naics), 0) + count
        else:
            bins[size_bin] = bins.get(size_bin, 0) + count
    cells, dropped = [], []
    for zcta, naics in sorted(known):
        national = NationalSizeDistribution(_NATIONAL_TABLE)
        midpoints = dict(DEFAULT_BIN_MIDPOINTS)
        midpoints[OPEN_BIN] = national.open_bin_mean(naics, default=open_bin_mean)
        try:
            cells.append((zcta, naics, *impute_suppressed(
                known[(zcta, naics)], suppressed.get((zcta, naics), 0), naics, national,
                midpoints,
            )))
        except IngestionError as exc:
            dropped.append((zcta, naics, str(exc)))
    return cells, dropped


class TestBuildCellsProperties:
    @settings(deadline=None, derandomize=True, database=None)
    @given(_CBP_ROWS, st.sampled_from([DEFAULT_OPEN_BIN_MEAN, 900.0]), st.randoms())
    def test_order_free_and_equal_to_uncached_reference(self, rows, open_bin_mean, rnd):
        national = NationalSizeDistribution(_NATIONAL_TABLE)
        cells, dropped = build_cells(cbp_of(rows), national, open_bin_mean)
        got = [(c.zcta, c.industry_code, c.employment, c.imputed_fraction) for c in cells]
        assert (got, dropped) == reference_cells(rows, open_bin_mean)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        # the same (now warm) table and a fresh one give the same bits
        for table in (national, NationalSizeDistribution(_NATIONAL_TABLE)):
            again, again_dropped = build_cells(cbp_of(shuffled), table, open_bin_mean)
            assert [
                (c.zcta, c.industry_code, c.employment, c.imputed_fraction) for c in again
            ] == got
            assert again_dropped == dropped


class _CountedSizes(NationalSizeDistribution):
    """Records each grouped ``mean_sizes`` call as its list of (code, excluded bins)."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = []

    def mean_sizes(self, naics, excluded, bins):
        self.calls.append([(code, frozenset(b for b, out in zip(bins, row) if out))
                           for code, row in zip(naics, excluded.tolist())])
        return super().mean_sizes(naics, excluded, bins)


# Codes under "44" and under "4412" share a covering code each; "99999" and
# "9" have none.
_SHARED_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["10001", "10002", "10003", "10004"]),
        st.sampled_from(["441100", "442000", "445110", "441200", "441210", "311811", "31",
                         "99999", "9"]),
        st.sampled_from([*DEFAULT_BIN_MIDPOINTS, OPEN_BIN, "0-3"]),
        st.integers(-1, 9),
        st.integers(0, 2).map(lambda flag: flag == 0),
    ).map(lambda r: (r[0], r[1], "" if r[4] else r[2], r[3], r[4])),
    max_size=80,
)


class TestImputationPerCoveringCode:
    @settings(deadline=None, derandomize=True, database=None)
    @given(_SHARED_ROWS, st.integers(0, 2**32))
    def test_one_mean_per_covering_code_and_bin_set(self, rows, seed):
        """Rows in (zcta, naics) order and shuffled give the per-cell
        reference's cells and drops, pricing each (covering code, reported
        bins) at most once, all in one grouped call."""
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        want = reference_cells(rows, DEFAULT_OPEN_BIN_MEAN)
        for order in (sorted(rows), shuffled):
            national = _CountedSizes(_NATIONAL_TABLE)
            cells, dropped = build_cells(cbp_of(order), national)
            got = [(c.zcta, c.industry_code, c.employment, c.imputed_fraction) for c in cells]
            assert (got, dropped) == want
            assert len(national.calls) == 1
            priced = national.calls[0]
            assert len(set(priced)) == len(priced)
            assert {code for code, _ in priced} <= set(_NATIONAL_TABLE)

    def test_codes_sharing_a_distribution_share_its_mean(self):
        rows = [
            ("10001", "441100", "1-4", 2), ("10001", "441100", "", 1, True),
            ("10001", "442000", "1-4", 5), ("10001", "442000", "", 2, True),
            ("10002", "445110", "5-9", 1), ("10002", "445110", "", 1, True),
            ("10002", "99999", "", 1, True),
        ]
        national = _CountedSizes(_NATIONAL_TABLE)
        cells, dropped = build_cells(cbp_of(rows), national)
        assert [sorted(call) for call in national.calls] == [
            [("44", frozenset({"1-4"})), ("44", frozenset({"5-9"}))]
        ]
        assert [c.employment for c in cells] == [
            5.0 + 1 * national.mean_size("44", ["1-4"]),
            12.5 + 2 * national.mean_size("44", ["1-4"]),
            7.0 + 1 * national.mean_size("44", ["5-9"]),
        ]
        assert dropped == [
            ("10002", "99999", "no national size distribution covers NAICS '99999'")
        ]


class TestGroupTotals:
    @pytest.mark.parametrize("n_labels", [3, 300, 70_000])
    def test_unsorted_codes_total_as_per_key_lists(self, n_labels):
        """Codes in no order, with labels beyond 8 and 16 bits: the keys that
        occur, sorted, and each key's ``fsum``."""
        rng = np.random.default_rng(n_labels)
        labels = [f"k{i:06d}" for i in range(n_labels)]
        codes = rng.integers(0, n_labels, 3000)
        values = rng.lognormal(size=3000)
        keys, (totals,) = group_totals(Coded(labels, codes), values)
        per_key = {}
        for code, value in zip(codes.tolist(), values.tolist()):
            per_key.setdefault(labels[code], []).append(value)
        assert keys == sorted(per_key)
        assert totals == [math.fsum(per_key[key]) for key in keys]

    def test_an_overflowing_group_is_inf_and_the_others_exact(self):
        keys = Coded(["a", "b", "c"], np.array([0, 0, 1, 1, 2]))
        values = np.array([1e308, 1e308, 0.1, 0.2, -1e308])
        labels, (totals, halves) = group_totals(keys, values, values / 2)
        assert labels == ["a", "b", "c"]
        assert totals == [math.inf, math.fsum([0.1, 0.2]), -1e308]
        assert halves == [1e308, math.fsum([0.05, 0.1]), -5e307]


class TestExactSum:
    def test_is_fsum_of_an_array_or_an_iterable(self):
        values = np.random.default_rng(5).lognormal(size=1000) * 1e10
        expected = math.fsum(values.tolist())
        assert exact_sum(values) == exact_sum(iter(values.tolist())) == expected
        assert exact_sum([]) == 0.0

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, 1e308, -1e308],
                                        np.array([1.5e308, 1e308])])
    def test_finite_terms_that_overflow_total_inf(self, values):
        with pytest.raises(OverflowError):
            math.fsum(list(values))
        assert exact_sum(values) == math.inf

    def test_inf_and_nan_terms_as_in_fsum(self):
        assert exact_sum([1.0, math.inf]) == math.inf
        assert exact_sum(np.array([1.0, -math.inf])) == -math.inf
        assert math.isnan(exact_sum([math.nan, 1.0]))
        with pytest.raises(ValueError):
            exact_sum([math.inf, -math.inf])


def _fsum_or_error(terms):
    """The oracle: ``math.fsum``, ``inf`` where finite terms overflow, and
    ``ValueError`` (the class) where ``fsum`` raises it (inf minus inf)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf
    except ValueError:
        return ValueError


def _same_float(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


_SPECIAL_TERMS = [0.0, -0.0, 1.0, 2.0**-53, -(2.0**-53), 3 * 2.0**-53, 2.0**-1074, -(2.0**-1074),
                  2.0**-1022, 2.0**-900, 2.0**1000, -(2.0**1000), 1e308, -1e308,
                  math.inf, -math.inf, math.nan]
_TERMS = st.one_of(
    # lognormal magnitudes with sigma up to 30, either sign
    st.builds(lambda sign, sigma, z: sign * math.exp(sigma * z), st.sampled_from([1.0, -1.0]),
              st.sampled_from([0.5, 3.0, 10.0, 30.0]), st.floats(-3.0, 3.0)),
    st.sampled_from(_SPECIAL_TERMS),
    st.floats(allow_nan=False, allow_infinity=False),
    # few significant bits: exact sums and exact ties
    st.builds(lambda k, e: k * 2.0**e, st.integers(-(2**54), 2**54), st.integers(-60, 60)),
)


@st.composite
def _grouped_terms(draw):
    """Terms, sometimes each with its negation (totals that cancel to 0), and a
    group code per term in no order."""
    terms = draw(st.lists(_TERMS, max_size=60))
    if draw(st.booleans()):
        terms += [-term for term in terms]
        draw(st.randoms(use_true_random=False)).shuffle(terms)
    codes = draw(st.lists(st.integers(0, 6), min_size=len(terms), max_size=len(terms)))
    return terms, codes


class TestSumKernel:
    """``exact_sum`` and ``group_totals`` against ``math.fsum`` itself."""

    LABELS = [f"g{i}" for i in range(7)]

    def check(self, terms, codes):
        values = np.array(terms, dtype=float)
        want = _fsum_or_error(terms)
        if want is ValueError:
            with pytest.raises(ValueError):
                exact_sum(values)
        else:
            assert _same_float(exact_sum(values), want)
        groups = {}
        for code, term in zip(codes, terms):
            groups.setdefault(code, []).append(term)
        wants = [_fsum_or_error(groups[code]) for code in sorted(groups)]
        keys = Coded(self.LABELS, np.array(codes, dtype=np.int64))
        if ValueError in wants:
            with pytest.raises(ValueError):
                group_totals(keys, values)
            return
        labels, (totals,) = group_totals(keys, values)
        assert labels == [self.LABELS[code] for code in sorted(groups)]
        assert all(map(_same_float, totals, wants)), (totals, wants)

    @settings(deadline=None, derandomize=True, database=None, max_examples=1000)
    @given(_grouped_terms())
    def test_equals_fsum_whole_and_grouped(self, grouped):
        self.check(*grouped)

    @pytest.mark.parametrize("terms", [
        [1.0, 2.0**-53],  # a tie, to even
        [1.0, 2.0**-53, 2.0**-53],
        [2.0**-53, 1.0, 2.0**-53, 2.0**-106],  # just above the tie
        [1.0 + 2.0**-52, 2.0**-53, 0.0, -0.0],  # a tie, to even upwards
        [1e16, 1.0, -1e16],
        [0.1, 0.2, -0.3, 1e-17],
        [-0.0], [-0.0, -0.0, -0.0], [0.5, -0.5, 0.0],
        [2.0**-1074] * 5, [2.0**-1022, -(2.0**-1074), 2.0**-1074],
        [2.0**1000] * 3, [1e308, -1e308, 1e308], [1e308, 1e308, -1e308, -1e308],
        [1.0, math.inf, 2.0], [math.nan, 1.0, 2.0], [math.inf, -math.inf, 1.0],
    ])
    def test_edge_columns_whole_and_among_groups(self, terms):
        self.check(terms, [0] * len(terms))
        others = [3.5, -7.25, 1e-3]
        self.check([*others, *terms, *others], [1, 1, 1, *[2] * len(terms), 3, 3, 3])

    def test_a_tie_that_only_the_unrounded_tail_reveals(self):
        """The first group sets the running sum to 2**60, so the second's hi + tail
        is an exact tie, and only the tail's own rounding error breaks it."""
        self.check([2.0**60, -(2.0**60), 63.0, 1.0 + 2.0**-52], [0, 1, 1, 1])

    def test_empty_columns(self):
        assert exact_sum(np.zeros(0)) == 0.0
        assert group_totals(Coded([], np.zeros(0, dtype=np.int64)), np.zeros(0)) == ([], [[]])

    COLUMNS = {
        "lognormal": lambda rng: rng.lognormal(3.0, 1.5, 24_000),
        # the running sum's errors do not add exactly: the rounding bound
        "wide": lambda rng: rng.lognormal(3.0, 5.0, 24_000),
        # frequent exact ties in short groups: the exact-tail certificate
        "one decimal": lambda rng: np.round(rng.lognormal(3.0, 1.5, 24_000), 1),
    }

    @pytest.mark.parametrize("column", list(COLUMNS))
    @pytest.mark.parametrize("n_groups", [1, 20, 7466])
    def test_few_groups_fall_back_to_fsum(self, n_groups, column, monkeypatch):
        """On employment-like columns of the benchmark's frame size, at most
        1 % of the groups (none of one or 20) leave the kernel's certified
        fast path for ``fsum``."""
        rng = np.random.default_rng(n_groups)
        values = self.COLUMNS[column](rng)
        codes = np.sort(np.concatenate([np.arange(n_groups),
                                        rng.integers(0, n_groups, 24_000 - n_groups)]))
        fallbacks = []
        monkeypatch.setattr(geo, "_fsum", lambda terms: fallbacks.append(1) or math.fsum(terms))
        labels, (totals,) = group_totals(Coded([f"z{i:05d}" for i in range(n_groups)], codes),
                                         values)
        assert len(totals) == n_groups
        assert len(fallbacks) <= 0.01 * n_groups
        bounds = [*np.flatnonzero(np.diff(codes, prepend=-1)).tolist(), len(codes)]
        assert totals == [math.fsum(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


class TestCbpCsv:
    HEADER = "zcta,naics,size_bin,establishments,suppressed\n"

    def test_reads_plain_tuples_skipping_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cbp.csv"
        path.write_text(
            "# provenance\n" + self.HEADER
            + "10001, 441100 ,1-4,3,0\n\n# note\n10001,441100,,2,1\n10002,311811,5-9,1,\n"
        )
        records = read_cbp_csv(path)
        assert len(records) == 3
        assert list(records) == [
            ("10001", "441100", "1-4", 3, False),
            ("10001", "441100", "", 2, True),
            ("10002", "311811", "5-9", 1, False),
        ]
        # codes follow the sorted labels, whatever order the file gives them in
        assert records.zcta.labels == ["10001", "10002"]
        assert records.naics.labels == ["311811", "441100"]
        assert records.naics.codes.tolist() == [1, 1, 0]

    def test_flag_column_is_optional(self, tmp_path):
        path = tmp_path / "cbp.csv"
        path.write_text("zcta,naics,size_bin,establishments\n10001,441100,1-4,3\n")
        assert list(read_cbp_csv(path)) == [("10001", "441100", "1-4", 3, False)]

    @pytest.mark.parametrize("bad_row, field", [(" ,441100,1-4,3,0", "zcta"),
                                                ("10002,,1-4,3,0", "naics")])
    def test_blank_code_names_row_and_field(self, tmp_path, bad_row, field):
        path = tmp_path / "cbp.csv"
        path.write_text(self.HEADER + "10001,441100,1-4,3,0\n" + bad_row + "\n")
        with pytest.raises(IngestionError) as excinfo:
            read_cbp_csv(path)
        assert str(excinfo.value) == f"{path} row 2: field {field!r}: blank"

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("10002,311811,5-9,x,0", "row 2: field 'establishments': not an integer: 'x'"),
            ("10002,311811,5-9,1,yes", "row 2: field 'suppressed': not an integer: 'yes'"),
            # the flag is parsed first, as before
            ("10002,311811,,x,y", "row 2: field 'suppressed': not an integer: 'y'"),
        ],
    )
    def test_bad_value_names_data_row_after_comments(self, tmp_path, bad_row, message):
        path = tmp_path / "cbp.csv"
        path.write_text(
            "# provenance\n" + self.HEADER + "10001,441100,1-4,3,0\n\n# note\n\n"
            + bad_row + "\n"
        )
        with pytest.raises(IngestionError) as excinfo:
            read_cbp_csv(path)
        assert str(excinfo.value) == f"{path} {message}"

    def test_short_row_names_row_and_field_counts(self, tmp_path):
        path = tmp_path / "cbp.csv"
        path.write_text(self.HEADER + "10001,441100,1-4,3,0\n# note\n00502\n")
        with pytest.raises(IngestionError) as excinfo:
            read_cbp_csv(path)
        assert str(excinfo.value) == f"{path} row 2: expected 5 fields, got 1"

    def test_header_errors(self, tmp_path):
        path = tmp_path / "cbp.csv"
        path.write_text("# only a comment\n\n")
        with pytest.raises(IngestionError, match="empty file"):
            read_cbp_csv(path)
        path.write_text("zcta,naics,size_bin\n10001,441100,1-4\n")
        with pytest.raises(IngestionError, match="missing required columns: establishments"):
            read_cbp_csv(path)
        path.write_text(self.HEADER.replace("suppressed", "naics") + "10001,441100,1-4,3,0\n")
        with pytest.raises(IngestionError, match="repeated column names: naics"):
            read_cbp_csv(path)


class TestNationalSizes:
    def test_mean_size_memo_returns_the_computed_value(self):
        warm = NationalSizeDistribution(_NATIONAL_TABLE)
        for naics, exclude in [("441200", ["1-4"]), ("441200", ("1-4",)), ("311811", []),
                               ("441100", ["1-4", "5-9", "10-19", "20-49", OPEN_BIN]),
                               ("99999", [])]:
            assert warm.mean_size(naics, exclude) == warm.mean_size(naics, iter(exclude))
            assert warm.mean_size(naics, exclude) == (
                NationalSizeDistribution(_NATIONAL_TABLE).mean_size(naics, exclude)
            )
        assert warm.mean_size("99999") is None

    def test_duplicate_bin_names_both_rows(self, tmp_path):
        path = tmp_path / "national.csv"
        path.write_text(
            "naics,size_bin,establishments,employment\n"
            "31,1-4,10,25\n31,5-9,10,40\n31,1-4,20,60\n"
        )
        with pytest.raises(
            IngestionError, match=r"row 3: naics/size_bin \('31', '1-4'\) already given at row 1"
        ):
            NationalSizeDistribution.from_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("31,5-9,-1,40", "field 'establishments': negative: -1.0"),
            ("31,5-9,10,-10", "field 'employment': negative: -10.0"),
            ("31,5-9,0,40", "field 'employment': 40.0 workers in 0 establishments"),
            ("31,5-9,1e-300,40", "field 'establishments': not a whole number: 1e-300"),
            ("31,5-9,2.5,40", "field 'establishments': not a whole number: 2.5"),
        ],
    )
    def test_impossible_counts_name_row_and_field(self, tmp_path, row, message):
        path = tmp_path / "national.csv"
        path.write_text(f"naics,size_bin,establishments,employment\n31,1-4,10,25\n{row}\n")
        with pytest.raises(IngestionError) as excinfo:
            NationalSizeDistribution.from_csv(path)
        assert str(excinfo.value) == f"{path} row 2: {message}"


class TestDensity:
    def test_single_region_normalizes_to_one(self):
        assert normalize_density([("z", 100.0, 10.0)], {"z": 5.0}) == {
            "z": pytest.approx(1.0)
        }

    def test_two_equal_regions(self):
        out = normalize_density(
            [("a", 100.0, 10.0), ("b", 300.0, 10.0)], {"a": 7.0, "b": 7.0}
        )
        assert list(out) == ["a", "b"]
        assert out["a"] == pytest.approx(0.5)
        assert out["b"] == pytest.approx(1.5)

    def test_weighted_mean_is_one(self):
        rng = np.random.default_rng(43)
        records = [(f"z{i}", float(rng.uniform(10, 1e5)), float(rng.uniform(0.5, 50)))
                   for i in range(40)]
        weights = {f"z{i}": float(rng.uniform(0.1, 100)) for i in range(40)}
        out = normalize_density(records, weights)
        mean = sum(weights[zcta] * d for zcta, d in out.items()) / sum(
            weights[zcta] for zcta in out
        )
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_zero_area_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            out = normalize_density([("a", 10.0, 0.0), ("b", 10.0, 1.0)], {"a": 1.0, "b": 1.0})
        assert list(out) == ["b"]

    @pytest.mark.parametrize("area", [
        0.5,  # a density of inf: the weighted sum is inf
        1.0,  # finite products whose sum leaves the float range inside fsum
    ])
    def test_mean_beyond_the_float_range_raises(self, area):
        records = [("a", 1e308, area), ("b", 1e308, area), ("c", 1.0, 1.0)]
        weights = {"a": 1.0, "b": 1.0, "c": 1.0}
        with pytest.raises(IngestionError, match="mean density is not finite"):
            normalize_density(records, weights)

    def test_no_overlapping_employment_raises(self):
        with pytest.raises(IngestionError):
            normalize_density([("a", 10.0, 1.0)], {"b": 3.0})

    def test_duplicate_zcta_names_both_rows(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("zcta,population,land_area_km2\na,10,1\nb,20,1\na,30,1\n")
        with pytest.raises(IngestionError, match=r"row 3: zcta 'a' already given at row 1"):
            read_density_csv(path)


class Table(NamedTuple):
    """A caller of :func:`csvio.read_table` and the files it is tried on."""

    read: Callable  # path -> a value whose repr shows every bit read
    header: str
    row: st.SearchStrategy  # a clean data row's fields
    key: Callable | None  # a clean row's key, so that a clean file repeats none
    base: tuple[str, ...]  # four clean lines; a fault goes in as the fourth
    faults: dict  # name -> (line, message after "<path> row 4: ")


_LOCATION_HEADER = ("zcta,density,share_teamwork,share_customer,share_communication,"
                    "share_presence,employment,note")
TABLES = {
    "density": Table(
        read_density_csv,
        "zcta,population,land_area_km2,note",
        st.tuples(st.sampled_from(["10001", " 10002", "10003 ", "00501", "z"]),
                  st.sampled_from(["40", " 1e3", "0", "-0", "1_000", "7.25", "+3"]),
                  st.sampled_from(["2.5", "0.0", "1E-3 ", "123456789.5"])),
        lambda fields: fields[0].strip(),
        ("10001,40,2.5,x", "10002,30,1.5,x", "10003,20,0.5,x", "10004,1,1,x"),
        {
            "blank label": ("  ,40,2.5,x", "field 'zcta': blank"),
            "blank number": ("10009,,2.5,x", "field 'population': not a number: ''"),
            "non-numeric": ("10009,40,2.5km,x",
                            "field 'land_area_km2': not a number: '2.5km'"),
            "negative": ("10009,-40,2.5,x", "field 'population': negative: -40.0"),
            "nan": ("10009,nan,2.5,x", "field 'population': not a finite number: 'nan'"),
            "inf": ("10009,40, inf,x", "field 'land_area_km2': not a finite number: ' inf'"),
            "repeated": (" 10001,40,2.5,x", "zcta '10001' already given at row 1"),
            "short": ("10009,40", "expected 4 fields, got 2"),
        },
    ),
    "location index": Table(
        geo.read_location_index_csv,
        _LOCATION_HEADER,
        st.tuples(st.sampled_from(["z1", " ", "10001"]),
                  st.sampled_from(["1", " 0.25", "1e-3", "7_0"]),
                  *[st.sampled_from(["0", "0.1", " 1", "-0"])] * 4,
                  st.sampled_from(["0", "5", " 12.5"])),
        None,
        ("z1,1,0,0,0,0,5,x", "z2,2,0.1,0.2,0.3,0.4,6,x", "z3,3,1,1,1,1,7,x",
         "z4,4,0,0,0,0,8,x"),
        {
            "zero": ("z9,0,0.1,0.1,0.1,0.1,5,x", "field 'density': not positive: 0.0"),
            "negative zero": ("z9,-0,0.1,0.1,0.1,0.1,5,x",
                              "field 'density': not positive: -0.0"),
            "negative density": ("z9,-2,0.1,0.1,0.1,0.1,5,x",
                                 "field 'density': negative: -2.0"),
            "negative share": ("z9,1,0.1,-0.2,0.1,0.1,5,x",
                               "field 'share_customer': negative: -0.2"),
            "negative employment": ("z9,1,0.1,0.1,0.1,0.1,-5,x",
                                    "field 'employment': negative: -5.0"),
            "non-numeric": ("z9,abc,0.1,0.1,0.1,0.1,5,x",
                            "field 'density': not a number: 'abc'"),
            "inf": ("z9,1,0.1,0.1,0.1,inf,5,x",
                    "field 'share_presence': not a finite number: 'inf'"),
            "short": ("z9,1,0.1", "expected 8 fields, got 3"),
        },
    ),
    "national sizes": Table(
        lambda path: NationalSizeDistribution.from_csv(path).codes.entries,
        "naics,size_bin,establishments,employment,note",
        st.tuples(st.sampled_from(["11", " 111", "44-45 "]),
                  st.sampled_from(["1-4", " 5-9", "1000+"]),
                  st.sampled_from([("0", "0"), ("0", " -0"), ("3", "7.5"), (" 1e2", "0"),
                                   ("+7", "1_000")])).map(lambda t: (*t[:2], *t[2])),
        lambda fields: (fields[0].strip(), fields[1].strip()),
        ("11,1-4,3,7.5,x", "11,5-9,2,14,x", "21,1-4,1,2.5,x", "22,1-4,5,12,x"),
        {
            "blank code": (" ,1-4,3,7.5,x", "field 'naics': blank"),
            "blank bin": ("31,,3,7.5,x", "field 'size_bin': blank"),
            "repeated": ("11, 5-9,1,1,x", "naics/size_bin ('11', '5-9') already given at row 2"),
            "negative": ("31,1-4,-3,7.5,x", "field 'establishments': negative: -3.0"),
            "nan": ("31,1-4,3,nan,x", "field 'employment': not a finite number: 'nan'"),
            "fraction": ("31,1-4,2.5,7.5,x",
                         "field 'establishments': not a whole number: 2.5"),
            "no plants": ("31,1-4,0,3,x", "field 'employment': 3.0 workers in 0 establishments"),
            "short": ("31,1-4,3", "expected 5 fields, got 3"),
        },
    ),
    "matrix": Table(
        industries.read_matrix_csv,
        "industry_code,soc_code,employment,note",
        st.tuples(st.sampled_from(["11", " 21", "44-45"]),
                  st.sampled_from(["11-1011", " 13-2011 "]),
                  st.sampled_from(["0", "5", " 1e3", "-0", "2.5"])),
        None,
        ("11,11-1011,5,x", "11,13-2011,6,x", "21,11-1011,7,x", "21,11-1011,8,x"),
        {
            "blank industry": (" ,11-1011,5,x", "field 'industry_code': blank"),
            "blank soc": ("31,,5,x", "field 'soc_code': blank"),
            "negative": ("31,11-1011,-5,x", "field 'employment': negative: -5.0"),
            "nan": ("31,11-1011,NaN,x", "field 'employment': not a finite number: 'NaN'"),
            "non-numeric": ("31,11-1011,5 workers,x",
                            "field 'employment': not a number: '5 workers'"),
            "short": ("31", "expected 4 fields, got 1"),
        },
    ),
    "industry names": Table(
        industries.read_names_csv,
        "industry_code,name,note",
        st.tuples(st.sampled_from(["11", " 21", "44-45", "622"]),
                  st.sampled_from(["Agriculture", " Mining ", "Retail trade"])),
        lambda fields: fields[0].strip(),
        ("11,Agriculture,x", "21,Mining,x", "22,Utilities,x", "23,Construction,x"),
        {
            "blank code": ("  ,Retail trade,x", "field 'industry_code': blank"),
            "blank name": ("44-45,,x", "field 'name': blank"),
            "repeated": ("21 ,Mining again,x", "industry_code '21' already given at row 2"),
            "short": ("44-45", "expected 3 fields, got 1"),
        },
    ),
    "region groups": Table(
        read_region_groups,
        "zcta,region,note",
        st.tuples(st.sampled_from(["10001", " 10002", "00501"]),
                  st.sampled_from(["metro", " upstate ", "r"])),
        lambda fields: fields[0].strip(),
        ("10001,metro,x", "10002,metro,x", "10003,upstate,x", "10004,r,x"),
        {
            "blank zcta": (",metro,x", "field 'zcta': blank"),
            "blank region": ("10009, ,x", "field 'region': blank"),
            "repeated": ("10003,metro,x", "zcta '10003' already given at row 3"),
            "short": ("10009", "expected 3 fields, got 1"),
        },
    ),
}
_FAULTS = [(table, fault) for table in TABLES for fault in TABLES[table].faults]


def _without_repeats(table, rows):
    if table.key is None:
        return rows
    seen = set()
    return [row for row in rows
            if table.key(row) not in seen and not seen.add(table.key(row))]


def _row_loop_outcome(table, path):
    """What ``table.read`` gives when :func:`csvio.read_table` is its row loop."""
    with mock.patch.object(csvio, "read_table", csvio._table_rows):
        return outcome(table.read, path)


class TestTableReaders:
    """Each caller of :func:`csvio.read_table` reads what its row loop reads,
    and fails as it fails, at every block size."""

    @pytest.mark.parametrize("name", sorted(TABLES))
    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(data=st.data(), block=st.sampled_from([1, 2, 512]))
    def test_clean_file_never_runs_the_row_loop(self, tmp_path_factory, name, data, block):
        table = TABLES[name]
        rows = _without_repeats(table, data.draw(st.lists(table.row, max_size=12)))
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_text(f"# provenance\n{table.header}\n\n"
                        + "".join(f"{','.join(row)},x\n" for row in rows))
        want = _row_loop_outcome(table, path)
        loop = mock.patch.object(csvio, "_table_rows", side_effect=AssertionError)
        with mock.patch.object(csvio, "BLOCK_ROWS", block), loop:
            got = table.read(path)
        assert want[0] == "ok"
        assert repr(got) == repr(want[1])

    @pytest.mark.parametrize("block", [1, 2, 512])
    @pytest.mark.parametrize("name, fault", _FAULTS)
    def test_each_fault_gives_the_row_loops_message(self, tmp_path, name, fault, block):
        table = TABLES[name]
        line, message = table.faults[fault]
        path = tmp_path / "table.csv"
        first, second, third, last = table.base
        path.write_text(f"{table.header}\n{first}\n{second}\n{third}\n{line}\n{last}\n")
        assert _row_loop_outcome(table, path) == ("error", f"{path} row 4: {message}")
        with mock.patch.object(csvio, "BLOCK_ROWS", block):
            assert outcome(table.read, path) == ("error", f"{path} row 4: {message}")

    @pytest.mark.parametrize("name", sorted(TABLES))
    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(data=st.data(), block=st.sampled_from([1, 2, 512]))
    def test_mixed_faults_give_the_row_loops_outcome(self, tmp_path_factory, name, data,
                                                    block):
        """Faults in any rows and blocks: the error (or records) of the row loop,
        whose whole-file read names a short row before any value."""
        table = TABLES[name]
        faults = [line for line, _ in table.faults.values()]
        lines = data.draw(st.lists(
            st.one_of(table.row.map(lambda row: ",".join(row) + ",x"), st.sampled_from(faults)),
            min_size=1, max_size=10,
        ))
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_text(table.header + "\n" + "".join(line + "\n" for line in lines))
        with mock.patch.object(csvio, "BLOCK_ROWS", block):
            got = outcome(table.read, path)
        assert repr(got) == repr(_row_loop_outcome(table, path))


# (population, land area, employment) per region: the first region has all three
# positive, so some employment overlaps the density data; any other may hold zeros
_REGION_RANGES = ((1.0, 1e7), (0.1, 1e4), (0.5, 1e5))
_DENSITY_REGIONS = st.tuples(
    st.tuples(*(st.floats(lo, hi) for lo, hi in _REGION_RANGES)),
    st.lists(st.tuples(*(st.just(0.0) | st.floats(lo, hi) for lo, hi in _REGION_RANGES)),
             max_size=30),
).map(lambda regions: [regions[0], *regions[1]])


class TestDensityProperties:
    @settings(deadline=None, derandomize=True, database=None)
    @given(_DENSITY_REGIONS, st.floats(1e-3, 1e3))
    def test_weighted_mean_is_one_and_population_scale_is_free(self, regions, factor):
        records = [(f"z{i:02d}", pop, area) for i, (pop, area, _) in enumerate(regions)]
        weights = {f"z{i:02d}": emp for i, (_, _, emp) in enumerate(regions)}
        out = normalize_density(records, weights)
        weighted = [(weights[zcta], d) for zcta, d in out.items() if weights[zcta] > 0.0]
        mean = math.fsum(w * d for w, d in weighted) / math.fsum(w for w, _ in weighted)
        assert mean == pytest.approx(1.0, rel=1e-12)
        scaled = normalize_density([(z, factor * pop, area) for z, pop, area in records],
                                   weights)
        assert list(scaled) == list(out)
        for zcta, d in out.items():
            assert scaled[zcta] == pytest.approx(d, rel=1e-12)


def _mix(code, chi_comm, chi_presence=0.0):
    return IndustryMix(
        industry_code=code,
        name=code,
        shares={},
        chi={
            "teamwork": 0.0,
            "customer": chi_comm,
            "communication": chi_comm,
            "presence": chi_presence,
        },
    )


def exposures_of(cells, mixes):
    """``location_exposure`` of the frame the cells join into, every ZCTA at density 1."""
    resolver = MixResolver(mixes)
    frame = cell_parameters(cells, resolver, {zcta: 1.0 for zcta in cells.zcta.labels})
    return location_exposure(frame, mixes), resolver


COMMUNICATION = GROUPS.index("communication")


class TestRegionalExposure:
    def test_single_industry_region(self):
        exposures, resolver = exposures_of(cells_of([("z", "441100", 50.0)]), [_mix("44", 0.6)])
        assert resolver.unresolved == set()
        assert exposures["z"][1][COMMUNICATION] == pytest.approx(0.6)

    def test_fifty_fifty_mix(self):
        mixes = [_mix("44", 0.6), _mix("31", 0.2)]
        cells = cells_of([("z", "441100", 30.0), ("z", "311811", 30.0)])
        exposures, _ = exposures_of(cells, mixes)
        assert exposures["z"][1][COMMUNICATION] == pytest.approx(0.4)

    def test_split_cell_invariance(self):
        mixes = [_mix("44", 0.6), _mix("31", 0.2)]
        whole = cells_of([("z", "441100", 30.0), ("z", "311811", 12.0)])
        split = cells_of([
            ("z", "441100", 11.0),
            ("z", "441100", 19.0),
            ("z", "311811", 12.0),
        ])
        (a_employment, a_shares), = exposures_of(whole, mixes)[0].values()
        (b_employment, b_shares), = exposures_of(split, mixes)[0].values()
        for g in range(len(GROUPS)):
            assert a_shares[g] == pytest.approx(b_shares[g], abs=1e-12)
        assert a_employment == pytest.approx(b_employment, abs=1e-12)

    def test_unresolvable_cells_skipped(self, caplog):
        cells = cells_of([("z", "441100", 10.0), ("z", "99999", 99.0)])
        with caplog.at_level("WARNING"):
            exposures, resolver = exposures_of(cells, [_mix("44", 0.6)])
        assert resolver.unresolved == {"99999"}
        assert "1 cells skipped: no industry mix for codes 99999" in caplog.messages
        assert exposures["z"][0] == 10.0

    def test_region_employment_totals(self):
        cells = cells_of([
            ("a", "441100", 10.0),
            ("a", "311811", 5.0),
            ("b", "441100", 1.0),
        ])
        assert region_employment(cells) == {"a": 15.0, "b": 1.0}


class TestLowess:
    def test_exact_linear_recovered(self):
        rng = np.random.default_rng(47)
        x = np.sort(rng.uniform(-3, 3, 200))
        y = 2.0 * x + 1.0
        w = rng.uniform(0.5, 2.0, 200)
        grid, fitted = lowess_curve(x, y, w, bandwidth=0.5)
        assert np.max(np.abs(fitted - (2.0 * grid + 1.0))) < 1e-6

    def test_constant_data(self):
        rng = np.random.default_rng(53)
        x = rng.uniform(0, 10, 50)
        grid, fitted = lowess_curve(x, np.full(50, 3.25), bandwidth=0.3)
        assert np.max(np.abs(fitted - 3.25)) < 1e-12

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(59)
        n = 100
        x = rng.uniform(-2, 4, n)
        y = np.sin(x) + rng.normal(0, 0.3, n)
        w = rng.uniform(0.5, 3.0, n)
        grid, fitted = lowess_curve(x, y, w, bandwidth=0.5)
        ogrid, ofit = oracle_lowess(list(x), list(y), list(w), 0.5)
        assert np.max(np.abs(np.asarray(ogrid) - grid)) < 1e-12
        assert np.max(np.abs(np.asarray(ofit) - fitted)) < 1e-9

    def test_duplicate_x_handled(self):
        x = np.array([1.0] * 6 + [2.0] * 6)
        y = np.array([1.0] * 6 + [3.0] * 6)
        grid, fitted = lowess_curve(x, y, bandwidth=0.4)
        assert fitted[0] == pytest.approx(1.0)
        assert fitted[-1] == pytest.approx(3.0)

    def test_degenerate_window_variance_falls_back_to_mean(self):
        # at the left edge the window reaches the far point, which sits
        # exactly on the radius (weight 0), leaving a zero-variance cluster
        x = np.array([1.0] * 10 + [3.0])
        y = np.array([2.0] * 10 + [50.0])
        grid, fitted = lowess_curve(x, y, bandwidth=1.0)
        assert fitted[0] == pytest.approx(2.0)
        ogrid, ofit = oracle_lowess(list(x), list(y), [1.0] * 11, 1.0)
        assert np.max(np.abs(np.asarray(ofit) - fitted)) < 1e-9

    @pytest.mark.parametrize("x, w, bandwidth", [
        # zero radius at both ends of the grid
        ([1.0] * 6 + [2.0] * 6, None, 0.4),
        # the zero-variance cluster of the test above, an odd number of points
        ([1.0] * 10 + [3.0], None, 1.0),
        # no point weight inside the left windows: the nearest points are averaged
        (np.linspace(0.0, 9.0, 20), [0.0] * 10 + [1.0] * 10, 0.2),
        (np.random.default_rng(61).uniform(-2, 4, 101), None, 0.3),
    ])
    def test_series_sharing_windows_equal_single_fits_bit_for_bit(self, x, w, bandwidth):
        rng = np.random.default_rng(67)
        if w is not None:
            w = np.asarray(w)
        ys = rng.normal(size=(4, len(x)))
        grid, fitted = lowess_curve(x, ys, w, bandwidth=bandwidth)
        assert fitted.shape == (4, 100)
        for series, row in zip(ys, fitted):
            alone_grid, alone = lowess_curve(x, series, w, bandwidth=bandwidth)
            assert alone.shape == (100,)
            assert np.array_equal(alone_grid, grid) and np.array_equal(alone, row)

    def test_grid_is_100_points_spanning_data(self):
        x = np.linspace(0, 9, 30)
        grid, _ = lowess_curve(x, x, bandwidth=1.0)
        assert len(grid) == 100
        assert grid[0] == 0.0 and grid[-1] == 9.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lowess_curve([1, 2, 3], [1, 2, 3], bandwidth=0.5)
        x = list(range(12))
        with pytest.raises(ValueError):
            lowess_curve(x, x, bandwidth=0.0)
        with pytest.raises(ValueError):
            lowess_curve(x, x, bandwidth=1.5)
