"""Employment estimation, imputation, density normalization, exposure, lowess."""

import itertools
import math
import random
import tracemalloc
from dataclasses import fields
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
    OPEN_BIN,
    CbpColumns,
    Coded,
    NationalSizeDistribution,
    build_cells,
    group_totals,
    location_exposure,
    lowess_curve,
    normalize_density,
    read_cbp_csv,
    read_density_csv,
    region_employment,
)
from distancing.industries import GROUPS, IndustryMix, MixResolver

import faults
from frames import RUN, cbp_of, cells_of, outcome, results_of


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
    cells, dropped = build_cells(cbp_of(rows), national or NATIONAL, RUN.open_bin_mean, ())
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
        assert by_range.open_bin_mean(naics, RUN.open_bin_mean) == 3100 / 2

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
        cells, dropped = build_cells(rows, NATIONAL, RUN.open_bin_mean, ())
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
        cells, dropped = build_cells(rows, NATIONAL, RUN.open_bin_mean, ())
        assert [(c.zcta, c.employment) for c in cells] == [("z4", 0.0)]
        assert [reason for _, _, reason in dropped] == [
            "negative establishment count in bin '1-4'",
            "unknown size bin label '0-3'",
            "suppressed establishment count cannot be negative",
        ]

    def test_range_exclusion_drops_every_sector_in_the_range(self, caplog):
        codes = ["441100", "451110", "461000", "622110", "621111", "311111"]
        rows = cbp_of([("10001", code, "1-4", 4) for code in codes])
        with caplog.at_level("INFO"):
            cells, dropped = build_cells(rows, NATIONAL, RUN.open_bin_mean, ["44-45", "622"])
        assert [cell.industry_code for cell in cells] == ["311111", "461000", "621111"]
        assert dropped == []
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("distancing.geo", "excluded sectors removed 3 establishment cells")]

    def test_huge_counts_total_the_same_in_every_row_order(self):
        """Products beyond 2**51 may round as they add up: the cell's rows are
        then summed exactly, so every order gives the correctly rounded total."""
        rows = [("z", "441100", "1-4", 10**16 + 1), ("z", "441100", "5-9", 3),
                ("z", "441100", "10-19", 10**15 + 7)]
        national = NationalSizeDistribution({"44": {"1-4": (100, 250)}})
        for order in itertools.permutations(rows):
            (cell,), dropped = build_cells(cbp_of(order), national, RUN.open_bin_mean, ())
            assert (cell.employment, dropped) == (3.950000000000012e16, [])

    def test_peak_memory_does_not_grow_with_the_bin_labels(self):
        """100 000 one-row cells over the 9 known labels, then the same cells
        with 50 unknown labels on 50 more rows, which drop their cells: the
        second build's traced peak is within 1.5 times the first's."""
        n, known = 100_000, [*DEFAULT_BIN_MIDPOINTS, OPEN_BIN]

        def traced_peak(extra):
            zcta = np.concatenate([np.arange(n), np.arange(extra)])
            bins = np.concatenate([np.arange(n) % len(known), len(known) + np.arange(extra)])
            cbp = CbpColumns(
                Coded([f"{z:06d}" for z in range(n)], zcta),
                Coded(["441100"], np.zeros(n + extra, dtype=np.int64)),
                Coded.from_codes([*known, *(f"x{j:02d}" for j in range(extra))], bins),
                np.ones(n + extra, dtype=np.int64), np.zeros(n + extra, dtype=bool),
            )
            tracemalloc.start()
            try:
                cells, dropped = build_cells(cbp, NATIONAL, RUN.open_bin_mean, ())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (len(cells), len(dropped)) == (n - extra, extra)
            return peak

        assert traced_peak(50) <= 1.5 * traced_peak(0)


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


def mean_size(national, naics, exclude_bins=()):
    """Mean plant size over the bins not in ``exclude_bins``: one pair of
    :meth:`NationalSizeDistribution.mean_sizes`, None where that gives nan."""
    excluded = sorted(set(exclude_bins))
    (mean,) = national.mean_sizes([naics], np.array([(1 << len(excluded)) - 1]), excluded)
    return None if math.isnan(mean) else float(mean)


def impute_suppressed(known_bins, suppressed_count, naics, national, bin_midpoints):
    """One cell's (employment, imputed fraction): withheld plants at the complement mean."""
    if suppressed_count < 0:
        raise IngestionError("suppressed establishment count cannot be negative")
    known = estimate_cell_employment(known_bins, bin_midpoints)
    if suppressed_count == 0:
        return known, 0.0
    mean = mean_size(national, naics, known_bins.keys())
    if mean is None:
        raise IngestionError(f"no national size distribution covers NAICS {naics!r}")
    imputed = suppressed_count * mean
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
    @given(_CBP_ROWS, st.sampled_from([RUN.open_bin_mean, 900.0]), st.randoms())
    def test_order_free_and_equal_to_uncached_reference(self, rows, open_bin_mean, rnd):
        national = NationalSizeDistribution(_NATIONAL_TABLE)
        cells, dropped = build_cells(cbp_of(rows), national, open_bin_mean, ())
        got = [(c.zcta, c.industry_code, c.employment, c.imputed_fraction) for c in cells]
        assert (got, dropped) == reference_cells(rows, open_bin_mean)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        # the same (now warm) table and a fresh one give the same bits
        for table in (national, NationalSizeDistribution(_NATIONAL_TABLE)):
            again, again_dropped = build_cells(cbp_of(shuffled), table, open_bin_mean, ())
            assert [
                (c.zcta, c.industry_code, c.employment, c.imputed_fraction) for c in again
            ] == got
            assert again_dropped == dropped


class _CountedSizes(NationalSizeDistribution):
    """Records each grouped ``mean_sizes`` call as its list of (code, excluded bins)."""

    def __init__(self, table):
        super().__init__(table)
        self.calls = []

    def mean_sizes(self, naics, reported, bins):
        self.calls.append([(code, frozenset(b for j, b in enumerate(bins) if mask >> j & 1))
                           for code, mask in zip(naics, reported.tolist())])
        return super().mean_sizes(naics, reported, bins)


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
        want = reference_cells(rows, RUN.open_bin_mean)
        for order in (sorted(rows), shuffled):
            national = _CountedSizes(_NATIONAL_TABLE)
            cells, dropped = build_cells(cbp_of(order), national, RUN.open_bin_mean, ())
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
        cells, dropped = build_cells(cbp_of(rows), national, RUN.open_bin_mean, ())
        assert [sorted(call) for call in national.calls] == [
            [("44", frozenset({"1-4"})), ("44", frozenset({"5-9"}))]
        ]
        assert [c.employment for c in cells] == [
            5.0 + 1 * mean_size(national, "44", ["1-4"]),
            12.5 + 2 * mean_size(national, "44", ["1-4"]),
            7.0 + 1 * mean_size(national, "44", ["5-9"]),
        ]
        assert dropped == [
            ("10002", "99999", "no national size distribution covers NAICS '99999'")
        ]


_FRAMES = {
    "cbp": cbp_of([("10002", "441200", "1-4", 4), ("10001", "31", "", 2, True)]),
    "cells": cells_of([("10002", "441200", 12.5, 0.25), ("10001", "31", 3.0)]),
    "frame": results_of([("10002", "44", 2.0, 0.5, 0.125, 7.0),
                         ("10001", "31", 1.0, 1.0, 0.0, 3.0)]),
}


class TestColumnRows:
    @pytest.mark.parametrize("name", _FRAMES)
    def test_rows_are_named_tuples_of_the_fields_in_order(self, name):
        frame = _FRAMES[name]
        names = tuple(f.name for f in fields(frame))
        rows = list(frame)
        assert len(rows) == len(frame) == 2
        for i, row in enumerate(rows):
            assert row._fields == names
            for field in names:
                column = getattr(frame, field)
                assert getattr(row, field) == (None if column is None else column.tolist()[i])

    def test_an_unset_column_gives_none_in_every_row(self):
        frame = _FRAMES["frame"]
        assert frame.regime is None and frame.subsidy is not None
        assert [row.regime for row in frame] == [None, None]
        assert [row.subsidy for row in frame] == [0.125, 0.0]


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

    def test_bad_value_names_data_row_after_comments(self, tmp_path):
        path = tmp_path / "cbp.csv"  # the flag is parsed first, as before
        path.write_text("# provenance\n" + self.HEADER
                        + "10001,441100,1-4,3,0\n\n# note\n\n10002,311811,,x,y\n")
        with pytest.raises(IngestionError) as excinfo:
            read_cbp_csv(path)
        assert str(excinfo.value) == f"{path} row 2: field 'suppressed': not an integer: 'y'"


class TestNationalSizes:
    def test_mean_sizes_of_many_pairs_equal_each_pair_alone(self):
        pairs = [("441200", ["1-4"]), ("311811", []), ("99999", []),
                 ("441100", ["1-4", "5-9", "10-19", "20-49", OPEN_BIN]), ("441200", ["5-9"])]
        bins = [*DEFAULT_BIN_MIDPOINTS, OPEN_BIN]
        reported = np.array([sum(1 << j for j, b in enumerate(bins) if b in exclude)
                             for _, exclude in pairs])
        national = NationalSizeDistribution(_NATIONAL_TABLE)
        together = national.mean_sizes([naics for naics, _ in pairs], reported, bins).tolist()
        alone = [mean_size(NationalSizeDistribution(_NATIONAL_TABLE), *pair) for pair in pairs]
        assert together[:2] + together[3:] == alone[:2] + alone[3:]
        assert math.isnan(together[2]) and alone[2] is None


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


class Table(NamedTuple):
    """A caller of :func:`csvio.read_table`, and the clean rows it is tried on."""

    read: Callable  # path -> a value whose repr shows every bit read
    row: st.SearchStrategy  # a clean data row's fields, in the fault table file's columns
    key: Callable | None  # a clean row's key, so that a clean file repeats none


TABLES = {  # by the name of the fixture file in faults.FILES
    "density.csv": Table(
        read_density_csv,
        st.tuples(st.sampled_from(["10001", " 10002", "10003 ", "00501", "z"]),
                  st.sampled_from(["40", " 1e3", "0", "-0", "1_000", "7.25", "+3"]),
                  st.sampled_from(["2.5", "0.0", "1E-3 ", "123456789.5"])),
        lambda fields: fields[0].strip(),
    ),
    "location-index.csv": Table(
        geo.read_location_index_csv,
        st.tuples(st.sampled_from(["z1", " ", "10001"]),
                  st.sampled_from(["1", " 0.25", "1e-3", "7_0"]),
                  *[st.sampled_from(["0", "0.1", " 1", "-0"])] * 4,
                  st.sampled_from(["0", "5", " 12.5"])),
        None,
    ),
    "national_sizes.csv": Table(
        lambda path: NationalSizeDistribution.from_csv(path).codes.entries,
        st.tuples(st.sampled_from(["11", " 111", "44-45 "]),
                  st.sampled_from(["1-4", " 5-9", "1000+"]),
                  st.sampled_from([("0", "0"), ("0", " -0"), ("3", "7.5"), (" 1e2", "0"),
                                   ("+7", "1_000")])).map(lambda t: (*t[:2], *t[2])),
        lambda fields: (fields[0].strip(), fields[1].strip()),
    ),
    "matrix.csv": Table(
        industries.read_matrix_csv,
        st.tuples(st.sampled_from(["11", " 21", "44-45"]),
                  st.sampled_from(["11-1011", " 13-2011 "]),
                  st.sampled_from(["0", "5", " 1e3", "-0", "2.5"])),
        None,
    ),
    "names.csv": Table(
        industries.read_names_csv,
        st.tuples(st.sampled_from(["11", " 21", "44-45", "622"]),
                  st.sampled_from(["Agriculture", " Mining ", "Retail trade"])),
        lambda fields: fields[0].strip(),
    ),
    "regions.csv": Table(
        read_region_groups,
        st.tuples(st.sampled_from(["10001", " 10002", "00501"]),
                  st.sampled_from(["metro", " upstate ", "r"])),
        lambda fields: fields[0].strip(),
    ),
}


def _cases(name):
    """The fault table's cases that edit the file ``name``, and only it, under its command."""
    return [case for case in faults.CASES.values()
            if [edit[0] for edit in case.edits] == [name] and case.argv == faults.FILES[name][0]]


def _without_repeats(table, rows):
    seen = set()
    return [row for row in rows if table.key is None
            or table.key(row) not in seen and not seen.add(table.key(row))]


def _row_loop_outcome(table, path):
    """What ``table.read`` gives when :func:`csvio.read_table` is its row loop."""
    with mock.patch.object(csvio, "read_table", csvio._table_rows):
        return outcome(table.read, path)


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """The fault table's fixture, which each case copies what it edits from."""
    shared = tmp_path_factory.mktemp("shared")
    faults.write_fixture(shared, shared / "out")
    return shared


class TestTableReaders:
    """Each caller of :func:`csvio.read_table` reads what its row loop reads,
    and fails as it fails, at every block size."""

    @pytest.mark.parametrize("name", sorted(TABLES))
    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(data=st.data(), block=st.sampled_from([1, 2, 512]))
    def test_clean_file_never_runs_the_row_loop(self, shared, tmp_path_factory, name, data,
                                                block):
        table, header = TABLES[name], (shared / name).read_text().split("\n")[0]
        least = 0 if name in ("density.csv", "location-index.csv") else 1  # the rest need one
        rows = _without_repeats(table, data.draw(st.lists(table.row, min_size=least,
                                                          max_size=12)))
        path = tmp_path_factory.mktemp("table") / "table.csv"  # with a column no one reads
        path.write_text(f"# provenance\n{header},note\n\n"
                        + "".join(f"{','.join(row)},x\n" for row in rows))
        want = _row_loop_outcome(table, path)
        loop = mock.patch.object(csvio, "_table_rows", side_effect=AssertionError)
        with mock.patch.object(csvio, "BLOCK_ROWS", block), loop:
            got = table.read(path)
        assert want[0] == "ok"
        assert repr(got) == repr(want[1])

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_each_fault_gives_the_row_loops_outcome(self, shared, name, tmp_path):
        """Each of the fault table's cases on the file: the row loop's outcome at
        every block size, and the case's error line where the reader fails."""
        for i, case in enumerate(_cases(name)):
            names = faults.case_fixture(case, shared, tmp_path / str(i))
            path = names["in"] / name
            want = _row_loop_outcome(TABLES[name], path)
            for block in (1, 2, 512):
                with mock.patch.object(csvio, "BLOCK_ROWS", block):
                    assert repr(outcome(TABLES[name].read, path)) == repr(want), case
            if want[0] == "error":
                assert f"error: {want[1]}" == case.expect.format(path=path, **names)

    @pytest.mark.parametrize("name", sorted(TABLES))
    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(data=st.data(), block=st.sampled_from([1, 2, 512]))
    def test_mixed_faults_give_the_row_loops_outcome(self, shared, tmp_path_factory, name,
                                                    data, block):
        """The fault table's faulty rows among clean ones, in any rows and
        blocks: the error (or records) of the row loop, whose whole-file read
        names a short row before any value."""
        table, clean = TABLES[name], (shared / name).read_bytes()
        faulty = {case.edits[0] for case in _cases(name)
                  if case.edits[0][1] in ("set", "short row")}
        faulty = sorted(faults.FILE_EDITS["short row"](clean) if op == "short row"
                        else faults.set_field(clean, *arg) for _, op, arg in faulty)
        lines = data.draw(st.lists(
            st.one_of(table.row.map(lambda row: ",".join(row).encode()),
                      st.sampled_from([edited.rstrip(b"\n").rsplit(b"\n", 1)[1]
                                       for edited in faulty])),
            min_size=1, max_size=10,
        ))
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_bytes(clean.split(b"\n")[0] + b"\n" + b"".join(line + b"\n" for line in lines))
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
        grid, fitted = lowess_curve(x, np.full(50, 3.25), np.ones(50), bandwidth=0.3)
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
        grid, fitted = lowess_curve(x, y, np.ones(12), bandwidth=0.4)
        assert fitted[0] == pytest.approx(1.0)
        assert fitted[-1] == pytest.approx(3.0)

    def test_degenerate_window_variance_falls_back_to_mean(self):
        # at the left edge the window reaches the far point, which sits
        # exactly on the radius (weight 0), leaving a zero-variance cluster
        x = np.array([1.0] * 10 + [3.0])
        y = np.array([2.0] * 10 + [50.0])
        grid, fitted = lowess_curve(x, y, np.ones(11), bandwidth=1.0)
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
        w = np.ones(len(x)) if w is None else np.asarray(w)
        ys = rng.normal(size=(4, len(x)))
        grid, fitted = lowess_curve(x, ys, w, bandwidth=bandwidth)
        assert fitted.shape == (4, 100)
        for series, row in zip(ys, fitted):
            alone_grid, alone = lowess_curve(x, series, w, bandwidth=bandwidth)
            assert alone.shape == (100,)
            assert np.array_equal(alone_grid, grid) and np.array_equal(alone, row)

    def test_grid_is_100_points_spanning_data(self):
        x = np.linspace(0, 9, 30)
        grid, _ = lowess_curve(x, x, np.ones(30), bandwidth=1.0)
        assert len(grid) == 100
        assert grid[0] == 0.0 and grid[-1] == 9.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lowess_curve([1, 2, 3], [1, 2, 3], [1, 1, 1], bandwidth=0.5)
        x = list(range(12))
        with pytest.raises(ValueError):
            lowess_curve(x, x, [1] * 12, bandwidth=0.0)
        with pytest.raises(ValueError):
            lowess_curve(x, x, [1] * 12, bandwidth=1.5)
