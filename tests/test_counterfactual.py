"""Subsidy computation, aggregation tables, and cost-ratio curves."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from distancing.calibrate import run_calibration
from distancing.counterfactual import (
    compute_subsidies,
    cost_ratio_curves,
    location_table,
    overall,
    sector_table,
)
from distancing.model import (
    FirmParams,
    Intervention,
    Regime,
    compensating_subsidy,
    contacts_at_density,
    distancing_cost_ratio,
    preferred_regime,
    telecom_cost_ratio,
)

from frames import ResultRow, frame_of, results_of


def cell(zcta, code, w, chi, d):
    return frame_of([(zcta, code, w, chi, d)])


class TestComputeSubsidies:
    def test_zero_chi_cell_gets_zero(self):
        (r,) = compute_subsidies(cell("z", "31", 10.0, 0.0, 25.0), 0.1, 1.0)
        assert r.subsidy == 0.0

    def test_half_cap_two_thirds_end_to_end(self):
        # density such that n* = 2 at eps=0.5, chi=0.5; cap 1 halves contacts
        d = 2.0 ** (1.0 / 0.25)
        (r,) = compute_subsidies(cell("z", "44", 10.0, 0.5, d), 0.5, 1.0)
        assert r.nstar == pytest.approx(2.0, rel=1e-12)
        assert r.cap_ratio == pytest.approx(0.5, rel=1e-12)
        assert r.subsidy == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_unconstrained_low_density_cell(self):
        (r,) = compute_subsidies(cell("z", "44", 10.0, 0.5, 1.0), 0.1, 1.0)
        assert r.cap_ratio == 1.0
        assert r.subsidy == 0.0

    def test_regime_annotation_only_with_telecom(self):
        frame = cell("z", "44", 10.0, 0.5, 16.0)
        (plain,) = compute_subsidies(frame, 0.5, 1.0)
        assert plain.regime is None
        (tagged,) = compute_subsidies(frame, 0.5, 1.0, telecom_cost=1.5)
        assert tagged.regime in (Regime.DISTANCED, Regime.TELECOM)
        assert tagged.subsidy == plain.subsidy  # telecom never changes the subsidy


class TestTables:
    def test_single_cell_tables(self):
        results = results_of([ResultRow("z", "44", 2.0, 0.5, 0.25, 10.0)])
        sectors = sector_table(results)
        assert len(sectors) == 1
        assert sectors[0].subsidy == 0.25
        assert overall(results).subsidy == 0.25
        locations = location_table(results)
        assert locations[0].key == "z" and locations[0].subsidy == 0.25

    def test_two_sector_hand_weights(self):
        results = results_of([
            ResultRow("a", "44", 2.0, 0.5, 0.30, 30.0),
            ResultRow("b", "44", 2.0, 0.5, 0.10, 10.0),
            ResultRow("a", "31", 2.0, 1.0, 0.00, 60.0),
        ])
        sectors = sector_table(results)
        by_code = {row.key: row for row in sectors}
        assert by_code["44"].subsidy == pytest.approx((0.3 * 30 + 0.1 * 10) / 40)
        assert by_code["31"].subsidy == 0.0
        assert overall(results).subsidy == pytest.approx((0.3 * 30 + 0.1 * 10) / 100)
        # most affected first
        assert [row.key for row in sectors] == ["44", "31"]

    def test_sector_and_location_totals_agree(self):
        rng = np.random.default_rng(79)
        results = results_of([
            ResultRow(
                f"z{i % 7}", f"s{i % 5}", 2.0, 0.5,
                float(rng.uniform(0, 0.9)), float(rng.uniform(1, 100)),
            )
            for i in range(60)
        ])
        # each table's rows average back to the one overall row
        total = overall(results)
        for rows in (sector_table(results), location_table(results)):
            employment = math.fsum(row.employment for row in rows)
            average = math.fsum(row.subsidy * row.employment for row in rows) / employment
            assert average == pytest.approx(total.subsidy, abs=1e-12)
            assert employment == pytest.approx(total.employment, abs=1e-9)

    def test_weighted_average_brackets(self):
        rng = np.random.default_rng(83)
        results = results_of([
            ResultRow("z", f"s{i}", 2.0, 0.5, float(rng.uniform(0, 1)),
                      float(rng.uniform(1, 50)))
            for i in range(25)
        ])
        rows = sector_table(results)
        lo = min(r.subsidy for r in results)
        hi = max(r.subsidy for r in results)
        for row in rows + [overall(results)]:
            assert lo - 1e-12 <= row.subsidy <= hi + 1e-12

    def test_grouping_aggregates_named_regions(self, caplog):
        results = results_of([
            ResultRow("z1", "44", 2.0, 0.5, 0.2, 10.0),
            ResultRow("z2", "44", 2.0, 0.5, 0.4, 30.0),
            ResultRow("z3", "44", 2.0, 0.5, 0.9, 5.0),
        ])
        with caplog.at_level("WARNING"):
            rows = location_table(results, {"z1": "metro", "z2": "metro", "z9": "ghost"})
        assert len(rows) == 1
        assert rows[0].key == "metro"
        assert rows[0].subsidy == pytest.approx((0.2 * 10 + 0.4 * 30) / 40)
        assert any("z9" in r.message for r in caplog.records)

    def test_uniform_subsidy_grouping_invariant(self):
        results = results_of([
            ResultRow(f"z{i}", "44", 2.0, 0.5, 0.37, float(1 + i)) for i in range(6)
        ])
        plain = location_table(results)
        grouped = location_table(results, {f"z{i}": "all" for i in range(6)})
        assert all(row.subsidy == pytest.approx(0.37) for row in plain)
        assert grouped[0].subsidy == pytest.approx(0.37)

    def test_weaker_cap_never_raises_subsidies(self):
        rng = np.random.default_rng(89)
        frame = frame_of([
            (f"z{i}", "44", float(rng.uniform(1, 20)), 0.5, float(rng.uniform(0.2, 30)))
            for i in range(40)
        ])
        tight = compute_subsidies(frame, 0.3, 0.8)
        loose = compute_subsidies(frame, 0.3, 1.2)
        for a, b in zip(tight, loose):
            assert b.subsidy <= a.subsidy + 1e-15
        tight_all = overall(tight)
        loose_all = overall(loose)
        assert loose_all.subsidy <= tight_all.subsidy + 1e-15


_RESULTS = st.lists(
    st.builds(
        ResultRow,
        zcta=st.sampled_from(["z1", "z2", "z3", "z4"]),
        industry_code=st.sampled_from(["31", "44", "62"]),
        nstar=st.just(2.0),
        cap_ratio=st.just(0.5),
        subsidy=st.floats(0.0, 0.99),
        employment=st.floats(0.1, 1e4),
    ),
    min_size=1,
    max_size=30,
)


def _assert_rows_close(split, whole):
    assert sorted(row.key for row in split) == sorted(row.key for row in whole)
    expected = {row.key: row for row in whole}
    for row in split:
        assert row.subsidy == pytest.approx(expected[row.key].subsidy, rel=1e-12, abs=1e-12)
        assert row.employment == pytest.approx(expected[row.key].employment, rel=1e-12)


class TestTableProperties:
    @settings(deadline=None, derandomize=True, database=None)
    @given(_RESULTS, st.data())
    def test_splitting_a_cell_leaves_rows_unchanged(self, results, data):
        i = data.draw(st.integers(0, len(results) - 1))
        part = results[i].employment * data.draw(st.floats(0.01, 0.99))
        r = results[i]
        halves = [
            ResultRow(r.zcta, r.industry_code, r.nstar, r.cap_ratio, r.subsidy, part),
            ResultRow(r.zcta, r.industry_code, r.nstar, r.cap_ratio, r.subsidy,
                          r.employment - part),
        ]
        split = results[:i] + halves + results[i + 1:]
        grouping = {"z1": "metro", "z2": "metro", "z3": "rest"}
        split, results = results_of(split), results_of(results)
        for table, args in ((sector_table, ()), (location_table, ()),
                            (location_table, (grouping,))):
            _assert_rows_close(table(split, *args), table(results, *args))
        _assert_rows_close([overall(split)], [overall(results)])


class TestCostCurves:
    def test_flat_below_constraint(self):
        params = FirmParams.from_chi(0.5)
        grid = np.linspace(0.1, 0.9, 20)  # n* < 1 <= cap everywhere
        curves = cost_ratio_curves(params, grid, contact_cap=1.0, telecom_cost=None, eps=0.3)
        assert all(v == 1.0 for v in curves.distancing)
        assert all(r is Regime.UNCONSTRAINED for r in curves.regimes)
        assert curves.switches == []

    def test_telecom_curve_monotone(self):
        params = FirmParams.from_chi(0.5)
        grid = np.geomspace(1.0, 30.0, 50)
        curves = cost_ratio_curves(params, grid, contact_cap=1.0, telecom_cost=2.0, eps=0.3)
        tele = [v for v in curves.telecom if v is not None]
        assert len(tele) == 50
        assert all(a <= b for a, b in zip(tele, tele[1:]))

    def test_switch_points_match_root_finder(self):
        # chosen so the full sequence appears: unconstrained, a capped
        # face-to-face band, a telecom band once telecom becomes valid
        # (d >= T**(-1/eps) = 4), and face-to-face again at high density
        params = FirmParams.from_chi(0.5)
        eps, cap, T = 0.5, 1.1, 0.5
        grid = np.geomspace(0.5, 200.0, 400)
        curves = cost_ratio_curves(params, grid, cap, T, eps)
        kinds = [(s.from_regime, s.to_regime) for s in curves.switches]
        assert kinds == [
            (Regime.UNCONSTRAINED, Regime.DISTANCED),
            (Regime.DISTANCED, Regime.TELECOM),
            (Regime.TELECOM, Regime.DISTANCED),
        ]

        # oracle for the telecom->distanced crossing: brentq on the raw
        # ratio difference
        def diff(d):
            nstar = d ** (eps * 0.5)
            return distancing_cost_ratio(cap / nstar, params) - telecom_cost_ratio(
                T, d, eps, params
            )

        switch = next(s for s in curves.switches
                      if (s.from_regime, s.to_regime) == (Regime.TELECOM, Regime.DISTANCED))
        lo = switch.density * 0.9
        hi = switch.density * 1.1
        oracle = brentq(diff, lo, hi, xtol=1e-12)
        assert switch.density == pytest.approx(oracle, rel=1e-8)
        # closed-form cross-check: chi*N*d**-0.25 = (T**chi - (1-chi)/N) * d**0.25
        closed = ((0.5 * cap) / (T**0.5 - 0.5 / cap)) ** 2.0
        assert switch.density == pytest.approx(closed, rel=1e-8)

    def test_constraint_onset_switch(self):
        params = FirmParams.from_chi(0.5)
        eps, cap = 0.5, 1.2
        grid = np.geomspace(0.5, 10.0, 100)
        curves = cost_ratio_curves(params, grid, cap, None, eps)
        onset = next(s for s in curves.switches if s.from_regime is Regime.UNCONSTRAINED)
        # closed form: n*(d) = cap at d = cap ** (1 / (eps * (1 - chi)))
        assert onset.density == pytest.approx(cap ** (1.0 / (eps * 0.5)), rel=1e-8)

    def test_ratios_never_below_one(self):
        params = FirmParams.from_chi(0.4)
        grid = np.geomspace(0.05, 50.0, 120)
        curves = cost_ratio_curves(params, grid, contact_cap=1.0, telecom_cost=3.0, eps=0.2)
        assert all(v >= 1.0 for v in curves.distancing)
        assert all(v >= 1.0 for v in curves.telecom if v is not None)


# ---------------------------------------------------------------------------
# The columnar path against a scalar oracle: the closed forms called one
# cell at a time, the sorted cap inversion over plain lists, and group
# totals from per-key lists.
# ---------------------------------------------------------------------------


def _scalar_slope(points):
    total = math.fsum(w for w, _, _ in points)
    xbar = math.fsum(w * x for w, x, _ in points) / total
    zbar = math.fsum(w * z for w, _, z in points) / total
    sxx = math.fsum(w * (x - xbar) ** 2 for w, x, _ in points)
    sxz = math.fsum(w * (x - xbar) * (z - zbar) for w, x, z in points)
    return sxz / sxx


def _scalar_cap(pairs, share):
    target = share * math.fsum(w * n for n, w in pairs)
    ordered = sorted(pairs)
    below = [0.0, *itertools.accumulate(w * n for n, w in ordered)]
    above = [*itertools.accumulate(w for _, w in reversed(ordered))][::-1]
    for i, (n, _) in enumerate(ordered):
        if below[i] + n * above[i] >= target:
            return (target - below[i]) / above[i]
    return ordered[-1][0]


def _scalar_rows(keyed):
    groups = {}
    for key, w, s in keyed:
        groups.setdefault(key, []).append((w, s * w))
    rows = {}
    for key, members in groups.items():
        total = math.fsum(w for w, _ in members)
        rows[key] = (math.fsum(ws for _, ws in members) / total, total)
    return rows


def scalar_oracle(cells, share, elasticity, fixed_eps, telecom, grouping):
    params = [FirmParams.from_chi(chi) for _, _, _, chi, _ in cells]
    k = _scalar_slope([(w, math.log(d), chi * math.log(d)) for _, _, w, chi, d in cells])
    eps = fixed_eps if fixed_eps is not None else elasticity / k
    nstar = [contacts_at_density(d, eps, p) for (*_, d), p in zip(cells, params)]
    cap = _scalar_cap([(n, c[2]) for n, c in zip(nstar, cells)], share)
    ratio = [min(1.0, cap / n) for n in nstar]
    subsidy = [compensating_subsidy(x, p) for x, p in zip(ratio, params)]
    regimes, gaps = [], []
    for (*_, d), n, p in zip(cells, nstar, params):
        if telecom is None:
            regimes.append(None)
            gaps.append(math.inf)
            continue
        regimes.append(preferred_regime(Intervention(cap, telecom), d, eps, p)[0])
        gap = math.inf
        if n > cap and telecom >= d ** (-eps):
            dist = distancing_cost_ratio(cap / n, p)
            gap = abs(dist - telecom_cost_ratio(telecom, d, eps, p)) / dist
        gaps.append(gap)
    keyed = list(zip(cells, subsidy))
    tables = {
        "sector": _scalar_rows((c[1], c[2], s) for c, s in keyed),
        "location": _scalar_rows((c[0], c[2], s) for c, s in keyed),
        "region": _scalar_rows((grouping[c[0]], c[2], s) for c, s in keyed if c[0] in grouping),
        "overall": _scalar_rows(("ALL", c[2], s) for c, s in keyed),
    }
    return eps, cap, nstar, ratio, subsidy, regimes, gaps, tables


_ZCTAS = [f"z{i}" for i in range(6)]
_CELLS = st.lists(
    st.tuples(
        st.sampled_from(_ZCTAS),
        st.sampled_from(["31", "44", "62", "72"]),
        st.floats(0.1, 1e4),
        st.one_of(st.just(0.0), st.floats(0.01, 0.95)),
        st.floats(0.05, 50.0),
    ),
    min_size=2,
    max_size=40,
)


def _close(a, b, rel):
    return a == pytest.approx(b, rel=rel, abs=0.0)


class TestColumnarMatchesScalarOracle:
    @settings(deadline=None, derandomize=True, database=None, max_examples=100)
    @given(
        _CELLS,
        st.floats(0.05, 0.95),
        st.sampled_from([None, 0.02]),
        st.sampled_from([None, 0.5, 0.9, 1.5, 4.0]),
        st.sets(st.sampled_from(_ZCTAS)),
    )
    def test_every_column_and_row(self, cells, share, fixed_eps, telecom, members):
        # a chi per industry, as cell_parameters joins it
        chis = {code: chi for _, code, _, chi, _ in cells}
        cells = [(z, code, w, chis[code], d) for z, code, w, _, d in cells]
        assume(len({d for *_, d in cells}) > 1)
        k = _scalar_slope([(w, math.log(d), chi * math.log(d)) for _, _, w, chi, d in cells])
        if k <= 0.01:
            fixed_eps = 0.02  # no positive eps matches the target; a tiny k overflows contacts
        grouping = {z: "metro" if i % 2 else "rest" for i, z in enumerate(sorted(members))}
        eps, cap, nstar, ratio, subsidy, regimes, gaps, tables = scalar_oracle(
            cells, share, 0.04, fixed_eps, telecom, grouping
        )

        report = run_calibration(frame_of(cells), share, 0.04, fixed_eps)
        assert _close(report.eps, eps, 1e-12) and _close(report.contact_cap, cap, 1e-12)
        results = compute_subsidies(
            frame_of(cells), report.eps, report.contact_cap, telecom_cost=telecom
        )
        assert len(results) == len(cells)
        for i, row in enumerate(results):
            assert _close(row.nstar, nstar[i], 1e-13)
            assert _close(row.cap_ratio, ratio[i], 1e-13)
            # 1 minus a product near 1: its rounding error is absolute
            assert row.subsidy == pytest.approx(subsidy[i], rel=1e-13, abs=1e-15)
            if gaps[i] > 1e-12:
                assert row.regime is regimes[i]
        got = {
            "sector": sector_table(results),
            "location": location_table(results),
            "region": location_table(results, grouping),
            "overall": [overall(results)],
        }
        for name, rows in got.items():
            assert sorted(row.key for row in rows) == sorted(tables[name])
            for row in rows:
                want_subsidy, want_employment = tables[name][row.key]
                assert row.subsidy == pytest.approx(want_subsidy, rel=1e-12, abs=1e-15)
                assert _close(row.employment, want_employment, 1e-12)
