"""Subsidy computation, aggregation tables, and cost-ratio curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from distancing.calibrate import CalibratedModel, CellParams
from distancing.counterfactual import (
    SubsidyResult,
    compute_subsidies,
    cost_ratio_curves,
    location_table,
    overall,
    sector_table,
)
from distancing.model import (
    FirmParams,
    Regime,
    distancing_cost_ratio,
    telecom_cost_ratio,
)


def model_with(eps=0.1, cap=1.0):
    return CalibratedModel(eps=eps, contact_cap=cap)


def cell(zcta, code, w, chi, d):
    return CellParams(zcta, code, w, FirmParams.from_chi(chi), d)


class TestComputeSubsidies:
    def test_zero_chi_cell_gets_zero(self):
        m = model_with()
        (r,) = compute_subsidies(m, [cell("z", "31", 10.0, 0.0, 25.0)])
        assert r.subsidy == 0.0

    def test_half_cap_two_thirds_end_to_end(self):
        # density such that n* = 2 at eps=0.5, chi=0.5; cap 1 halves contacts
        d = 2.0 ** (1.0 / 0.25)
        m = model_with(eps=0.5, cap=1.0)
        (r,) = compute_subsidies(m, [cell("z", "44", 10.0, 0.5, d)])
        assert r.nstar == pytest.approx(2.0, rel=1e-12)
        assert r.cap_ratio == pytest.approx(0.5, rel=1e-12)
        assert r.subsidy == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_unconstrained_low_density_cell(self):
        m = model_with(eps=0.1, cap=1.0)
        (r,) = compute_subsidies(m, [cell("z", "44", 10.0, 0.5, 1.0)])
        assert r.cap_ratio == 1.0
        assert r.subsidy == 0.0

    def test_regime_annotation_only_with_telecom(self):
        m = model_with(eps=0.5, cap=1.0)
        frame = [cell("z", "44", 10.0, 0.5, 16.0)]
        (plain,) = compute_subsidies(m, frame)
        assert plain.regime is None
        (tagged,) = compute_subsidies(m, frame, telecom_cost=1.5)
        assert tagged.regime in (Regime.DISTANCED, Regime.TELECOM)
        assert tagged.subsidy == plain.subsidy  # telecom never changes the subsidy


class TestTables:
    def test_single_cell_tables(self):
        results = [SubsidyResult("z", "44", 2.0, 0.5, 0.25, 10.0)]
        sectors = sector_table(results)
        assert len(sectors) == 1
        assert sectors[0].subsidy == 0.25
        assert overall(results).subsidy == 0.25
        locations = location_table(results)
        assert locations[0].key == "z" and locations[0].subsidy == 0.25

    def test_two_sector_hand_weights(self):
        results = [
            SubsidyResult("a", "44", 2.0, 0.5, 0.30, 30.0),
            SubsidyResult("b", "44", 2.0, 0.5, 0.10, 10.0),
            SubsidyResult("a", "31", 2.0, 1.0, 0.00, 60.0),
        ]
        sectors = sector_table(results)
        by_code = {row.key: row for row in sectors}
        assert by_code["44"].subsidy == pytest.approx((0.3 * 30 + 0.1 * 10) / 40)
        assert by_code["31"].subsidy == 0.0
        assert overall(results).subsidy == pytest.approx((0.3 * 30 + 0.1 * 10) / 100)
        # most affected first
        assert [row.key for row in sectors] == ["44", "31"]

    def test_sector_and_location_totals_agree(self):
        rng = np.random.default_rng(79)
        results = [
            SubsidyResult(
                f"z{i % 7}", f"s{i % 5}", 2.0, 0.5,
                float(rng.uniform(0, 0.9)), float(rng.uniform(1, 100)),
            )
            for i in range(60)
        ]
        # each table's rows average back to the one overall row
        total = overall(results)
        for rows in (sector_table(results), location_table(results)):
            employment = math.fsum(row.employment for row in rows)
            average = math.fsum(row.subsidy * row.employment for row in rows) / employment
            assert average == pytest.approx(total.subsidy, abs=1e-12)
            assert employment == pytest.approx(total.employment, abs=1e-9)

    def test_weighted_average_brackets(self):
        rng = np.random.default_rng(83)
        results = [
            SubsidyResult("z", f"s{i}", 2.0, 0.5, float(rng.uniform(0, 1)),
                          float(rng.uniform(1, 50)))
            for i in range(25)
        ]
        rows = sector_table(results)
        lo = min(r.subsidy for r in results)
        hi = max(r.subsidy for r in results)
        for row in rows + [overall(results)]:
            assert lo - 1e-12 <= row.subsidy <= hi + 1e-12

    def test_grouping_aggregates_named_regions(self, caplog):
        results = [
            SubsidyResult("z1", "44", 2.0, 0.5, 0.2, 10.0),
            SubsidyResult("z2", "44", 2.0, 0.5, 0.4, 30.0),
            SubsidyResult("z3", "44", 2.0, 0.5, 0.9, 5.0),
        ]
        with caplog.at_level("WARNING"):
            rows = location_table(results, {"z1": "metro", "z2": "metro", "z9": "ghost"})
        assert len(rows) == 1
        assert rows[0].key == "metro"
        assert rows[0].subsidy == pytest.approx((0.2 * 10 + 0.4 * 30) / 40)
        assert any("z9" in r.message for r in caplog.records)

    def test_uniform_subsidy_grouping_invariant(self):
        results = [
            SubsidyResult(f"z{i}", "44", 2.0, 0.5, 0.37, float(1 + i)) for i in range(6)
        ]
        plain = location_table(results)
        grouped = location_table(results, {f"z{i}": "all" for i in range(6)})
        assert all(row.subsidy == pytest.approx(0.37) for row in plain)
        assert grouped[0].subsidy == pytest.approx(0.37)

    def test_weaker_cap_never_raises_subsidies(self):
        rng = np.random.default_rng(89)
        frame = [
            cell(f"z{i}", "44", float(rng.uniform(1, 20)), 0.5, float(rng.uniform(0.2, 30)))
            for i in range(40)
        ]
        tight = compute_subsidies(model_with(eps=0.3, cap=0.8), frame)
        loose = compute_subsidies(model_with(eps=0.3, cap=1.2), frame)
        for a, b in zip(tight, loose):
            assert b.subsidy <= a.subsidy + 1e-15
        tight_all = overall(tight)
        loose_all = overall(loose)
        assert loose_all.subsidy <= tight_all.subsidy + 1e-15


_RESULTS = st.lists(
    st.builds(
        SubsidyResult,
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
            SubsidyResult(r.zcta, r.industry_code, r.nstar, r.cap_ratio, r.subsidy, part),
            SubsidyResult(r.zcta, r.industry_code, r.nstar, r.cap_ratio, r.subsidy,
                          r.employment - part),
        ]
        split = results[:i] + halves + results[i + 1:]
        grouping = {"z1": "metro", "z2": "metro", "z3": "rest"}
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
