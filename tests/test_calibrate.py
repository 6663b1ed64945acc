"""Elasticity solve, contact grids, and the contact-cap equation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distancing import calibrate
from distancing.calibrate import (
    DensityRegression,
    aggregate_contact_share,
    calibrate_cap,
    calibrate_epsilon,
    cell_parameters,
    optimal_contacts_grid,
    run_calibration,
    slope_factor,
)
from distancing.errors import CalibrationError
from distancing.exact import exact_sum
from distancing.industries import IndustryMix, MixResolver
from distancing.model import FirmParams, contacts_at_density

from frames import cells_of, frame_of


def cell(zcta, code, w, chi, d):
    return (zcta, code, w, chi, d)


def solve_eps(frame, target):
    return calibrate_epsilon(frame, target, slope_factor(frame))


def columns(pairs):
    """The contacts and weight arrays of (contacts, weight) pairs."""
    contacts, weights = np.array(pairs, dtype=float).reshape(-1, 2).T
    return contacts, weights


def cap_of(contacts, weights, share):
    """:func:`calibrate_cap` given the contact total, as :func:`run_calibration` gives it."""
    return calibrate_cap(contacts, weights, share, calibrate._contact_total(contacts, weights))


def share_at(contacts, weights, cap):
    """:func:`aggregate_contact_share` given the contact total, as in :func:`cap_of`."""
    total = calibrate._contact_total(contacts, weights)
    return aggregate_contact_share(contacts, weights, cap, total)


def bisect_cap(pairs, target_share):
    """Reference solver: bisect the capped-contacts equation to float resolution."""
    target = target_share * math.fsum(w * n for n, w in pairs)
    lo, hi = 0.0, max(n for n, _ in pairs)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if math.fsum(w * min(mid, n) for n, w in pairs) < target:
            lo = mid
        else:
            hi = mid


def constant_chi_frame(chi=0.4):
    return frame_of([
        cell("a", "44", 10.0, chi, 0.5),
        cell("b", "44", 20.0, chi, 1.0),
        cell("c", "44", 15.0, chi, 2.0),
        cell("d", "44", 5.0, chi, 8.0),
    ])


def two_industry_frame():
    return frame_of([
        cell("a", "44", 10.0, 0.3, 0.5),
        cell("b", "31", 20.0, 0.5, 1.0),
        cell("c", "44", 15.0, 0.3, 2.0),
        cell("d", "31", 5.0, 0.5, 8.0),
    ])


def random_frame(seed):
    rng = np.random.default_rng(seed)
    return frame_of([
        cell(f"z{i}", "n", float(rng.uniform(1, 50)), float(rng.uniform(0.1, 0.9)),
             float(rng.uniform(0.1, 10)))
        for i in range(30)
    ])


class TestEpsilon:
    def test_constant_chi_scales_target(self):
        # with constant chi the regression moment k equals chi exactly
        eps = solve_eps(constant_chi_frame(0.4), 0.04)
        assert eps == pytest.approx(0.1, abs=1e-9)
        # oracle: numpy weighted polyfit reproduces the target slope
        frame = constant_chi_frame(0.4)
        x = np.array([math.log(c.density) for c in frame])
        z = eps * np.array([c.chi for c in frame]) * x
        w = np.array([c.employment for c in frame])
        slope = np.polyfit(x, z, 1, w=np.sqrt(w))[0]
        assert slope == pytest.approx(0.04, abs=1e-9)

    def test_chi_one_limit(self):
        frame = frame_of([
            cell("a", "x", 1.0, 1.0 - 1e-12, 0.5),
            cell("b", "x", 1.0, 1.0 - 1e-12, 2.0),
        ])
        assert solve_eps(frame, 0.04) == pytest.approx(0.04, rel=1e-9)

    def test_doubling_target_doubles_eps(self):
        frame = random_frame(61)
        assert solve_eps(frame, 0.08) == pytest.approx(2.0 * solve_eps(frame, 0.04), rel=1e-12)

    def test_single_density_rejected(self):
        frame = frame_of([cell("a", "x", 1.0, 0.4, 2.0), cell("b", "x", 1.0, 0.4, 2.0)])
        with pytest.raises(CalibrationError):
            solve_eps(frame, 0.04)

    def test_nonpositive_moment_rejected(self):
        # exposure collapses with density above the mean: k < 0, no
        # positive eps can match the target
        frame = frame_of([cell("a", "x", 1.0, 0.9, 1.1), cell("b", "y", 1.0, 0.0, 7.0)])
        assert slope_factor(frame) < 0
        with pytest.raises(CalibrationError):
            solve_eps(frame, 0.04)

    @pytest.mark.parametrize("built", [False, True])
    def test_verification_regression_rejects_a_wrong_slope_factor(self, built):
        # with or without the frame's regression built before the solve
        k = slope_factor(random_frame(61))
        frame = random_frame(61)
        if built:
            frame.regression
        assert calibrate_epsilon(frame, 0.04, k) == 0.04 / k
        with pytest.raises(CalibrationError, match="verification regression slope"):
            calibrate_epsilon(frame, 0.04, k * (1 + 1e-6))

    def test_shared_regression_gives_the_bits_of_a_fresh_one(self):
        frame = two_industry_frame()
        k = slope_factor(frame)
        assert frame.regression is frame.regression  # built once, then cached
        fresh = DensityRegression.of(frame)
        assert fresh.slope(frame.chi * fresh.x) == k
        # the textbook form, one fsum per moment
        w, x = frame.employment.tolist(), np.log(frame.density).tolist()
        z = [c * xi for c, xi in zip(frame.chi.tolist(), x)]
        total = math.fsum(w)
        xbar = math.fsum(wi * xi for wi, xi in zip(w, x)) / total
        zbar = math.fsum(wi * zi for wi, zi in zip(w, z)) / total
        sxx = math.fsum(wi * (xi - xbar) ** 2 for wi, xi in zip(w, x))
        sxz = math.fsum(wi * (xi - xbar) * (zi - zbar) for wi, xi, zi in zip(w, x, z))
        assert k == sxz / sxx


class TestContactsGrid:
    def test_unit_density_everywhere(self):
        frame = frame_of([cell("a", "x", 1.0, 0.3, 1.0), cell("b", "y", 2.0, 0.6, 1.0)])
        grid = optimal_contacts_grid(frame, 0.1)
        assert grid.tolist() == [1.0, 1.0]

    def test_exponent_identity(self):
        eps, chi = 0.25, 0.2
        d = math.exp(1.0 / (eps * (1.0 - chi)))
        grid = optimal_contacts_grid(frame_of([cell("a", "x", 1.0, chi, d)]), eps)
        assert grid[0] == pytest.approx(math.e, rel=1e-12)

    def test_matches_model_per_cell(self):
        rng = np.random.default_rng(67)
        frame = frame_of([
            cell(f"z{i}", f"n{i}", 1.0, float(rng.uniform(0, 0.9)),
                 float(rng.uniform(0.05, 20)))
            for i in range(50)
        ])
        grid = optimal_contacts_grid(frame, 0.07)
        assert len(grid) == len(frame)
        for c, n in zip(frame, grid):
            expected = contacts_at_density(c.density, 0.07, FirmParams(c.chi))
            assert n == pytest.approx(expected, rel=1e-12)


class TestCap:
    def test_two_cell_hand_solution(self):
        cap = cap_of(*columns([(2.0, 1.0), (4.0, 1.0)]), 0.5)
        assert cap == pytest.approx(1.5, abs=1e-12)

    def test_target_one_returns_max(self):
        assert cap_of(*columns([(2.0, 1.0), (4.0, 1.0)]), 1.0) == 4.0

    def test_equal_contacts_proportional_cap(self):
        pairs = [(3.0, 5.0), (3.0, 2.0), (3.0, 11.0)]
        for share in (0.25, 0.5, 0.8):
            cap = cap_of(*columns(pairs), share)
            assert cap == pytest.approx(3.0 * share, rel=1e-12)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            cap_of(*columns([(2.0, 1.0)]), 0.0)
        with pytest.raises(ValueError):
            cap_of(*columns([(2.0, 1.0)]), 1.5)

    def test_bisection_matches_exact_solver_on_random_fixtures(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            pairs = [
                (float(rng.uniform(0.01, 30)), float(rng.uniform(0.1, 100)))
                for _ in range(n)
            ]
            # throw in ties to stress both solvers
            pairs += [pairs[0], pairs[-1]]
            share = float(rng.uniform(0.05, 0.99))
            cap = cap_of(*columns(pairs), share)
            assert cap == pytest.approx(bisect_cap(pairs, share), abs=1e-7, rel=1e-7)
            share_at_cap = share_at(*columns(pairs), cap)
            assert share_at_cap == pytest.approx(share, rel=1e-12)

    def test_monotone_in_target(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            pairs = [
                (float(rng.uniform(0.01, 30)), float(rng.uniform(0.1, 100)))
                for _ in range(15)
            ]
            shares = sorted(rng.uniform(0.05, 1.0, 5))
            caps = [cap_of(*columns(pairs), float(s)) for s in shares]
            assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))

    def test_tiny_contacts_still_hit_relative_tolerance(self):
        pairs = [(1e-3, 1.0), (2e-3, 3.0), (5e-4, 2.0)]
        cap = cap_of(*columns(pairs), 0.5)
        assert share_at(*columns(pairs), cap) == pytest.approx(0.5, rel=1e-12)


# (optimal contacts, employment) pairs over the span the benchmark's cells
# cover, with repeats drawn in to exercise ties
_PAIRS = st.lists(
    st.tuples(st.floats(0.01, 30.0), st.floats(0.1, 1000.0)), min_size=1, max_size=40
).flatmap(
    lambda pairs: st.lists(st.sampled_from(pairs), max_size=5).map(lambda ties: pairs + ties)
)
_SHARES = st.floats(0.01, 1.0)


class TestCapProperties:
    @settings(deadline=None, derandomize=True, database=None)
    @given(_PAIRS, _SHARES)
    def test_hits_target_and_agrees_with_bisection(self, pairs, share):
        cap = cap_of(*columns(pairs), share)
        assert share_at(*columns(pairs), cap) == pytest.approx(share, rel=1e-12)
        assert cap == pytest.approx(bisect_cap(pairs, share), rel=1e-9)

    @settings(deadline=None, derandomize=True, database=None)
    @given(_PAIRS, _SHARES, _SHARES)
    def test_monotone_in_target(self, pairs, a, b):
        lo, hi = sorted((a, b))
        contacts, weights = columns(pairs)
        assert cap_of(contacts, weights, lo) <= cap_of(contacts, weights, hi) * (
            1.0 + 1e-12
        )


def lexsort_cap(contacts, weights, share):
    """The cap solve as written with ``np.lexsort((weights, contacts))``: the
    reference whose bits :func:`calibrate_cap` must reproduce."""
    total = math.fsum((weights * contacts).tolist())
    if share == 1.0:
        return float(contacts.max())
    target = share * total
    order = np.lexsort((weights, contacts))
    contacts, weights = contacts[order], weights[order]
    below = np.concatenate(([0.0], np.cumsum(weights * contacts)[:-1]))
    above = np.cumsum(weights[::-1])[::-1]
    reached = np.flatnonzero(below + contacts * above >= target)
    if not reached.size:
        return float(contacts[-1])
    i = reached[0]
    return float((target - below[i]) / above[i])


# rows drawn from a few contact counts and a few weights: equal contacts with
# different weights, and repeated (contacts, weight) pairs, in every draw
_TIED_ROWS = st.tuples(
    st.lists(st.floats(0.01, 30.0), min_size=1, max_size=4),
    st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=4),
).flatmap(lambda pools: st.lists(
    st.tuples(st.sampled_from(pools[0]), st.sampled_from(pools[1])), min_size=1, max_size=60,
))


class TestCapSort:
    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(_TIED_ROWS, _SHARES, st.randoms(use_true_random=False))
    def test_equals_a_two_key_sort_in_any_row_order(self, pairs, share, random):
        contacts, weights = columns(pairs)
        expected = lexsort_cap(contacts, weights, share)
        assert cap_of(contacts, weights, share) == expected
        random.shuffle(pairs)
        assert cap_of(*columns(pairs), share) == expected

    def test_sorted_pairs_are_the_two_key_sort(self):
        rng = np.random.default_rng(5)
        contacts = rng.choice([0.5, 1.5, 2.0, 7.25], size=500)
        weights = rng.choice([1.0, 3.0, 3.5, 10.0, 400.0], size=500)
        order = np.lexsort((weights, contacts))
        sorted_contacts, sorted_weights = calibrate._sorted_pairs(contacts, weights)
        assert sorted_contacts.tolist() == contacts[order].tolist()
        assert sorted_weights.tolist() == weights[order].tolist()


def _mix(code, comm):
    return IndustryMix(
        industry_code=code, name=code,
        chi={"teamwork": 0.0, "customer": comm, "communication": comm, "presence": 0.0},
    )


class TestCellParameters:
    def test_join_and_skips(self):
        resolver = MixResolver([_mix("44", 0.6)])
        densities = {"z1": 2.0}
        cells = cells_of([
            ("z1", "441100", 10.0),
            ("z1", "441100x", 0.0),  # zero employment: dropped silently
            ("z2", "441100", 5.0),  # no density: dropped with warning
            ("z1", "99999", 5.0),  # unresolvable: dropped
        ])
        frame = cell_parameters(cells, resolver, densities)
        assert len(frame) == 1
        (row,) = frame
        assert (row.zcta, row.industry_code) == ("z1", "44")
        assert row.chi == 0.6 and row.density == 2.0

    def test_unresolved_codes_warned_once_in_sorted_order(self, caplog):
        resolver = MixResolver([_mix("44", 0.6)])
        cells = cells_of([
            ("z1", "99999", 5.0),
            ("z1", "441100", 10.0),
            ("z2", "88888", 1.0),
            ("z2", "99999", 2.0),
        ])
        with caplog.at_level("WARNING"):
            frame = cell_parameters(cells, resolver, {"z1": 1.0, "z2": 2.0})
        assert [(c.zcta, c.industry_code) for c in frame] == [("z1", "44")]
        warnings = [r.getMessage() for r in caplog.records if "no industry mix" in r.getMessage()]
        assert warnings == ["3 cells skipped: no industry mix for codes 88888, 99999"]
        assert resolver.unresolved == {"88888", "99999"}

    def test_one_params_object_per_industry_in_input_order(self):
        resolver = MixResolver([_mix("44", 0.6), _mix("31", 0.2)])
        densities = {"z1": 2.0, "z2": 0.5}
        cells = cells_of([  # deliberately not in (zcta, code) order
            ("z2", "441100", 5.0),
            ("z1", "311111", 3.0),
            ("z1", "445110", 7.0),
            ("z2", "31", 1.0),
        ])
        frame = cell_parameters(cells, resolver, densities)
        assert [(c.zcta, c.industry_code, c.employment) for c in frame] == [
            ("z2", "44", 5.0), ("z1", "31", 3.0), ("z1", "44", 7.0), ("z2", "31", 1.0),
        ]
        assert frame.params.chi.tolist() == [0.6, 0.2, 0.6, 0.2]

    def test_run_calibration_end_to_end(self):
        resolver = MixResolver([_mix("44", 0.4)])
        densities = {z: d for z, d in [("a", 0.5), ("b", 1.0), ("c", 2.0)]}
        cells = cells_of([(z, "441100", 10.0) for z in ("a", "b", "c")])
        frame = cell_parameters(cells, resolver, densities)
        report = run_calibration(frame, 0.5, 0.04, fixed_eps=None)
        assert report.eps == pytest.approx(0.1, abs=1e-9)
        assert report.achieved_share == pytest.approx(0.5, rel=1e-8)
        assert report.achieved_slope == pytest.approx(0.04, abs=1e-9)
        assert not report.eps_fixed

    def test_slope_factor_runs_once_per_calibration(self, monkeypatch):
        calls = []
        original = calibrate.slope_factor

        def counting(frame, *shared):
            calls.append(len(frame))
            return original(frame, *shared)

        monkeypatch.setattr(calibrate, "slope_factor", counting)
        frame = constant_chi_frame(0.4)
        run_calibration(frame, 0.5, 0.04, fixed_eps=None)
        assert calls == [len(frame)]
        calls.clear()
        run_calibration(frame, 0.5, 0.04, fixed_eps=0.02)
        assert calls == [len(frame)]

    def test_one_contact_share_pass_per_calibration(self, monkeypatch):
        calls = []
        original = calibrate.aggregate_contact_share

        def counting(contacts, weights, cap, *shared):
            calls.append(cap)
            return original(contacts, weights, cap, *shared)

        monkeypatch.setattr(calibrate, "aggregate_contact_share", counting)
        frame = constant_chi_frame(0.4)
        report = run_calibration(frame, 0.5, 0.04, fixed_eps=None)
        assert calls == [report.contact_cap]
        assert report.achieved_share == share_at(
            *columns([(contacts_at_density(c.density, report.eps, FirmParams(c.chi)),
                       c.employment) for c in frame]),
            report.contact_cap,
        )

    def test_exact_passes_per_calibration(self, monkeypatch):
        frame = two_industry_frame()
        passes = []

        def counting(values):
            if len(values) == len(frame):
                passes.append(len(values))
            return exact_sum(values)

        monkeypatch.setattr(calibrate, "exact_sum", counting)
        run_calibration(frame, 0.5, 0.04, fixed_eps=None)
        # regression setup 3 (weight total, mean ln d, Sxx), k 2, verification 2,
        # contact total 1, capped contacts 1
        assert len(passes) == 9
        passes.clear()
        run_calibration(two_industry_frame(), 0.5, 0.04, fixed_eps=0.02)
        assert len(passes) == 7
        passes.clear()
        # the frame keeps its regression: a second calibration adds k, total, capped
        run_calibration(frame, 0.5, 0.04, fixed_eps=0.02)
        assert len(passes) == 4

    def test_report_carries_the_employment_total(self):
        frame = constant_chi_frame(0.4)
        report = run_calibration(frame, 0.5, 0.04, fixed_eps=None)
        assert report.employment == math.fsum(frame.employment.tolist()) == 50.0

    def test_cap_missing_the_target_share_aborts(self, monkeypatch):
        monkeypatch.setattr(
            calibrate, "aggregate_contact_share", lambda contacts, weights, cap, *shared: 0.5 + 1e-9
        )
        with pytest.raises(CalibrationError, match="gives share"):
            run_calibration(constant_chi_frame(0.4), 0.5, 0.04, fixed_eps=None)

    def test_nan_share_aborts(self, monkeypatch):
        monkeypatch.setattr(calibrate, "aggregate_contact_share", lambda *args: math.nan)
        with pytest.raises(CalibrationError, match="gives share nan"):
            run_calibration(constant_chi_frame(0.4), 0.5, 0.04, fixed_eps=None)

    # contacts are d**25 at eps 50 and chi 0.5
    @pytest.mark.parametrize("cells", [
        [("a", "44", 1.0, 0.5, 1e30), ("b", "44", 1.0, 0.5, 2.0)],
        [("a", "44", 0.0, 0.5, 1e30), ("b", "44", 1.0, 0.5, 2.0), ("c", "44", 1.0, 0.5, 3.0)],
        [("a", "44", w, 0.5, (1e308 / w) ** 0.04) for w in (1e10, 2e10)],
    ], ids=["one cell", "one cell without employment", "finite products, overflowing sum"])
    def test_overflowing_contacts_abort_naming_eps(self, cells):
        with pytest.raises(CalibrationError, match=r"^eps 50.0 is too large"):
            run_calibration(frame_of(cells), 0.5, 0.04, fixed_eps=50.0)

    def test_fixed_eps_honored(self):
        resolver = MixResolver([_mix("44", 0.4)])
        densities = {z: d for z, d in [("a", 0.5), ("b", 2.0)]}
        cells = cells_of([(z, "441100", 10.0) for z in ("a", "b")])
        frame = cell_parameters(cells, resolver, densities)
        report = run_calibration(frame, 0.5, 0.04, fixed_eps=0.02)
        assert report.eps == 0.02
        assert report.eps_fixed
        assert report.notes  # records the slope mismatch
