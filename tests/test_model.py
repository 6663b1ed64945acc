"""Unit tests for the closed-form cost model.

Derived expectations come from independent oracles: golden-section
minimization of the raw cost function, decimal arbitrary-precision power
evaluation, and brute-force grid scans.
"""

import math
import warnings
from dataclasses import fields
from decimal import Decimal, getcontext

import numpy as np
import pytest

from distancing.errors import DomainError
from distancing.model import (
    FirmParams,
    Intervention,
    Regime,
    compensating_subsidy,
    contacts_at_density,
    distancing_cost_ratio,
    optimal_contacts,
    preferred_regime,
    telecom_cost_ratio,
    unit_cost,
    unit_cost_at_density,
)


def raw_cost(n, tau, gamma):
    """The unminimized cost: communication n*tau plus production n**-gamma/gamma."""
    return n * tau + n ** (-gamma) / gamma


def golden_minimize(f, lo, hi, tol=1e-12):
    """Golden-section search for the minimum of a unimodal function."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > tol * max(1.0, abs(a)):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return 0.5 * (a + b)


def dec_pow(base, exponent, digits=50):
    """Arbitrary-precision base**exponent via Decimal ln/exp."""
    getcontext().prec = digits
    return float((Decimal(exponent) * Decimal(base).ln()).exp())


class TestFirmParams:
    def test_identity_holds_both_ways(self):
        p = FirmParams(0.35)
        assert p.gamma == pytest.approx(0.35 / 0.65, abs=1e-15)
        assert abs(p.chi - p.gamma / (1 + p.gamma)) < 1e-12

    def test_round_trip_chi(self):
        rng = np.random.default_rng(7)
        for chi in rng.uniform(1e-6, 1 - 1e-6, 200):
            p = FirmParams(float(chi))
            again = FirmParams(p.gamma / (1.0 + p.gamma))
            assert abs(again.chi - chi) < 1e-12

    def test_gamma_zero_is_the_degenerate_firm(self):
        p = FirmParams(0.0)
        assert p.gamma == 0.0

    @pytest.mark.parametrize("chi", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_bad_chi_rejected(self, chi):
        with pytest.raises(DomainError):
            FirmParams(chi)

    def test_gamma_is_derived_from_chi_alone(self):
        assert [f.name for f in fields(FirmParams) if f.init] == ["chi"]
        with pytest.raises(TypeError):
            FirmParams(0.3, 7.0)


class TestOptimalContacts:
    def test_tau_one_is_one_for_any_gamma(self):
        for gamma in (0.1, 1.0, 5.0):
            assert optimal_contacts(1.0, FirmParams(gamma / (1.0 + gamma))) == 1.0

    def test_quarter_tau_gamma_one(self):
        # golden-section oracle over n in (0, 100): argmin 2, agrees to 1e-6
        p = FirmParams(0.5)
        oracle = golden_minimize(lambda n: raw_cost(n, 0.25, 1.0), 1e-6, 100.0)
        assert oracle == pytest.approx(2.0, abs=1e-6)
        assert optimal_contacts(0.25, p) == pytest.approx(oracle, abs=1e-6)

    def test_hundredth_tau_gamma_one(self):
        p = FirmParams(0.5)
        oracle = golden_minimize(lambda n: raw_cost(n, 0.01, 1.0), 1e-6, 100.0)
        assert oracle == pytest.approx(10.0, abs=1e-6)
        assert optimal_contacts(0.01, p) == pytest.approx(oracle, abs=1e-6)

    def test_nonpositive_tau_rejected(self):
        p = FirmParams(0.5)
        for tau in (0.0, -1.0):
            with pytest.raises(DomainError):
                optimal_contacts(tau, p)


class TestUnitCost:
    def test_matches_raw_cost_at_optimum(self):
        p = FirmParams(0.5)
        # by hand: at n = 2, cost = 2 * 0.25 + (1/1) * 2**-1 = 1.0
        assert raw_cost(2.0, 0.25, 1.0) == 1.0
        assert unit_cost(0.25, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("chi,expected", [(0.5, 2.0), (0.25, 4.0)])
    def test_tau_one_gives_inverse_chi(self, chi, expected):
        assert unit_cost(1.0, FirmParams(chi)) == pytest.approx(expected)

    def test_chi_zero_rejected(self):
        with pytest.raises(DomainError):
            unit_cost(1.0, FirmParams(0.0))

    def test_brute_force_equivalence(self):
        # closed form beats every grid point and the grid argmin matches.
        rng = np.random.default_rng(42)
        grid = np.exp(np.linspace(np.log(1e-4), np.log(1e6), 4000))
        log_step = (np.log(1e6) - np.log(1e-4)) / (len(grid) - 1)
        for _ in range(1000):
            tau = rng.uniform(1e-4, 10.0)
            gamma = rng.uniform(0.1, 10.0)
            p = FirmParams(gamma / (1.0 + gamma))
            costs = grid * tau + grid ** (-gamma) / gamma
            best = costs.min()
            closed = unit_cost(tau, p)
            assert closed <= best * (1.0 + 1e-12)
            argmin = grid[int(costs.argmin())]
            assert abs(math.log(argmin) - math.log(optimal_contacts(tau, p))) <= log_step


class TestDensityForms:
    def test_average_density_firm(self):
        assert contacts_at_density(1.0, 0.02, FirmParams(0.35)) == 1.0

    def test_dense_city_contacts(self):
        # 20x the average density; arbitrary-precision oracle for 20**0.013
        expected = dec_pow(20, Decimal("0.02") * (1 - Decimal("0.35")))
        got = contacts_at_density(20.0, 0.02, FirmParams(0.35))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.0397, abs=5e-5)

    def test_contacts_match_optimal_contacts_through_tau(self):
        p = FirmParams(0.5)
        oracle = optimal_contacts(4.0 ** (-0.5), p)  # tau = 0.5 => n* = 2**0.5... cross-route
        assert contacts_at_density(4.0, 0.5, p) == pytest.approx(oracle, abs=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = rng.uniform(0.05, 40.0)
            eps = rng.uniform(0.005, 0.8)
            p = FirmParams(rng.uniform(0.01, 0.95))
            assert contacts_at_density(d, eps, p) == pytest.approx(
                optimal_contacts(d ** (-eps), p), abs=1e-12, rel=1e-12
            )

    def test_unit_cost_at_density_values(self):
        assert unit_cost_at_density(1.0, 0.02, FirmParams(0.5)) == pytest.approx(2.0)
        expected = dec_pow(20, -Decimal("0.02") * Decimal("0.35")) / 0.35
        got = unit_cost_at_density(20.0, 0.02, FirmParams(0.35))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.798, abs=5e-4)

    def test_unit_cost_substitution_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.uniform(0.05, 40.0)
            eps = rng.uniform(0.005, 0.8)
            p = FirmParams(rng.uniform(0.01, 0.95))
            assert unit_cost_at_density(d, eps, p) == pytest.approx(
                unit_cost(d ** (-eps), p), rel=1e-12
            )

    def test_decreasing_in_density(self):
        p = FirmParams(0.4)
        values = [unit_cost_at_density(d, 0.1, p) for d in (0.5, 1.0, 2.0, 8.0)]
        assert values == sorted(values, reverse=True)

    def test_raw_cost_decomposition_matches_closed_form(self):
        # communication part n*(d) * d**-eps plus production part reproduces
        # the density unit cost, tying the forms together
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = rng.uniform(0.05, 40.0)
            eps = rng.uniform(0.005, 0.8)
            p = FirmParams(rng.uniform(0.01, 0.95))
            n = contacts_at_density(d, eps, p)
            total = n * d ** (-eps) + n ** (-p.gamma) / p.gamma
            assert total == pytest.approx(unit_cost_at_density(d, eps, p), rel=1e-12)


class TestDistancingRatio:
    def test_binding_boundary(self):
        assert distancing_cost_ratio(1.0, FirmParams(0.5)) == 1.0

    def test_half_cap(self):
        p = FirmParams(0.5)
        assert distancing_cost_ratio(0.5, p) == pytest.approx(1.25, abs=1e-15)
        # cross-check: constrained raw cost over unconstrained unit cost
        tau = 0.09
        nstar = optimal_contacts(tau, p)
        ratio = raw_cost(0.5 * nstar, tau, p.gamma) / unit_cost(tau, p)
        assert ratio == pytest.approx(1.25, rel=1e-12)

    def test_quarter_cap(self):
        p = FirmParams(0.5)
        assert distancing_cost_ratio(0.25, p) == pytest.approx(2.125, abs=1e-15)
        tau = 2.5
        nstar = optimal_contacts(tau, p)
        ratio = raw_cost(0.25 * nstar, tau, p.gamma) / unit_cost(tau, p)
        assert ratio == pytest.approx(2.125, rel=1e-12)

    def test_above_one_short_circuits(self):
        assert distancing_cost_ratio(3.7, FirmParams(0.8)) == 1.0

    def test_continuous_at_one_and_decreasing(self):
        p = FirmParams(0.37)
        assert distancing_cost_ratio(1.0 - 1e-9, p) == pytest.approx(1.0, abs=1e-8)
        xs = np.linspace(0.02, 0.999, 300)
        values = [distancing_cost_ratio(float(x), p) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            distancing_cost_ratio(0.0, FirmParams(0.5))


class TestTelecomRatio:
    def test_boundary_equals_one(self):
        p = FirmParams(0.5)
        assert telecom_cost_ratio(1.0, 1.0, 0.02, p) == 1.0

    def test_four_times_cost(self):
        p = FirmParams(0.5)
        got = telecom_cost_ratio(4.0, 1.0, 0.02, p)
        assert got == pytest.approx(2.0, abs=1e-15)
        # oracle: ratio of unit costs at the two contact prices
        assert got == pytest.approx(unit_cost(4.0, p) / unit_cost(1.0 ** (-0.02), p), rel=1e-12)

    def test_increasing_in_density(self):
        p = FirmParams(0.5)
        values = [telecom_cost_ratio(4.0, d, 0.1, p) for d in (1.0, 2.0, 5.0, 20.0)]
        assert values == sorted(values)

    def test_cheap_telecom_rejected(self):
        p = FirmParams(0.5)
        with pytest.raises(DomainError, match="below the face-to-face contact cost"):
            telecom_cost_ratio(0.5, 0.2, 0.9, p)  # face-to-face costs 0.2**-0.9 ~ 4.3


class TestPreferredRegime:
    def test_low_density_unconstrained(self):
        p = FirmParams(0.5)
        regime, ratio = preferred_regime(Intervention(2.0, 3.0), 0.5, 0.1, p)
        assert regime is Regime.UNCONSTRAINED
        assert ratio == 1.0

    def test_telecom_wins_at_intermediate_density(self):
        # telecom barely above face-to-face cost: switching is near-free while
        # the cap squeezes hard
        p = FirmParams(0.5)
        d, eps = 4.0, 0.5
        regime, ratio = preferred_regime(Intervention(1.05, d ** (-eps) * 1.01), d, eps, p)
        assert regime is Regime.TELECOM
        assert 1.0 < ratio

    def test_distancing_wins_when_telecom_dear(self):
        # brute-force scan: with expensive telecom, a density exists where
        # the capped firm still prefers face-to-face
        p = FirmParams(0.5)
        intervention = Intervention(1.2, 50.0)
        found = None
        for d in np.linspace(1.5, 30.0, 200):
            regime, ratio = preferred_regime(intervention, float(d), 0.3, p)
            if regime is Regime.DISTANCED:
                found = (d, ratio)
                break
        assert found is not None
        assert found[1] > 1.0

    def test_ratio_one_iff_unconstrained(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            p = FirmParams(rng.uniform(0.05, 0.95))
            intervention = Intervention(rng.uniform(0.3, 3.0), rng.uniform(1.0, 20.0))
            d = rng.uniform(0.05, 30.0)
            regime, ratio = preferred_regime(intervention, float(d), 0.4, p)
            assert ratio >= 1.0
            assert (ratio == 1.0) == (regime is Regime.UNCONSTRAINED)


class TestCompensatingSubsidy:
    def test_zero_at_binding_boundary(self):
        assert compensating_subsidy(1.0, FirmParams(0.5)) == 0.0
        assert compensating_subsidy(2.0, FirmParams(0.5)) == 0.0

    def test_half_cap_two_thirds(self):
        # by hand: 1 - (0.5 / 0.75) * 0.5 = 2/3
        got = compensating_subsidy(0.5, FirmParams(0.5))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_approaches_one_as_cap_vanishes(self):
        p = FirmParams(0.5)
        assert compensating_subsidy(1e-12, p) == pytest.approx(1.0, abs=1e-5)

    def test_decreasing_in_cap_ratio_and_increasing_in_chi(self):
        # strict monotonicity holds except where doubles saturate just
        # below 1 (deep underflow of x**gamma at extreme chi)
        chis = np.linspace(0.01, 0.99, 60)
        ratios = np.linspace(0.01, 0.99, 60)
        saturated = 1.0 - 1e-12
        for chi in chis:
            p = FirmParams(float(chi))
            values = [compensating_subsidy(float(x), p) for x in ratios]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(a > b for a, b in zip(values, values[1:]) if a < saturated)
            assert all(0.0 < v < 1.0 for v in values)
        for x in ratios:
            values = [compensating_subsidy(float(x), FirmParams(float(c))) for c in chis]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert all(a < b for a, b in zip(values, values[1:]) if b < saturated)

    def test_chi_zero_collapses_to_zero(self):
        p = FirmParams(0.0)
        for x in (0.1, 0.5, 0.9):
            assert compensating_subsidy(x, p) == 0.0


# Every closed form takes floats or arrays.  The edge cases below run on a
# float, a 1-element array and a 3-element array whose middle element is
# the edge value (the others are ordinary).
FORMS = ("float", "one", "three")


def shaped(form, value, ordinary):
    if form == "float":
        return value
    if form == "one":
        return np.array([value])
    return np.array([ordinary, value, ordinary])


def edge(form, result):
    """The result at the edge element."""
    return result if form == "float" else result[0 if form == "one" else 1]


def _error(call):
    with pytest.raises(DomainError) as excinfo:
        call()
    return str(excinfo.value)


_HALF = FirmParams(0.5)

# (label, call taking the shaped value, ordinary value, bad value)
_BAD_INPUTS = [
    ("tau zero", lambda v: optimal_contacts(v, _HALF), 0.25, 0.0),
    ("tau nan", lambda v: unit_cost(v, _HALF), 0.25, float("nan")),
    ("density negative", lambda v: contacts_at_density(v, 0.1, _HALF), 2.0, -1.0),
    ("density inf", lambda v: unit_cost_at_density(v, 0.1, _HALF), 2.0, float("inf")),
    ("eps zero", lambda v: contacts_at_density(2.0, v, _HALF), 0.1, 0.0),
    ("cap ratio zero", lambda v: distancing_cost_ratio(v, _HALF), 0.5, 0.0),
    ("cap ratio negative", lambda v: compensating_subsidy(v, _HALF), 0.5, -0.5),
    ("chi one", FirmParams, 0.4, 1.0),
    ("chi nan", FirmParams, 0.4, float("nan")),
    ("chi zero in unit cost", lambda v: unit_cost(0.5, FirmParams(v)), 0.4, 0.0),
    ("chi zero in density cost",
     lambda v: unit_cost_at_density(2.0, 0.1, FirmParams(v)), 0.4, 0.0),
    ("telecom below face-to-face",
     lambda v: telecom_cost_ratio(0.5, v, 0.9, _HALF), 4.0, 0.2),
]


class TestArrayForms:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize(
        "call,ordinary,bad", [case[1:] for case in _BAD_INPUTS], ids=[c[0] for c in _BAD_INPUTS]
    )
    def test_bad_element_raises_the_scalar_error(self, form, call, ordinary, bad):
        assert _error(lambda: call(shaped(form, bad, ordinary))) == _error(lambda: call(bad))

    @pytest.mark.parametrize("form", FORMS)
    def test_penalty_overflow_gives_inf(self, form):
        p = FirmParams(1e3 / (1.0 + 1e3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = distancing_cost_ratio(shaped(form, 1e-300, 0.5), p)
        assert edge(form, ratio) == math.inf
        if form == "three":
            assert ratio[0] == ratio[2] == distancing_cost_ratio(0.5, p) < math.inf

    @pytest.mark.parametrize("form", FORMS)
    def test_subsidy_stays_below_one(self, form):
        p = FirmParams(0.9)
        subsidy = compensating_subsidy(shaped(form, 1e-300, 0.5), p)
        assert edge(form, subsidy) == math.nextafter(1.0, 0.0)
        assert np.all(np.asarray(subsidy) < 1.0)

    @pytest.mark.parametrize("form", FORMS)
    def test_unconstrained_edge_is_exact(self, form):
        p = FirmParams(0.37)
        x = shaped(form, 1.0, 0.5)
        assert edge(form, distancing_cost_ratio(x, p)) == 1.0
        assert edge(form, compensating_subsidy(x, p)) == 0.0
        assert edge(form, compensating_subsidy(shaped(form, 3.0, 0.5), p)) == 0.0

    def test_arrays_match_scalar_calls_elementwise(self):
        rng = np.random.default_rng(17)
        d = rng.uniform(0.05, 40.0, 200)
        chi = rng.uniform(0.0, 0.95, 200)
        x = rng.uniform(0.01, 1.5, 200)
        p = FirmParams(chi)
        scalar = [FirmParams(float(c)) for c in chi]
        intervention = Intervention(1.1, 1.3)
        regimes, ratios = preferred_regime(intervention, d, 0.3, p)
        columns = {
            "contacts": contacts_at_density(d, 0.3, p),
            "ratio": distancing_cost_ratio(x, p),
            "subsidy": compensating_subsidy(x, p),
        }
        for i, q in enumerate(scalar):
            di, xi = float(d[i]), float(x[i])
            expected = {
                "contacts": contacts_at_density(di, 0.3, q),
                "ratio": distancing_cost_ratio(xi, q),
                "subsidy": compensating_subsidy(xi, q),
            }
            for name, value in expected.items():
                assert columns[name][i] == pytest.approx(value, rel=1e-13, abs=0.0)
            regime, ratio = preferred_regime(intervention, di, 0.3, q)
            assert regimes[i] is regime
            assert ratios[i] == pytest.approx(ratio, rel=1e-13)

    def test_scalar_calls_return_the_plain_float_formulas(self):
        # the formulas as written, evaluated with Python floats: a float call
        # returns a float that numpy's power places within an ulp or two
        rng = np.random.default_rng(19)
        for _ in range(300):
            chi = float(rng.uniform(0.01, 0.95))
            d, eps = float(rng.uniform(0.05, 40.0)), float(rng.uniform(0.005, 0.8))
            x, tau = float(rng.uniform(0.01, 0.99)), float(rng.uniform(1e-3, 10.0))
            p = FirmParams(chi)
            gamma = chi / (1.0 - chi)
            T = d ** (-eps) * 1.5
            pairs = [
                (optimal_contacts(tau, p), tau ** (-1.0 / (1.0 + gamma))),
                (unit_cost(tau, p), tau**chi / chi),
                (contacts_at_density(d, eps, p), d ** (eps * (1.0 - chi))),
                (unit_cost_at_density(d, eps, p), d ** (-eps * chi) / chi),
                (distancing_cost_ratio(x, p), chi * x + (1.0 - chi) * x ** (-gamma)),
                (telecom_cost_ratio(T, d, eps, p), (T * d**eps) ** chi),
            ]
            for got, want in pairs:
                assert isinstance(got, float) and abs(got - want) <= 1e-15 * want
            # 1 minus a product near 1 cancels: its rounding error is absolute
            got = compensating_subsidy(x, p)
            want = min(1.0 - (1.0 - chi) / (1.0 - chi * x) * x**gamma, math.nextafter(1.0, 0.0))
            assert isinstance(got, float) and abs(got - want) <= 1e-15
            regime, ratio = preferred_regime(Intervention(1.0, T), d, eps, p)
            assert type(regime) is Regime and isinstance(ratio, float)
            assert (p.chi, p.gamma) == (chi, gamma)

    @pytest.mark.parametrize("call, text", [
        (lambda: optimal_contacts(0.0, _HALF), "tau must be a positive finite real, got 0.0"),
        (lambda: optimal_contacts(0, _HALF), "tau must be a positive finite real, got 0"),
        (lambda: contacts_at_density(2, -1, _HALF), "eps must be a positive finite real, got -1"),
        (lambda: distancing_cost_ratio(np.array([0.5, -0.25]), _HALF),
         "cap_ratio must be a positive finite real, got -0.25"),
        (lambda: Intervention(np.float64(0.0)),
         "contact_cap must be a positive finite real, got 0.0"),
        (lambda: FirmParams(np.float64(1.0)), "chi must lie in [0, 1), got 1.0"),
        (lambda: telecom_cost_ratio(0.25, 0.5, 1.0, _HALF),
         "telecom cost 0.25 is below the face-to-face contact cost 2.0 at density 0.5; "
         "the firm would already telecommute"),
        (lambda: telecom_cost_ratio(1, 0.25, 1, _HALF),
         "telecom cost 1 is below the face-to-face contact cost 4.0 at density 0.25; "
         "the firm would already telecommute"),
        (lambda: telecom_cost_ratio(np.array([4.0, 0.25]), 0.5, 1.0, _HALF),
         "telecom cost 0.25 is below the face-to-face contact cost 2.0 at density 0.5; "
         "the firm would already telecommute"),
    ])
    def test_error_texts_show_plain_numbers(self, call, text):
        assert _error(call) == text
