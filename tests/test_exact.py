"""The exact-sum kernel against ``math.fsum`` itself: whole arrays, iterables
and groups, with its overflow rule."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distancing import exact
from distancing.exact import exact_sum
from distancing.geo import Coded, group_totals


class TestExactSum:
    def test_is_fsum_of_an_array_or_an_iterable(self):
        values = np.random.default_rng(5).lognormal(size=1000) * 1e10
        expected = math.fsum(values.tolist())
        assert exact_sum(values) == exact_sum(iter(values.tolist())) == expected
        assert exact_sum([]) == 0.0

    @pytest.mark.parametrize("terms, total", [
        ([1e308, 1e308], math.inf), ([1.5e308, 1e308], math.inf),
        ([-1e308, -1e308], -math.inf),
        # only a partial sum overflows: the exact total, rounded
        ([1e308, 1e308, -1e308], 1e308), ([1e308, 1e308, -1e308, -1e308], 0.0),
    ])
    def test_finite_terms_that_overflow_in_fsum_total_exactly(self, terms, total):
        with pytest.raises(OverflowError):
            math.fsum(terms)
        for values in (terms, iter(terms), np.array(terms)):
            assert _same_float(exact_sum(values), total)

    def test_inf_and_nan_terms_as_in_fsum(self):
        assert exact_sum([1.0, math.inf]) == math.inf
        assert exact_sum(np.array([1.0, -math.inf])) == -math.inf
        assert math.isnan(exact_sum([math.nan, 1.0]))
        with pytest.raises(ValueError):
            exact_sum([math.inf, -math.inf])


# The midpoint between the largest float and 2**1024: an exact total this
# large rounds (ties to even) to inf.
_ROUNDS_TO_INF = 2**1024 - 2**970


def _fsum_or_error(terms):
    """The oracle: ``math.fsum``; where finite terms overflow in it, their
    exact ``Fraction`` total rounded by integer division, or inf by its sign
    from ``_ROUNDS_TO_INF`` up (non-finite terms decide alone, as in
    ``fsum``); and ``ValueError`` (the class) where ``fsum`` raises it (inf
    minus inf)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        special = [term for term in terms if not math.isfinite(term)]
        if special:
            return _fsum_or_error(special)
        total = sum(map(Fraction, terms))
        if abs(total) >= _ROUNDS_TO_INF:
            return math.inf if total > 0 else -math.inf
        return total.numerator / total.denominator
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
        [-1e308, -1e308], [1e308, 1e308, -1e308], [1e308, 1e308, -1e308, 1e308, -1e308],
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
        monkeypatch.setattr(exact, "exact_sum",
                            lambda terms: fallbacks.append(1) or math.fsum(terms))
        labels, (totals,) = group_totals(Coded([f"z{i:05d}" for i in range(n_groups)], codes),
                                         values)
        assert len(totals) == n_groups
        assert len(fallbacks) <= 0.01 * n_groups
        bounds = [*np.flatnonzero(np.diff(codes, prepend=-1)).tolist(), len(codes)]
        assert totals == [math.fsum(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
