"""Exact sums, the numerics module under every layer: ``math.fsum``'s bits
for an iterable, and for an array, alone or in groups, through one
whole-array kernel.  numpy loads only when an array is summed, so the
occupation and industry indexes run without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np


def exact_sum(values: np.ndarray | Iterable[float]) -> float:
    """``math.fsum`` of a float array or of an iterable; where finite terms
    overflow in ``fsum``, their exact total correctly rounded, or ``inf``
    or ``-inf`` by its sign beyond the float range.  inf and NaN terms act
    as in ``math.fsum``.

    The total is correctly rounded (Shewchuk 1997), so it does not depend
    on the order of the terms.  An array is one group of the kernel,
    :func:`_group_sums`; an iterable goes to ``math.fsum`` itself, and
    after an overflow its terms are added as fractions.
    """
    if hasattr(values, "tolist"):
        import numpy as np

        values = np.asarray(values, dtype=float)
        return float(_group_sums(values, np.zeros(1, np.intp))[0]) if len(values) else 0.0
    values = list(values)
    try:
        return math.fsum(values)
    except OverflowError:  # fsum gives up at the first partial sum that overflows
        special = [value for value in values if not math.isfinite(value)]
        if special:
            return math.fsum(special)
        from fractions import Fraction

        total = sum(map(Fraction, values))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


# The kernel takes running sums below 2**1000 in magnitude, so no step of
# it overflows and ``fsum`` meets no intermediate overflow in any group;
# and totals from 2**-900 up, so the rounding certificate's bound cannot
# underflow by enough to matter.
_RUNNING_MAX = 2.0 ** 1000
_TOTAL_MIN = 2.0 ** -900


def _group_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`exact_sum` of each group ``values[starts[i]:starts[i + 1]]`` (the
    last to the end); ``starts`` strictly increase from 0.

    The kernel (Ogita, Rump and Oishi 2005): one running sum over the whole
    array, ``np.cumsum``, checked step by step against ``before + value``,
    and each step's exact rounding error by TwoSum, so ``value == after -
    before + error`` exactly.  A group's exact total is then the TwoSum
    difference (hi, lo) of its end and start running sums plus the sum of
    its errors, which ``np.add.reduceat`` adds with an error of at most
    about ``size * 2**-53`` times the sum of their magnitudes.  With
    ``tail = lo + errors`` and ``total, rest = TwoSum(hi, tail)``, ``total``
    is the correctly rounded sum when either certificate holds:

    - ``|rest|`` plus that bound lies strictly inside half of the smaller
      gap between ``total`` and its neighbours;
    - or nothing was rounded but ``hi + tail`` itself, which IEEE rounds
      correctly, ties to even as ``fsum`` does: ``tail`` is exact, and the
      errors add exactly, because each is a multiple of the smaller
      quantum of its step's two operands and their magnitudes add up to
      less than 2**52 times the smallest such quantum.  This one is checked
      only for groups the first leaves, which are mostly exact ties.

    One- and two-term groups are summed as IEEE adds them, which rounds
    correctly.  Every other group (totals that are zero or below 2**-900,
    non-finite terms, a running sum that fails the check or reaches
    2**1000) goes to :func:`exact_sum` as a list of its own slice.
    """
    import numpy as np

    n = len(values)
    if not n:
        return np.zeros(0)
    ends = np.append(starts[1:], n)
    size = ends - starts
    total = np.empty(len(starts))
    accepted = np.zeros(len(starts), dtype=bool)
    running = np.zeros(n + 1)
    before, after = running[:-1], running[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(values, out=after)
        step = np.add(before, values)
        exact_steps = np.array_equal(step, after)
    if exact_steps and -_RUNNING_MAX < running.min() and running.max() < _RUNNING_MAX:
        np.subtract(after, before, out=step)
        error = after - step
        np.subtract(before, error, out=error)
        np.subtract(values, step, out=step)
        error += step
        errors = np.add.reduceat(error, starts)
        magnitude = np.add.reduceat(np.abs(error, out=step), starts)
        hi, lo = _two_sum(running[ends], -running[starts])
        tail, tail_error = _two_sum(lo, errors)
        total, rest = _two_sum(hi, tail)
        # 2**-51 covers the reduceat bound (under 1.01 * size * 2**-53 for
        # groups below 2**40 terms), tail's own rounding, and this line's
        bound = (size * magnitude + np.abs(tail)) * 2.0 ** -51
        one, two = size == 1, size == 2
        total[one] = values[starts[one]]
        total[two] = values[starts[two]] + values[starts[two] + 1]
        absolute = np.abs(total)
        half_gap = (absolute - np.nextafter(absolute, 0.0)) / 2
        accepted = (one | two | (np.abs(rest) + bound < half_gap)) & (absolute >= _TOTAL_MIN)
        exact = np.flatnonzero(~accepted & (size > 2) & (absolute >= _TOTAL_MIN)
                               & (tail_error == 0.0))
        if exact.size:
            lengths = size[exact]
            first = np.cumsum(lengths) - lengths
            at = np.arange(first[-1] + lengths[-1]) + np.repeat(starts[exact] - first, lengths)
            quantum = np.minimum(np.spacing(np.abs(values[at])), np.spacing(np.abs(before[at])))
            quantum[error[at] == 0.0] = np.inf  # an exact step constrains nothing
            accepted[exact] = magnitude[exact] < 2.0 ** 52 * np.minimum.reduceat(quantum, first)
    for i in np.flatnonzero(~accepted).tolist():
        total[i] = exact_sum(values[starts[i]:ends[i]].tolist())
    return total


def _row_sums(matrix: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row ``i``, :func:`exact_sum` of ``matrix[i][mask[i]]`` (0.0 where empty)."""
    import numpy as np

    counts = mask.sum(axis=1)
    filled = counts > 0
    totals = np.zeros(len(mask))
    totals[filled] = _group_sums(matrix[mask], (np.cumsum(counts) - counts)[filled])
    return totals


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s = a + b`` and its exact rounding error ``a + b - s`` (Knuth's TwoSum)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)
