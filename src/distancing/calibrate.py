"""Pinning down the two free parameters: density elasticity and contact cap.

The elasticity ``eps`` scales how fast contact costs fall with density.
Model-implied log productivity per cell is ``eps * chi * ln(d)``, which is
linear in ``eps``, so the employment-weighted regression of it on
``ln(d)`` has slope ``eps * k`` with ``k`` a pure data moment
(Cov_w(chi*ln d, ln d) / Var_w(ln d)).  Matching a target slope is then a
one-line solve, guarded by an explicit re-regression.

The contact cap ``N`` is set so that capped aggregate contacts hit a
target fraction of the unconstrained aggregate.  The aggregate is a
continuous, piecewise-linear, nondecreasing function of N with kinks at
the cells' optimal contact counts, so sorting the cells locates the
segment that contains the target and inverting that segment's line gives
N in closed form.  ``run_calibration`` re-evaluates the aggregate at the
returned N once: that value guards the result and is the reported share.

The cells travel as one :class:`CellFrame`, a column per field, so both
solves are array expressions over the frame; the cap solve takes the
contacts and employment columns as two arrays.  Every total is a
:func:`~distancing.geo.exact_sum` (``math.fsum``'s bits from the
:mod:`~distancing.geo` module's whole-array kernel) and the cap's running
sums add left to right in sorted order, so no result depends on the order
of the cells.
The result is one :class:`CalibrationReport`: eps and the cap with their
diagnostics, plus the optimal contacts at eps, which the subsidies reuse.

Each exact pass over the cells runs once per calibration.  The regression
of k and eps's verification regression share the frame's
:attr:`CellFrame.regression`: ln(d), the weight total (the frame's
employment, which the report carries on to the tables), the weighted
mean of ln(d), Sxx and w*(ln d - mean); each slope adds only its own
regressand mean and cross moment.  The cap solve and the share check
share one contact total.  The cap solve sorts the (contacts, weight)
pairs as complex numbers, which numpy orders by real part and then by
imaginary part: equal contacts (one industry in one ZCTA) come out in
weight order, so the running sums are those of a two-key sort.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from typing import Mapping, NamedTuple

import numpy as np

from .errors import CalibrationError
from .geo import Cells, Coded, Columns, exact_sum
from .industries import MixResolver
from .model import FirmParams, contacts_at_density

logger = logging.getLogger(__name__)

_SHARE_TOL = 1e-10
_SLOPE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CellFrame(Columns):
    """The (region, industry) cells the model prices, one column per field.

    ``industry_code`` is each cell's resolved industry and ``chi`` its
    communication cost share, from which :attr:`params` derives gamma; the
    numeric columns are float64 arrays, the two code columns
    :class:`~distancing.geo.Coded`.  :func:`cell_parameters` fills the
    first five; :func:`~distancing.counterfactual.compute_subsidies`
    returns a copy with the outcome columns too: optimal contacts, cap over
    optimal contacts (1 where the cap does not bind), the subsidy, and the
    regime each firm picks (an object array of
    :class:`~distancing.model.Regime`, or None without telecom).
    """

    zcta: Coded
    industry_code: Coded
    employment: np.ndarray
    chi: np.ndarray
    density: np.ndarray
    nstar: np.ndarray | None = None
    cap_ratio: np.ndarray | None = None
    subsidy: np.ndarray | None = None
    regime: np.ndarray | None = None

    @cached_property
    def params(self) -> FirmParams:
        """Every row's firm parameters as one array-valued :class:`FirmParams`.

        Built and checked once per frame: the calibration and the subsidies
        of one frame share it.
        """
        return FirmParams(self.chi)

    @cached_property
    def regression(self) -> DensityRegression:
        """The rows' :class:`DensityRegression`, built once for every slope."""
        return DensityRegression.of(self)


@dataclass
class CalibrationReport:
    """The calibrated eps and contact cap, with the run's diagnostics."""

    eps: float
    contact_cap: float
    slope_factor: float  # k: slope of the density regression per unit of eps
    achieved_slope: float
    achieved_share: float
    n_cells: int
    employment: float  # the cells' total employment, an exact_sum
    eps_fixed: bool
    # the frame's optimal contacts at eps, in frame order, as the cap solve used them
    contacts: np.ndarray = field(repr=False, compare=False)
    notes: list[str] = field(default_factory=list)


def cell_parameters(
    cells: Cells,
    resolver: MixResolver,
    densities: Mapping[str, float],
) -> CellFrame:
    """Join cells with their industry's firm parameters and region density.

    ``densities`` maps zcta to normalized density.  Cells with zero
    employment, an unresolvable industry (left in the resolver's
    ``unresolved``), or no density record cannot enter the model; the
    unresolved codes and the regions without density are warned about.
    Each code is resolved once.  The frame keeps the order of ``cells``
    (``build_cells`` sorts them by zcta and code): every total computed
    from the frame is an exact sum or goes through a sort, so no output
    byte depends on that order.  chi is checked where the model prices
    the frame (:attr:`CellFrame.params`), so a location index still reads
    an industry whose share is 1.
    """
    codes, zctas = cells.industry_code, cells.zcta
    employed = cells.employment > 0.0
    used = codes[employed].present()
    mixes = [resolver.resolve(codes.labels[code]) for code in used]
    industries = sorted({mix.industry_code for mix in mixes if mix is not None})
    industry_of = np.full(len(codes.labels), -1)
    chi_of = np.zeros(len(codes.labels))
    for code, mix in zip(used, mixes):
        if mix is not None:
            industry_of[code] = industries.index(mix.industry_code)
            chi_of[code] = mix.chi["communication"]
    industry = industry_of[codes.codes]
    unresolved = employed & (industry < 0)
    if unresolved.any():
        logger.warning(
            "%d cells skipped: no industry mix for codes %s",
            int(unresolved.sum()),
            ", ".join(codes.labels[c] for c in codes[unresolved].present()),
        )
    density = np.array([densities.get(zcta, np.nan) for zcta in zctas.labels])[zctas.codes]
    resolved = employed & ~unresolved
    missing = resolved & np.isnan(density)
    if missing.any():
        regions = zctas[missing].present()
        logger.warning(
            "%d regions lack density records; their cells were skipped: %s",
            len(regions), ", ".join(zctas.labels[z] for z in regions),
        )
    keep = resolved & ~missing
    return CellFrame(
        zctas[keep], Coded(industries, industry[keep]), cells.employment[keep],
        chi_of[codes.codes[keep]], density[keep],
    )


class DensityRegression(NamedTuple):
    """An employment-weighted regression on x = ln(density), its x side computed once.

    :meth:`of` makes the passes that every slope on the same cells shares:
    the weight total, the weighted mean of x, Sxx and ``w * (x - xbar)``.
    :meth:`slope` adds only the regressand's own mean and cross moment.
    """

    weights: np.ndarray
    x: np.ndarray
    total: float  # the weight total: the cells' employment
    sxx: float
    wdx: np.ndarray  # weights * (x - xbar)

    @classmethod
    def of(cls, frame: CellFrame) -> DensityRegression:
        w = frame.employment
        x = np.log(frame.density)
        total = exact_sum(w)
        if total <= 0.0:
            raise CalibrationError("total weight is zero; cannot regress")
        dx = x - exact_sum(w * x) / total
        sxx = exact_sum(w * dx ** 2)
        if sxx <= 0.0:
            raise CalibrationError("at least two distinct densities are required")
        return cls(w, x, total, sxx, w * dx)

    def slope(self, z: np.ndarray) -> float:
        """Weighted least-squares slope of ``z`` on x, with intercept."""
        zbar = exact_sum(self.weights * z) / self.total
        return exact_sum(self.wdx * (z - zbar)) / self.sxx


def slope_factor(frame: CellFrame) -> float:
    """The data moment k: regression slope of chi*ln(d) on ln(d), weighted."""
    regression = frame.regression
    return regression.slope(frame.chi * regression.x)


def calibrate_epsilon(frame: CellFrame, target_elasticity: float, k: float) -> float:
    """Solve for eps so the implied-productivity regression hits the target slope.

    ``k`` is the frame's :func:`slope_factor`.  The regressand is linear
    in eps, so eps = target / k.  A verification re-regression
    with the returned eps, with its own regressand mean and cross moment,
    must reproduce the target within 1e-9 or the calibration aborts.
    """
    if target_elasticity <= 0.0:
        raise CalibrationError(f"target elasticity must be positive, got {target_elasticity!r}")
    if k <= 0.0:
        raise CalibrationError(
            f"slope factor k={k!r} is not positive; exposure does not rise with "
            "density in this data, so no positive eps can match the target"
        )
    eps = target_elasticity / k
    regression = frame.regression
    achieved = regression.slope(eps * frame.chi * regression.x)
    if abs(achieved - target_elasticity) > _SLOPE_TOL:
        raise CalibrationError(
            f"verification regression slope {achieved!r} misses target "
            f"{target_elasticity!r} by more than {_SLOPE_TOL}"
        )
    return eps


def optimal_contacts_grid(frame: CellFrame, eps: float) -> np.ndarray:
    """Optimal contacts of each frame cell, in frame order, at elasticity ``eps``."""
    return contacts_at_density(frame.density, eps, frame.params)


def _contact_total(contacts: np.ndarray, weights: np.ndarray) -> float:
    """The unconstrained aggregate, employment-weighted contacts: ``inf`` where
    a product or the total overflows, NaN where a zero weight meets ``inf``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return exact_sum(weights * contacts)


def aggregate_contact_share(
    contacts: np.ndarray, weights: np.ndarray, cap: float, total: float
) -> float:
    """Capped aggregate contacts as a fraction of the unconstrained aggregate.

    ``contacts`` are the cells' optimal contacts and ``weights`` their
    employment, two float arrays of equal length.  ``total`` is the
    unconstrained aggregate, the exact sum of weights times contacts
    (:func:`_contact_total`).
    """
    if total <= 0.0:
        raise CalibrationError("total contacts are zero; cannot compute a share")
    capped = exact_sum(weights * np.minimum(cap, contacts))
    return capped / total


def _sorted_pairs(contacts: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells' contacts and weights, sorted by contacts, ties by weight.

    numpy orders complex numbers by real part, then by imaginary part, so
    one sort of ``contacts + weights * 1j`` sorts the pairs in place, with
    no index array to gather through.  Equal pairs are interchangeable, so
    the arrays equal those that ``np.lexsort((weights, contacts))`` orders,
    in under half its time.
    """
    pairs = np.empty(len(contacts), dtype=complex)
    pairs.real, pairs.imag = contacts, weights
    pairs.sort()
    return pairs.real, pairs.imag


def calibrate_cap(
    contacts: np.ndarray, weights: np.ndarray, target_share: float, total: float
) -> float:
    """The cap N at which capped contacts are the target share of the total.

    ``contacts`` are the cells' optimal contacts and ``weights`` their
    employment, two float arrays of equal length; ``total`` is as for
    :func:`aggregate_contact_share`.  The target must lie in (0, 1]; 1
    means no binding cap and returns the largest optimal contact count.
    With the cells sorted by optimal contacts (ties by weight), capped
    contacts at a cap between two consecutive counts are
    ``below + N * above``: the contacts of the cells under the cap plus N
    times the weight of the rest.  Both are running sums, added left to
    right.  The first cell whose count reaches the target ends the segment
    that holds N, and inverting that line gives N.  :func:`run_calibration`
    checks that the cap reproduces the target share within 1e-10 relative.
    """
    if not 0.0 < target_share <= 1.0:
        raise ValueError(f"target contact share must lie in (0, 1], got {target_share!r}")
    if not contacts.size:
        raise CalibrationError("no cells to calibrate the contact cap on")
    if total <= 0.0:
        raise CalibrationError("total contacts are zero; cannot calibrate a cap")
    if target_share == 1.0:
        return float(contacts.max())
    target = target_share * total
    contacts, weights = _sorted_pairs(contacts, weights)
    below = np.concatenate(([0.0], np.cumsum(weights * contacts)[:-1]))
    above = np.cumsum(weights[::-1])[::-1]
    reached = np.flatnonzero(below + contacts * above >= target)
    if not reached.size:
        return float(contacts[-1])  # only if rounding puts the target above every kink
    i = reached[0]
    return float((target - below[i]) / above[i])


def run_calibration(
    frame: CellFrame,
    target_contact_share: float,
    target_elasticity: float,
    fixed_eps: float | None,
) -> CalibrationReport:
    """Full calibration: eps (solved, or ``fixed_eps`` when not None), contact
    grid, contact cap."""
    if not frame:
        raise CalibrationError("no usable cells; calibration is impossible")
    k = slope_factor(frame)
    if fixed_eps is not None:
        if fixed_eps <= 0.0:
            raise CalibrationError(f"fixed eps must be positive, got {fixed_eps!r}")
        eps = fixed_eps
    else:
        eps = calibrate_epsilon(frame, target_elasticity, k)
    contacts = optimal_contacts_grid(frame, eps)
    total = _contact_total(contacts, frame.employment)
    if not total < inf:
        raise CalibrationError(
            f"eps {eps!r} is too large: the optimal contacts or their "
            "employment-weighted total overflow a double"
        )
    cap = calibrate_cap(contacts, frame.employment, target_contact_share, total)
    achieved_share = aggregate_contact_share(contacts, frame.employment, cap, total)
    if not abs(achieved_share - target_contact_share) <= _SHARE_TOL * target_contact_share:
        raise CalibrationError(
            f"contact cap {cap!r} gives share {achieved_share!r}, "
            f"target {target_contact_share!r}"
        )
    report = CalibrationReport(
        eps=eps,
        contact_cap=cap,
        slope_factor=k,
        achieved_slope=eps * k,
        achieved_share=achieved_share,
        n_cells=len(frame),
        employment=frame.regression.total,
        eps_fixed=fixed_eps is not None,
        contacts=contacts,
    )
    if fixed_eps is not None and abs(eps * k - target_elasticity) > 1e-12:
        report.notes.append(
            f"eps fixed at {eps}; implied density slope {eps * k:.6g} "
            f"differs from the target {target_elasticity:.6g}"
        )
    return report
