"""Apply the calibrated contact cap and compute compensating wage subsidies.

Each (region, industry) cell gets the subsidy that would offset its cost
increase under the cap.  The whole :class:`~distancing.calibrate.CellFrame`
is priced at once, at the calibrated eps and cap: every closed form runs
once, over the frame's columns, on the optimal contacts and firm
parameters that the calibration already computed for the frame.
Cells are then aggregated to employment-weighted sector and location
tables and one overall average (:func:`overall`).  Every total is a
:func:`~distancing.exact.exact_sum` or, per group, a
:func:`~distancing.geo.group_totals`: ``math.fsum``'s bits from the
:mod:`~distancing.exact` module's whole-array kernel.  The ZCTA tables are
summed in place because frames come in ZCTA order, and the overall
average divides by the employment total that the calibration already
summed.
The telecom fallback never enters the subsidy numbers; it only picks each
cell's regime and appears in the cost-ratio curves, where the two regimes
are compared across densities.  The curves price the whole density grid
in one array call per curve, and all regime switches are bisected
together, one array call per step.

At load time the module imports only numpy, the model, the error types
and :mod:`~distancing.exact`: ``geo`` loads in the table functions and
``calibrate`` is needed for annotations only, so the standalone
cost-ratio curves (``fig2``) run without the ingest layers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import CalibrationError
from .exact import exact_sum
from .model import (
    FirmParams,
    Intervention,
    Regime,
    cap_ratio,
    compensating_subsidy,
    contacts_at_density,
    distancing_cost_ratio,
    preferred_regime,
    telecom_cost_ratio,
    telecom_viable,
)

if TYPE_CHECKING:
    from .calibrate import CellFrame
    from .geo import Coded

logger = logging.getLogger(__name__)


@dataclass
class AggRow:
    """One employment-weighted aggregate (a sector, a ZCTA, or a named region)."""

    key: str
    subsidy: float
    employment: float


def compute_subsidies(
    frame: CellFrame,
    eps: float,
    contact_cap: float,
    telecom_cost: float | None,
    nstar: np.ndarray,
) -> CellFrame:
    """Per-cell compensating subsidies at elasticity ``eps`` and the contact cap.

    Returns a copy of ``frame`` with its ``nstar``, ``cap_ratio``,
    ``subsidy`` and ``regime`` columns filled.  Cells with chi = 0 have
    nothing to disrupt and get subsidy 0.  When ``telecom_cost`` is not
    None, each cell is additionally annotated with the regime the firm
    would pick; the subsidy itself always prices the face-to-face
    (distanced) response.  ``nstar`` is the frame's optimal contacts at
    ``eps``, the :attr:`~distancing.calibrate.CalibrationReport.contacts`
    of its calibration.  A nonpositive cap or telecom cost raises
    :class:`~distancing.errors.DomainError`.
    """
    intervention = Intervention(contact_cap, telecom_cost)
    params = frame.params
    ratio = cap_ratio(contact_cap, nstar)
    regime = None
    if telecom_cost is not None:
        regime, _ = preferred_regime(intervention, frame.density, eps, params, nstar)
    return replace(
        frame,
        nstar=nstar,
        cap_ratio=ratio,
        subsidy=compensating_subsidy(ratio, params),
        regime=regime,
    )


def _weighted_rows(keys: Coded, employment: np.ndarray, subsidy: np.ndarray) -> list[AggRow]:
    """Employment-weighted subsidy per key, most affected first, ties by key."""
    from .geo import group_totals

    labels, (totals, weighted) = group_totals(keys, employment, subsidy * employment)
    rows = [
        AggRow(key=key, subsidy=w / total, employment=total)
        for key, total, w in zip(labels, totals, weighted)
        if total > 0.0
    ]
    rows.sort(key=lambda row: (-row.subsidy, row.key))
    return rows


def overall(results: CellFrame, employment: float) -> AggRow:
    """The employment-weighted subsidy over all cells (key ``Average``).

    ``employment`` is the cells' total employment, the exact sum that
    :attr:`~distancing.calibrate.CalibrationReport.employment` carries.
    The sector report appends it as its last row.
    """
    if employment <= 0.0:
        raise CalibrationError("no employment in the subsidy results")
    weighted = exact_sum(results.subsidy * results.employment)
    return AggRow(key="Average", subsidy=weighted / employment, employment=employment)


def sector_table(results: CellFrame) -> list[AggRow]:
    """Employment-weighted subsidy per industry, most affected first.

    Ties break by industry code.
    """
    return _weighted_rows(results.industry_code, results.employment, results.subsidy)


def location_table(
    results: CellFrame,
    grouping: Mapping[str, str] | None = None,
) -> list[AggRow]:
    """Employment-weighted subsidy per region.

    Without a grouping, regions are individual ZCTAs.  With a grouping
    (zcta -> region name), only member ZCTAs are aggregated, into one row
    per named region; grouping entries that match no result are warned
    about.
    """
    from .geo import Coded

    zctas = results.zcta
    if grouping is None:
        return _weighted_rows(zctas, results.employment, results.subsidy)
    present = [zctas.labels[z] for z in zctas.present()]
    for zcta in sorted(set(grouping).difference(present)):
        logger.warning("region grouping lists %s, which has no results", zcta)
    # one region label per ZCTA label; the "" of non-members never enters a total
    regions = Coded.of(grouping.get(zcta, "") for zcta in zctas.labels)
    members = np.array([zcta in grouping for zcta in zctas.labels], dtype=bool)[zctas.codes]
    return _weighted_rows(
        regions[zctas.codes[members]], results.employment[members], results.subsidy[members]
    )


@dataclass
class RegimeSwitch:
    """A density where the preferred regime changes, refined by bisection."""

    density: float
    from_regime: Regime
    to_regime: Regime


@dataclass
class CostCurves:
    """Sampled cost-ratio curves over a density grid, plus regime switches."""

    densities: list[float]
    distancing: list[float]
    telecom: list[float | None]
    regimes: list[Regime]
    switches: list[RegimeSwitch]


def cost_ratio_curves(
    params: FirmParams,
    density_grid: Sequence[float],
    contact_cap: float,
    telecom_cost: float | None,
    eps: float,
) -> CostCurves:
    """Cost ratios of the capped and telecom responses across densities.

    The distancing curve equals 1 on the unconstrained segment (low
    density, few contacts) and rises with density once the cap binds; the
    telecom curve rises throughout and is only defined where telecom costs
    at least as much as face-to-face contact.  Each curve is one array call
    over the grid.  Regime switches between adjacent grid points are
    located by bisecting all of them together, one array
    :func:`~distancing.model.preferred_regime` call per step; a switch
    stops after 200 steps, once its midpoint no longer moves, or once its
    bracket is within 1e-12 relative.
    """
    intervention = Intervention(contact_cap, telecom_cost)
    d = np.array(density_grid, dtype=float)
    if (d <= 0.0).any():
        raise ValueError("density grid must be strictly positive")
    nstar = contacts_at_density(d, eps, params)
    distancing = distancing_cost_ratio(cap_ratio(contact_cap, nstar), params)
    telecom: list[float | None] = [None] * d.size
    if telecom_cost is not None:
        valid = np.flatnonzero(telecom_viable(telecom_cost, d, eps))
        ratios = telecom_cost_ratio(telecom_cost, d[valid], eps, params)
        for i, ratio in zip(valid.tolist(), ratios.tolist()):
            telecom[i] = ratio
    regimes = preferred_regime(intervention, d, eps, params, nstar)[0]

    flips = np.flatnonzero(regimes[1:] != regimes[:-1]) + 1
    lo, hi, side = d[flips - 1], d[flips], regimes[flips - 1]
    pending = np.arange(flips.size)
    for _ in range(200):
        mid = 0.5 * (lo[pending] + hi[pending])
        moves = (lo[pending] < mid) & (mid < hi[pending])
        pending, mid = pending[moves], mid[moves]
        if not pending.size:
            break
        stays = preferred_regime(intervention, mid, eps, params)[0] == side[pending]
        lo[pending[stays]] = mid[stays]
        hi[pending[~stays]] = mid[~stays]
        pending = pending[hi[pending] - lo[pending] > 1e-12 * hi[pending]]
    switches = [
        RegimeSwitch(density, regimes[i - 1], regimes[i])
        for density, i in zip((0.5 * (lo + hi)).tolist(), flips.tolist())
    ]
    return CostCurves(d.tolist(), distancing.tolist(), telecom, regimes.tolist(), switches)
