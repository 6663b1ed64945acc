"""Apply the calibrated contact cap and compute compensating wage subsidies.

Each (region, industry) cell gets the subsidy that would offset its cost
increase under the cap.  The whole :class:`~distancing.calibrate.CellFrame`
is priced at once, at the calibrated eps and cap: every closed form runs
once, over the frame's columns.
Cells are then aggregated to employment-weighted sector and location
tables and one overall average (:func:`overall`).  Every total is an
exact ``fsum``; group totals go through :func:`~distancing.geo.group_totals`.
The telecom fallback never enters the subsidy numbers; it only picks each
cell's regime and appears in the cost-ratio curves, where the two regimes
are compared across densities.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from math import fsum
from typing import TYPE_CHECKING, Mapping, Sequence

from .calibrate import CellFrame
from .errors import CalibrationError
from .geo import Coded, group_totals
from .model import (
    FirmParams,
    Intervention,
    Regime,
    compensating_subsidy,
    contacts_at_density,
    distancing_cost_ratio,
    preferred_regime,
    telecom_cost_ratio,
)

if TYPE_CHECKING:
    import numpy as np

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
    telecom_cost: float | None = None,
) -> CellFrame:
    """Per-cell compensating subsidies at elasticity ``eps`` and the contact cap.

    Returns a copy of ``frame`` with its ``nstar``, ``cap_ratio``,
    ``subsidy`` and ``regime`` columns filled.  Cells with chi = 0 have
    nothing to disrupt and get subsidy 0.  When ``telecom_cost`` is given,
    each cell is additionally annotated with the regime the firm would
    pick; the subsidy itself always prices the face-to-face (distanced)
    response.  A nonpositive eps, cap or telecom cost raises
    :class:`~distancing.errors.DomainError`.
    """
    import numpy as np

    intervention = Intervention(contact_cap, telecom_cost)
    params = frame.params
    nstar = contacts_at_density(frame.density, eps, params)
    cap_ratio = np.minimum(1.0, contact_cap / nstar)
    regime = None
    if telecom_cost is not None:
        regime, _ = preferred_regime(intervention, frame.density, eps, params)
    return replace(
        frame,
        nstar=nstar,
        cap_ratio=cap_ratio,
        subsidy=compensating_subsidy(cap_ratio, params),
        regime=regime,
    )


def _weighted_rows(keys: Coded, employment: np.ndarray, subsidy: np.ndarray) -> list[AggRow]:
    """Employment-weighted subsidy per key, most affected first, ties by key."""
    labels, (totals, weighted) = group_totals(keys, employment, subsidy * employment)
    rows = [
        AggRow(key=key, subsidy=w / total, employment=total)
        for key, total, w in zip(labels, totals, weighted)
        if total > 0.0
    ]
    rows.sort(key=lambda row: (-row.subsidy, row.key))
    return rows


def overall(results: CellFrame) -> AggRow:
    """The employment-weighted subsidy over all cells (key ``ALL``).

    Reports append it to the sector table as the average row.
    """
    employment = fsum(results.employment.tolist())
    if employment <= 0.0:
        raise CalibrationError("no employment in the subsidy results")
    weighted = fsum((results.subsidy * results.employment).tolist())
    return AggRow(key="ALL", subsidy=weighted / employment, employment=employment)


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
    import numpy as np

    zctas = results.zcta
    if grouping is None:
        return _weighted_rows(zctas, results.employment, results.subsidy)
    present = [zctas.labels[z] for z in np.unique(zctas.codes).tolist()]
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
    at least as much as face-to-face contact.  Regime switches between
    adjacent grid points are located by bisection.
    """
    intervention = Intervention(contact_cap, telecom_cost)
    densities = [float(d) for d in density_grid]
    if any(d <= 0.0 for d in densities):
        raise ValueError("density grid must be strictly positive")
    distancing: list[float] = []
    telecom: list[float | None] = []
    regimes: list[Regime] = []
    for d in densities:
        nstar = contacts_at_density(d, eps, params)
        if nstar <= contact_cap:
            distancing.append(1.0)
        else:
            distancing.append(distancing_cost_ratio(contact_cap / nstar, params))
        if telecom_cost is not None and telecom_cost >= d ** (-eps):
            telecom.append(telecom_cost_ratio(telecom_cost, d, eps, params))
        else:
            telecom.append(None)
        regimes.append(preferred_regime(intervention, d, eps, params)[0])

    switches = []
    for i in range(1, len(densities)):
        if regimes[i] != regimes[i - 1]:
            crossing = _refine_switch(
                intervention, params, eps, densities[i - 1], densities[i], regimes[i - 1]
            )
            switches.append(RegimeSwitch(crossing, regimes[i - 1], regimes[i]))
    return CostCurves(densities, distancing, telecom, regimes, switches)


def _refine_switch(
    intervention: Intervention,
    params: FirmParams,
    eps: float,
    lo: float,
    hi: float,
    from_regime: Regime,
) -> float:
    """Bisect the density where the regime flips between two grid points."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        regime = preferred_regime(intervention, mid, eps, params)[0]
        if regime == from_regime:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)
