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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import accumulate
from math import fsum, log
from typing import Iterable, Mapping, Sequence

from .errors import CalibrationError
from .geo import RegionCell
from .industries import MixResolver
from .model import FirmParams, contacts_at_density

logger = logging.getLogger(__name__)

_SHARE_TOL = 1e-10
_SLOPE_TOL = 1e-9


@dataclass(frozen=True)
class CellParams:
    """Everything the model needs about one (region, industry) cell.

    ``industry_code`` is the resolved industry and ``params`` its firm
    parameters, one object shared by every cell of that industry.
    """

    zcta: str
    industry_code: str
    employment: float
    params: FirmParams
    density: float


@dataclass
class CalibratedModel:
    """Calibration output: the global parameters; firm parameters live on the cells."""

    eps: float
    contact_cap: float

    def __post_init__(self):
        if self.eps <= 0.0:
            raise CalibrationError(f"eps must be positive, got {self.eps!r}")
        if self.contact_cap <= 0.0:
            raise CalibrationError(f"contact_cap must be positive, got {self.contact_cap!r}")


@dataclass
class CalibrationReport:
    """Diagnostics for the calibration run."""

    eps: float
    contact_cap: float
    slope_factor: float  # k: slope of the density regression per unit of eps
    achieved_slope: float
    achieved_share: float
    n_cells: int
    eps_fixed: bool = False
    notes: list[str] = field(default_factory=list)


def cell_parameters(
    cells: Iterable[RegionCell],
    resolver: MixResolver,
    densities: Mapping[str, float],
) -> list[CellParams]:
    """Join cells with their industry's firm parameters and region density.

    ``densities`` maps zcta to normalized density.  Cells with zero
    employment, an unresolvable industry (left in the resolver's
    ``unresolved``), or no density record cannot enter the model; missing
    densities are warned about.  Each industry's :class:`FirmParams` is
    built once, from its communication share, and shared by its cells.
    The frame keeps the order of ``cells`` (``build_cells`` sorts them by
    zcta and code): every total computed from the frame is an ``fsum`` or
    goes through a sort, so no output byte depends on that order.
    """
    frame: list[CellParams] = []
    missing_density: set[str] = set()
    params: dict[str, FirmParams] = {}
    for cell in cells:
        if cell.employment <= 0.0:
            continue
        mix = resolver.resolve(cell.industry_code)
        if mix is None:
            continue
        density = densities.get(cell.zcta)
        if density is None:
            missing_density.add(cell.zcta)
            continue
        code = mix.industry_code
        if code not in params:
            params[code] = FirmParams.from_chi(mix.chi["communication"])
        frame.append(CellParams(cell.zcta, code, cell.employment, params[code], density))
    if missing_density:
        logger.warning(
            "%d regions lack density records; their cells were skipped: %s",
            len(missing_density), ", ".join(sorted(missing_density)),
        )
    return frame


def _weighted_slope(points: Sequence[tuple[float, float, float]]) -> float:
    """Weighted least-squares slope of z on x with intercept.

    ``points`` are (weight, x, z) triples.
    """
    total = fsum(w for w, _, _ in points)
    if total <= 0.0:
        raise CalibrationError("total weight is zero; cannot regress")
    xbar = fsum(w * x for w, x, _ in points) / total
    zbar = fsum(w * z for w, _, z in points) / total
    sxx = fsum(w * (x - xbar) ** 2 for w, x, _ in points)
    if sxx <= 0.0:
        raise CalibrationError("at least two distinct densities are required")
    sxz = fsum(w * (x - xbar) * (z - zbar) for w, x, z in points)
    return sxz / sxx


def slope_factor(frame: Sequence[CellParams]) -> float:
    """The data moment k: regression slope of chi*ln(d) on ln(d), weighted."""
    points = [(c.employment, log(c.density), c.params.chi * log(c.density)) for c in frame]
    return _weighted_slope(points)


def calibrate_epsilon(
    frame: Sequence[CellParams], target_elasticity: float, k: float
) -> float:
    """Solve for eps so the implied-productivity regression hits the target slope.

    ``k`` is the frame's :func:`slope_factor`.  The regressand is linear in
    eps, so eps = target / k.  A verification re-regression with the
    returned eps must reproduce the target within 1e-9 or the calibration
    aborts.
    """
    if target_elasticity <= 0.0:
        raise CalibrationError(f"target elasticity must be positive, got {target_elasticity!r}")
    if k <= 0.0:
        raise CalibrationError(
            f"slope factor k={k!r} is not positive; exposure does not rise with "
            "density in this data, so no positive eps can match the target"
        )
    eps = target_elasticity / k
    check = [(c.employment, log(c.density), eps * c.params.chi * log(c.density)) for c in frame]
    achieved = _weighted_slope(check)
    if abs(achieved - target_elasticity) > _SLOPE_TOL:
        raise CalibrationError(
            f"verification regression slope {achieved!r} misses target "
            f"{target_elasticity!r} by more than {_SLOPE_TOL}"
        )
    return eps


def optimal_contacts_grid(frame: Sequence[CellParams], eps: float) -> list[float]:
    """Optimal contacts of each frame cell, in frame order, at elasticity ``eps``."""
    return [contacts_at_density(c.density, eps, c.params) for c in frame]


def aggregate_contact_share(pairs: Sequence[tuple[float, float]], cap: float) -> float:
    """Capped aggregate contacts as a fraction of the unconstrained aggregate."""
    total = fsum(w * n for n, w in pairs)
    if total <= 0.0:
        raise CalibrationError("total contacts are zero; cannot compute a share")
    capped = fsum(w * min(cap, n) for n, w in pairs)
    return capped / total


def calibrate_cap(pairs: Sequence[tuple[float, float]], target_share: float) -> float:
    """The cap N at which capped contacts are the target share of the total.

    ``pairs`` are (optimal contacts, employment weight).  The target must
    lie in (0, 1]; 1 means no binding cap and returns the largest optimal
    contact count.  With the cells sorted by optimal contacts, capped
    contacts at a cap between two consecutive counts are ``below + N *
    above``: the contacts of the cells under the cap plus N times the
    weight of the rest.  The first cell whose count reaches the target ends
    the segment that holds N, and inverting that line gives N.
    :func:`run_calibration` checks that the cap reproduces the target share
    within 1e-10 relative.
    """
    if not 0.0 < target_share <= 1.0:
        raise ValueError(f"target contact share must lie in (0, 1], got {target_share!r}")
    if not pairs:
        raise CalibrationError("no cells to calibrate the contact cap on")
    total = fsum(w * n for n, w in pairs)
    if total <= 0.0:
        raise CalibrationError("total contacts are zero; cannot calibrate a cap")
    if target_share == 1.0:
        return max(n for n, _ in pairs)
    target = target_share * total
    ordered = sorted(pairs)
    below = [0.0, *accumulate(w * n for n, w in ordered)]
    above = [*accumulate(w for _, w in reversed(ordered))][::-1]
    for i, (n, _) in enumerate(ordered):
        if below[i] + n * above[i] >= target:
            return (target - below[i]) / above[i]
    return ordered[-1][0]  # reached only if rounding puts the target above every kink


def run_calibration(
    frame: Sequence[CellParams],
    target_contact_share: float = 0.5,
    target_elasticity: float = 0.04,
    fixed_eps: float | None = None,
) -> tuple[CalibratedModel, CalibrationReport]:
    """Full calibration: eps (solved or fixed), contact grid, contact cap."""
    if not frame:
        raise CalibrationError("no usable cells; calibration is impossible")
    k = slope_factor(frame)
    if fixed_eps is not None:
        if fixed_eps <= 0.0:
            raise CalibrationError(f"fixed eps must be positive, got {fixed_eps!r}")
        eps = fixed_eps
    else:
        eps = calibrate_epsilon(frame, target_elasticity, k)
    pairs = list(zip(optimal_contacts_grid(frame, eps), (c.employment for c in frame)))
    cap = calibrate_cap(pairs, target_contact_share)
    achieved_share = aggregate_contact_share(pairs, cap)
    if abs(achieved_share - target_contact_share) > _SHARE_TOL * target_contact_share:
        raise CalibrationError(
            f"contact cap {cap!r} gives share {achieved_share!r}, "
            f"target {target_contact_share!r}"
        )
    model = CalibratedModel(eps=eps, contact_cap=cap)
    report = CalibrationReport(
        eps=eps,
        contact_cap=cap,
        slope_factor=k,
        achieved_slope=eps * k,
        achieved_share=achieved_share,
        n_cells=len(frame),
        eps_fixed=fixed_eps is not None,
    )
    if fixed_eps is not None and abs(eps * k - target_elasticity) > 1e-12:
        report.notes.append(
            f"eps fixed at {eps}; implied density slope {eps * k:.6g} "
            f"differs from the target {target_elasticity:.6g}"
        )
    return model, report
