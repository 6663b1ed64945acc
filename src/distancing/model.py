"""Closed-form cost model of communication and the division of labor.

Production splits a unit range of tasks across specialist workers.  Every
hand-off between workers, plus the final hand-off to the customer, is one
contact at cost ``tau`` (expressed relative to the wage), so a run with
``n`` contacts costs ``n*tau + n**(-gamma)/gamma``: more contacts buy a
finer division of labor and cheaper production.  Minimizing over ``n``
(treated as continuous; integer effects are ignored) gives closed forms
for the contact count and the unit cost, and those forms extend to
density-dependent contact costs, contact caps, and a telecom fallback.

Every closed form is one pure, stateless function over numpy: its inputs
are floats or arrays, which broadcast elementwise so a whole frame of
cells is priced in one call.  Float inputs give scalars back, a numpy
float64 (a ``float``) and plain :class:`Regime` members, never 0-d arrays.
Domain checks cover every element and name the first bad value as a
plain Python number.  Aggregation and data handling live elsewhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "FirmParams",
    "Intervention",
    "Regime",
    "optimal_contacts",
    "unit_cost",
    "contacts_at_density",
    "unit_cost_at_density",
    "distancing_cost_ratio",
    "telecom_viable",
    "telecom_cost_ratio",
    "preferred_regime",
    "compensating_subsidy",
]

def _first_violation(ok, *values):
    """None if ``ok`` holds everywhere, else ``values`` at the first element where it
    fails, each an ``int`` or a plain ``float`` so an error text shows no numpy repr."""
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size == 0:
        return None
    i = bad[0]
    shape = np.shape(ok)
    return tuple(v if type(v) is int else float(np.broadcast_to(v, shape).flat[i])
                 for v in values)


def _power(base, exponent):
    """``base ** exponent`` in doubles, with ``inf`` where the result overflows."""
    with np.errstate(over="ignore"):
        return np.power(base, exponent, dtype=float)


@dataclass(frozen=True)
class FirmParams:
    """Communication cost share ``chi`` and the specialization benefit it implies.

    ``gamma = chi / (1 - chi)`` is derived once, at construction, so the
    identity ``chi = gamma / (1 + gamma)`` holds by definition.  ``chi`` is a
    float for one firm or an array for many.  ``chi == 0`` (``gamma == 0``)
    is the degenerate no-communication firm: it is accepted so aggregation
    code can treat such industries uniformly, but the unit-cost functions
    reject it.
    """

    chi: float
    gamma: float = field(init=False)

    def __post_init__(self):
        _require_chi(self.chi)
        object.__setattr__(self, "gamma", self.chi / (1.0 - self.chi))


def _require_chi(chi) -> None:
    bad = _first_violation((chi >= 0.0) & (chi < 1.0), chi)
    if bad is not None:
        raise DomainError(f"chi must lie in [0, 1), got {bad[0]!r}")


@dataclass(frozen=True)
class Intervention:
    """A contact-limiting policy: cap on face-to-face contacts, optional telecom.

    ``telecom_cost`` is the per-contact cost of the online fallback; ``None``
    means the fallback is unavailable.
    """

    contact_cap: float
    telecom_cost: float | None = None

    def __post_init__(self):
        _require_positive("contact_cap", self.contact_cap)
        if self.telecom_cost is not None:
            _require_positive("telecom_cost", self.telecom_cost)


class Regime(enum.Enum):
    """How a firm operates under an intervention."""

    UNCONSTRAINED = "unconstrained"
    DISTANCED = "distanced"
    TELECOM = "telecom"


def _require_positive(name: str, value) -> None:
    bad = _first_violation((value > 0.0) & (value < math.inf), value)
    if bad is not None:
        raise DomainError(f"{name} must be a positive finite real, got {bad[0]!r}")


def _require_communication(params: FirmParams, message: str) -> None:
    if not np.all(params.chi > 0.0):
        raise DomainError(message)


def optimal_contacts(tau: float, params: FirmParams) -> float:
    """Cost-minimizing number of contacts, ``tau ** (-1 / (1 + gamma))``.

    Cheaper contact (lower ``tau``) means more hand-offs; a higher ``gamma``
    mutes the response because specialization is valuable regardless.
    """
    _require_positive("tau", tau)
    return _power(tau, -1.0 / (1.0 + params.gamma))


def unit_cost(tau: float, params: FirmParams) -> float:
    """Minimized unit cost ``tau**chi / chi``.

    Equals the total cost ``n*tau + n**(-gamma)/gamma`` evaluated at
    ``optimal_contacts(tau)``.  Requires ``chi > 0``.
    """
    _require_positive("tau", tau)
    _require_communication(params, "unit_cost is undefined for chi = 0 (no communication)")
    return _power(tau, params.chi) / params.chi


def contacts_at_density(d: float, eps: float, params: FirmParams) -> float:
    """Optimal contacts when contact cost falls with density: ``d**(eps*(1-chi))``.

    Contact cost is ``tau = d**(-eps)`` at normalized density ``d``, so this
    is ``optimal_contacts(d**(-eps), params)`` in closed form.
    """
    _require_positive("d", d)
    _require_positive("eps", eps)
    return _power(d, eps * (1.0 - params.chi))


def unit_cost_at_density(d: float, eps: float, params: FirmParams) -> float:
    """Unit cost at density ``d``: ``d**(-eps*chi) / chi``, decreasing in ``d``."""
    _require_positive("d", d)
    _require_positive("eps", eps)
    _require_communication(params, "unit_cost_at_density is undefined for chi = 0")
    return _power(d, -eps * params.chi) / params.chi


def distancing_cost_ratio(cap_ratio: float, params: FirmParams) -> float:
    """Cost ratio of a capped firm to an unconstrained one.

    ``cap_ratio`` is cap over optimal contacts.  At or above 1 the cap does
    not bind and the ratio is exactly 1.  Below 1 the firm keeps face-to-face
    contact at the capped level and pays
    ``chi * x + (1 - chi) * x**(-gamma)`` with ``x = cap_ratio``: it saves a
    little communication cost but loses more specialization, so the ratio is
    strictly above 1.  When the specialization penalty exceeds the double
    range (tiny cap, huge gamma) the ratio is reported as ``inf``.
    """
    _require_positive("cap_ratio", cap_ratio)
    x = cap_ratio
    penalty = _power(x, -params.gamma)
    return np.where(x >= 1.0, 1.0, params.chi * x + (1.0 - params.chi) * penalty)[()]


def _telecom_ratio(T: float, d: float, eps: float, params: FirmParams) -> float:
    return _power(T * _power(d, eps), params.chi)


def telecom_viable(T: float, d: float, eps: float) -> bool:
    """Whether telecom at per-contact cost ``T`` is at least as costly as
    face-to-face contact at density ``d``, ``T >= d**(-eps)``.

    Where it is cheaper, the firm would already be using it without any
    intervention, so only viable points price telecom.  Mind the sign of
    the exponent: the face-to-face cost at density ``d`` is ``d**(-eps)``
    and falls with density, so a bound written against ``d**eps`` compares
    T to the wrong side of the density scale.
    """
    return T >= _power(d, -eps)


def telecom_cost_ratio(T: float, d: float, eps: float, params: FirmParams) -> float:
    """Cost ratio when all contact moves online at per-contact cost ``T``.

    Returns ``(T * d**eps) ** chi``, defined where :func:`telecom_viable`
    holds; equivalently, where the returned ratio is >= 1.  Elsewhere it
    raises :class:`DomainError` naming the first such point.
    """
    _require_positive("T", T)
    _require_positive("d", d)
    _require_positive("eps", eps)
    bad = _first_violation(telecom_viable(T, d, eps), T, d, eps)
    if bad is not None:
        cost, density, elasticity = bad
        raise DomainError(
            f"telecom cost {cost!r} is below the face-to-face contact cost "
            f"{float(_power(density, -elasticity))!r} at density {density!r}; "
            "the firm would already telecommute"
        )
    return _telecom_ratio(T, d, eps, params)


def preferred_regime(
    intervention: Intervention,
    d: float,
    eps: float,
    params: FirmParams,
    nstar: float | None = None,
) -> tuple[Regime, float]:
    """Which regime the firm picks under ``intervention``, with its cost ratio.

    Unconstrained (ratio exactly 1) when optimal contacts already fit under
    the cap.  Otherwise the cheaper of capped face-to-face and telecom;
    telecom is considered only when available and valid at this density.
    Ties go to face-to-face.  For arrays the regimes come back as an
    object array of :class:`Regime` members.  ``nstar`` is
    ``contacts_at_density(d, eps, params)``, computed here when not given.
    """
    cap = intervention.contact_cap
    if nstar is None:
        nstar = contacts_at_density(d, eps, params)
    binds = nstar > cap
    # cap over max(nstar, cap): exactly 1, so a ratio of exactly 1, where the cap does not bind
    ratio = distancing_cost_ratio(cap / np.where(binds, nstar, cap), params)
    regime = np.where(binds, Regime.DISTANCED, Regime.UNCONSTRAINED)
    T = intervention.telecom_cost
    if T is not None:
        tele = _telecom_ratio(T, d, eps, params)
        online = binds & telecom_viable(T, d, eps) & (tele < ratio)
        regime = np.where(online, Regime.TELECOM, regime)
        ratio = np.where(online, tele, ratio)
    return regime[()], ratio[()]


def compensating_subsidy(cap_ratio: float, params: FirmParams) -> float:
    """Proportional wage subsidy that offsets the cost of a binding cap.

    With ``x = cap_ratio``:

        subsidy = 1 - (1 - chi) / (1 - chi * x) * x**gamma

    Zero when the cap does not bind (``x >= 1``), strictly inside (0, 1)
    when it does (and ``gamma > 0``), and approaching 1 as the cap chokes
    off all contact.  For the degenerate ``chi = 0`` firm the subsidy is 0
    at every cap.  The exact value never reaches 1; when ``x**gamma``
    underflows so far that the double rounds up to 1.0, the next-lower
    double is returned to keep the value strictly below 1.
    """
    _require_positive("cap_ratio", cap_ratio)
    binds = cap_ratio < 1.0
    x = np.where(binds, cap_ratio, 1.0)
    denom = 1.0 - params.chi * x
    # Unreachable for chi < 1 and x < 1; guarded so a bad caller gets a
    # typed error instead of a negative-denominator surprise.
    bad = _first_violation(denom > 0.0, params.chi * x)
    if bad is not None:
        raise DomainError(f"chi * cap_ratio = {bad[0]!r} >= 1")
    value = 1.0 - (1.0 - params.chi) / denom * _power(x, params.gamma)
    return np.where(binds, np.minimum(value, math.nextafter(1.0, 0.0)), 0.0)[()]
