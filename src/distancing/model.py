"""Closed-form cost model of communication and the division of labor.

Production splits a unit range of tasks across specialist workers.  Every
hand-off between workers, plus the final hand-off to the customer, is one
contact at cost ``tau`` (expressed relative to the wage), so a run with
``n`` contacts costs ``n*tau + n**(-gamma)/gamma``: more contacts buy a
finer division of labor and cheaper production.  Minimizing over ``n``
(treated as continuous; integer effects are ignored) gives closed forms
for the contact count and the unit cost, and those forms extend to
density-dependent contact costs, contact caps, and a telecom fallback.

Every closed form is one pure, stateless function of plain floats or of
numpy arrays, which broadcast elementwise so a whole frame of cells is
priced in one call.  Domain checks cover every element and name the first
bad value.  A call on floats never touches numpy (this module does not
import it), so it returns exactly what float arithmetic gives.
Aggregation and data handling live elsewhere.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

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
    "telecom_cost_ratio",
    "preferred_regime",
    "compensating_subsidy",
]

# chi and gamma are redundant parameterizations; constructors keep them
# consistent to well below this tolerance.
_IDENTITY_TOL = 1e-12


def _is_array(value) -> bool:
    """Whether ``value`` is a numpy array; an array exists only once numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _select(mask, then, otherwise):
    """``then`` where ``mask`` holds, else ``otherwise``: a conditional or ``numpy.where``."""
    if _is_array(mask):
        return sys.modules["numpy"].where(mask, then, otherwise)
    return then if mask else otherwise


def _first_violation(ok, *values):
    """None if ``ok`` holds everywhere, else ``values`` at the first element where it fails."""
    if not _is_array(ok):
        return None if ok else values
    np = sys.modules["numpy"]
    bad = np.flatnonzero(~ok)
    if bad.size == 0:
        return None
    i = bad[0]
    return tuple(
        float(np.broadcast_to(v, ok.shape).flat[i]) if _is_array(v) else v for v in values
    )


def _power(base, exponent):
    """``base ** exponent``, with ``inf`` where the result overflows a double."""
    if _is_array(base) or _is_array(exponent):
        np = sys.modules["numpy"]
        with np.errstate(over="ignore"):
            return np.power(base, exponent)
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class FirmParams:
    """Communication cost share ``chi`` and specialization benefit ``gamma``.

    The two are tied by ``chi = gamma / (1 + gamma)``; build instances via
    :meth:`from_chi` or :meth:`from_gamma` so the identity always holds.
    Both are floats for one firm or equal-shape arrays for many.
    ``chi == 0`` (``gamma == 0``) is the degenerate no-communication firm:
    it is accepted so aggregation code can treat such industries uniformly,
    but the unit-cost functions reject it.
    """

    chi: float
    gamma: float

    def __post_init__(self):
        _require_chi(self.chi)
        _require_gamma(self.gamma)
        implied = self.gamma / (1.0 + self.gamma)
        bad = _first_violation(abs(self.chi - implied) <= _IDENTITY_TOL, self.chi, implied)
        if bad is not None:
            raise DomainError(
                f"inconsistent parameters: chi={bad[0]!r} but gamma/(1+gamma)={bad[1]!r}"
            )

    @classmethod
    def from_chi(cls, chi: float) -> "FirmParams":
        """Build from the communication cost share, ``0 <= chi < 1``."""
        _require_chi(chi)
        return cls(chi=chi, gamma=chi / (1.0 - chi))

    @classmethod
    def from_gamma(cls, gamma: float) -> "FirmParams":
        """Build from the division-of-labor benefit, ``gamma >= 0``."""
        _require_gamma(gamma)
        return cls(chi=gamma / (1.0 + gamma), gamma=gamma)


def _require_chi(chi) -> None:
    bad = _first_violation((chi >= 0.0) & (chi < 1.0), chi)
    if bad is not None:
        raise DomainError(f"chi must lie in [0, 1), got {bad[0]!r}")


def _require_gamma(gamma) -> None:
    bad = _first_violation((gamma >= 0.0) & (gamma < math.inf), gamma)
    if bad is not None:
        raise DomainError(f"gamma must be finite and >= 0, got {bad[0]!r}")


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
    if _is_array(value):
        ok = (value > 0.0) & (value < math.inf)
    else:
        ok = isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0
    bad = _first_violation(ok, value)
    if bad is not None:
        raise DomainError(f"{name} must be a positive finite real, got {bad[0]!r}")


def _require_communication(params: FirmParams, message: str) -> None:
    if _first_violation(params.chi > 0.0) is not None:
        raise DomainError(message)


def optimal_contacts(tau: float, params: FirmParams) -> float:
    """Cost-minimizing number of contacts, ``tau ** (-1 / (1 + gamma))``.

    Cheaper contact (lower ``tau``) means more hand-offs; a higher ``gamma``
    mutes the response because specialization is valuable regardless.
    """
    _require_positive("tau", tau)
    return tau ** (-1.0 / (1.0 + params.gamma))


def unit_cost(tau: float, params: FirmParams) -> float:
    """Minimized unit cost ``tau**chi / chi``.

    Equals the total cost ``n*tau + n**(-gamma)/gamma`` evaluated at
    ``optimal_contacts(tau)``.  Requires ``chi > 0``.
    """
    _require_positive("tau", tau)
    _require_communication(params, "unit_cost is undefined for chi = 0 (no communication)")
    return tau**params.chi / params.chi


def contacts_at_density(d: float, eps: float, params: FirmParams) -> float:
    """Optimal contacts when contact cost falls with density: ``d**(eps*(1-chi))``.

    Contact cost is ``tau = d**(-eps)`` at normalized density ``d``, so this
    is ``optimal_contacts(d**(-eps), params)`` in closed form.
    """
    _require_positive("d", d)
    _require_positive("eps", eps)
    return d ** (eps * (1.0 - params.chi))


def unit_cost_at_density(d: float, eps: float, params: FirmParams) -> float:
    """Unit cost at density ``d``: ``d**(-eps*chi) / chi``, decreasing in ``d``."""
    _require_positive("d", d)
    _require_positive("eps", eps)
    _require_communication(params, "unit_cost_at_density is undefined for chi = 0")
    return d ** (-eps * params.chi) / params.chi


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
    return _select(x >= 1.0, 1.0, params.chi * x + (1.0 - params.chi) * penalty)


def _telecom_ratio(T: float, d: float, eps: float, params: FirmParams) -> float:
    return _power(T * _power(d, eps), params.chi)


def telecom_cost_ratio(T: float, d: float, eps: float, params: FirmParams) -> float:
    """Cost ratio when all contact moves online at per-contact cost ``T``.

    Returns ``(T * d**eps) ** chi``.  Valid only when telecom is at least as
    costly as face-to-face contact at this density, ``T >= d**(-eps)``: were
    it cheaper, the firm would already be using it without any intervention.
    Equivalently, the gate says the returned ratio is >= 1.  Mind the sign
    of the exponent: the face-to-face cost at density ``d`` is ``d**(-eps)``
    and falls with density, so a bound written against ``d**eps`` compares
    T to the wrong side of the density scale.  Violations raise
    :class:`DomainError` with code ``telecom_below_face_to_face_cost``.
    """
    _require_positive("T", T)
    _require_positive("d", d)
    _require_positive("eps", eps)
    bad = _first_violation(T >= _power(d, -eps), T, d, eps)
    if bad is not None:
        T, d, eps = bad
        raise DomainError(
            f"telecom cost {T!r} is below the face-to-face contact cost "
            f"{_power(d, -eps)!r} at density {d!r}; the firm would already "
            "telecommute",
            code="telecom_below_face_to_face_cost",
        )
    return _telecom_ratio(T, d, eps, params)


def preferred_regime(
    intervention: Intervention, d: float, eps: float, params: FirmParams
) -> tuple[Regime, float]:
    """Which regime the firm picks under ``intervention``, with its cost ratio.

    Unconstrained (ratio exactly 1) when optimal contacts already fit under
    the cap.  Otherwise the cheaper of capped face-to-face and telecom;
    telecom is considered only when available and valid at this density.
    Ties go to face-to-face.  For arrays the regimes come back as an
    object array of :class:`Regime` members.
    """
    cap = intervention.contact_cap
    nstar = contacts_at_density(d, eps, params)
    binds = nstar > cap
    # cap over max(nstar, cap): exactly 1, so a ratio of exactly 1, where the cap does not bind
    ratio = distancing_cost_ratio(cap / _select(binds, nstar, cap), params)
    regime = _select(binds, Regime.DISTANCED, Regime.UNCONSTRAINED)
    T = intervention.telecom_cost
    if T is not None:
        tele = _telecom_ratio(T, d, eps, params)
        online = binds & (T >= _power(d, -eps)) & (tele < ratio)
        regime = _select(online, Regime.TELECOM, regime)
        ratio = _select(online, tele, ratio)
    return regime, ratio


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
    x = _select(binds, cap_ratio, 1.0)
    denom = 1.0 - params.chi * x
    # Unreachable for chi < 1 and x < 1; guarded so a bad caller gets a
    # typed error instead of a negative-denominator surprise.
    bad = _first_violation(denom > 0.0, params.chi * x)
    if bad is not None:
        raise DomainError(f"chi * cap_ratio = {bad[0]!r} >= 1")
    value = 1.0 - (1.0 - params.chi) / denom * x**params.gamma
    value = _select(value >= 1.0, math.nextafter(1.0, 0.0), value)
    return _select(binds, value, 0.0)
