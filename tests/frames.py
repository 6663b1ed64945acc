"""Cell frames built from per-cell tuples, for tests that write cells by hand."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from distancing.calibrate import CellFrame
from distancing.model import FirmParams


class ResultRow(NamedTuple):
    """A priced cell as the table tests write it."""

    zcta: str
    industry_code: str
    nstar: float
    cap_ratio: float
    subsidy: float
    employment: float


def _array(values):
    return np.array(values, dtype=float)


def frame_of(cells):
    """A frame from ``(zcta, industry_code, employment, chi, density)`` tuples."""
    zcta, codes, employment, chi, density = map(list, zip(*cells)) if cells else ([],) * 5
    params = FirmParams.from_chi(_array(chi))
    return CellFrame(
        zcta, codes, _array(employment), params.chi, params.gamma, _array(density)
    )


def results_of(rows):
    """Priced cells from :class:`ResultRow` tuples (chi 0.5 and density 1 as fillers)."""
    rows = [ResultRow(*row) for row in rows]
    base = frame_of([(r.zcta, r.industry_code, r.employment, 0.5, 1.0) for r in rows])
    return replace(
        base,
        nstar=_array([r.nstar for r in rows]),
        cap_ratio=_array([r.cap_ratio for r in rows]),
        subsidy=_array([r.subsidy for r in rows]),
    )
