"""Columnar test inputs built from per-row tuples, for tests that write rows by hand,
and the outcome of a read as a comparable value."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from distancing.calibrate import CellFrame
from distancing.config import RunConfig
from distancing.errors import IngestionError
from distancing.geo import CbpColumns, Cells, Coded
from distancing.model import FirmParams
from distancing.occupations import ClassificationThresholds

# The run defaults, for tests that pass a library function what a command passes.
RUN = RunConfig()
THRESHOLDS = ClassificationThresholds(RUN.cutoff, RUN.face_to_face_level, RUN.proximity_level)


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


def _columns(rows, width):
    return map(list, zip(*rows)) if rows else ([],) * width


def cbp_of(rows):
    """Establishment records from ``(zcta, naics, size_bin, establishments, suppressed)``.

    ``suppressed`` may be left out (False).
    """
    rows = [(*row, False) if len(row) == 4 else tuple(row) for row in rows]
    zcta, naics, size_bin, establishments, suppressed = _columns(rows, 5)
    return CbpColumns(
        Coded.of(zcta), Coded.of(naics), Coded.of(size_bin),
        np.array(establishments, dtype=np.int64), np.array(suppressed, dtype=bool),
    )


def cells_of(rows):
    """Employment cells from ``(zcta, industry_code, employment[, imputed_fraction])``."""
    rows = [(*row, 0.0) if len(row) == 3 else tuple(row) for row in rows]
    zcta, codes, employment, imputed = _columns(rows, 4)
    return Cells(Coded.of(zcta), Coded.of(codes), _array(employment), _array(imputed))


def frame_of(cells):
    """A frame from ``(zcta, industry_code, employment, chi, density)`` tuples."""
    zcta, codes, employment, chi, density = _columns(cells, 5)
    return CellFrame(
        Coded.of(zcta), Coded.of(codes), _array(employment), FirmParams(_array(chi)).chi,
        _array(density),
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


def outcome(read, path):
    """``("ok", what read(path) returns)`` or ``("error", the IngestionError text)``."""
    try:
        return "ok", read(path)
    except IngestionError as exc:
        return "error", str(exc)
