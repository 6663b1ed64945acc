"""Occupation-level exposure flags from task scores and work contexts.

Three boolean flags per occupation, each built the same way: the mean of
five task-activity scores (0-100 scale) must strictly exceed a cutoff,
and a work-context gate must hold.

* teamwork: frequent face-to-face discussion that outranks both email and
  written memos.  The outranking requirement drops roles whose meetings
  are readily replaced by structured written communication (most
  managers, some business services).
* customer: frequent face-to-face discussion with external customers or
  the public.
* presence: physical proximity at shared-office level or closer, for
  work around machinery, vehicles, or other key resources.

``communication`` is the union of teamwork and customer, and is the group
that feeds the cost model downstream.  Inputs must already be normalized:
task scores to 0-100, context items to the ordinal 1-5 scale (4 = several
times a week for discussion frequency, 3 = shared office for proximity).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import csvio
from .errors import ClassificationError, IngestionError

logger = logging.getLogger(__name__)

TEAMWORK_TASKS = (
    "Work With Work Group or Team",
    "Provide Consultation and Advice to Others",
    "Coordinating the Work and Activities of Others",
    "Guiding Directing and Motivating Subordinates",
    "Developing and Building Teams",
)

CUSTOMER_TASKS = (
    "Deal With External Customers",
    "Performing for or Working Directly with the Public",
    "Assisting and Caring for Others",
    "Provide Consultation and Advice to Others",
    "Establishing and Maintaining Interpersonal Relationships",
)

PRESENCE_TASKS = (
    "Handling and Moving Objects",
    "Operating Vehicles, Mechanized Devices or Equipment",
    "Repairing and Maintaining Electronic Equipment",
    "Repairing and Maintaining Mechanical Equipment",
    "Inspecting Equipment, Structures, or Material",
)

# Context item keys (CSV columns carry a ctx_ prefix).
FACE_TO_FACE = "face_to_face"
EMAIL = "email"
LETTERS = "letters"
PROXIMITY = "proximity"
CONTEXT_ITEMS = (FACE_TO_FACE, EMAIL, LETTERS, PROXIMITY)

_SOC_PATTERN = re.compile(r"^\d{2}-\d{4}$")


@dataclass(frozen=True)
class ClassificationThresholds:
    """Cutoffs for the three flags, from the run's :class:`~distancing.config.RunConfig`."""

    cutoff: float
    face_to_face_level: int
    proximity_level: int

    def __post_init__(self):
        if not 0.0 <= self.cutoff <= 100.0:
            raise IngestionError(f"cutoff must lie in [0, 100], got {self.cutoff!r}")
        for name in ("face_to_face_level", "proximity_level"):
            level = getattr(self, name)
            if level not in (1, 2, 3, 4, 5):
                raise IngestionError(f"{name} must be an integer in 1..5, got {level!r}")


@dataclass
class OccupationProfile:
    """Raw measurement for one occupation.

    ``task_scores`` maps task-activity names to 0-100 importance scores;
    ``context_levels`` maps context items to ordinal 1-5 levels.  Missing
    items are simply absent from the maps.
    """

    soc_code: str
    title: str
    task_scores: dict[str, float]
    context_levels: dict[str, int]

    def __post_init__(self):
        if not _SOC_PATTERN.match(self.soc_code):
            raise IngestionError(
                f"soc_code {self.soc_code!r} does not match the 6-digit XX-XXXX pattern"
            )
        for task, score in self.task_scores.items():
            if not 0.0 <= score <= 100.0:
                raise IngestionError(
                    f"{self.soc_code}: task {task!r} score {score!r} outside [0, 100]"
                )
        for item, level in self.context_levels.items():
            if not isinstance(level, int) or level not in (1, 2, 3, 4, 5):
                raise IngestionError(
                    f"{self.soc_code}: context {item!r} level {level!r} not in 1..5"
                )


# The exposure groups, each an attribute of ExposureFlags, in output column order.
GROUPS = ("teamwork", "customer", "communication", "presence")


@dataclass(frozen=True)
class ExposureFlags:
    """The three classifications; ``communication`` is their teamwork-or-customer union."""

    teamwork: bool
    customer: bool
    presence: bool

    @property
    def communication(self) -> bool:
        return self.teamwork or self.customer


def composite_index(profile: OccupationProfile, component_tasks: Sequence[str]) -> float:
    """Arithmetic mean of the named component task scores."""
    total = 0.0
    for task in component_tasks:
        if task not in profile.task_scores:
            raise ClassificationError(
                f"occupation {profile.soc_code}: no score for task {task!r}"
            )
        total += profile.task_scores[task]
    return total / len(component_tasks)


def _context(profile: OccupationProfile, item: str) -> int:
    if item not in profile.context_levels:
        raise ClassificationError(
            f"occupation {profile.soc_code}: missing context item {item!r}"
        )
    return profile.context_levels[item]


def classify_teamwork(
    profile: OccupationProfile,
    thresholds: ClassificationThresholds,
) -> bool:
    """Teamwork-intensive: high composite, frequent face-to-face discussion,
    and face-to-face strictly more frequent than both email and memos."""
    composite = composite_index(profile, TEAMWORK_TASKS)
    face = _context(profile, FACE_TO_FACE)
    email = _context(profile, EMAIL)
    letters = _context(profile, LETTERS)
    return (
        composite > thresholds.cutoff
        and face >= thresholds.face_to_face_level
        and face > email
        and face > letters
    )


def classify_customer(
    profile: OccupationProfile,
    thresholds: ClassificationThresholds,
) -> bool:
    """Customer-facing: high composite and frequent face-to-face discussion."""
    composite = composite_index(profile, CUSTOMER_TASKS)
    face = _context(profile, FACE_TO_FACE)
    return composite > thresholds.cutoff and face >= thresholds.face_to_face_level


def classify_presence(
    profile: OccupationProfile,
    thresholds: ClassificationThresholds,
) -> bool:
    """Requires physical presence: high composite and shared-office proximity."""
    composite = composite_index(profile, PRESENCE_TASKS)
    proximity = _context(profile, PROXIMITY)
    return composite > thresholds.cutoff and proximity >= thresholds.proximity_level


def classify_all(
    profiles: Iterable[OccupationProfile],
    thresholds: ClassificationThresholds,
    lenient: bool,
) -> dict[str, ExposureFlags]:
    """Classify every occupation; returns a soc-code-sorted map.

    Duplicate soc codes are an ingestion error.  Missing task or context
    data is a hard error naming the profile's row, its place in
    ``profiles`` from 1 (the data row of :func:`read_profiles_csv`); with
    ``lenient`` the affected flag fails closed (False) instead.  Note the
    closed-fail biases the downstream communication shares low, which is
    why a run's ``lenient`` is off unless set.
    """
    flags: dict[str, ExposureFlags] = {}
    for row, profile in enumerate(profiles, start=1):
        if profile.soc_code in flags:
            raise IngestionError(f"duplicate soc_code {profile.soc_code!r}")
        values = []
        for classify in (classify_teamwork, classify_customer, classify_presence):
            try:
                values.append(classify(profile, thresholds))
            except ClassificationError as exc:
                if not lenient:
                    raise ClassificationError(f"row {row}: {exc}") from None
                values.append(False)
        flags[profile.soc_code] = ExposureFlags(*values)
    flags = dict(sorted(flags.items()))

    counts = {group: sum(1 for f in flags.values() if getattr(f, group)) for group in GROUPS}
    logger.info(
        "classified %d occupations: teamwork=%d customer=%d communication=%d presence=%d",
        len(flags), counts["teamwork"], counts["customer"],
        counts["communication"], counts["presence"],
    )
    return flags


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

_CTX_COLUMNS = {f"ctx_{item}": item for item in CONTEXT_ITEMS}


def read_profiles_csv(path: str | Path) -> list[OccupationProfile]:
    """Read occupation profiles.

    Expected header: ``soc_code,title,<task columns...>,ctx_face_to_face,
    ctx_email,ctx_letters,ctx_proximity``.  Task columns are everything
    that is not soc_code/title/ctx_*.  Empty cells mean "not measured" and
    are left out of the profile maps.  A file without data rows is a data
    error naming the file; a malformed SOC code, score or level one naming
    the file and row, and a repeated SOC code one naming both rows.
    """
    fieldnames, rows = csvio.read_rows(path, ["soc_code", "title", *_CTX_COLUMNS])
    csvio.require_rows(len(rows), path=path)
    task_columns = [
        name for name in fieldnames
        if name not in ("soc_code", "title") and name not in _CTX_COLUMNS
    ]
    profiles = []
    first_row: dict[str, int] = {}
    for i, row in enumerate(rows, start=1):
        where = f"{path} row {i}"
        scores = {}
        for column in task_columns:
            raw = (row.get(column) or "").strip()
            if raw:
                scores[column] = csvio.parse_float(raw, path=where, field=column)
        contexts = {}
        for column, item in _CTX_COLUMNS.items():
            raw = (row.get(column) or "").strip()
            if raw:
                contexts[item] = csvio.parse_int(raw, path=where, field=column)
        try:
            profile = OccupationProfile(
                soc_code=row["soc_code"].strip(),
                title=row["title"].strip(),
                task_scores=scores,
                context_levels=contexts,
            )
        except IngestionError as exc:
            raise IngestionError(f"{where}: {exc}") from None
        csvio.require_unique(first_row, profile.soc_code, i, path=path, field="soc_code")
        profiles.append(profile)
    return profiles


def flags_table(
    profiles: Iterable[OccupationProfile], flags: Mapping[str, ExposureFlags]
) -> tuple[list[str], list[list]]:
    """The occupation index: ``soc_code,title,teamwork,customer,communication,presence``
    with 0/1 flags, one row per occupation in code order."""
    titles = {p.soc_code: p.title for p in profiles}
    rows = [
        [soc, titles.get(soc, ""), f.teamwork, f.customer, f.communication, f.presence]
        for soc, f in sorted(flags.items())
    ]
    return ["soc_code", "title", "teamwork", "customer", "communication", "presence"], rows
