"""Industry-level exposure shares from the industry-occupation matrix.

For each industry, occupation employment shares are combined with the
occupation flags to give the fraction of workers in each exposure group
(chi).  Occupation shares are assumed not to vary across locations, so
these industry shares can later be attached to any region where the
industry operates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import fsum, inf, isfinite
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

from . import csvio
from .errors import IngestionError
from .occupations import ExposureFlags

logger = logging.getLogger(__name__)

GROUPS = ("teamwork", "customer", "communication", "presence")


@dataclass
class IndustryMix:
    """One industry's occupation shares and per-group exposure fractions."""

    industry_code: str
    name: str
    shares: dict[str, float]
    chi: dict[str, float]


@dataclass
class MixBuildReport:
    """Result of building the industry mixes, with reconciliation details.

    ``unknown_socs`` lists occupations that appear in the matrix but have
    no exposure flags; they stay in the share denominator (counted as
    unexposed) so shares still sum to one.  ``skipped_industries`` had zero
    total employment.
    """

    mixes: list[IndustryMix] = field(default_factory=list)
    unknown_socs: list[str] = field(default_factory=list)
    skipped_industries: list[str] = field(default_factory=list)


def build_mix(
    matrix_rows: Iterable[tuple[str, str, float]],
    flags: Mapping[str, ExposureFlags],
    names: Mapping[str, str] | None = None,
) -> MixBuildReport:
    """Normalize employment shares per industry and compute group chi values.

    ``matrix_rows`` are (industry_code, soc_code, employment) records;
    repeated (industry, occupation) pairs are summed.  Negative employment
    is rejected, and so is an industry total that is not finite (a value
    that is not, or a sum beyond the float range).
    """
    names = names or {}
    employment: dict[str, dict[str, float]] = {}
    for industry_code, soc_code, emp in matrix_rows:
        if emp < 0:
            raise IngestionError(
                f"negative employment {emp!r} for industry {industry_code!r}, "
                f"occupation {soc_code!r}"
            )
        cell = employment.setdefault(industry_code, {})
        cell[soc_code] = cell.get(soc_code, 0.0) + float(emp)

    report = MixBuildReport()
    unknown: set[str] = set()
    for industry_code in sorted(employment):
        occs = employment[industry_code]
        try:
            total = fsum(occs[soc] for soc in sorted(occs))
        except OverflowError:  # fsum's partial sums left the float range
            total = inf
        if not isfinite(total):
            raise IngestionError(f"industry {industry_code!r}: total employment is not finite")
        if total <= 0.0:
            logger.warning("industry %s has zero employment; skipped", industry_code)
            report.skipped_industries.append(industry_code)
            continue
        shares = {soc: occs[soc] / total for soc in sorted(occs)}
        unknown.update(soc for soc in shares if soc not in flags)
        chi = {
            group: fsum(share for soc, share in shares.items()
                        if soc in flags and flags[soc].group(group))
            for group in GROUPS
        }
        report.mixes.append(
            IndustryMix(
                industry_code=industry_code,
                name=names.get(industry_code, industry_code),
                shares=shares,
                chi=chi,
            )
        )
    report.unknown_socs = sorted(unknown)
    if report.unknown_socs:
        logger.warning(
            "%d occupation codes in the matrix have no exposure flags "
            "(counted as unexposed): %s",
            len(report.unknown_socs), ", ".join(report.unknown_socs),
        )
    return report


def rank_industries(
    mixes: Sequence[IndustryMix], group: str, k: int
) -> tuple[list[IndustryMix], list[IndustryMix]]:
    """Top-k and bottom-k industries by the group's chi, descending.

    Ties break by industry code ascending so the ordering is deterministic.
    A ``k`` beyond the list size returns everything.
    """
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}; expected one of {GROUPS}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered = sorted(mixes, key=lambda m: (-m.chi[group], m.industry_code))
    return ordered[:k], ordered[max(len(ordered) - k, 0):]


def exclusion_prefixes(exclusions: Iterable[str]) -> tuple[str, ...]:
    """The code prefixes that an exclusion list removes.

    This is the one exclusion rule, for industry mixes and establishment
    cells alike: an entry removes every code that starts with it, and a
    range entry such as ``44-45`` also every code that starts with one of
    the sectors in its range.
    """
    return tuple(prefix for code in exclusions for prefix in (code, *_range_aliases(code)))


def exclude_sectors(
    mixes: Sequence[IndustryMix], exclusions: Iterable[str]
) -> tuple[list[IndustryMix], list[str]]:
    """Drop the industries that :func:`exclusion_prefixes` excludes.

    Returns the kept mixes and the exclusion codes that matched at least
    one industry, sorted; codes with no match are warned about, not errors.
    """
    removed = []
    for code in sorted(set(exclusions)):
        prefixes = exclusion_prefixes([code])
        if any(mix.industry_code.startswith(prefixes) for mix in mixes):
            removed.append(code)
        else:
            logger.warning("exclusion code %s matches no industry", code)
    prefixes = exclusion_prefixes(removed)
    kept = [mix for mix in mixes if not mix.industry_code.startswith(prefixes)]
    return kept, removed


class MixResolver:
    """Map raw NAICS codes to industry mixes, walking up the hierarchy.

    Establishment data is usually more detailed than the sector breakdown
    the mixes were built on, so lookups truncate the code one digit at a
    time until something matches.  Sector codes written as ranges
    (``44-45``, ``31-33``) are expanded so any code in the range resolves
    to them.  Codes resolved through an ancestor are recorded in
    ``fallbacks`` (code -> industry) and codes that match nothing in
    ``unresolved``.  The mixes are fixed at construction, so each code
    walks the hierarchy once and later lookups are memoized.
    """

    def __init__(self, mixes: Iterable[IndustryMix]):
        self._by_code: dict[str, IndustryMix] = {}
        for mix in mixes:
            self._by_code[mix.industry_code] = mix
            for alias in _range_aliases(mix.industry_code):
                self._by_code.setdefault(alias, mix)
        self._resolved: dict[str, IndustryMix | None] = {}
        self.fallbacks: dict[str, str] = {}
        self.unresolved: set[str] = set()

    def resolve(self, code: str) -> IndustryMix | None:
        """The mix of ``code`` or of its nearest ancestor; None if none matches."""
        if code not in self._resolved:
            probe = covering_code(code, self._by_code)
            mix = self._resolved[code] = self._by_code.get(probe)
            if mix is None:
                self.unresolved.add(code)
            elif probe != code:
                self.fallbacks[code] = mix.industry_code
                logger.debug("code %s resolved via ancestor %s", code, mix.industry_code)
        return self._resolved[code]


def covering_code(code: str, table: Container[str]) -> str | None:
    """``code`` or its nearest ancestor that ``table`` holds, None if none does.

    Ancestors drop one digit from the end at a time, down to two digits.
    """
    while len(code) >= 2:
        if code in table:
            return code
        code = code[:-1]
    return None


def _range_aliases(code: str) -> list[str]:
    parts = code.split("-")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        return []
    lo, hi = parts
    if len(lo) != len(hi) or int(lo) > int(hi):
        return []
    width = len(lo)
    return [str(value).zfill(width) for value in range(int(lo), int(hi) + 1)]


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def read_matrix_csv(path: str | Path) -> list[tuple[str, str, float]]:
    """Read ``industry_code,soc_code,employment`` records; employment is nonnegative."""
    _, rows = csvio.read_rows(path, ["industry_code", "soc_code", "employment"])
    return [
        (
            row["industry_code"].strip(),
            row["soc_code"].strip(),
            csvio.parse_float(row["employment"], path=f"{path} row {i}", field="employment",
                              nonnegative=True),
        )
        for i, row in enumerate(rows, start=1)
    ]


def read_names_csv(path: str | Path) -> dict[str, str]:
    """Read an ``industry_code,name`` concordance; a code may appear once."""
    _, rows = csvio.read_rows(path, ["industry_code", "name"])
    names: dict[str, str] = {}
    first_row: dict[str, int] = {}
    for i, row in enumerate(rows, start=1):
        code = row["industry_code"].strip()
        csvio.require_unique(first_row, code, i, path=path, field="industry_code")
        names[code] = row["name"].strip()
    return names


def read_exclusions(path: str | Path) -> list[str]:
    """Read an exclusion list: one industry code per line, # comments allowed."""
    codes = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = line.split("#", 1)[0].strip()
            if entry:
                codes.append(entry)
    return codes


def write_industry_index_csv(
    path: str | Path, mixes: Sequence[IndustryMix], comment: str | None = None
) -> None:
    """Write the per-sector exposure table (one row per industry)."""
    csvio.write_rows(
        path,
        ["industry_code", "name", *(f"chi_{group}" for group in GROUPS)],
        [
            [mix.industry_code, mix.name, *(mix.chi[group] for group in GROUPS)]
            for mix in sorted(mixes, key=lambda m: m.industry_code)
        ],
        comment=comment,
    )
