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
from math import isfinite
from pathlib import Path
from typing import Generic, Iterable, Mapping, Sequence, TypeVar

from . import csvio
from .errors import IngestionError
from .occupations import ExposureFlags

logger = logging.getLogger(__name__)

GROUPS = ("teamwork", "customer", "communication", "presence")

Entry = TypeVar("Entry")


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
    from .geo import exact_sum  # not at module level: geo imports this module

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
        total = exact_sum(occs[soc] for soc in sorted(occs))
        if not isfinite(total):
            raise IngestionError(f"industry {industry_code!r}: total employment is not finite")
        if total <= 0.0:
            logger.warning("industry %s has zero employment; skipped", industry_code)
            report.skipped_industries.append(industry_code)
            continue
        shares = {soc: occs[soc] / total for soc in sorted(occs)}
        unknown.update(soc for soc in shares if soc not in flags)
        chi = {
            group: exact_sum(share for soc, share in shares.items()
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


class CodeTable(Generic[Entry]):
    """NAICS codes to entries, each code found at itself or its nearest ancestor.

    Detailed codes truncate one digit at a time, down to two digits, until
    the table holds one.  A sector held as a range (``44-45``, ``31-33``)
    holds each sector in its range too, unless that sector is held on its
    own.  ``entries`` holds the codes as given.  Codes found through an
    ancestor are recorded in ``fallbacks`` (code -> held code) and codes
    that find nothing in ``unresolved``.  The table is fixed at
    construction, so each code walks the hierarchy once.
    """

    def __init__(self, entries: Mapping[str, Entry]):
        self.entries = dict(entries)
        self._held = {code: code for code in self.entries}
        for code in self.entries:
            for alias in _range_aliases(code):
                self._held.setdefault(alias, code)
        self._found: dict[str, str | None] = {}
        self.fallbacks: dict[str, str] = {}
        self.unresolved: set[str] = set()

    def covering(self, code: str) -> str | None:
        """The held code that covers ``code``; None if none does."""
        if code not in self._found:
            probe = code
            while len(probe) >= 2 and probe not in self._held:
                probe = probe[:-1]
            held = self._found[code] = self._held.get(probe) if len(probe) >= 2 else None
            if held is None:
                self.unresolved.add(code)
            elif probe != code:
                self.fallbacks[code] = held
                logger.debug("code %s resolved via ancestor %s", code, held)
        return self._found[code]

    def resolve(self, code: str) -> Entry | None:
        """The entry of the held code that covers ``code``; None if none does."""
        held = self.covering(code)
        return None if held is None else self.entries[held]


class MixResolver(CodeTable[IndustryMix]):
    """The :class:`CodeTable` of industry mixes by industry code."""

    def __init__(self, mixes: Iterable[IndustryMix]):
        super().__init__({mix.industry_code: mix for mix in mixes})


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
    """Read ``industry_code,soc_code,employment`` records through
    :func:`csvio.read_table`."""
    return list(zip(*csvio.read_table(path, ["industry_code", "soc_code"], ["employment"])))


def read_names_csv(path: str | Path) -> dict[str, str]:
    """Read an ``industry_code,name`` concordance through :func:`csvio.read_table`;
    a code may appear once."""
    codes, names = csvio.read_table(path, ["industry_code", "name"], [], key=["industry_code"])
    return dict(zip(codes, names))


def read_exclusions(path: str | Path) -> list[str]:
    """Read an exclusion list: one industry code per line, # comments allowed.

    The file is UTF-8; a byte that is not raises :class:`IngestionError`
    naming the file and line.
    """
    lines = csvio.read_text_lines(path, lambda line, byte: IngestionError(
        f"{path} line {line}: not UTF-8: byte {byte:#04x}"))
    return [entry for _, _, entry in lines]


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
