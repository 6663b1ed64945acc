"""CSV helpers: comment-aware reading and byte-stable writing.

All pipeline outputs are UTF-8 CSVs with LF line endings, an optional
leading ``#`` provenance comment, and floats rendered with ``repr`` (the
shortest round-trip form), so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

from .errors import IngestionError


def read_rows(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    """Read a CSV, skipping leading ``#`` comment lines.

    Returns (fieldnames, rows as dicts of strings).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        data = (line for line in fh if not line.startswith("#"))
        reader = csv.DictReader(data)
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: empty file, expected a CSV header")
        return list(reader.fieldnames), list(reader)


def write_rows(
    path: str | Path,
    fieldnames: Sequence[str],
    rows: Iterable[Sequence],
    comment: str | None = None,
) -> None:
    """Write a CSV with deterministic formatting.

    ``rows`` are sequences aligned with ``fieldnames``; floats are written
    with ``repr``, ``None`` as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(fieldnames))
        for row in rows:
            writer.writerow([_cell(value) for value in row])


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # normalize float subclasses (numpy scalars) so repr stays plain
        return repr(float(value))
    return value


def parse_float(raw: str, *, path, field: str) -> float:
    """A finite float; ``path`` should name the file and row."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise IngestionError(f"{path}: field {field!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise IngestionError(f"{path}: field {field!r}: not a finite number: {raw!r}")
    return value


def parse_int(raw: str, *, path, field: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise IngestionError(f"{path}: field {field!r}: not an integer: {raw!r}") from None


def require_fields(fieldnames: Sequence[str], required: Sequence[str], *, path) -> None:
    missing = [name for name in required if name not in fieldnames]
    if missing:
        raise IngestionError(f"{path}: missing required columns: {', '.join(missing)}")
