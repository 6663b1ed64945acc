"""CSV helpers: comment-aware reading and byte-stable writing.

All pipeline outputs are UTF-8 CSVs with LF line endings, an optional
leading ``#`` provenance comment, and floats rendered with ``repr`` (the
shortest round-trip form), so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import IngestionError


def read_records(
    path: str | Path, required: Sequence[str] = ()
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Open a CSV for streaming: its header and an iterator over its rows.

    The file is UTF-8; a leading byte-order mark is dropped, and a byte
    that is not UTF-8 raises :class:`IngestionError` naming the row.
    Lines starting with ``#`` and blank lines are skipped.  The header is
    read at once: an empty file, a repeated column name or a missing
    ``required`` column raises :class:`IngestionError` here.  The iterator yields ``(row number,
    fields)`` with data rows numbered from 1, and raises on a row with
    fewer fields than the header; extra trailing fields are ignored by
    the callers.
    """
    records = _records(path, required)
    return next(records), records


def _records(path, required):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next((fields for fields in reader if fields), None)
            if header is None:
                raise IngestionError(f"{path}: empty file, expected a CSV header")
            repeated = sorted({name for name in header if header.count(name) > 1})
            if repeated:
                raise IngestionError(f"{path}: repeated column names: {', '.join(repeated)}")
            missing = [name for name in required if name not in header]
            if missing:
                raise IngestionError(f"{path}: missing required columns: {', '.join(missing)}")
            yield header
            width = len(header)
            number = 0
            for fields in reader:
                if not fields:
                    continue
                number += 1
                if len(fields) < width:
                    raise IngestionError(
                        f"{path} row {number}: expected {width} fields, got {len(fields)}"
                    )
                yield number, fields
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path) -> IngestionError:
    """Name the first row that is not UTF-8 (0: the header), found again in the
    raw bytes: the text layer decodes ahead of the parser."""
    number = -1
    with open(path, "rb") as fh:
        for line in fh:
            try:
                text = line.decode("utf-8-sig" if number < 0 else "utf-8")
            except UnicodeDecodeError as exc:
                return IngestionError(
                    f"{path} row {max(number + 1, 0)}: not UTF-8: byte {line[exc.start]:#04x}"
                )
            number += not text.startswith("#") and bool(text.strip("\r\n"))
    return IngestionError(f"{path}: not UTF-8")


def read_rows(
    path: str | Path, required: Sequence[str] = ()
) -> tuple[list[str], list[dict[str, str]]]:
    """Read a whole CSV as (fieldnames, rows as dicts of strings).

    The header, comments, blank lines and short rows are handled as in
    :func:`read_records`.
    """
    header, records = read_records(path, required)
    return header, [dict(zip(header, fields)) for _, fields in records]


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


def require_unique(seen: dict, key, row: int, *, path, field: str) -> None:
    """Record ``key`` as given at data row ``row``; raise if an earlier row gave it."""
    earlier = seen.setdefault(key, row)
    if earlier != row:
        raise IngestionError(f"{path} row {row}: {field} {key!r} already given at row {earlier}")
