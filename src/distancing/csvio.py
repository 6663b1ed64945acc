"""CSV helpers: comment-aware block reading and byte-stable writing.

Inputs are read in blocks of :data:`BLOCK_ROWS` rows (:func:`read_blocks`),
so a caller can take whole columns from each block instead of handling one
row at a time.  Comment lines and blank lines are skipped as a line-by-line
reader would skip them, and errors name the same rows.

All pipeline outputs are UTF-8 CSVs with LF line endings, an optional
leading ``#`` provenance comment, and floats rendered with ``repr`` (the
shortest round-trip form), so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import IngestionError


# Lines read, and rows handed out, per block.  Larger blocks keep more row
# lists alive at once, which costs more than the per-block calls they save:
# on a 2-core VM the 141 353-row establishment file of the benchmark's
# index-detail workload read in 0.29 s with 128 to 512 rows a block, 0.33 s
# with 1 024 and 0.42 s with 8 192.
BLOCK_ROWS = 512


def read_blocks(
    path: str | Path, required: Sequence[str] = ()
) -> tuple[list[str], Iterator[tuple[int, list[list[str]]]]]:
    """Open a CSV for streaming: its header and an iterator over blocks of rows.

    The file is UTF-8; a leading byte-order mark is dropped, and a byte
    that is not UTF-8 raises :class:`IngestionError` naming the row.
    Lines starting with ``#`` and blank lines are skipped.  The header is
    read at once: an empty file, a repeated column name or a missing
    ``required`` column raises :class:`IngestionError` here.  The iterator
    yields ``(number of the block's first row, rows)`` with data rows
    numbered from 1 and up to :data:`BLOCK_ROWS` rows a block.  A row with
    fewer fields than the header raises, after the rows before it have
    been yielded; extra trailing fields are ignored by the callers.
    """
    blocks = _blocks(path, required)
    return next(blocks), blocks


def _blocks(path, required):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # one parser over every line, so a quoted field may span two blocks
        records = filter(None, csv.reader(chain.from_iterable(_uncommented(fh))))
        try:
            header = next(records, None)
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
            number = 1
            while block := list(islice(records, BLOCK_ROWS)):
                if min(map(len, block)) < width:
                    short = next(i for i, fields in enumerate(block) if len(fields) < width)
                    if short:
                        yield number, block[:short]
                    raise IngestionError(
                        f"{path} row {number + short}: expected {width} fields, "
                        f"got {len(block[short])}"
                    )
                yield number, block
                number += len(block)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _uncommented(fh):
    """The file's lines in blocks, without the lines that start with ``#``.

    Lines split with ``newline=""`` end in ``\\n``, ``\\r`` or ``\\r\\n``, so
    a block holds a comment line exactly when its text starts with ``#``
    or has one right after a line end; other blocks pass unfiltered.
    """
    while lines := list(islice(fh, BLOCK_ROWS)):
        text = "".join(lines)
        if text.startswith("#") or "\n#" in text or "\r#" in text:
            lines = [line for line in lines if not line.startswith("#")]
        yield lines


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
    :func:`read_blocks`.
    """
    header, blocks = read_blocks(path, required)
    return header, [dict(zip(header, fields)) for _, block in blocks for fields in block]


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
