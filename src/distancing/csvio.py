"""CSV helpers: comment-aware block reading, a split path for plain files,
and byte-stable writing.

Inputs are read in blocks of :data:`BLOCK_ROWS` rows (:func:`read_blocks`),
so a caller can take whole columns from each block instead of handling one
row at a time.  Comment lines and blank lines are skipped as a line-by-line
reader would skip them, and errors name the same rows.  The block reader
takes any CSV, quoted fields included, and is the reference for what a file
holds and for every error message.

:func:`read_table` reads every CSV input but the establishment and
occupation files under one contract: labels are stripped and never blank,
numbers are finite and never negative, and a key may not repeat.  It reads
by column and reads a file again row by row only when a value does not
pass, so that the error names the first fault.

:func:`read_columns` reads short fields of a plain file (no quotes, every
data line as wide as the header) with numpy instead, looking each distinct
value up once per chunk of :data:`CHUNK_BYTES` (:func:`distinct` sorts
only each run's first key, and only when those are out of order); on any
other file, or a value its caller rejects, it returns None so the caller
reads the file through the block reader, which names the fault.

:func:`read_text_lines` reads the two inputs that are not CSV, the config
and exclusion files: UTF-8 lines with ``#`` comments.

All pipeline outputs are UTF-8 CSVs with LF line endings, a leading
``#`` provenance comment, and floats rendered with ``repr`` (the
shortest round-trip form), so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import math
from array import array
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import IngestionError

if TYPE_CHECKING:
    import numpy as np


# Lines read, and rows handed out, per block of the block reader, which
# reads every file that is not plain and every input but the establishment
# file.  Larger blocks keep more row lists alive at once, which costs more
# than the per-block calls they save: on a 2-core VM the 141 353-row
# establishment file of the benchmark's index-detail workload read in
# 0.29 s with 128 to 512 rows a block, 0.33 s with 1 024 and 0.42 s with
# 8 192.
BLOCK_ROWS = 512

# Bytes read at a time by :func:`read_columns`, cut after the last line end.
CHUNK_BYTES = 1 << 20

# Longest field :func:`read_columns` packs into one 64-bit key.
_KEY_BYTES = 8

def read_blocks(
    path: str | Path, required: Sequence[str]
) -> tuple[list[str], Iterator[tuple[int, list[list[str]]]]]:
    """Open a CSV for streaming: its header and an iterator over blocks of rows.

    The file is UTF-8; a leading byte-order mark is dropped, and a byte
    that is not UTF-8 raises :class:`IngestionError` naming the row.
    Lines starting with ``#`` and blank lines are skipped.  The header is
    read at once: an empty file, a repeated column name or a missing
    ``required`` column raises :class:`IngestionError` here.  The iterator
    yields ``(number of the block's first row, rows)`` with data rows
    numbered from 1 and up to :data:`BLOCK_ROWS` rows a block.  A row with
    fewer fields than the header, or one the ``csv`` module rejects (a
    field beyond its size limit), raises after the rows before it have
    been yielded, naming the row (0: the header); extra trailing fields
    are ignored by the callers.
    """
    blocks = _blocks(path, required)
    return next(blocks), blocks


def _blocks(path, required):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # one parser over every line, so a quoted field may span two blocks
        records = filter(None, csv.reader(chain.from_iterable(_uncommented(fh))))
        try:
            try:
                header = next(records, None)
            except csv.Error as exc:
                raise IngestionError(f"{path} row 0: {exc}") from None
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
            number, error = 1, None
            while not error:
                block = []
                try:
                    block.extend(islice(records, BLOCK_ROWS))  # keeps the rows before an error
                except csv.Error as exc:
                    error = IngestionError(f"{path} row {number + len(block)}: {exc}")
                if not block:
                    break
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
            if error:
                raise error
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


def read_text_lines(
    path: str | Path, not_utf8: Callable[[int, int], Exception]
) -> list[tuple[int, str, str]]:
    """A UTF-8 text file's lines as (line number, line, content), where content
    is the line without its ``#`` comment and outer blanks; lines without
    content are left out.  A byte that is not UTF-8 raises ``not_utf8(line
    number, byte)``; an unreadable file raises ``OSError``."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(data.count(b"\n", 0, exc.start) + 1, data[exc.start]) from None
    return [(number, line, content) for number, line in enumerate(text.splitlines(), start=1)
            if (content := line.split("#", 1)[0].strip())]


def read_columns(
    path: str | Path,
    required: Sequence[str],
    optional: Sequence[str],
    tables: Sequence[Mapping[str, int]],
) -> list[np.ndarray | None] | None:
    """The ``required`` columns, then the ``optional`` ones (None if absent),
    of a plain CSV as int64 arrays: each raw field maps through its table.

    ``tables`` align with ``(*required, *optional)``; each is looked up once
    per distinct raw field in each chunk of :data:`CHUNK_BYTES`.  A plain
    file may have a byte-order mark, LF or CRLF line ends, comment and
    blank lines as :func:`read_blocks` skips them, and no final line end.
    Returns None, so the caller reads the file with :func:`read_blocks`,
    when the file is anything else: a ``"``, a lone CR, a NUL byte or a
    byte that is not UTF-8, a header :func:`read_blocks` would reject, a
    data line not as wide as the header, a line longer than the ``csv``
    field size limit, or a field read here longer than 8 bytes; and when a
    table lookup raises :class:`ValueError` or :class:`OverflowError`, or
    gives a value beyond int64.  The block reader then names the fault.
    """
    import numpy as np

    header, wanted, masks = None, [], _key_masks()
    columns = [array("q") for _ in tables]  # grown in place, as the block reader's
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            lines = _plain_lines(chunk)
            if lines is None:
                return None
            text, starts, ends = lines
            commas = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
            if header is None and len(starts):
                header = text[:ends[0]].decode("utf-8").split(",")
                if len(set(header)) < len(header) or not set(required) <= set(header):
                    return None
                wanted = [header.index(name) if name in header else None
                          for name in (*required, *optional)]
                starts, ends, commas = starts[1:], ends[1:], commas[len(header) - 1:]
            n = len(starts)
            if not n:
                continue
            # sorted commas, width - 1 a line, each line's first and last inside
            # it: then every line holds exactly its own
            width = len(header)
            if len(commas) != n * (width - 1):
                return None
            seps = commas.reshape(n, width - 1)
            if width > 1 and ((seps[:, 0] < starts) | (seps[:, -1] > ends)).any():
                return None
            # the 8 bytes from each offset, as one unaligned word
            words = np.ndarray((len(text) + 1,), np.uint64, text + bytes(_KEY_BYTES), strides=(1,))
            for j, table, out in zip(wanted, tables, columns):
                if j is None:
                    continue
                lo = starts if j == 0 else seps[:, j - 1] + 1
                size = (ends if j == width - 1 else seps[:, j]) - lo
                if size.max() > _KEY_BYTES:
                    return None
                column = _looked_up(words[lo] & masks[size], table)
                if column is None:
                    return None
                out.frombytes(column.view(np.uint8))
    if header is None:
        return None
    return [None if j is None else np.frombuffer(out, np.int64) for j, out in zip(wanted, columns)]


def _plain_lines(text: bytes):
    """A chunk's data lines (the header among them) as (text with LF line
    ends only, line starts, line ends), or None if the chunk is not plain."""
    import numpy as np

    if b'"' in text or b"\0" in text:
        return None
    if b"\r" in text:
        if text.count(b"\r") != text.count(b"\r\n"):
            return None
        text = text.replace(b"\r\n", b"\n")
    if not text.isascii():
        try:
            text.decode("utf-8")
        except UnicodeDecodeError:
            return None
    data, starts, ends = _lines(text)
    kept = (ends > starts) & (data[starts] != ord("#"))
    if not kept.all():  # drop comment and blank lines
        text = data[np.repeat(kept, ends - starts + 1)[:len(text)]].tobytes()
        data, starts, ends = _lines(text)
    if len(starts) and (ends - starts).max() > csv.field_size_limit():
        return None
    return text, starts, ends


def _lines(text: bytes):
    """``text`` as a byte array, and where each line starts and ends (its
    line end, or the end of the text)."""
    import numpy as np

    data = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if text and not text.endswith(b"\n"):
        ends = np.append(ends, len(text))
    return data, np.concatenate(([0], ends[:-1] + 1))[:len(ends)], ends


def _key_masks():
    """``masks[w]`` keeps the first ``w`` bytes of a key."""
    import numpy as np

    ones = b"".join(b"\xff" * w + bytes(_KEY_BYTES - w) for w in range(_KEY_BYTES + 1))
    return np.frombuffer(ones, np.uint64)


def _looked_up(keys: np.ndarray, table: Mapping[str, int]) -> np.ndarray | None:
    """``table`` at each of the (non-empty) ``keys``' fields, looked up once per
    distinct key (:func:`distinct`); None if a lookup raises or gives a value
    beyond int64."""
    unique, inverse = distinct(keys)
    values = _values(unique, table)
    return None if values is None else values[inverse]


def distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for an integer column, sorting
    only the first key of each run of equal keys, and only when those do not
    already increase (a column in sorted order)."""
    import numpy as np

    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    heads = keys[starts]
    if (heads[1:] > heads[:-1]).all():
        unique, inverse = heads, np.arange(len(heads))
    else:
        unique, inverse = np.unique(heads, return_inverse=True)
    return unique, np.repeat(inverse, np.diff(starts, append=len(keys)))


def _values(keys: np.ndarray, table: Mapping[str, int]) -> np.ndarray | None:
    """``table`` at each key's field as int64; None if a lookup raises or gives
    a value beyond int64."""
    import numpy as np

    raws = keys.view(f"S{_KEY_BYTES}").tolist()  # drops the zero padding
    try:
        return np.fromiter((table[raw.decode("utf-8")] for raw in raws), np.int64, len(raws))
    except (ValueError, OverflowError):
        return None


def _line_chunks(fh) -> Iterator[bytes]:
    """The file's bytes without a leading byte-order mark, in pieces of about
    :data:`CHUNK_BYTES` cut after a line end (the last one at the end of file)."""
    rest = fh.read(3).removeprefix(b"\xef\xbb\xbf")
    while chunk := fh.read(CHUNK_BYTES):
        text = rest + chunk
        cut = text.rfind(b"\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def read_rows(
    path: str | Path, required: Sequence[str]
) -> tuple[list[str], list[dict[str, str]]]:
    """Read a whole CSV as (fieldnames, rows as dicts of strings).

    The header, comments, blank lines and short rows are handled as in
    :func:`read_blocks`.
    """
    header, blocks = read_blocks(path, required)
    return header, [dict(zip(header, fields)) for _, block in blocks for fields in block]


def read_table(
    path: str | Path,
    labels: Sequence[str],
    numbers: Sequence[str],
    *,
    key: Sequence[str] = (),
    positive: Container[str] = (),
) -> list[list]:
    """The ``labels`` columns, then the ``numbers`` columns, of a CSV: one list
    per field.

    Labels are stripped and never blank.  Numbers are finite floats, never
    negative, and above 0 in the fields named in ``positive``.  No row may
    repeat an earlier row's ``key``, some of the ``labels``.  The columns
    are taken a block of rows at a time and checked once; a file with a
    value that fails is read again by :func:`_table_rows`, which names the
    first fault.
    """
    header, blocks = read_blocks(path, (*labels, *numbers))
    work = [(str.strip, itemgetter(header.index(name))) for name in labels]
    work += [(float, itemgetter(header.index(name))) for name in numbers]
    columns: list[list] = [[] for _ in work]
    try:
        for _, block in blocks:
            for column, (convert, field) in zip(columns, work):
                column.extend(map(convert, map(field, block)))
    except ValueError:
        return _table_rows(path, labels, numbers, key=key, positive=positive)
    keys = [columns[labels.index(name)] for name in key]
    if (
        all(map(all, columns[:len(labels)]))
        and (not keys or len(set(keys[0] if len(keys) == 1 else zip(*keys))) == len(keys[0]))
        and all(_in_range(column, name in positive)
                for name, column in zip(numbers, columns[len(labels):]))
    ):
        return columns
    return _table_rows(path, labels, numbers, key=key, positive=positive)


def _in_range(column: list[float], positive: bool) -> bool:
    """Every value finite and not negative, or with ``positive`` above 0."""
    # a nan or inf makes the sum nan or inf, so min sees finite values only
    return math.isfinite(sum(column)) and (
        min(column, default=1.0) > 0.0 if positive else min(column, default=0.0) >= 0.0
    )


def _table_rows(path, labels, numbers, *, key=(), positive=()) -> list[list]:
    """:func:`read_table` a row at a time, raising the first fault it finds.

    The whole file is read first, so a short row, a ``csv`` error or a
    byte that is not UTF-8 anywhere comes before any value.  Then each row
    in order: its blank labels, its repeated key, its numbers in field
    order.
    """
    _, rows = read_rows(path, (*labels, *numbers))
    columns: list[list] = [[] for _ in (*labels, *numbers)]
    first_row: dict = {}
    for i, row in enumerate(rows, start=1):
        where = f"{path} row {i}"
        values: list = [row[name].strip() for name in labels]
        for name, value in zip(labels, values):
            if not value:
                raise IngestionError(f"{where}: field {name!r}: blank")
        if key:
            keyed = tuple(values[labels.index(name)] for name in key)
            require_unique(first_row, keyed[0] if len(key) == 1 else keyed, i,
                           path=path, field="/".join(key))
        for name in numbers:
            value = parse_float(row[name], path=where, field=name)
            if value < 0.0:
                raise IngestionError(f"{where}: field {name!r}: negative: {value!r}")
            if value == 0.0 and name in positive:
                raise IngestionError(f"{where}: field {name!r}: not positive: {value!r}")
            values.append(value)
        for column, value in zip(columns, values):
            column.append(value)
    return columns


def write_rows(
    path: str | Path,
    fieldnames: Sequence[str],
    rows: Iterable[Sequence],
    comment: str,
) -> None:
    """Write a CSV with deterministic formatting under a ``# comment`` line,
    the run's provenance stamp.

    ``rows`` are sequences aligned with ``fieldnames``; floats are written
    with ``repr``, ``None`` as an empty cell.  ``csv.writer`` itself writes
    exact ``str``, ``int``, ``float`` and ``None`` values so; only a row
    holding a bool or an instance of a subclass (numpy scalars, whose
    ``repr`` is not plain) goes through :func:`_cell`.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(fieldnames))
        writer.writerows(row if _PLAIN.issuperset(map(type, row)) else list(map(_cell, row))
                         for row in rows)


_PLAIN = frozenset({str, int, float, type(None)})


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


def require_rows(count: int, *, path) -> None:
    """Raise if a file that the model cannot do without has no data rows."""
    if not count:
        raise IngestionError(f"{path}: no data rows, only a header")


def require_unique(seen: dict, key, row: int, *, path, field: str) -> None:
    """Record ``key`` as given at data row ``row``; raise if an earlier row gave it."""
    earlier = seen.setdefault(key, row)
    if earlier != row:
        raise IngestionError(f"{path} row {row}: {field} {key!r} already given at row {earlier}")
