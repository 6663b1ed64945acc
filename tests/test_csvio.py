"""Block-wise and split CSV reading against a per-line reference of the same format."""

import csv
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distancing import csvio, geo
from distancing.errors import IngestionError
from distancing.geo import read_cbp_csv, read_density_csv

from frames import outcome

CBP_HEADER = ["zcta", "naics", "size_bin", "establishments", "suppressed", "note"]


def reference_records(path):
    """Header and numbered data rows: every line that does not start with ``#``
    through one ``csv.reader``, blank records dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = [f for f in csv.reader(line for line in fh if not line.startswith("#")) if f]
    return records[0], list(enumerate(records[1:], start=1))


def reference_not_utf8(path):
    """The first line of a file without quoted line ends that is not UTF-8, as
    the data row it is in (0: the header or a line before it)."""
    rows = 0
    for line in path.read_bytes().removeprefix(b"\xef\xbb\xbf").split(b"\n"):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"{path} row {rows}: not UTF-8: byte {line[exc.start]:#04x}"
        rows += not line.startswith(b"#") and bool(line.strip(b"\r"))
    return None


def reference_cbp(path):
    """The establishment records row by row, faults checked in reading order;
    a file without data rows is an error."""
    try:
        header, records = reference_records(path)
    except UnicodeDecodeError:
        raise IngestionError(reference_not_utf8(path)) from None
    zcta, naics, size_bin, count = map(header.index, CBP_HEADER[:4])
    flag = header.index("suppressed") if "suppressed" in header else None
    out = []
    for i, fields in records:
        where = f"{path} row {i}"
        if len(fields) < len(header):
            raise IngestionError(f"{where}: expected {len(header)} fields, got {len(fields)}")
        for name, at in (("zcta", zcta), ("naics", naics)):
            if not fields[at].strip():
                raise IngestionError(f"{where}: field {name!r}: blank")
        raw_flag = "" if flag is None else fields[flag].strip()
        suppressed = csvio.parse_int(raw_flag, path=where, field="suppressed") != 0 \
            if raw_flag else False
        established = csvio.parse_int(fields[count], path=where, field="establishments")
        if not -(2**63) <= established < 2**63:
            raise IngestionError(f"{where}: field 'establishments': not a 64-bit integer: "
                                 f"{fields[count]!r}")
        out.append((fields[zcta].strip(), fields[naics].strip(), fields[size_bin].strip(),
                    established, suppressed))
    if not out:
        raise IngestionError(f"{path}: no data rows, only a header")
    return out


# text for the free-form columns: commas, quotes, line ends and a "#" that can
# start a line inside a quoted field, where it is dropped like any comment line
_WILD = st.text(alphabet='ab ,"#\n\r', max_size=5)
_ROW = st.tuples(
    st.sampled_from(["10001", " 10002", "00501 "]),
    st.sampled_from(["441100", "311811 ", "62"]),
    _WILD,
    st.sampled_from(["3", " 7", "0", "12"]),
    st.sampled_from(["0", "1", "", " 2"]),
    _WILD,
)
_ENDING = st.sampled_from(["\n", "\r\n", "\r"])
# what may stand between two rows: nothing, a comment line or a blank line
_BETWEEN = st.sampled_from(["", "", "", "# note\n", "#\r\n", "#x\r", "\n", "\r\n"])


@st.composite
def _cbp_files(draw):
    """(block size, file text): data rows around one and two block lengths."""
    block = draw(st.sampled_from([1, 2, 3, 5]))
    n_rows = max(0, draw(st.sampled_from([1, 2])) * block + draw(st.sampled_from([-1, 0, 1])))
    lines = []
    if draw(st.booleans()):
        lines.append("# provenance" + draw(_ENDING))
    lines.append(",".join(CBP_HEADER) + draw(_ENDING))
    for row in draw(st.lists(_ROW, min_size=n_rows, max_size=n_rows)):
        lines.append(draw(_BETWEEN))
        lines.append(_csv_line(row, draw(_ENDING)))
    return block, "".join(lines)


def _csv_line(fields, ending):
    out = []
    for text in fields:
        if any(c in text for c in ',"\n\r'):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return ",".join(out) + ending


class TestReadBlocksProperties:
    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(_cbp_files(), st.booleans())
    def test_blocks_equal_the_per_line_reference(self, tmp_path_factory, drawn, bom):
        """With blocks of 1 to 5 rows, comment lines and quoted line ends fall on
        block boundaries; numbering, rows and errors match the reference."""
        block, text = drawn
        path = tmp_path_factory.mktemp("blocks") / "cbp.csv"
        path.write_text(("\ufeff" if bom else "") + text, encoding="utf-8", newline="")
        header, numbered = reference_records(path)
        width = len(header)
        short = next((i for i, fields in numbered if len(fields) < width), None)
        with mock.patch.object(csvio, "BLOCK_ROWS", block):
            got_header, blocks = csvio.read_blocks(path, ())
            got, error = [], None
            try:
                for first, rows in blocks:
                    assert 0 < len(rows) <= block
                    got.extend(enumerate(rows, start=first))
            except IngestionError as exc:
                error = str(exc)
            rows = outcome(lambda p: csvio.read_rows(p, ()), path)
            cbp = outcome(lambda p: list(read_cbp_csv(p)), path)
        assert got_header == header
        if short is None:
            assert error is None and got == numbered
            assert rows == ("ok", (header, [dict(zip(header, f)) for _, f in numbered]))
        else:
            got_fields = len(numbered[short - 1][1])
            message = f"{path} row {short}: expected {width} fields, got {got_fields}"
            assert error == message and got == numbered[:short - 1]
            assert rows == ("error", message)
        assert cbp == outcome(reference_cbp, path)


class TestReadBlocks:
    HEADER = "zcta,naics,size_bin,establishments,suppressed\n"

    def test_short_row_in_a_later_block_names_its_row(self, tmp_path):
        path = tmp_path / "cbp.csv"
        rows = [f"{10000 + i},441100,1-4,3,0\n" for i in range(2 * csvio.BLOCK_ROWS)]
        short = csvio.BLOCK_ROWS + 7  # a row of the second block
        rows[short - 1] = "00502\n"
        path.write_text(self.HEADER + "# note\n" + "".join(rows))
        message = f"{path} row {short}: expected 5 fields, got 1"
        with pytest.raises(IngestionError) as excinfo:
            read_cbp_csv(path)
        assert str(excinfo.value) == message
        # a fault in an earlier row of the same block is reported first, as before
        rows[short - 3] = "10002,311811,5-9,x,0\n"
        path.write_text(self.HEADER + "".join(rows))
        with pytest.raises(IngestionError) as excinfo:
            read_cbp_csv(path)
        assert str(excinfo.value) == (
            f"{path} row {short - 2}: field 'establishments': not an integer: 'x'"
        )
        with pytest.raises(IngestionError) as excinfo:
            csvio.read_rows(path, ())
        assert str(excinfo.value) == message


# Plain establishment files: no quotes and no lone CR, so the split path reads
# them unless a row carries one of the faults below.
_PLAIN_ROW = st.fixed_dictionaries({
    "zcta": st.sampled_from(["10001", " 10002", "00501 ", "9"]),
    "naics": st.sampled_from(["441100", "311811 ", " 62"]),
    "size_bin": st.sampled_from(["1-4", " 5-9", "1000+ ", ""]),
    "establishments": st.sampled_from(["3", "+3", " 7", "1_0", "-2", "0"]),
    "suppressed": st.sampled_from(["0", "1", "", " 2"]),
})
# each sends the file to the block reader, which reads it or names the fault
_FAULTS = {
    "blank code": lambda row: {**row, "naics": " "},
    "not UTF-8": lambda row: {**row, "zcta": row["zcta"] + "\udce9"},
    "not UTF-8 in a comment": lambda row: {**row, "after": "# \udce9"},
    "lone CR": lambda row: {**row, "size_bin": row["size_bin"] + "\r"},
    "count 2**63-1": lambda row: {**row, "establishments": str(2**63 - 1)},
    "count 2**63": lambda row: {**row, "establishments": str(2**63)},
    "9-byte field": lambda row: {**row, "size_bin": "100-249  "},
    "extra field": lambda row: {**row, "extra": "x"},
    "ragged row": lambda row: {**row, "ragged": True},
}
_PLAIN_BETWEEN = st.sampled_from(["", "", "", "# note", "#,a,b,", "", "#"])


@st.composite
def _plain_cbp_files(draw):
    """(chunk size, file bytes, the faults rows carry): a ragged row and an
    extra field may come together, so the file has as many commas as a good one."""
    names = draw(st.permutations(CBP_HEADER[:5]))
    if draw(st.booleans()):
        names = [name for name in names if name != "suppressed"]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    rows = draw(st.lists(_PLAIN_ROW, max_size=12))
    faults = draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=2)) if rows else []
    for fault in faults:
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = _FAULTS[fault](rows[at])
    lines = [draw(st.sampled_from(["", "# provenance"]))] if draw(st.booleans()) else []
    lines.append(",".join(names))
    for row in rows:
        lines += [draw(_PLAIN_BETWEEN)] * draw(st.integers(0, 1))
        fields = [row[name] for name in names][:len(names) - row.get("ragged", 0)]
        lines.append(",".join(fields + ([row["extra"]] if "extra" in row else [])))
        if "after" in row:
            lines.append(row["after"])
    text = "".join(line + ending for line in lines)
    if draw(st.booleans()):
        text = text[:-len(ending)]
    data = ("\ufeff" if draw(st.booleans()) else "") + text
    chunk = draw(st.sampled_from([1, 2, 7, 16, 64, 1 << 20]))
    return chunk, data.encode("utf-8", "surrogateescape"), faults


class TestSplitRead:
    @settings(deadline=None, derandomize=True, database=None, max_examples=400)
    @given(_plain_cbp_files())
    def test_split_read_equals_the_per_line_reference(self, tmp_path_factory, drawn):
        """Plain files with any chunk size read as the reference reads them, and
        only a faulty row sends the file to the block reader."""
        chunk, data, faults = drawn
        path = tmp_path_factory.mktemp("split") / "cbp.csv"
        path.write_bytes(data)
        blocks = mock.patch.object(geo, "_read_cbp_blocks", wraps=geo._read_cbp_blocks)
        with mock.patch.object(csvio, "CHUNK_BYTES", chunk), blocks as block_read:
            got = outcome(lambda p: list(read_cbp_csv(p)), path)
        assert got == outcome(reference_cbp, path)
        assert block_read.called == bool(faults)

    def test_short_and_long_rows_with_the_right_comma_count_go_to_the_block_reader(
        self, tmp_path
    ):
        """Row 1 lacks its last field and row 2 has one more, so the file holds as
        many commas as a good one; fields shifted across the line end would all
        read, row 1's size bin as ``1-4\\n62``."""
        path = tmp_path / "cbp.csv"
        path.write_text("naics,establishments,suppressed,size_bin,zcta\n"
                        "441100,3,0,1-4\n62,3,0,0,10001,x\n")
        with mock.patch.object(geo, "_read_cbp_blocks", wraps=geo._read_cbp_blocks) as blocks:
            assert outcome(read_cbp_csv, path) == (
                "error", f"{path} row 1: expected 5 fields, got 4"
            )
        assert blocks.called

    def test_plain_file_takes_the_split_path(self, tmp_path):
        """A byte-order mark, CRLF, comment and blank lines, padded labels and
        no final line end, over several chunks, with the block reader disabled."""
        path = tmp_path / "cbp.csv"
        rows = [f" {10001 + i % 7},441100 ,{' 1-4' if i % 2 else '5-9'},+{i},{i % 3}"
                for i in range(40)]
        rows[5:5] = ["# a comment, with commas", ""]
        path.write_bytes(b"\xef\xbb\xbf# provenance\r\n" + "\r\n".join(
            ["zcta,naics,size_bin,establishments,suppressed", *rows]).encode())
        failing = mock.patch.object(geo, "_read_cbp_blocks", side_effect=AssertionError)
        with mock.patch.object(csvio, "CHUNK_BYTES", 64), failing:
            got = read_cbp_csv(path)
        assert list(got) == reference_cbp(path)
        assert len(got) == 40 and got.zcta.labels == [str(10001 + i) for i in range(7)]


class TestCsvModuleErrors:
    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("read, header", [
        (read_cbp_csv, "zcta,naics,size_bin,establishments,suppressed"),
        (read_density_csv, "zcta,population,land_area_km2"),
    ])
    def test_field_beyond_the_csv_limit_names_file_and_row(self, tmp_path, read, header, row):
        """A field longer than the csv module takes is a data error, not a
        traceback, also in a column no reader asks for."""
        lines = [header + ",note", *(",".join([f"1000{i}", *["1"] * header.count(","), "x"])
                                     for i in range(3))]
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + "9" * (csv.field_size_limit() + 1)
        path = tmp_path / "input.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError) as excinfo:
            read(path)
        assert str(excinfo.value) == (
            f"{path} row {row}: field larger than field limit ({csv.field_size_limit()})"
        )


def reference_looked_up(keys, table):
    """Reference lookup: every key argsorted, each distinct one looked up
    once, None on a failed or out-of-range lookup."""
    order = keys.argsort()
    ordered = keys[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    raws = ordered[first].view("S8").tolist()
    try:
        values = np.fromiter((table[raw.decode("utf-8")] for raw in raws), np.int64, len(raws))
    except (ValueError, OverflowError):
        return None
    column = np.empty(len(keys), np.int64)
    column[order] = np.repeat(values, np.diff(first, append=len(keys)))
    return column


class _Counted(dict):
    """Label -> a value made from it, counting lookups; ``bad`` raises
    ValueError and ``big`` gives a value beyond int64."""

    def __missing__(self, raw):
        self.looked_up.append(raw)
        if raw == "bad":
            raise ValueError(raw)
        return 1 << 63 if raw == "big" else -len(raw) * 1000 - sum(map(ord, raw))


def _table():
    table = _Counted()
    table.looked_up = []
    return table


def _keys(labels):
    """Fields packed as :func:`csvio.read_columns` packs them: 8 bytes, zero-padded."""
    return np.frombuffer(b"".join(label.encode().ljust(8, b"\0") for label in labels), np.uint64)


# A column is segments of one shape each: runs of one key (sorted files),
# a handful of keys (size bins, flags), or many keys (counts, unsorted codes).
_SEGMENT = st.tuples(
    st.sampled_from([1, 2, 3, 16, 17, 40, 300]),  # distinct labels to draw from
    st.integers(1, 120),  # keys
    st.sampled_from([1, 4, 60, 60]),  # longest run
)
_LABELS = [f"{i:x}" for i in range(300)] + ["", " ", "1-4", "1000+", "00501", "99999999"]


@st.composite
def _columns(draw):
    rnd = random.Random(draw(st.integers(0, 2**32)))  # cheaper than a drawn Random
    labels = []
    for pool, size, run in draw(st.lists(_SEGMENT, min_size=1, max_size=4)):
        choices = rnd.sample(_LABELS, pool)
        segment = []
        while len(segment) < size:
            segment += [rnd.choice(choices)] * rnd.randint(1, run)
        labels += segment[:size]
    for fault in draw(st.sampled_from([[], [], [], ["bad"], ["big"], ["big", "bad"]])):
        labels[draw(st.integers(0, len(labels) - 1))] = fault
    return labels


@st.composite
def _integer_columns(draw):
    """int64 or uint64 keys from a few values, extremes among them, in runs,
    then sorted, left in runs or shuffled; empty and one-key columns too."""
    dtype = draw(st.sampled_from([np.int64, np.uint64]))
    info = np.iinfo(dtype)
    values = st.one_of(st.integers(0, 9), st.sampled_from([int(info.min), int(info.max)]),
                       st.integers(int(info.min), int(info.max)))
    pool = draw(st.lists(values, min_size=1, max_size=6, unique=True))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 6)), max_size=30))
    keys = np.array([value for value, length in runs for _ in range(length)], dtype=dtype)
    order = draw(st.sampled_from(["sorted", "runs", "shuffled"]))
    if order == "sorted":
        keys.sort()
    elif order == "shuffled":
        keys = keys[draw(st.permutations(range(len(keys))))]
    return keys


class TestDistinct:
    @settings(deadline=None, derandomize=True, database=None, max_examples=400)
    @given(_integer_columns())
    @example(np.array([], np.int64))
    @example(np.array([], np.uint64))
    @example(np.array([7] * 5, np.int64))
    @example(np.array([(1 << 64) - 1], np.uint64))
    def test_equals_np_unique(self, keys):
        """The distinct keys, in order and of the column's dtype, and the inverse."""
        unique, inverse = csvio.distinct(keys)
        want_unique, want_inverse = np.unique(keys, return_inverse=True)
        assert unique.dtype == keys.dtype
        assert unique.tolist() == want_unique.tolist()
        assert inverse.tolist() == want_inverse.tolist()

    @pytest.mark.parametrize("keys, heads", [
        ([], None),
        ([4] * 9, None),
        ([5, 5, 5, 7, 9, 9, 12], None),  # a column in sorted order
        (list(range(40)), None),
        ([0] * 9 + [1] * 3 + [0] * 4, [0, 1, 0]),  # a flag column
        ([3, 3, 1, 1, 2, 2] * 20, [3, 1, 2] * 20),  # size bins in runs of two
        ([9, 8, 7, 6], [9, 8, 7, 6]),
    ])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_sorts_only_run_heads_out_of_order(self, keys, heads, dtype):
        """Run heads that increase are not sorted at all; any other column
        sorts its run heads, once, and nothing else."""
        sorted_arrays = []

        class Recorded(np.ndarray):
            def argsort(self, *args, **kwargs):
                sorted_arrays.append(self.tolist())
                return np.asarray(self).argsort(*args, **kwargs)

            def sort(self, *args, **kwargs):
                sorted_arrays.append(self.tolist())
                return np.asarray(self).sort(*args, **kwargs)

        column = np.array(keys, dtype=dtype)
        unique, inverse = csvio.distinct(column.view(Recorded))
        want_unique, want_inverse = np.unique(column, return_inverse=True)
        assert unique.tolist() == want_unique.tolist()
        assert inverse.tolist() == want_inverse.tolist()
        assert sorted_arrays == ([] if heads is None else [heads])


class TestLookedUp:
    @settings(deadline=None, derandomize=True, database=None, max_examples=400)
    @given(_columns())
    def test_equals_the_argsort_lookup(self, labels):
        """Long runs, a handful of keys, many keys and mixes of them, with
        failing and out-of-range lookups: the column (or None) of the argsort
        lookup, and no key looked up twice."""
        keys = _keys(labels)
        table = _table()
        got = csvio._looked_up(keys, table)
        want = reference_looked_up(keys, _table())
        if want is None:
            assert got is None
        else:
            assert got is not None and got.dtype == np.int64
            assert got.tolist() == want.tolist()
            assert sorted(table.looked_up) == sorted(set(labels))
        assert len(table.looked_up) == len(set(table.looked_up))

    @pytest.mark.parametrize("fault", ["bad", "big"])
    @pytest.mark.parametrize("at", [0, 57, 119])
    def test_a_fault_in_any_path_sends_the_file_to_the_block_reader(self, tmp_path, fault, at):
        """A sorted file read in small chunks: a blank code or a count beyond
        int64 in a column of long runs or in one sorted whole."""
        rows = [f"{10001 + i // 20},{441100 + i // 4},{['1-4', '5-9', ''][i % 3]},"
                f"{i % 7 if i % 3 else i},{int(i % 3 == 2)}" for i in range(120)]
        zcta, naics, size_bin, count, flag = rows[at].split(",")
        rows[at] = ",".join([zcta, " " if fault == "bad" else naics, size_bin,
                             str(1 << 63) if fault == "big" else count, flag])
        path = tmp_path / "cbp.csv"
        path.write_text("zcta,naics,size_bin,establishments,suppressed\n" + "\n".join(rows))
        blocks = mock.patch.object(geo, "_read_cbp_blocks", wraps=geo._read_cbp_blocks)
        with mock.patch.object(csvio, "CHUNK_BYTES", 256), blocks as block_read:
            got = outcome(lambda p: list(read_cbp_csv(p)), path)
        assert block_read.called
        assert got == outcome(reference_cbp, path) == ("error", f"{path} row {at + 1}: " + (
            "field 'naics': blank" if fault == "bad"
            else f"field 'establishments': not a 64-bit integer: '{1 << 63}'"
        ))


class TestWriteRows:
    def test_numpy_scalars_bools_and_none_keep_their_text(self, tmp_path):
        path = tmp_path / "out.csv"
        csvio.write_rows(path, ["a", "b", "c", "d", "e"], [
            ["x", 0.1, 3, None, 2.5e-300],
            ("y", np.float64(0.1), True, None, np.float64(1e22)),
            ["z", 1.0, False, np.int64(7), float("inf")],
            [np.str_("w"), np.float32(0.5), np.bool_(True), "", -0.0],
            ["v", 2.0, True, None, 0],
            ["u", np.float64(0.25), 1, None, 1.5],
        ], comment="provenance")
        assert path.read_text() == (
            "# provenance\na,b,c,d,e\n"
            "x,0.1,3,,2.5e-300\n"
            "y,0.1,1,,1e+22\n"
            "z,1.0,0,7,inf\n"
            "w,0.5,True,,-0.0\n"
            "v,2.0,1,,0\n"
            "u,0.25,1,,1.5\n"
        )

    def test_plain_rows_skip_the_cell_formatter(self, tmp_path):
        failing = mock.patch.object(csvio, "_cell", side_effect=AssertionError)
        with failing:
            csvio.write_rows(tmp_path / "out.csv", ["a", "b"], [["x", 1.5], [None, 2]], "stamp")
        assert (tmp_path / "out.csv").read_text() == "# stamp\na,b\nx,1.5\n,2\n"
