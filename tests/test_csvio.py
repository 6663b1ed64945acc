"""Block-wise CSV reading against a per-line reference of the same format."""

import csv
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distancing import csvio
from distancing.errors import IngestionError
from distancing.geo import read_cbp_csv

CBP_HEADER = ["zcta", "naics", "size_bin", "establishments", "suppressed", "note"]


def reference_records(path):
    """Header and numbered data rows: every line that does not start with ``#``
    through one ``csv.reader``, blank records dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = [f for f in csv.reader(line for line in fh if not line.startswith("#")) if f]
    return records[0], list(enumerate(records[1:], start=1))


def reference_cbp(path):
    """The establishment records row by row, faults checked in reading order."""
    header, records = reference_records(path)
    zcta, naics, size_bin, count, flag = map(header.index, CBP_HEADER[:5])
    out = []
    for i, fields in records:
        where = f"{path} row {i}"
        if len(fields) < len(header):
            raise IngestionError(f"{where}: expected {len(header)} fields, got {len(fields)}")
        for name, at in (("zcta", zcta), ("naics", naics)):
            if not fields[at].strip():
                raise IngestionError(f"{where}: field {name!r}: blank")
        raw_flag = fields[flag].strip()
        suppressed = csvio.parse_int(raw_flag, path=where, field="suppressed") != 0 \
            if raw_flag else False
        established = csvio.parse_int(fields[count], path=where, field="establishments")
        out.append((fields[zcta].strip(), fields[naics].strip(), fields[size_bin].strip(),
                    established, suppressed))
    return out


def outcome(read, path):
    try:
        return "ok", read(path)
    except IngestionError as exc:
        return "error", str(exc)


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
            got_header, blocks = csvio.read_blocks(path)
            got, error = [], None
            try:
                for first, rows in blocks:
                    assert 0 < len(rows) <= block
                    got.extend(enumerate(rows, start=first))
            except IngestionError as exc:
                error = str(exc)
            rows = outcome(csvio.read_rows, path)
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
            csvio.read_rows(path)
        assert str(excinfo.value) == message
