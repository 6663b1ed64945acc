"""The input contract as one table: each fault of each input file, field and
config key of the end-to-end fixture, and what a run given it must do.

A :class:`Case` is a command, the edits that break the fixture, the exit
code and the outcome: for exit 1 (data) or 2 (usage or config) the run's
one ``error:`` line; for exit 0 a ``WARNING`` line the run logs, or
:data:`SAME` (outputs identical to the clean run's) or :data:`READ`
(outputs that differ: the field allows the value and reads it).

Most cases come from :data:`FILES`, each file's fields with the outcome of
each of :data:`VALUES` put in its last data row and of each of
:data:`FILE_EDITS`, and from :data:`KEY_FAULTS`, each config key's bad
values.  Expected lines are templates over the paths ``{path}`` (the
first edited file), ``{config}``, ``{in}`` and ``{out}``; nothing is
computed from the package under test.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import NamedTuple

from e2efixture import OCCUPATION_HEADER, write_config

SAME = "outputs identical to the clean run"
READ = "outputs read differently from the clean run"


class Case(NamedTuple):
    argv: tuple  # the command and its flags; --config {config} follows the command
    edits: tuple  # (file, op, arg) triples, applied in order; see apply()
    code: int
    expect: str  # the error line, a WARNING line, SAME or READ


LOCATION_HEADER = ("zcta,density,share_teamwork,share_customer,share_communication,"
                   "share_presence,employment\n")


def write_location_index(source):
    """A 15-row location index, enough points for the smoother."""
    source.write_text(LOCATION_HEADER + "".join(
        f"z{i:02d},{0.25 * (i + 1)},0.1,{0.02 * i},{0.02 * i + 0.1},0.3,{10 + i}\n"
        for i in range(15)))


# the two table inputs the e2e config leaves out
EXTRA_INPUTS = {
    "industry_names": ("names.csv",
                       "industry_code,name\n44,Retail\n31,Manufacturing\n62,Health\n"),
    "region_groups": ("regions.csv", "zcta,region\n10001,metro\n10002,metro\n10003,rest\n"),
}
# each key's line in the config write_fixture writes
CONFIG_LINES = {"cbp": 1, "density": 2, "exclusions": 3, "matrix": 4, "national_sizes": 5,
                "occupations": 6, "output_dir": 7, "industry_names": 8, "region_groups": 9}


def write_fixture(indir: Path, out: Path) -> Path:
    """The e2e fixture with every table input and a location index; its config."""
    config = write_config(indir, out)
    with open(config, "a") as fh:
        for key, (name, text) in EXTRA_INPUTS.items():
            (indir / name).write_text(text)
            fh.write(f"{key} = {indir / name}\n")
    write_location_index(indir / "location-index.csv")
    return config


def case_fixture(case: Case, shared: Path, directory: Path) -> dict:
    """The paths a case's templates name: ``directory`` holds the case's config
    and a copy of each input the case edits or names, and the config reads
    the other inputs from the fixture in ``shared``, which no case changes."""
    directory.mkdir()
    names = {"in": directory, "out": directory / "out", "config": directory / "run.cfg"}
    config = (shared / "run.cfg").read_text().replace(str(shared / "out"), str(names["out"]))
    for path in shared.iterdir():
        if path.name in {edit[0] for edit in case.edits} or f"{{in}}/{path.name}" in case.argv:
            (directory / path.name).write_bytes(path.read_bytes())
            config = config.replace(str(path), str(directory / path.name))
    names["config"].write_text(config)
    apply(case.edits, names)
    return names


def set_field(data: bytes, field: str, value, rows=(-1,)) -> bytes:
    """``data``, a CSV, with ``field`` set in the data ``rows`` (-1: the last) to
    ``value``, a string or a function of the old field's bytes to the new."""
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    column, olds = records[0].index(field), []
    for row in rows:
        olds.append(records[row][column].encode())
        records[row][column] = "\0"
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(records)
    data = text.getvalue().encode()
    for old in olds:
        data = data.replace(b"\0", value(old) if callable(value) else value.encode(), 1)
    return data


def _last(data: bytes) -> tuple[bytes, bytes]:
    """The lines before the last, and the last."""
    return tuple(data.rstrip(b"\n").rsplit(b"\n", 1))


def _head(data: bytes) -> tuple[bytes, bytes]:
    """The names of the first and the last column."""
    header = data.split(b"\n", 1)[0]
    return header.split(b",", 1)[0], header.rsplit(b",", 1)[1]


FILE_EDITS = {
    "byte-order mark": lambda data: b"\xef\xbb\xbf" + data,
    "CRLF": lambda data: data.replace(b"\n", b"\r\n"),
    "short row": lambda data: b"%s\n%s\n" % (_last(data)[0], _last(data)[1].split(b",")[0]),
    "header only": lambda data: data.split(b"\n")[0] + b"\n",
    "repeated row": lambda data: data + _last(data)[1] + b"\n",
    "empty file": lambda data: b"",
    "last column unnamed": lambda data: data.replace(b"," + _head(data)[1], b"", 1),
    "last column named as the first": lambda data: data.replace(
        b"," + _head(data)[1], b"," + _head(data)[0], 1),
}


def apply(edits, names: dict) -> None:
    """Apply each ``(file, op, arg)``: ``file`` is a name in ``names["in"]``,
    ``run.cfg`` included, or a template such as ``{out}/x``; ``op`` is "set"
    (arg: :func:`set_field`'s), "append" (text or bytes), "write" (bytes),
    "key" (key, value; None deletes the key), "mkdir", or a FILE_EDITS name."""
    for name, op, arg in edits:
        path = Path(name.format(**names)) if "{" in name else names["in"] / name
        if op == "mkdir":
            path.mkdir(parents=True)
        elif op == "key":
            lines = [line for line in path.read_text().splitlines(True)
                     if not line.startswith(f"{arg[0]} =")]
            if arg[1] is not None:
                lines.append(f"{arg[0]} = {arg[1].format(**names)}\n")
            path.write_text("".join(lines))
        elif op == "append":
            with open(path, "ab") as fh:
                fh.write(arg.format(**names).encode() if isinstance(arg, str) else arg)
        elif op == "write":
            path.write_bytes(arg)
        elif op == "set":
            path.write_bytes(set_field(path.read_bytes(), *arg))
        else:
            path.write_bytes(FILE_EDITS[op](path.read_bytes()))


# ---------------------------------------------------------------------------
# Field cases: each value in the last data row of each file
# ---------------------------------------------------------------------------

VALUES = {"empty": "", "blank": "  ", "non-numeric": "abc", "negative": "-5", "zero": "0",
          "nan": "nan", "1e308": "1e308", "not UTF-8": lambda old: old + b"\xe9"}
# cbp.csv only: fields that send a plain file from the numpy path to the block reader
CBP_VALUES = {"quoted": lambda old: b'"' + old + b'"', "9 bytes": lambda old: old.ljust(9)}


def _err(text):
    return 1, "error: {path} row {row}: " + text


def label(other):
    """A label field: blank after stripping is an error; any other value is a
    label, with the ``other`` outcome."""
    return {**dict.fromkeys(VALUES, other),
            **dict.fromkeys(["empty", "blank"], _err("field {field!r}: blank"))}


def number(zero, huge, *, whole=False):
    """A count or amount: finite and never negative (or, ``whole``, an integer)."""
    kind, finite = ("an integer", "an integer") if whole else ("a number", "a finite number")
    return {"empty": _err(f"field {{field!r}}: not {kind}: ''"),
            "blank": _err(f"field {{field!r}}: not {kind}: '  '"),
            "non-numeric": _err(f"field {{field!r}}: not {kind}: 'abc'"),
            "negative": _err("field {field!r}: negative: -5.0"), "zero": zero,
            "nan": _err(f"field {{field!r}}: not {finite}: 'nan'"), "1e308": huge}


MISSING = ["empty", "blank"]  # not measured, which a flag of 11-2021 needs
TASK = number((0, SAME), _err("11-2021: task {field!r} score 1e+308 outside [0, 100]")) | {
    **dict.fromkeys(MISSING, _err("occupation 11-2021: no score for task {field!r}")),
    "negative": _err("11-2021: task {field!r} score -5.0 outside [0, 100]"),
}  # zero: 11-2021 holds no flag, and a lower score gives it none
CONTEXT = number(_err("11-2021: context {item!r} level 0 not in 1..5"),
                 _err("field {field!r}: not an integer: '1e308'"), whole=True) | {
    **dict.fromkeys(MISSING, _err("occupation 11-2021: missing context item {item!r}")),
    "negative": _err("11-2021: context {item!r} level -5 not in 1..5"),
}
ONLY_HEADER = "no data rows, only a header"
LOWESS = ("lowess", "--input", "{in}/location-index.csv")
WARN = "WARNING distancing."

# file -> (the command that reads it, the number of its last data row, the
# outcome of a header alone and of a repeated last row, and the outcomes of
# each of its fields, in column order); the last rows are 11-2021, 62/43-9061,
# 10004/311811, 62/10-19 (a bin no cell imputes from), 10004, 10003, 62, z14
FILES = {
    "occupations.csv": (("index",), 6, ONLY_HEADER,
                        _err("soc_code '11-2021' already given at row 6"), {
        "soc_code": dict.fromkeys(
            VALUES, _err("soc_code {label!r} does not match the 6-digit XX-XXXX pattern")),
        "title": dict.fromkeys(VALUES, (0, READ)),
        **dict.fromkeys(OCCUPATION_HEADER[2:-4], TASK),  # the task columns
        **dict.fromkeys(["ctx_face_to_face", "ctx_email", "ctx_letters", "ctx_proximity"],
                        CONTEXT),
    }),
    "matrix.csv": (("index",), 8, ONLY_HEADER, (0, READ), {
        "industry_code": label((0, READ)),
        "soc_code": label((0, WARN + "industries: 1 occupation codes in the matrix have no "
                              "exposure flags (counted as unexposed): {label}")),
        "employment": number((0, READ), (0, READ)),
    }),
    "cbp.csv": (("subsidy",), 8, ONLY_HEADER, (0, READ), {
        "zcta": label((0, WARN + "calibrate: 1 regions lack density records; their cells were "
                          "skipped: {label}")),
        "naics": label((0, WARN + "calibrate: 1 cells skipped: no industry mix for codes {label}")),
        "size_bin": dict.fromkeys(VALUES, (0, WARN + "geo: cell 10004/311811 dropped: unknown "
                                              "size bin label {label!r}")),
        "establishments": number(
            (0, READ), _err("field 'establishments': not an integer: '1e308'"), whole=True) | {
            "negative": (0, WARN + "geo: cell 10004/311811 dropped: negative establishment count "
                                "in bin '5-9'")},
        "suppressed": number((0, SAME), _err("field 'suppressed': not an integer: '1e308'"),
                             whole=True) | {  # empty is 0, and any other integer suppressed
            "empty": (0, SAME), "blank": (0, SAME), "negative": (0, READ)},
    }),
    "national_sizes.csv": (("subsidy",), 11, ONLY_HEADER,
                           _err("naics/size_bin ('62', '10-19') already given at row 11"), {
        "naics": label((0, SAME)),
        "size_bin": label((0, SAME)),
        "establishments": number(
            _err("field 'employment': 290.0 workers in 0 establishments"), (0, SAME)),
        "employment": number((0, SAME), (0, SAME)),
    }),
    "density.csv": (("subsidy",), 4, "no employment overlaps the density data; cannot "
                    "normalize", _err("zcta '10004' already given at row 4"), {
        "zcta": label((0, WARN + "calibrate: 1 regions lack density records; their cells were "
                          "skipped: 10004")),
        "population": number(
            (0, WARN + "geo: region 10004 has zero population density; dropped"),
            (1, "error: {path}: the employment-weighted mean density is not finite; cannot "
                "normalize")),
        "land_area_km2": number(
            (0, WARN + "geo: region 10004 has nonpositive land area; dropped"), (0, READ)),
    }),
    "regions.csv": (("subsidy",), 3, ONLY_HEADER, _err("zcta '10003' already given at row 3"), {
        "zcta": label((0, WARN + "counterfactual: region grouping lists {label}, which has no "
                          "results")),
        "region": label((0, READ)),
    }),
    "names.csv": (("index",), 3, ONLY_HEADER, _err("industry_code '62' already given at row 3"), {
        "industry_code": label((0, READ)),
        "name": label((0, READ)),
    }),
    "location-index.csv": (LOWESS, 15, "lowess needs at least 10 points, got 0", (0, READ), {
        "zcta": dict.fromkeys(VALUES, (0, SAME)),  # the smoother never reads it
        "density": number(_err("field 'density': not positive: 0.0"), (0, READ)),
        **dict.fromkeys(["share_teamwork", "share_customer", "share_communication",
                         "share_presence"],
                        number((0, READ), _err("field {field!r}: above 1: 1e+308"))),
        "employment": number((0, READ), (0, READ)),
    }),
}


def _field_cases():
    for name, (argv, row, header_only, repeated, fields) in FILES.items():
        values = {**VALUES, **(CBP_VALUES if name == "cbp.csv" else {})}
        for field, outcomes in fields.items():
            outcomes = {**outcomes, "not UTF-8": _err("not UTF-8: byte 0xe9"),
                        **dict.fromkeys(CBP_VALUES, (0, SAME))}
            for value_name, value in values.items():
                code, line = outcomes[value_name]
                label = value.strip() if isinstance(value, str) else ""
                line = line.format(path="{path}", row=row, field=field, item=field[4:],
                                   label=label)
                yield f"{name} {field} {value_name}", Case(
                    argv, ((name, "set", (field, value)),), code, line)
        repeated = repeated[0], repeated[1].replace("row {row}", f"row {row + 1}", 1)
        first, *_, last = fields
        for op, (code, line) in {
            "byte-order mark": (0, SAME), "CRLF": (0, SAME),
            "short row": _err(f"expected {len(fields)} fields, got 1"),
            "header only": (1, "error: {path}: " + header_only), "repeated row": repeated,
            "empty file": (1, "error: {path}: empty file, expected a CSV header"),
            "last column unnamed": (1, f"error: {{path}}: missing required columns: {last}")
            if name != "cbp.csv" else  # suppressed is optional; its withheld plant is not
            (0, WARN + "geo: cell 10002/441200 dropped: unknown size bin label ''"),
            "last column named as the first": (1, f"error: {{path}}: repeated column names: "
                                                  f"{first}"),
        }.items():
            yield f"{name} {op}", Case(argv, ((name, op, None),), code,
                                       line.replace("{row}", str(row)))


def _set(name, field, value, line, rows=(-1,)):
    """A case that sets ``field`` of ``name`` to ``value``, run by its command."""
    return Case(FILES[name][0], ((name, "set", (field, value, rows)),), 1, line)


# ---------------------------------------------------------------------------
# Config key cases
# ---------------------------------------------------------------------------

# key -> {bad value: the error after "error: "}
KEY_FAULTS = {
    **{key: {"{in}/nope.csv": f"input file for {key!r} does not exist: {{in}}/nope.csv"}
       for key in CONFIG_LINES if key != "output_dir"},
    "output_dir": {"": "output_dir is blank; name an output directory",
                   "{config}": "output_dir exists and is not a directory: {config}"},
    "cutoff": {"high": "config key cutoff: expected a number, got 'high'",
               "-1": "cutoff must lie in [0, 100], got -1.0",
               "100.5": "cutoff must lie in [0, 100], got 100.5"},
    **{key: {"4.5": f"config key {key}: expected an integer, got '4.5'",
             "three": f"config key {key}: expected an integer, got 'three'",
             "0": f"{key} must be in 1..5, got 0", "6": f"{key} must be in 1..5, got 6"}
       for key in ("face_to_face_level", "proximity_level")},
    "contact_share": {"0": "contact_share must lie in (0, 1], got 0.0",
                      "1.5": "contact_share must lie in (0, 1], got 1.5"},
    "elasticity": {"0": "elasticity must be positive, got 0.0"},
    "fixed_eps": {"0": "fixed_eps must be positive, got 0.0",
                  "-0.1": "fixed_eps must be positive, got -0.1"},
    "telecom_cost": {"0": "telecom_cost must be positive, got 0.0"},
    "open_bin_mean": {"-5": "open_bin_mean must be positive, got -5.0",
                      "0": "open_bin_mean must be positive, got 0.0"},
    **{key: {"maybe": f"config key {key}: expected a boolean, got 'maybe'",
             "2": f"config key {key}: expected a boolean, got '2'"}
       for key in ("lenient", "employment_density")},
}
for _key in ("cutoff", "contact_share", "elasticity", "fixed_eps", "telecom_cost",
             "open_bin_mean"):
    KEY_FAULTS[_key].update({value: f"{_key} must be a finite number, got {value}"
                             for value in ("nan", "inf", "-inf")})


def _key_cases():
    for key, faults in KEY_FAULTS.items():
        flag = "--" + key.replace("_", "-")
        for value, error in faults.items():
            yield f"{key} = {value}", Case(
                ("subsidy",), (("run.cfg", "key", (key, value)),), 2, "error: " + error)
            if value in ("nan", "inf", "-inf") or key == "contact_share":
                yield f"{flag}={value}", Case(("subsidy", f"{flag}={value}"), (), 2,
                                              "error: " + error)
        line, first = (10, CONFIG_LINES[key]) if key in CONFIG_LINES else (12, 10)
        yield f"{key} repeated", Case(
            ("subsidy",), (("run.cfg", "append", f"{key} = 1\n\n{key} = 1\n"),), 2,
            f"error: {{config}}:{line}: key {key!r} already given at line {first}")


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

OVERFLOWS = {  # cbp rows that, with one 1e308-worker plant per 1000+ plant under 44,
    # overflow a ZCTA's total, a cell's estimate or the total of all ZCTAs
    "zcta": ("10001,441100,1000+,1,0\n10001,441300,1000+,1,0\n",
             "zcta '10001': total employment is beyond the float range"),
    "cell": ("10001,441100,1000+,2,0\n",
             "cell 10001/441100: estimated employment is beyond the float range"),
    "all": ("10001,441100,1000+,1,0\n10002,441300,1000+,1,0\n",
            "the total employment of all ZCTAs is beyond the float range"),
}
TOO_FEW = (LOCATION_HEADER + "".join(f"z,{d},0,0,0,0,5\n" for d in (0.5, 1, 2, 4))).encode()
ONE_DENSITY = (LOCATION_HEADER + "z,2,0,0,0,0,5\n" * 12).encode()
FIG2 = ("fig2", "--chi=0.5", "--eps=0.5", "--cap=1.1")
CHI_ONE = ("matrix.csv", "set", ("employment", "1e308", (1,)))

CASES = {
    **dict(_field_cases()),
    **dict(_key_cases()),
    # a config file that does not parse
    "config line without '='": Case(
        ("subsidy",), (("run.cfg", "append", "cutoff 62.5\n"),), 2,
        "error: {config}:10: expected 'key = value', got 'cutoff 62.5'"),
    "config not UTF-8": Case(("subsidy",), (("run.cfg", "append", b"# caf\xff\n"),), 2,
                             "error: cannot read config file {config}: line 10 is not UTF-8: "
                             "byte 0xff"),
    "config is a directory": Case(("subsidy", "--config", "{in}"), (), 2,
                                  "error: cannot read config file {in}: [Errno 21] Is a "
                                  "directory: '{in}'"),
    **{f"removed key {key}": Case(("subsidy",), (("run.cfg", "append", f"{key} = 4\n"),), 2,
                                  f"error: {{config}}: unknown config keys: {key}")
       for key in ("threads", "seed")},
    "removed flag --threads": Case(("subsidy", "--threads=4"), (), 2,
                                   "distancing: error: unrecognized arguments: --threads=4"),
    # inputs a command needs, and where it writes
    **{f"index without {key}": Case(("index",), (("run.cfg", "key", (key, None)),), 2,
                                    f"error: missing required inputs: {key} (set them in the "
                                    "config file or with flags)")
       for key in ("occupations", "matrix", "cbp", "density", "national_sizes")},
    "--output-dir blank": Case(("index", "--output-dir", ""), (), 2,
                               "error: output_dir is blank; name an output directory"),
    **{f"{command} output_dir {where} is a file": Case(  # before a data error in the matrix
        (command, *flag, *LOWESS[1:] * (command == "lowess")),
        (("matrix.csv", "append", "44,41-2031,-5\n"),
         *[("run.cfg", "key", ("output_dir", "{config}"))] * (not flag)), 2,
        "error: output_dir exists and is not a directory: {config}")
       for command in ("index", "subsidy", "lowess")
       for where, flag in (("key", ()), ("flag", ("--output-dir", "{config}")))},
    **{f"{command} output {name} is a directory": Case(
        (command,), ((f"{{out}}/{name}", "mkdir", None),), 1,
        f"error: [Errno 21] Is a directory: '{{out}}/{name}'")
       for command, name in (("index", "occupation-index.csv"), ("subsidy", "calibration.csv"))},
    **{f"{name} header only, {command}": Case(  # under the other command that reads it
        (command,), ((name, "header only", None),), 1, "error: {path}: " + ONLY_HEADER)
       for name, command in (("occupations.csv", "subsidy"), ("matrix.csv", "subsidy"),
                             ("cbp.csv", "index"))},
    # values past a range no single value of VALUES reaches
    "occupations.csv level 9": _set(
        "occupations.csv", "ctx_face_to_face", "9",
        "error: {path} row 6: 11-2021: context 'face_to_face' level 9 not in 1..5"),
    "cbp.csv count beyond int64": _set(
        "cbp.csv", "establishments", "99999999999999999999",
        "error: {path} row 8: field 'establishments': not a 64-bit integer: "
        "'99999999999999999999'"),
    **{f"national_sizes.csv establishments {value}": _set(
        "national_sizes.csv", "establishments", value,
        f"error: {{path}} row 11: field 'establishments': not a whole number: {value}")
       for value in ("2.5", "1e-300")},
    "density.csv land_area_km2 inf": _set(
        "density.csv", "land_area_km2", " inf",
        "error: {path} row 4: field 'land_area_km2': not a finite number: ' inf'"),
    "location-index.csv share_presence inf": _set(
        "location-index.csv", "share_presence", "inf",
        "error: {path} row 15: field 'share_presence': not a finite number: 'inf'"),
    "location-index.csv density -0": _set(
        "location-index.csv", "density", "-0",
        "error: {path} row 15: field 'density': not positive: -0.0"),
    # totals that overflow, from values that do not
    "matrix.csv total overflow": _set(
        "matrix.csv", "employment", "1e308",
        "error: {path}: industry '44': total employment is not finite", rows=(1, 2)),
    # 41-2031's 1e308 workers round 44's communication share to 1: the index
    # reads it, and the model, which prices only shares below 1, names it
    "matrix.csv communication share 1, index": Case(("index",), (CHI_ONE,), 0, READ),
    **{f"matrix.csv communication share 1, {command}": Case(
        (command,), (CHI_ONE,), 1,
        "error: {path}: industry '44': chi must lie in [0, 1), got 1.0")
       for command in ("calibrate", "subsidy")},
    **{f"national_sizes.csv {field} total overflow": _set(
        "national_sizes.csv", field, "1e308", "error: {path}: naics '44': total establishments "
        "or employment is beyond the float range", rows=(1, 2))
       for field in ("establishments", "employment")},
    **{f"cbp.csv {case} employment overflow, {command}": Case(
        (command,), (("cbp.csv", "append", rows),
                     ("national_sizes.csv", "append", "44,1000+,1,1e308\n")), 1,
        "error: {path}: " + fault)
       for case, (rows, fault) in OVERFLOWS.items() for command in ("index", "subsidy")},
    **{f"{command} --fixed-eps 1e4": Case(
        (command, "--fixed-eps", "1e4"), (), 1, "error: eps 10000.0 is too large: the optimal "
        "contacts or their employment-weighted total overflow a double")
       for command in ("calibrate", "subsidy")},
    # the exclusion list: no table, so no fields
    "exclusions.txt not UTF-8": Case(
        ("index",), (("exclusions.txt", "write", b"622\n# no hospitals\n44\xff\n"),), 1,
        "error: {path} line 3: not UTF-8: byte 0xff"),
    "exclusions.txt comments only": Case(
        ("index",), (("exclusions.txt", "write", b"# nothing excluded\n"),), 0, SAME),
    "exclusions.txt unknown code": Case(("index",), (("exclusions.txt", "write", b"99\n"),), 0,
                                        WARN + "industries: exclusion code 99 matches no industry"),
    # the smoother and its flags
    "lowess too few points": Case(LOWESS, (("location-index.csv", "write", TOO_FEW),), 1,
                                  "error: {path}: lowess needs at least 10 points, got 4"),
    "lowess one density": Case(LOWESS, (("location-index.csv", "write", ONE_DENSITY),), 1,
                               "error: {path}: x values span zero range; nothing to smooth over"),
    "lowess --bandwidth 0": Case((*LOWESS, "--bandwidth", "0"), (), 2,
                                 "error: --bandwidth must lie in (0, 1], got 0.0"),
    "lowess without an index": Case(("lowess",), (), 2, "error: location index not found: "
                                    "{out}/location-index.csv (run 'index' first or pass --input)"),
    # fig2 flags
    **{f"fig2 --{flag}={value}": Case(
        (*FIG2, f"--{flag}={value}", "--output-dir", "{out}"), (), 2, f"error: --{flag} must "
        + ("lie in [0, 1)" if flag == "chi" else "be a positive finite number")
        + f", got {float(value)!r}")
       for flag, outside in (("chi", "1.5"), ("eps", "0"), ("cap", "0"), ("telecom", "-1"),
                             ("dmin", "0"), ("dmax", "-2"))
       for value in ("nan", "inf", "-inf", outside)},
    "fig2 --dmin above --dmax": Case((*FIG2, "--dmin=5", "--dmax=1", "--output-dir", "{out}"),
                                     (), 2, "error: need 0 < dmin < dmax"),
    "fig2 --output-dir blank": Case((*FIG2, "--output-dir", ""), (), 2,
                                    "error: --output-dir is blank; name an output directory"),
    **{f"fig2 --points {points}": Case(
        (*FIG2, "--points", str(points), "--output-dir", "{out}"), (), 2,
        f"error: --points must lie in [2, 1000000], got {points}")
       for points in (1_000_001, 10**14)},
}
