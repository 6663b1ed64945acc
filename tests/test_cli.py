"""Subcommand behavior: outputs, exit codes, overrides, determinism."""

import argparse
import ast
import csv
import dataclasses
import gc
import importlib
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faults
from distancing import csvio
from distancing.cli import (
    _pct,
    build_parser,
    main,
    run,
    run_geo_stage,
    run_index_stage,
)
from distancing.config import RunConfig, _coerce, config_hash, load_config_file, resolve_config
from distancing.errors import CalibrationError
from e2efixture import CBP, DENSITY, hand_expectations, write_config, write_inputs
from faults import write_location_index

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture()
def fixture_config(tmp_path):
    return write_config(tmp_path / "in", tmp_path / "out"), tmp_path / "out"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*"))}


def _body(path):
    lines = path.read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


class TestIndex:
    def test_writes_expected_tables(self, fixture_config):
        config, out = fixture_config
        assert main(["index", "--config", str(config)]) == 0
        flags = {row["soc_code"]: row for row in read_csv(out / "occupation-index.csv")}
        assert flags["11-1011"]["teamwork"] == "1"
        assert flags["11-2021"]["teamwork"] == "0"  # email parity blocks
        assert flags["29-1141"]["communication"] == "1"
        assert flags["53-3032"]["presence"] == "1"
        index = {row["industry_code"]: row for row in read_csv(out / "industry-index.csv")}
        assert index["44"]["chi_communication"] == "0.6"
        assert index["31"]["chi_presence"] == "0.5"
        assert index["62"]["chi_teamwork"] == "0.5"
        locations = {row["zcta"]: row for row in read_csv(out / "location-index.csv")}
        assert len(locations) == 4
        assert float(locations["10004"]["share_presence"]) == pytest.approx(0.5)
        assert (out / "reconciliation.txt").exists()

    def test_provenance_comment_first_line(self, fixture_config):
        config, out = fixture_config
        main(["index", "--config", str(config)])
        first = (out / "industry-index.csv").read_text().splitlines()[0]
        assert first.startswith("# distancing 0.1.0 config:")

    def test_golden_index_contents(self, fixture_config):
        # frozen from a hand-checked run (provenance line excluded: its
        # hash covers the absolute input paths)
        config, out = fixture_config
        main(["index", "--config", str(config)])
        occupation_golden = (
            "soc_code,title,teamwork,customer,communication,presence\n"
            "11-1011,Team supervisor,1,0,1,0\n"
            "11-2021,Marketing manager,0,0,0,0\n"
            "29-1141,Registered nurse,1,1,1,0\n"
            "41-2031,Retail salesperson,0,1,1,0\n"
            "43-9061,Office clerk,0,0,0,0\n"
            "53-3032,Heavy truck driver,0,0,0,1\n"
        )
        industry_golden = (
            "industry_code,name,chi_teamwork,chi_customer,chi_communication,chi_presence\n"
            "31,31,0.0,0.0,0.0,0.5\n"
            "44,44,0.0,0.6,0.6,0.0\n"
            "62,62,0.5,0.25,0.5,0.0\n"
        )
        assert _body(out / "occupation-index.csv") == occupation_golden
        assert _body(out / "industry-index.csv") == industry_golden

    def test_rerun_byte_identical(self, fixture_config):
        config, out = fixture_config
        main(["index", "--config", str(config)])
        before = snapshot(out)
        main(["index", "--config", str(config)])
        assert snapshot(out) == before

    def test_employment_density_flag(self, fixture_config):
        config, out = fixture_config
        main(["index", "--config", str(config)])
        population_based = {r["zcta"]: float(r["density"])
                            for r in read_csv(out / "location-index.csv")}
        assert main(["index", "--config", str(config), "--employment-density"]) == 0
        rows = read_csv(out / "location-index.csv")
        employment_based = {r["zcta"]: float(r["density"]) for r in rows}
        assert employment_based != population_based
        mean = sum(float(r["density"]) * float(r["employment"]) for r in rows) / sum(
            float(r["employment"]) for r in rows
        )
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_no_location_inputs_skip_the_location_index(self, fixture_config):
        config, out = fixture_config
        lines = config.read_text().splitlines()
        location = ("cbp =", "density =", "national_sizes =")
        config.write_text("\n".join(line for line in lines
                                    if not line.startswith(location)) + "\n")
        assert main(["index", "--config", str(config)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "industry-index.csv", "occupation-index.csv", "reconciliation.txt"]


class TestCalibrate:
    def test_report_fields(self, fixture_config):
        config, out = fixture_config
        assert main(["calibrate", "--config", str(config)]) == 0
        (row,) = read_csv(out / "calibration.csv")
        assert float(row["achieved_slope"]) == pytest.approx(0.04, abs=1e-9)
        assert float(row["achieved_share"]) == pytest.approx(0.5, rel=1e-8)
        assert row["eps_fixed"] == "0"
        assert (out / "calibration.txt").read_text().count("eps:") == 1

    def test_fixed_eps_honored(self, fixture_config):
        config, out = fixture_config
        assert main(["calibrate", "--config", str(config), "--fixed-eps", "0.02"]) == 0
        (row,) = read_csv(out / "calibration.csv")
        assert float(row["eps"]) == 0.02
        assert row["eps_fixed"] == "1"

class TestSubsidy:
    def test_tables_written(self, fixture_config):
        config, out = fixture_config
        assert main(["subsidy", "--config", str(config)]) == 0
        sectors = read_csv(out / "sector-subsidy.csv")
        assert sectors[-1]["industry"] == "Average"
        assert [r["industry"] for r in sectors[:-1]] == ["44", "62", "31"]  # most affected first
        locations = read_csv(out / "location-subsidy.csv")
        assert {r["zcta"] for r in locations} == {"10001", "10002", "10003", "10004"}
        fig2 = read_csv(out / "fig2.csv")
        assert len(fig2) == 100
        assert set(fig2[0]) == {"density", "distancing_ratio", "telecom_ratio", "regime"}

    def test_rerun_and_output_dir_byte_identical(self, fixture_config, tmp_path):
        config, out = fixture_config
        main(["subsidy", "--config", str(config)])
        first = snapshot(out)
        main(["subsidy", "--config", str(config)])
        assert snapshot(out) == first
        other = tmp_path / "out-other"
        main(["subsidy", "--config", str(config), "--output-dir", str(other)])
        assert snapshot(other) == first

    def test_national_range_code_gives_the_rows_of_its_sectors(self, fixture_config, tmp_path):
        """National rows keyed ``44-45``, as Census writes the retail sector,
        impute the withheld plant of 10002/441200 as rows keyed ``44`` do."""
        config, out = fixture_config
        assert main(["subsidy", "--config", str(config)]) == 0
        national = config.with_name("national_sizes.csv")
        national.write_text(national.read_text().replace("\n44,", "\n44-45,"))
        assert national.read_text().count("44-45,") == 4
        ranged = tmp_path / "out-ranged"
        assert main(["subsidy", "--config", str(config), "--output-dir", str(ranged)]) == 0
        assert snapshot(ranged) == snapshot(out)

    def test_report_percent_stays_below_100(self):
        assert _pct(math.nextafter(1.0, 0.0)) == 99.9
        assert _pct(0.99949) == 99.9
        assert _pct(0.12345) == 12.3
        assert _pct(0.0) == 0.0

    def test_region_grouping_table(self, fixture_config, tmp_path):
        config, out = fixture_config
        groups = tmp_path / "regions.csv"
        groups.write_text("zcta,region\n10001,metro\n10002,metro\n")
        assert main(["subsidy", "--config", str(config), "--region-groups", str(groups)]) == 0
        (row,) = read_csv(out / "region-subsidy.csv")
        assert row["region"] == "metro"
        locations = {r["zcta"]: r for r in read_csv(out / "location-subsidy.csv")}
        lo = min(float(locations[z]["wage_subsidy_pct"]) for z in ("10001", "10002"))
        hi = max(float(locations[z]["wage_subsidy_pct"]) for z in ("10001", "10002"))
        assert lo <= float(row["wage_subsidy_pct"]) <= hi

    def test_default_exclusions_drop_hospital_cells(self, tmp_path):
        paths = write_inputs(tmp_path / "in")
        cbp = tmp_path / "in" / "cbp.csv"
        cbp.write_text(cbp.read_text() + "10001,622110,20-49,5,0\n")
        out = tmp_path / "out"
        args = ["subsidy", "--output-dir", str(out)]
        for key, value in paths.items():
            if key != "exclusions":  # fall back to the built-in default list
                args += [f"--{key.replace('_', '-')}", value]
        assert main(args) == 0
        sectors = {r["industry"] for r in read_csv(out / "sector-subsidy.csv")}
        assert "62" in sectors  # other health cells survive
        locations = {r["zcta"]: r for r in read_csv(out / "location-subsidy.csv")}
        # the hospital cell's 172.5 jobs never enter the 10001 total
        assert float(locations["10001"]["employment"]) == pytest.approx(90.0)

    def test_sector_prefix_exclusion_drops_industries_and_cells_alike(
        self, fixture_config, tmp_path, caplog
    ):
        config, out = fixture_config
        (tmp_path / "in" / "exclusions.txt").write_text("6\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert main(["index", "--config", str(config)]) == 0
            assert main(["subsidy", "--config", str(config)]) == 0
        assert "excluded_sectors: 6\n" in (out / "reconciliation.txt").read_text()
        assert {r["industry_code"] for r in read_csv(out / "industry-index.csv")} == {"31", "44"}
        sectors = {r["industry"] for r in read_csv(out / "sector-subsidy.csv")}
        assert sectors == {"31", "44", "Average"}
        assert not any("matches no industry" in r.message for r in caplog.records)

    def test_telecom_flag_fills_column(self, fixture_config):
        config, out = fixture_config
        assert main(["subsidy", "--config", str(config), "--telecom-cost", "1.5"]) == 0
        fig2 = read_csv(out / "fig2.csv")
        assert any(row["telecom_ratio"] for row in fig2)

    @pytest.mark.parametrize("telecom", [[], ["--telecom-cost", "1.5"]])
    def test_frame_contacts_and_parameters_are_computed_once(
        self, fixture_config, monkeypatch, telecom
    ):
        # the subsidies price the contacts and firm parameters that the calibration made;
        # the fig2 grid and its bisection steps are arrays of other lengths
        from distancing import calibrate, counterfactual, model

        config, _ = fixture_config
        cells = len(hand_expectations()["cells"])
        contacts, params = [], []
        contacts_at_density = model.contacts_at_density
        post_init = model.FirmParams.__post_init__

        def counted_contacts(d, eps, firm):
            if np.size(d) == cells:
                contacts.append(len(d))
            return contacts_at_density(d, eps, firm)

        def counted_params(firm):
            if isinstance(firm.chi, np.ndarray):
                params.append(len(firm.chi))
            post_init(firm)

        for module in (model, calibrate, counterfactual):
            monkeypatch.setattr(module, "contacts_at_density", counted_contacts)
        monkeypatch.setattr(model.FirmParams, "__post_init__", counted_params)
        assert main(["subsidy", "--config", str(config), *telecom]) == 0
        assert contacts == [cells]
        assert params == [cells]


class TestGeoStage:
    def test_unresolved_code_cells_weight_the_density_mean(self, tmp_path):
        """All measured employment weights the mean, priced later or not."""
        paths = write_inputs(tmp_path / "in")
        cfg = resolve_config(paths)
        index = run_index_stage(cfg)
        before = run_geo_stage(cfg, index)
        cbp = Path(paths["cbp"])
        cbp.write_text(cbp.read_text() + "10001,991111,20-49,5,0\n")  # no mix covers 99
        after = run_geo_stage(cfg, index)
        assert list(before.densities) == list(after.densities)
        # the mean moves, so every normalized density moves by one common factor
        ratios = [after.densities[z] / before.densities[z] for z in before.densities]
        assert ratios[0] != 1.0
        assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12)
        assert after.resolver.resolve("991111") is None


class TestFig2Command:
    def test_standalone_curves(self, tmp_path):
        out = tmp_path / "o"
        rc = main([
            "fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.1", "--telecom", "0.5",
            "--dmin", "0.5", "--dmax", "200", "--points", "50",
            "--output-dir", str(out),
        ])
        assert rc == 0
        rows = read_csv(out / "fig2.csv")
        assert len(rows) == 50
        regimes = {row["regime"] for row in rows}
        assert {"unconstrained", "distanced", "telecom"} <= regimes
        flat = [r for r in rows if r["regime"] == "unconstrained"]
        assert all(float(r["distancing_ratio"]) == 1.0 for r in flat)

    def test_overflowing_contacts_are_a_usage_error_before_numpy_loads(self, tmp_path, capsys):
        # d**(eps*(1-chi)) at --dmax is 1e900: no double holds the contacts there
        argv = ["fig2", "--chi", "0.1", "--eps", "100", "--cap", "1", "--dmax", "1e10",
                "--output-dir", "o"]
        assert main([*argv[:-1], str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: --eps 100.0 and --dmax 10000000000.0 put the optimal contacts beyond "
            "the double range\n")
        assert not (tmp_path / "o").exists()
        code, modules = _imported_modules(argv, tmp_path)
        assert code == 2
        assert not modules & {"numpy", "distancing.model", "distancing.counterfactual"}
        assert not (tmp_path / "o").exists()


class TestLowessCommand:
    def test_smooths_location_index(self, tmp_path):
        source = tmp_path / "location-index.csv"
        write_location_index(source)
        out = tmp_path / "out"
        rc = main(["lowess", "--input", str(source), "--output-dir", str(out),
                   "--bandwidth", "0.6"])
        assert rc == 0
        rows = read_csv(out / "location-lowess.csv")
        assert len(rows) == 100
        assert set(rows[0]) == {"log_density", "teamwork", "customer", "communication",
                                "presence"}
        # constant input column smooths to a constant curve
        assert all(float(r["teamwork"]) == pytest.approx(0.1) for r in rows)
        # every cell parses as a plain number (no stray scalar reprs)
        assert all(float(v) == float(v) for r in rows for v in r.values())


class TestErrorContract:
    def test_fig2_output_dir_that_is_a_file_is_usage_error_before_numpy_loads(
        self, tmp_path, capsys
    ):
        (tmp_path / "o").write_text("kept\n")
        argv = ["fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.1", "--output-dir"]
        assert main([*argv, str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: --output-dir exists and is not a directory: {tmp_path / 'o'}\n")
        code, modules = _imported_modules([*argv, "o"], tmp_path)
        assert code == 2
        assert not modules & {"numpy", "distancing.model", "distancing.counterfactual"}
        assert (tmp_path / "o").read_text() == "kept\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "distancing", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert "distancing 0.1.0" in proc.stdout


def _injected(*args, **kwargs):
    raise CalibrationError("injected")


def _writes(call):
    """Whether ``call`` makes a directory or writes a file: ``mkdir``,
    ``write_text`` or ``write_bytes``, or ``open``/``Path.open`` with a mode
    that is not read-only (one that is not a literal counts as writing)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("mkdir", "makedirs", "write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    args = call.args[1:] if isinstance(func, ast.Name) else call.args
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
    return mode is not None and not (
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and set(mode.value) <= set("rbt"))


@pytest.fixture()
def fault_fixture(tmp_path):
    """The paths :func:`_argv` fills in, over :func:`faults.write_fixture`."""
    names = {"in": tmp_path / "in", "out": tmp_path / "out"}
    names["config"] = faults.write_fixture(names["in"], names["out"])
    return names


class TestWriteOnce:
    """Each command computes every output first, then hands them all, in one
    order, to one :func:`csvio.write_outputs` call, the only writer."""

    FIG2 = ("fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.1", "--telecom", "0.5",
            "--output-dir", "{out}")
    ORDER = [
        (("index",), ["occupation-index.csv", "industry-index.csv", "reconciliation.txt",
                      "location-index.csv"]),
        (("calibrate",), ["calibration.csv", "calibration.txt"]),
        (("subsidy",), ["calibration.csv", "calibration.txt", "sector-subsidy.csv",
                        "location-subsidy.csv", "region-subsidy.csv", "fig2.csv"]),
        (FIG2, ["fig2.csv"]),
        (faults.LOWESS, ["location-lowess.csv"]),
    ]

    def test_each_command_writes_its_outputs_in_one_call(self, fault_fixture, monkeypatch):
        calls, write = [], csvio.write_outputs

        def recorded(out, outputs, comment):
            calls.append(list(outputs))
            write(out, outputs, comment)

        monkeypatch.setattr(csvio, "write_outputs", recorded)
        for argv, names in self.ORDER:
            calls.clear()
            assert main(_argv(argv, fault_fixture)) == 0
            assert calls == [names], argv[0]

    @pytest.mark.parametrize("command, target", [
        ("index", "geo.location_exposure"),
        ("calibrate", "calibrate.run_calibration"),
        ("subsidy", "counterfactual.compute_subsidies"),
        ("subsidy", "counterfactual.location_table"),
        ("subsidy", "counterfactual.cost_ratio_curves"),
    ])
    def test_a_failure_before_the_last_output_leaves_no_directory(
        self, command, target, fault_fixture, monkeypatch, capsys
    ):
        monkeypatch.setattr(f"distancing.{target}", _injected)
        assert main(_argv((command,), fault_fixture)) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: injected"
        assert not fault_fixture["out"].exists()

    def test_readme_outputs_name_every_file_written(self, fault_fixture):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Outputs\n", 1)[1].split("\n## ", 1)[0]
        for argv in (("index",), ("subsidy", "--telecom-cost", "1.5"), faults.LOWESS):
            assert main(_argv(argv, fault_fixture)) == 0
        written = sorted(path.name for path in fault_fixture["out"].iterdir())
        assert len(written) == 11
        assert [name for name in written if f"`{name}`" not in section] == []

    def test_only_csvio_makes_directories_or_writes_files(self):
        found = {}
        for path in sorted((SRC / "distancing").glob("*.py")):
            calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Call) and _writes(node)]
            found[path.name] = [node.lineno for node in calls]
        own = found.pop("csvio.py")
        assert {name: lines for name, lines in found.items() if lines} == {}
        assert len(own) == 3  # the check sees the writer's own calls


def _cyclic_garbage(args):
    """Objects that a ``main(args)`` run with the collector off leaves in cycles."""
    gc.collect()
    gc.disable()
    try:
        assert main(args) == 0
        return gc.collect()
    finally:
        gc.enable()


def _write_repeated_fixture(directory, output_dir, copies):
    """The e2e fixture with its CBP and density rows repeated under ``copies`` x the ZCTAs."""
    config = write_config(directory, output_dir)
    for name, header, rows in (
        ("cbp.csv", "zcta,naics,size_bin,establishments,suppressed", CBP),
        ("density.csv", "zcta,population,land_area_km2", DENSITY),
    ):
        lines = [header] + [
            ",".join([str(int(zcta) + 1000 * k), *map(str, rest)])
            for k in range(copies) for zcta, *rest in rows
        ]
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def _module_fig2(out, report, environ):
    """What ``python -m distancing fig2 ...`` runs, in a child with ``environ``:
    the words of ``report`` (a tuple expression) evaluated at exit."""
    script = (
        "import atexit, gc, os, runpy, sys\n"
        f"atexit.register(lambda: print(*({report})))\n"
        "sys.argv = ['distancing', 'fig2', '--chi', '0.5', '--eps', '0.5', '--cap', '1.1',"
        f" '--output-dir', {str(out)!r}]\n"
        "runpy.run_module('distancing', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "fig2.csv").is_file()
    return proc.stdout.split()


class TestCollectorPolicy:
    """``run`` turns the cyclic collector off for one process; ``main`` leaves it alone."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, fixture_config, enabled):
        config, _ = fixture_config
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["subsidy", "--config", str(config)]) == 0
            assert main(["index", "--config", str(config)]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            gc.enable()

    def test_run_builds_no_per_row_cycles(self, tmp_path):
        small = _write_repeated_fixture(tmp_path / "small", tmp_path / "out-small", 1)
        large = _write_repeated_fixture(tmp_path / "large", tmp_path / "out-large", 20)
        assert len((tmp_path / "large" / "cbp.csv").read_text().splitlines()) == 1 + 20 * len(CBP)
        small_args = ["subsidy", "--config", str(small)]
        large_args = ["subsidy", "--config", str(large)]
        _cyclic_garbage(small_args)  # warm: imports and first-use caches
        _cyclic_garbage(large_args)
        assert _cyclic_garbage(large_args) <= _cyclic_garbage(small_args)

    def test_module_entry_point_disables_and_freezes(self, tmp_path):
        report = "gc.isenabled(), gc.get_freeze_count() > 0"
        assert _module_fig2(tmp_path, report, os.environ) == ["False", "True"]

    def test_module_run_writes_the_bytes_of_an_in_process_run(self, fixture_config, tmp_path):
        config, out = fixture_config
        assert main(["subsidy", "--config", str(config)]) == 0
        other = tmp_path / "out-module"
        proc = subprocess.run(
            [sys.executable, "-m", "distancing", "subsidy", "--config", str(config),
             "--output-dir", str(other)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert snapshot(other) == snapshot(out)


# numpy names whose float work goes through BLAS or LAPACK
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "lstsq",
              "polyfit"}


def _uses_blas(node):
    """Whether ``node`` is a ``@``, an attribute in :data:`BLAS_NAMES`, or an
    import of one."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        return node.attr in BLAS_NAMES
    if isinstance(node, ast.ImportFrom):
        return not BLAS_NAMES.isdisjoint((node.module or "").split("."))
    if isinstance(node, ast.alias):
        return not BLAS_NAMES.isdisjoint(node.name.split("."))
    return False


class TestBlasThreadPolicy:
    """``run`` starts OpenBLAS with one thread unless the caller chose a count,
    since no computation goes through BLAS; ``main`` leaves the environment alone."""

    @staticmethod
    def _environ(threads):
        environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        return environ if threads is None else dict(environ, OPENBLAS_NUM_THREADS=threads)

    @pytest.mark.parametrize("given, kept", [(None, "1"), ("2", "2")])
    def test_module_entry_point_keeps_a_given_thread_count(self, tmp_path, given, kept):
        report = "os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules"
        assert _module_fig2(tmp_path, report, self._environ(given)) == [kept, "True"]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc to count threads")
    def test_module_entry_point_runs_in_one_os_thread(self, tmp_path):
        report = "len(os.listdir('/proc/self/task')), 'numpy' in sys.modules"
        assert _module_fig2(tmp_path, report, self._environ(None)) == ["1", "True"]

    def test_main_leaves_the_environment_alone(self, fixture_config, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        config, _ = fixture_config
        assert main(["subsidy", "--config", str(config)]) == 0
        assert dict(os.environ) == environ

    def test_no_computation_goes_through_blas(self):
        found = {}
        for path in sorted((SRC / "distancing").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found[path.name] = [node.lineno for node in ast.walk(tree) if _uses_blas(node)]
        assert {name: lines for name, lines in found.items() if lines} == {}
        # the check sees each form it looks for
        probe = ("a @ b\na @= b\nnp.dot(a, b)\n"
                 "from numpy.linalg import norm\nfrom numpy import einsum\n")
        assert sum(map(_uses_blas, ast.walk(ast.parse(probe)))) == 5


# The kinds of RunConfig annotation the config reads, each with its values' type.
KINDS = {"str | None": str, "str": str, "bool": bool, "int": int,
         "float": float, "float | None": float}


class TestConfig:
    @pytest.mark.parametrize("command", ["index", "calibrate", "subsidy", "lowess"])
    def test_every_key_has_one_flag_of_its_kind(self, command):
        """All keys can also be passed as ``--key-name`` flags: one flag per key,
        unset unless given, so that a flag overrides the file only when given."""
        parser = build_parser()._subparsers._group_actions[0].choices[command]
        actions = {}
        for action in parser._actions:
            actions.setdefault(action.dest, []).append(action)
        for field in dataclasses.fields(RunConfig):
            [action] = actions.pop(field.name)
            kind = KINDS[field.type]
            assert action.option_strings == ["--" + field.name.replace("_", "-")]
            assert action.default is None, field.name
            if kind is bool:
                assert isinstance(action, argparse._StoreConstAction), field.name
                assert action.const is True, field.name
            else:
                assert type(action) is argparse._StoreAction, field.name
                assert action.type is (None if kind is str else kind), field.name
        own = {"input", "bandwidth"} if command == "lowess" else set()
        assert set(actions) == {"help", "config", *own}

    def test_every_default_reads_back_from_a_config_file(self, tmp_path):
        """Each key's default, written as text, reads back as itself, with the
        type its annotation names; an unset input is an existing file and an
        unset number a number."""
        expected = {}
        for field in dataclasses.fields(RunConfig):
            assert field.type in KINDS, field.name  # a kind the config reads
            value = getattr(RunConfig(), field.name)
            if value is None and KINDS[field.type] is str:
                value = str(tmp_path / field.name)
                Path(value).touch()
            expected[field.name] = 0.25 if value is None else value
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in expected.items()))
        read = dataclasses.asdict(resolve_config(load_config_file(config)))
        assert read == expected
        assert {key: type(value) for key, value in read.items()} == {
            field.name: KINDS[field.type] for field in dataclasses.fields(RunConfig)}

    def test_blank_comment_and_boolean_lines_read_as_the_flags(self, fixture_config, tmp_path):
        config, out = fixture_config
        lines = config.read_text().splitlines()
        flags = [arg for line in lines if not line.startswith("output_dir")
                 for key, _, value in [line.partition(" = ")]
                 for arg in (f"--{key.replace('_', '-')}", value)]
        config.write_text("\n".join([
            "# the fixture run, measured by employment", "", *lines, "   ",
            "  # booleans as words", "employment_density = yes", "lenient = off",
        ]) + "\n")
        assert main(["index", "--config", str(config)]) == 0
        flagged = tmp_path / "flagged"
        assert main(["index", *flags, "--output-dir", str(flagged),
                     "--employment-density"]) == 0
        assert snapshot(out) == snapshot(flagged)
        plain = tmp_path / "plain"
        assert main(["index", *flags, "--output-dir", str(plain)]) == 0
        assert _body(plain / "location-index.csv") != _body(out / "location-index.csv")

    def test_readme_config_example_shows_every_key_and_default(self):
        """README "Config file" shows each key once, commented out or not, and
        each value it shows for a key with a default other than None, input
        paths aside, is that default."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config file\n", 1)[1].split("```ini\n", 1)[1].split("```")[0]
        shown = {}
        for line in block.splitlines():
            key, equals, value = line.removeprefix("#").split("#", 1)[0].partition("=")
            if equals:
                assert key.strip() not in shown, key
                shown[key.strip()] = value.strip()
        assert set(shown) == {field.name for field in dataclasses.fields(RunConfig)}
        for field in dataclasses.fields(RunConfig):
            default = getattr(RunConfig(), field.name)
            if field.type != "str | None" and default is not None:
                assert _coerce(field.name, shown[field.name]) == default, field.name

    def test_default_config_hash_is_pinned(self):
        # every output's provenance line carries this hash
        assert config_hash(RunConfig()) == "dcfe423929d3"

    def test_relative_paths_resolve_against_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        paths = write_inputs(tmp_path / "in")
        lines = [f"{key} = {os.path.relpath(value, tmp_path)}" for key, value in paths.items()]
        config = tmp_path / "in" / "run.cfg"
        config.write_text("\n".join(lines + ["output_dir = out"]) + "\n")
        monkeypatch.chdir(tmp_path)
        assert main(["index", "--config", str(config)]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        assert main(["index", "--config", str(config)]) == 2
        assert os.path.join("in", "occupations.csv") in capsys.readouterr().err


def _argv(argv, names):
    argv = [arg.format(**names) for arg in argv]  # the config follows the command
    own = argv[0] == "fig2" or "--config" in argv
    return argv if own else [argv[0], "--config", str(names["config"]), *argv[1:]]


def _outputs(directory):
    """Each output's lines but its provenance comments, which name the run's paths."""
    return {path.name: [line for line in path.read_text().splitlines()
                        if not line.startswith("#")] for path in sorted(directory.iterdir())}


def _listing(directory, *but):
    """What a directory holds but the entries named ``but``, with each entry's
    size and change time, or None if there is no directory."""
    if directory.exists():
        return {entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
                for entry in os.scandir(directory) if entry.name not in but}


class TestInputContract:
    """Every case of :data:`faults.CASES` under one rule, run in the case's
    directory.  The exit code is the case's; the run raises no traceback and
    no RuntimeWarning, and changes no input and writes no other file in that
    directory.  A failed run prints one ``error:`` line, the case's, and
    writes nothing: no output directory.  A run that exits 0 logs the case's
    warning, or writes outputs identical to (SAME) or, without a warning,
    different from (READ) the clean run's."""

    @pytest.fixture(scope="class")
    def shared(self, tmp_path_factory):
        """The fixture each case reads but for what it edits, and the outputs of a
        clean run of each command."""
        shared, clean = tmp_path_factory.mktemp("shared"), {}
        faults.write_fixture(shared, shared / "out")
        for argv in {case.argv for case in faults.CASES.values() if case.code == 0}:
            names = faults.case_fixture(faults.Case(argv, (), 0, faults.SAME), shared,
                                        shared.parent / f"clean-{len(clean)}")
            assert main(_argv(argv, names)) == 0
            clean[argv] = _outputs(names["out"])
        yield shared, clean
        assert not (shared / "out").exists()

    @pytest.mark.parametrize("name", list(faults.CASES))
    def test_case(self, name, shared, monkeypatch, capsys, caplog, recwarn):
        """One case of the table, under the class's rule."""
        shared, clean = shared
        case = faults.CASES[name]
        directory = shared.parent / f"case-{list(faults.CASES).index(name)}"
        names = faults.case_fixture(case, shared, directory)
        monkeypatch.chdir(directory)  # where a blank output directory would write
        before = _listing(names["out"]), _listing(directory, "out"), _listing(shared)
        try:
            code = main(_argv(case.argv, names))
        except SystemExit as exc:  # a flag the parser rejects
            code = exc.code
        err = capsys.readouterr().err
        path = names["in"] / case.edits[0][0] if case.edits else None
        expect = case.expect.format(path=path, **names)
        errors = [line for line in err.splitlines() if "error: " in line]
        warnings = [f"{r.levelname} {r.name}: {r.getMessage()}" for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert (_listing(directory, "out"), _listing(shared)) == before[1:]
        assert code == case.code
        if code:
            assert errors == [expect] and _listing(names["out"]) == before[0]
        elif expect in (faults.SAME, faults.READ):
            assert errors == [] and warnings == []
            assert (_outputs(names["out"]) == clean[case.argv]) == (expect == faults.SAME)
        else:
            assert errors == [] and expect in warnings

    def test_every_key_file_and_column_has_cases(self, tmp_path):
        """A config key, or an input file or column of the fixture, without a
        case fails here."""
        edits = [edit for case in faults.CASES.values() for edit in case.edits]
        keys = {arg[0] for _, op, arg in edits if op == "key"}
        assert keys == {field.name for field in dataclasses.fields(RunConfig)}
        columns = {(name, arg[0]) for name, op, arg in edits if op == "set"}
        for line in faults.write_fixture(tmp_path, tmp_path / "out").read_text().splitlines():
            key, _, path = line.partition(" = ")
            assert key == "output_dir" or Path(path).name in {edit[0] for edit in edits}, key
            if path.endswith(".csv"):
                with open(path, newline="", encoding="utf-8") as fh:
                    header = next(csv.reader(fh))
                assert columns >= {(Path(path).name, column) for column in header}, key

    def test_help_defaults_are_the_run_defaults(self):
        """The ``(default ...)`` of each config flag's help is the ``RunConfig`` default."""
        commands = build_parser()._subparsers._group_actions[0].choices
        defaults = {action.dest: action.help.rpartition("(default ")[2].rstrip(")")
                    for parser in commands.values() for action in parser._actions
                    if action.type and "(default " in (action.help or "")}
        assert defaults.pop("bandwidth") == "0.5"  # lowess's own flag
        assert {key: type(getattr(RunConfig(), key))(value)
                for key, value in defaults.items()} == {
            key: getattr(RunConfig(), key) for key in defaults}
        assert sorted(defaults) == ["contact_share", "cutoff", "elasticity",
                                    "face_to_face_level", "proximity_level"]


def _imported_modules(args, cwd):
    """Run ``python -X importtime -m distancing ARGS``; its exit code and imported modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "distancing", *args],
        capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, modules


# layers that cli imports only inside the commands that use them
DEFERRED_LAYERS = ("distancing.calibrate", "distancing.counterfactual", "distancing.model")
# what ``python -m distancing`` loads before the command line is parsed
PARSING_MODULES = {"distancing", "distancing.__main__", "distancing.cli"}


def _package_modules(modules):
    return {name for name in modules if name.split(".")[0] == "distancing"}


def _assert_parsing_only(modules):
    """Nothing loaded beyond what parsing needs: no layer, no config, and none of
    logging, dataclasses or numpy unless a bare interpreter loads it too."""
    assert _package_modules(modules) <= PARSING_MODULES
    bare = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                          capture_output=True, text=True).stderr
    assert not modules & {"logging", "dataclasses", "numpy"} - {
        line.rsplit("|", 1)[1].strip() for line in bare.splitlines()}


def _index_only_args(command, tmp_path):
    """``command`` with only the occupation and matrix inputs, writing to ``tmp_path/out``."""
    paths = write_inputs(tmp_path / "in")
    return [command, "--occupations", str(paths["occupations"]), "--matrix",
            str(paths["matrix"]), "--output-dir", str(tmp_path / "out")]


class TestImportCost:
    """Each command loads only the layers it runs: parsing needs none of them,
    numpy loads only where it is used (establishment cells, calibration,
    subsidies, lowess and fig2), and no command loads numpy.ma."""

    def test_version_runs_without_numpy(self, fixture_config):
        _, out = fixture_config
        code, modules = _imported_modules(["--version"], out.parent)
        assert code == 0 and "distancing.cli" in modules
        assert "numpy" not in modules
        _assert_parsing_only(modules)

    @pytest.mark.parametrize("args, exit_code", [
        (["--help"], 0),
        (["subsidy", "--frobnicate"], 2),
        (["fig2", "--chi", "0.5"], 2),
    ])
    def test_help_and_usage_errors_load_no_layer(self, tmp_path, args, exit_code):
        code, modules = _imported_modules(args, tmp_path)
        assert code == exit_code
        _assert_parsing_only(modules)

    def test_cli_import_loads_neither_numpy_nor_the_deferred_layers(self):
        # every layer is deferred: importing cli loads no other package module
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, distancing.cli; print(*sorted(sys.modules))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert _package_modules(loaded) == {"distancing", "distancing.cli"}
        assert "numpy" not in loaded

    def test_lowess_loads_none_of_the_deferred_layers(self, fixture_config, tmp_path):
        config, out = fixture_config
        source = tmp_path / "location-index.csv"
        write_location_index(source)
        code, modules = _imported_modules(
            ["lowess", "--config", str(config), "--input", str(source)], out.parent)
        assert code == 0 and "distancing.geo" in modules
        assert not modules & set(DEFERRED_LAYERS)

    def test_index_without_establishment_inputs_loads_neither_numpy_nor_geo(self, tmp_path):
        code, modules = _imported_modules(_index_only_args("index", tmp_path), tmp_path)
        assert code == 0 and "distancing.industries" in modules
        assert not modules & {"numpy", "distancing.geo"}
        assert "distancing.exact" in modules  # the sums' module, without numpy
        assert (tmp_path / "out" / "industry-index.csv").is_file()

    @pytest.mark.parametrize("command", ["calibrate", "lowess"])
    def test_usage_errors_after_the_index_load_no_numpy(self, tmp_path, command):
        # calibrate names its missing location keys; lowess its bandwidth
        args = _index_only_args(command, tmp_path)
        if command == "lowess":
            source = tmp_path / "location-index.csv"
            write_location_index(source)
            args += ["--input", str(source), "--bandwidth", "0"]
        code, modules = _imported_modules(args, tmp_path)
        assert code == 2 and "distancing.config" in modules
        assert "numpy" not in modules

    def test_fig2_loads_none_of_the_ingest_layers(self, tmp_path):
        code, modules = _imported_modules(
            ["fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.1", "--output-dir", "o"],
            tmp_path)
        assert code == 0 and "distancing.counterfactual" in modules
        ingest = {f"distancing.{name}" for name in ("geo", "industries", "occupations",
                                                    "calibrate")}
        assert not modules & ingest

    def test_fig2_flag_error_loads_neither_numpy_nor_the_model(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "distancing", "fig2", "--chi", "0.5",
             "--eps", "0.5", "--cap", "1.1", "--dmax", "inf", "--output-dir", "o"],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        modules = {line.rsplit("|", 1)[1].strip() for line in lines
                   if line.startswith("import time:")}
        assert not modules & {"numpy", "distancing.model", "distancing.counterfactual"}
        assert [line for line in lines if not line.startswith("import time:")] == [
            "error: --dmax must be a positive finite number, got inf"]

    def test_script_target_is_the_process_entry_point(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["distancing"]
        assert target == "distancing.cli:run"
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is run

    def test_numpy_commands_still_run(self, fixture_config, tmp_path):
        config, out = fixture_config
        source = tmp_path / "location-index.csv"
        write_location_index(source)
        for args in (
            ["index", "--config", str(config)],
            ["lowess", "--config", str(config), "--input", str(source)],
            ["calibrate", "--config", str(config)],
            ["subsidy", "--config", str(config)],
            ["fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.1", "--output-dir", str(out)],
        ):
            code, modules = _imported_modules(args, out.parent)
            assert code == 0, args
            assert "numpy" in modules, args
            assert "numpy.ma" not in modules, args  # a plain np.unique imports it
        assert (out / "location-lowess.csv").is_file() and (out / "fig2.csv").is_file()
        assert (out / "location-index.csv").is_file()
