"""Subcommand behavior: outputs, exit codes, overrides, determinism."""

import csv
import gc
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distancing.cli import (
    _drop_excluded_cells,
    _pct,
    main,
    read_region_groups,
    run,
    run_geo_stage,
    run_index_stage,
)
from distancing.config import RunConfig, config_hash, resolve_config
from distancing.errors import IngestionError
from e2efixture import CBP, DENSITY, hand_expectations, write_config, write_inputs
from frames import cells_of

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


_FIG2 = ["fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.1"]


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


    @pytest.mark.parametrize("missing", ["cbp", "density", "national_sizes"])
    def test_some_location_inputs_are_a_usage_error_naming_the_rest(
        self, fixture_config, capsys, missing
    ):
        config, out = fixture_config
        lines = config.read_text().splitlines()
        config.write_text("\n".join(line for line in lines
                                    if not line.startswith(f"{missing} =")) + "\n")
        assert main(["index", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: missing required inputs: {missing} "
            "(set them in the config file or with flags)\n")
        assert not out.exists()

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

    def test_bad_contact_share_is_usage_error(self, fixture_config):
        config, _ = fixture_config
        assert main(["calibrate", "--config", str(config), "--contact-share", "1.5"]) == 2


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

    def test_range_exclusion_drops_every_sector_in_the_range(self):
        codes = ["441100", "451110", "461000", "622110", "621111", "311111"]
        cells = cells_of([("10001", code, 10.0) for code in codes])
        kept = _drop_excluded_cells(cells, ["44-45", "622"])
        assert [cell.industry_code for cell in kept] == ["461000", "621111", "311111"]

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

    def test_duplicate_region_zcta_names_both_rows(self, tmp_path):
        groups = tmp_path / "regions.csv"
        groups.write_text("zcta,region\n10001,metro\n10002,metro\n10001,rest\n")
        with pytest.raises(IngestionError, match=r"row 3: zcta '10001' already given at row 1"):
            read_region_groups(groups)

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

    def test_bad_grid_is_usage_error(self, tmp_path):
        rc = main(["fig2", "--chi", "0.5", "--eps", "0.5", "--cap", "1.0",
                   "--dmin", "5", "--dmax", "1", "--output-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "domain"])
    @pytest.mark.parametrize("flag, outside", [
        ("chi", "1.5"), ("eps", "0"), ("cap", "0"), ("telecom", "-1"),
        ("dmin", "0"), ("dmax", "-2"),
    ])
    def test_out_of_domain_flag_is_usage_error_naming_it(self, tmp_path, capsys, flag,
                                                           outside, value):
        value = outside if value == "domain" else value
        args = {"chi": "0.5", "eps": "0.5", "cap": "1.1", flag: value}
        out = tmp_path / "o"
        argv = [f"--{key}={v}" for key, v in args.items()]
        assert main(["fig2", *argv, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{flag} must ") and err.count("\n") == 1
        assert f"got {float(value)!r}" in err
        assert not out.exists()

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


def write_location_index(source):
    """A 15-row location index, enough points for the smoother."""
    lines = ["zcta,density,share_teamwork,share_customer,share_communication,"
             "share_presence,employment"]
    for i in range(15):
        d = 0.25 * (i + 1)
        lines.append(f"z{i:02d},{d},0.1,{0.02 * i},{0.02 * i + 0.1},0.3,{10 + i}")
    source.write_text("\n".join(lines) + "\n")


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

    @pytest.mark.parametrize("densities, fault", [
        ([0.5, 1.0, 2.0, 4.0], "lowess needs at least 10 points, got 4"),
        ([2.0] * 12, "x values span zero range; nothing to smooth over"),
    ], ids=["too-few-points", "one-density"])
    def test_smoother_fault_is_data_error_naming_the_input(
        self, tmp_path, capsys, densities, fault
    ):
        source = tmp_path / "location-index.csv"
        source.write_text(
            "zcta,density,share_teamwork,share_customer,share_communication,"
            "share_presence,employment\n"
            + "".join(f"z{i},{d},0,0,0,0,5\n" for i, d in enumerate(densities))
        )
        out = tmp_path / "o"
        assert main(["lowess", "--input", str(source), "--output-dir", str(out)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {source}: {fault}"]
        assert not (out / "location-lowess.csv").exists()

    @pytest.mark.parametrize("row, fault", [
        ("zx,nan,0.1,0.1,0.1,0.1,5", "field 'density': not a finite number: 'nan'"),
        ("zx,0,0.1,0.1,0.1,0.1,5", "field 'density': not positive: 0.0"),
        ("zx,abc,0.1,0.1,0.1,0.1,5", "field 'density': not a number: 'abc'"),
        ("zx,1.0,0.1,0.1,0.1,0.1,-5", "field 'employment': negative: -5.0"),
        ("zx,1.0,0.1,inf,0.1,0.1,5", "field 'share_customer': not a finite number: 'inf'"),
    ])
    def test_bad_value_is_data_error_naming_file_row_and_field(
        self, tmp_path, capsys, row, fault
    ):
        source = tmp_path / "location-index.csv"
        write_location_index(source)
        with open(source, "a") as fh:
            fh.write(row + "\n")
        out = tmp_path / "out"
        assert main(["lowess", "--input", str(source), "--output-dir", str(out)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {source} row 16: {fault}"]
        assert not (out / "location-lowess.csv").exists()

    def test_bad_bandwidth_is_usage_error(self, tmp_path):
        source = tmp_path / "location-index.csv"
        source.write_text("zcta,density,share_teamwork,share_customer,share_communication,"
                          "share_presence,employment\n")
        rc = main(["lowess", "--input", str(source), "--bandwidth", "0",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2


class TestErrorContract:
    def test_missing_input_file_exit_2_with_path(self, tmp_path, capsys):
        rc = main(["index", "--occupations", str(tmp_path / "nope.csv"),
                   "--matrix", str(tmp_path / "also-nope.csv")])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_unset_required_inputs_exit_2(self, tmp_path):
        assert main(["index", "--output-dir", str(tmp_path)]) == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "--frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["index", "subsidy", "lowess"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_output_dir_that_is_a_file_is_usage_error_naming_it(
        self, fixture_config, capsys, command, where
    ):
        config, _ = fixture_config
        target = config.with_name("cbp.csv")
        before = target.read_bytes()
        matrix = config.with_name("matrix.csv")
        matrix.write_text(matrix.read_text() + "44,41-2031,-5\n")  # exit 1, were it read
        argv = [command, "--config", str(config)]
        if where == "flag":
            argv += ["--output-dir", str(target)]
        else:
            lines = [line for line in config.read_text().splitlines()
                     if not line.startswith("output_dir")]
            config.write_text("\n".join([*lines, f"output_dir = {target}"]) + "\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: output_dir exists and is not a directory: {target}\n")
        assert target.read_bytes() == before

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

    @pytest.mark.parametrize("command, name", [
        ("index", "location-index.csv"), ("subsidy", "sector-subsidy.csv"),
    ])
    def test_output_path_that_is_a_directory_is_data_error_naming_it(
        self, fixture_config, capsys, command, name
    ):
        config, out = fixture_config
        (out / name).mkdir(parents=True)
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(out / name) in errors[0]
        assert "Traceback" not in err

    # case: (argv, a fixture file to cut to its header or a config line to set,
    # exit code, what the one error line names); the config goes after the command
    INPUT_RULES = {
        **{f"{name} header only, {command}": ([command], f"{name}.csv", 1,
                                              f"{name}.csv: no data rows")
           for name in ("occupations", "matrix", "cbp") for command in ("index", "subsidy")},
        "blank output_dir key": (["subsidy"], "output_dir =", 2, "output_dir is blank"),
        "blank --output-dir": (["index", "--output-dir", ""], None, 2, "output_dir is blank"),
        "blank fig2 --output-dir": ([*_FIG2, "--output-dir", ""], None, 2,
                                    "--output-dir is blank"),
        **{f"fig2 --points {points}": ([*_FIG2, "--points", str(points), "--output-dir", "o"],
                                       None, 2, f"--points must lie in [2, 1000000], got {points}")
           for points in (1_000_001, 10**14)},
    }

    @pytest.mark.parametrize("case", sorted(INPUT_RULES))
    def test_input_rule_breach_names_its_file_key_or_flag_and_writes_nothing(
        self, fixture_config, capsys, monkeypatch, case
    ):
        config, out = fixture_config
        argv, edit, code, named = self.INPUT_RULES[case]
        if edit and edit.endswith(".csv"):
            path = config.with_name(edit)
            path.write_text(path.read_text().splitlines()[0] + "\n")
        elif edit:
            lines = [line for line in config.read_text().splitlines()
                     if not line.startswith("output_dir")]
            config.write_text("\n".join([*lines, edit]) + "\n")
        if argv[0] != "fig2":
            argv = [argv[0], "--config", str(config), *argv[1:]]
        cwd = config.parent.parent / "cwd"  # where a blank output directory would write
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(argv) == code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and named in errors[0]
        assert "Traceback" not in err
        assert snapshot(out) == {} and snapshot(cwd) == {}

    def test_removed_knobs_are_usage_errors(self, fixture_config):
        config, _ = fixture_config
        with pytest.raises(SystemExit) as excinfo:
            main(["subsidy", "--config", str(config), "--threads", "4"])
        assert excinfo.value.code == 2
        for line in ("threads = 4", "seed = 0"):
            extra = config.with_name(f"extra-{line.split()[0]}.cfg")
            extra.write_text(config.read_text() + line + "\n")
            assert main(["subsidy", "--config", str(extra)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["cutoff", "contact_share", "elasticity", "fixed_eps",
                                     "telecom_cost", "open_bin_mean"])
    def test_non_finite_float_is_usage_error_naming_the_key(
        self, fixture_config, capsys, key, value
    ):
        config, _ = fixture_config
        flag = "--" + key.replace("_", "-")
        assert main(["subsidy", "--config", str(config), f"{flag}={value}"]) == 2
        assert f"{key} must be a finite number, got {float(value)!r}" in capsys.readouterr().err
        extra = config.with_name(f"non-finite-{key}.cfg")
        extra.write_text(config.read_text() + f"{key} = {value}\n")
        assert main(["subsidy", "--config", str(extra)]) == 2

    @pytest.mark.parametrize("command", ["calibrate", "subsidy"])
    def test_overflowing_fixed_eps_is_data_error_naming_it(self, fixture_config, capsys, command):
        # d**(eps*(1-chi)) overflows in the densest cells: no cap or share to report
        config, out = fixture_config
        assert main([command, "--config", str(config), "--fixed-eps", "1e4"]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: eps 10000.0 is too large: the optimal contacts or their "
                          "employment-weighted total overflow a double"]
        assert not (out / "calibration.csv").exists()

    def test_nan_density_is_data_error_with_file_and_row(self, fixture_config, capsys):
        config, _ = fixture_config
        density = config.with_name("density.csv")
        header, first, *rest = density.read_text().splitlines()
        zcta, _, area = first.split(",")
        density.write_text("\n".join([header, f"{zcta},nan,{area}", *rest]) + "\n")
        assert main(["subsidy", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "density.csv row 1" in err and "population" in err

    def test_short_cbp_row_is_data_error_with_file_and_row(self, fixture_config, capsys):
        config, _ = fixture_config
        cbp = config.with_name("cbp.csv")
        rows = cbp.read_text().splitlines()
        cbp.write_text("\n".join([*rows, "00502"]) + "\n")
        assert main(["index", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"cbp.csv row {len(rows)}: expected 5 fields, got 1" in err

    @pytest.mark.parametrize("row, field", [("10001,", "region"), (",metro", "zcta"),
                                            ("  ,  ", "zcta")])
    def test_blank_region_group_field_is_data_error(self, fixture_config, capsys, row, field):
        config, out = fixture_config
        groups = config.with_name("regions.csv")
        groups.write_text(f"zcta,region\n10002,metro\n{row}\n")
        assert main(["subsidy", "--config", str(config), "--region-groups", str(groups)]) == 1
        err = capsys.readouterr().err
        assert f"error: {groups} row 2: field {field!r}: blank" in err
        assert not (out / "region-subsidy.csv").exists()

    def test_establishment_count_beyond_int64_is_data_error(self, fixture_config, capsys):
        config, _ = fixture_config
        cbp = config.with_name("cbp.csv")
        header, first, *rest = cbp.read_text().splitlines()
        first = first.split(",")
        first[3] = "99999999999999999999"
        cbp.write_text("\n".join([header, ",".join(first), *rest]) + "\n")
        assert main(["index", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert ("cbp.csv row 1: field 'establishments': not a 64-bit integer: "
                "'99999999999999999999'") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("column, field", [(1, "population"), (2, "land_area_km2")])
    def test_negative_density_field_is_data_error(self, fixture_config, capsys, column, field):
        config, _ = fixture_config
        density = config.with_name("density.csv")
        header, first, *rest = density.read_text().splitlines()
        first = first.split(",")
        first[column] = "-" + first[column]
        density.write_text("\n".join([header, ",".join(first), *rest]) + "\n")
        assert main(["subsidy", "--config", str(config)]) == 1
        assert f"density.csv row 1: field {field!r}: negative: -" in capsys.readouterr().err

    def test_density_mean_overflow_names_density_file(self, fixture_config, capsys, recwarn):
        config, _ = fixture_config
        density = config.with_name("density.csv")
        header, first, *rest = density.read_text().splitlines()
        zcta, _, area = first.split(",")
        density.write_text("\n".join([header, f"{zcta},1e308,{area}", *rest]) + "\n")
        assert main(["subsidy", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "density.csv: the employment-weighted mean density is not finite" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_byte_order_mark_is_dropped(self, fixture_config, tmp_path):
        config, out = fixture_config
        assert main(["subsidy", "--config", str(config)]) == 0
        plain = snapshot(out)
        cbp = config.with_name("cbp.csv")
        cbp.write_bytes(b"\xef\xbb\xbf" + cbp.read_bytes())
        assert main(["subsidy", "--config", str(config)]) == 0
        assert snapshot(out) == plain

    def test_non_utf8_byte_is_data_error_with_file_and_row(self, fixture_config, capsys):
        config, _ = fixture_config
        density = config.with_name("density.csv")
        lines = density.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b",", b"\xe9,", 1)  # data row 2
        density.write_bytes(b"".join(lines))
        assert main(["subsidy", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "density.csv row 2: not UTF-8: byte 0xe9" in err
        assert "Traceback" not in err

    def test_occupation_range_error_names_file_and_row(self, fixture_config, capsys):
        config, _ = fixture_config
        occupations = config.with_name("occupations.csv")
        header, first, *rest = occupations.read_text().splitlines()
        first = first.rsplit(",", 4)[0] + ",9,3,2,2"  # 11-1011, face_to_face level 9
        occupations.write_text("\n".join([header, first, *rest]) + "\n")
        assert main(["index", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert (
            "occupations.csv row 1: 11-1011: context 'face_to_face' level 9 not in 1..5" in err
        )

    def test_negative_matrix_employment_names_file_and_row(self, fixture_config, capsys):
        config, _ = fixture_config
        matrix = config.with_name("matrix.csv")
        header, first, *rest = matrix.read_text().splitlines()
        industry, soc, _ = first.split(",")
        matrix.write_text("\n".join([header, f"{industry},{soc},-5.0", *rest]) + "\n")
        assert main(["index", "--config", str(config)]) == 1
        assert "matrix.csv row 1: field 'employment': negative: -5.0" in capsys.readouterr().err

    def test_repeated_soc_code_names_both_rows(self, fixture_config, capsys):
        config, _ = fixture_config
        occupations = config.with_name("occupations.csv")
        lines = occupations.read_text().splitlines()
        occupations.write_text("\n".join([*lines, lines[-1]]) + "\n")
        assert main(["index", "--config", str(config)]) == 1
        soc = lines[-1].split(",")[0]
        assert (f"occupations.csv row {len(lines)}: soc_code {soc!r} already given at row "
                f"{len(lines) - 1}") in capsys.readouterr().err

    def test_matrix_total_overflow_names_matrix_file(self, fixture_config, capsys):
        config, _ = fixture_config
        matrix = config.with_name("matrix.csv")
        header, first, second, *rest = matrix.read_text().splitlines()
        rows = [",".join([*row.split(",")[:2], "1e308"]) for row in (first, second)]
        matrix.write_text("\n".join([header, *rows, *rest]) + "\n")
        assert main(["index", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        industry = first.split(",")[0]
        assert f"matrix.csv: industry {industry!r}: total employment is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("column", [2, 3])
    def test_national_total_overflow_names_national_file(self, fixture_config, capsys, column):
        config, _ = fixture_config
        national = config.with_name("national_sizes.csv")
        header, first, second, *rest = national.read_text().splitlines()
        rows = []
        for row in (first, second):
            fields = row.split(",")
            fields[column] = "1e308"
            rows.append(",".join(fields))
        national.write_text("\n".join([header, *rows, *rest]) + "\n")
        assert main(["subsidy", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        naics = first.split(",")[0]
        assert (f"national_sizes.csv: naics {naics!r}: total establishments or employment is "
                "beyond the float range") in err
        assert "Traceback" not in err

    # cbp.csv rows that, with one 1e308-worker plant per 1000+ plant under "44",
    # overflow a ZCTA's total, a cell's estimate or the total of all ZCTAs
    OVERFLOWING_CBP_ROWS = {
        "zcta": (["10001,441100,1000+,1,0", "10001,441300,1000+,1,0"],
                 "zcta '10001': total employment is beyond the float range"),
        "cell": (["10001,441100,1000+,2,0"],
                 "cell 10001/441100: estimated employment is beyond the float range"),
        "all": (["10001,441100,1000+,1,0", "10002,441300,1000+,1,0"],
                "the total employment of all ZCTAs is beyond the float range"),
    }

    @pytest.mark.parametrize("command", ["index", "subsidy"])
    @pytest.mark.parametrize("case", sorted(OVERFLOWING_CBP_ROWS))
    def test_employment_overflow_names_the_cbp_file(
        self, fixture_config, capsys, recwarn, command, case
    ):
        config, out = fixture_config
        rows, fault = self.OVERFLOWING_CBP_ROWS[case]
        with open(config.with_name("national_sizes.csv"), "a") as fh:
            fh.write("44,1000+,1,1e308\n")
        cbp = config.with_name("cbp.csv")
        with open(cbp, "a") as fh:
            fh.write("".join(row + "\n" for row in rows))
        assert main([command, "--config", str(config)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {cbp}: {fault}"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert snapshot(out) == {}

    # (file, an appended data row, the field the error names, its fault): blank
    # labels, and a negative location-index share
    CONTRACT_FAULTS = [
        ("matrix.csv", "  ,11-1011,5", "industry_code", "blank"),
        ("matrix.csv", "11,,5", "soc_code", "blank"),
        ("national_sizes.csv", " ,1-4,1,2", "naics", "blank"),
        ("national_sizes.csv", "44, ,1,2", "size_bin", "blank"),
        ("density.csv", " ,100,1", "zcta", "blank"),
        ("industry_names.csv", ",Mining", "industry_code", "blank"),
        ("industry_names.csv", "21, ", "name", "blank"),
        ("location-index.csv", "zx,1.0,0.1,-0.1,0.1,0.1,5", "share_customer",
         "negative: -0.1"),
    ]

    @pytest.mark.parametrize("name, row, field, fault", CONTRACT_FAULTS)
    def test_input_contract_fault_names_file_row_and_field(
        self, fixture_config, capsys, name, row, field, fault
    ):
        config, out = fixture_config
        path = config.with_name(name)
        args = ["index", "--config", str(config)]
        if name == "industry_names.csv":
            path.write_text("industry_code,name\n11,Agriculture\n")
            args += ["--industry-names", str(path)]
        elif name == "location-index.csv":
            write_location_index(path)
            args = ["lowess", "--config", str(config), "--input", str(path)]
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, row]) + "\n")
        assert main(args) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {path} row {len(lines)}: field {field!r}: {fault}"]
        assert snapshot(out) == {}

    def test_non_utf8_exclusions_name_file_and_line(self, fixture_config, capsys):
        config, _ = fixture_config
        exclusions = config.with_name("exclusions.txt")
        exclusions.write_bytes(b"622\n# no hospitals\n44\xff\n")
        assert main(["index", "--config", str(config)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {exclusions} line 3: not UTF-8: byte 0xff"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "distancing", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert "distancing 0.1.0" in proc.stdout


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
        # what ``python -m distancing fig2 ...`` runs, with a report of the collector at exit
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['distancing', 'fig2', '--chi', '0.5', '--eps', '0.5', '--cap', '1.1',"
            f" '--output-dir', {str(tmp_path)!r}]\n"
            "runpy.run_module('distancing', run_name='__main__')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
        assert (tmp_path / "fig2.csv").is_file()

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


class TestConfig:
    @pytest.mark.parametrize("line, fault", [
        ("lenient = maybe", "config key lenient: expected a boolean, got 'maybe'"),
        ("employment_density = 2",
         "config key employment_density: expected a boolean, got '2'"),
        ("face_to_face_level = 4.5",
         "config key face_to_face_level: expected an integer, got '4.5'"),
        ("proximity_level = three",
         "config key proximity_level: expected an integer, got 'three'"),
        ("cutoff = high", "config key cutoff: expected a number, got 'high'"),
        ("cutoff = 100.5", "cutoff must lie in [0, 100], got 100.5"),
        ("cutoff = -1", "cutoff must lie in [0, 100], got -1.0"),
        ("face_to_face_level = 6", "face_to_face_level must be in 1..5, got 6"),
        ("proximity_level = 0", "proximity_level must be in 1..5, got 0"),
        ("contact_share = 0", "contact_share must lie in (0, 1], got 0.0"),
        ("contact_share = 1.5", "contact_share must lie in (0, 1], got 1.5"),
        ("elasticity = 0", "elasticity must be positive, got 0.0"),
        ("fixed_eps = -0.1", "fixed_eps must be positive, got -0.1"),
        ("telecom_cost = 0", "telecom_cost must be positive, got 0.0"),
        ("open_bin_mean = -5", "open_bin_mean must be positive, got -5.0"),
        ("exclusions = no-such-file.txt",
         "input file for 'exclusions' does not exist: no-such-file.txt"),
    ])
    def test_bad_config_line_is_usage_error_naming_the_key(
        self, fixture_config, capsys, line, fault
    ):
        config, out = fixture_config
        bad = config.with_name("bad.cfg")
        key = line.partition("=")[0]
        kept = [old for old in config.read_text().splitlines() if not old.startswith(key)]
        bad.write_text("\n".join([*kept, line]) + "\n")
        assert main(["calibrate", "--config", str(bad)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and fault in errors[0]
        assert not (out / "calibration.csv").exists()

    def test_malformed_line_names_file_and_line(self, fixture_config, capsys):
        config, _ = fixture_config
        lines = config.read_text().splitlines()
        config.write_text("\n".join([*lines, "cutoff 62.5"]) + "\n")
        assert main(["calibrate", "--config", str(config)]) == 2
        assert (f"error: {config}:{len(lines) + 1}: expected 'key = value', "
                "got 'cutoff 62.5'") in capsys.readouterr().err

    def test_repeated_key_is_usage_error_naming_both_lines(self, fixture_config, capsys):
        config, out = fixture_config
        lines = config.read_text().splitlines()
        config.write_text("\n".join([*lines, "cutoff = 10", "", "cutoff = 62.5"]) + "\n")
        assert main(["calibrate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}:{len(lines) + 3}: key 'cutoff' already given at line "
            f"{len(lines) + 1}\n")
        assert not out.exists()

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

    def test_unreadable_config_is_usage_error_naming_it(self, tmp_path, capsys):
        assert main(["calibrate", "--config", str(tmp_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot read config file {tmp_path}: ")

    def test_non_utf8_config_is_usage_error_naming_file_and_line(
        self, fixture_config, capsys
    ):
        config, _ = fixture_config
        lines = config.read_bytes().splitlines()
        config.write_bytes(b"\n".join([*lines, b"# caf\xff"]) + b"\n")
        assert main(["calibrate", "--config", str(config)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: cannot read config file {config}: line {len(lines) + 1} "
                          "is not UTF-8: byte 0xff"]

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
