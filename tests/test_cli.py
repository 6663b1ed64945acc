"""Subcommand behavior: outputs, exit codes, overrides, determinism."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from distancing.cli import (
    _drop_excluded_cells,
    _pct,
    main,
    read_region_groups,
    run_geo_stage,
    run_index_stage,
)
from distancing.config import RunConfig, config_hash, resolve_config
from distancing.errors import IngestionError
from e2efixture import write_config, write_inputs
from frames import cells_of

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_too_few_points_is_data_error(self, tmp_path):
        source = tmp_path / "location-index.csv"
        source.write_text(
            "zcta,density,share_teamwork,share_customer,share_communication,"
            "share_presence,employment\nz,1.0,0,0,0,0,5\n"
        )
        rc = main(["lowess", "--input", str(source), "--output-dir", str(tmp_path / "o")])
        assert rc == 1

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

    def test_removed_knobs_are_usage_errors(self, fixture_config):
        config, _ = fixture_config
        with pytest.raises(SystemExit) as excinfo:
            main(["subsidy", "--config", str(config), "--threads", "4"])
        assert excinfo.value.code == 2
        for line in ("threads = 4", "seed = 0"):
            extra = config.with_name(f"extra-{line.split()[0]}.cfg")
            extra.write_text(config.read_text() + line + "\n")
            assert main(["subsidy", "--config", str(extra)]) == 2

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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "distancing", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert "distancing 0.1.0" in proc.stdout


class TestConfig:
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


class TestImportCost:
    """numpy loads only where it is used: establishment cells, calibration,
    subsidies, lowess and fig2; importing the package does not load it."""

    def test_version_runs_without_numpy(self, fixture_config):
        _, out = fixture_config
        code, modules = _imported_modules(["--version"], out.parent)
        assert code == 0 and "distancing.cli" in modules
        assert "numpy" not in modules

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
        assert (out / "location-lowess.csv").is_file() and (out / "fig2.csv").is_file()
        assert (out / "location-index.csv").is_file()
