"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Criterion 5 needs full-scale external data (see the README) and is
skipped when DISTANCING_DATA_DIR is not set; criteria 1-4 and 6 are
self-contained.
"""

import csv
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from distancing.calibrate import (
    calibrate_cap,
    calibrate_epsilon,
    cell_parameters,
    run_calibration,
    slope_factor,
)
from distancing.cli import main, run_geo_stage, run_index_stage
from distancing.config import resolve_config
from distancing.counterfactual import compute_subsidies, location_table, overall, sector_table
from distancing.geo import group_totals, lowess_curve
from distancing.model import (
    FirmParams,
    compensating_subsidy,
    distancing_cost_ratio,
    optimal_contacts,
    unit_cost,
)

import e2efixture
from frames import frame_of
from test_geo import oracle_lowess


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_closed_form_vs_brute_force():
    with criterion("1 closed form vs numerical minimization"):
        rng = np.random.default_rng(20200317)
        start = time.perf_counter()
        log_lo, log_hi = math.log(1e-6), math.log(1e6)
        for _ in range(1000):
            tau = float(rng.uniform(1e-4, 10.0))
            gamma = float(rng.uniform(0.1, 10.0))
            params = FirmParams(gamma / (1.0 + gamma))

            def cost_log(u, tau=tau, gamma=gamma):
                n = math.exp(u)
                return n * tau + n ** (-gamma) / gamma

            res = minimize_scalar(
                cost_log, bounds=(log_lo, log_hi), method="bounded",
                options={"xatol": 1e-10},
            )
            n_numeric = math.exp(res.x)
            c_numeric = res.fun
            c_closed = unit_cost(tau, params)
            n_closed = optimal_contacts(tau, params)
            assert abs(c_closed - c_numeric) / c_numeric < 1e-6
            assert abs(n_closed - n_numeric) / n_closed < 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_2_ratio_and_subsidy_properties():
    with criterion("2 cost ratio and subsidy property grid"):
        chis = np.linspace(0.005, 0.995, 100)
        xs = np.linspace(0.005, 0.995, 100)
        saturated = 1.0 - 1e-12
        for chi in chis:
            params = FirmParams(float(chi))
            assert distancing_cost_ratio(1.0, params) == 1.0
            assert compensating_subsidy(1.0, params) == 0.0
            subsidies = []
            for x in xs:
                ratio = distancing_cost_ratio(float(x), params)
                assert ratio > 1.0
                lam = compensating_subsidy(float(x), params)
                assert 0.0 <= lam < 1.0
                subsidies.append(lam)
            assert all(a >= b for a, b in zip(subsidies, subsidies[1:]))
            assert all(a > b for a, b in zip(subsidies, subsidies[1:]) if a < saturated)
        spot = compensating_subsidy(0.5, FirmParams(0.5))
        assert abs(spot - 2.0 / 3.0) <= 1e-12


def test_criterion_3_calibration_fixtures():
    with criterion("3 calibration fixtures"):
        cap = calibrate_cap(np.array([2.0, 4.0]), np.array([1.0, 1.0]), 0.5, 6.0)
        assert abs(cap - 1.5) <= 1e-8

        frame = frame_of([
            ("a", "n", 10.0, 0.4, 0.5),
            ("b", "n", 20.0, 0.4, 1.0),
            ("c", "n", 15.0, 0.4, 2.0),
            ("d", "n", 5.0, 0.4, 8.0),
        ])
        eps = calibrate_epsilon(frame, 0.04, slope_factor(frame))
        assert abs(eps - 0.1) <= 1e-9
        x = np.array([math.log(c.density) for c in frame])
        z = eps * 0.4 * x
        w = np.sqrt(np.array([c.employment for c in frame]))
        slope = np.polyfit(x, z, 1, w=w)[0]
        assert abs(slope - 0.04) <= 1e-9


def test_criterion_4_end_to_end_fixture(tmp_path):
    with criterion("4 end-to-end synthetic fixture"):
        config = e2efixture.write_config(tmp_path / "in", tmp_path / "out")
        out = tmp_path / "out"
        expected = e2efixture.hand_expectations()

        start = time.perf_counter()
        assert main(["index", "--config", str(config)]) == 0
        assert main(["calibrate", "--config", str(config)]) == 0
        assert main(["subsidy", "--config", str(config)]) == 0
        elapsed = time.perf_counter() - start

        # industry exposure shares
        index = {r["industry_code"]: r for r in _read(out / "industry-index.csv")}
        for code, chi in e2efixture.EXPECTED_CHI.items():
            for group, value in chi.items():
                assert abs(float(index[code][f"chi_{group}"]) - value) <= 1e-9

        # regional shares and normalized densities
        locations = {r["zcta"]: r for r in _read(out / "location-index.csv")}
        for zcta, shares in expected["exposure"].items():
            assert abs(float(locations[zcta]["density"]) - expected["density"][zcta]) <= 1e-9
            for group, value in shares.items():
                assert abs(float(locations[zcta][f"share_{group}"]) - value) <= 1e-9
            assert (
                abs(float(locations[zcta]["employment"]) - expected["region_employment"][zcta])
                <= 1e-9
            )

        # calibration
        (cal,) = _read(out / "calibration.csv")
        assert abs(float(cal["eps"]) - expected["eps"]) <= 1e-9
        assert abs(float(cal["contact_cap"]) - expected["cap"]) <= 1e-9

        # every cell subsidy, via the library path on the same inputs
        cfg = resolve_config(
            {
                key: value
                for key, value in _config_pairs(config)
            }
        )
        stage = run_index_stage(cfg)
        geo_stage = run_geo_stage(cfg, stage)
        frame = cell_parameters(geo_stage.cells, geo_stage.resolver, geo_stage.densities)
        report = run_calibration(frame, cfg.contact_share, cfg.elasticity, cfg.fixed_eps)
        results = compute_subsidies(frame, report.eps, report.contact_cap, cfg.telecom_cost,
                                    report.contacts)
        assert len(results) == len(expected["subsidies"])
        # fixture cells are unique per (zcta, sector), so the resolved code
        # pins down the raw establishment code
        by_sector = {(z, naics[:2]): naics for z, naics in expected["cells"]}
        for r in results:
            naics = by_sector[(r.zcta, r.industry_code)]
            assert abs(r.subsidy - expected["subsidies"][(r.zcta, naics)]) <= 1e-9
            assert abs(r.nstar - expected["nstar"][(r.zcta, naics)]) <= 1e-9

        sector_rows = sector_table(results)
        for row in sector_rows:
            hand_subsidy, hand_emp = expected["sector_rows"][row.key]
            assert abs(row.subsidy - hand_subsidy) <= 1e-9
            assert abs(row.employment - hand_emp) <= 1e-9
        assert abs(overall(results, report.employment).subsidy - expected["overall"][0]) <= 1e-9
        location_rows = location_table(results)
        for row in location_rows:
            hand_subsidy, hand_emp = expected["location_rows"][row.key]
            assert abs(row.subsidy - hand_subsidy) <= 1e-9
            assert abs(row.employment - hand_emp) <= 1e-9

        # reported tables carry the same numbers, rounded at the report layer
        sectors_csv = {r["industry"]: r for r in _read(out / "sector-subsidy.csv")}
        for code, (hand_subsidy, _) in expected["sector_rows"].items():
            assert float(sectors_csv[code]["wage_subsidy_pct"]) == round(100 * hand_subsidy, 1)

        # determinism: a rerun and a run into another directory are byte-identical
        before = _snapshot(out)
        assert main(["subsidy", "--config", str(config)]) == 0
        assert _snapshot(out) == before
        other = tmp_path / "out2"
        assert main(["subsidy", "--config", str(config), "--output-dir", str(other)]) == 0
        subset = {name: data for name, data in _snapshot(other).items()}
        for name, data in subset.items():
            assert before[name] == data

        assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _config_pairs(config_path):
    for line in Path(config_path).read_text().splitlines():
        key, _, value = line.partition("=")
        yield key.strip(), value.strip()


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*"))}


TABLE3_TOP = ["retail", "accommodation", "arts", "other services", "educational"]
TABLE3_BOTTOM = ["wholesale", "construction", "transportation", "manufacturing",
                 "agriculture"]


def test_criterion_5_full_scale_reproduction(tmp_path):
    data_dir = os.environ.get("DISTANCING_DATA_DIR")
    if not data_dir:
        print("ACCEPTANCE 5 full-scale reproduction: SKIPPED (set DISTANCING_DATA_DIR)")
        pytest.skip("full-scale input data not available")
    data = Path(data_dir)
    with criterion("5 full-scale reproduction"):
        out = tmp_path / "out"
        args = [
            "subsidy",
            "--occupations", str(data / "occupations.csv"),
            "--matrix", str(data / "matrix.csv"),
            "--cbp", str(data / "cbp.csv"),
            "--density", str(data / "density.csv"),
            "--national-sizes", str(data / "national_sizes.csv"),
            "--exclusions", str(data / "exclusions.txt"),
            "--industry-names", str(data / "industry_names.csv"),
            "--region-groups", str(data / "nyc_zctas.csv"),
            "--fixed-eps", "0.02",
            "--output-dir", str(out),
        ]
        assert main(args) == 0

        sectors = _read(out / "sector-subsidy.csv")
        names = {r["industry_code"]: r["name"].lower()
                 for r in _read(data / "industry_names.csv")}
        named = [(names.get(r["industry"], r["industry"]), float(r["wage_subsidy_pct"]))
                 for r in sectors if r["industry"] != "Average"]
        average = next(r for r in sectors if r["industry"] == "Average")

        # headline averages within one percentage point
        assert abs(float(average["wage_subsidy_pct"]) - 12.2) <= 1.0
        retail = next(v for n, v in named if n.startswith("retail"))
        agriculture = next(v for n, v in named if n.startswith("agri"))
        assert abs(retail - 22.1) <= 1.0
        assert abs(agriculture - 2.6) <= 1.0

        # published sector ordering, top and bottom five
        ranked = [n for n, _ in named]
        for got, want in zip(ranked[:5], TABLE3_TOP):
            assert got.startswith(want), f"{got!r} does not start with {want!r}"
        for got, want in zip(ranked[-5:], TABLE3_BOTTOM):
            assert got.startswith(want), f"{got!r} does not start with {want!r}"

        # employment estimates track the official statistics
        cfg = resolve_config({
            "occupations": str(data / "occupations.csv"),
            "matrix": str(data / "matrix.csv"),
            "cbp": str(data / "cbp.csv"),
            "density": str(data / "density.csv"),
            "national_sizes": str(data / "national_sizes.csv"),
            "exclusions": str(data / "exclusions.txt"),
        })
        stage = run_index_stage(cfg)
        geo_stage = run_geo_stage(cfg, stage)
        totals = {}
        codes, (employment_per_code,) = group_totals(
            geo_stage.cells.industry_code, geo_stage.cells.employment
        )
        for naics, employment in zip(codes, employment_per_code):
            mix = geo_stage.resolver.resolve(naics)
            if mix is not None:
                totals[mix.industry_code] = totals.get(mix.industry_code, 0.0) + employment
        official = {
            r["industry_code"]: float(r["employment_thousands"]) * 1000.0
            for r in _read(data / "official_employment.csv")
        }
        common = sorted(set(totals) & set(official))
        assert len(common) >= 5
        estimated = np.array([totals[c] for c in common])
        reported = np.array([official[c] for c in common])
        corr = float(np.corrcoef(estimated, reported)[0, 1])
        assert corr >= 0.96, f"employment correlation {corr:.3f}"

        # New York City subsidy
        regions = {r["region"]: float(r["wage_subsidy_pct"])
                   for r in _read(out / "region-subsidy.csv")}
        nyc = next(v for k, v in regions.items() if k.upper() in ("NYC", "NEW YORK CITY"))
        assert abs(nyc - 13.3) <= 1.0

        # workers in communication-reliant occupations (auto-detect units)
        occ_employment = {}
        for code, soc, employment in _matrix_rows(data / "matrix.csv"):
            occ_employment[soc] = occ_employment.get(soc, 0.0) + employment
        comm_total = sum(
            employment for soc, employment in occ_employment.items()
            if soc in stage.flags and stage.flags[soc].communication
        )
        if sum(occ_employment.values()) < 1e6:
            comm_total *= 1000.0  # matrix reported in thousands
        assert abs(comm_total - 49e6) <= 0.10 * 49e6, f"communication workers {comm_total:.3g}"


def _matrix_rows(path):
    for r in _read(path):
        yield r["industry_code"], r["soc_code"], float(r["employment"])


def test_criterion_6_lowess_oracle():
    with criterion("6 lowess oracle"):
        rng = np.random.default_rng(31415)
        n = 500
        x = rng.uniform(-3.0, 3.0, n)
        y = np.sin(x) + rng.normal(0.0, 0.3, n)
        w = rng.uniform(0.5, 3.0, n)
        grid, fitted = lowess_curve(x, y, w, bandwidth=0.5)
        ogrid, ofit = oracle_lowess(list(x), list(y), list(w), 0.5)
        assert np.max(np.abs(np.asarray(ogrid) - grid)) < 1e-12
        assert np.max(np.abs(np.asarray(ofit) - fitted)) < 1e-9

        y_line = 0.75 * x - 2.0
        grid, fitted = lowess_curve(x, y_line, w, bandwidth=0.5)
        assert np.max(np.abs(fitted - (0.75 * grid - 2.0))) < 1e-6
