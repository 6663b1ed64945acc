"""Command-line pipeline: index, calibrate, subsidy, fig2, lowess.

Subcommands compose the library modules into a deterministic pipeline.
Rerunning any subcommand with unchanged inputs produces byte-identical
outputs.  Exit codes: 0 success, 1 internal/data error, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, fields, replace
from math import fsum, log
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from . import __version__, calibrate, counterfactual, csvio, geo, industries, occupations
from .config import (
    DEFAULT_EXCLUSIONS,
    RunConfig,
    config_hash,
    load_config_file,
    params_hash,
    require,
    resolve_config,
)
from .errors import ConfigError, DistancingError, IngestionError
from .industries import GROUPS
from .model import FirmParams

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


@dataclass
class IndexStage:
    profiles: list[occupations.OccupationProfile]
    flags: dict[str, occupations.ExposureFlags]
    build_report: industries.MixBuildReport
    mixes: list[industries.IndustryMix]
    exclusions: list[str]
    removed_sectors: list[str]


@dataclass
class GeoStage:
    cells: geo.Cells
    densities: dict[str, float]  # zcta -> normalized density
    resolver: industries.MixResolver


def run_index_stage(cfg: RunConfig) -> IndexStage:
    require(cfg, "occupations", "matrix")
    profiles = occupations.read_profiles_csv(cfg.occupations)
    thresholds = occupations.ClassificationThresholds(
        cutoff=cfg.cutoff,
        face_to_face_level=cfg.face_to_face_level,
        proximity_level=cfg.proximity_level,
    )
    flags = occupations.classify_all(profiles, thresholds, lenient=cfg.lenient)
    names = industries.read_names_csv(cfg.industry_names) if cfg.industry_names else None
    matrix = industries.read_matrix_csv(cfg.matrix)
    try:
        report = industries.build_mix(matrix, flags, names)
    except IngestionError as exc:
        raise IngestionError(f"{cfg.matrix}: {exc}") from None
    exclusions = (
        industries.read_exclusions(cfg.exclusions)
        if cfg.exclusions is not None
        else list(DEFAULT_EXCLUSIONS)
    )
    mixes, removed = industries.exclude_sectors(report.mixes, exclusions)
    return IndexStage(profiles, flags, report, mixes, exclusions, removed)


def run_geo_stage(cfg: RunConfig, index: IndexStage) -> GeoStage:
    """Establishment cells and normalized densities.  Every cell left after the
    exclusions weights the density mean, cells of codes no mix covers too."""
    require(cfg, "cbp", "density", "national_sizes")
    import numpy  # noqa: F401  (the stage works on numpy columns from the read on)

    national = geo.NationalSizeDistribution.from_csv(cfg.national_sizes)
    cells, _ = geo.build_cells(geo.read_cbp_csv(cfg.cbp), national, cfg.open_bin_mean)
    cells = _drop_excluded_cells(cells, index.exclusions)
    weights = geo.region_employment(cells)
    records = geo.read_density_csv(cfg.density)
    if cfg.employment_density:
        records = [(zcta, weights.get(zcta, 0.0), area) for zcta, _, area in records]
    try:
        densities = geo.normalize_density(records, weights)
    except IngestionError as exc:
        raise IngestionError(f"{cfg.density}: {exc}") from None
    return GeoStage(cells, densities, industries.MixResolver(index.mixes))


def _drop_excluded_cells(cells: geo.Cells, exclusions: Sequence[str]) -> geo.Cells:
    """Drop the establishment cells that :func:`industries.exclusion_prefixes` excludes."""
    if not exclusions:
        return cells
    import numpy as np

    prefixes = industries.exclusion_prefixes(exclusions)
    codes = cells.industry_code
    excluded = np.array([code.startswith(prefixes) for code in codes.labels], dtype=bool)
    dropped = excluded[codes.codes]
    if not dropped.any():
        return cells
    logger.info("excluded sectors removed %d establishment cells", int(dropped.sum()))
    return cells.take(~dropped)


def run_calibration_stage(
    cfg: RunConfig, geo_stage: GeoStage
) -> tuple[calibrate.CalibrationReport, calibrate.CellFrame]:
    frame = calibrate.cell_parameters(geo_stage.cells, geo_stage.resolver, geo_stage.densities)
    report = calibrate.run_calibration(
        frame,
        target_contact_share=cfg.contact_share,
        target_elasticity=cfg.elasticity,
        fixed_eps=cfg.fixed_eps,
    )
    return report, frame


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_index(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    stamp = _provenance(cfg)
    index = run_index_stage(cfg)
    occupations.write_flags_csv(out / "occupation-index.csv", index.profiles, index.flags, stamp)
    industries.write_industry_index_csv(out / "industry-index.csv", index.mixes, stamp)
    _write_reconciliation(out / "reconciliation.txt", index, stamp)
    if cfg.cbp and cfg.density and cfg.national_sizes:
        geo_stage = run_geo_stage(cfg, index)
        frame = calibrate.cell_parameters(geo_stage.cells, geo_stage.resolver,
                                          geo_stage.densities)
        exposures = geo.location_exposure(frame, index.mixes)
        geo.write_location_index_csv(
            out / "location-index.csv", exposures, geo_stage.densities, stamp
        )
    else:
        logger.info("no establishment/density inputs configured; location index skipped")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    stamp = _provenance(cfg)
    index = run_index_stage(cfg)
    geo_stage = run_geo_stage(cfg, index)
    report, _ = run_calibration_stage(cfg, geo_stage)
    _write_calibration(out, report, stamp)
    return 0


def cmd_subsidy(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    stamp = _provenance(cfg)
    index = run_index_stage(cfg)
    geo_stage = run_geo_stage(cfg, index)
    report, frame = run_calibration_stage(cfg, geo_stage)
    _write_calibration(out, report, stamp)

    results = counterfactual.compute_subsidies(
        frame, report.eps, report.contact_cap, telecom_cost=cfg.telecom_cost
    )
    average = replace(counterfactual.overall(results), key="Average")
    tables = [
        ("sector", "industry", "employment_thousands", 1000.0,
         counterfactual.sector_table(results) + [average]),
        ("location", "zcta", "employment", 1.0, counterfactual.location_table(results)),
    ]
    if cfg.region_groups:
        grouping = read_region_groups(cfg.region_groups)
        tables.append(("region", "region", "employment", 1.0,
                       counterfactual.location_table(results, grouping)))
    for name, key, employment, unit, rows in tables:
        csvio.write_rows(
            out / f"{name}-subsidy.csv",
            [key, "wage_subsidy_pct", employment],
            [[r.key, _pct(r.subsidy), r.employment / unit] for r in rows],
            comment=stamp,
        )
    _write_fig2_from_frame(out, report, frame, cfg.telecom_cost, stamp)
    return 0


def _write_fig2_from_frame(out, report, frame, telecom_cost, stamp) -> None:
    """Cost-ratio curves for the employment-weighted average firm."""
    import numpy as np

    mean_chi = fsum((frame.employment * frame.chi).tolist()) / fsum(frame.employment.tolist())
    if mean_chi <= 0.0:
        logger.warning("mean communication share is zero; fig2 curves skipped")
        return
    dmin = float(frame.density.min())
    dmax = float(frame.density.max())
    if dmax <= dmin:
        logger.warning("degenerate density range; fig2 curves skipped")
        return
    grid = np.geomspace(dmin, dmax, 100)
    curves = counterfactual.cost_ratio_curves(
        FirmParams.from_chi(mean_chi), grid, report.contact_cap, telecom_cost, report.eps
    )
    _write_fig2_csv(out / "fig2.csv", curves, stamp)


def _write_fig2_csv(path, curves: counterfactual.CostCurves, stamp: str) -> None:
    rows = [
        [d, dist, tele, regime.value]
        for d, dist, tele, regime in zip(
            curves.densities, curves.distancing, curves.telecom, curves.regimes
        )
    ]
    csvio.write_rows(
        path, ["density", "distancing_ratio", "telecom_ratio", "regime"], rows, comment=stamp
    )
    for switch in curves.switches:
        logger.info(
            "regime switch at density %.6g: %s -> %s",
            switch.density, switch.from_regime.value, switch.to_regime.value,
        )


def cmd_fig2(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    if not 0.0 < args.dmin < args.dmax:
        raise ConfigError("need 0 < dmin < dmax")
    params = FirmParams.from_chi(args.chi)
    import numpy as np

    grid = np.geomspace(args.dmin, args.dmax, args.points)
    curves = counterfactual.cost_ratio_curves(params, grid, args.cap, args.telecom, args.eps)
    stamp = (
        f"distancing {__version__} config:"
        + params_hash(
            f"chi={args.chi!r} eps={args.eps!r} cap={args.cap!r} "
            f"telecom={args.telecom!r} dmin={args.dmin!r} dmax={args.dmax!r} "
            f"points={args.points!r}"
        )
    )
    _write_fig2_csv(out / "fig2.csv", curves, stamp)
    return 0


def cmd_lowess(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _output_dir(cfg)
    source = args.input or str(Path(cfg.output_dir) / "location-index.csv")
    if not Path(source).is_file():
        raise ConfigError(f"location index not found: {source} (run 'index' first or pass --input)")
    if not 0.0 < args.bandwidth <= 1.0:
        raise ConfigError(f"--bandwidth must lie in (0, 1], got {args.bandwidth}")
    shares = [f"share_{g}" for g in GROUPS]
    header, blocks = csvio.read_blocks(source, ["density", "employment", *shares])
    rows = [fields for _, block in blocks for fields in block]

    def column(name: str):
        return map(itemgetter(header.index(name)), rows)

    x = list(map(log, map(float, column("density"))))
    weights = list(map(float, column("employment")))
    y = [list(map(float, column(share))) for share in shares]
    grid, curves = geo.lowess_curve(x, y, weights, bandwidth=args.bandwidth)
    stamp = _provenance(cfg) + f" bandwidth:{args.bandwidth!r}"
    csvio.write_rows(
        out / "location-lowess.csv",
        ["log_density", *GROUPS],
        [[g, *fits] for g, *fits in zip(grid.tolist(), *curves.tolist())],
        comment=stamp,
    )
    return 0


# ---------------------------------------------------------------------------
# Report writers and small helpers
# ---------------------------------------------------------------------------


def read_region_groups(path) -> dict[str, str]:
    """Read a ``zcta,region`` membership file; a ZCTA may appear once."""
    _, rows = csvio.read_rows(path, ["zcta", "region"])
    groups: dict[str, str] = {}
    first_row: dict[str, int] = {}
    for i, row in enumerate(rows, start=1):
        zcta = row["zcta"].strip()
        csvio.require_unique(first_row, zcta, i, path=path, field="zcta")
        groups[zcta] = row["region"].strip()
    return groups


def _pct(fraction: float) -> float:
    """Report layer only: subsidies become percentages at one decimal.

    A subsidy lies in [0, 1), so the report stays in [0, 100): values that
    would round up to 100.0 print as 99.9.
    """
    return min(round(100.0 * fraction, 1), 99.9)


def _output_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(cfg: RunConfig) -> str:
    return f"distancing {__version__} config:{config_hash(cfg)}"


def _write_reconciliation(path: Path, index: IndexStage, stamp: str) -> None:
    lines = [f"# {stamp}"]
    lines.append("unknown_socs: " + (", ".join(index.build_report.unknown_socs) or "none"))
    lines.append(
        "skipped_industries: " + (", ".join(index.build_report.skipped_industries) or "none")
    )
    lines.append("excluded_sectors: " + (", ".join(index.removed_sectors) or "none"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_calibration(out: Path, report: calibrate.CalibrationReport, stamp: str) -> None:
    columns = {"eps": report.eps, "contact_cap": report.contact_cap,
               "slope_factor": report.slope_factor, "achieved_slope": report.achieved_slope,
               "achieved_share": report.achieved_share, "cells": report.n_cells,
               "eps_fixed": report.eps_fixed}
    csvio.write_rows(out / "calibration.csv", list(columns), [list(columns.values())],
                     comment=stamp)
    lines = [
        f"# {stamp}",
        f"eps: {report.eps!r}" + (" (fixed)" if report.eps_fixed else " (calibrated)"),
        f"contact cap: {report.contact_cap!r}",
        f"slope factor k: {report.slope_factor!r}",
        f"achieved density slope: {report.achieved_slope!r}",
        f"achieved contact share: {report.achieved_share!r}",
        f"cells: {report.n_cells}",
    ]
    lines.extend(report.notes)
    (out / "calibration.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--output-dir", dest="output_dir", help="output directory")
    for key in ("occupations", "matrix", "cbp", "density", "national-sizes",
                "exclusions", "region-groups", "industry-names"):
        parser.add_argument(f"--{key}", dest=key.replace("-", "_"), help=f"{key} CSV path")
    parser.add_argument("--cutoff", type=float, help="composite index cutoff (default 62.5)")
    parser.add_argument("--face-to-face-level", dest="face_to_face_level", type=int,
                        help="minimum discussion frequency level (default 4)")
    parser.add_argument("--proximity-level", dest="proximity_level", type=int,
                        help="minimum proximity level (default 3)")
    parser.add_argument("--contact-share", dest="contact_share", type=float,
                        help="target capped share of aggregate contacts (default 0.5)")
    parser.add_argument("--elasticity", type=float,
                        help="target density elasticity of implied productivity (default 0.04)")
    parser.add_argument("--fixed-eps", dest="fixed_eps", type=float,
                        help="skip the elasticity solve and use this eps")
    parser.add_argument("--telecom-cost", dest="telecom_cost", type=float,
                        help="per-contact telecom cost for the cost-ratio curves")
    parser.add_argument("--open-bin-mean", dest="open_bin_mean", type=float,
                        help="mean plant size for the open 1000+ bin when no national data")
    parser.add_argument("--lenient", action="store_const", const=True, default=None,
                        help="fail closed on missing occupation data instead of erroring")
    parser.add_argument("--employment-density", dest="employment_density",
                        action="store_const", const=True, default=None,
                        help="measure density as estimated employment per km2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distancing",
        description="Occupation exposure indexes, regional aggregation, and "
                    "compensating wage subsidies under contact-limiting interventions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("index", "build occupation, industry, and location exposure indexes"),
        ("calibrate", "calibrate the density elasticity and the contact cap"),
        ("subsidy", "compute sector and location wage-subsidy tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)

    p = sub.add_parser("fig2", help="cost-ratio curves over a density grid")
    p.add_argument("--chi", type=float, required=True, help="communication cost share")
    p.add_argument("--eps", type=float, required=True, help="density elasticity of contact cost")
    p.add_argument("--cap", type=float, required=True, help="face-to-face contact cap")
    p.add_argument("--telecom", type=float, default=None, help="per-contact telecom cost")
    p.add_argument("--dmin", type=float, default=0.05, help="grid lower density")
    p.add_argument("--dmax", type=float, default=20.0, help="grid upper density")
    p.add_argument("--points", type=int, default=100, help="grid size")
    p.add_argument("--output-dir", dest="output_dir", default="out")

    p = sub.add_parser("lowess", help="smooth location exposure shares against log density")
    _add_config_flags(p)
    p.add_argument("--input", help="location index CSV (default <output_dir>/location-index.csv)")
    p.add_argument("--bandwidth", type=float, default=0.5,
                   help="fraction of points in each local window (default 0.5)")
    return parser


_OVERRIDE_KEYS = tuple(f.name for f in fields(RunConfig))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    overrides = {key: getattr(args, key, None) for key in _OVERRIDE_KEYS}
    return resolve_config(file_values, overrides)


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fig2":
            return cmd_fig2(args)
        cfg = _config_from_args(args)
        if args.command == "index":
            return cmd_index(cfg)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "subsidy":
            return cmd_subsidy(cfg)
        if args.command == "lowess":
            return cmd_lowess(cfg, args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DistancingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
