"""Command-line pipeline: index, calibrate, subsidy, fig2, lowess.

Subcommands compose the library modules into a deterministic pipeline.
Each computes all its outputs, then hands them to one
:func:`csvio.write_outputs` call.  Rerunning any subcommand with unchanged
inputs produces byte-identical outputs.  Exit codes: 0 success, 1 internal/data error, 2 usage or
config error.

:func:`run` is the process entry point; :func:`main` runs one command and
leaves the interpreter's state alone, so tests and tools call it in their
own process.  At module level this file imports only what parsing needs;
every layer, the config, ``logging`` and numpy load inside the functions
that use them.  So ``--version`` (which the benchmark's ``setup_s``
times), ``--help`` and usage errors exit before any layer loads, and each
command loads only the layers it runs, after its usage checks.  Layer
calls stay qualified by their module (``geo.build_cells``), so a wrapper
bound to a module attribute sees every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import __version__

if TYPE_CHECKING:
    from pathlib import Path

    from . import calibrate, counterfactual, geo, industries, occupations
    from .config import RunConfig


def _logger():
    import logging

    return logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class IndexStage(NamedTuple):
    profiles: list[occupations.OccupationProfile]
    flags: dict[str, occupations.ExposureFlags]
    build_report: industries.MixBuildReport
    mixes: list[industries.IndustryMix]
    exclusions: list[str]
    removed_sectors: list[str]


class GeoStage(NamedTuple):
    cells: geo.Cells
    densities: dict[str, float]  # zcta -> normalized density
    resolver: industries.MixResolver


def run_index_stage(cfg: RunConfig) -> IndexStage:
    from . import industries, occupations
    from .config import DEFAULT_EXCLUSIONS, require
    from .errors import ClassificationError, IngestionError

    require(cfg, "occupations", "matrix")
    profiles = occupations.read_profiles_csv(cfg.occupations)
    thresholds = occupations.ClassificationThresholds(
        cutoff=cfg.cutoff,
        face_to_face_level=cfg.face_to_face_level,
        proximity_level=cfg.proximity_level,
    )
    try:  # a task score or context level missing, in the row the error names
        flags = occupations.classify_all(profiles, thresholds, lenient=cfg.lenient)
    except ClassificationError as exc:
        raise IngestionError(f"{cfg.occupations} {exc}") from None
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


_LOCATION_KEYS = ("cbp", "density", "national_sizes")


def run_geo_stage(cfg: RunConfig, index: IndexStage) -> GeoStage:
    """Establishment cells and normalized densities.  Every cell left after the
    exclusions weights the density mean, cells of codes no mix covers too."""
    from . import industries
    from .config import require
    from .errors import IngestionError

    require(cfg, *_LOCATION_KEYS)
    from . import geo

    national = geo.NationalSizeDistribution.from_csv(cfg.national_sizes)
    cbp = geo.read_cbp_csv(cfg.cbp)
    try:  # an employment beyond the float range, in a cell or a ZCTA total
        cells, _ = geo.build_cells(cbp, national, cfg.open_bin_mean, index.exclusions)
        del cbp  # the stage's largest arrays
        weights = geo.region_employment(cells)
    except IngestionError as exc:
        raise IngestionError(f"{cfg.cbp}: {exc}") from None
    records = geo.read_density_csv(cfg.density)
    if cfg.employment_density:
        records = [(zcta, weights.get(zcta, 0.0), area) for zcta, _, area in records]
    try:
        densities = geo.normalize_density(records, weights)
    except IngestionError as exc:
        raise IngestionError(f"{cfg.density}: {exc}") from None
    return GeoStage(cells, densities, industries.MixResolver(index.mixes))


def run_calibration_stage(
    cfg: RunConfig, geo_stage: GeoStage
) -> tuple[calibrate.CalibrationReport, calibrate.CellFrame]:
    from . import calibrate
    from .errors import DomainError, IngestionError

    frame = calibrate.cell_parameters(geo_stage.cells, geo_stage.resolver, geo_stage.densities)
    try:  # 0 <= chi < 1, checked once and kept for the pricing passes
        frame.params
    except DomainError as exc:  # a share of 1: every worker of the industry communicates
        codes = frame.industry_code
        industry = codes.labels[codes[~(frame.chi < 1.0)].present()[0]]
        raise IngestionError(f"{cfg.matrix}: industry {industry!r}: {exc}") from None
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


def cmd_index(args: argparse.Namespace) -> int:
    from . import csvio, industries, occupations
    from .config import require

    cfg = _config_from_args(args)
    located = any(getattr(cfg, key) is not None for key in _LOCATION_KEYS)
    if located:  # all of them or none, named before any output is written
        require(cfg, *_LOCATION_KEYS)
    out = _output_dir(cfg.output_dir)
    index = run_index_stage(cfg)
    outputs = {
        "occupation-index.csv": occupations.flags_table(index.profiles, index.flags),
        "industry-index.csv": industries.industry_index_table(index.mixes),
        "reconciliation.txt": _reconciliation_lines(index),
    }
    if located:
        from . import calibrate, geo

        geo_stage = run_geo_stage(cfg, index)
        frame = calibrate.cell_parameters(geo_stage.cells, geo_stage.resolver,
                                          geo_stage.densities)
        outputs["location-index.csv"] = geo.location_index_table(
            geo.location_exposure(frame, index.mixes), geo_stage.densities
        )
    else:
        _logger().info("no establishment/density inputs configured; location index skipped")
    csvio.write_outputs(out, outputs, _provenance(cfg))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from . import csvio

    cfg = _config_from_args(args)
    out = _output_dir(cfg.output_dir)
    index = run_index_stage(cfg)
    geo_stage = run_geo_stage(cfg, index)
    report, _ = run_calibration_stage(cfg, geo_stage)
    csvio.write_outputs(out, _calibration_outputs(report), _provenance(cfg))
    return 0


def cmd_subsidy(args: argparse.Namespace) -> int:
    from . import counterfactual, csvio

    cfg = _config_from_args(args)
    out = _output_dir(cfg.output_dir)
    grouping = read_region_groups(cfg.region_groups) if cfg.region_groups else None
    index = run_index_stage(cfg)
    geo_stage = run_geo_stage(cfg, index)
    report, frame = run_calibration_stage(cfg, geo_stage)
    results = counterfactual.compute_subsidies(
        frame, report.eps, report.contact_cap, telecom_cost=cfg.telecom_cost,
        nstar=report.contacts,
    )
    average = counterfactual.overall(results, report.employment)
    tables = [
        ("sector", "industry", "employment_thousands", 1000.0,
         counterfactual.sector_table(results) + [average]),
        ("location", "zcta", "employment", 1.0, counterfactual.location_table(results)),
    ]
    if grouping is not None:
        tables.append(("region", "region", "employment", 1.0,
                       counterfactual.location_table(results, grouping)))
    outputs = _calibration_outputs(report)
    for name, key, employment, unit, rows in tables:
        outputs[f"{name}-subsidy.csv"] = (
            [key, "wage_subsidy_pct", employment],
            [[r.key, _pct(r.subsidy), r.employment / unit] for r in rows],
        )
    fig2 = _fig2_from_frame(report, frame, cfg.telecom_cost)
    if fig2 is not None:
        outputs["fig2.csv"] = fig2
    csvio.write_outputs(out, outputs, _provenance(cfg))
    return 0


def _fig2_from_frame(report, frame, telecom_cost) -> tuple[list[str], list[list]] | None:
    """Cost-ratio curves for the employment-weighted average firm, or None
    (with a warning) when there is no curve to draw."""
    import numpy as np

    from . import counterfactual
    from .exact import exact_sum
    from .model import FirmParams

    mean_chi = exact_sum(frame.employment * frame.chi) / report.employment
    if mean_chi <= 0.0:
        _logger().warning("mean communication share is zero; fig2 curves skipped")
        return None
    dmin = float(frame.density.min())
    dmax = float(frame.density.max())
    if dmax <= dmin:
        _logger().warning("degenerate density range; fig2 curves skipped")
        return None
    grid = np.geomspace(dmin, dmax, 100)
    return _fig2_table(counterfactual.cost_ratio_curves(
        FirmParams(mean_chi), grid, report.contact_cap, telecom_cost, report.eps
    ))


def _fig2_table(curves: counterfactual.CostCurves) -> tuple[list[str], list[list]]:
    """The ``fig2.csv`` table; logs each regime switch."""
    logger = _logger()
    for switch in curves.switches:
        logger.info(
            "regime switch at density %.6g: %s -> %s",
            switch.density, switch.from_regime.value, switch.to_regime.value,
        )
    return ["density", "distancing_ratio", "telecom_ratio", "regime"], [
        [d, dist, tele, regime.value]
        for d, dist, tele, regime in zip(
            curves.densities, curves.distancing, curves.telecom, curves.regimes
        )
    ]


# The largest ``fig2`` grid: a few arrays of this many doubles stay far below memory.
_MAX_POINTS = 1_000_000


def _check_fig2_flags(args: argparse.Namespace) -> None:
    """Each ``fig2`` number flag in its domain, checked as config keys are:
    a non-finite or out-of-domain value is a usage error naming the flag."""
    from math import inf

    from .errors import ConfigError

    if not 2 <= args.points <= _MAX_POINTS:
        raise ConfigError(f"--points must lie in [2, {_MAX_POINTS}], got {args.points}")
    if not 0.0 <= args.chi < 1.0:
        raise ConfigError(f"--chi must lie in [0, 1), got {args.chi!r}")
    for flag in ("eps", "cap", "telecom", "dmin", "dmax"):
        value = getattr(args, flag)
        if value is not None and not 0.0 < value < inf:
            raise ConfigError(f"--{flag} must be a positive finite number, got {value!r}")
    if not args.dmin < args.dmax:
        raise ConfigError("need 0 < dmin < dmax")
    try:  # the optimal contacts at the top of the grid, d**(eps*(1-chi))
        args.dmax ** (args.eps * (1.0 - args.chi))
    except OverflowError:
        raise ConfigError(
            f"--eps {args.eps!r} and --dmax {args.dmax!r} put the optimal contacts "
            "beyond the double range"
        ) from None


def cmd_fig2(args: argparse.Namespace) -> int:
    _check_fig2_flags(args)  # these two before numpy or the model loads
    out = _output_dir(args.output_dir, "--output-dir")
    import numpy as np

    from . import counterfactual, csvio
    from .config import params_hash
    from .model import FirmParams

    params = FirmParams(args.chi)
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
    csvio.write_outputs(out, {"fig2.csv": _fig2_table(curves)}, stamp)
    return 0


def cmd_lowess(args: argparse.Namespace) -> int:
    from math import log
    from pathlib import Path

    from . import csvio
    from .errors import ConfigError, IngestionError
    from .industries import GROUPS

    cfg = _config_from_args(args)
    out = _output_dir(cfg.output_dir)
    source = args.input or str(Path(cfg.output_dir) / "location-index.csv")
    if not Path(source).is_file():
        raise ConfigError(f"location index not found: {source} (run 'index' first or pass --input)")
    if not 0.0 < args.bandwidth <= 1.0:
        raise ConfigError(f"--bandwidth must lie in (0, 1], got {args.bandwidth}")
    from . import geo

    density, weights, *y = geo.read_location_index_csv(source)
    x = list(map(log, density))
    try:  # too few points, or a single density
        grid, curves = geo.lowess_curve(x, y, weights, bandwidth=args.bandwidth)
    except ValueError as exc:
        raise IngestionError(f"{source}: {exc}") from None
    stamp = _provenance(cfg) + f" bandwidth:{args.bandwidth!r}"
    rows = [[g, *fits] for g, *fits in zip(grid.tolist(), *curves.tolist())]
    csvio.write_outputs(out, {"location-lowess.csv": (["log_density", *GROUPS], rows)}, stamp)
    return 0


# ---------------------------------------------------------------------------
# Report tables and small helpers
# ---------------------------------------------------------------------------


def read_region_groups(path) -> dict[str, str]:
    """Read a ``zcta,region`` membership file through :func:`csvio.read_table`;
    a ZCTA may appear once, and the file has at least one."""
    from . import csvio

    zctas, regions = csvio.read_table(path, ["zcta", "region"], [], key=["zcta"])
    csvio.require_rows(len(zctas), path=path)
    return dict(zip(zctas, regions))


def _pct(fraction: float) -> float:
    """Report layer only: subsidies become percentages at one decimal.

    A subsidy lies in [0, 1), so the report stays in [0, 100): values that
    would round up to 100.0 print as 99.9.
    """
    return min(round(100.0 * fraction, 1), 99.9)


def _output_dir(path: str, name: str = "output_dir") -> Path:
    """The output directory, checked before any input is read, and made
    only by :func:`csvio.write_outputs` once every output is computed, so
    that a run failing before then leaves none; a usage error naming
    ``name`` if ``path`` is blank (it would write into the working
    directory) or names a file."""
    from pathlib import Path

    from .errors import ConfigError

    if not path.strip():
        raise ConfigError(f"{name} is blank; name an output directory")
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"{name} exists and is not a directory: {path}")
    return out


def _provenance(cfg: RunConfig) -> str:
    from .config import config_hash

    return f"distancing {__version__} config:{config_hash(cfg)}"


def _reconciliation_lines(index: IndexStage) -> list[str]:
    report = index.build_report
    return [
        "unknown_socs: " + (", ".join(report.unknown_socs) or "none"),
        "skipped_industries: " + (", ".join(report.skipped_industries) or "none"),
        "excluded_sectors: " + (", ".join(index.removed_sectors) or "none"),
    ]


def _calibration_outputs(report: calibrate.CalibrationReport) -> dict:
    """``calibration.csv`` and ``calibration.txt``, in that order."""
    columns = {"eps": report.eps, "contact_cap": report.contact_cap,
               "slope_factor": report.slope_factor, "achieved_slope": report.achieved_slope,
               "achieved_share": report.achieved_share, "cells": report.n_cells,
               "eps_fixed": report.eps_fixed}
    lines = [
        f"eps: {report.eps!r}" + (" (fixed)" if report.eps_fixed else " (calibrated)"),
        f"contact cap: {report.contact_cap!r}",
        f"slope factor k: {report.slope_factor!r}",
        f"achieved density slope: {report.achieved_slope!r}",
        f"achieved contact share: {report.achieved_share!r}",
        f"cells: {report.n_cells}",
        *report.notes,
    ]
    return {"calibration.csv": (list(columns), [list(columns.values())]),
            "calibration.txt": lines}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--output-dir", dest="output_dir", help="output directory")
    for key in ("occupations", "matrix", "cbp", "density", "national-sizes",
                "exclusions", "region-groups", "industry-names"):
        kind = "file" if key == "exclusions" else "CSV"
        parser.add_argument(f"--{key}", dest=key.replace("-", "_"), help=f"{key} {kind} path")
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


@functools.cache  # one parser per process: parse_args keeps no state between calls
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    from dataclasses import fields

    from .config import RunConfig, load_config_file, resolve_config

    file_values = load_config_file(args.config) if args.config else None
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return resolve_config(file_values, overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # --version, --help and usage errors exit here
    import logging

    from .errors import ConfigError, DistancingError

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    # looked up per call, so a wrapper bound to a ``cmd_*`` attribute runs
    commands = {"index": cmd_index, "calibrate": cmd_calibrate, "subsidy": cmd_subsidy,
                "fig2": cmd_fig2, "lowess": cmd_lowess}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DistancingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point: run :func:`main` on ``sys.argv`` and exit with its code.

    OpenBLAS starts with one thread unless the caller set
    ``OPENBLAS_NUM_THREADS``: no computation goes through BLAS, and the
    pool of one thread per core that numpy's bundled OpenBLAS otherwise
    starts as it loads made numpy's import take 112 ms instead of 66 ms in
    a ``subsidy`` process (medians of 15, 2-core x86 VM).  OpenBLAS reads
    the variable once, when numpy loads it; importing this module loads no
    numpy, so the variable is set in time.

    The cyclic collector stays off for the run: a run keeps its rows in
    arrays and tuples, not in per-row reference cycles, so a collection
    pass would find almost nothing and only traverse live objects.  What is
    still alive at the end is frozen, so interpreter shutdown need not
    traverse it again.  :func:`main` itself leaves the collector and the
    environment alone.
    """
    import gc
    import os

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
