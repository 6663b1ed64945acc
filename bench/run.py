"""Benchmark of the ``distancing`` pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload subsidy-national --seed 1 --seconds 55 --trace 0

Inputs are generated from ``--seed`` (``bench/gen.py``).  The workload is
repeated, one child process at a time, until ``--seconds`` of measuring
have passed.  Each repetition's outputs are checked; a repetition that
exits non-zero or fails a check counts as failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  Untraced, a
fixed reference job (``bench/reference.py``) runs before and after each
repetition, and the workload's wall time is reported over the job's, so
that the machine's own changes of speed cancel out.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path

from gen import Shape, digests, generate
from tracer import CLI_STAGES, blas_threads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PYTHON = sys.executable

# Inputs are the shapes measured at full scale (see README), shrunk by SCALE
# in ZCTAs and NAICS codes so one repetition takes two to three seconds and
# a 55-second run holds about twenty of them.  Per-ZCTA proportions
# (cells, bins, suppressed share) are unchanged.
SCALE = 0.25
MIN_REPS = 3
# run.cfg leaves the calibration targets at the package defaults
CONTACT_SHARE = 0.5
ELASTICITY = 0.04
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, builds excepted


@dataclass(frozen=True)
class Workload:
    kind: str  # "subsidy" or "index"
    shape: Shape
    settings: tuple[str, ...]


def _shape(zctas: int, cells: int, bins: tuple[int, int], suppressed: float) -> Shape:
    return Shape(round(zctas * SCALE), cells, bins[0], bins[1], suppressed, round(1000 * SCALE))


WORKLOADS = {
    "subsidy-national": Workload(
        "subsidy", _shape(10_000, 10, (1, 4), 0.10),
        ("telecom_cost = 1.5", "region_groups = region_groups.csv"),
    ),
    "index-detail": Workload(
        "index", _shape(30_000, 3, (3, 9), 0.30),
        ("employment_density = true",),
    ),
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float


def spawn(make_argv, cwd: Path, env: dict, log, timeout: float) -> Child:
    """Run one child to completion and account for it alone.

    ``make_argv`` receives the launch time (``time.monotonic()``).  RSS and
    CPU come from ``os.wait4`` on this child, not from ``RUSAGE_CHILDREN``,
    which is a high-water mark over every child reaped so far.
    """
    launched = time.monotonic()
    proc = subprocess.Popen(make_argv(launched), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=log)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, ended - launched, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_subsidy(out: Path, contact_share: float, elasticity: float) -> list[str]:
    failed = []
    (calibration,) = read_csv(out / "calibration.csv")
    if not close(float(calibration["achieved_share"]), contact_share, 1e-8):
        failed.append(f"achieved_share {calibration['achieved_share']} misses {contact_share}")
    if abs(float(calibration["achieved_slope"]) - elasticity) > 1e-9:
        failed.append(f"achieved_slope {calibration['achieved_slope']} misses {elasticity}")
    tables = {name: read_csv(out / f"{name}-subsidy.csv")
              for name in ("sector", "location", "region")}
    for name, rows in tables.items():
        if not rows or not all(0.0 <= float(r["wage_subsidy_pct"]) < 100.0 for r in rows):
            failed.append(f"{name}-subsidy.csv: a wage_subsidy_pct outside [0, 100)")
    *sectors, average = tables["sector"]
    total = float(average["employment_thousands"])
    if average["industry"] != "Average":
        failed.append("sector-subsidy.csv: last row is not Average")
    if not close(fsum(float(r["employment_thousands"]) for r in sectors), total, 1e-9):
        failed.append("sector-subsidy.csv: Average employment != sum of sectors")
    if not close(fsum(float(r["employment"]) for r in tables["location"]) / 1000.0, total, 1e-9):
        failed.append("location-subsidy.csv: total employment != Average employment")
    return failed


def check_index(out: Path) -> list[str]:
    failed = []
    locations = read_csv(out / "location-index.csv")
    shares = [k for k in locations[0] if k.startswith("share_")] if locations else []
    if len(shares) != 4 or len(locations) < 10:
        failed.append("location-index.csv: missing rows or share columns")
    for row in locations:
        if not (float(row["density"]) > 0.0 and float(row["employment"]) > 0.0
                and all(0.0 <= float(row[k]) <= 1.0 + 1e-12 for k in shares)):
            failed.append(f"location-index.csv: bad row for zcta {row['zcta']}")
            break
    for row in read_csv(out / "industry-index.csv"):
        if not all(0.0 <= float(v) <= 1.0 + 1e-12 for k, v in row.items() if k.startswith("chi_")):
            failed.append(f"industry-index.csv: chi outside [0, 1] for {row['industry_code']}")
            break
    curve = read_csv(out / "location-lowess.csv")
    grid = [float(r["log_density"]) for r in curve]
    values = [float(v) for r in curve for k, v in r.items() if k != "log_density"]
    if len(curve) != 100 or any(b <= a for a, b in zip(grid, grid[1:])):
        failed.append("location-lowess.csv: grid is not 100 increasing points")
    if not all(math.isfinite(v) for v in values):
        failed.append("location-lowess.csv: non-finite smoothed value")
    return failed


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failed: list[str]
    digest: str | None = None
    trace: dict | None = None


@dataclass
class Run:
    workload: Workload
    directory: Path
    env: dict
    log: object
    deadline: float
    reference: dict = field(default_factory=dict)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def cli_commands(self) -> list[list[str]]:
        if self.workload.kind == "subsidy":
            return [["subsidy", "--config", "run.cfg"]]
        return [["index", "--config", "run.cfg"], ["lowess", "--config", "run.cfg"]]

    def version_child(self) -> Child:
        return spawn(lambda _: [PYTHON, "-m", "distancing", "--version"], self.directory,
                     self.env, self.log, self.remaining())

    def reference_job(self) -> Child:
        return spawn(lambda _: [PYTHON, str(BENCH / "reference.py"),
                                str(self.directory / "reference.csv")],
                     self.directory, self.env, self.log, self.remaining())

    def cli_rep(self, traced: bool) -> Rep:
        out = self.directory / "out"
        wall, cpu, rss, failed, traces = 0.0, 0.0, 0.0, [], []
        for i, command in enumerate(self.cli_commands()):
            trace_path = self.directory / f"trace-{i}.json"
            if traced:
                def argv(t0, command=command, trace_path=trace_path):
                    return [PYTHON, str(BENCH / "tracer.py"), repr(t0), str(trace_path), "--",
                            *command]
            else:
                def argv(_, command=command):
                    return [PYTHON, "-m", "distancing", *command]
            child = spawn(argv, self.directory, self.env, self.log, self.remaining())
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            if child.code != 0:
                return Rep(wall, cpu, rss, [f"{command[0]} exited with {child.code}"])
            if traced:
                traces.append((json.loads(trace_path.read_text()), child.wall_s))
        try:
            if self.workload.kind == "subsidy":
                failed = check_subsidy(out, CONTACT_SHARE, ELASTICITY)
            else:
                failed = check_index(out)
        except (OSError, KeyError, ValueError) as exc:
            failed = [f"unreadable output: {exc!r}"]
        digest = hashlib.sha256(json.dumps(digests(out), sort_keys=True).encode()).hexdigest()
        return Rep(wall, cpu, rss, failed, digest, merge_traces(traces) if traced else None)

    def rep(self, traced: bool = False) -> Rep:
        rep = self.cli_rep(traced)
        if rep.digest is not None:
            expected = self.reference.setdefault("outputs", rep.digest)
            if rep.digest != expected:
                rep.failed.append("outputs differ from an earlier run of this code and seed")
        return rep


def merge_traces(traces: list[tuple[dict, float]]) -> dict:
    """Sum the per-process traces of one repetition (index-detail runs two).

    Each entry is (trace, child wall).  Interpreter exit, from the end of
    the traced work to the child being reaped, is reported on its own.
    """
    merged = {"wall_s": 0.0, "startup_s": 0.0, "exit_s": 0.0, "attributed_s": 0.0,
              "model_calls": 0, "model_s": 0.0, "functions": {}, "counters": {}, "spans": []}
    for trace, wall in traces:
        merged["wall_s"] += wall
        merged["startup_s"] += trace["startup_s"]
        merged["exit_s"] += wall - trace["finished_s"]
        merged["attributed_s"] += trace["attributed_s"]
        merged["model_calls"] += trace["model"]["calls"]
        merged["model_s"] += trace["model"]["self_s"]
        merged["spans"].append(trace["spans"])
        for name, f in trace["functions"].items():
            entry = merged["functions"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in entry:
                entry[key] += f[key]
        for key, value in trace["counters"].items():
            counters = merged["counters"]
            counters[key] = max(counters.get(key, 0.0), value) if key.endswith("_mb") \
                else counters.get(key, 0.0) + value
    return merged


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# Self time in seconds.  A function that a workload never calls reads 0 s
# there (README lists which); on the other workload it is measured.
TIMED = (
    "csvio.read_rows", "csvio.write_rows", "occupations.read_profiles_csv",
    "occupations.classify_all", "industries.read_matrix_csv", "industries.build_mix",
    "geo.read_cbp_csv", "geo.build_cells", "geo.region_employment", "geo.normalize_density",
    "geo.regional_exposure", "geo.lowess_curve", "calibrate.cell_parameters",
    "calibrate.slope_factor", "calibrate.calibrate_epsilon", "calibrate.optimal_contacts_grid",
    "calibrate.calibrate_cap", "calibrate.run_calibration", "counterfactual.compute_subsidies",
    "counterfactual.sector_table", "counterfactual.location_table",
    "counterfactual.cost_ratio_curves", "cli.cmd_subsidy", "cli.cmd_index", "cli.cmd_lowess",
)
COUNTERS = (
    "csvio.read_rows.rows", "csvio.write_rows.rows", "occupations.profiles",
    "industries.resolver_fallbacks", "industries.resolver_unresolved", "geo.read_cbp_csv.rows",
    "geo.build_cells.cells", "geo.build_cells.dropped", "geo.imputed_cells",
    "geo.regional_exposure.skipped",
)
EMPTY_TRACE = {"functions": {}, "counters": {}, "wall_s": 1.0, "startup_s": 0.0, "exit_s": 0.0,
               "attributed_s": 0.0, "model_calls": 0, "model_s": 0.0}


def layer_metrics(trace: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    functions, counters, wall = trace["functions"], trace["counters"], trace["wall_s"]

    def fn(name, key):
        return functions.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        m[f"{name}.self_s"] = (fn(name, "self_s"), "s")
    for name in COUNTERS:
        m[name] = (counters.get(name, 0.0), "count")
    m["calibrate.slope_factor.calls"] = (fn("calibrate.slope_factor", "calls"), "count")
    m["geo.imputed_employment_frac"] = (
        ratio(counters.get("geo.imputed_employment", 0.0), counters.get("geo.employment", 0.0)),
        "frac")
    m["calibrate.frame_cells_frac"] = (
        ratio(counters.get("calibrate.frame_out", 0.0), counters.get("calibrate.frame_in", 0.0)),
        "frac")
    cells = counters.get("counterfactual.cells", 0.0)
    m["model.calls"] = (trace["model_calls"], "count")
    m["model.calls_per_cell"] = (ratio(trace["model_calls"], cells), "1/cell")
    m["model.self_s"] = (trace["model_s"], "s")
    m["counterfactual.binding_frac"] = (ratio(counters.get("counterfactual.binding", 0.0), cells),
                                        "frac")
    m["counterfactual.telecom_frac"] = (ratio(counters.get("counterfactual.telecom", 0.0), cells),
                                        "frac")
    m["cli.run_index_stage.s"] = (fn("cli.run_index_stage", "total_s"), "s")
    m["cli.run_geo_stage.s"] = (fn("cli.run_geo_stage", "total_s"), "s")
    m["cli.run_calibration_stage.s"] = (fn("cli.run_calibration_stage", "total_s"), "s")
    for stage in CLI_STAGES:
        key = f"cli.{stage}.rss_hwm_mb"
        m[key] = (counters.get(key, 0.0), "MB")
    m["trace.wall_s"] = (wall, "s")
    m["trace.startup_s"] = (trace["startup_s"], "s")
    m["trace.exit_s"] = (trace["exit_s"], "s")
    # layer spans' self time plus the model closed forms; interpreter start,
    # exit and cli.main's own code are not a layer and stay unattributed
    m["trace.attributed_frac"] = (trace["attributed_s"] / wall, "frac")
    m["trace.main_attributed_frac"] = (ratio(trace["attributed_s"], fn("cli.main", "total_s")),
                                       "frac")
    m["trace.overhead_frac"] = (wall / untraced_wall - 1.0, "frac")
    return m


def median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    if not samples:  # every traced repetition failed; the run reports correct=false
        samples = [{name: (0.0, unit) for name, (_, unit) in
                    layer_metrics(EMPTY_TRACE, 1.0).items()}]
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }


def describe(values: list[float]) -> str:
    if len(values) < 4:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g} min={min(values):.4g} max={max(values):.4g}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def prepare(name: str, seed: int) -> tuple[Path, Path, dict]:
    """Generate the inputs and config; the same seed must give the same bytes.

    Digests of the inputs and outputs are kept per workload, seed and code
    digest, so a change that legitimately alters the bytes starts afresh.
    """
    workload = WORKLOADS[name]
    directory = WORK / name / f"seed-{seed}"
    shutil.rmtree(directory, ignore_errors=True)
    info = generate(directory, seed, workload.shape)
    lines = [f"{key} = {path}" for key, path in sorted(info["paths"].items())
             if key != "region_groups"]
    lines += ["output_dir = out", *workload.settings]
    (directory / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest_path = WORK / "manifests" / f"{name}-seed-{seed}-{code_sha256()[:16]}.json"
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    inputs = digests(directory)
    if manifest.setdefault("inputs", inputs) != inputs:
        raise SystemExit(f"generator gave different bytes for seed {seed} than an earlier run")
    return directory, manifest_path, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "distancing" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    directory, manifest_path, manifest = prepare(args.workload, args.seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(directory / "stderr.log", "w", encoding="utf-8") as log:
        run = Run(workload, directory, env, log, started + RUN_DEADLINE_S, manifest)
        warm = run.version_child()  # byte-compiles the package; not measured
        if warm.code != 0:
            print("error: the package does not import; see stderr.log", file=sys.stderr)
            return 1
        reps: list[Rep] = []
        untraced: list[Rep] = []
        setups: list[float] = []
        references: list[Child] = []
        measuring = time.monotonic()
        if not args.trace:
            references.append(run.reference_job())
        while len(reps) < MIN_REPS or time.monotonic() - measuring < args.seconds:
            if run.remaining() < 30.0 and len(reps) >= 1:
                break
            if args.trace:  # alternate which side goes first
                for traced in (False, True) if len(reps) % 2 else (True, False):
                    (reps if traced else untraced).append(run.rep(traced=traced))
                continue
            setups.append(run.version_child().wall_s)
            reps.append(run.rep())
            references.append(run.reference_job())  # after this one, before the next

    all_reps = reps + untraced
    failed = sum(1 for r in all_reps if r.failed)
    broken = sum(1 for child in references if child.code != 0)
    if broken:
        print(f"error: the reference job failed {broken} times; see stderr.log", file=sys.stderr)
        return 1
    for rep in all_reps:
        for message in rep.failed[:5]:
            print(f"check failed: {message}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "meta": run_metadata(), "reps": [
                  {"wall_s": r.wall_s, "cpu_s": r.cpu_s,
                   "rss_mb": r.rss_mb, "failed": r.failed} for r in all_reps],
              "setup_s": setups, "reference_s": [child.wall_s for child in references]}

    if args.trace:
        traced = [r for r in reps if r.trace]
        untraced_wall = statistics.median([r.wall_s for r in untraced])
        samples = [layer_metrics(r.trace, untraced_wall) for r in traced]
        metrics = median_metrics(samples)
        if traced:
            record["trace"] = traced[-1].trace
            print_table(args.workload, traced[-1].trace)
    else:
        values = {"wall_s": [r.wall_s for r in reps], "reference_s": record["reference_s"],
                  "setup_s": setups, "peak_rss_mb": [r.rss_mb for r in reps]}
        units = {"wall_s": "s", "reference_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        medians = {name: statistics.median(v) for name, v in values.items()}
        for name, v in values.items():
            print(f"{name:13s} {medians[name]:.6g} {units[name]:5s} median, {describe(v)}")
        # Each repetition's wall over the mean wall of the reference jobs nearest it,
        # two before and two after: the machine's speed over those seconds cancels
        # out, and four jobs rather than two halve the reference's own noise.
        ref = values["reference_s"]  # ref[i] ran just before repetition i, ref[i + 1] after
        ratios = [wall / statistics.fmean(ref[max(0, i - 1):i + 3])
                  for i, wall in enumerate(values["wall_s"])]
        wall_over_ref = statistics.median(ratios)
        print(f"{'wall_over_ref':13s} {wall_over_ref:.6g} ratio median, {describe(ratios)}")
        metrics = {"wall_over_ref": {"value": wall_over_ref, "unit": "ratio"},
                   "setup_s": {"value": medians["setup_s"], "unit": "s"},
                   "peak_rss_mb": {"value": medians["peak_rss_mb"], "unit": "MB"}}
        cpu = [r.cpu_s for r in reps]
        print(f"{'cpu_s':13s} {statistics.median(cpu):.6g} s     median child CPU, {describe(cpu)}")
    print(f"{'failed_frac':13s} {failed / len(all_reps):.6g} 1     "
          f"{failed} of {len(all_reps)} repetitions failed or gave wrong outputs")
    record["metrics"] = metrics

    manifest_path.write_text(json.dumps(run.reference, indent=1, sort_keys=True) + "\n")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed-{args.seed}-trace-{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(directory, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(all_reps)} repetitions, {time.monotonic() - started:.1f} s in all, "
          f"meta {json.dumps(record['meta'], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_reps), "failed": failed,
                      "metrics": metrics}))
    return 0


def code_sha256() -> str:
    """Digest of the package source and the benchmark's own code."""
    source = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), *sorted(BENCH.glob("*.py"))]:
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return source.hexdigest()


def run_metadata() -> dict:
    """Where the numbers came from: source revision, interpreter, machine."""
    import numpy  # noqa: PLC0415

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        git_sha = proc.stdout.strip() or None
    return {"git_sha": git_sha, "code_sha256": code_sha256(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads()}


def print_table(name: str, trace: dict) -> None:
    print(f"traced {name}: wall {trace['wall_s']:.3f} s, startup {trace['startup_s']:.3f} s, "
          f"exit {trace['exit_s']:.3f} s")
    ordered = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    for fn_name, f in ordered:
        print(f"  {fn_name:36s} self {f['self_s']:8.4f} s  total {f['total_s']:8.4f} s  "
              f"calls {f['calls']}")
    print(f"  {'model (via counterfactual)':36s} self {trace['model_s']:8.4f} s  "
          f"calls {trace['model_calls']}")


if __name__ == "__main__":
    sys.exit(main())
