"""Per-layer tracing from outside the package.

``install`` rebinds public module attributes of ``distancing`` to timing
wrappers.  This reaches every call the pipeline makes because ``cli``
calls the other layers through their modules (``geo.build_cells``),
``calibrate`` calls its own module globals, and ``counterfactual`` calls
the ``model`` closed forms through the names it imported.

Each wrapped call records a span (name, start, end, parent); spans stay
in memory and are written once, at exit.  The ``model`` closed forms run
about three times per cell, so they are aggregated (calls and seconds)
instead of getting a span each; their time is subtracted from the
enclosing span's self time.  Counting hooks run after a span ends and
their time is charged to nobody, so it shows up as tracing overhead.
"""

from __future__ import annotations

import ctypes
import functools
import json
import resource
import sys
import time
from collections import defaultdict
from math import fsum

# (module, attribute) pairs wrapped with a span, in layer order.
SPANNED = {
    "csvio": ("read_rows", "write_rows"),
    "occupations": ("read_profiles_csv", "classify_all"),
    "industries": ("read_matrix_csv", "build_mix"),
    "geo": ("read_cbp_csv", "build_cells", "region_employment", "normalize_density",
            "regional_exposure", "lowess_curve"),
    "calibrate": ("cell_parameters", "run_calibration", "slope_factor", "calibrate_epsilon",
                  "optimal_contacts_grid", "calibrate_cap"),
    "counterfactual": ("compute_subsidies", "sector_table", "location_table",
                       "cost_ratio_curves"),
    "cli": ("main", "run_index_stage", "run_geo_stage", "run_calibration_stage", "cmd_index",
            "cmd_calibrate", "cmd_subsidy", "cmd_lowess"),
}
CLI_STAGES = ("run_index_stage", "run_geo_stage", "run_calibration_stage")
# model closed forms as counterfactual imported them
MODEL_NAMES = ("contacts_at_density", "compensating_subsidy", "preferred_regime",
               "distancing_cost_ratio", "telecom_cost_ratio")


class Tracer:
    """Spans, aggregated leaf calls and counters of one process."""

    def __init__(self, launched: float):
        self.launched = launched
        # [name, start, end, parent, leaf seconds, hook seconds]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.model_calls = 0
        self.model_s = 0.0
        self.resolvers: list = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, module, attr: str, name: str, hook=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return  # a later version of the package may drop or rename a function

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.monotonic(), None, parent, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                self._stack.pop()
            if hook is not None:
                hook(result, args, kwargs)
                if parent >= 0:
                    self.spans[parent][5] += time.monotonic() - record[2]
            return result

        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def leaf(self, module, attr: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.monotonic() - start
                self.model_calls += 1
                self.model_s += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][4] += elapsed

        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def functions(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per spanned function."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, leaf_s, hook_s) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_s[i] - leaf_s - hook_s
        return out

    def summary(self, startup_s: float) -> dict:
        """Everything recorded; call it when the traced work has finished.

        ``finished_s`` (seconds since launch) lets the launcher attribute
        the rest of the child's wall, interpreter exit, to its own span.
        """
        finished_s = time.monotonic() - self.launched
        counters = dict(self.counters)
        counters["industries.resolver_fallbacks"] = float(
            sum(len(getattr(r, "fallbacks", ())) for r in self.resolvers))
        counters["industries.resolver_unresolved"] = float(
            sum(len(getattr(r, "unresolved", ())) for r in self.resolvers))
        functions = self.functions()
        attributed = fsum(f["self_s"] for name, f in functions.items() if name != "cli.main")
        return {
            "startup_s": startup_s,
            "finished_s": finished_s,
            "attributed_s": attributed + self.model_s,
            "model": {"calls": self.model_calls, "self_s": self.model_s},
            "functions": functions,
            "counters": counters,
            "spans": [
                [name, start - self.launched, end - self.launched, parent]
                for name, start, end, parent, _, _ in self.spans
            ],
        }


def install(launched: float) -> Tracer:
    """Wrap the package's public layer functions; returns the live tracer."""
    from distancing import (  # noqa: PLC0415  (imported after the launch clock is read)
        calibrate, cli, counterfactual, csvio, geo, industries, occupations,
    )

    modules = {"csvio": csvio, "occupations": occupations, "industries": industries, "geo": geo,
               "calibrate": calibrate, "counterfactual": counterfactual, "cli": cli}
    tracer = Tracer(launched)
    c = tracer.counters

    def rows_read(result, args, kwargs):
        c["csvio.read_rows.rows"] += len(result[1])

    def rows_written(result, args, kwargs):
        rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
        c["csvio.write_rows.rows"] += len(rows) if hasattr(rows, "__len__") else 0

    def profiles(result, args, kwargs):
        c["occupations.profiles"] += len(result)

    def cbp_rows(result, args, kwargs):
        c["geo.read_cbp_csv.rows"] += len(result)

    def cells_built(result, args, kwargs):
        cells, dropped = result
        c["geo.build_cells.cells"] += len(cells)
        c["geo.build_cells.dropped"] += len(dropped)
        c["geo.imputed_cells"] += sum(1 for cell in cells if cell.imputed_fraction > 0.0)
        c["geo.imputed_employment"] += fsum(cell.employment * cell.imputed_fraction
                                            for cell in cells)
        c["geo.employment"] += fsum(cell.employment for cell in cells)

    def exposure(result, args, kwargs):
        c["geo.regional_exposure.skipped"] += len(result[1])

    def frame_built(result, args, kwargs):
        cells = args[0] if args else kwargs["cells"]
        c["calibrate.frame_in"] += len(cells)
        c["calibrate.frame_out"] += len(result)

    def subsidies(result, args, kwargs):
        c["counterfactual.cells"] += len(result)
        c["counterfactual.binding"] += sum(1 for r in result if r.cap_ratio < 1.0)
        c["counterfactual.telecom"] += sum(
            1 for r in result if r.regime is not None and r.regime.value == "telecom")

    def geo_stage(result, args, kwargs):
        tracer.resolvers.append(result.resolver)

    hooks = {
        "csvio.read_rows": rows_read,
        "csvio.write_rows": rows_written,
        "occupations.read_profiles_csv": profiles,
        "geo.read_cbp_csv": cbp_rows,
        "geo.build_cells": cells_built,
        "geo.regional_exposure": exposure,
        "calibrate.cell_parameters": frame_built,
        "counterfactual.compute_subsidies": subsidies,
    }
    for stage in CLI_STAGES:
        hooks[f"cli.{stage}"] = _rss_hook(c, stage)
    hooks["cli.run_geo_stage"] = _chain(hooks["cli.run_geo_stage"], geo_stage)

    for layer, attrs in SPANNED.items():
        for attr in attrs:
            name = f"{layer}.{attr}"
            tracer.span(modules[layer], attr, name, hooks.get(name))
    for attr in MODEL_NAMES:
        tracer.leaf(counterfactual, attr)
    return tracer


def _rss_hook(counters, stage):
    def hook(result, args, kwargs):
        key = f"cli.{stage}.rss_hwm_mb"
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counters[key] = max(counters[key], rss_mb)
    return hook


def _chain(first, second):
    def hook(result, args, kwargs):
        first(result, args, kwargs)
        second(result, args, kwargs)
    return hook


def blas_threads() -> int | None:
    """OpenBLAS thread count of this process, if an OpenBLAS is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    """Run one ``distancing`` command traced: ``tracer.py T0 TRACE_OUT -- ARGS...``.

    ``T0`` is the launcher's ``time.monotonic()`` just before it started
    this process (the clock is system-wide), so the startup span covers
    interpreter start and the package import.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    launched, out, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py T0 TRACE_OUT -- COMMAND ARGS...")
    tracer = install(float(launched))
    from distancing import cli  # noqa: PLC0415

    startup_s = time.monotonic() - float(launched)
    code = cli.main(command)
    tracer.uninstall()
    write(out, tracer.summary(startup_s))
    return code


if __name__ == "__main__":
    sys.exit(main())
