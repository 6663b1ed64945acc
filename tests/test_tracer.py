"""The benchmark's per-layer tracer still hooks into the pipeline.

``bench/tracer.py`` wraps package functions by name and reads attributes
of their results, so a refactor of the cell records can break traced
benchmark runs without failing any library test.  This runs it on the
end-to-end fixture, for the commands of both benchmark workloads, and
checks its counts against the hand-built fixture.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import e2efixture
from test_cli import write_location_index

ROOT = Path(__file__).resolve().parents[1]


def traced(tmp_path, *command):
    """Run one ``distancing`` command under the tracer; its trace summary."""
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), repr(time.monotonic()), str(trace),
         "--", *command],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def assert_fixture_cells(counters):
    cells = len(e2efixture.hand_expectations()["cells"])  # every fixture cell is priced
    assert counters["geo.build_cells.cells"] == cells
    assert counters["calibrate.frame_out"] == cells
    # each establishment code resolves through its two-digit sector
    assert counters["industries.resolver_fallbacks"] == len({row[1] for row in e2efixture.CBP})
    assert counters["industries.resolver_unresolved"] == 0


def test_traced_subsidy_run_counts_the_fixture_cells(tmp_path):
    config = e2efixture.write_config(tmp_path / "in", tmp_path / "out")
    counters = traced(tmp_path, "subsidy", "--config", str(config))["counters"]
    assert_fixture_cells(counters)
    assert counters["counterfactual.cells"] == len(e2efixture.hand_expectations()["cells"])


def test_traced_index_run_counts_the_fixture_cells(tmp_path):
    config = e2efixture.write_config(tmp_path / "in", tmp_path / "out")
    assert_fixture_cells(traced(tmp_path, "index", "--config", str(config))["counters"])


def test_traced_lowess_run_fits_once(tmp_path):
    source = tmp_path / "location-index.csv"
    write_location_index(source)  # the fixture's own four ZCTAs are too few to smooth
    trace = traced(tmp_path, "lowess", "--input", str(source), "--output-dir", str(tmp_path))
    assert trace["functions"]["geo.lowess_curve"]["calls"] == 1
