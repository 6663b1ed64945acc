"""The benchmark's per-layer tracer still hooks into the pipeline.

``bench/tracer.py`` wraps package functions by name and reads attributes
of their results, so a refactor of the cell records can break traced
benchmark runs without failing any library test.  This runs it on the
end-to-end fixture and checks its cell counts against the hand-built
fixture.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import e2efixture

ROOT = Path(__file__).resolve().parents[1]


def test_traced_subsidy_run_counts_the_fixture_cells(tmp_path):
    config = e2efixture.write_config(tmp_path / "in", tmp_path / "out")
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), repr(time.monotonic()), str(trace),
         "--", "subsidy", "--config", str(config)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(trace.read_text())["counters"]
    cells = len(e2efixture.hand_expectations()["cells"])  # every fixture cell is priced
    assert counters["geo.build_cells.cells"] == cells
    assert counters["calibrate.frame_out"] == cells
    assert counters["counterfactual.cells"] == cells
    # each establishment code resolves through its two-digit sector
    assert counters["industries.resolver_fallbacks"] == len({row[1] for row in e2efixture.CBP})
    assert counters["industries.resolver_unresolved"] == 0
