"""Golden digests: every command's output bytes and stderr, pinned.

Seeded inputs come from the benchmark's generator, ``bench/gen.py``,
imported unchanged, at a shape small enough to run in a few seconds that
still drops cells, skips unresolved codes and regions without density,
and removes excluded sectors.  Each command runs as ``python -m
distancing`` (through :func:`distancing.cli.main`) in the input
directory, so provenance lines and stderr are those of a real run.  The
sha256 of every output file, provenance line included, and of stderr must
equal ``tests/golden.json``.

The inputs' digests are pinned too: numpy does not promise to keep its
random streams across versions, and such a drift fails with its own
message instead of as an output mismatch.  A change that alters output
bytes on purpose rewrites the file with ``PYTHONPATH=src python
tests/test_golden.py --write`` and says so in CHANGES.md; when only the
inputs moved, the file is rewritten from the parent commit, so the
outputs stay pinned to the code before the change.

``index`` and ``lowess`` run again with numpy's AVX-512 kernels disabled
(``NPY_DISABLE_CPU_FEATURES``), with OpenBLAS forced to each of its
``Sandybridge`` and ``Prescott`` kernels (``OPENBLAS_CORETYPE``), and with
OpenBLAS started with two threads (``OPENBLAS_NUM_THREADS=2``, which the
CLI keeps; unset, it starts one), each set in the children's environment
only, and must give the same digests: their outputs may depend neither on
numpy's SIMD dispatch nor on the BLAS kernel or thread count, since no
output goes through BLAS.  A rerun this CPU cannot run is skipped.
``calibrate`` and ``subsidy`` stay out, because ``fig2.csv`` and eps still
take numpy's ``power`` and ``log``, whose bits follow numpy's dispatch.
libm's own per-CPU variants are not covered at all.  On machines other
than x86 every rerun is skipped; whether they give the golden digests is
unverified.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = Path(__file__).with_name("golden.json")
SEED = 7
SHAPE = (1000, 8, 1, 4, 0.3, 250)  # bench/gen.py Shape fields, in order
CONFIG = ("telecom_cost = 1.5", "region_groups = region_groups.csv")
# output directory -> command line, run in this order
COMMANDS = {
    "index": ["index"],
    "lowess": ["lowess", "--input", "index/location-index.csv"],
    "calibrate": ["calibrate"],
    "subsidy": ["subsidy"],
    "subsidy-fixed-eps": ["subsidy", "--fixed-eps", "0.05"],
}
# the commands whose outputs must not depend on numpy's SIMD dispatch
DISPATCH_FREE = ("index", "lowess")
# numpy's AVX-512 dispatch targets on x86
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
# OpenBLAS kernels that an x86 CPU with the named feature runs
OPENBLAS_KERNELS = {"Sandybridge": "AVX", "Prescott": "SSE3"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generator():
    """``bench/gen.py`` as a module, loaded from its file (``bench`` is no package)."""
    name = "bench_gen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "gen.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclass looks here
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _rerun_env(rerun: str) -> dict | None:
    """The environment of a rerun of :data:`DISPATCH_FREE`, or None where this
    CPU cannot run it: ``no-avx512`` disables the :data:`AVX512` targets that
    numpy finds and can disable (those outside its build's baseline); a name
    in :data:`OPENBLAS_KERNELS` forces that OpenBLAS kernel; ``blas-threads``
    starts OpenBLAS with two threads instead of the CLI's one."""
    if rerun == "blas-threads":
        return {"OPENBLAS_NUM_THREADS": "2"}
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    if rerun in OPENBLAS_KERNELS:
        runs = umath.__cpu_features__.get(OPENBLAS_KERNELS[rerun])
        return {"OPENBLAS_CORETYPE": rerun} if runs else None
    features = [feature for feature in AVX512
                if umath.__cpu_features__.get(feature) and feature not in umath.__cpu_baseline__]
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(features)} if features else None


def run_all(directory: Path, commands=tuple(COMMANDS), env: dict | None = None) -> dict:
    """Generate the inputs under ``directory``, run ``commands`` with ``env``
    added to the environment, digest it all."""
    gen = _generator()
    info = gen.generate(directory, SEED, gen.Shape(*SHAPE))
    inputs = gen.digests(directory)
    lines = [f"{key} = {path}" for key, path in sorted(info["paths"].items())
             if key != "region_groups"]
    (directory / "run.cfg").write_text("\n".join([*lines, *CONFIG]) + "\n", encoding="utf-8")
    outputs = {}
    for name in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "distancing", *COMMANDS[name], "--config", "run.cfg",
             "--output-dir", name],
            capture_output=True, cwd=directory,
            env=dict(os.environ, PYTHONPATH=str(SRC), **(env or {})),
        )
        files = sorted((directory / name).iterdir()) if (directory / name).is_dir() else []
        outputs[name] = {"exit": proc.returncode, "stderr": _sha256(proc.stderr),
                         **{p.name: _sha256(p.read_bytes()) for p in files}}
    return {"seed": SEED, "shape": list(SHAPE), "inputs": inputs, "outputs": outputs}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module", params=["no-avx512", *OPENBLAS_KERNELS, "blas-threads"])
def rerun_digests(request, tmp_path_factory):
    env = _rerun_env(request.param)
    if env is None:
        pytest.skip(f"this CPU cannot run the {request.param} rerun")
    return run_all(tmp_path_factory.mktemp(f"golden-{request.param}"), DISPATCH_FREE, env)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_generated_inputs_are_pinned(digests, golden):
    assert (golden["seed"], golden["shape"]) == (SEED, list(SHAPE))
    if digests["inputs"] != golden["inputs"]:
        pytest.fail("bench/gen.py wrote other input bytes than the pinned ones (the generator "
                    "or numpy's random streams changed); the output digests cannot be compared "
                    "until tests/golden.json is rewritten at the parent commit")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_outputs_and_stderr_match_the_golden_digests(digests, golden, command):
    if digests["inputs"] != golden["inputs"]:
        pytest.fail("the generated inputs differ from the pinned ones; see "
                    "test_generated_inputs_are_pinned")
    assert digests["outputs"][command] == golden["outputs"][command]


@pytest.mark.parametrize("command", DISPATCH_FREE)
def test_reruns_match_the_golden_digests(rerun_digests, golden, command):
    if rerun_digests["inputs"] != golden["inputs"]:
        pytest.fail("the generated inputs differ from the pinned ones; see "
                    "test_generated_inputs_are_pinned")
    assert rerun_digests["outputs"][command] == golden["outputs"][command]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Write tests/golden.json from this tree.")
    parser.add_argument("--write", action="store_true", required=True)
    parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        record = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
