"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They start real lmem child processes on the smallest workload (fig3a-n6,
a few seconds each).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "fig3a-n6"


def _child(tmp_path, traced=False):
    runner = run.Runner(WORKLOAD, 0, tmp_path / ("traced" if traced else "plain"), time.monotonic() + 120)
    rec = runner.child(0, traced=traced)
    assert rec["rc"] == 0
    return rec


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _child(tmp_path_factory.mktemp("plain"))


def test_gate_passes_stored_reference(plain):
    reference = workloads.load_reference(WORKLOAD)
    assert workloads.check(WORKLOAD, plain["dir"] / "out", plain["cfg_seed"], reference) == []


def test_tampered_reference_is_a_failure(plain):
    reference = workloads.load_reference(WORKLOAD)
    reference["product"] = reference["product"].copy()
    reference["product"][7, 1] *= 1 + 1e-4  # one x2 sample
    failures = workloads.check(WORKLOAD, plain["dir"] / "out", plain["cfg_seed"], reference)
    assert failures == ["product deviates from reference"]


def test_spectra_match_as_multisets():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=64) + 1j * rng.normal(size=64)
    ref[1] = ref[0] + 1e-9  # near-degenerate pair that may swap
    swapped = ref.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert workloads.multiset_distance(swapped[::-1], ref) < 1e-15
    moved = ref.copy()
    moved[5] += 1e-3
    assert workloads.multiset_distance(moved, ref) == pytest.approx(1e-3)


def test_traced_and_untraced_csvs_are_byte_identical(plain, tmp_path):
    traced = _child(tmp_path, traced=True)
    assert run.csv_bytes(traced["dir"] / "out") == run.csv_bytes(plain["dir"] / "out")
    spans = json.loads((traced["dir"] / "spans.json").read_text())
    summary = run.tracer.summarize(spans)
    assert summary["dynamics.evolve.calls"] == 2
    assert summary["dynamics.occupied_sectors"] > 0


def _result_lines(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", WORKLOAD,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    detail, result = _result_lines(trace)
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert set(detail["samples"]) == set(declared)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
