"""Regenerate the stored reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload once per config seed through the same child runner the
benchmark times and stores the arrays the gate compares (workloads.py,
`read_outputs`) in ``reference/<workload>.npz``.  fig3b-n5 depends on the
seed, so it is stored for the config seeds of benchmark seeds
0..REFERENCE_SEEDS-1; other seeds are gated by the invariants alone.  The
stored files were made at the commit that introduced the benchmark;
regenerate them only when the expected physics changes, never to make a
failing run pass.
"""

from __future__ import annotations

import shutil
import sys
import time

import numpy as np

import run
import workloads


def outputs(workload: str, seed: int, child: int, work) -> dict:
    runner = run.Runner(workload, seed, work, time.monotonic() + 600.0)
    rec = runner.child(child)
    if rec["rc"] != 0:
        raise SystemExit(f"{workload} seed {seed} child {child} failed")
    invariants = workloads.check_invariants(workload, rec["dir"] / "out")
    if invariants:
        raise SystemExit(f"{workload}: {invariants}")
    data = workloads.read_outputs(workload, rec["dir"] / "out")
    shutil.rmtree(rec["dir"])
    return {workloads.reference_key(workload, rec["cfg_seed"], k): v for k, v in data.items()}


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "reference"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in sorted(workloads.CONFIGS):
            stored = {}
            if workload == "fig3b-n5":
                for seed in range(workloads.REFERENCE_SEEDS):
                    for child in range(workloads.SUBSEEDS):
                        stored.update(outputs(workload, seed, child, work))
                        print(workload, seed, child, flush=True)
            else:
                stored.update(outputs(workload, 0, 0, work))
            np.savez_compressed(workloads.REFERENCE_DIR / f"{workload}.npz", **stored)
            print(workload, "stored", len(stored), "arrays", flush=True)
    finally:
        shutil.rmtree(run.ROOT / ".perfbench_work", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
