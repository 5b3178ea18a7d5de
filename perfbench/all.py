"""Run every benchmark workload, untraced and traced, and print all metrics.

    python3 perfbench/all.py [--seed N] [--seconds S]

One line per metric: ``<workload> <metric> <value> <unit>``, after one
outcome line per workload and mode giving attempted and failed children and
their ratio, the error rate.  Exits nonzero when any child failed its gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=BENCH_DIR.parent,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exited {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:g}")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
