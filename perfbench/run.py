"""lmem benchmark: time fresh `lmem run` processes and check their outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it runs the package in ``src/`` and writes
only below ``.perfbench_work/``, which it removes on exit.

With --trace 0 the run starts untraced workload children one after another
until the next one would end after S seconds (at least one).  It prints the
median of each end-to-end metric over those children:

  wall_s       spawn to exit of one `lmem run` process
  setup_s      spawn until `lmem.cli` is imported and the config validated
  run_s        inside `lmem.cli.main`
  cpu_s        the child's user + system time
  peak_rss_mb  the child's peak resident set (MiB)

With --trace 1 it runs pairs of an untraced and a traced child on the same
config and prints the per-layer metrics of the traced children (see
tracer.py), the bytes of CSV/JSON written, and ``trace.overhead_s``, the
traced minus the untraced median run_s.  Both children of a pair must write
byte-identical CSVs.

Every child's outputs go through the gate in workloads.py; the error rate
is ``failed / attempted`` in the result line.  Children run with the BLAS
library's default thread count, recorded with the versions in the
environment line.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 160.0  # a run must end within 180 s; a child still running then is killed
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in tracer.TRACED}
    for name in tracer.function_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(tracer.COUNTS)
    units["cli.bytes_written"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


def blas_threads() -> dict:
    """Threads of each OpenBLAS that numpy and scipy load, as the library reports.

    Children inherit this process's environment, so they start with the same
    counts.
    """
    import ctypes

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = getattr(lib, symbol)()
                break
    threads.update({var: os.environ.get(var) for var in BLAS_VARS})
    return threads


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


class Runner:
    """Starts, times and reaps the child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(self, index: int, traced: bool = False) -> dict:
        self.count += 1
        cdir = self.work / f"child{self.count:03d}"
        cdir.mkdir(parents=True)
        config = cdir / "config.json"
        config.write_text(json.dumps(workloads.make_config(self.workload, self.seed, index)))
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(config), str(cdir / "out"), str(cdir / "timings.json")]
        if traced:
            cmd += ["--trace", str(cdir / "spans.json")]
        with open(cdir / "stderr.txt", "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(self.deadline - spawn, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {
            "dir": cdir,
            "cfg_seed": workloads.config_seed(self.seed, index),
            "rc": proc.returncode,
            "wall_s": end - spawn,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        try:
            timings = json.loads((cdir / "timings.json").read_text())
        except (OSError, ValueError):
            timings = None
        if proc.returncode != 0 or timings is None:
            rec["rc"] = proc.returncode or 1
            tail = (cdir / "stderr.txt").read_text(errors="replace").splitlines()[-15:]
            print(f"child {cdir.name} exited {proc.returncode}:\n" + "\n".join(tail), file=sys.stderr)
            return rec
        if not Path(timings["lmem"]).resolve().is_relative_to(ROOT / "src"):
            print(f"child imported lmem from {timings['lmem']}, not this checkout", file=sys.stderr)
            rec["rc"] = 1
            return rec
        rec["setup_s"] = timings["ready"] - spawn
        rec["run_s"] = timings["run_end"] - timings["run_start"]
        return rec


def gate(runner: Runner, rec: dict, reference: dict) -> bool:
    if rec["rc"] != 0:
        return False
    failures = workloads.check(runner.workload, rec["dir"] / "out", rec["cfg_seed"], reference)
    for msg in failures:
        print(f"gate: {rec['dir'].name}: {msg}", file=sys.stderr)
    return not failures


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def csv_bytes(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


def written_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.suffix in (".csv", ".json"))


def measure_untraced(runner: Runner, seconds: float, reference: dict):
    stop = time.monotonic() + seconds
    samples, failed, index = [], 0, 0
    while True:
        rec = runner.child(index)
        index += 1
        if gate(runner, rec, reference):
            samples.append(rec)
        else:
            failed += 1
        shutil.rmtree(rec["dir"])
        walls = [r["wall_s"] for r in samples] or [rec["wall_s"]]
        if time.monotonic() + statistics.median(walls) > stop:
            break
    return index, failed, {name: [r[name] for r in samples] for name in END_TO_END}


def measure_traced(runner: Runner, seconds: float, reference: dict):
    stop = time.monotonic() + seconds
    untraced_run, layers, failed, index = [], [], 0, 0
    while True:
        plain = runner.child(index)
        traced = runner.child(index, traced=True)
        index += 1
        plain_ok, traced_ok = gate(runner, plain, reference), gate(runner, traced, reference)
        if plain_ok and traced_ok and csv_bytes(plain["dir"] / "out") != csv_bytes(traced["dir"] / "out"):
            print("traced and untraced children wrote different CSVs", file=sys.stderr)
            traced_ok = False
        if plain_ok:
            untraced_run.append(plain["run_s"])
        if traced_ok:
            summary = tracer.summarize(json.loads((traced["dir"] / "spans.json").read_text()))
            summary["cli.bytes_written"] = written_bytes(traced["dir"] / "out")
            summary["run_s"] = traced["run_s"]
            layers.append(summary)
        failed += (not plain_ok) + (not traced_ok)
        for rec in (plain, traced):
            shutil.rmtree(rec["dir"])
        if time.monotonic() + plain["wall_s"] + traced["wall_s"] > stop:
            break
    series = {}
    if layers and untraced_run:
        series = {name: [s[name] for s in layers] for name in per_layer_units() if name != "trace.overhead_s"}
        series["trace.overhead_s"] = [
            statistics.median(s["run_s"] for s in layers) - statistics.median(untraced_run)
        ]
    return 2 * index, failed, series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lmem" / "cli.py").is_file():
        print(f"no lmem sources under {ROOT / 'src'}: run from a checkout of the repository", file=sys.stderr)
        return 2
    start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work, start + HARD_LIMIT_S)
    reference = workloads.load_reference(args.workload)
    try:
        if args.trace:
            attempted, failed, series = measure_traced(runner, args.seconds, reference)
            units = per_layer_units()
        else:
            attempted, failed, series = measure_untraced(runner, args.seconds, reference)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if any(not values for values in series.values()) or set(series) != set(units):
        print("no child passed the gate; nothing to report", file=sys.stderr)
        series = {}

    detail = {
        "environment": environment(args.seed),
        "workload": args.workload,
        "reference": "stored" if workloads.has_reference(
            args.workload, workloads.config_seed(args.seed, 0), reference) else "invariants only",
        "samples": {name: quartiles(values) for name, values in series.items()},
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and bool(series),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(series[name]), "unit": unit}
            for name, unit in units.items() if name in series
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
