"""One benchmark child process: a fresh interpreter that runs one lmem config.

    python3 child.py CONFIG OUTDIR TIMINGS [--trace SPANS]

It imports `lmem.cli`, validates the config and records the monotonic time
(set-up ends there), then runs the experiment through the public CLI entry
point `lmem.cli.main(["run", ...])` with one job.  CLOCK_MONOTONIC is shared
by all processes, so the parent subtracts its own spawn time from ``ready``.
With --trace the outside-in tracer is installed before the run starts and
its spans are written when the process exits.
"""

import argparse
import atexit
import json
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("outdir")
    parser.add_argument("timings")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    import lmem.cli

    lmem.cli.ExperimentConfig.from_file(args.config)
    record = {"ready": time.monotonic(), "lmem": lmem.cli.__file__}
    argv = ["run", args.config, "--out", args.outdir, "--jobs", "1"]
    if args.trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        atexit.register(tracer.write, args.trace)
        record["run_start"] = time.monotonic()
        rc = tracer.call(ROOT_SPAN, lmem.cli.main, argv)
    else:
        record["run_start"] = time.monotonic()
        rc = lmem.cli.main(argv)
    record["run_end"] = time.monotonic()
    with open(args.timings, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
