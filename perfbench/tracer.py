"""Outside-in span tracer for the lmem package.

`Tracer.install` replaces each entry point in `TRACED` with a wrapper at
every `lmem.*` module global that binds it, so a caller that imported the
function by name (``from .dynamics import evolve``) is traced as well as
the home module.  Each call records a span (name, start, end, parent); self
time is a span's duration minus that of its direct children.  Exact counts
are read from the returned objects, in a ``trace.count`` span of their own
so that the bookkeeping is not charged to the caller's self time.

`pauli` gets no spans: its entry points run 4^N times inside
`fock.pauli_word_table`, where a wrapper would distort the timing, so their
time shows in the caller's self time.

The benchmark parent imports this module only for `TRACED`, `COUNTS` and
`summarize`; it never imports lmem.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer (lmem module) -> public entry points wrapped in the traced run
TRACED = {
    "model": ("random_perturbed_params",),
    "fock": (
        "pauli_word_table",
        "vectorize",
        "devectorize",
        "left_mult_operator",
        "right_mult_operator",
    ),
    "kappa": ("kappa_all",),
    "liouvillian": ("build_liouvillian_direct", "build_liouvillian_thirdq"),
    "sectors": ("restrict_liouvillian",),
    "dynamics": ("evolve", "exceptional_point_scan", "physicality_report"),
    "edge": ("build_product_state", "kappa_correlation"),
    "cli": ("write_csv",),
}

# the root span: the whole `lmem.cli.main` call, so that `cli.self_s`
# holds the part of run_s that no traced entry point covers
ROOT_SPAN = "cli.main"

# exact counts read from returned objects, with their units
COUNTS = {
    "dynamics.occupied_sectors": "count",  # summed over evolve inputs
    "liouvillian.generator_nnz": "count",  # largest generator built
    "sectors.block_dim": "count",  # largest restricted block
    "kappa.kappa_all.bytes": "bytes",  # computed: data + indices + indptr
}


def _occupied_sectors(tracer, result):
    import numpy as np
    from lmem.sectors import sector_eigenvalues

    # the trajectory's first sample is the evolve input: every workload's
    # time grid starts at 0
    nz = np.flatnonzero(np.abs(result.amplitudes[0]) > 0)
    patterns = sector_eigenvalues(nz, result.n_sites)
    tracer.counts["dynamics.occupied_sectors"] += len({tuple(r) for r in patterns.tolist()})


def _generator_nnz(tracer, result):
    key = "liouvillian.generator_nnz"
    tracer.counts[key] = max(tracer.counts[key], int(result.matrix.nnz))


def _block_dim(tracer, result):
    key = "sectors.block_dim"
    tracer.counts[key] = max(tracer.counts[key], int(result.dimension))


def _kappa_bytes(tracer, result):
    # kappa_all is cached: count each distinct returned tuple once
    if any(seen is result for seen in tracer.kappa_seen):
        return
    tracer.kappa_seen.append(result)
    tracer.counts["kappa.kappa_all.bytes"] += sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in result[1:]
    )


OBSERVERS = {
    "dynamics.evolve": _occupied_sectors,
    "liouvillian.build_liouvillian_direct": _generator_nnz,
    "liouvillian.build_liouvillian_thirdq": _generator_nnz,
    "sectors.restrict_liouvillian": _block_dim,
    "kappa.kappa_all": _kappa_bytes,
}


class Tracer:
    """Span recorder for one process; spans stay in memory until `write`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.kappa_seen: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                self.call("trace.count", observe, self, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in TRACED wherever an lmem module binds it."""
        for layer in TRACED:
            importlib.import_module(f"lmem.{layer}")
        modules = [m for k, m in sys.modules.items() if k == "lmem" or k.startswith("lmem.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"lmem.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def function_names() -> list[str]:
    return [f"{layer}.{f}" for layer, names in TRACED.items() for f in names]


TRACED_SET = frozenset(function_names())


def summarize(trace: dict) -> dict:
    """Per-function and per-layer self time and call counts from a span dump."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {f"{layer}.self_s": 0.0 for layer in TRACED}
    for fname in function_names():
        out[f"{fname}.self_s"] = 0.0
        out[f"{fname}.calls"] = 0
    for (name, start, end, _), inner in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        own = (end - start) - inner
        if name in TRACED_SET:
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
        if layer in TRACED:
            out[f"{layer}.self_s"] += own
    out.update(trace["counts"])
    return out
