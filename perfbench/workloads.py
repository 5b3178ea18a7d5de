"""Benchmark workloads: the lmem configs they run and the gate on their outputs.

Each workload is an `lmem run` config.  The configs are frozen here rather
than read from `configs/`, so that two commits are always measured on the
same inputs.  They are sized so that one child takes 1.5-5 s: the speed of
the 2-core VM they were tuned on drifts by up to +-25% over seconds to
minutes, and only the median of many children per run stays steady.

Child ``i`` of a run gets the config seed ``10 * seed + i % SUBSEEDS``.  The
cost of a fig3b draw varies by ~17% (RK45 steps), so a run of fig3b-n5 uses
a different set of ten draws in each child; at N=5 a draw costs a third of
one at N=6, so a run averages ~60 draws instead of ~20.  The other
workloads draw nothing at random; their seed is only echoed into
metadata.json.

The gate repeats the tolerances that tests/test_acceptance.py asserts and
compares the outputs with reference results stored in `reference/`.  The
x1/x2 series are compared, not the ratio column: in the fig3b u=2 draws
|x2| falls to ~1e-12 and the ratio to ~5e7, so the ratio's digits move with
any change of propagator.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SUBSEEDS = 8
REFERENCE_SEEDS = 16  # fig3b-n5 references are stored for benchmark seeds 0..15
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# tolerances from tests/test_acceptance.py
DRIFT_TOL = 1e-6  # frozen ratio drift; also the series tolerance below
NONPRODUCT_DRIFT = 0.01
PURITY_REL_ERROR = 0.05
PHYSICALITY_TOL = 1e-8
EP_COUPLING = 2.0

FIG3B_DRAWS = 10


def _model(n, coupling, rate):
    return {"n_sites": n, "couplings": [coupling] * (n - 1), "dephasing_rates": [rate] * n}


def _fig3a_n6():
    return {
        "experiment": "fig3a",
        "model": _model(6, 1.0, 1.0),
        "time_grid": {"t_max": 10.0, "n_samples": 41},
        "zeta": 0.5,
        "bulk_amplitude": 0.1,
        "nonproduct_amplitudes": [0.05, 0.05],
    }


def _fig3b_n5():
    return {
        "experiment": "fig3b",
        "model": _model(5, 1.0, 1.0),
        "time_grid": {"t_max": 5.0, "n_samples": 21},
        "zeta": 0.5,
        "bulk_amplitude": 0.1,
        "n_draws": FIG3B_DRAWS,
        "transverse_values": [0.0, 2.0],
    }


def _spectrum_n8():
    return {
        "experiment": "fig4-spectrum",
        "model": _model(8, 2.0, 1.0),
        # gamma = J = 2, the exceptional point, lies on the grid
        "gamma_scan": {"gamma_min": 0.5, "gamma_max": 4.0, "n_points": 8},
        "sector": "+-+++++",
    }


def _purity_n7():
    return {
        "experiment": "fig4-purity",
        "model": _model(7, 2.0, 3.0),
        "time_grid": {"t_max": 12.0, "n_samples": 49},
        "zeta": 0.4,
        "edge_state_amplitude": 0.3,
    }


CONFIGS = {
    "fig3a-n6": _fig3a_n6,
    "fig3b-n5": _fig3b_n5,
    "spectrum-n8": _spectrum_n8,
    "purity-n7": _purity_n7,
}


def config_seed(seed: int, child: int) -> int:
    return 10 * seed + child % SUBSEEDS


def make_config(workload: str, seed: int, child: int) -> dict:
    cfg = CONFIGS[workload]()
    cfg["seed"] = config_seed(seed, child)
    cfg["output_dir"] = "lmem-out"  # every child passes --out
    return cfg


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------


def read_csv(path: Path, columns) -> np.ndarray:
    """The named columns of an lmem CSV as a float array (rows, columns)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [header.index(c) for c in columns]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


def ratio_series(path: Path) -> np.ndarray:
    """(x1, x2) of a fig3a / fig3b trajectory CSV."""
    return read_csv(path, ["x1", "x2"])


def fig3b_series(outdir: Path, n_draws: int = FIG3B_DRAWS) -> np.ndarray:
    """All fig3b trajectories, shape (2 u values, n_draws, samples, 2)."""
    return np.stack(
        [
            np.stack([ratio_series(outdir / f"fig3b_u{u}_draw{k:02d}.csv") for k in range(n_draws)])
            for u in ("0", "2")
        ]
    )


def spectrum_table(outdir: Path):
    """(gammas, eigenvalues of shape (points, block dimension))."""
    data = read_csv(outdir / "fig4_spectrum.csv", ["gamma", "re", "im"])
    gammas = np.unique(data[:, 0])
    eig = (data[:, 1] + 1j * data[:, 2]).reshape(gammas.size, -1)
    return gammas, eig


PURITY_COLUMNS = ["purity_exact", "purity_approx", "edge_correlation"]


def read_outputs(workload: str, outdir: Path) -> dict:
    """The arrays of one run that the reference stores."""
    if workload == "fig3a-n6":
        return {tag: ratio_series(outdir / f"fig3a_{tag}.csv") for tag in ("product", "nonproduct")}
    if workload == "fig3b-n5":
        return {"series": fig3b_series(outdir)}
    if workload == "spectrum-n8":
        gammas, eig = spectrum_table(outdir)
        return {"gamma": gammas, "eig": eig}
    return {"series": read_csv(outdir / "fig4_purity.csv", PURITY_COLUMNS)}


def reference_key(workload: str, cfg_seed: int, name: str) -> str:
    """npz key: fig3b-n5 stores one entry per config seed."""
    return f"seed{cfg_seed}.{name}" if workload == "fig3b-n5" else name


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def _series_close(got: np.ndarray, ref: np.ndarray) -> bool:
    """Each column agrees to DRIFT_TOL of that column's largest magnitude."""
    if got.shape != ref.shape:
        return False
    scale = np.maximum(np.abs(ref).max(axis=-2, keepdims=True), 1e-300)
    return bool(np.all(np.abs(got - ref) <= DRIFT_TOL * scale))


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance in the best one-to-one matching of two eigenvalue lists.

    Near-degenerate eigenvalues legally swap places in a sorted list, so the
    lists are matched as multisets rather than position by position.
    """
    from scipy.optimize import linear_sum_assignment

    oa, ob = np.lexsort((a.imag, a.real)), np.lexsort((b.imag, b.real))
    direct = float(np.abs(a[oa] - b[ob]).max())
    if direct <= DRIFT_TOL * float(np.abs(b).max()):
        return direct
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _physicality(reports) -> list[str]:
    worst = max(max(r.values()) for r in reports)
    return [] if worst < PHYSICALITY_TOL else [f"physicality deviation {worst:.3e}"]


def check_invariants(workload: str, outdir: Path) -> list[str]:
    """Failures of the acceptance-test tolerances on metadata.json's results."""
    with open(outdir / "metadata.json") as fh:
        res = json.load(fh)["results"]
    bad = []
    if workload == "fig3a-n6":
        prod, nonp = res["product"], res["nonproduct"]
        if not prod["max_drift"] < DRIFT_TOL:
            bad.append(f"product drift {prod['max_drift']:.3e}")
        if not abs(prod["ratio_initial"] - 2.0) < DRIFT_TOL:
            bad.append(f"product ratio {prod['ratio_initial']!r}")
        if not (prod["factorized"] and not nonp["factorized"]):
            bad.append("factorization flags")
        if not nonp["max_drift"] > NONPRODUCT_DRIFT:
            bad.append(f"nonproduct drift {nonp['max_drift']:.3e}")
        bad += _physicality([prod["physicality"], nonp["physicality"]])
    elif workload == "fig3b-n5":
        u0 = [d["max_drift"] for d in res["draws"]["u=0"]]
        u2 = [d["max_drift"] for d in res["draws"]["u=2"]]
        if len(u0) != FIG3B_DRAWS or len(u2) != FIG3B_DRAWS:
            bad.append(f"expected {FIG3B_DRAWS} draws per u")
        elif not (max(u0) < DRIFT_TOL and min(u2) > NONPRODUCT_DRIFT):
            bad.append(f"u=0 drift {max(u0):.3e}, u=2 drift {min(u2):.3e}")
        bad += _physicality([res["physicality"]])
    elif workload == "spectrum-n8":
        step = res["grid_step"]
        if not any(abs(g - EP_COUPLING) <= step + 1e-12 for g in res["flagged_gammas"]):
            bad.append(f"no exceptional point near gamma=J: {res['flagged_gammas']}")
        if res["block_dimension"] != 512:
            bad.append(f"block dimension {res['block_dimension']}")
    else:
        if res["threshold_gamma_t_5pct"] is None or not res["rel_error_final"] < PURITY_REL_ERROR:
            bad.append(f"purity truncation rel error {res['rel_error_final']!r}")
        bad += _physicality([res["physicality"]])
    return bad


def _check_reference(workload: str, outdir: Path, cfg_seed: int, reference: dict) -> list[str]:
    if not has_reference(workload, cfg_seed, reference):
        return []
    got = read_outputs(workload, outdir)
    keys = {name: reference_key(workload, cfg_seed, name) for name in got}
    if workload != "spectrum-n8":
        return [f"{name} deviates from reference" for name, key in keys.items()
                if not _series_close(got[name], reference[key])]
    ref_eig = reference[keys["eig"]]
    if got["eig"].shape != ref_eig.shape or not np.allclose(got["gamma"], reference[keys["gamma"]]):
        return ["spectrum grid differs from reference"]
    bad = []
    for g, a, b in zip(got["gamma"], got["eig"], ref_eig):
        dist = multiset_distance(a, b)
        if dist > DRIFT_TOL * float(np.abs(b).max()):
            bad.append(f"spectrum at gamma={g:g} deviates by {dist:.3e}")
    return bad


def load_reference(workload: str) -> dict:
    with np.load(REFERENCE_DIR / f"{workload}.npz") as data:
        return dict(data)


def has_reference(workload: str, cfg_seed: int, reference: dict) -> bool:
    """False for a fig3b-n5 seed without stored results: invariants only."""
    return workload != "fig3b-n5" or f"seed{cfg_seed}.series" in reference


def check(workload: str, outdir: Path, cfg_seed: int, reference: dict) -> list[str]:
    """Reasons the outputs in outdir fail the gate; empty when they pass."""
    try:
        return check_invariants(workload, outdir) + _check_reference(
            workload, outdir, cfg_seed, reference
        )
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]
