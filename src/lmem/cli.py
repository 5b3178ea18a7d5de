"""Reproducible experiment driver.

    lmem run <config.json> [--jobs K] [--out DIR]
    lmem verify [config.json] [--jobs K] [--out DIR]

A config names one experiment and its parameters; every run writes
plot-ready CSV files (17 significant digits, lossless for doubles) plus a
metadata.json echoing the full configuration, seed, tolerances, and method
tags, so identical configs rerun to bit-identical outputs.

Experiments:

* fig3a          ratio invariance of paired observables on a bulk-edge
                 product state vs a non-product deformation
* fig3b          ratio robustness under seeded random symmetry-preserving
                 perturbations, with and without the transverse field
* fig4-purity    exact purity vs the slow-mode truncation along a
                 dissipative trajectory
* fig4-spectrum  sector spectrum scan over dissipation with exceptional
                 point flags
* sector-census  sector table: labels, dimensions, broken-chain segments,
                 optional per-sector spectra
* oracle-suite   cross-construction equivalence and symmetry checks
                 (also exposed as `lmem verify`)

The dense-matrix site cap honors the LMEM_DENSE_LIMIT environment variable.
A config that fails validation, or that the experiment rejects, ends the
command with one `lmem: error: <message>` line on stderr and exit status 2;
status 1 means a failed oracle check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    EP_COND_THRESHOLD,
    EP_GAP_TOL,
    MemoryBudgetError,
    check_physical_initial_state,
    evolve,
    exceptional_point_scan,
    physicality_report,
)
from .edge import (
    ProductStateSpec,
    edge_factorization_test,
    product_state_operator,
    purity_series,
    ratio_trace,
)
from .fock import LiouvilleVector, vectorize_operator
from .model import ModelParams, random_perturbed_params
from .pauli import OperatorSum, PauliString, SizeLimitError, parity_word
from .sectors import (
    SectorLabel,
    all_sector_labels,
    broken_chain_segments,
    compose_segment_spectra,
    enumerate_sector_basis,
    sorted_spectrum,
)
from .verify import oracle_report

EXPERIMENTS = (
    "fig3a",
    "fig3b",
    "fig4-purity",
    "fig4-spectrum",
    "sector-census",
    "oracle-suite",
)

_CONFIG_FIELDS = {
    "experiment",
    "model",
    "time_grid",
    "gamma_scan",
    "sector",
    "output_dir",
    "seed",
    "zeta",
    "bulk_amplitude",
    "nonproduct_amplitudes",
    "edge_state_amplitude",
    "n_draws",
    "transverse_values",
    "max_n_sites",
    "with_spectra",
    "rtol",
}


class ConfigError(ValueError):
    pass


class ExperimentConfig:
    """Validated experiment description."""

    def __init__(self, data: dict):
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        exp = data.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {exp!r}"
            )
        self.experiment = exp
        self.raw = dict(data)
        self.seed = int(data.get("seed", 0))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got seed={self.seed}")
        self.output_dir = Path(data.get("output_dir", "lmem-out"))
        self.zeta = float(data.get("zeta", 0.5))
        self.bulk_amplitude = float(data.get("bulk_amplitude", 0.1))
        self.nonproduct_amplitudes = tuple(
            float(v) for v in data.get("nonproduct_amplitudes", (0.05, 0.05))
        )
        self.edge_state_amplitude = float(data.get("edge_state_amplitude", 0.3))
        self.n_draws = int(data.get("n_draws", 10))
        self.transverse_values = [float(v) for v in data.get("transverse_values", (0.0, 2.0))]
        self.max_n_sites = int(data.get("max_n_sites", 4))
        if self.n_draws < 1:
            raise ConfigError(f"n_draws must be >= 1, got n_draws={self.n_draws}")
        if not self.transverse_values:
            raise ConfigError("transverse_values must list at least one value, got []")
        if self.max_n_sites < 2:
            raise ConfigError(f"max_n_sites must be >= 2, got max_n_sites={self.max_n_sites}")
        self.with_spectra = bool(data.get("with_spectra", False))
        # accepted so that existing configs load; the exact propagator has
        # no tolerance to set, so it does not affect any result
        self.rtol = float(data.get("rtol", 1e-10))

        if exp != "oracle-suite" or "model" in data:
            if "model" not in data:
                raise ConfigError(f"experiment {exp!r} requires a model block")
            self.model = ModelParams.from_dict(data["model"])
        else:
            self.model = None

        tg = data.get("time_grid", {"t_max": 10.0, "n_samples": 51})
        if set(tg) - {"t_max", "n_samples"}:
            raise ConfigError("time_grid accepts only t_max and n_samples")
        self.t_max = float(tg.get("t_max", 10.0))
        self.n_samples = int(tg.get("n_samples", 51))
        if not (np.isfinite(self.t_max) and self.t_max >= 0) or self.n_samples < 2:
            raise ConfigError(
                "time_grid requires a finite t_max >= 0 and n_samples >= 2, "
                f"got time_grid.t_max={self.t_max}, n_samples={self.n_samples}"
            )

        gs = data.get("gamma_scan", {"gamma_min": 0.5, "gamma_max": 4.0, "n_points": 36})
        if set(gs) - {"gamma_min", "gamma_max", "n_points"}:
            raise ConfigError("gamma_scan accepts only gamma_min, gamma_max, n_points")
        self.gamma_scan = (
            float(gs.get("gamma_min", 0.5)),
            float(gs.get("gamma_max", 4.0)),
            int(gs.get("n_points", 36)),
        )
        lo, hi, k = self.gamma_scan
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi) or k < 2:
            raise ConfigError(
                "gamma_scan needs finite gamma_min <= gamma_max and n_points >= 2, "
                f"got gamma_scan=({lo}, {hi}, {k})"
            )

        self.sector = data.get("sector")
        if self.sector is not None:
            self.sector = SectorLabel.from_string(self.sector)
            if self.model is not None and self.sector.n_sites != self.model.n_sites:
                raise ConfigError(
                    f"sector needs one sign per bond, {self.model.n_sites - 1} for "
                    f"n_sites={self.model.n_sites}, got sector={data['sector']!r}"
                )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls(json.load(fh))

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_samples)

    def gamma_values(self) -> np.ndarray:
        lo, hi, k = self.gamma_scan
        return np.linspace(lo, hi, k)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_metadata(outdir: Path, config: ExperimentConfig, extra: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": f"lmem-{__version__}",
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config.raw,
        "basis_convention": "majorana-canonical",
    }
    meta.update(extra)
    with open(outdir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# shared state builders
# ---------------------------------------------------------------------------


def interior_word_family(n: int) -> list[PauliString]:
    """xx bonds and z fields on interior sites: the paired-ratio observables."""
    out = []
    for j in range(2, n):
        out.append(PauliString.single(n, j, "X").mul(PauliString.single(n, j + 1, "X")))
        out.append(PauliString.single(n, j, "Z"))
    return out


def ratio_observables(n: int):
    x1 = OperatorSum(n, [(1.0, w) for w in interior_word_family(n)])
    x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
    return x1, x2


def product_initial_state(n: int, zeta: float, amplitude: float) -> OperatorSum:
    spec = ProductStateSpec(
        zeta=zeta, a_terms=[(amplitude, w) for w in interior_word_family(n)]
    )
    return product_state_operator(spec, n)


def nonproduct_initial_state(
    n: int, zeta: float, amplitude: float, deform: tuple[float, float]
) -> OperatorSum:
    """Product bulk plus two wrong-bracket admixtures.

    The sz_1 piece is invisible to the interior observables (its sector
    never overlaps them); the sx_1 sy_2 piece shares the sector of sz_2 and
    makes the broken factorization show up in the ratio.
    """
    minus = OperatorSum.identity(n) - OperatorSum.from_pauli(parity_word(n), zeta)
    sxsy = PauliString.single(n, 1, "X").mul(PauliString.single(n, 2, "Y"))
    deformation = OperatorSum(n, [(deform[0], PauliString.single(n, 1, "Z")), (deform[1], sxsy)]) @ minus
    return product_initial_state(n, zeta, amplitude) + deformation.scaled(2.0 ** -n)


def edge_occupied_state(n: int, zeta: float, amplitude: float) -> OperatorSum:
    """State with weight in the uniform sector and the first broken-bond
    sector: [I + amp * M (sz1 + sy1 sx2 + sy1 sx3 + sz1 sx2 sx3)](I + zeta M) / 2^N."""
    if n < 3:
        raise ConfigError("edge-occupied state requires n_sites >= 3")
    ident = OperatorSum.identity(n)
    m = OperatorSum.from_pauli(parity_word(n))
    words = [
        PauliString.single(n, 1, "Z"),
        PauliString.single(n, 1, "Y").mul(PauliString.single(n, 2, "X")),
        PauliString.single(n, 1, "Y").mul(PauliString.single(n, 3, "X")),
        PauliString.single(n, 1, "Z")
        .mul(PauliString.single(n, 2, "X"))
        .mul(PauliString.single(n, 3, "X")),
    ]
    bulk = m @ OperatorSum(n, [(amplitude, w) for w in words])
    return ((ident + bulk) @ (ident + m.scaled(zeta))).scaled(2.0 ** -n)


def _initial_amplitudes(op: OperatorSum, setting: str) -> LiouvilleVector:
    """Vectorize op once, symbolically, and check that vector as a density
    matrix on its nonzero support (`check_physical_initial_state`); a failure
    raises a ConfigError naming `setting`, or n_sites beyond the dense cap."""
    rho = vectorize_operator(op)
    try:
        check_physical_initial_state(rho)
    except SizeLimitError as exc:
        raise ConfigError(f"initial-state check at n_sites={op.n_sites}: {exc}; reduce n_sites") from exc
    except ValueError as exc:
        raise ConfigError(f"{exc}; reduce {setting}") from exc
    return rho


def _evolve(rho0: LiouvilleVector, params: ModelParams, t_grid: np.ndarray):
    """`evolve`; a full-space run beyond the memory budget raises a ConfigError
    naming the setting to reduce."""
    try:
        return evolve(rho0, params, t_grid)
    except MemoryBudgetError as exc:
        raise ConfigError(f"{exc}; reduce {exc.setting}") from exc


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_fig3a(config: ExperimentConfig, outdir: Path) -> dict:
    """Paired-observable ratio along product and non-product trajectories."""
    params = config.model
    n = params.n_sites
    if n % 2:
        raise ConfigError("fig3a uses an even number of sites")
    zeta = config.zeta
    x1, x2 = ratio_observables(n)
    t_grid = config.time_grid()

    rho_prod = _initial_amplitudes(
        product_initial_state(n, zeta, config.bulk_amplitude), "bulk_amplitude or |zeta|"
    )
    rho_nonp = _initial_amplitudes(
        nonproduct_initial_state(n, zeta, config.bulk_amplitude, config.nonproduct_amplitudes),
        "nonproduct_amplitudes",
    )

    results = {}
    for tag, rho0 in (("product", rho_prod), ("nonproduct", rho_nonp)):
        res = _evolve(rho0, params, t_grid)
        tr = ratio_trace(x1, x2, res)
        fac = edge_factorization_test(rho0)
        write_csv(
            outdir / f"fig3a_{tag}.csv",
            ["gamma_t" if res.time_unit == "1/gamma" else "t", "x1", "x2", "ratio"],
            zip(tr.times, tr.x1, tr.x2, tr.values),
        )
        results[tag] = {
            "factorized": fac.factorized,
            "ratio_initial": float(tr.values[0]),
            "max_drift": tr.max_drift,
            "guarded_samples": int(tr.guarded.sum()),
            "physicality": physicality_report(res),
            "method_tag": res.method_tag,
        }
    results["ratio_expected"] = 1.0 / zeta
    write_metadata(
        outdir,
        config,
        {
            "observables": {
                "x1_terms": [w.to_label() for w in interior_word_family(n)],
                "x2": "x1 times total parity",
            },
            "evolution": "exact Taylor-step propagation (Al-Mohy-Higham) on the occupied closed block",
            "results": results,
        },
    )
    return results


def run_fig3b(config: ExperimentConfig, outdir: Path) -> dict:
    """Seeded random symmetry-preserving perturbations, u = 0 vs u != 0."""
    params = config.model
    n = params.n_sites
    zeta = config.zeta
    t_grid = config.time_grid()
    # one counted seed stream: draw k of every u uses the same seed
    draw_seeds = [int(s) for s in np.random.SeedSequence(config.seed).generate_state(config.n_draws)]
    rho0 = _initial_amplitudes(
        product_initial_state(n, zeta, config.bulk_amplitude), "bulk_amplitude or |zeta|"
    )
    x1, x2 = ratio_observables(n)

    summary_rows = []
    per_draw = {}
    worst_phys = {"max_trace_deviation": 0.0, "max_hermiticity_defect": 0.0, "max_negative_eigenvalue": 0.0}
    evolution = {}
    for u in config.transverse_values:
        for k, ds in enumerate(draw_seeds):
            res = _evolve(rho0, random_perturbed_params(n, u=u, rng_seed=ds), t_grid)
            tr = ratio_trace(x1, x2, res)
            phys = physicality_report(res)
            evolution[f"u={u:g}"] = res.method_tag
            write_csv(
                outdir / f"fig3b_u{u:g}_draw{k:02d}.csv",
                ["t", "x1", "x2", "ratio"],
                zip(tr.times, tr.x1, tr.x2, tr.values),
            )
            summary_rows.append((u, k, tr.values[0], tr.max_drift))
            per_draw.setdefault(f"u={u:g}", []).append(
                {"draw": k, "seed": ds, "ratio_initial": float(tr.values[0]), "max_drift": tr.max_drift}
            )
            for key in worst_phys:
                worst_phys[key] = max(worst_phys[key], phys[key])
    write_csv(
        outdir / "fig3b_summary.csv",
        ["u", "draw", "ratio_initial", "max_drift"],
        summary_rows,
    )
    results = {
        "draws": per_draw,
        "physicality": worst_phys,
        "ratio_expected": 1.0 / zeta,
        "time_unit": "absolute",
    }
    write_metadata(outdir, config, {"results": results, "evolution": evolution})
    return results


def run_fig4_purity(config: ExperimentConfig, outdir: Path) -> dict:
    """Exact purity vs the slow-mode truncation on a dissipative trajectory."""
    params = config.model
    n = params.n_sites
    zeta = config.zeta
    rho0 = _initial_amplitudes(
        edge_occupied_state(n, zeta, config.edge_state_amplitude), "edge_state_amplitude or |zeta|"
    )
    t_grid = config.time_grid()
    res = _evolve(rho0, params, t_grid)

    exact, approx, corr = purity_series(res)
    rel_errors = np.abs(approx - exact) / exact
    write_csv(
        outdir / "fig4_purity.csv",
        ["gamma_t" if res.time_unit == "1/gamma" else "t", "purity_exact", "purity_approx", "rel_error", "edge_correlation"],
        zip(res.times, exact, approx, rel_errors, corr),
    )
    # the first sample from which the truncation stays within 5%
    above = np.flatnonzero(~(rel_errors < 0.05))
    first = above[-1] + 1 if above.size else 0
    threshold = float(res.times[first]) if first < len(res) else None
    results = {
        "rel_error_initial": float(rel_errors[0]),
        "rel_error_final": float(rel_errors[-1]),
        "threshold_gamma_t_5pct": threshold,
        "physicality": physicality_report(res),
    }
    write_metadata(
        outdir,
        config,
        {
            "results": results,
            "approximation": "truncated word family {I, M, sz1, sy1 sx2} + parity partners",
            "evolution": res.method_tag,
        },
    )
    return results


def run_fig4_spectrum(config: ExperimentConfig, outdir: Path) -> dict:
    """Sector spectrum scan over dissipation with exceptional-point flags."""
    params = config.model
    n = params.n_sites
    if not params.is_unperturbed():
        raise ConfigError(
            "fig4-spectrum scans the unperturbed model only; "
            "set field_b, transverse_u and bond_dissipation to zero"
        )
    sector = config.sector
    if sector is None:
        p = [1] * (n - 1)
        if n >= 3:
            p[1] = -1
        sector = SectorLabel(tuple(p))
    gammas = config.gamma_values()

    try:
        points = exceptional_point_scan(params, gammas, sector)
    except SizeLimitError as exc:
        raise ConfigError(
            f"sector={sector.to_string()!r} at n_sites={n}: {exc}; "
            "choose a sector with shorter broken-chain segments"
        ) from exc

    rows = []
    for pt in points:
        lam = sorted_spectrum(pt.eigenvalues)
        for i, ev in enumerate(lam):
            rows.append((pt.gamma, i, ev.real, ev.imag, pt.min_gap, pt.condition_number, pt.exceptional))
    write_csv(
        outdir / "fig4_spectrum.csv",
        ["gamma", "index", "re", "im", "min_gap", "eigvec_cond", "ep_flag"],
        rows,
    )
    flagged = [pt.gamma for pt in points if pt.exceptional]
    results = {
        "sector": sector.to_string(),
        "block_dimension": int(2 ** (n + 1)),
        "flagged_gammas": flagged,
        "max_condition_number": max(pt.condition_number for pt in points),
        "grid_step": float(gammas[1] - gammas[0]) if len(gammas) > 1 else 0.0,
    }
    write_metadata(
        outdir,
        config,
        {
            "results": results,
            "ep_criteria": {"gap_tol": EP_GAP_TOL, "cond_threshold": EP_COND_THRESHOLD},
        },
    )
    return results


def run_sector_census(config: ExperimentConfig, outdir: Path) -> dict:
    """Sector table with dimensions and broken-chain segments."""
    params = config.model
    n = params.n_sites
    if config.with_spectra and not params.is_unperturbed():
        raise ConfigError(
            "sector-census with_spectra needs the unperturbed model; set field_b, "
            "transverse_u and bond_dissipation to zero, or with_spectra to false"
        )
    rows = []
    spectra_rows = []
    for lab in all_sector_labels(n):
        basis = enumerate_sector_basis(lab, n)
        segs = broken_chain_segments(lab)
        rows.append(
            (lab.to_string(), basis.size, len(segs), " ".join(f"{a}-{b}" for a, b in segs))
        )
        if config.with_spectra:
            try:
                lam, _ = compose_segment_spectra(lab, params)
            except SizeLimitError as exc:
                raise ConfigError(
                    f"with_spectra at n_sites={n}: {exc}; reduce n_sites or set with_spectra to false"
                ) from exc
            for i, ev in enumerate(sorted_spectrum(lam)):
                spectra_rows.append((lab.to_string(), i, ev.real, ev.imag))
    write_csv(outdir / "sector_census.csv", ["label", "dimension", "n_segments", "segments"], rows)
    if spectra_rows:
        write_csv(
            outdir / "sector_spectra.csv", ["label", "index", "re", "im"],
            spectra_rows,
        )
    results = {
        "n_sectors": len(rows),
        "block_dimension": int(2 ** (n + 1)),
        "total_dimension": int(4 ** n),
    }
    write_metadata(outdir, config, {"results": results})
    return results


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------


def run_oracle_suite(
    config: ExperimentConfig, outdir: Path, flip_kappa_sign: bool = False
) -> dict:
    """Machine-readable equivalence report; nonzero exit on any failure."""
    report = oracle_report(config.max_n_sites, config.seed, flip_kappa_sign)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "oracle_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_metadata(
        outdir,
        config,
        {"results": {"all_passed": report["all_passed"], "n_checks": len(report["checks"])}},
    )
    return report


def _print_checks(report: dict) -> None:
    """One [pass]/[FAIL] line per oracle check."""
    for chk in report["checks"]:
        status = "pass" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['name']} (N={chk['n_sites']}): {chk['max_deviation']:.3e} < {chk['tolerance']:.0e}")


_RUNNERS = {
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig4-purity": run_fig4_purity,
    "fig4-spectrum": run_fig4_spectrum,
    "sector-census": run_sector_census,
    "oracle-suite": run_oracle_suite,
}


def run_experiment(config: ExperimentConfig, outdir: Path | None = None, jobs: int = 1, **kw):
    """Run config's experiment; jobs is accepted for compatibility and ignored."""
    outdir = Path(outdir) if outdir is not None else config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[config.experiment](config, outdir, **kw)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _default_verify_config() -> ExperimentConfig:
    return ExperimentConfig({"experiment": "oracle-suite", "max_n_sites": 4, "seed": 0})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lmem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a JSON config")
    p_run.add_argument("config", type=Path)
    p_ver = sub.add_parser("verify", help="run the cross-construction oracle suite")
    p_ver.add_argument("config", type=Path, nargs="?", default=None)
    for p in (p_run, p_ver):
        p.add_argument(
            "--jobs", type=int, default=1, help="accepted for compatibility; ignored, runs are serial"
        )
        p.add_argument("--out", type=Path, default=None, help="override output directory")
    p_ver.add_argument(
        "--debug-flip-kappa-sign",
        action="store_true",
        help="negate the odd Majorana sign convention; the reconstruction check must then fail",
    )

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        # a bad config is a usage error, exit status 2 as argparse's; 1 is a failed oracle check
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        config = ExperimentConfig.from_file(args.config)
        results = run_experiment(config, outdir=args.out)
        if config.experiment == "oracle-suite":
            _print_checks(results)
            return 0 if results["all_passed"] else 1
        print(json.dumps({"experiment": config.experiment, "results": results}, indent=2, default=_json_default))
        return 0

    # verify
    config = ExperimentConfig.from_file(args.config) if args.config is not None else None
    if config is None or config.experiment != "oracle-suite":
        config = _default_verify_config()
    report = run_experiment(config, outdir=args.out, flip_kappa_sign=args.debug_flip_kappa_sign)
    _print_checks(report)
    if args.debug_flip_kappa_sign:
        failed_names = {c["name"] for c in report["checks"] if not c["passed"]}
        if "kitaev-sector-reconstruction" in failed_names:
            print("sign-flip mutation detected by the reconstruction check, as intended")
            return 1
        print("ERROR: sign-flip mutation was not detected")
        return 2
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
