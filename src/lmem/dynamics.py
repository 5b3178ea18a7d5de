"""Time evolution, expectation values, and spectral analysis.

States are carried as Liouville amplitude vectors and evolve under
i d|rho>/dt = L |rho>, L being the direct build for every model (the
third-quantized form is its oracle). Two methods are cross-validated:

* "expm" (default): the exact action of exp(-i L t) on the state by
  truncated Taylor steps (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
  (2011), Algorithm 3.2). The generator is shifted by its mean diagonal;
  for each interval the degree m and the substep count s are chosen from
  the exact 1-norm and the double-precision theta_m table, and each
  substep stops its series once two terms fall below the unit roundoff.
  The steps hold three working vectors, and no random numbers are drawn.
  When the model commutes with every parity pair, L is restricted to the
  union of the sectors the state occupies; the other sectors carry no
  weight at any time.

* "eigen": dense eigendecomposition with biorthogonal left/right pairs,
  |rho(t)> = R exp(-i diag(lambda) t) R^{-1} |rho(0)>. The independent
  oracle for "expm"; unreliable exactly at defective (exceptional) points.

`physicality_report` certifies that a whole trajectory stays a density
matrix without a per-sample loop over dense matrices. The trace and
Hermiticity defects are reductions over the amplitude array. Positivity
is checked on the Hermitian part of each sample, rebuilt in chunks of
samples by the Walsh-Hadamard kernel `fock.dense_blocks`: when every
odd-degree amplitude of a chunk vanishes, rho commutes with the parity M
and splits into two 2^{N-1} blocks, otherwise the full matrices are
built. Each stack first goes to Cholesky; only a stack it rejects goes to
`eigvalsh`, so a sample that is not positive definite still reports its
least eigenvalue, while one Cholesky accepts reports 0.
`check_physical_initial_state` uses the same Cholesky-first test.

Spectral reports check the structural facts every Lindblad generator obeys:
eigenvalues in the closed lower half plane, anti-conjugate pairing
{lambda, -conj(lambda)}, and tracelessness of decaying eigenmatrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError, cholesky, eigvalsh
from scipy.spatial import cKDTree

from .fock import (
    LiouvilleVector,
    _hermiticity_defect,
    as_amplitudes,
    dense_blocks,
    devectorize,
    hermitian_part,
    liouville_inner,
    parity_values,
    row_chunks,
    site_count,
)
from .liouvillian import build_liouvillian_direct
from .model import ModelParams
from .sectors import (
    SectorLabel,
    compose_segment_spectra,
    match_spectra,
    sector_eigenvalues,
    spectral_order,
)


@dataclass
class EvolutionResult:
    """Sampled trajectory of Liouville amplitude vectors."""

    n_sites: int
    times: np.ndarray  # in the tagged unit
    amplitudes: np.ndarray  # shape (len(times), 4^N)
    method_tag: str
    time_unit: str  # "1/gamma" or "absolute"
    matvecs: int = 0  # sparse matrix-vector products performed

    def state(self, k: int) -> LiouvilleVector:
        return LiouvilleVector(self.n_sites, self.amplitudes[k])

    def density_matrix(self, k: int) -> np.ndarray:
        return devectorize(self.amplitudes[k], self.n_sites)

    def __len__(self):
        return len(self.times)


def _lowest_eigenvalue(stack: np.ndarray) -> float | None:
    """None when Cholesky accepts every matrix of the stack, which makes each
    positive definite; otherwise the least eigenvalue in the stack.

    Both factorizations read the lower triangle only. `eigvalsh` runs only
    on a stack that Cholesky rejects, so a sample that is not positive
    definite still reports its eigenvalue.
    """
    try:
        cholesky(stack)
    except LinAlgError:
        return float(eigvalsh(stack).min())
    return None


def check_physical_initial_state(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Unit trace, Hermiticity, positive semidefiniteness."""
    tr = np.trace(rho)
    if abs(tr - 1) > tol:
        raise ValueError(f"initial state trace {tr} is not 1")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("initial state is not Hermitian")
    lam = _lowest_eigenvalue(rho)
    if lam is not None and lam < -tol:
        raise ValueError(f"initial state has negative eigenvalue {lam:.3e}")


def _eigen_evolve(matrix, v0, t_phys) -> np.ndarray:
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    lam, R = np.linalg.eig(dense)
    g = np.linalg.solve(R, v0)
    phases = np.exp(-1j * np.outer(t_phys, lam))
    return (phases * g) @ R.T


# theta_m of Al-Mohy & Higham (2011), Table 3.1, for the unit roundoff
# 2^-53: a degree-m Taylor step of h A is accurate when ||h A||_1 <= theta_m
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_DEGREES = np.array(list(_THETA))
_THETAS = np.array(list(_THETA.values()))
_UNIT_ROUNDOFF = 2.0 ** -53


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Degree m and substep count s = ceil(norm / theta_m) minimising m * s."""
    steps = np.maximum(np.ceil(norm / _THETAS), 1.0)
    k = int(np.argmin(_DEGREES * steps))
    return int(_DEGREES[k]), int(steps[k])


def _propagate(A, v0: np.ndarray, t_phys: np.ndarray, out: np.ndarray, cols=slice(None)) -> int:
    """Write exp(A t) v0 to out[k, cols] for each t_phys[k]; return the matvecs.

    t_phys is nondecreasing with t_phys[0] >= 0. Each interval is stepped
    from the previous sample, so a repeated time costs nothing.
    """
    dim = A.shape[0]
    mu = A.diagonal().sum() / dim
    A = (A - mu * sp.identity(dim, dtype=complex, format="csr")).tocsr()
    norm = float(abs(A).sum(axis=0).max())
    v = v0.astype(complex)
    matvecs = 0
    t_prev = 0.0
    for k, t in enumerate(t_phys):
        dt, t_prev = t - t_prev, t
        if dt > 0:
            m, s = _taylor_plan(dt * norm)
            h = dt / s
            eta = np.exp(mu * h)
            for _ in range(s):
                f = v.copy()
                b = v
                c1 = np.abs(b).max()
                for j in range(1, m + 1):
                    b = A @ b
                    b *= h / j
                    f += b
                    matvecs += 1
                    c2 = np.abs(b).max()
                    if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(f).max():
                        break
                    c1 = c2
                f *= eta
                v = f
        out[k, cols] = v
    return matvecs


def _occupied_indices(v0: np.ndarray, n_sites: int) -> np.ndarray:
    """Basis indices of the union of the parity-pair sectors v0 occupies."""
    weights = 1 << np.arange(n_sites - 1)
    codes = (1 - sector_eigenvalues(np.arange(v0.size), n_sites)) // 2 @ weights
    # a zero state keeps one sector, so the restricted block is never empty
    occupied = codes[np.flatnonzero(v0)] if v0.any() else codes[:1]
    return np.flatnonzero(np.isin(codes, occupied))


def _check_time_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a nonempty 1-D array")
    bad = t_grid[~np.isfinite(t_grid)]
    if bad.size:
        raise ValueError(f"t_grid holds the non-finite time {bad[0]}")
    if t_grid.min() < 0:
        raise ValueError(
            f"t_grid holds the negative time {t_grid.min()}; "
            "a Lindblad generator evolves forward only"
        )
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be nondecreasing")
    return t_grid


def evolve(
    rho0,
    params: ModelParams,
    t_grid,
    method: str = "expm",
) -> EvolutionResult:
    """Evolve an initial state over t_grid under the direct generator.

    t_grid is a nondecreasing grid of finite times >= 0, repeats allowed,
    in units of 1/gamma when the dephasing rates are homogeneous and
    positive, absolute otherwise. rho0 may be a dense matrix, a
    LiouvilleVector, an OperatorSum or a raw amplitude vector; it is not
    checked for physicality (`check_physical_initial_state` does that).
    method "expm" (default) is the exact propagator, restricted to the
    occupied sectors whenever the model preserves the parity pairs;
    "eigen" is the eigen-expansion oracle.
    """
    n = params.n_sites
    t_grid = _check_time_grid(t_grid)
    if method not in ("expm", "eigen"):
        raise ValueError(f"unknown evolution method {method!r}; use 'expm' or 'eigen'")
    v0, _ = as_amplitudes(rho0, n)

    gamma = params.homogeneous_gamma()
    if gamma is not None:
        t_phys = t_grid / gamma
        unit = "1/gamma"
    else:
        t_phys = t_grid
        unit = "absolute"

    matrix = build_liouvillian_direct(params).matrix
    matvecs = 0
    if method == "eigen":
        amps = _eigen_evolve(matrix, v0, t_phys)
        tag = "eigen-expansion"
    else:
        amps = np.zeros((t_phys.size, v0.size), dtype=complex)
        if params.preserves_sectors():
            idx = _occupied_indices(v0, n)
            matvecs = _propagate(-1j * matrix[idx][:, idx], v0[idx], t_phys, amps, idx)
            tag = "taylor-sector"
        else:
            matvecs = _propagate(-1j * matrix, v0, t_phys, amps)
            tag = "taylor"
    return EvolutionResult(n, t_grid.copy(), amps, tag, unit, matvecs)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def expectation(X, state, n_sites: int | None = None) -> complex:
    """tr(X rho), evaluated as the Liouville inner product <<X|rho>>.

    X must be Hermitian for the inner-product form to equal tr(X rho);
    X and rho each take any form `fock.as_amplitudes` accepts.
    """
    sv, n = as_amplitudes(state, n_sites)
    return liouville_inner(X, sv, n)


def expectation_series(X, result: EvolutionResult) -> np.ndarray:
    xv, _ = as_amplitudes(X, result.n_sites)
    return 2 ** result.n_sites * (result.amplitudes @ np.conj(xv))


def physicality_report(result: EvolutionResult) -> dict:
    """Worst-case trace, Hermiticity, and positivity deviations on a trajectory.

    The trace and Hermiticity defects are array reductions over the
    amplitudes. Positivity is that of the Hermitian part of each sample,
    rebuilt by `fock.dense_blocks` in chunks of samples (`fock.row_chunks`).
    A chunk whose odd-degree amplitudes all vanish commutes with the parity
    M and is checked on its two 2^{N-1} parity blocks, otherwise on the
    full matrices. A sample Cholesky accepts counts as 0; the others report
    max(0, -lambda_min).
    """
    n = result.n_sites
    amps = result.amplitudes
    odd = parity_values(n) < 0
    worst_herm = 0.0
    worst_neg = 0.0
    for rows in row_chunks(len(amps), amps.shape[1]):
        part = hermitian_part(amps[rows], n)
        worst_herm = max(worst_herm, _hermiticity_defect(amps[rows], part))
        lam = _lowest_eigenvalue(dense_blocks(part, n, parity_blocks=not part[:, odd].any()))
        if lam is not None:
            worst_neg = max(worst_neg, -lam)
    return {
        # tr(rho) = 2^N c_0, as in `fock.vector_trace`
        "max_trace_deviation": float(np.abs(2 ** n * amps[:, 0] - 1.0).max()),
        "max_hermiticity_defect": worst_herm,
        "max_negative_eigenvalue": worst_neg,
    }


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray  # in canonical (imag, real) order
    pairing: list  # one (i, j) per paired i, with lambda_j ~ -conj(lambda_i)
    unpaired: list  # indices i left without a partner
    max_imag: float
    trace_defects: np.ndarray  # |tr rho_m| for decaying modes, 0 elsewhere


def spectrum_analysis(
    matrix,
    n_sites: int | None = None,
    pair_tol: float = 1e-9,
    basis_indices: np.ndarray | None = None,
) -> SpectrumReport:
    """Eigenvalues with anti-conjugate pairing and structural checks.

    The pairing is `match_spectra` of the spectrum against its image under
    lambda -> -conj(lambda): a full match is the anti-conjugate symmetry.
    For a sector block pass basis_indices so eigenvectors embed into the
    full space for the trace check.
    """
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    lam, R = np.linalg.eig(dense)
    order = spectral_order(lam)
    lam, R = lam[order], R[:, order]

    pairing = match_spectra(lam, -np.conj(lam), pair_tol)
    unpaired = sorted(set(range(lam.size)) - {i for i, _ in pairing})

    if n_sites is None:
        if basis_indices is not None:
            raise ValueError("n_sites required with basis_indices")
        n_sites = site_count(dense.shape[:1])
    # trace of an eigenmatrix is 2^N times its empty-word amplitude
    empty_word = [0] if basis_indices is None else np.flatnonzero(basis_indices == 0)
    decaying = lam.imag < -1e-9
    trace_defects = np.zeros(lam.size)
    if len(empty_word):
        trace_defects[decaying] = np.abs(
            2 ** n_sites * R[empty_word[0], decaying] / np.linalg.norm(R[:, decaying], axis=0)
        )

    return SpectrumReport(
        eigenvalues=lam,
        pairing=pairing,
        unpaired=unpaired,
        max_imag=float(lam.imag.max()) if lam.size else 0.0,
        trace_defects=trace_defects,
    )


# ---------------------------------------------------------------------------
# exceptional-point scan
# ---------------------------------------------------------------------------


# exceptional-point criteria of `exceptional_point_scan`
EP_GAP_TOL = 1e-6
EP_COND_THRESHOLD = 1e6


@dataclass
class ScanPoint:
    gamma: float
    eigenvalues: np.ndarray
    min_gap: float
    condition_number: float
    exceptional: bool


def _scan_point(params_base: ModelParams, g: float, sector: SectorLabel) -> ScanPoint:
    """One gamma of `exceptional_point_scan`."""
    p = replace(params_base, dephasing_rates=np.full(params_base.n_sites, g))
    lam, cond = compose_segment_spectra(sector, p)
    if lam.size > 1:
        tree = cKDTree(np.column_stack([lam.real, lam.imag]))
        dists, _ = tree.query(np.column_stack([lam.real, lam.imag]), k=2)
        min_gap = float(dists[:, 1].min())
    else:
        min_gap = np.inf
    return ScanPoint(
        gamma=float(g),
        eigenvalues=lam,
        min_gap=min_gap,
        condition_number=cond,
        exceptional=bool(min_gap < EP_GAP_TOL and cond > EP_COND_THRESHOLD),
    )


def exceptional_point_scan(
    params_base: ModelParams, gamma_values, sector: SectorLabel
) -> list[ScanPoint]:
    """Sector-block spectra across a dissipation scan.

    At each gamma, every site's dephasing rate is set to gamma and the
    block spectrum and eigenvector condition number come from the
    broken-chain segments (`sectors.compose_segment_spectra`); that form
    holds for the unperturbed model only, and a perturbed params_base
    raises ValueError. A point is flagged exceptional when two
    eigenvalues coalesce within EP_GAP_TOL and the eigenvector matrix
    condition number exceeds EP_COND_THRESHOLD; the condition number
    distinguishes a defective coalescence from an ordinary degeneracy.
    """
    return [_scan_point(params_base, g, sector) for g in np.asarray(gamma_values, dtype=float)]


def isolated_pair_branches(J: float, gamma: float) -> np.ndarray:
    """Closed-form eigenvalues of one coupled Majorana pair inside a broken
    chain: -2i gamma +/- 2 sqrt(J^2 - gamma^2) and -2i gamma +/- 2J.

    The first branch pair merges at gamma = J, the exceptional point.
    """
    root = np.sqrt(complex(J * J - gamma * gamma))
    return np.array(
        [
            -2j * gamma + 2 * root,
            -2j * gamma - 2 * root,
            -2j * gamma + 2 * J,
            -2j * gamma - 2 * J,
        ]
    )
