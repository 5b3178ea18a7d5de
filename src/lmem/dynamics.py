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

  The state is propagated on the smallest closed block it occupies.
  Without a transverse field the Hamiltonian and every jump operator are
  quadratic in the Majoranas, so L keeps the degree of each monomial;
  when the model also commutes with every parity pair, it keeps the
  sector too. The block is the union of the (degree, sector) cells, or
  degree cells, that the initial amplitudes occupy, and L is assembled
  on it directly; only a transverse field makes the block the whole 4^N
  space. On the Hermitian basis h_a = i^{p_a} w^a (`fock.hermitian_powers`)
  the generator -i L is a real matrix, since L maps Hermitian operators
  to Hermitian ones: a Hermitian rho(0) propagates as one real vector and
  any other as two real columns. The result keeps the block's amplitudes
  only (`EvolutionResult.values`); the observables gather the columns
  they need, and `EvolutionResult.amplitudes` rebuilds the 4^N array for
  oracles and tests. A full-space run whose generator and trajectory
  would not fit in the memory the process may allocate raises
  `MemoryBudgetError` before anything is built.

* "eigen": dense eigendecomposition with biorthogonal left/right pairs,
  |rho(t)> = R exp(-i diag(lambda) t) R^{-1} |rho(0)>, on the whole
  space. The independent oracle for "expm"; unreliable exactly at
  defective (exceptional) points.

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
`check_physical_initial_state` runs the same routine on one state, held
as a one-sample trajectory on its nonzero amplitudes, so no run path
builds a Kronecker product of Pauli matrices.

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
    _PHASE_OF_POWER,
    LiouvilleVector,
    _bitcount,
    _hermiticity_defect,
    _index_range,
    as_amplitudes,
    dense_blocks,
    devectorize,
    gather_columns,
    hermitian_part,
    hermitian_powers,
    liouville_inner,
    row_chunks,
    scatter_columns,
    site_count,
    vector_trace,
)
from .liouvillian import build_liouvillian_direct
from .model import ModelParams, build_hamiltonian
from .sectors import (
    SectorLabel,
    compose_segment_spectra,
    match_spectra,
    spectral_order,
)


@dataclass
class EvolutionResult:
    """Sampled trajectory, kept as the amplitudes of the block it lives in.

    values[k, i] is the amplitude of w^{indices[i]} at times[k]; every
    other amplitude is zero at every sample. `amplitudes` is the full
    (T, 4^N) array for oracles and tests: values itself when the block is
    the whole space, otherwise a new array on each access.
    """

    n_sites: int
    times: np.ndarray  # in the tagged unit
    indices: np.ndarray  # sorted basis indices of the block
    values: np.ndarray  # shape (len(times), len(indices))
    method_tag: str
    time_unit: str  # "1/gamma" or "absolute"
    matvecs: int = 0  # sparse matrix-vector products performed

    @property
    def amplitudes(self) -> np.ndarray:
        return scatter_columns(self.values, self.indices, self.n_sites)

    def state(self, k: int) -> LiouvilleVector:
        return LiouvilleVector(self.n_sites, scatter_columns(self.values[k], self.indices, self.n_sites))

    def density_matrix(self, k: int) -> np.ndarray:
        return devectorize(scatter_columns(self.values[k], self.indices, self.n_sites), self.n_sites)

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


class PositivityError(ValueError):
    """A state has a negative eigenvalue."""


def check_physical_initial_state(state, n_sites: int | None = None, tol: float = 1e-10) -> None:
    """Unit trace, Hermiticity and positive semidefiniteness within tol of a
    state in any `fock.as_amplitudes` form, checked by `_physicality` as a
    one-sample trajectory on its nonzero amplitudes. A negative eigenvalue
    raises PositivityError, the other defects ValueError."""
    v, n = as_amplitudes(state, n_sites)
    support = np.union1d(0, np.flatnonzero(v))  # the empty word carries the trace
    report = _physicality(v[None, support], support, n)
    if report["max_trace_deviation"] > tol:
        raise ValueError(f"initial state trace {vector_trace(v, n)} is not 1")
    if report["max_hermiticity_defect"] > tol:
        raise ValueError("initial state is not Hermitian")
    if report["max_negative_eigenvalue"] > tol:
        lam = -report["max_negative_eigenvalue"]
        raise PositivityError(f"initial state has negative eigenvalue: minimum eigenvalue {lam:.3e}")


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


def _propagate(A, v0: np.ndarray, t_phys: np.ndarray, out: np.ndarray) -> int:
    """Write exp(A t) v0 to out[k] for each t_phys[k]; return the matvecs.

    A and v0 may be real or complex, and v0 one vector or a stack of
    columns. t_phys is nondecreasing with t_phys[0] >= 0. Each interval is
    stepped from the previous sample, so a repeated time costs nothing.
    A series stops once two terms fall below the unit roundoff times
    ||f||_inf. bound = sum_j ||b_j||_inf is at least ||f||_inf, so
    ||f||_inf is only computed once the two terms fall below twice the
    unit roundoff times bound (the factor 2 covers the rounding of bound);
    the decisions are those of the plain test.
    """
    dim = A.shape[0]
    mu = A.diagonal().sum() / dim
    A = (A - mu * sp.identity(dim, dtype=A.dtype, format="csr")).tocsr()
    norm = float(abs(A).sum(axis=0).max())
    v = v0.astype(np.result_type(A.dtype, v0.dtype))
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
                c1 = bound = np.abs(b).max()
                for j in range(1, m + 1):
                    b = A @ b
                    b *= h / j
                    f += b
                    matvecs += 1
                    c2 = np.abs(b).max()
                    bound += c2
                    tail = c1 + c2
                    if tail <= 2 * _UNIT_ROUNDOFF * bound and tail <= _UNIT_ROUNDOFF * np.abs(f).max():
                        break
                    c1 = c2
                f *= eta
                v = f
        out[k] = v
    return matvecs


def _occupied_indices(v0: np.ndarray, n_sites: int, sectors: bool) -> np.ndarray:
    """Basis indices of the union of the cells v0 occupies. A cell is one
    Majorana degree, and with `sectors` one parity-pair sector within it."""
    idx = _index_range(2 * n_sites)
    cells = _bitcount(idx) << (2 * n_sites)
    if sectors:
        # bit 2j - 1 of a ^ (a >> 1) is 1 where a_{2j} != a_{2j+1}, i.e. p_j = -1
        pair_bits = sum(1 << (2 * j - 1) for j in range(1, n_sites))
        cells |= (idx ^ (idx >> 1)) & pair_bits
    # a zero state keeps one cell, so the block is never empty
    occupied = cells[np.flatnonzero(v0)] if v0.any() else cells[:1]
    return np.flatnonzero(np.isin(cells, occupied))


def _hermitian_basis_generator(matrix: sp.csr_matrix, indices: np.ndarray) -> sp.csr_matrix:
    """The real matrix of -i L on the Hermitian basis h_a = i^{p_a} w^a.

    L maps Hermitian operators to Hermitian ones, so -i L h_c = sum_r B_rc h_r
    with real B_rc = i^{3 + p_c - p_r} L_rc. A power of i multiplies
    exactly, so an imaginary part that is not exactly 0 is a bug, not
    rounding, and raises.
    """
    p = hermitian_powers(indices)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    data = _PHASE_OF_POWER[(3 + p[matrix.indices] - p[rows]) & 3] * matrix.data
    if data.imag.any():
        raise RuntimeError("the generator is not real on the Hermitian basis")
    return sp.csr_matrix((data.real, matrix.indices, matrix.indptr), shape=matrix.shape)


class MemoryBudgetError(MemoryError):
    """A full-space evolution would not fit in the memory the process may allocate."""

    def __init__(self, message: str, setting: str):
        super().__init__(message)
        self.setting = setting  # the config setting to reduce


def _memory_limit() -> int:
    """Bytes the process may allocate: the RLIMIT_AS soft limit when it is
    finite, else the physical memory."""
    import os
    import resource

    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        return soft
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_full_space_budget(params: ModelParams, n_samples: int) -> None:
    """Raise MemoryBudgetError when the 4^N generator build and the trajectory
    are estimated to exceed `_memory_limit`.

    The build holds about 64 bytes per (combined mask, basis index): one
    mask per Hamiltonian word and one for the diagonal. The trajectory
    holds 16 bytes of complex amplitude per basis index and sample.
    """
    n = params.n_sites
    dim = 4 ** n
    generator = 64 * (len(build_hamiltonian(params)) + 1) * dim
    trajectory = 16 * n_samples * dim
    limit = _memory_limit()
    if generator + trajectory > limit:
        mib = 2 ** 20
        raise MemoryBudgetError(
            f"evolving the full 4^N space at n_sites={n} over {n_samples} samples needs about "
            f"{generator // mib} MiB for the generator and {trajectory // mib} MiB for the "
            f"trajectory, more than the {limit // mib} MiB this process may allocate",
            "n_sites" if generator > limit else "time_grid.n_samples",
        )


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
    method "expm" (default) is the exact propagator on the block of the
    cells rho0 occupies, tagged "taylor-sector" when the cells are
    (degree, sector) pairs, "taylor-degree" when they are degrees and
    "taylor" in the full space; "eigen" is the eigen-expansion oracle.
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

    if method == "eigen":
        values = _eigen_evolve(build_liouvillian_direct(params).matrix, v0, t_phys)
        indices = _index_range(2 * n)
        return EvolutionResult(n, t_grid.copy(), indices, values, "eigen-expansion", unit)

    if params.conserves_degree():
        sectors = params.preserves_sectors()
        indices = _occupied_indices(v0, n, sectors)
        tag = "taylor-sector" if sectors else "taylor-degree"
    else:
        indices = _index_range(2 * n)
        tag = "taylor"
    # coordinates on the Hermitian basis: c_a = i^{p_a} x_a
    anti = hermitian_powers(indices) == 1
    c0 = v0[indices]
    x_re = np.where(anti, c0.imag, c0.real)
    x_im = np.where(anti, -c0.real, c0.imag)
    x0 = np.stack([x_re, x_im], axis=-1) if x_im.any() else x_re
    if tag == "taylor":
        _check_full_space_budget(params, t_phys.size)
    # the complex build is dropped once converted, before the trajectory is allocated
    generator = _hermitian_basis_generator(
        build_liouvillian_direct(params, cols=None if tag == "taylor" else indices).matrix, indices
    )
    # the coordinates are written into the (real, imaginary) parts of the
    # amplitudes, so the trajectory is allocated once
    values = np.zeros((t_phys.size, indices.size), dtype=complex)
    parts = values.view(np.float64).reshape(values.shape + (2,))
    matvecs = _propagate(generator, x0, t_phys, parts if x0.ndim == 2 else parts[..., 0])
    # c_a = i (x_re + i x_im) = -x_im + i x_re where w^a is anti-Hermitian
    turned = parts[:, anti]
    parts[:, anti, 0] = 0.0 - turned[..., 1]
    parts[:, anti, 1] = turned[..., 0]
    return EvolutionResult(n, t_grid.copy(), indices, values, tag, unit, matvecs)


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
    """tr(X rho(t)) at every sample, X Hermitian: only the amplitudes of
    X's nonzero words are gathered from the trajectory."""
    xv, _ = as_amplitudes(X, result.n_sites)
    words = np.flatnonzero(xv)
    terms = gather_columns(result.values, result.indices, words) * np.conj(xv[words])
    return 2 ** result.n_sites * terms.sum(axis=-1)


def _physicality(values: np.ndarray, indices: np.ndarray, n_sites: int) -> dict:
    """Worst-case trace, Hermiticity, and positivity deviations of the
    samples values[k], held on the sorted basis indices `indices`.

    The samples are walked in chunks (`fock.row_chunks`). The trace and
    Hermiticity defects are array reductions over the stored amplitudes.
    Positivity is that of the Hermitian part of each sample, scattered
    into 4^N amplitude vectors one chunk at a time and rebuilt by
    `fock.dense_blocks`. A chunk whose
    odd-degree amplitudes all vanish commutes with the parity M and is
    checked on its two 2^{N-1} parity blocks, otherwise on the full
    matrices. A sample Cholesky accepts counts as 0; the others report
    max(0, -lambda_min).
    """
    n = n_sites
    odd = (_bitcount(indices) & 1).astype(bool)
    worst_herm = 0.0
    worst_neg = 0.0
    for rows in row_chunks(len(values), 4 ** n):
        chunk = values[rows]
        part = hermitian_part(chunk, n, indices)
        worst_herm = max(worst_herm, _hermiticity_defect(chunk, part))
        blocks = dense_blocks(scatter_columns(part, indices, n), n, parity_blocks=not part[:, odd].any())
        lam = _lowest_eigenvalue(blocks)
        if lam is not None:
            worst_neg = max(worst_neg, -lam)
    # tr(rho) = 2^N c_0, as in `fock.vector_trace`
    trace = 2 ** n * gather_columns(values, indices, [0])[:, 0]
    return {
        "max_trace_deviation": float(np.abs(trace - 1.0).max()),
        "max_hermiticity_defect": worst_herm,
        "max_negative_eigenvalue": worst_neg,
    }


def physicality_report(result: EvolutionResult) -> dict:
    """Worst-case trace, Hermiticity, and positivity deviations on a
    trajectory, by the chunk routine `_physicality`."""
    return _physicality(result.values, result.indices, result.n_sites)


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
