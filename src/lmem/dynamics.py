"""Time evolution, expectation values, and spectral analysis.

States are carried as Liouville amplitude vectors and evolve under
i d|rho>/dt = L |rho>, L being, for every model, its word weights times
the generator table of its block (`liouvillian.generator_table`; the
direct build and the third-quantized form are its oracles). Two methods
are cross-validated:

* "expm" (default): the exact action of exp(-i L t) on the state by
  truncated Taylor steps (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
  (2011), Algorithm 3.2). The generator is shifted by its mean diagonal;
  for each interval the degree m and the substep count s are chosen from
  the exact 1-norm and the double-precision theta_m table, and each
  substep stops its series once two terms fall below the unit roundoff.
  No random numbers are drawn. The same stepper serves two paths, chosen
  per batch by `_step_intervals` from the distinct intervals D, the block
  size n, the stored entries nnz and the K intervals to step:
  - step matrices, for small blocks: the Taylor terms of each distinct
    interval dt run once on the stacked n x n identities of the batch's
    blocks, which gives exp(A_b dt) for every block b (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003), on applying a fixed-step propagator), and the
    state moves from sample to sample by one batched matmul. fig3a and
    fig4-purity step this way: a uniform grid has one or a few distinct
    intervals, and on a block of ~50 states a scipy product costs mostly
    its fixed dispatch, not its arithmetic.
  - vectors, for large blocks: the Taylor terms of each interval act on
    the state itself, one scipy CSR product per term, holding three
    working vectors. fig3b's u=2 block takes this path.

  The state is propagated on the block its generator reaches from it
  (`_closure`): its nonzero words and, until nothing new is reached, the
  word w^a ^ m of each word w^a of the block and each Hamiltonian word w^m
  that anticommutes with it, since [w^m, w^a] is 2 w^m w^a there and 0
  elsewhere. Each jump operator is one Pauli word, so it acts on the
  diagonal and reaches nothing. The block lies inside the cells the state
  occupies of every symmetry the model keeps (the sx_1 and sx_N
  conjugations of every model among them), and the method tag names the
  symmetries (`_block_key`): the Majorana degree without a transverse
  field, where H and every jump operator are quadratic in the Majoranas,
  and the parity-pair sectors too when the model commutes with every
  parity pair. The table is built on the block alone, and its leak check
  guards that the block is closed. On the Hermitian basis
  h_a = i^{p_a} w^a (`fock.hermitian_powers`) the generator -i L is a real
  matrix, since L maps Hermitian operators to Hermitian ones, and the
  table holds it so: a Hermitian rho(0) propagates as one real vector and
  any other as two real columns. The result keeps the block's amplitudes only
  (`EvolutionResult.values`); the observables gather the columns they
  need, and `EvolutionResult.amplitudes` rebuilds the 4^N array,
  read-only, for oracles and tests.

  `evolve_batches` runs one initial state under many models, as fig3b's
  seeded draws: the runs that share a block share one table, built once
  on the words some run holds, and are stepped together in the fewest
  equal batches whose block-diagonal generators hold at most
  `fock.CHUNK_ELEMENTS` stored entries, the working set of one Taylor
  term (`_batch_cut`): fig3b's ten u=2 draws at N=5, 3584 entries each,
  form two batches of five, and at N=6, 17408 each, one batch a draw. A
  batch's block-diagonal generator is one product of its runs' weights
  (runs x words) with the table, whose entries are laid out on the
  table's pattern with row and column offsets, each block shifted by its
  own mean diagonal (`_batch_generator`); `evolve` is its batch of one. A
  closure layer whose temporaries would not fit in the memory the process
  may allocate raises `MemoryBudgetError` before they are allocated, a
  run whose generator and trajectory would not fit raises before any
  table is built, and one whose step matrices would not fit raises before
  those are built; a batch of several runs is cut smaller until it fits with
  the step matrices it could take, so a group never fails because it was
  batched.

* "eigen": dense eigendecomposition with biorthogonal left/right pairs,
  |rho(t)> = R exp(-i diag(lambda) t) R^{-1} |rho(0)>, on the whole
  space. The independent oracle for "expm"; unreliable exactly at
  defective (exceptional) points.

`physicality_report` certifies that a whole trajectory stays a density
matrix without a per-sample loop over dense matrices. The trace and
Hermiticity defects are reductions over the amplitude array. Positivity
is that of the Hermitian part of each sample, computed once, by the first
of three exact paths that the input admits:

* quadratic: when every index has Majorana degree 0, 2, 2N - 2 or 2N
  (N >= 3), as for every fig3a state and fig3b's without a transverse
  field, each parity block of a sample is a quadratic form in the
  Majoranas, and its least eigenvalue follows exactly from the
  eigenvalues of a 2N x 2N matrix and the sign of its Pfaffian
  (`_quadratic_lowest`), batched over samples and both blocks. No 2^N
  matrix is built, so the dense cap does not apply.
* touched modes: when every nonzero word has even degree, each word of
  degree > N equals its complement times a phase on each parity block
  (`_fold_powers`). If the folded words touch few modes T, each parity
  block has the spectrum of the same words on a chain of ceil(|T| / 2)
  sites (`_touched_positivity`): fig4-purity's states touch 5 modes at
  any N >= 5, so its samples are checked on the 4 x 4 parity blocks of
  3-site chains, and the dense cap binds only the chain.
* dense: every other trajectory is rebuilt in chunks of samples from its
  stored words by `fock.dense_blocks`, with no 4^N array: when every
  odd-degree amplitude of a chunk vanishes, rho commutes with the parity M
  and splits into two 2^{N-1} blocks, otherwise the full matrices are
  built. Each stack first goes to Cholesky; only a stack it rejects goes
  to `eigvalsh`, so a sample that is not positive definite still reports
  its least eigenvalue, while one Cholesky accepts reports 0. The index
  tables of the kernel depend on the stored words alone, so the runs of
  one `evolve_batches` batch, which share them, are checked by
  `physicality_reports` on one `fock._DenseLayout`, each run alone.

`check_physical_initial_state` runs the same routine on one state, held
as a one-sample trajectory on its nonzero amplitudes, so no run path
builds a Kronecker product of Pauli matrices.

Spectral reports check the structural facts every Lindblad generator obeys:
eigenvalues in the closed lower half plane, anti-conjugate pairing
{lambda, -conj(lambda)}, and tracelessness of decaying eigenmatrices.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError, cholesky, eigvalsh

from .fock import (
    _PHASE_OF_POWER,
    CHUNK_ELEMENTS,
    _DenseLayout,
    LiouvilleVector,
    MemoryBudgetError,
    _bitcount,
    _hermiticity_defect,
    _index_range,
    _memory_limit,
    as_amplitudes,
    dense_blocks,
    gather_columns,
    hermitian_part,
    hermitian_powers,
    liouville_inner,
    pauli_monomials,
    row_chunks,
    scatter_columns,
    site_count,
    vector_trace,
)
from .liouvillian import GeneratorTable, anticommuting, build_liouvillian_direct, generator_table
from .model import ModelParams, model_weights, model_words
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
    (T, 4^N) array for oracles and tests, read-only: a view of values when
    the block is the whole space, otherwise a new array on each access.
    """

    n_sites: int
    times: np.ndarray  # in the tagged unit
    indices: np.ndarray  # sorted basis indices of the block
    values: np.ndarray  # shape (len(times), len(indices))
    method_tag: str
    time_unit: str  # "1/gamma" or "absolute"
    # sparse products A @ b of the batch the run was stepped in, one per
    # Taylor term: on the step path b is the stacked identity, and the
    # matmuls that apply the step matrices are not counted
    matvecs: int = 0

    @property
    def amplitudes(self) -> np.ndarray:
        out = scatter_columns(self.values, self.indices, self.n_sites).view()
        out.flags.writeable = False
        return out

    def state(self, k: int) -> LiouvilleVector:
        return LiouvilleVector(self.n_sites, scatter_columns(self.values[k], self.indices, self.n_sites))

    def density_matrix(self, k: int) -> np.ndarray:
        return dense_blocks(self.values[k][None], self.indices, self.n_sites)[0, 0]

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


# fixed cost of one Taylor term, the scipy `A @ b` dispatch and the loop
# around it, in units of the cost of one stored entry times one column:
# ~8 us against ~0.8 ns, fitted over single-vector terms on blocks of 26 to
# 1536 states (2-core VM, numpy's OpenBLAS on one thread)
_TERM_OVERHEAD = 10000
# cost of one multiply-add of the batched matmul that applies a step
# matrix, in the same units: 0.12-0.35 ns on (B, n, n) stacks of
# B n^2 = 3e4 to 8e5 entries, past a ~1.5 us call, on the same machine
_MATMUL_COST = 1 / 3


class _Shifted(NamedTuple):
    """A batch's block-diagonal real generator, each block b shifted by its
    own mean diagonal mu_b: the CSR matrix, the mus, the block sizes and
    the exact 1-norm of the matrix."""

    matrix: sp.csr_matrix
    mus: np.ndarray
    sizes: list
    norm: float


def _batch_generator(table: GeneratorTable, theta: np.ndarray) -> _Shifted:
    """The `_Shifted` generator of the runs with word weights theta (runs,
    words) on the block of `table`: one weight product gives every run's
    entries, the shift and the column sums of |A| are read from them, and
    the runs' copies of the table's pattern are tiled with row and column
    offsets into one CSR matrix."""
    size = table.indices.size
    runs = len(theta)
    values = table.values(theta)  # (entries, runs)
    mus = values[table.diagonal].sum(axis=0) / size
    values[table.diagonal] -= mus
    offsets = np.arange(runs)
    sums = np.bincount(
        (table.columns[:, None] * runs + offsets).ravel(), weights=np.abs(values).ravel(), minlength=size * runs
    )
    entries = len(values)
    indptr = np.append((table.indptr[:-1] + entries * offsets[:, None]).ravel(), runs * entries)
    matrix = sp.csr_matrix(
        (values.T.ravel(), (table.columns + size * offsets[:, None]).ravel(), indptr), shape=(runs * size,) * 2
    )
    return _Shifted(matrix, mus, [size] * runs, float(sums.max()))


def _taylor_interval(gen: _Shifted, v: np.ndarray, dt: float) -> tuple[np.ndarray, int]:
    """(exp((A + mu) dt) v, matvecs) for the shifted generator A of `gen`
    and dt > 0, mu restored as eta = e^{mu_b h} on block b's rows after
    each substep. v is one vector or a stack of columns.

    A series stops once two terms fall below the unit roundoff times
    ||f||_inf, taken over the whole stack. bound = sum_j ||b_j||_inf is at
    least ||f||_inf, so ||f||_inf is only computed once the two terms fall
    below twice the unit roundoff times bound (the factor 2 covers the
    rounding of bound); the decisions are those of the plain test.
    """
    A = gen.matrix
    m, s = _taylor_plan(dt * gen.norm)
    h = dt / s
    eta = np.repeat(np.exp(gen.mus * h), gen.sizes).reshape((-1,) + (1,) * (v.ndim - 1))
    matvecs = 0
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
    return v, matvecs


def _step_intervals(gen: _Shifted, t_phys: np.ndarray) -> np.ndarray | None:
    """The distinct positive intervals of t_phys when stepping by one
    precomputed matrix per interval costs less than stepping the state
    through each interval's Taylor terms, else None.

    A Taylor term costs c + nnz x columns, c = `_TERM_OVERHEAD` and nnz the
    stored entries of the generator, and an interval dt takes about m s
    terms, the plan of `_taylor_plan` for dt ||A||_1, either way. The
    matrices run the terms of the D distinct intervals on the n stacked
    identity columns of the B blocks and then apply one step per sample, a
    matmul of B n^2 multiply-adds at `_MATMUL_COST` each; the vectors run
    the terms of all K intervals on the state, one column. So the matrices
    pay when
    sum_D m s (c + nnz n) + K B n^2 `_MATMUL_COST` < sum_K m s (c + nnz).
    Blocks of unequal sizes, which no batch of `evolve_batches` holds,
    always take the vectors.
    """
    dts = np.diff(t_phys, prepend=0.0)
    positive = dts[dts > 0]
    sizes = set(gen.sizes)
    if len(sizes) != 1:
        return None
    distinct, repeats = np.unique(positive, return_counts=True)
    terms = np.array([m * s for m, s in map(_taylor_plan, distinct * gen.norm)], dtype=np.int64)
    n = sizes.pop()
    nnz = gen.matrix.nnz
    steps = terms.sum() * (_TERM_OVERHEAD + nnz * n) + positive.size * len(gen.sizes) * n * n * _MATMUL_COST
    if steps < terms @ repeats * (_TERM_OVERHEAD + nnz):
        return distinct
    return None


def _propagate_by_vectors(gen: _Shifted, v0: np.ndarray, t_phys: np.ndarray, out: np.ndarray) -> int:
    """Write exp(A t) v0 to out[k] for each t_phys[k], A the block-diagonal
    generator of `gen`, restored by its shifts, by the Taylor terms of each
    interval on the state; return the sparse products A @ b.

    The generator and v0 may be real or complex, and v0 one vector or a
    stack of columns, with the blocks' rows stacked along its first axis;
    out[k] receives v reshaped to out's sample shape. t_phys is
    nondecreasing with t_phys[0] >= 0, and each interval is stepped from the
    previous sample, so a repeated time costs nothing. Each block is shifted
    by its own mean diagonal, and the plan (m, s) of an interval comes from
    the 1-norm of the shifted block-diagonal matrix, so one block takes the
    steps it would take alone. `_evolve_batch` takes this path for large
    blocks, where `_step_intervals` returns None.
    """
    v = v0.astype(np.result_type(gen.matrix.dtype, v0.dtype))
    matvecs = 0
    for k, dt in enumerate(np.diff(t_phys, prepend=0.0)):
        if dt > 0:
            v, count = _taylor_interval(gen, v, dt)
            matvecs += count
        out[k] = v.reshape(out.shape[1:])
    return matvecs


def _propagate_by_steps(gen: _Shifted, v0, t_phys, out, intervals: np.ndarray) -> int:
    """`_propagate_by_vectors` by one step matrix per distinct interval dt
    of `intervals`, those `_step_intervals` returns, the blocks of equal
    size n: the Taylor terms of dt run once on the stacked n x n identities
    of the blocks, giving exp(A_b dt) for every block b as one (blocks, n,
    n) array, and the state then moves from sample to sample by one batched
    matmul. The arguments and out are those of `_propagate_by_vectors`.
    Returns the sparse products of those Taylor terms; the matmuls are not
    counted."""
    dtype = np.result_type(gen.matrix.dtype, v0.dtype)
    count_blocks, n = len(gen.sizes), gen.sizes[0]
    eye = np.tile(np.eye(n, dtype=dtype), (count_blocks, 1))
    steps = {}
    matvecs = 0
    for dt in intervals:
        step, count = _taylor_interval(gen, eye, dt)
        steps[dt] = step.reshape(count_blocks, n, n)
        matvecs += count
    v = v0.astype(dtype).reshape(count_blocks, n, -1)
    for k, dt in enumerate(np.diff(t_phys, prepend=0.0)):
        if dt > 0:
            v = np.matmul(steps[dt], v)
        out[k] = v.reshape(out.shape[1:])
    return matvecs


# bytes a closure layer holds per (Hamiltonian word, frontier word) pair:
# the reached words and the anticommutation test's int64 bit counts peak at
# about 33 (tracemalloc), rounded up
_CLOSURE_PAIR_BYTES = 40


def _closure(v0: np.ndarray, masks: np.ndarray, n_sites: int) -> np.ndarray:
    """Sorted basis indices of the block that the generator reaches from
    v0: its nonzero words (the empty word when it has none, so the block
    is never empty) and, repeatedly, c ^ m for each word c of the block
    and each Hamiltonian mask m of `masks` whose word anticommutes with
    w^c (`liouvillian.anticommuting`). A jump word is one Pauli word and
    acts on the diagonal, so it reaches nothing new.

    A layer whose temporaries, `_CLOSURE_PAIR_BYTES` per (mask, frontier
    word) pair, exceed `fock._memory_limit` raises MemoryBudgetError naming
    n_sites before they are allocated. That is below `_check_budget`'s 64
    bytes per (mask, block word) pair, so no run that the budget accepts
    fails here."""
    limit = _memory_limit()
    block = np.flatnonzero(v0) if v0.any() else np.zeros(1, dtype=np.int64)
    new = block
    while new.size:
        need = _CLOSURE_PAIR_BYTES * masks.size * new.size
        if need > limit:
            mib = 2 ** 20
            raise MemoryBudgetError(
                f"closing the block at n_sites={n_sites}: a layer of {new.size} basis states under "
                f"{masks.size} Hamiltonian words needs about {need // mib} MiB, more than the "
                f"{limit // mib} MiB this process may allocate",
                "n_sites",
            )
        reached = np.unique((new ^ masks[:, None])[anticommuting(masks, new)])
        pos = np.searchsorted(block, reached)
        fresh = block[pos.clip(max=block.size - 1)] != reached
        new = reached[fresh]
        block = np.insert(block, pos[fresh], new)
    return block


def _hermitian_basis_generator(matrix: sp.csr_matrix, indices: np.ndarray) -> sp.csr_matrix:
    """The real matrix of -i L on the Hermitian basis h_a = i^{p_a} w^a,
    from a complex matrix L of the direct build: the oracle of the
    generator table (`liouvillian.generator_table`) in the tests.

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


def _check_budget(n_sites: int, runs: int, masks: int, n_samples: int, block: int, step_intervals: int = 0) -> None:
    """Raise MemoryBudgetError when the generators, trajectories and step
    matrices of a batch of `runs` runs on a block of `block` basis indices
    are estimated to exceed `fock._memory_limit`.

    The generators hold about 64 bytes per (combined mask, basis index) and
    run, `masks` being one per Hamiltonian word of the generator table and
    one for the diagonal: the table's build, shared by the runs, and each
    run's weighted entries and their CSR copy. A trajectory holds 16 bytes
    of complex amplitude per basis index and sample. A batch that steps by
    matrices (`_propagate_by_steps`) holds one real block x block matrix per
    run and distinct interval, 8 bytes an entry.
    """
    generator = 64 * masks * block * runs
    trajectory = 16 * n_samples * block * runs
    steps = 8 * step_intervals * runs * block * block
    limit = _memory_limit()
    if generator + trajectory + steps > limit:
        mib = 2 ** 20
        held = f"{generator // mib} MiB for the generator"
        if steps:
            held += f", {steps // mib} MiB for the step matrices"
        raise MemoryBudgetError(
            f"evolving {runs} run(s) on a block of {block} basis states at n_sites={n_sites} "
            f"over {n_samples} samples needs about {held} and "
            f"{trajectory // mib} MiB for the trajectory, more than the {limit // mib} MiB "
            "this process may allocate",
            "n_sites" if generator + steps > limit else "time_grid.n_samples",
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
    """Evolve an initial state over t_grid under the model's Lindblad generator.

    t_grid is a nondecreasing grid of finite times >= 0, repeats allowed,
    in units of 1/gamma when the dephasing rates are homogeneous and
    positive, absolute otherwise. rho0 may be a dense matrix, a
    LiouvilleVector, an OperatorSum or a raw amplitude vector; it is not
    checked for physicality (`check_physical_initial_state` does that).
    method "expm" (default) is the exact propagator on the block the
    generator reaches from rho0 (`evolve_batches` with a batch of one),
    tagged by the symmetries the model keeps: "taylor-sector" when it keeps
    the Majorana degree and the parity-pair sectors, "taylor-degree" when
    it keeps the degree alone and "taylor" otherwise; "eigen" is the
    eigen-expansion oracle on the whole space.
    """
    if method not in ("expm", "eigen"):
        raise ValueError(f"unknown evolution method {method!r}; use 'expm' or 'eigen'")
    if method == "expm":
        return next(evolve_batches(rho0, [params], t_grid))[0]
    n = params.n_sites
    t_grid = _check_time_grid(t_grid)
    v0, _ = as_amplitudes(rho0, n)
    gamma = params.homogeneous_gamma()
    t_phys, unit = (t_grid, "absolute") if gamma is None else (t_grid / gamma, "1/gamma")
    values = _eigen_evolve(build_liouvillian_direct(params).matrix, v0, t_phys)
    return EvolutionResult(n, t_grid.copy(), _index_range(2 * n), values, "eigen-expansion", unit)


def _block_key(params: ModelParams) -> tuple:
    """(degree, sectors, gamma): whether the model keeps the Majorana degree
    and the parity-pair sectors, which name its method tag, and the unit of
    its times; runs with equal keys share their block and physical times."""
    degree = params.conserves_degree()
    return degree, degree and params.preserves_sectors(), params.homogeneous_gamma()


def evolve_batches(rho0, models, t_grid) -> Iterator[list[EvolutionResult]]:
    """`evolve` of one initial state under each of `models` by "expm",
    yielded in order as lists of results, one batch at a time.

    Consecutive models that keep the same symmetries and share the
    physical times (`_block_key`) form a group, and the symmetries name the
    method tag. The group's block is the closure of rho0's nonzero words
    under the Hamiltonian words of `model.model_words` that some run of the
    group holds (`_closure`): a word w^m joins w^a to w^a ^ m where it
    anticommutes with w^a, and a jump word joins nothing. The group's
    generator table (`liouvillian.generator_table`) is built once, on that
    block and those words, and every run's generator is its word weights
    times that table; the table's leak check guards that the block is
    closed. The group is cut into the fewest batches, of sizes that differ
    by at most one, whose generators hold at most `fock.CHUNK_ELEMENTS`
    stored entries (`_batch_cut`), and the generators of a batch are
    propagated together as one block-diagonal matrix (`_batch_generator`),
    by step matrices or by vectors as `_step_intervals` decides. On
    the vector path a physical state has ||f||_inf = 2^-N, its trace
    amplitude, so the shared stop test passes only when each run's own
    would; on the step path every block's identity has ||f||_inf near 1. A
    batch of one takes exactly the steps of a run alone. The results of a
    batch are rows of one (runs, T, block) array, and each result's
    `matvecs` counts the products of its whole batch. A run beyond the memory budget raises
    `MemoryBudgetError` in its closure (`_closure`), before the group's table is built, or, when its
    step matrices tip it over, before those are built. A batch of several
    runs is made smaller until it fits with the step matrices it could
    take, one per distinct interval, so runs that fit one at a time never
    fail for being batched.
    """
    t_grid = _check_time_grid(t_grid)
    models = list(models)
    if not models:
        return
    n = models[0].n_sites
    if any(p.n_sites != n for p in models):
        raise ValueError("evolve_batches needs models of one site count")
    v0, _ = as_amplitudes(rho0, n)
    for (degree, sectors, gamma), group in groupby(models, key=_block_key):
        tag = "taylor-sector" if sectors else "taylor-degree" if degree else "taylor"
        weights, hamiltonian, jumps = _group_words(list(group))
        indices = _closure(v0, pauli_monomials(hamiltonian, n)[0], n)
        masks = 1 + len(hamiltonian)
        _check_budget(n, 1, masks, t_grid.size, indices.size)
        table = generator_table(hamiltonian, jumps, n, indices)
        # a batch of several runs is sized as if it stepped by matrices, one per
        # distinct interval, so that only a run that does not fit alone raises
        dts = np.diff(t_grid if gamma is None else t_grid / gamma, prepend=0.0)
        steps = np.unique(dts[dts > 0]).size
        budget = (n, masks, t_grid.size, indices.size, steps)
        cut = _batch_cut(len(weights), int(table.indptr[-1]), lambda runs: runs == 1 or _fits(runs, *budget))
        for rows in cut:
            yield _evolve_batch(v0, table, weights[rows], masks, t_grid, gamma, tag)


def _fits(runs: int, n_sites: int, masks: int, n_samples: int, block: int, step_intervals: int) -> bool:
    """Whether `_check_budget` passes a batch of `runs` runs."""
    try:
        _check_budget(n_sites, runs, masks, n_samples, block, step_intervals)
    except MemoryBudgetError:
        return False
    return True


def _batch_cut(runs: int, run_entries: int, fits) -> list[slice]:
    """The runs of a group cut into the fewest consecutive batches, of sizes
    that differ by at most one, whose block-diagonal generators hold at most
    `fock.CHUNK_ELEMENTS` stored entries, run_entries a run, and whose
    largest batch passes fits(size), the memory budget. That many entries
    are the working set one Taylor term sweeps; a run beyond it is a batch
    of its own, and fits(1) must hold, so the cut always ends."""
    count = -(-runs // max(1, CHUNK_ELEMENTS // run_entries))
    while not fits(-(-runs // count)):
        count += 1
    bounds = [k * runs // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _group_words(group: list[ModelParams]) -> tuple[np.ndarray, list, list]:
    """(weights, hamiltonian, jumps): the Hamiltonian and jump words of
    `model.model_words` that some model of `group` holds, and each model's
    weights on them, shape (models, words), the Hamiltonian words first."""
    hamiltonian, jumps = model_words(group[0].n_sites)
    weights = np.array([np.concatenate(model_weights(p)) for p in group])
    held = weights.any(axis=0)
    words = [w for w, on in zip(hamiltonian + jumps, held) if on]
    count = int(held[: len(hamiltonian)].sum())
    return weights[:, held], words[:count], words[count:]


def _evolve_batch(v0, table: GeneratorTable, theta, masks: int, t_grid, gamma, tag) -> list[EvolutionResult]:
    """One batch of `evolve_batches`: the runs of v0 under the word weights
    theta (runs, words) of `table`, on its block."""
    n, indices = table.n_sites, table.indices
    t_phys, unit = (t_grid, "absolute") if gamma is None else (t_grid / gamma, "1/gamma")
    # coordinates on the Hermitian basis: c_a = i^{p_a} x_a
    anti = hermitian_powers(indices) == 1
    c0 = v0[indices]
    x_re = np.where(anti, c0.imag, c0.real)
    x_im = np.where(anti, -c0.real, c0.imag)
    x0 = np.stack([x_re, x_im], axis=-1) if x_im.any() else x_re
    gen = _batch_generator(table, theta)
    intervals = _step_intervals(gen, t_phys)
    if intervals is not None:
        # the step matrices are counted once the generators decide that they are taken
        _check_budget(n, len(theta), masks, t_phys.size, indices.size, intervals.size)
    # the coordinates are written into the (real, imaginary) parts of the
    # amplitudes, so the trajectories are allocated once; out[k] is sample k of every run
    values = np.zeros((len(theta), t_phys.size, indices.size), dtype=complex)
    parts = values.view(np.float64).reshape(values.shape + (2,))
    out = parts.swapaxes(0, 1)
    x0 = np.concatenate([x0] * len(theta))
    out = out if x0.ndim == 2 else out[..., 0]
    if intervals is None:
        matvecs = _propagate_by_vectors(gen, x0, t_phys, out)
    else:
        matvecs = _propagate_by_steps(gen, x0, t_phys, out, intervals)
    # c_a = i (x_re + i x_im) = -x_im + i x_re where w^a is anti-Hermitian
    turned = parts[..., anti, :]
    parts[..., anti, 0] = 0.0 - turned[..., 1]
    parts[..., anti, 1] = turned[..., 0]
    return [EvolutionResult(n, t_grid.copy(), indices, run, tag, unit, matvecs) for run in values]


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


def _is_quadratic(indices: np.ndarray, n_sites: int) -> bool:
    """Whether every basis index has Majorana degree 0, 2, 2N - 2 or 2N, with
    N >= 3; below that the degree-2 and degree-(2N - 2) words coincide."""
    k = _bitcount(indices)
    return n_sites >= 3 and not np.any((k % 2 == 1) | ((k > 2) & (k < 2 * n_sites - 2)))


def _fold_powers(masks: np.ndarray, n_sites: int) -> np.ndarray:
    """q with w^a = i^q p w^{a^F} on the parity block p, for each even mask a
    of masks, a^F its complement among the 2N modes.

    W = w_1 ... w_{2N} = i^N Z_1 ... Z_N is i^N p on block p, and sorting
    w^a w^{a^F} into W takes c transpositions, c the pairs (j in a, i not in
    a) with i < j: c = sum of the 0-based modes of a - |a| (|a| - 1) / 2. With
    (w^{a^F})^2 = (-1)^{l (l - 1) / 2}, l = 2N - |a|, and W central among the
    even words, w^a = (-1)^{c + l (l - 1) / 2} i^N p w^{a^F}.
    """
    modes = np.arange(2 * n_sites)
    k = _bitcount(masks)
    c = ((masks[..., None] >> modes) & 1) @ modes - k * (k - 1) // 2
    lf = 2 * n_sites - k
    return n_sites + 2 * (c + lf * (lf - 1) // 2)


@lru_cache(maxsize=None)
def _pair_tables(n_sites: int):
    """(rows, cols, masks, powers) of `_quadratic_lowest`, one entry per pair
    i < j of the 2N modes (0-based): the mask of w_i w_j in masks[0], that
    of its complement w^{i^ j^}, the degree-(2N - 2) word without modes i
    and j, in masks[1], and the power of i in w^{i^ j^} = i^q p w_i w_j on
    the parity block p (`_fold_powers`), q = N + 2 (i + j) mod 4.
    """
    m = 2 * n_sites
    rows, cols = np.triu_indices(m, 1)
    pairs = (np.int64(1) << rows) | (np.int64(1) << cols)
    masks = np.stack([pairs, ((1 << m) - 1) ^ pairs])
    return rows, cols, masks, _fold_powers(masks[1], n_sites)


def _pfaffian_signs(a: np.ndarray) -> np.ndarray:
    """sgn Pf of each real antisymmetric 2N x 2N matrix of the stack a (B, 2N, 2N),
    0 where the Pfaffian vanishes.

    Parlett-Reid elimination with partial pivoting (Wimmer, ACM TOMS 38, 30
    (2012)), batched: each of the N steps swaps the largest entry of the
    first column below the diagonal into row 1 (a swap negates the
    Pfaffian), multiplies in the sign of the pivot a[0, 1], and passes on
    the trailing block with the rank-two update that eliminates rows and
    columns 0 and 1.
    """
    batch = np.arange(len(a))[:, None, None]
    sign = np.ones(len(a))
    while a.shape[-1]:
        size = a.shape[-1]
        r = 1 + np.abs(a[:, 1:, 0]).argmax(axis=1)
        sign[r != 1] *= -1
        perm = np.tile(np.arange(size), (len(a), 1))
        perm[:, 1] = r
        perm[np.arange(len(a)), r] = 1
        a = a[batch, perm[:, :, None], perm[:, None, :]]
        pivot = a[:, 0, 1]
        sign *= np.sign(pivot)
        # a zero pivot leaves a zero row 0, and the sign 0 stays
        tau = np.divide(a[:, 0, 2:], pivot[:, None], out=np.zeros((len(a), size - 2)), where=pivot[:, None] != 0)
        col = a[:, 2:, 1]
        a = a[:, 2:, 2:] + tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    return sign


def _quadratic_lowest(part: np.ndarray, indices: np.ndarray, n_sites: int) -> np.ndarray:
    """Least eigenvalue of each Hermitian sample part[k] on each parity block,
    shape (T, 2), for amplitudes on indices of Majorana degrees 0, 2, 2N - 2
    and 2N only (`_is_quadratic`); no 2^N matrix is built. Where the lower
    bound c(p) - sum eps_k below is nonnegative, the block is positive
    semidefinite and the bound is returned in its place, so max(0, -x) is
    exact for every entry x, and the Pfaffian runs only on the other blocks.

    W = w_1 ... w_{2N} = i^N Z_1 ... Z_N is i^N p on the block p = +1 (even
    popcount) and p = -1 (odd), and each degree-(2N - 2) word is
    w^{i^ j^} = (-1)^{i + j} w_i w_j W. On block p a sample is therefore
    c(p) I + sum_{i<j} h_ij(p) w_i w_j with c(p) = c_0 + i^N p c_W and
    h_ij(p) = c_ij + (-1)^{i + j} i^N p c_{i^ j^}: the quadratic form
    c(p) I + (i/2) sum a_ij w_i w_j of the real antisymmetric a(p) with
    a_ij = -i h_ij above the diagonal (Lieb, Schultz & Mattis, Ann. Phys.
    16, 407 (1961)). With +-eps_k the eigenvalues of i a(p), its spectrum
    on block p is c(p) + sum_k s_k eps_k over the signs with
    prod_k s_k = (-1)^N p sgn det O, where O brings a(p) to its canonical
    form, and sgn det O = sgn Pf a(p). The least eigenvalue is therefore
    c(p) - sum eps_k when sgn Pf a(p) p > 0, and c(p) - sum eps_k +
    2 min eps_k otherwise; when Pf a(p) = 0 some eps_k = 0 and both agree.
    The factors are powers of i, exact on finite amplitudes, so an
    imaginary part of c(p) or a(p) that is not exactly 0 is a bug, not
    rounding, and raises.
    """
    n = n_sites
    m = 2 * n
    rows, cols, masks, powers = _pair_tables(n)
    # blocks p = +1, -1 along the first axis, where W = i^{N + shift}
    p = np.array([[1], [-1]])
    shift = 1 - p
    c0, cw = gather_columns(part, indices, [0, (1 << m) - 1]).T
    c = c0 + _PHASE_OF_POWER[(n + shift) & 3] * cw  # (2, T)
    pair, comp = gather_columns(part, indices, masks).transpose(1, 0, 2)  # (T, pairs) each
    # -i h_ij = i^3 c_ij + i^{3 + N + 2(i + j) + shift} c_{i^ j^}
    upper = -1j * pair + _PHASE_OF_POWER[(3 + powers + shift[..., None]) & 3] * comp
    if c.imag.any() or upper.imag.any():
        raise RuntimeError("the state is not a real quadratic form on a parity block")
    a = np.zeros((2, len(part), m, m))
    a[..., rows, cols] = upper.real
    a[..., cols, rows] = -upper.real
    eps = eigvalsh(1j * a)[..., n:]  # the N nonnegative eigenvalues, ascending
    lowest = c.real - eps.sum(axis=-1)
    # the all-minus signs are allowed when sgn Pf a(p) p > 0; otherwise the smallest mode flips
    negative = lowest < 0
    if negative.any():
        flip = _pfaffian_signs(a[negative]) * np.broadcast_to(p, negative.shape)[negative] <= 0
        lowest[negative] += np.where(flip, 2 * eps[negative, 0], 0.0)
    return lowest.T


def _touched_positivity(part: np.ndarray, indices: np.ndarray, n_sites: int) -> float | None:
    """max(0, -lambda_min) over the Hermitian samples part[k] from the modes
    their words touch, or None when a word has odd degree or the chain below
    would be no smaller than a dense parity block.

    The words are those of the columns nonzero in some sample. When each has
    even degree, a sample commutes with the parity M, and on the parity block
    p every word w^a of degree > N equals i^q p w^{a^F} (`_fold_powers`).
    Folded so, the words touch a set T of modes; when T misses a mode, the
    block p holds the even Clifford algebra over T as copies of its
    irreducible representations (Lawson & Michelsohn, Spin Geometry (1989),
    ch. I), and so has the spectrum of the same words relabelled in order
    onto a chain of ceil(|T| / 2) sites, one unused mode padding an odd |T|.
    That chain's state is even too, so `fock.dense_blocks` builds its two
    parity blocks, for both p, and `_lowest_eigenvalue` decides them. The
    path is taken when the chain is shorter than N - 1 sites, which leaves a
    mode untouched; a sample Cholesky accepts counts as 0.
    """
    n = n_sites
    columns = np.flatnonzero(part.any(axis=0))
    words = indices[columns]
    degree = _bitcount(words)
    if np.any(degree & 1):
        return None
    fold = degree > n
    words = np.where(fold, words ^ ((1 << 2 * n) - 1), words)
    touched = np.flatnonzero((np.bitwise_or.reduce(words, initial=0) >> np.arange(2 * n)) & 1)
    sites = max(1, (touched.size + 1) // 2)
    if sites >= n - 1:
        return None
    chain = ((words[:, None] >> touched) & 1) @ (1 << np.arange(touched.size))
    small = np.union1d(0, chain)  # the empty word keeps the chain's basis nonempty
    # the phase i^q p of each folded word on the blocks p = +1, -1, as i^{q + 1 - p}
    shift = np.array([[0], [2]])
    phases = np.where(fold, _PHASE_OF_POWER[(_fold_powers(words, n) + shift) & 3], 1)
    folded = np.zeros((2, len(part), small.size), dtype=complex)
    np.add.at(folded, (slice(None), slice(None), np.searchsorted(small, chain)), phases[:, None] * part[:, columns])
    layout = _DenseLayout(small, sites)
    worst_neg = 0.0
    for rows in row_chunks(len(part), 4 ** sites):
        lam = _lowest_eigenvalue(layout.blocks(folded[:, rows].reshape(-1, small.size), parity_blocks=True))
        if lam is not None:
            worst_neg = max(worst_neg, -lam)
    return worst_neg


def _dense_positivity(
    values: np.ndarray, part: np.ndarray, indices: np.ndarray, n_sites: int, layout: _DenseLayout | None = None
) -> tuple[float, float]:
    """(Hermiticity defect, max(0, -lambda_min)) over the samples values[k],
    of Hermitian part `part`, walked in chunks (`fock.row_chunks`). Each
    chunk's part is rebuilt by the `fock.dense_blocks` kernel from the
    stored words alone, by the index tables of `layout` (new when None),
    built once for the whole trajectory or batch: a chunk whose odd-degree
    amplitudes all vanish commutes with the parity M and is checked on its
    two 2^{N-1} parity blocks, otherwise on the full matrices. A sample
    Cholesky accepts counts as 0."""
    n = n_sites
    odd = (_bitcount(indices) & 1).astype(bool)
    layout = _DenseLayout(indices, n) if layout is None else layout
    worst_herm = 0.0
    worst_neg = 0.0
    for rows in row_chunks(len(values), 4 ** n):
        chunk = part[rows]
        worst_herm = max(worst_herm, _hermiticity_defect(values[rows], chunk))
        lam = _lowest_eigenvalue(layout.blocks(chunk, parity_blocks=not chunk[:, odd].any()))
        if lam is not None:
            worst_neg = max(worst_neg, -lam)
    return worst_herm, worst_neg


def _physicality(values: np.ndarray, indices: np.ndarray, n_sites: int, layout: _DenseLayout | None = None) -> dict:
    """Worst-case trace, Hermiticity, and positivity deviations of the
    samples values[k], held on the sorted basis indices `indices`; layout
    is the `fock._DenseLayout` of indices, new when None.

    The trace and Hermiticity defects are array reductions over the stored
    amplitudes. Positivity is that of the Hermitian part of each sample,
    computed once and reported as max(0, -lambda_min), by the first of three
    exact paths that applies, each read from the input:
    - samples stored on Majorana degrees 0, 2, 2N - 2 and 2N only (fig3a,
      and fig3b without a transverse field) take the quadratic-form spectrum
      `_quadratic_lowest` from 2N x 2N matrices;
    - samples whose nonzero words are all even and, folded onto degree <= N,
      touch few enough modes (fig4-purity at N >= 5) take the spectra of
      2^{ceil(|T| / 2)}-dimensional matrices over the touched modes T
      (`_touched_positivity`);
    - every other trajectory, such as fig3b's with a transverse field, which
      touches every mode, takes the dense parity blocks or full matrices of
      `_dense_positivity`, within the dense cap.
    """
    n = n_sites
    part = hermitian_part(values, n, indices)
    if _is_quadratic(indices, n):
        worst_neg = max(0.0, -float(_quadratic_lowest(part, indices, n).min()))
    else:
        worst_neg = _touched_positivity(part, indices, n)
    if worst_neg is None:
        worst_herm, worst_neg = _dense_positivity(values, part, indices, n, layout)
    else:
        worst_herm = _hermiticity_defect(values, part)
    # tr(rho) = 2^N c_0, as in `fock.vector_trace`
    trace = 2 ** n * gather_columns(values, indices, [0])[:, 0]
    return {
        "max_trace_deviation": float(np.abs(trace - 1.0).max()),
        "max_hermiticity_defect": worst_herm,
        "max_negative_eigenvalue": worst_neg,
    }


def physicality_report(result: EvolutionResult, layout: _DenseLayout | None = None) -> dict:
    """Worst-case trace, Hermiticity, and positivity deviations on a
    trajectory, by the chunk routine `_physicality`; layout, the
    `fock._DenseLayout` of result.indices, is shared by the runs of a batch
    (`physicality_reports`)."""
    return _physicality(result.values, result.indices, result.n_sites, layout)


def physicality_reports(batch: list[EvolutionResult]) -> list[dict]:
    """`physicality_report` of each run of one `evolve_batches` batch. The
    runs share their indices, so the dense path's index tables are built
    once for the batch, on the first run that takes it; each run is still
    checked alone, since stacking the runs' samples would fill the dense
    chunks beyond one trajectory and raise peak memory without speeding the
    quadratic path."""
    layout = _DenseLayout(batch[0].indices, batch[0].n_sites)
    return [physicality_report(res, layout) for res in batch]


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


_GAP_CHUNK = 1 << 20  # pair distances `_min_gap` holds at once


def _min_gap(lam: np.ndarray) -> float:
    """Smallest distance |lam[i] - lam[j]| over i != j; inf below two entries.

    One sort finds an exact repeat, which makes the gap 0.0; a composed
    segment spectrum always has one (each eigenvalue comes twice, for the
    edge pair). A spectrum without repeats gets the exact minimum of
    sqrt(dx^2 + dy^2) over all pairs, in chunks of rows.
    """
    if lam.size < 2:
        return np.inf
    x, y = lam.real, lam.imag
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    if np.any((xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])):
        return 0.0
    best = np.inf
    step = max(1, _GAP_CHUNK // lam.size)
    for start in range(0, lam.size, step):
        rows = np.arange(start, min(start + step, lam.size))
        dx = x[rows, None] - x
        dy = y[rows, None] - y
        d2 = dx * dx + dy * dy
        d2[np.arange(rows.size), rows] = np.inf
        best = min(best, float(d2.min()))
    return float(np.sqrt(best))


def _scan_point(params_base: ModelParams, g: float, sector: SectorLabel) -> ScanPoint:
    """One gamma of `exceptional_point_scan`."""
    p = replace(params_base, dephasing_rates=np.full(params_base.n_sites, g))
    lam, cond = compose_segment_spectra(sector, p)
    min_gap = _min_gap(lam)
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

    min_gap is the smallest distance between two entries of the spectrum,
    so it is 0.0 whenever the composed spectrum repeats a value. Segment
    spectra always do: each eigenvalue comes twice, for the decoupled edge
    pair. The flag therefore rests on the condition number alone.
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
