"""Lindblad generators as sparse matrices on the Majorana-monomial basis.

The master equation is taken in the form

    i d rho / dt = [H, rho] + i sum_k ( L_k rho L_k^dag - (1/2){L_k^dag L_k, rho} )

so that i d|rho>/dt = L |rho> and stationary states solve L |rho> = 0.

The experiments evolve under `generator_table`, which holds -i L of a
whole family of models on one block as a linear map of the word weights:
each Hamiltonian word is nonzero only at its own combined mask, on the
monomials it anticommutes with, and each jump word only on the diagonal.
A model's generator is then its weights times the table (`model.model_words`
and `model.model_weights` give the chain's words and weights). It is
checked in the tests against the direct build.

Three independent constructions of L itself are provided and must agree
entrywise:

* `build_liouvillian_direct` lists the right-hand side as products
  L_k rho R_k (H rho, rho H, L rho L^dag, L^dag L rho, rho L^dag L) and
  hands them to `fock._product_superoperator`, which writes the whole
  generator as one CSR matrix from signed permutations of the basis. It
  accepts arbitrary Pauli-word Hamiltonians and dissipators; it is the
  oracle of the table, of `lmem.verify` and of the eigen-expansion
  propagator `dynamics.evolve(method="eigen")`.

* `build_liouvillian_thirdq` assembles the closed third-quantized form of
  the unperturbed chain (an oracle for the tests and `lmem.verify`),

      L = -2i sum_j J_j (c_{2j}^dag c_{2j+1} + c_{2j} c_{2j+1}^dag)
          + i sum_j gamma_j [ (2 n_{2j-1} - 1)(2 n_{2j} - 1) - 1 ],

  from the fermionic ladder matrices.

The third, deliberately pedestrian route (`colstack_superoperator` plus the
basis change `majorana_basis_matrix`) builds the superoperator by Kronecker
products in the column-stacking convention and conjugates it into the
Majorana basis; it is the brute-force oracle the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import (
    _PHASE_OF_POWER,
    _bitcount,
    _crossings,
    _product_superoperator,
    c_dagger_matrix,
    c_matrix,
    hermitian_powers,
    number_values,
    pauli_monomials,
)
from .model import ModelParams, build_dissipators, build_hamiltonian
from .pauli import _check_dense, majorana_to_spin, MajoranaMonomial


class UnsupportedModelError(ValueError):
    """Raised when the third-quantized closed form does not cover the model."""


@dataclass
class Superoperator:
    """A Lindblad generator with its provenance tag."""

    n_sites: int
    matrix: sp.spmatrix
    source_tag: str  # "third-quantized" or "direct-vectorized"

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def _model_operators(params_or_h, dissipators, n_sites):
    """(hamiltonian, dissipators, n_sites) from either call form."""
    if isinstance(params_or_h, ModelParams):
        params = params_or_h
        return build_hamiltonian(params), build_dissipators(params), params.n_sites
    h = params_or_h
    return h, list(dissipators or []), h.n_sites if n_sites is None else n_sites


def build_liouvillian_direct(
    params_or_h, dissipators=None, n_sites: int | None = None, cols=None
) -> Superoperator:
    """Assemble L for an arbitrary Pauli-word model in one sparse construction.

    Either pass ModelParams, or an explicit (OperatorSum hamiltonian,
    list of OperatorSum dissipators, n_sites). cols, a sorted array of
    basis indices whose span L maps into itself, builds only the block on
    those indices (see `fock._product_superoperator`).
    """
    h, dissipators, n_sites = _model_operators(params_or_h, dissipators, n_sites)
    # i d rho/dt = H rho - rho H + i sum_k (L rho L^dag - 1/2 L^dag L rho - 1/2 rho L^dag L)
    terms = [(h, None, 1.0), (None, h, -1.0)]
    for L_op in dissipators:
        Ld = L_op.dagger()
        ldl = Ld @ L_op
        terms += [(L_op, Ld, 1j), (ldl, None, -0.5j), (None, ldl, -0.5j)]
    return Superoperator(n_sites, _product_superoperator(terms, n_sites, cols), "direct-vectorized")


@dataclass
class GeneratorTable:
    """The real generator -i L on the Hermitian basis h_a = i^{p_a} w^a of
    one block, as a linear map of the word weights (`generator_table`).

    Row r of the block holds the columns columns[indptr[r]:indptr[r + 1]],
    in ascending order, its diagonal always among them at entry
    diagonal[r]. Entry e of a model with weights theta (one per word, the
    Hamiltonian words first, then the jump words) is
    sum_k weights[e, k] theta_k.
    """

    n_sites: int
    indices: np.ndarray  # sorted basis indices of the block
    indptr: np.ndarray
    columns: np.ndarray
    diagonal: np.ndarray
    weights: sp.csr_matrix  # (entries, words)

    def values(self, theta: np.ndarray) -> np.ndarray:
        """The entries, shape (entries, runs), of each row of weights theta (runs, words)."""
        return self.weights @ theta.T


def anticommuting(masks: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(masks, words) booleans: whether w^m anticommutes with w^a, by
    w^m w^a = (-1)^{|m||a| - |m & a|} w^a w^m."""
    return ((_bitcount(masks)[:, None] * _bitcount(words) + _bitcount(masks[:, None] & words)) & 1) == 1


def generator_table(hamiltonian, jumps, n_sites: int, cols) -> GeneratorTable:
    """`GeneratorTable` of H = sum_k theta_k h_k and the jump operators
    sqrt(theta_l) l for Hermitian PauliStrings h_k (hamiltonian, none the
    identity) and l (jumps), on the sorted basis indices cols whose span L
    maps into itself; the words are vectorized by `fock.pauli_monomials`.

    Each word is Hermitian and squares to 1, so it commutes or anticommutes
    with each monomial (`anticommuting`). A Hamiltonian word h = i^p w^m
    therefore sends w^a to [h, w^a] = 2 i^p w^m w^a only where it
    anticommutes, an entry at the combined mask m alone, and a jump word adds
    l w^a l - w^a = -2 w^a there, on the diagonal. On the Hermitian basis,
    as in `dynamics._hermitian_basis_generator`, the entry of h at row
    r = c ^ m is 2 s i^{3 + p + p_c - p_r} with s the sign of w^m w^c, and
    that of l is -2. The powers of i are exact, so an odd one is a bug, not
    rounding, and raises RuntimeError. A word that sends a monomial of the
    block outside it raises ValueError: the column set is not closed.
    """
    hamiltonian = list(hamiltonian)
    basis = np.asarray(cols, dtype=np.int64)
    size = basis.size
    h_masks, h_powers = pauli_monomials(hamiltonian, n_sites)
    h_anti = anticommuting(h_masks, basis)
    j_anti = anticommuting(pauli_monomials(list(jumps), n_sites)[0], basis)
    # row r holds the partner r ^ m for the diagonal (m = 0) and each
    # Hamiltonian mask m that anticommutes with it, in ascending order
    partners = basis[:, None] ^ np.concatenate([[0], h_masks])
    order = np.argsort(partners, axis=1)
    partners = np.take_along_axis(partners, order, axis=1)
    held = np.take_along_axis(np.vstack([np.ones(size, bool), h_anti]).T, order, axis=1)
    pos = np.searchsorted(basis, partners).clip(max=size - 1)
    leaks = held & (basis[pos] != partners)
    if leaks.any():
        word = hamiltonian[order[leaks][0] - 1]
        raise ValueError(f"the column set is not closed: the word {word.to_label()} leaves its span")
    rows, slots = np.nonzero(held)
    word = order[rows, slots] - 1  # -1 on the diagonal
    columns = pos[rows, slots]
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(held.sum(axis=1), out=indptr[1:])
    diagonal = np.flatnonzero(word < 0)
    off = np.flatnonzero(word >= 0)
    k = word[off]
    c = basis[columns[off]]
    cross = np.array([_crossings(int(m), 2 * n_sites, right=False) for m in h_masks], dtype=np.int64)
    powers = hermitian_powers(basis)
    phase = _PHASE_OF_POWER[(3 + h_powers[k] + powers[columns[off]] - powers[rows[off]]) & 3]
    if phase.imag.any():
        raise RuntimeError("the generator is not real on the Hermitian basis")
    values = 2.0 * (1 - 2 * (_bitcount(c & cross[k]) & 1)) * phase.real
    jump_rows, jump_words = np.nonzero(j_anti.T)
    weights = sp.csr_matrix(
        (
            np.concatenate([values, np.full(jump_rows.size, -2.0)]),
            (np.concatenate([off, diagonal[jump_rows]]), np.concatenate([k, h_masks.size + jump_words])),
        ),
        shape=(rows.size, h_masks.size + j_anti.shape[0]),
    )
    return GeneratorTable(n_sites, basis, indptr, columns, diagonal, weights)


def build_liouvillian_thirdq(params: ModelParams) -> Superoperator:
    """Closed third-quantized form; unperturbed models only."""
    if not params.is_unperturbed():
        raise UnsupportedModelError(
            "third-quantized closed form covers only the unperturbed chain "
            "(transverse_u = 0, field_b = 0, bond_dissipation = 0)"
        )
    n = params.n_sites
    dim = 4 ** n
    mat = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(1, n):
        Jj = params.couplings[j - 1]
        if Jj != 0:
            hop = (
                c_dagger_matrix(2 * j, n) @ c_matrix(2 * j + 1, n)
                + c_matrix(2 * j, n) @ c_dagger_matrix(2 * j + 1, n)
            )
            mat = mat + (-2j * Jj) * hop
    diag = np.zeros(dim, dtype=complex)
    for j in range(1, n + 1):
        gj = params.dephasing_rates[j - 1]
        if gj != 0:
            pair = (2 * number_values(2 * j - 1, n) - 1) * (
                2 * number_values(2 * j, n) - 1
            )
            diag += 1j * gj * (pair - 1)
    mat = mat + sp.diags(diag)
    return Superoperator(n, mat.tocsr(), "third-quantized")


def identity_left_vector(n_sites: int) -> np.ndarray:
    """Amplitudes of <<I|; trace preservation reads <<I| L = 0."""
    v = np.zeros(4 ** n_sites, dtype=complex)
    v[0] = 2 ** n_sites  # <<I| = tr(I . ), basis norm 2^N on the empty word
    return v


def trace_preservation_defect(superop: Superoperator) -> float:
    """max |<<I| L| over columns; zero for any Lindblad generator."""
    left = identity_left_vector(superop.n_sites)
    row = superop.matrix.T @ left.conj()
    return float(np.abs(row).max())


# ---------------------------------------------------------------------------
# brute-force column-stacking oracle
# ---------------------------------------------------------------------------


def colstack_superoperator(H: np.ndarray, Ls, n_sites: int) -> np.ndarray:
    """Dense generator in the column-stacking convention vec(A rho B) =
    (B^T kron A) vec(rho)."""
    _check_dense(n_sites)
    dim = 2 ** n_sites
    eye = np.eye(dim)
    out = np.kron(eye, H) - np.kron(H.T, eye)
    for L in Ls:
        ldl = L.conj().T @ L
        out = out + 1j * (
            np.kron(L.conj(), L)
            - 0.5 * np.kron(eye, ldl)
            - 0.5 * np.kron(ldl.T, eye)
        )
    return out


def majorana_basis_matrix(n_sites: int) -> np.ndarray:
    """Columns are column-stacked Majorana monomials; W^dag W = 2^N I."""
    _check_dense(n_sites)
    dim = 4 ** n_sites
    W = np.empty((dim, dim), dtype=complex)
    for mask in range(dim):
        m = majorana_to_spin(MajoranaMonomial(2 * n_sites, mask)).to_matrix()
        W[:, mask] = m.reshape(-1, order="F")
    return W


def build_liouvillian_colstack_oracle(
    params_or_h, dissipators=None, n_sites: int | None = None
) -> Superoperator:
    """Dense kron-built generator conjugated into the Majorana basis.

    Takes the same two call forms as `build_liouvillian_direct`. Test oracle
    only: O(16^N) memory.
    """
    h, dissipators, n = _model_operators(params_or_h, dissipators, n_sites)
    H = h.to_matrix()
    Ls = [d.to_matrix() for d in dissipators]
    W = majorana_basis_matrix(n)
    Lcol = colstack_superoperator(H, Ls, n)
    mat = (W.conj().T @ Lcol @ W) / 2 ** n
    return Superoperator(n, sp.csr_matrix(mat), "direct-vectorized")


# ---------------------------------------------------------------------------
# sparse triplet export
# ---------------------------------------------------------------------------


def write_triplets(superop: Superoperator, path) -> None:
    """Text export, one entry per line: row col re im (0-based indices)."""
    coo = superop.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# dimension {superop.dimension} source {superop.source_tag}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v.real:.16e} {v.imag:.16e}\n")


def read_triplets(path) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    dim = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                dim = int(line.split()[2])
                continue
            r, c, re_part, im_part = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(re_part) + 1j * float(im_part))
    if dim is None:
        raise ValueError("triplet file missing dimension header")
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
