"""Weak-symmetry sector decomposition of the Liouvillian.

The N-1 commuting involutions P_j = (2 n_{2j} - 1)(2 n_{2j+1} - 1) are
diagonal in the monomial basis: the eigenvalue of P_j on |w^{a}> is +1
exactly when a_{2j} = a_{2j+1}. A sector is the joint eigenspace of a full
sign list {p_1 ... p_{N-1}}; there are 2^{N-1} of them, each of dimension
2^{N+1}, and they partition the 4^N basis states.

Restricted to a sector, the generator is a non-Hermitian Kitaev chain with
bond couplings J_j (p_j - 1), so every p_j = +1 bond is cut and the chain
falls apart into independent segments. `kitaev_form_reconstruction` rebuilds
the restricted block purely from Liouville-Majorana pair products,

    sum_j i J_j (p_j - 1) kappa_{4j-1} kappa_{4j+2}
        + i sum_j gamma_j (i kappa_{4j-2} kappa_{4j-1} - 1),

which must equal the restriction of the third-quantized generator entry for
entry; this single comparison exercises both Jordan-Wigner layers and every
sign convention end to end.

The experiments never build a block. `compose_segment_spectra` solves each
segment's 2^L generator and composes the block spectrum and eigenvector
condition number from them, so its cost grows with the longest segment, not
with 4^N. The dense `restrict_liouvillian` of the third-quantized generator
is its oracle in the tests and in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .fock import _index_range, site_count
from .kappa import build_P_operator, kappa_all
from .liouvillian import Superoperator
from .model import ModelParams
from .pauli import MajoranaMonomial, _check_dense, majorana_to_spin


@dataclass(frozen=True)
class SectorLabel:
    """Sign list {p_j}, one entry per bond."""

    p: tuple

    def __post_init__(self):
        if not all(v in (-1, 1) for v in self.p):
            raise ValueError("sector entries must be +1 or -1")
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))

    @property
    def n_sites(self) -> int:
        return len(self.p) + 1

    @classmethod
    def from_string(cls, text: str) -> "SectorLabel":
        """Parse "+--+" style labels."""
        signs = {"+": 1, "-": -1}
        try:
            return cls(tuple(signs[c] for c in text.strip()))
        except KeyError as exc:
            raise ValueError(f"malformed sector label {text!r}") from exc

    def to_string(self) -> str:
        return "".join("+" if v == 1 else "-" for v in self.p)

    @classmethod
    def all_plus(cls, n_sites: int) -> "SectorLabel":
        return cls((1,) * (n_sites - 1))

    def __repr__(self):
        return f"SectorLabel({self.to_string()!r})"


def all_sector_labels(n_sites: int):
    """All 2^{N-1} labels, lexicographically with +1 first."""
    labels = []
    for bits in range(2 ** (n_sites - 1)):
        p = tuple(1 - 2 * ((bits >> k) & 1) for k in range(n_sites - 1))
        labels.append(SectorLabel(p))
    return labels


def sector_eigenvalues(indices: np.ndarray, n_sites: int) -> np.ndarray:
    """P_j eigenvalue pattern for each basis index; shape (len, N-1)."""
    cols = []
    for j in range(1, n_sites):
        same = ((indices >> (2 * j - 1)) ^ (indices >> (2 * j))) & 1
        cols.append(1 - 2 * same)
    return np.stack(cols, axis=1)


def enumerate_sector_basis(label: SectorLabel, n_sites: int) -> np.ndarray:
    """Occupation bitstrings spanning the sector, in increasing value."""
    if label.n_sites != n_sites:
        raise ValueError("label length does not match n_sites")
    idx = _index_range(2 * n_sites)
    keep = np.ones(idx.size, dtype=bool)
    for j, pj in enumerate(label.p, start=1):
        same = (((idx >> (2 * j - 1)) ^ (idx >> (2 * j))) & 1) == 0
        keep &= same if pj == 1 else ~same
    return idx[keep]


@dataclass
class SectorBlock:
    label: SectorLabel
    basis_indices: np.ndarray
    matrix: np.ndarray  # dense, dimension 2^{N+1}

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


class SectorCommutationError(ValueError):
    """Raised when the generator does not commute with some P_j."""


def _violated_pairs(matrix: sp.spmatrix, n_sites: int, tol: float):
    bad = []
    for j in range(1, n_sites):
        P = build_P_operator(j, n_sites)
        dev = abs(P @ matrix - matrix @ P).max()
        if dev > tol:
            bad.append((j, float(dev)))
    return bad


def restrict_liouvillian(
    superop, label: SectorLabel, tol: float = 1e-12
) -> SectorBlock:
    """Dense restriction of the generator to one sector.

    Raises SectorCommutationError naming the violated P_j when the generator
    leaks between sectors (perturbed models with transverse or interior
    fields do).
    """
    matrix = superop.matrix if isinstance(superop, Superoperator) else superop
    n_sites = (
        superop.n_sites if isinstance(superop, Superoperator) else site_count(matrix.shape[:1])
    )
    idx = enumerate_sector_basis(label, n_sites)
    csc = sp.csc_matrix(matrix)
    cols = csc[:, idx]
    block = cols[idx, :].toarray()
    # leakage out of the sector
    mask = np.ones(matrix.shape[0], dtype=bool)
    mask[idx] = False
    leak = abs(cols[mask, :]).max() if cols[mask, :].nnz else 0.0
    if leak > tol:
        bad = _violated_pairs(matrix, n_sites, tol)
        names = ", ".join(f"P_{j} (deviation {dev:.3e})" for j, dev in bad)
        raise SectorCommutationError(
            f"generator leaks out of sector {label.to_string()} by {leak:.3e}; "
            f"violated symmetries: {names or 'none detected at pair level'}"
        )
    return SectorBlock(label, idx, block)


def kitaev_form_reconstruction(
    label: SectorLabel, params: ModelParams, flip_odd_sign: bool = False
) -> np.ndarray:
    """Sector block rebuilt from Liouville-Majorana pair products only.

    Site-dependent couplings and rates are assembled term by term. The
    returned matrix is expressed on `enumerate_sector_basis(label)` and
    must match `restrict_liouvillian` of the third-quantized generator.
    """
    n = params.n_sites
    if label.n_sites != n:
        raise ValueError("label length does not match params.n_sites")
    kap = kappa_all(n, flip_odd_sign=flip_odd_sign)
    dim = 4 ** n
    mat = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(1, n):
        Jj = params.couplings[j - 1]
        coeff = 1j * Jj * (label.p[j - 1] - 1)
        if coeff != 0:
            mat = mat + coeff * (kap[4 * j - 1] @ kap[4 * j + 2])
    eye = sp.identity(dim, dtype=complex, format="csr")
    for j in range(1, n + 1):
        gj = params.dephasing_rates[j - 1]
        if gj != 0:
            mat = mat + 1j * gj * ((1j * kap[4 * j - 2] @ kap[4 * j - 1]) - eye)
    idx = enumerate_sector_basis(label, n)
    return sp.csc_matrix(mat)[:, idx][idx, :].toarray()


def broken_chain_segments(label: SectorLabel) -> list[tuple[int, int]]:
    """Maximal site runs connected by p_j = -1 bonds, as (first, last) pairs.

    Bonds with p_j = +1 carry zero effective coupling and cut the chain, so
    the all-plus sector returns N singletons and the all-minus sector one
    segment spanning every site.
    """
    n = label.n_sites
    segments = []
    start = 1
    for j, pj in enumerate(label.p, start=1):
        if pj == 1:  # bond j is cut
            segments.append((start, j))
            start = j + 1
    segments.append((start, n))
    return segments


def _chain_majoranas(length: int) -> tuple:
    """The 2L Majorana matrices of an L-site chain, mode 1 first, in the
    standard chain encoding of `majorana_to_spin`.

    The dense cap is checked on every call. The last two lengths stay
    cached, which covers a scan of one sector (fig4-spectrum) and bounds
    what a census keeps: 2L dense 2^L x 2^L matrices are 320 MiB at L=10.
    """
    _check_dense(length)
    return _cached_chain_majoranas(length)


@lru_cache(maxsize=2)
def _cached_chain_majoranas(length: int) -> tuple:
    return tuple(
        majorana_to_spin(MajoranaMonomial(2 * length, 1 << m)).to_matrix()
        for m in range(2 * length)
    )


def _segment_generator(sites: tuple[int, int], params: ModelParams) -> np.ndarray:
    """Generator of one broken-chain segment in its own 2^L Fock space.

    The segment over sites s..e carries the local non-Hermitian Kitaev form
    sum_m -2i J_m k_{2m} k_{2m+1} + sum_m i gamma_m (i k_{2m-1} k_{2m} - 1)
    over its 2L local Majorana modes.
    """
    s, e = sites
    L = e - s + 1
    k = _chain_majoranas(L)  # k[0] is mode 1
    dim = 2 ** L
    mat = np.zeros((dim, dim), dtype=complex)
    for m in range(1, L):  # internal bonds: global bond index s + m - 1
        Jj = params.couplings[s + m - 2]
        mat += -2j * Jj * (k[2 * m - 1] @ k[2 * m])
    for m in range(1, L + 1):
        gj = params.dephasing_rates[s + m - 2]
        mat += 1j * gj * (1j * k[2 * m - 2] @ k[2 * m - 1] - np.eye(dim))
    return mat


def compose_segment_spectra(
    label: SectorLabel, params: ModelParams
) -> tuple[np.ndarray, float]:
    """Eigenvalues and eigenvector condition number of one sector block.

    The block is the Kronecker sum of its broken-chain segment generators,
    copied twice for the decoupled edge pair. Its eigenvalues are the sums
    of one eigenvalue per segment, each repeated twice, and its unit-column
    eigenvector matrix is the Kronecker product of the segments' with the
    2x2 identity. The singular values of a Kronecker product are the
    products of its factors', so the 2-norm condition number is the product
    of the segment condition numbers. Each segment costs one dense eig of
    size 2^L; the 4^N generator and the 2^{N+1} block are never built, and
    `restrict_liouvillian` of the third-quantized generator is the oracle.
    """
    if label.n_sites != params.n_sites:
        raise ValueError("label length does not match params.n_sites")
    if not params.is_unperturbed():
        raise ValueError(
            "sector spectra from segments need the unperturbed model; "
            "set field_b, transverse_u and bond_dissipation to zero"
        )
    sums = np.zeros(1, dtype=complex)
    cond = 1.0
    for seg in broken_chain_segments(label):
        lam, R = np.linalg.eig(_segment_generator(seg, params))
        sums = (sums[:, None] + lam[None, :]).reshape(-1)
        cond *= float(np.linalg.cond(R))
    return np.repeat(sums, 2), cond


def spectral_order(values: np.ndarray) -> np.ndarray:
    """Indices of the canonical order for non-Hermitian spectra: by (imag, real)."""
    values = np.asarray(values)
    return np.lexsort((values.real, values.imag))


def sorted_spectrum(values: np.ndarray) -> np.ndarray:
    """The spectrum in canonical order, see `spectral_order`."""
    values = np.asarray(values)
    return values[spectral_order(values)]


def match_spectra(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Pairs (i, j) matching each a[i] to a distinct b[j] within tol.

    When both spectra have the same length and agree entry by entry in
    canonical order, that order is the matching. Near-degenerate values can
    legally reorder across the two lists, so otherwise the pairs are a
    maximum matching of the graph joining every a[i] to each b[j] within
    tol; the a[i] left without a partner are missing from the pairs, which
    come in the canonical order of a. Multiset equality is a full-length
    result on equal-length spectra.
    """
    a, b = np.asarray(a), np.asarray(b)
    ia, ib = spectral_order(a), spectral_order(b)
    if a.size == b.size and (a.size == 0 or np.abs(a[ia] - b[ib]).max() < tol):
        return list(zip(ia.tolist(), ib.tolist()))
    # imported here: no experiment reaches this branch, and at module level
    # scipy.sparse.csgraph would add ~3 MB and 45 modules to every process,
    # scipy.spatial (which loads scipy.linalg and scipy.special) ~0.2 s and
    # ~16 MB
    from scipy.sparse.csgraph import maximum_bipartite_matching
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack([b.real, b.imag]))
    hits = tree.query_ball_point(np.column_stack([a.real, a.imag]), r=tol)
    rows = np.repeat(np.arange(a.size), [len(h) for h in hits])
    cols = np.fromiter((j for h in hits for j in h), dtype=np.intp, count=rows.size)
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(a.size, b.size))
    partner = maximum_bipartite_matching(graph, perm_type="column")
    return [(i, int(partner[i])) for i in ia.tolist() if partner[i] >= 0]
