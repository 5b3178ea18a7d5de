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

The experiments never build a block. `compose_segment_spectra` takes each
segment's rapidities from one 2L x 2L matrix and composes the block
spectrum from them, so its cost grows with 2^{N+1} sums, not with a 2^L eig
per segment or with 4^N. The dense `restrict_liouvillian` of the
third-quantized generator is its oracle in the tests and in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fock import _index_range, site_count
from .kappa import build_P_operator, kappa_all
from .liouvillian import Superoperator
from .model import ModelParams


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


class SegmentSpectra(NamedTuple):
    """Sector spectra of a scan, one row per point (`compose_segment_spectra`)."""

    eigenvalues: np.ndarray  # (points, 2^{N+1}): by segment, rapidity and sign
    min_gap: np.ndarray  # (points,) smallest gap in one segment's rapidities
    condition_number: np.ndarray  # (points,) product over the segments


def _segment_matrix(couplings: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """A = h - h^T of a stack of segments, couplings (B, L-1), rates (B, L).

    A segment's Kitaev form sum_m -2i J_m k_{2m} k_{2m+1} + sum_m i gamma_m
    (i k_{2m-1} k_{2m} - 1) puts -+gamma_m on site m's modes and -+2i J_m
    across bond m. A is returned as the real D A D^-1, D = diag(i^{m-1}) on
    site m, with -2 J_m on both bond entries: a unitary diagonal D keeps the
    eigenvalues and the eigenvector condition number, and a real eig takes
    half the time."""
    b, length = rates.shape
    a = np.zeros((b, 2 * length, 2 * length))
    site, bond = np.arange(length), np.arange(length - 1)
    a[:, 2 * site, 2 * site + 1] = -rates
    a[:, 2 * site + 1, 2 * site] = rates
    a[:, 2 * bond + 1, 2 * bond + 2] = a[:, 2 * bond + 2, 2 * bond + 1] = -2 * couplings
    return a


def _rapidities(a: np.ndarray):
    """(beta, gap, cond) of a stack of (B, 2L, 2L) segment matrices.

    The 2L eigenvalues come in pairs +-beta_k; each is paired with its
    nearest negative, closest pairs first, since a near-zero pair (the edge
    mode of a long segment, +-1e-12) need not straddle any half-plane. The
    pairs keep the eig order of their first member, and beta_k is that
    member. gap is the smallest distance between two eigenvalues and cond
    the 2-norm condition number of the unit-column eigenvector matrix.
    """
    w, vecs = np.linalg.eig(a)
    n = w.shape[1]
    off = np.diag(np.full(n, np.inf))  # no eigenvalue is its own partner
    dist = np.abs(w[:, :, None] - w[:, None, :]) + off
    pair = np.abs(w[:, :, None] + w[:, None, :]) + off
    rows = np.arange(w.shape[0])
    first = np.empty((w.shape[0], n // 2), dtype=int)
    for k in range(n // 2):
        i, j = np.divmod(pair.reshape(w.shape[0], -1).argmin(axis=1), n)
        first[:, k] = np.minimum(i, j)
        for m in (i, j):
            pair[rows, m, :] = pair[rows, :, m] = np.inf
    first.sort(axis=1)
    return np.take_along_axis(w, first, axis=1), dist.min(axis=(1, 2)), np.linalg.cond(vecs)


def compose_segment_spectra(
    label: SectorLabel, params: ModelParams, gammas=None
) -> SegmentSpectra:
    """Spectra of one sector block from its broken-chain segments, one point
    per gamma (every site's rate set to it), or the model's own rates.

    A segment's generator sum_{a<b} h_ab k_a k_b + c is quadratic in its 2L
    Majoranas, so its 2^L eigenvalues are c + sum_k +-beta_k, with +-beta_k
    the eigenvalues of A = h - h^T (Prosen, New J. Phys. 10, 043026
    (2008)). The block is the Kronecker sum of its segments, twice for the
    edge pair: -i sum gamma + sum of +-beta_k over segments and rapidities,
    each value twice, ordered by segment, rapidity index and sign pattern
    (+ first, the first rapidity slowest). One `np.linalg.eig` per segment
    length covers all points; min_gap is the smallest distance between two
    eigenvalues of one segment's A, condition_number the product over
    segments of their eigenvector condition numbers. The dense
    `restrict_liouvillian` of the third-quantized generator is the oracle.
    """
    if label.n_sites != params.n_sites:
        raise ValueError("label length does not match params.n_sites")
    if not params.is_unperturbed():
        raise ValueError(
            "sector spectra from segments need the unperturbed model; "
            "set field_b, transverse_u and bond_dissipation to zero"
        )
    n = params.n_sites
    own = np.asarray(params.dephasing_rates, dtype=float)[None]
    rates = own if gammas is None else np.repeat(np.asarray(gammas, dtype=float)[:, None], n, axis=1)
    points = rates.shape[0]
    couplings = np.asarray(params.couplings, dtype=float)
    segments = broken_chain_segments(label)
    beta = {}
    gap = np.full(points, np.inf)
    cond = np.ones(points)
    for length in sorted({e - s + 1 for s, e in segments}):
        starts = [s for s, e in segments if e - s + 1 == length]
        a = _segment_matrix(
            np.concatenate([np.tile(couplings[s - 1 : s + length - 2], (points, 1)) for s in starts]),
            np.concatenate([rates[:, s - 1 : s + length - 1] for s in starts]),
        )
        seg_beta, seg_gap, seg_cond = (x.reshape(len(starts), points, *x.shape[1:]) for x in _rapidities(a))
        beta.update(zip(starts, seg_beta))
        gap = np.minimum(gap, seg_gap.min(axis=0))
        cond *= seg_cond.prod(axis=0)
    sums = -1j * rates.sum(axis=1)[:, None]
    for s, _ in segments:
        for bk in beta[s].T:
            sums = np.stack([sums + bk[:, None], sums - bk[:, None]], axis=2).reshape(points, -1)
    return SegmentSpectra(np.repeat(sums, 2, axis=1), gap, cond)


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
