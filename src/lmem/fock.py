"""Liouville-Fock space: operators live as vectors over Majorana monomials.

A density matrix (or any operator) A on N spins expands uniquely as
A = sum_a c_a w^{a} over the 4^N canonical Majorana monomials. The amplitude
vector c indexes monomials by their occupation bitstring: component index
int(a) = sum_j a_j 2^{j-1}, i.e. the least-significant bit is a_1. This
"majorana-canonical" convention is fixed everywhere.

Fermionic ladder operators act on the basis by left-prepending a mode and
normal-ordering:

    c_j^dag |w^{a}> = delta_{a_j,0} (-1)^{sum_{k<j} a_k} |w^{a + e_j}>
    c_j     |w^{a}> = delta_{a_j,1} (-1)^{sum_{k<j} a_k} |w^{a - e_j}>

which satisfy the canonical anticommutation relations by construction.

Left and right multiplication by a Majorana monomial are signed permutations
of the basis: w^{a} -> +-w^{a ^ mask}, the sign being the parity of the
occupied modes the mask passes. Every Lindblad superoperator in this package
is a sum of such permutations. `_product_superoperator` assembles any
rho -> sum_k s_k L_k rho R_k in one CSR construction: each monomial pair
of L_k and R_k is one permutation, the value vectors are summed per
combined mask, and the CSR arrays are written directly, with no sparse
additions or products. `left_mult_operator` and `right_mult_operator`,
and their single-monomial forms, are its one-sided cases.

The dense matrix of an amplitude vector comes from one kernel,
`dense_blocks`, which rebuilds a whole stack of samples at once from the
words they store: each word w^{a} is i^q X^x Z^z, so the band
A[i, i ^ x] of fixed X-mask x is a sum over the stored Z-masks z of
(-1)^{|i & z|}, one matmul for the whole stack, and one index table places
the bands. No 4^N array is built. The masks, rows and table depend on
the stored indices alone (`_DenseLayout`), so a trajectory checked in
chunks of samples builds them once. `devectorize` is its one-sample case
on the nonzero amplitudes; `vectorize` and `pauli_coefficients` go the
other way and serve as its independent oracle.

The inner product is <<A|B>> = tr(A^dag B), under which the basis monomials
are orthogonal with squared norm 2^N; the factor is carried explicitly in
`liouville_inner` rather than normalizing the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .pauli import (
    MajoranaMonomial,
    OperatorSum,
    PauliString,
    _check_dense,
    majorana_to_spin,
    operator_to_majorana_terms,
)

BASIS_CONVENTION = "majorana-canonical"

_SITE_MATS = np.stack(
    [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
)  # order I, X, Y, Z


@dataclass
class LiouvilleVector:
    """Amplitudes of an operator over the canonical Majorana-monomial basis."""

    n_sites: int
    amplitudes: np.ndarray
    basis_convention: str = BASIS_CONVENTION

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (4 ** self.n_sites,):
            raise ValueError(
                f"amplitude vector must have length 4^{self.n_sites}, "
                f"got {self.amplitudes.shape}"
            )

    def copy(self) -> "LiouvilleVector":
        return LiouvilleVector(self.n_sites, self.amplitudes.copy())


def site_count(shape) -> int:
    """N of a 4^N amplitude vector or a 2^N x 2^N matrix, exact in integers."""
    shape = tuple(shape)
    size = math.prod(shape)
    n = (size.bit_length() - 1) // 2
    if n < 1 or shape not in ((4 ** n,), (2 ** n, 2 ** n)):
        raise ValueError(
            f"expected a 4^N amplitude vector or a 2^N x 2^N matrix, got shape {shape}"
        )
    return n


def as_amplitudes(state, n_sites: int | None = None):
    """(amplitudes, N) of a state or operator in any accepted form.

    Accepts a LiouvilleVector, an OperatorSum or PauliString (expanded
    symbolically), a 2^N x 2^N matrix, or a raw 4^N amplitude vector. A
    given n_sites must agree with the input.
    """
    if isinstance(state, PauliString):
        state = OperatorSum.from_pauli(state)
    if isinstance(state, OperatorSum):
        state = vectorize_operator(state)
    if isinstance(state, LiouvilleVector):
        v, n = state.amplitudes, state.n_sites
    else:
        v = np.asarray(state, dtype=complex)
        n = site_count(v.shape)
    if n_sites is not None and n_sites != n:
        raise ValueError(f"n_sites={n_sites} contradicts input shape {v.shape} ({n} sites)")
    if v.ndim == 2:
        v = vectorize(v, n).amplitudes
    return v, n


# ---------------------------------------------------------------------------
# bit utilities over the whole index range
# ---------------------------------------------------------------------------


def _bitcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)


@lru_cache(maxsize=None)
def _index_range(n_modes: int) -> np.ndarray:
    return np.arange(1 << n_modes, dtype=np.int64)


def _parity_below(indices: np.ndarray, mode: int) -> np.ndarray:
    """(-1)^{number of occupied modes strictly below `mode` (1-based)}."""
    below = indices & ((1 << (mode - 1)) - 1)
    return 1 - 2 * (_bitcount(below) & 1)


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------


def _check_mode(j: int, n_sites: int) -> None:
    if not 1 <= j <= 2 * n_sites:
        raise ValueError(f"mode index {j} out of range [1, {2 * n_sites}]")


def apply_c_dagger(j: int, state, n_sites=None):
    """Create mode j; annihilates components with a_j = 1."""
    v, n = as_amplitudes(state, n_sites)
    _check_mode(j, n)
    idx = _index_range(2 * n)
    bit = np.int64(1) << (j - 1)
    src = (idx & bit) == 0
    out = np.zeros_like(v)
    out[idx[src] | bit] = _parity_below(idx[src], j) * v[src]
    return LiouvilleVector(n, out) if isinstance(state, LiouvilleVector) else out


def apply_c(j: int, state, n_sites=None):
    """Annihilate mode j; kills components with a_j = 0."""
    v, n = as_amplitudes(state, n_sites)
    _check_mode(j, n)
    idx = _index_range(2 * n)
    bit = np.int64(1) << (j - 1)
    src = (idx & bit) != 0
    out = np.zeros_like(v)
    out[idx[src] & ~bit] = _parity_below(idx[src], j) * v[src]
    return LiouvilleVector(n, out) if isinstance(state, LiouvilleVector) else out


def _signed_permutation(rows, cols, signs, dim) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.asarray(signs, dtype=complex), (rows, cols)), shape=(dim, dim)
    )


def c_dagger_matrix(j: int, n_sites: int) -> sp.csr_matrix:
    _check_mode(j, n_sites)
    dim = 4 ** n_sites
    idx = _index_range(2 * n_sites)
    bit = np.int64(1) << (j - 1)
    cols = idx[(idx & bit) == 0]
    return _signed_permutation(cols | bit, cols, _parity_below(cols, j), dim)


def c_matrix(j: int, n_sites: int) -> sp.csr_matrix:
    return c_dagger_matrix(j, n_sites).conj().T.tocsr()


def number_values(j: int, n_sites: int) -> np.ndarray:
    """Diagonal of the mode-j number operator over the whole basis."""
    _check_mode(j, n_sites)
    idx = _index_range(2 * n_sites)
    return ((idx >> (j - 1)) & 1).astype(np.int64)


# ---------------------------------------------------------------------------
# left / right multiplication superoperators
# ---------------------------------------------------------------------------


def _crossings(mask: int, n_modes: int, right: bool) -> int:
    """Modes that w^{mask} passes on its way into a monomial w^{a}.

    Multiplying w^{a} by w^{mask} from the left (right=False) or the right
    (right=True) gives (-1)^{popcount(a & crossings)} w^{a ^ mask}. A
    prepended w_j passes the occupied modes below j, an appended one those
    above j. The mask's own modes are taken in ascending order, so each of
    them passes only original occupations, and the per-mode parities add,
    i.e. their crossing masks combine by XOR.
    """
    out = 0
    m = mask
    while m:
        low = m & -m
        j = low.bit_length()  # 1-based mode index
        out ^= (1 << n_modes) - (1 << j) if right else (1 << (j - 1)) - 1
        m ^= low
    return out


def _crossing_signs(indices: np.ndarray, crossings: int) -> np.ndarray:
    return 1 - 2 * (_bitcount(indices & crossings) & 1)


def _monomial_operator(mono: MajoranaMonomial, n_sites: int) -> OperatorSum:
    if mono.n_modes != 2 * n_sites:
        raise ValueError("monomial mode count does not match n_sites")
    return majorana_to_spin(mono)


def left_mult_monomial(mono: MajoranaMonomial, n_sites: int) -> sp.csr_matrix:
    """Superoperator of A -> (coeff * w^{mask}) A on amplitude vectors."""
    return _product_superoperator([(_monomial_operator(mono, n_sites), None, 1.0)], n_sites)


def right_mult_monomial(mono: MajoranaMonomial, n_sites: int) -> sp.csr_matrix:
    """Superoperator of A -> A * (coeff * w^{mask}) on amplitude vectors."""
    return _product_superoperator([(None, _monomial_operator(mono, n_sites), 1.0)], n_sites)


def _mask_columns(terms, n_sites: int, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(masks, by_column) of the superoperator of `_product_superoperator`:
    the sorted combined masks m, and by_column[i, j] the entry that w^{basis[j]}
    sends to w^{basis[j] ^ masks[i]}."""
    n_modes = 2 * n_sites
    identity = {0: 1.0}
    pairs = []  # (combined mask, crossing mask, coefficient) per monomial pair
    for left, right, scale in terms:
        left_terms = identity if left is None else operator_to_majorana_terms(left)
        right_terms = identity if right is None else operator_to_majorana_terms(right)
        for b, cb in right_terms.items():
            right_cross = _crossings(b, n_modes, right=True)
            for a, ca in left_terms.items():
                left_cross = _crossings(a, n_modes, right=False)
                # the left sign at col ^ b is the left sign at col times
                # (-1)^{popcount(b & left_cross)}
                coeff = scale * ca * cb * (1 - 2 * ((b & left_cross).bit_count() & 1))
                pairs.append((a ^ b, right_cross ^ left_cross, coeff))
    masks = np.array(sorted({m for m, _, _ in pairs}), dtype=np.int64)
    by_column = np.zeros((masks.size, basis.size), dtype=complex)
    for m, cross, coeff in pairs:
        by_column[np.searchsorted(masks, m)] += coeff * _crossing_signs(basis, cross)
    return masks, by_column


def _product_superoperator(terms, n_sites: int, cols=None) -> sp.csr_matrix:
    """Superoperator of A -> sum_k s_k L_k A R_k on amplitude vectors.

    `terms` lists (L_k, R_k, s_k) with OperatorSums L_k, R_k, where None
    stands for the identity. Each pair of monomials w^{a} of L_k and w^{b}
    of R_k maps w^{col} to +-w^{col ^ a ^ b}: a signed permutation whose
    sign is the right-multiplication sign at col times the left one at
    col ^ b. The value vectors are summed per combined mask a ^ b, and the
    CSR arrays are written directly: row r holds column r ^ m for each
    combined mask m, with exact zeros dropped.

    cols, a sorted array of basis indices whose span the superoperator
    maps into itself, builds only the block on those indices, in their
    order; the partner r ^ m of each index is found by searchsorted. An
    entry whose row falls outside the set must have summed to zero, and a
    nonzero one raises ValueError. None builds the whole 4^N space.
    """
    dim = 4 ** n_sites
    basis = _index_range(2 * n_sites) if cols is None else np.asarray(cols, dtype=np.int64)
    size = basis.size
    masks, by_column = _mask_columns(terms, n_sites, basis)
    if not masks.size:
        return sp.csr_matrix((size, size), dtype=complex)
    index_dtype = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    # row r holds the partner r ^ m for each combined mask m; sorted, the
    # mask of an entry is recovered as r ^ partner
    partners = basis.astype(index_dtype)[:, None] ^ masks.astype(index_dtype)
    partners.sort(axis=1)
    slot = np.searchsorted(masks, basis[:, None] ^ partners)
    if cols is None:
        pos, inside = partners, True
    else:
        pos = np.searchsorted(basis, partners).clip(max=size - 1)
        inside = basis[pos] == partners
        # column r's entry in the outside row r ^ m is by_column[mask, r]
        leak = by_column[slot[~inside], np.nonzero(~inside)[0]]
        if leak.any():
            raise ValueError(
                f"the column set is not closed: an entry of {np.abs(leak).max():.3e} "
                "leaves its span"
            )
    data = by_column[slot, pos]
    del by_column, slot  # released before the compaction copies; they set the peak at large N
    keep = (data != 0) & inside
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix(
        (data[keep], pos[keep].astype(index_dtype, copy=False), indptr), shape=(size, size)
    )


def left_mult_operator(op: OperatorSum, n_sites: int) -> sp.csr_matrix:
    return _product_superoperator([(op, None, 1.0)], n_sites)


def right_mult_operator(op: OperatorSum, n_sites: int) -> sp.csr_matrix:
    return _product_superoperator([(None, op, 1.0)], n_sites)


# ---------------------------------------------------------------------------
# Pauli <-> Majorana amplitude transforms
# ---------------------------------------------------------------------------


_PHASE_OF_POWER = np.array([1, 1j, -1, -1j])  # i^q for q = 0..3


def _word_monomials(words: np.ndarray, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """(mask, power) of each Pauli word index W = sum mu_j 4^{N-j}, with
    word = i^power w^{mask}.

    Closed form of `spin_to_majorana`. Sites are multiplied in from the
    left, X_j = (-i)^{j-1} w_1 ... w_{2j-2} w_{2j-1},
    Y_j = (-i)^{j-1} w_1 ... w_{2j-2} w_{2j} and Z_j = -i w_{2j-1} w_{2j}.
    The product so far lives on modes below 2j-1, so only the string
    w_1 ... w_{2j-2} crosses it: each present mode w_m is passed by the
    m-1 string modes below it, and the sign is the parity of the present
    even modes.
    """
    masks = np.zeros(words.shape, dtype=np.int64)
    power = np.zeros(words.shape, dtype=np.int64)
    even_modes = int("10" * n_sites, 2)  # w_2, w_4, ..., w_{2N}
    for j in range(1, n_sites + 1):
        mu = (words >> (2 * (n_sites - j))) & 3  # I, X, Y, Z = 0..3
        string = (1 << (2 * j - 2)) - 1
        site_masks = np.array(
            [0, string | 1 << (2 * j - 2), string | 1 << (2 * j - 1), 0b11 << (2 * j - 2)]
        )
        site_power = np.array([0, 3 * (j - 1), 3 * (j - 1), 3])
        crossings = np.where((mu == 1) | (mu == 2), _bitcount(masks & even_modes), 0)
        power += site_power[mu] + 2 * crossings
        masks ^= site_masks[mu]
    return masks, power


@lru_cache(maxsize=8)
def pauli_word_table(n_sites: int):
    """For each Pauli word index W = sum mu_j 4^{N-j}: its monomial mask and
    the phase with word = phase * w^{mask}. Returns (masks, phases, word_of_mask).
    """
    words = _index_range(2 * n_sites)
    masks, power = _word_monomials(words, n_sites)
    word_of_mask = np.empty(words.size, dtype=np.int64)
    word_of_mask[masks] = words
    return masks, _PHASE_OF_POWER[power & 3], word_of_mask


def pauli_coefficients(rho: np.ndarray, n_sites: int) -> np.ndarray:
    """All tr(P rho)/2^N for tensor-product Pauli words P, shape (4,)*N.

    Index order matches `pauli_word_table`: axis j is the symbol on site j+1
    in IXYZ order.
    """
    dim = 2 ** n_sites
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {rho.shape}")
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n_sites))
    for k in range(n_sites):
        # contract row axis k and the matching column axis with the site
        # matrices; tensordot prepends the new mu axis
        t = np.tensordot(_SITE_MATS, t, axes=([2, 1], [k, n_sites]))
    # axes are now (mu_N, ..., mu_1); flip to (mu_1, ..., mu_N)
    t = np.transpose(t, axes=tuple(range(n_sites - 1, -1, -1)))
    return t / dim


def vectorize(rho: np.ndarray, n_sites: int | None = None) -> LiouvilleVector:
    """Expand a 2^N x 2^N matrix over Majorana monomials.

    Amplitudes are c_a = tr((w^{a})^dag rho) / 2^N, so rho = sum_a c_a w^{a}.
    """
    rho = np.asarray(rho, dtype=complex)
    if n_sites is None:
        n_sites = site_count(rho.shape)
    if rho.shape != (2 ** n_sites, 2 ** n_sites):
        raise ValueError(f"expected 2^{n_sites} square matrix, got {rho.shape}")
    coeffs = pauli_coefficients(rho, n_sites).reshape(-1)
    masks, phases, _ = pauli_word_table(n_sites)
    amps = np.zeros(4 ** n_sites, dtype=complex)
    # rho = sum_W t_W P_W with P_W = phase_W w^{mask_W}
    amps[masks] = coeffs * phases
    return LiouvilleVector(n_sites, amps)


def vectorize_operator(op: OperatorSum) -> LiouvilleVector:
    """Symbolic expansion of an OperatorSum, no dense matrix required."""
    n = op.n_sites
    amps = np.zeros(4 ** n, dtype=complex)
    for mask, coeff in operator_to_majorana_terms(op).items():
        amps[mask] += coeff
    return LiouvilleVector(n, amps)


# ---------------------------------------------------------------------------
# dense reconstruction
# ---------------------------------------------------------------------------


# complex elements per working array of a kernel that walks a trajectory in
# chunks of samples; from N = 8 on a chunk is one 4^N-long sample
CHUNK_ELEMENTS = 1 << 15


def row_chunks(n_rows: int, row_elements: int) -> list[slice]:
    """Consecutive slices of max(1, CHUNK_ELEMENTS // row_elements) rows."""
    step = max(1, CHUNK_ELEMENTS // row_elements)
    return [slice(k, min(k + step, n_rows)) for k in range(0, n_rows, step)]


def _pauli_bits(indices: np.ndarray, n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, q) of each monomial w^{a}, a in indices, with w^{a} = i^q X^x Z^z.

    Bit b of the masks x and z is site N - b, as in the matrix index. Site
    j holds the modes 2j - 1 and 2j, and w_{2j-1} ~ Z_1 ... Z_{j-1} X_j,
    w_{2j} ~ Z_1 ... Z_{j-1} Y_j, so x_j = a_{2j-1} ^ a_{2j} and z_j is
    a_{2j} plus the parity of the modes above 2j, which is that of the x_k
    with k > j. With the word index W of these symbols, `_word_monomials`
    gives P_W = i^p w^{a}, and P_W = i^{|x & z|} X^x Z^z since Y = i X Z:
    q = |x & z| - p.
    """
    sites = np.arange(n_sites)  # column j - 1 is site j
    pairs = (indices[:, None] >> (2 * sites)) & 3
    xb = (pairs ^ (pairs >> 1)) & 1
    above = np.bitwise_xor.accumulate(xb[:, ::-1], axis=1)[:, ::-1] ^ xb
    zb = (pairs >> 1) ^ above
    weights = 1 << (n_sites - 1 - sites)
    x, z = xb @ weights, zb @ weights
    words = np.where(xb == 1, 1 + zb, 3 * zb) @ (weights * weights)  # I, X, Y, Z = 0..3
    _, p = _word_monomials(words, n_sites)
    return x, z, (_bitcount(x & z) - p) & 3


def dense_blocks(values, indices, n_sites: int, parity_blocks: bool = False) -> np.ndarray:
    """Dense matrices of a stack of samples values (T, len(indices)), held on
    the sorted basis indices `indices` (all 4^N when None), as (T, B, D, D).

    Each stored word is w^{a} = i^q X^x Z^z (`_pauli_bits`), whose entry
    (i, i ^ x) is i^q (-1)^{|x & z|} (-1)^{|i & z|}. So the band of X-mask x
    is A[i, i ^ x] = sum_z S[x, z] (-1)^{|i & z|} with
    S[x, z] = c_a i^q (-1)^{|x & z|}: one matmul of S, over the distinct
    stored x and z, against the +-1 rows of the stored z's, and one index
    table that places the bands. B = 1 and D = 2^N gives the full matrices.
    parity_blocks gives B = 2 and D = 2^{N-1}, the blocks of the even- and
    odd-popcount indices, which is exact for operators that commute with
    the parity M, i.e. whose odd-degree amplitudes all vanish: those are
    the words of odd popcount x, which would land across the blocks, so
    they are dropped. Index i has rank i >> 1 in its block. The returned
    stack is a view with the sample axis moved to the front. n_sites
    beyond the dense cap (`pauli.dense_site_limit`, set by
    LMEM_DENSE_LIMIT) raises SizeLimitError.
    """
    indices = _index_range(2 * n_sites) if indices is None else indices
    return _DenseLayout(indices, n_sites).blocks(values, parity_blocks)


class _DenseLayout:
    """The index tables of `dense_blocks` for one set of stored words: the
    Pauli bits, the distinct X- and Z-masks, the +-1 rows and the placement
    table. They depend on the indices alone, so a trajectory walked in
    chunks of samples builds them once, for each parity flag it meets."""

    def __init__(self, indices, n_sites: int):
        _check_dense(n_sites)
        self.n_sites = n_sites
        self.bits = _pauli_bits(np.asarray(indices, dtype=np.int64), n_sites)
        self._tables = {}

    def _build(self, parity_blocks: bool):
        n_sites = self.n_sites
        x, z, q = self.bits
        keep = (_bitcount(x) & 1) == 0 if parity_blocks else slice(None)
        x, z, q = x[keep], z[keep], q[keep]
        xs, x_slot = np.unique(x, return_inverse=True)
        zs, z_slot = np.unique(z, return_inverse=True)
        phases = _PHASE_OF_POWER[(q + 2 * _bitcount(x & z)) & 3]
        rows = _index_range(n_sites)
        signs = 1.0 - 2 * (_bitcount(rows[:, None] & zs) & 1)
        # flat position of (i, i ^ x) in the stack of B blocks of side D
        shift = int(parity_blocks)
        side = 1 << (n_sites - shift)
        block = _bitcount(rows) & 1 if parity_blocks else 0
        target = ((block * side + (rows >> shift)) * side)[:, None] + ((rows[:, None] ^ xs) >> shift)
        return keep, x_slot, z_slot, phases, signs, target, (1 + shift, side)

    def blocks(self, values, parity_blocks: bool = False) -> np.ndarray:
        """`dense_blocks` of the samples values (T, len(indices))."""
        if parity_blocks not in self._tables:
            self._tables[parity_blocks] = self._build(parity_blocks)
        keep, x_slot, z_slot, phases, signs, target, (count_blocks, side) = self._tables[parity_blocks]
        values = np.asarray(values, dtype=complex)[:, keep]
        count = len(values)
        # S z-major with the sample axis last, so the matmul is one real product
        # on interleaved real and imaginary parts and the placement copies rows
        s = np.zeros((signs.shape[1], target.shape[1], count), dtype=complex)
        s[z_slot, x_slot] = (values * phases).T
        bands = (signs @ s.reshape(s.shape[0], -1).view(float)).view(complex)  # (i, x, sample)
        del s  # released before the stack is allocated
        out = np.zeros((count_blocks * side * side, count), dtype=complex)
        out[target.ravel()] = bands.reshape(target.size, count)
        return np.moveaxis(out.reshape(count_blocks, side, side, count), -1, 0)


def devectorize(state, n_sites: int | None = None) -> np.ndarray:
    """Rebuild the dense matrix from Majorana amplitudes: the one-sample
    case of `dense_blocks` on the nonzero amplitudes."""
    v, n = as_amplitudes(state, n_sites)
    support = np.flatnonzero(v)
    return dense_blocks(v[None, support], support, n)[0, 0]


# ---------------------------------------------------------------------------
# inner products and structure checks
# ---------------------------------------------------------------------------


def liouville_inner(a, b, n_sites=None) -> complex:
    """<<A|B>> = tr(A^dag B) = 2^N (conj(a) . b)."""
    va, na = as_amplitudes(a, n_sites)
    vb, nb = as_amplitudes(b, n_sites)
    if na != nb:
        raise ValueError("site-count mismatch in inner product")
    return 2 ** na * np.vdot(va, vb)


def gather_columns(values: np.ndarray, indices, wanted) -> np.ndarray:
    """values[..., j] at the position j of each basis index in `wanted`.

    values holds amplitudes along its last axis, on the sorted basis
    indices `indices`, or on all 4^N when indices is None. An index that
    is not stored reads 0.
    """
    wanted = np.asarray(wanted, dtype=np.int64)
    if indices is None:
        return values[..., wanted]
    pos = np.searchsorted(indices, wanted).clip(max=indices.size - 1)
    return np.where(indices[pos] == wanted, values[..., pos], 0)


def scatter_columns(values: np.ndarray, indices: np.ndarray, n_sites: int) -> np.ndarray:
    """The 4^N amplitude vectors of values held on the sorted basis indices
    `indices` along the last axis, the inverse of `gather_columns`: values
    itself when the indices cover the whole space, else a new array that is
    zero off them."""
    if indices.size == 4 ** n_sites:
        return values
    out = np.zeros(values.shape[:-1] + (4 ** n_sites,), dtype=complex)
    out[..., indices] = values
    return out


def vector_trace(state, n_sites=None) -> complex:
    """tr(A) = 2^N c_0 (only the empty monomial has trace)."""
    v, n = as_amplitudes(state, n_sites)
    return 2 ** n * v[0]


def purity_rows(amplitudes, n_sites: int) -> np.ndarray:
    """tr(A^dag A) = 2^N sum |c_a|^2 of each amplitude vector along the last axis."""
    return 2 ** n_sites * np.vecdot(amplitudes, amplitudes).real


def vector_purity(state, n_sites=None) -> float:
    """tr(A^dag A) = 2^N sum |c_a|^2; equals tr(rho^2) for Hermitian rho."""
    v, n = as_amplitudes(state, n_sites)
    return float(purity_rows(v, n))


def hermitian_powers(indices: np.ndarray) -> np.ndarray:
    """p_a with i^{p_a} w^{a} Hermitian: 1 where the degree k is 2 or 3
    mod 4, i.e. where (-1)^{k(k-1)/2} = -1, else 0."""
    return (_bitcount(indices) >> 1) & 1


@lru_cache(maxsize=8)
def reversal_signs(n_sites: int) -> np.ndarray:
    """s_a with (w^{a})^dag = s_a w^{a}: (-1)^{k(k-1)/2} = (-1)^{p_a} for degree k."""
    return 1 - 2 * hermitian_powers(_index_range(2 * n_sites))


def hermitian_part(amplitudes, n_sites: int, indices=None) -> np.ndarray:
    """Amplitudes of (A + A^dag) / 2 along the last axis, a new array, for
    amplitudes on the basis indices `indices` (all 4^N when None).

    (c_a + s_a conj(c_a)) / 2 is the real part of c_a where s_a = 1 and
    the imaginary part where s_a = -1, so it is copied exactly.
    """
    hermitian = reversal_signs(n_sites) > 0 if indices is None else hermitian_powers(indices) == 0
    out = np.array(amplitudes, dtype=complex)
    np.copyto(out.imag, 0.0, where=hermitian)
    np.copyto(out.real, 0.0, where=~hermitian)
    return out


def _hermiticity_defect(amplitudes: np.ndarray, part: np.ndarray) -> float:
    """max |c_a - s_a conj(c_a)| over any stack of amplitudes, given their
    Hermitian part h: c_a - h_a = (c_a - s_a conj(c_a)) / 2 exactly."""
    return 2 * float(np.abs(amplitudes - part).max())


def hermiticity_defect(state, n_sites=None) -> float:
    """max |c_a - s_a conj(c_a)|; zero iff the operator is Hermitian."""
    v, n = as_amplitudes(state, n_sites)
    return _hermiticity_defect(v, hermitian_part(v, n))


def parity_values(n_sites: int) -> np.ndarray:
    """Diagonal of the conjugation superoperator A -> M A M: (-1)^{degree}."""
    return 1 - 2 * (_bitcount(_index_range(2 * n_sites)) & 1)
