"""Liouville-Majorana operators on the 4^N operator space.

Two cascaded Jordan-Wigner layers sit on top of the fermionic modes of
`fock`. The first dresses the 2N modes as Liouville spins; inverting the
published ladder definitions against the occupation-basis action fixes

    odd  k:  X_k = S_k (c_k + c_k^dag),   Y_k = i S_k (c_k^dag - c_k),  Z_k = 1 - 2 n_k
    even k:  X_k = i S_k (c_k^dag - c_k), Y_k = S_k (c_k + c_k^dag),    Z_k = 2 n_k - 1

with the string S_k = Z_1 ... Z_{k-1}. The second layer introduces the 4N
Liouville-Majorana operators

    kappa_{2i-1} = -(X_1 ... X_{i-1}) Z_i,   kappa_{2i} = (X_1 ... X_{i-1}) Y_i,

a full Clifford family: {kappa_j, kappa_k} = 2 delta_jk. The parity pairs
P_j = i kappa_{4j} kappa_{4j+1} = (2 n_{2j} - 1)(2 n_{2j+1} - 1) generate the
weak symmetry used for sector decomposition, and kappa_1, kappa_{4N} are the
edge modes that decouple from the dynamics at open boundaries. Their actions
pull back to the spin picture as

    kappa_1 |rho>   ->  - sx_1 M rho M sx_1
    kappa_4N |rho>  ->  i sx_N rho M sx_N

with M the total parity (-1)^N sz_1 ... sz_N. In the monomial basis this
makes kappa_1 = diag(2 n_1 - 1), and kappa_4N the all-bit flip
a -> a XOR (4^N - 1). The edge operators used by experiments
(`edge_annihilator`, `edge_correlator`) are built from these two
spin-picture forms, each one `fock._product_superoperator` call; the full
cascade `kappa_all` and its spin layers are the independent construction
the tests and `lmem.verify` check them against.

All operators are signed-permutation sparse matrices; the compositions are
derived programmatically and pinned by the Clifford-algebra and sector
reconstruction tests rather than by hand expansion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .fock import (
    _index_range,
    _product_superoperator,
    c_dagger_matrix,
    c_matrix,
    number_values,
)
from .pauli import OperatorSum, PauliString, parity_word


def _diag(values) -> sp.csr_matrix:
    return sp.diags(np.asarray(values, dtype=complex)).tocsr()


@lru_cache(maxsize=8)
def _spin_layers(n_sites: int):
    """Sparse X_k, Y_k, Z_k for the 2N Liouville spins (1-based lists)."""
    n_modes = 2 * n_sites
    idx = _index_range(n_modes)
    X, Y, Z = [None], [None], [None]
    string = np.ones(4 ** n_sites)
    for k in range(1, n_modes + 1):
        nk = ((idx >> (k - 1)) & 1).astype(np.int64)
        zk = (1 - 2 * nk) if k % 2 == 1 else (2 * nk - 1)
        a = c_matrix(k, n_sites) + c_dagger_matrix(k, n_sites)
        b = c_dagger_matrix(k, n_sites) - c_matrix(k, n_sites)
        s = _diag(string)
        if k % 2 == 1:
            X.append((s @ a).tocsr())
            Y.append((1j * s @ b).tocsr())
        else:
            X.append((1j * s @ b).tocsr())
            Y.append((s @ a).tocsr())
        Z.append(_diag(zk))
        string = string * zk
    return X, Y, Z


@lru_cache(maxsize=16)
def kappa_all(n_sites: int, flip_odd_sign: bool = False) -> tuple:
    """All 4N Liouville-Majorana operators (index 0 unused).

    flip_odd_sign negates the odd-index convention; it exists only so the
    verification suite can demonstrate that the sector reconstruction test
    catches a wrong sign choice.
    """
    X, Y, Z = _spin_layers(n_sites)
    odd_sign = 1.0 if flip_odd_sign else -1.0
    out = [None]
    dim = 4 ** n_sites
    cum = sp.identity(dim, dtype=complex, format="csr")
    for i in range(1, 2 * n_sites + 1):
        out.append((odd_sign * cum @ Z[i]).tocsr())
        out.append((cum @ Y[i]).tocsr())
        cum = (cum @ X[i]).tocsr()
    return tuple(out)


def kappa_as_liouville_matrix(k: int, n_sites: int) -> sp.csr_matrix:
    """The k-th Liouville-Majorana operator, 1 <= k <= 4N."""
    if not 1 <= k <= 4 * n_sites:
        raise ValueError(f"kappa index {k} out of range [1, {4 * n_sites}]")
    return kappa_all(n_sites)[k]


def parity_pair_values(j: int, n_sites: int) -> np.ndarray:
    """Diagonal of P_j = (2 n_{2j} - 1)(2 n_{2j+1} - 1), 1 <= j <= N-1."""
    if not 1 <= j <= n_sites - 1:
        raise ValueError(f"parity-pair index {j} out of range [1, {n_sites - 1}]")
    a = number_values(2 * j, n_sites)
    b = number_values(2 * j + 1, n_sites)
    return (2 * a - 1) * (2 * b - 1)


def build_P_operator(j: int, n_sites: int) -> sp.csr_matrix:
    """Sparse P_j; Hermitian involution commuting with the Liouvillian."""
    return _diag(parity_pair_values(j, n_sites))


def parity_pair_via_kappa(j: int, n_sites: int) -> sp.csr_matrix:
    """P_j from the Majorana pair i kappa_{4j} kappa_{4j+1} (cross-check)."""
    kap = kappa_all(n_sites)
    return (1j * kap[4 * j] @ kap[4 * j + 1]).tocsr()


def _edge_pair(n_sites: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """kappa_1 rho = -sx_1 M rho M sx_1 and kappa_4N rho = i sx_N rho M sx_N (no cascade)."""
    m = OperatorSum.from_pauli(parity_word(n_sites))
    sx_1 = OperatorSum.from_pauli(PauliString.single(n_sites, 1, "X"))
    sx_n = OperatorSum.from_pauli(PauliString.single(n_sites, n_sites, "X"))
    kappa_first = _product_superoperator([(sx_1 @ m, m @ sx_1, -1.0)], n_sites)
    kappa_last = _product_superoperator([(sx_n, m @ sx_n, 1j)], n_sites)
    return kappa_first, kappa_last


@lru_cache(maxsize=8)
def edge_annihilator(n_sites: int) -> sp.csr_matrix:
    """d_e = (kappa_1 + i kappa_{4N}) / 2 for the decoupled edge fermion."""
    kappa_first, kappa_last = _edge_pair(n_sites)
    return (0.5 * (kappa_first + 1j * kappa_last)).tocsr()


@lru_cache(maxsize=8)
def edge_correlator(n_sites: int) -> sp.csr_matrix:
    """i kappa_1 kappa_{4N} = 2 d_e^dag d_e - 1."""
    kappa_first, kappa_last = _edge_pair(n_sites)
    return (1j * kappa_first @ kappa_last).tocsr()
