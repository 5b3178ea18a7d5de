"""Property tests for the Pauli/Majorana algebra, the ladder operators and
the direct edge Liouville-Majoranas."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lmem.fock import c_dagger_matrix, c_matrix
from lmem.kappa import _edge_pair, edge_annihilator, edge_correlator, kappa_all
from lmem.liouvillian import build_liouvillian_thirdq
from lmem.model import ModelParams
from lmem.pauli import PauliString, spin_to_majorana


@st.composite
def signed_words(draw, n):
    """A random Pauli word with a random phase in {1, i, -1, -i}."""
    top = (1 << n) - 1
    return PauliString(n, draw(st.integers(0, top)), draw(st.integers(0, top)), draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jordan_wigner_is_a_homomorphism(data):
    n = data.draw(st.integers(1, 8))
    p, q = data.draw(signed_words(n)), data.draw(signed_words(n))
    assert spin_to_majorana(p.mul(q)) == spin_to_majorana(p).mul(spin_to_majorana(q))


def _anticommutator(a, b):
    return (a @ b + b @ a).toarray()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ladder_operators_satisfy_car(data):
    n = data.draw(st.integers(1, 4))
    i = data.draw(st.integers(1, 2 * n))
    j = data.draw(st.integers(1, 2 * n))
    ci, cj, cdj = c_matrix(i, n), c_matrix(j, n), c_dagger_matrix(j, n)
    delta = np.eye(4 ** n) if i == j else 0
    assert np.abs(_anticommutator(ci, cdj) - delta).max() == 0
    assert np.abs(_anticommutator(ci, cj)).max() == 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_direct_edge_operators_match_cascade(data):
    n = data.draw(st.integers(1, 6))
    kap = kappa_all(n)
    kappa_first, kappa_last = _edge_pair(n)
    assert abs(kappa_first - kap[1]).max() == 0
    assert abs(kappa_last - kap[4 * n]).max() == 0
    assert abs(edge_annihilator(n) - 0.5 * (kap[1] + 1j * kap[4 * n])).max() == 0
    assert abs(edge_correlator(n) - 1j * kap[1] @ kap[4 * n]).max() == 0
    anti = kappa_first @ kappa_last + kappa_last @ kappa_first
    assert anti.count_nonzero() == 0
    assert abs(kappa_last @ kappa_last - sp.identity(4 ** n)).max() == 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_direct_edge_operators_commute_with_generator(data):
    n = data.draw(st.integers(2, 6))
    positive = st.floats(0.1, 3.0)
    params = ModelParams(
        n_sites=n,
        couplings=data.draw(st.lists(positive, min_size=n - 1, max_size=n - 1)),
        dephasing_rates=data.draw(st.lists(positive, min_size=n, max_size=n)),
    )
    L = build_liouvillian_thirdq(params).matrix
    for op in _edge_pair(n):
        assert abs(L @ op - op @ L).max() < 1e-12
