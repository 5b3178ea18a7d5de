import numpy as np
import pytest
import scipy.sparse as sp

from lmem.fock import devectorize, parity_values, vectorize
from lmem.kappa import (
    build_P_operator,
    edge_annihilator,
    edge_correlator,
    kappa_all,
    kappa_as_liouville_matrix,
    parity_pair_via_kappa,
)
from lmem.pauli import PauliString, parity_word


def random_rho(rng, n):
    d = 2 ** n
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@pytest.mark.parametrize("n", [2, 3])
def test_clifford_algebra(n):
    kap = kappa_all(n)
    dim = 4 ** n
    eye = np.eye(dim)
    for a in range(1, 4 * n + 1):
        for b in range(a, 4 * n + 1):
            anti = (kap[a] @ kap[b] + kap[b] @ kap[a]).toarray()
            target = 2 * eye if a == b else np.zeros((dim, dim))
            assert np.abs(anti - target).max() < 1e-12


def test_kappa_hermitian_involution():
    n = 2
    for k in range(1, 4 * n + 1):
        m = kappa_as_liouville_matrix(k, n).toarray()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
        np.testing.assert_allclose(m @ m, np.eye(4 ** n), atol=1e-13)


def test_kappa_index_range():
    with pytest.raises(ValueError):
        kappa_as_liouville_matrix(0, 2)
    with pytest.raises(ValueError):
        kappa_as_liouville_matrix(9, 2)


def test_edge_mode_superoperator_maps():
    # kappa_1: rho -> -sx1 M rho M sx1 ; kappa_4N: rho -> i sxN rho M sxN
    rng = np.random.default_rng(3)
    for n in (2, 3):
        kap = kappa_all(n)
        m = parity_word(n).to_matrix()
        sx1 = PauliString.single(n, 1, "X").to_matrix()
        sxn = PauliString.single(n, n, "X").to_matrix()
        for _ in range(5):
            rho = random_rho(rng, n)
            v = vectorize(rho, n).amplitudes
            np.testing.assert_allclose(
                devectorize(kap[1] @ v, n), -sx1 @ m @ rho @ m @ sx1, atol=1e-12
            )
            np.testing.assert_allclose(
                devectorize(kap[4 * n] @ v, n), 1j * sxn @ rho @ m @ sxn, atol=1e-12
            )


def test_parity_pair_forms_agree():
    for n in (2, 3):
        for j in range(1, n):
            a = build_P_operator(j, n).toarray()
            b = parity_pair_via_kappa(j, n).toarray()
            np.testing.assert_allclose(a, b, atol=1e-13)
            np.testing.assert_allclose(a @ a, np.eye(4 ** n), atol=1e-13)


def test_parity_pairs_commute():
    n = 3
    P1 = build_P_operator(1, n)
    P2 = build_P_operator(2, n)
    assert np.abs((P1 @ P2 - P2 @ P1).toarray()).max() == 0


def test_parity_commutes_with_kappa_pairs():
    # right multiplication by the parity word is the total fermion parity of
    # the kappa family: it anticommutes with each kappa, so commutes with
    # every pair product
    from lmem.fock import right_mult_operator
    from lmem.pauli import OperatorSum

    n = 2
    rm = right_mult_operator(OperatorSum.from_pauli(parity_word(n)), n)
    kap = kappa_all(n)
    for a in range(1, 4 * n + 1):
        assert np.abs((rm @ kap[a] + kap[a] @ rm).toarray()).max() < 1e-13
        for b in range(1, 4 * n + 1):
            pair = kap[a] @ kap[b]
            assert np.abs((rm @ pair - pair @ rm).toarray()).max() < 1e-13


def test_conjugation_superoperator_flips_odd_words():
    n = 2
    pi = sp.diags(parity_values(n), dtype=complex).toarray()
    np.testing.assert_allclose(pi, np.diag(np.diag(pi)), atol=1e-14)
    assert pi[0, 0] == 1 and pi[1, 1] == -1  # empty word even, w_1 odd


def test_edge_fermion_relations():
    n = 2
    d = edge_annihilator(n)
    num = (d.conj().T @ d).toarray()
    np.testing.assert_allclose((d @ d).toarray(), 0 * num, atol=1e-13)
    np.testing.assert_allclose(num @ num, num, atol=1e-13)
    np.testing.assert_allclose(
        edge_correlator(n).toarray(), 2 * num - np.eye(4 ** n), atol=1e-13
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_edge_operators_match_signed_permutation_forms(n):
    # kappa_1 = diag(2 n_1 - 1) and kappa_4N = i (sx_N .) (. M sx_N) as
    # separate one-sided permutations: the edge operators must come out
    # with the same CSR arrays, not just the same values
    from lmem.fock import left_mult_operator, number_values, right_mult_operator
    from lmem.pauli import OperatorSum

    sx_n = PauliString.single(n, n, "X")
    kappa_first = sp.diags((2 * number_values(1, n) - 1).astype(complex)).tocsr()
    left = left_mult_operator(OperatorSum.from_pauli(sx_n), n)
    right = right_mult_operator(OperatorSum.from_pauli(parity_word(n).mul(sx_n)), n)
    kappa_last = (1j * left @ right).tocsr()
    expected = {
        "annihilator": (0.5 * (kappa_first + 1j * kappa_last)).tocsr(),
        "correlator": (1j * kappa_first @ kappa_last).tocsr(),
    }
    for name, got in (("annihilator", edge_annihilator(n)), ("correlator", edge_correlator(n))):
        for field in ("data", "indices", "indptr"):
            want = getattr(expected[name], field)
            have = getattr(got, field)
            assert have.dtype == want.dtype, (name, field)
            np.testing.assert_array_equal(have, want, err_msg=f"{name}.{field}")


def test_flip_odd_sign_changes_kappa():
    n = 2
    normal = kappa_all(n)[1].toarray()
    flipped = kappa_all(n, flip_odd_sign=True)[1].toarray()
    np.testing.assert_allclose(flipped, -normal, atol=1e-14)


def test_spin_layer_form_of_generator():
    # the generator in the intermediate Liouville-spin layer:
    # sum_j J_j (P_j - 1) Y_2j Y_2j+1 - i sum_j gamma_j (Z_2j-1 Z_2j + 1)
    import numpy as np
    from lmem.kappa import _spin_layers
    from lmem.liouvillian import build_liouvillian_thirdq
    from lmem.model import ModelParams

    n = 3
    p = ModelParams(
        n_sites=n, couplings=[0.8, 1.3], dephasing_rates=[0.4, 0.9, 0.6]
    )
    X, Y, Z = _spin_layers(n)
    dim = 4 ** n
    eye = np.eye(dim)
    form = np.zeros((dim, dim), dtype=complex)
    for j in range(1, n):
        P = build_P_operator(j, n).toarray()
        form += p.couplings[j - 1] * (P - eye) @ (Y[2 * j] @ Y[2 * j + 1]).toarray()
    for j in range(1, n + 1):
        form += -1j * p.dephasing_rates[j - 1] * (
            (Z[2 * j - 1] @ Z[2 * j]).toarray() + eye
        )
    L = build_liouvillian_thirdq(p).toarray()
    np.testing.assert_allclose(form, L, atol=1e-12)


def test_edge_number_projector_map():
    # d_e^dag d_e acts in the spin picture as rho -> (rho + M sx1 sxN rho sx1 sxN)/2
    import numpy as np
    from lmem.fock import devectorize, vectorize
    from lmem.pauli import PauliString

    rng = np.random.default_rng(9)
    n = 3
    m = parity_word(n).to_matrix()
    sx1 = PauliString.single(n, 1, "X").to_matrix()
    sxn = PauliString.single(n, n, "X").to_matrix()
    d = edge_annihilator(n)
    num = d.conj().T @ d
    for _ in range(5):
        rho = random_rho(rng, n)
        v = vectorize(rho, n).amplitudes
        lhs = devectorize(num @ v, n)
        rhs = 0.5 * (rho + m @ sx1 @ sxn @ rho @ sx1 @ sxn)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
