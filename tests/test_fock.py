import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmem.fock import (
    _PHASE_OF_POWER,
    LiouvilleVector,
    MemoryBudgetError,
    _product_superoperator,
    apply_c,
    apply_c_dagger,
    c_dagger_matrix,
    c_matrix,
    dense_blocks,
    devectorize,
    hermitian_part,
    hermiticity_defect,
    left_mult_monomial,
    left_mult_operator,
    liouville_inner,
    number_values,
    parity_values,
    pauli_coefficients,
    pauli_monomials,
    pauli_word_table,
    reversal_signs,
    right_mult_monomial,
    right_mult_operator,
    row_chunks,
    vector_purity,
    vector_trace,
    vectorize,
    vectorize_operator,
)
from lmem.pauli import (
    MajoranaMonomial,
    OperatorSum,
    PauliString,
    majorana_to_spin,
    parity_word,
    spin_to_majorana,
)


def monomial_matrix(mask, n, coeff=1.0):
    op = majorana_to_spin(MajoranaMonomial(2 * n, mask, coeff))
    return op.to_matrix()


def random_matrix(rng, n, hermitian=False):
    d = 2 ** n
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2 if hermitian else m


def basis_vector(mask, n):
    v = np.zeros(4 ** n, dtype=complex)
    v[mask] = 1.0
    return v


class TestLadderOperators:
    def test_create_on_vacuum(self):
        n = 2
        out = apply_c_dagger(1, basis_vector(0, n), n)
        np.testing.assert_array_equal(out, basis_vector(0b0001, n))

    def test_car_on_vacuum(self):
        n = 2
        vac = basis_vector(0, n)
        cc = apply_c(1, apply_c_dagger(1, vac, n), n)
        np.testing.assert_array_equal(cc, vac)
        assert np.all(apply_c_dagger(1, apply_c(1, vac, n), n) == 0)

    def test_ordering_sign(self):
        # c_2^dag |w_1> = |w_2 w_1> = -|w_1 w_2>
        n = 2
        out = apply_c_dagger(2, basis_vector(0b01, n), n)
        np.testing.assert_array_equal(out, -basis_vector(0b11, n))

    def test_matrices_match_apply(self):
        rng = np.random.default_rng(2)
        n = 2
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        for j in range(1, 5):
            np.testing.assert_allclose(
                c_dagger_matrix(j, n) @ v, apply_c_dagger(j, v, n), atol=1e-14
            )
            np.testing.assert_allclose(c_matrix(j, n) @ v, apply_c(j, v, n), atol=1e-14)

    def test_car_full(self):
        for n in (2, 3):
            dim = 4 ** n
            C = [c_matrix(j, n) for j in range(1, 2 * n + 1)]
            Cd = [c_dagger_matrix(j, n) for j in range(1, 2 * n + 1)]
            zeros = np.zeros((dim, dim))
            for i in range(2 * n):
                for j in range(2 * n):
                    anti = (C[i] @ Cd[j] + Cd[j] @ C[i]).toarray()
                    target = np.eye(dim) if i == j else zeros
                    np.testing.assert_allclose(anti, target, atol=1e-14)
                    anti2 = (C[i] @ C[j] + C[j] @ C[i]).toarray()
                    np.testing.assert_allclose(anti2, zeros, atol=1e-14)

    def test_mode_index_range(self):
        with pytest.raises(ValueError):
            apply_c(0, basis_vector(0, 2), 2)
        with pytest.raises(ValueError):
            c_dagger_matrix(5, 2)

    def test_number_values(self):
        n = 2
        nv = number_values(3, n)
        assert nv[0b0100] == 1 and nv[0b0011] == 0


class TestVectorize:
    def test_maximally_mixed(self):
        n = 3
        v = vectorize(np.eye(8) / 8, n)
        assert v.amplitudes[0] == pytest.approx(2.0 ** -n)
        assert np.abs(v.amplitudes[1:]).max() == 0

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            rho = random_matrix(rng, n, hermitian=True)
            v = vectorize(rho, n)
            np.testing.assert_allclose(devectorize(v), rho, atol=1e-13)

    def test_amplitudes_match_trace_formula(self):
        rng = np.random.default_rng(8)
        n = 2
        rho = random_matrix(rng, n)
        v = vectorize(rho, n)
        for mask in range(16):
            w = monomial_matrix(mask, n)
            expected = np.trace(w.conj().T @ rho) / 2 ** n
            assert v.amplitudes[mask] == pytest.approx(expected, abs=1e-13)

    def test_stationary_family_two_amplitudes(self):
        n = 3
        m = parity_word(n).to_matrix()
        for zeta in (0.5, -1.0):
            rho = (np.eye(8) + zeta * m) / 8
            v = vectorize(rho, n)
            nonzero = np.flatnonzero(np.abs(v.amplitudes) > 1e-14)
            assert set(nonzero) == {0, 4 ** n - 1}

    def test_vectorize_operator_matches_dense(self):
        rng = np.random.default_rng(12)
        n = 3
        words = [
            PauliString.from_codes("".join(rng.choice(list("IXYZ")) for _ in range(n)))
            for _ in range(5)
        ]
        op = OperatorSum(n, [(rng.normal(), w) for w in words])
        np.testing.assert_allclose(
            vectorize_operator(op).amplitudes,
            vectorize(op.to_matrix(), n).amplitudes,
            atol=1e-13,
        )

    def test_pauli_coefficients_against_traces(self):
        rng = np.random.default_rng(21)
        n = 3
        rho = random_matrix(rng, n)
        coeffs = pauli_coefficients(rho, n)
        codes = "IXYZ"
        for _ in range(20):
            mu = tuple(rng.integers(0, 4, size=n))
            word = PauliString.from_codes("".join(codes[d] for d in mu))
            expected = np.trace(word.to_matrix() @ rho) / 2 ** n
            assert coeffs[mu] == pytest.approx(expected, abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vectorize(np.eye(6), 2)


def word_codes(index, n):
    """Pauli symbols of word index W = sum mu_j 4^{N-j}, site 1 first."""
    return "".join("IXYZ"[(index >> (2 * (n - j))) & 3] for j in range(1, n + 1))


def assert_table_entry(table, index, n):
    masks, phases, word_of_mask = table
    mono = spin_to_majorana(PauliString.from_codes(word_codes(index, n)))
    assert masks[index] == mono.mask
    assert phases[index] == mono.coeff
    assert word_of_mask[mono.mask] == index


class TestPauliWordTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_word_matches_scalar_map(self, n):
        table = pauli_word_table(n)
        for index in range(4 ** n):
            assert_table_entry(table, index, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_words_match_scalar_map(self, data):
        n = data.draw(st.integers(6, 9))
        index = data.draw(st.integers(0, 4 ** n - 1))
        assert_table_entry(pauli_word_table(n), index, n)


    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_signed_words_match_scalar_map(self, n):
        rng = np.random.default_rng(n)
        words = [
            PauliString.from_codes(word_codes(int(index), n)).scaled(int(turns))
            for index, turns in zip(rng.integers(0, 4 ** n, 40), rng.integers(0, 4, 40))
        ]
        masks, powers = pauli_monomials(words, n)
        for word, mask, power in zip(words, masks, powers):
            mono = spin_to_majorana(word)
            assert mask == mono.mask and _PHASE_OF_POWER[power] == mono.coeff


def test_vectorize_operator_checks_the_memory_limit(monkeypatch):
    # the 16 x 4^N bytes are checked before they are allocated
    import lmem.fock

    op = OperatorSum.identity(4)
    monkeypatch.setattr(lmem.fock, "_memory_limit", lambda: 16 * 4 ** 4 - 1)
    with pytest.raises(MemoryBudgetError, match="n_sites=4") as info:
        vectorize_operator(op)
    assert info.value.setting == "n_sites"
    monkeypatch.setattr(lmem.fock, "_memory_limit", lambda: 16 * 4 ** 4)
    assert vectorize_operator(op).amplitudes[0] == 1.0


class TestMultiplicationSuperoperators:
    def test_left_right_match_dense(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            rho = random_matrix(rng, n)
            v = vectorize(rho, n).amplitudes
            for _ in range(8):
                mask = int(rng.integers(0, 4 ** n))
                coeff = complex(rng.normal(), rng.normal())
                w = monomial_matrix(mask, n, coeff)
                np.testing.assert_allclose(
                    devectorize(left_mult_monomial(MajoranaMonomial(2 * n, mask, coeff), n) @ v, n),
                    w @ rho,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    devectorize(right_mult_monomial(MajoranaMonomial(2 * n, mask, coeff), n) @ v, n),
                    rho @ w,
                    atol=1e-12,
                )

    def test_operator_superoperators(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            words = [
                PauliString.from_codes("".join(rng.choice(list("IXYZ")) for _ in range(n)))
                for _ in range(8)
            ]
            op = OperatorSum(n, [(complex(rng.normal(), rng.normal()), w) for w in words])
            rho = random_matrix(rng, n)
            v = vectorize(rho, n).amplitudes
            np.testing.assert_allclose(
                devectorize(left_mult_operator(op, n) @ v, n), op.to_matrix() @ rho, atol=1e-12
            )
            np.testing.assert_allclose(
                devectorize(right_mult_operator(op, n) @ v, n), rho @ op.to_matrix(), atol=1e-12
            )

    def test_product_superoperator_matches_dense(self):
        # sum_k s_k A_k rho B_k with multi-term operators on both sides
        rng = np.random.default_rng(21)

        def random_op(n, k):
            words = [
                PauliString.from_codes("".join(rng.choice(list("IXYZ")) for _ in range(n)))
                for _ in range(k)
            ]
            return OperatorSum(n, [(complex(rng.normal(), rng.normal()), w) for w in words])

        for n in (1, 2, 3):
            terms = [(random_op(n, 4), random_op(n, 3), complex(rng.normal(), rng.normal()))
                     for _ in range(3)]
            terms += [(random_op(n, 2), None, -1.5), (None, random_op(n, 2), 0.5j)]
            rho = random_matrix(rng, n)
            expected = sum(
                s * (np.eye(2 ** n) if a is None else a.to_matrix())
                @ rho
                @ (np.eye(2 ** n) if b is None else b.to_matrix())
                for a, b, s in terms
            )
            m = _product_superoperator(terms, n)
            assert m.has_canonical_format and np.all(m.data != 0)
            np.testing.assert_allclose(
                devectorize(m @ vectorize(rho, n).amplitudes, n), expected, atol=1e-12
            )
        empty = _product_superoperator([(OperatorSum(2), None, 1.0)], 2)
        assert empty.shape == (16, 16) and empty.nnz == 0

    def test_left_multiplication_equals_ladder_sum(self):
        # prepending a single mode w_j is exactly c_j + c_j^dag
        n = 2
        for j in range(1, 5):
            mono = MajoranaMonomial(2 * n, 1 << (j - 1))
            lm = left_mult_monomial(mono, n).toarray()
            ladder = (c_matrix(j, n) + c_dagger_matrix(j, n)).toarray()
            np.testing.assert_allclose(lm, ladder, atol=1e-14)


class TestStructure:
    def test_inner_product_is_trace(self):
        rng = np.random.default_rng(14)
        n = 3
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        lhs = liouville_inner(vectorize(a, n), vectorize(b, n))
        rhs = np.trace(a.conj().T @ b)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_basis_norm(self):
        n = 3
        v = LiouvilleVector(n, basis_vector(5, n))
        assert liouville_inner(v, v) == pytest.approx(2 ** n)

    def test_trace_and_purity(self):
        rng = np.random.default_rng(16)
        n = 2
        rho = random_matrix(rng, n, hermitian=True)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho).real
        v = vectorize(rho, n)
        assert vector_trace(v) == pytest.approx(1.0, abs=1e-12)
        assert vector_purity(v) == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)

    def test_conjugation_structure(self):
        rng = np.random.default_rng(18)
        n = 3
        rho = random_matrix(rng, n)
        np.testing.assert_allclose(
            reversal_signs(n) * vectorize(rho, n).amplitudes.conj(),
            vectorize(rho.conj().T, n).amplitudes,
            atol=1e-13,
        )
        herm = random_matrix(rng, n, hermitian=True)
        assert hermiticity_defect(vectorize(herm, n)) < 1e-13
        assert hermiticity_defect(vectorize(rho, n)) > 1e-3

    def test_parity_values_match_conjugation_by_parity_word(self):
        n = 2
        m = parity_word(n).to_matrix()
        rng = np.random.default_rng(20)
        rho = random_matrix(rng, n)
        v = vectorize(rho, n).amplitudes
        np.testing.assert_allclose(
            parity_values(n) * v, vectorize(m @ rho @ m, n).amplitudes, atol=1e-13
        )


def pauli_oracle(amplitudes, n):
    """sum_W t_W P_W with t_W = c_{mask_W} / coeff_W for P_W = coeff_W w^{mask_W}."""
    out = np.zeros((len(amplitudes), 2 ** n, 2 ** n), dtype=complex)
    for index in range(4 ** n):
        word = PauliString.from_codes(word_codes(index, n))
        mono = spin_to_majorana(word)
        out += (amplitudes[:, mono.mask] / mono.coeff)[:, None, None] * word.to_matrix()
    return out


def random_support(rng, n, even=False):
    """A random sorted subset of the basis indices, of even degree only if asked."""
    idx = np.arange(4 ** n)
    if even:
        idx = idx[parity_values(n) > 0]
    return np.sort(rng.choice(idx, size=max(1, idx.size // 3), replace=False))


def scattered(values, indices, n):
    """The (T, 4^N) amplitudes of values held on indices, for the oracle."""
    out = np.zeros((len(values), 4 ** n), dtype=complex)
    out[:, indices] = values
    return out


def random_values(rng, shape):
    # complex amplitudes, so the matrices are not Hermitian
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestDenseBlocks:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_matrices_match_pauli_sum(self, n):
        rng = np.random.default_rng(100 + n)
        amps = random_values(rng, (7, 4 ** n))
        got = dense_blocks(amps, None, n)
        assert got.shape == (7, 1, 2 ** n, 2 ** n)
        np.testing.assert_allclose(got[:, 0], pauli_oracle(amps, n), rtol=0, atol=1e-13)
        for k in range(len(amps)):
            np.testing.assert_allclose(devectorize(amps[k], n), got[k, 0], rtol=0, atol=0)
            np.testing.assert_allclose(
                vectorize(got[k, 0], n).amplitudes, amps[k], rtol=0, atol=1e-13
            )
        # the same on a random subset of the words, stored on its indices
        indices = random_support(rng, n)
        values = random_values(rng, (7, indices.size))
        amps = scattered(values, indices, n)
        got = dense_blocks(values, indices, n)
        np.testing.assert_allclose(got[:, 0], pauli_oracle(amps, n), rtol=0, atol=1e-13)
        for k in range(len(amps)):
            np.testing.assert_allclose(devectorize(amps[k], n), got[k, 0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_parity_blocks_match_pauli_sum(self, n):
        rng = np.random.default_rng(200 + n)
        even = np.bitwise_count(np.arange(2 ** n)) % 2 == 0
        # all 4^N indices with zeros on the odd-degree words, and a random
        # subset of the even-degree words: both commute with the parity M
        amps = random_values(rng, (5, 4 ** n))
        amps[:, parity_values(n) < 0] = 0.0
        indices = random_support(rng, n, even=True)
        values = random_values(rng, (5, indices.size))
        for got, full in (
            (dense_blocks(amps, np.arange(4 ** n), n, parity_blocks=True), amps),
            (dense_blocks(values, indices, n, parity_blocks=True), scattered(values, indices, n)),
        ):
            dense = pauli_oracle(full, n)
            # the oracle is block diagonal in the popcount parity of the index
            assert np.abs(dense[:, even][:, :, ~even]).max() == 0
            assert got.shape == (5, 2, 2 ** (n - 1), 2 ** (n - 1))
            np.testing.assert_allclose(got[:, 0], dense[:, even][:, :, even], rtol=0, atol=1e-13)
            np.testing.assert_allclose(got[:, 1], dense[:, ~even][:, :, ~even], rtol=0, atol=1e-13)

    def test_chunked_stack_matches_whole_stack(self):
        # a stack cut into row chunks, the last one short, rebuilds the same matrices
        n = 6
        rng = np.random.default_rng(7)
        chunks = row_chunks(21, 4 ** n)
        assert len(chunks) > 2 and chunks[-1].stop - chunks[-1].start < chunks[0].stop
        indices = random_support(rng, n)
        values = random_values(rng, (21, indices.size))
        whole = dense_blocks(values, indices, n)
        for rows in chunks:
            np.testing.assert_array_equal(dense_blocks(values[rows], indices, n), whole[rows])

    def test_hermitian_part(self):
        rng = np.random.default_rng(21)
        n = 3
        rho = random_matrix(rng, n)
        v = vectorize(rho, n).amplitudes
        np.testing.assert_allclose(
            hermitian_part(v, n), vectorize((rho + rho.conj().T) / 2, n).amplitudes, atol=1e-14
        )
        assert hermiticity_defect(v, n) == np.abs(v - reversal_signs(n) * np.conj(v)).max()
