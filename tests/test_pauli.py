import numpy as np
import pytest

from lmem.pauli import (
    MajoranaMonomial,
    OperatorSum,
    PauliString,
    majorana_to_spin,
    parity_word,
    spin_to_majorana,
)


def random_word(rng, n):
    codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    phase = [1, -1, 1j, -1j][rng.integers(0, 4)]
    return PauliString.from_codes(codes, phase)


def majorana_mode_matrix(k, n):
    """Dense w_k via its spin form (independent of MajoranaMonomial algebra)."""
    site = (k + 1) // 2
    codes = ["Z"] * (site - 1) + ["X" if k % 2 else "Y"] + ["I"] * (n - site)
    return PauliString.from_codes(codes).to_matrix()


def monomial_matrix(m: MajoranaMonomial):
    n = m.n_modes // 2
    out = m.coeff * np.eye(2 ** n, dtype=complex)
    for k in range(1, m.n_modes + 1):
        if (m.mask >> (k - 1)) & 1:
            out = out @ majorana_mode_matrix(k, n)
    return out


class TestPauliString:
    def test_x_times_y_is_iz(self):
        x = PauliString.single(1, 1, "X")
        y = PauliString.single(1, 1, "Y")
        prod = x.mul(y)
        assert prod.codes == "Z"
        assert prod.phase == 1j

    def test_square_of_hermitian_word_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            codes = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            p = PauliString.from_codes(codes, [1, -1][rng.integers(0, 2)])
            sq = p.mul(p)
            assert sq.codes == "IIII"
            assert sq.phase == p.phase ** 2

    def test_product_example_against_dense(self):
        # (sx1 sx2) * (sz2) computed two ways
        a = PauliString.from_codes("XX")
        b = PauliString.from_codes("IZ")
        prod = a.mul(b)
        dense = a.to_matrix() @ b.to_matrix()
        np.testing.assert_allclose(prod.to_matrix(), dense, atol=1e-14)
        assert prod.codes == "XY"
        assert prod.phase == -1j

    def test_multiplication_matches_dense_random(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                a, b = random_word(rng, n), random_word(rng, n)
                np.testing.assert_allclose(
                    a.mul(b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-13
                )

    def test_commutation_sign_trivial_cases(self):
        x1 = PauliString.single(2, 1, "X")
        z1 = PauliString.single(2, 1, "Z")
        assert x1.commutation_sign(x1) == 1
        assert x1.commutation_sign(z1) == -1

    def test_commutation_sign_against_dense(self):
        # edge-classification word at N=4, value frozen from the dense oracle
        n = 4
        o = PauliString.from_codes("YXII")
        w = parity_word(n).mul(PauliString.single(n, 1, "X")).mul(
            PauliString.single(n, n, "X")
        )
        om, wm = o.to_matrix(), w.to_matrix()
        if np.allclose(om @ wm, wm @ om):
            dense_sign = 1
        else:
            assert np.allclose(om @ wm, -wm @ om)
            dense_sign = -1
        assert dense_sign == -1
        assert o.commutation_sign(w) == dense_sign

    def test_commutation_sign_random_against_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            a, b = random_word(rng, n), random_word(rng, n)
            am, bm = a.to_matrix(), b.to_matrix()
            expected = 1 if np.allclose(am @ bm, bm @ am, atol=1e-13) else -1
            assert a.commutation_sign(b) == expected

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            PauliString.identity(2).mul(PauliString.identity(3))
        with pytest.raises(ValueError):
            PauliString.identity(2).commutation_sign(PauliString.identity(3))

    def test_hermiticity(self):
        assert PauliString.from_codes("XY", 1).is_hermitian()
        assert PauliString.from_codes("XY", -1).is_hermitian()
        assert not PauliString.from_codes("XY", 1j).is_hermitian()

    def test_dagger_matches_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_word(rng, 3)
            np.testing.assert_allclose(
                p.dagger().to_matrix(), p.to_matrix().conj().T, atol=1e-14
            )

    def test_dense_trivial_matrices(self):
        assert np.array_equal(
            PauliString.identity(1).to_matrix(), np.eye(2, dtype=complex)
        )
        np.testing.assert_array_equal(
            PauliString.single(1, 1, "Z").to_matrix(), np.diag([1.0 + 0j, -1.0])
        )
        xx = PauliString.from_codes("XX").to_matrix()
        np.testing.assert_array_equal(xx, np.fliplr(np.eye(4, dtype=complex)))

    def test_label_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_word(rng, int(rng.integers(1, 7)))
            assert PauliString.from_label(p.to_label()) == p
        assert PauliString.from_label("+@3") == PauliString.identity(3)
        assert PauliString.from_label("-i X1 Y3@4").phase == -1j
        with pytest.raises(ValueError):
            PauliString.from_label("X1@2")  # missing sign
        with pytest.raises(ValueError):
            PauliString.from_label("+X5@2")  # site out of range


class TestOperatorSum:
    def test_merge_and_prune(self):
        n = 2
        w = PauliString.from_codes("XZ")
        op = OperatorSum(n, [(1.0, w), (2.0, w)])
        assert len(op) == 1
        assert op.coefficient(w) == pytest.approx(3.0)
        op.add_term(-3.0, w)
        assert len(op) == 0

    def test_phase_folding(self):
        n = 1
        # i * (i-phase word) folds to a real coefficient on the Hermitian key
        w = PauliString.from_codes("Y", 1j)
        op = OperatorSum(n, [(-1j, w)])
        assert op.is_hermitian()
        assert op.coefficient(PauliString.from_codes("Y")) == pytest.approx(1.0)

    def test_product_matches_dense(self):
        rng = np.random.default_rng(23)
        n = 3
        a = OperatorSum(n, [(rng.normal(), random_word(rng, n)) for _ in range(4)])
        b = OperatorSum(n, [(rng.normal(), random_word(rng, n)) for _ in range(4)])
        np.testing.assert_allclose(
            (a @ b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12
        )

    def test_dagger_and_hermiticity(self):
        n = 2
        op = OperatorSum(n, [(1.0 + 2.0j, PauliString.from_codes("XZ"))])
        assert not op.is_hermitian()
        herm = op + op.dagger()
        assert herm.is_hermitian()
        np.testing.assert_allclose(
            herm.to_matrix(), herm.to_matrix().conj().T, atol=1e-14
        )


class TestMajorana:
    def test_single_site_jw_images(self):
        sx = spin_to_majorana(PauliString.single(1, 1, "X"))
        assert (sx.mask, sx.coeff) == (0b01, 1)
        sy = spin_to_majorana(PauliString.single(1, 1, "Y"))
        assert (sy.mask, sy.coeff) == (0b10, 1)
        sz = spin_to_majorana(PauliString.single(1, 1, "Z"))
        assert sz.mask == 0b11
        assert sz.coeff == -1j
        np.testing.assert_allclose(
            monomial_matrix(sz), PauliString.single(1, 1, "Z").to_matrix(), atol=1e-14
        )

    def test_monomial_product_matches_dense(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            for _ in range(25):
                a = MajoranaMonomial(2 * n, int(rng.integers(0, 4 ** n)))
                b = MajoranaMonomial(2 * n, int(rng.integers(0, 4 ** n)))
                np.testing.assert_allclose(
                    monomial_matrix(a.mul(b)),
                    monomial_matrix(a) @ monomial_matrix(b),
                    atol=1e-13,
                )

    def test_monomial_square_sign(self):
        # (w^{a})^2 = +/- 1 consistent with the anticommutation relations
        for n_modes, mask in [(4, 0b0011), (4, 0b0111), (6, 0b111111)]:
            m = MajoranaMonomial(n_modes, mask)
            sq = m.mul(m)
            assert sq.mask == 0
            k = m.degree
            assert sq.coeff == (-1) ** (k * (k - 1) // 2)

    def test_spin_majorana_round_trip(self):
        rng = np.random.default_rng(37)
        for n in range(1, 7):
            for _ in range(20):
                p = random_word(rng, n)
                back = majorana_to_spin(spin_to_majorana(p))
                terms = list(back.terms())
                assert len(terms) == 1
                coeff, word = terms[0]
                assert word.mul(word.dagger()).codes == "I" * n
                # coeff * word must equal p exactly
                phase, base = p.hermitian_key()
                assert word == base
                assert coeff == pytest.approx(phase)

    def test_majorana_to_spin_examples(self):
        # w_1 -> sx_1
        w1 = MajoranaMonomial(4, 0b0001)
        op = majorana_to_spin(w1)
        ((coeff, word),) = list(op.terms())
        assert coeff == 1 and word == PauliString.from_codes("XI")
        # identity monomial -> identity word
        ident = majorana_to_spin(MajoranaMonomial(4, 0))
        ((coeff, word),) = list(ident.terms())
        assert coeff == 1 and word == PauliString.identity(2)
        # w_2 w_3 at N=2, validated densely
        m = MajoranaMonomial(4, 0b0110)
        ((coeff, word),) = list(majorana_to_spin(m).terms())
        np.testing.assert_allclose(
            coeff * word.to_matrix(),
            majorana_mode_matrix(2, 2) @ majorana_mode_matrix(3, 2),
            atol=1e-14,
        )

    def test_monomial_dagger_matches_dense(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = MajoranaMonomial(6, int(rng.integers(0, 64)), complex(rng.normal(), rng.normal()))
            np.testing.assert_allclose(
                monomial_matrix(m.dagger()), monomial_matrix(m).conj().T, atol=1e-13
            )

    def test_parity_word(self):
        m = parity_word(3)
        np.testing.assert_allclose(
            m.to_matrix(),
            -np.kron(np.kron(np.diag([1, -1]), np.diag([1, -1])), np.diag([1, -1])),
            atol=1e-14,
        )
