import numpy as np
import pytest

from lmem.dynamics import evolve
from lmem.edge import (
    EdgeClassification,
    ParityMismatchError,
    PositivityError,
    ProductStateSpec,
    approx_purity_longtime,
    build_product_state,
    classify_operator,
    edge_factorization_test,
    kappa_correlation,
    longtime_observable_set,
    purity,
    purity_from_observables,
    purity_series,
    ratio_trace,
    stationary_density,
    sufficient_positivity_margin,
)
from lmem.fock import devectorize, vectorize
from lmem.model import ModelParams, random_perturbed_params
from lmem.pauli import OperatorSum, PauliString, parity_word


def params(n, J=1.0, gamma=1.0):
    return ModelParams(
        n_sites=n, couplings=np.full(n - 1, float(J)), dephasing_rates=np.full(n, float(gamma))
    )


def word(n, ops):
    codes = ["I"] * n
    for site, c in ops.items():
        codes[site - 1] = c
    return PauliString.from_codes("".join(codes))


def bulk_words(n):
    """The interior xx+z family used by the ratio experiments."""
    out = []
    for j in range(2, n):
        out.append(word(n, {j: "X", j + 1: "X"}))
        out.append(word(n, {j: "Z"}))
    return out


class TestClassification:
    def test_identity_is_A(self):
        c = classify_operator(PauliString.identity(4))
        assert (c.delta, c.gamma, c.category) == (1, 1, "A")

    def test_interior_z_is_A(self):
        c = classify_operator(word(5, {3: "Z"}))
        assert c.category == "A"

    def test_edge_z_is_B(self):
        c = classify_operator(word(5, {1: "Z"}))
        assert (c.delta, c.gamma) == (-1, 1)
        assert c.category == "B"

    def test_parity_word_is_C(self):
        c = classify_operator(parity_word(4))
        assert (c.delta, c.gamma) == (1, -1)

    def test_signs_match_dense_projector_relations(self):
        # delta decides which edge component O P_+ occupies: the conjugation
        # M sx1 sxN (O P_+) sxN sx1 must equal delta * O P_+
        n = 3
        m = parity_word(n).to_matrix()
        sx1 = word(n, {1: "X"}).to_matrix()
        sxn = word(n, {n: "X"}).to_matrix()
        p_plus = (np.eye(2 ** n) + m) / 2
        rng = np.random.default_rng(3)
        for _ in range(15):
            codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            w = PauliString.from_codes(codes)
            try:
                c = classify_operator(w)
            except ParityMismatchError:
                continue
            lhs = m @ sx1 @ sxn @ (w.to_matrix() @ p_plus) @ sxn @ sx1
            np.testing.assert_allclose(lhs, c.delta * w.to_matrix() @ p_plus, atol=1e-12)

    def test_parity_violating_word_rejected(self):
        with pytest.raises(ParityMismatchError):
            classify_operator(word(3, {1: "X"}))

    def test_multiplicative(self):
        rng = np.random.default_rng(11)
        n = 5
        words = []
        while len(words) < 12:
            codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            w = PauliString.from_codes(codes)
            if w.commutation_sign(parity_word(n)) == 1:
                words.append(w)
        for a in words[:6]:
            for b in words[6:]:
                prod = a.mul(b)
                ca, cb = classify_operator(a), classify_operator(b)
                cp = classify_operator(PauliString(n, prod.x, prod.z, prod.y_count % 4))
                assert cp.delta == ca.delta * cb.delta
                assert cp.gamma == ca.gamma * cb.gamma

    def test_ratio_constant_values(self):
        zeta = 0.5
        assert EdgeClassification(1, 1).ratio_constant(zeta) == pytest.approx(2.0)
        assert EdgeClassification(-1, 1).ratio_constant(zeta) == pytest.approx(-0.5)
        assert EdgeClassification(1, -1).ratio_constant(zeta) == pytest.approx(0.5)
        assert EdgeClassification(-1, -1).ratio_constant(zeta) == pytest.approx(-2.0)


class TestProductState:
    def test_empty_spec_gives_stationary_family(self):
        n = 3
        for zeta in (-0.5, 0.0, 0.8):
            rho = build_product_state(ProductStateSpec(zeta=zeta), n)
            expected = (np.eye(2 ** n) + zeta * parity_word(n).to_matrix()) / 2 ** n
            np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_ratio_experiment_state(self):
        n = 6
        amp = 0.1
        spec = ProductStateSpec(
            zeta=0.5, a_terms=[(amp, w) for w in bulk_words(n)]
        )
        rho = build_product_state(spec, n)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        res = edge_factorization_test(rho)
        assert res.factorized
        a, b = res.amplitudes
        assert (b / a).real == pytest.approx(-(1 - 0.5) / (1 + 0.5), abs=1e-10)

    def test_wrong_category_rejected(self):
        n = 4
        spec = ProductStateSpec(zeta=0.2, a_terms=[(0.1, word(n, {1: "Z"}))])
        with pytest.raises(ValueError, match="classifies as B"):
            build_product_state(spec, n)

    def test_positivity_rejection_reports_eigenvalue(self):
        n = 4
        spec = ProductStateSpec(
            zeta=0.0, a_terms=[(2.0, word(n, {2: "Z"}))]
        )
        with pytest.raises(PositivityError, match="minimum eigenvalue"):
            build_product_state(spec, n)

    def test_sufficient_condition_margin(self):
        n = 4
        good = ProductStateSpec(zeta=0.3, a_terms=[(0.2, word(n, {2: "Z"}))])
        assert sufficient_positivity_margin(good, n) > 0
        bad = ProductStateSpec(zeta=0.3, a_terms=[(2.0, word(n, {2: "Z"}))])
        assert sufficient_positivity_margin(bad, n) < 0

    def test_zeta_range_checked(self):
        with pytest.raises(ValueError):
            stationary_density(1.5, 3)


class TestFactorization:
    def test_stationary_amplitudes(self):
        n = 4
        zeta = 0.5
        res = edge_factorization_test(stationary_density(zeta, n))
        assert res.factorized
        a, b = res.amplitudes
        assert a.real > 0 and abs(a.imag) < 1e-12
        assert (b / a).real == pytest.approx(-(1 - zeta) / (1 + zeta), abs=1e-10)
        assert res.correlation_constant == pytest.approx(
            ((1 + zeta) ** 2 - (1 - zeta) ** 2) / ((1 + zeta) ** 2 + (1 - zeta) ** 2)
        )

    def test_maximally_mixed(self):
        n = 3
        res = edge_factorization_test(np.eye(2 ** n) / 2 ** n)
        assert res.factorized
        assert res.correlation_constant == pytest.approx(0.0, abs=1e-12)

    def test_nonproduct_state_detected(self):
        n = 4
        ident = np.eye(2 ** n)
        m = parity_word(n).to_matrix()
        bulk = sum(0.1 * word(n, {j: "X", j + 1: "X"}).to_matrix() for j in range(2, n))
        rho = (ident + bulk) @ (ident + 0.5 * m) / 2 ** n
        rho = rho + 0.1 * word(n, {1: "Z"}).to_matrix() @ (ident - 0.5 * m) / 2 ** n
        res = edge_factorization_test(rho)
        assert not res.factorized

    @staticmethod
    def _matrix_factorization(v, n):
        """(factorized, amplitudes, residual) through the 4^N x 4^N matrix d_e."""
        from lmem.kappa import edge_annihilator

        d = edge_annihilator(n)
        down, kept = d @ v, d @ (d.conj().T @ v)
        na, nb = np.linalg.norm(down), np.linalg.norm(kept)
        scale = max(na, nb)
        if na >= nb:
            ref, a = down / na, complex(na)
            b = complex(np.vdot(ref, kept))
            resid = np.linalg.norm(kept - b * ref) / scale
        else:
            ref, b = kept / nb, complex(nb)
            a = complex(np.vdot(ref, down))
            resid = np.linalg.norm(down - a * ref) / scale
        phase = a / abs(a)
        return resid < 1e-8, (a / phase, b / phase), resid

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_gather_matches_the_matrix_oracle(self, n):
        from lmem.cli import nonproduct_initial_state, product_initial_state
        from lmem.fock import vectorize_operator

        states = []
        if n % 2 == 0 and n >= 4:  # fig3a's two states
            states.append(product_initial_state(n, 0.5, 0.1))
            states.append(nonproduct_initial_state(n, 0.5, 0.1, (0.05, 0.05)))
        states = [vectorize_operator(s).amplitudes for s in states]
        rng = np.random.default_rng(n)
        for size in (1, 12, 4 ** n // 3):
            v = np.zeros(4 ** n, dtype=complex)
            support = rng.choice(4 ** n, size=size, replace=False)
            v[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
            states.append(v)
        for v in states:
            got = edge_factorization_test(v, n)
            factorized, (a, b), resid = self._matrix_factorization(v, n)
            # the amplitudes carry the state's scale, which the random states leave unnormalized
            scale = max(1.0, abs(a), abs(b))
            assert got.factorized == factorized
            assert abs(got.amplitudes[0] - a) <= 1e-13 * scale and abs(got.amplitudes[1] - b) <= 1e-13 * scale
            assert abs(got.residual - resid) <= 1e-13

    def test_factorization_builds_no_edge_matrix(self, monkeypatch):
        import lmem.edge
        import lmem.kappa

        def forbidden(n_sites):
            raise AssertionError("built the 4^N x 4^N edge annihilator")

        assert not hasattr(lmem.edge, "edge_annihilator")
        monkeypatch.setattr(lmem.kappa, "edge_annihilator", forbidden)
        assert edge_factorization_test(stationary_density(0.5, 4)).factorized

    def test_factorization_persists_under_evolution(self):
        n = 4
        spec = ProductStateSpec(zeta=0.4, a_terms=[(0.15, w) for w in bulk_words(n)])
        rho0 = build_product_state(spec, n)
        p = params(n, J=1.0, gamma=1.0)
        res = evolve(rho0, p, np.linspace(0, 10, 11))
        ratios = []
        for k in range(len(res)):
            f = edge_factorization_test(res.state(k))
            assert f.factorized
            a, b = f.amplitudes
            ratios.append((b / a).real)
        assert np.abs(np.diff(ratios)).max() < 1e-8


class TestCorrelationAndPurity:
    def test_dual_path_agreement(self):
        n = 3
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert kappa_correlation(rho, path="kappa") == pytest.approx(
            kappa_correlation(rho, path="trace"), abs=1e-11
        )

    def test_stationary_value(self):
        n = 3
        zeta = 0.6
        rho = stationary_density(zeta, n)
        val = kappa_correlation(rho)
        assert val == pytest.approx(2 * zeta / 2 ** n, abs=1e-12)
        assert kappa_correlation(np.eye(8) / 8) == pytest.approx(0.0, abs=1e-14)

    def test_product_state_correlation_is_purity_times_constant(self):
        n = 4
        spec = ProductStateSpec(zeta=0.4, a_terms=[(0.15, w) for w in bulk_words(n)])
        rho = build_product_state(spec, n)
        const = edge_factorization_test(rho).correlation_constant
        assert kappa_correlation(rho) == pytest.approx(const * purity(rho), abs=1e-12)

    def test_purity_examples(self):
        n = 3
        pure = np.zeros((8, 8), dtype=complex)
        pure[3, 3] = 1.0
        assert purity(pure) == pytest.approx(1.0)
        zeta = 0.5
        assert purity(stationary_density(zeta, n)) == pytest.approx(
            (1 + zeta ** 2) / 2 ** n
        )

    def test_completeness_relation(self):
        rng = np.random.default_rng(13)
        n = 3
        for _ in range(5):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            assert purity_from_observables(rho) == pytest.approx(
                purity(rho), abs=1e-12
            )

    def test_truncated_sum_is_lower_bound(self):
        rng = np.random.default_rng(17)
        n = 3
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        subset = longtime_observable_set(n)
        assert purity_from_observables(rho, subset) <= purity(rho) + 1e-12


class TestLongtimePurity:
    def test_exact_on_stationary_family(self):
        n = 4
        rho = stationary_density(0.7, n)
        assert approx_purity_longtime(rho) == pytest.approx(purity(rho), abs=1e-12)
        assert approx_purity_longtime(rho, form="zeta") == pytest.approx(
            purity(rho), abs=1e-12
        )

    def test_initial_underestimate_then_convergence(self):
        n = 4
        m = parity_word(n).to_matrix()
        ident = np.eye(2 ** n)
        zeta = 0.4
        ops = [
            word(n, {1: "Z"}),
            word(n, {1: "Y", 2: "X"}),
            word(n, {1: "Y", 3: "X"}),
            word(n, {1: "Z", 2: "X", 3: "X"}),
        ]
        bulk = sum(0.3 * (m @ w.to_matrix()) for w in ops)
        rho0 = (ident + bulk) @ (ident + zeta * m) / 2 ** n
        assert np.linalg.eigvalsh(rho0).min() > -1e-12
        # at time zero the truncation misses the longer words
        assert approx_purity_longtime(rho0) < purity(rho0) - 1e-4
        p = params(n, J=2.0, gamma=3.0)
        res = evolve(rho0, p, np.linspace(0.0, 12.0, 7))
        final = res.state(-1)
        exact = purity(final)
        approx = approx_purity_longtime(final)
        assert abs(approx - exact) / exact < 0.05


    @pytest.mark.parametrize("n", [4, 5])
    def test_purity_series_matches_dense_forms(self, n):
        m = parity_word(n).to_matrix()
        ident = np.eye(2 ** n)
        bulk = 0.3 * (m @ word(n, {1: "Z"}).to_matrix()) + 0.3 * (m @ word(n, {1: "Y", 3: "X"}).to_matrix())
        rho0 = (ident + bulk) @ (ident + 0.4 * m) / 2 ** n
        res = evolve(rho0, params(n, J=2.0, gamma=3.0), np.linspace(0.0, 3.0, 7))
        exact, approx, corr = purity_series(res)
        for k in range(len(res)):
            rho = devectorize(res.amplitudes[k], n)
            assert exact[k] == pytest.approx(purity(rho), abs=1e-12)
            assert approx[k] == pytest.approx(
                purity_from_observables(rho, longtime_observable_set(n)), abs=1e-12
            )
            assert corr[k] == pytest.approx(kappa_correlation(rho, path="trace"), abs=1e-12)
            for form in ("observables", "zeta"):
                assert approx_purity_longtime(res.amplitudes[k], n, form) == pytest.approx(
                    approx_purity_longtime(rho, form=form), abs=1e-13
                )


class TestRatioTrace:
    def test_constant_for_product_state_and_paired_observables(self):
        n = 4
        zeta = 0.5
        spec = ProductStateSpec(zeta=zeta, a_terms=[(0.15, w) for w in bulk_words(n)])
        rho0 = build_product_state(spec, n)
        x1 = OperatorSum(n, [(1.0, w) for w in bulk_words(n)])
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        p = params(n, J=1.0, gamma=1.0)
        res = evolve(rho0, p, np.linspace(0, 10, 21))
        tr = ratio_trace(x1, x2, res)
        assert not tr.guarded.any()
        assert tr.values[0] == pytest.approx(1 / zeta, abs=1e-9)
        assert tr.max_drift < 1e-6

    def test_ratio_invariance_random_spec_and_random_symmetric_model(self):
        n = 4
        rng = np.random.default_rng(23)
        a_ops, b_ops = [], []
        for codes in ("IZII", "IIZI", "IXXI", "IIXX"):
            a_ops.append(PauliString.from_codes(codes))
        b_ops.append(word(n, {1: "Z"}))
        spec = ProductStateSpec(
            zeta=0.5,
            a_terms=[(0.08 * rng.uniform(0.5, 1.0), w) for w in a_ops],
            b_terms=[(0.05, w) for w in b_ops],
        )
        rho0 = build_product_state(spec, n)
        pert = random_perturbed_params(n, u=0.0, rng_seed=77)
        x1 = OperatorSum.from_pauli(word(n, {2: "Z"}))
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        res = evolve(rho0, pert, np.linspace(0, 10, 11))
        tr = ratio_trace(x1, x2, res)
        expected = classify_operator(word(n, {2: "Z"})).ratio_constant(0.5)
        assert tr.values[0] == pytest.approx(expected, abs=1e-7)
        assert tr.max_drift < 1e-6

    def test_blind_sector_deformation_leaves_ratio_fixed(self):
        # a non-product component confined to a sector none of the observable
        # words inhabit never shows up in the ratio: the interior xx + z
        # observables cannot detect a bare sz_1 admixture
        n = 4
        ident = np.eye(2 ** n)
        m = parity_word(n).to_matrix()
        bulk = sum(0.1 * word(n, {j: "X", j + 1: "X"}).to_matrix() for j in range(2, n))
        rho0 = (ident + bulk) @ (ident + 0.5 * m) / 2 ** n
        rho0 = rho0 + 0.1 * word(n, {1: "Z"}).to_matrix() @ (ident - 0.5 * m) / 2 ** n
        assert not edge_factorization_test(rho0).factorized
        x1 = OperatorSum(n, [(1.0, w) for w in bulk_words(n)])
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        res = evolve(rho0, params(n), np.linspace(0, 10, 21))
        tr = ratio_trace(x1, x2, res)
        assert tr.max_drift < 1e-8

    def test_nonproduct_state_ratio_drifts(self):
        # a wrong-bracket component in a sector the observables do inhabit
        # (sx1 sy2 shares the sector of sz2) makes the ratio time dependent
        n = 4
        ident = np.eye(2 ** n)
        m = parity_word(n).to_matrix()
        bulk = sum(
            0.1 * (word(n, {j: "X", j + 1: "X"}).to_matrix() + word(n, {j: "Z"}).to_matrix())
            for j in range(2, n)
        )
        rho0 = (ident + bulk) @ (ident + 0.5 * m) / 2 ** n
        rho0 = rho0 + 0.05 * word(n, {1: "Z"}).to_matrix() @ (ident - 0.5 * m) / 2 ** n
        rho0 = rho0 + 0.05 * word(n, {1: "X", 2: "Y"}).to_matrix() @ (ident - 0.5 * m) / 2 ** n
        assert np.linalg.eigvalsh(rho0).min() > -1e-12
        assert not edge_factorization_test(rho0).factorized
        x1 = OperatorSum(n, [(1.0, w) for w in bulk_words(n)])
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        res = evolve(rho0, params(n), np.linspace(0, 10, 21))
        tr = ratio_trace(x1, x2, res)
        assert tr.values[0] == pytest.approx(2.0, abs=1e-8)
        assert tr.max_drift > 0.01

    def test_constant_without_dissipation(self):
        # the frozen ratio relies on symmetry, not on decay: gamma = 0 works
        n = 4
        spec = ProductStateSpec(zeta=0.5, a_terms=[(0.15, w) for w in bulk_words(n)])
        rho0 = build_product_state(spec, n)
        p = ModelParams(n_sites=n, couplings=np.ones(n - 1), dephasing_rates=np.zeros(n))
        x1 = OperatorSum(n, [(1.0, w) for w in bulk_words(n)])
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        res = evolve(rho0, p, np.linspace(0, 10, 21), method="expm")
        tr = ratio_trace(x1, x2, res)
        assert tr.max_drift < 1e-9

    def test_constant_for_dissipation_only_model(self):
        # couplings and perturbations all zero leaves pure dephasing; the
        # ratio stays frozen there too
        n = 4
        spec = ProductStateSpec(zeta=0.5, a_terms=[(0.15, w) for w in bulk_words(n)])
        rho0 = build_product_state(spec, n)
        p = ModelParams(
            n_sites=n, couplings=np.zeros(n - 1), dephasing_rates=np.full(n, 0.7)
        )
        x1 = OperatorSum(n, [(1.0, w) for w in bulk_words(n)])
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        res = evolve(rho0, p, np.linspace(0, 10, 21), method="expm")
        tr = ratio_trace(x1, x2, res)
        assert tr.max_drift < 1e-9

    def test_guard_flags_small_denominator(self):
        n = 4
        rho0 = stationary_density(0.5, n)  # <X2> = 0 for interior words
        x1 = OperatorSum.from_pauli(word(n, {2: "Z"}))
        x2 = x1 @ OperatorSum.from_pauli(parity_word(n))
        res = evolve(rho0, params(n), np.linspace(0, 1, 3))
        tr = ratio_trace(x1, x2, res)
        assert tr.guarded.all()
        assert np.isnan(tr.values).all()


def test_pair_orthogonality_relations():
    # <<O_i|O_j>> = 2^N delta_ij over Hermitian words, and the projected
    # halves carry half the norm
    rng = np.random.default_rng(29)
    n = 4
    m = parity_word(n).to_matrix()
    p_plus = (np.eye(2 ** n) + m) / 2
    words = set()
    while len(words) < 6:
        codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        w = PauliString.from_codes(codes)
        if w.commutation_sign(parity_word(n)) == 1:
            words.add(w)
    words = list(words)
    for i, wi in enumerate(words):
        vi = vectorize(wi.to_matrix(), n)
        vip = vectorize(wi.to_matrix() @ p_plus, n)
        for j, wj in enumerate(words):
            vj = vectorize(wj.to_matrix(), n)
            vjp = vectorize(wj.to_matrix() @ p_plus, n)
            from lmem.fock import liouville_inner

            inner = liouville_inner(vi, vj)
            inner_p = liouville_inner(vip, vjp)
            if i == j:
                assert inner == pytest.approx(2 ** n, abs=1e-10)
                assert inner_p == pytest.approx(2 ** (n - 1), abs=1e-10)
            else:
                assert abs(inner) < 1e-10
                # projected halves of different pairs stay orthogonal unless
                # the words differ exactly by the parity factor
                if wj != wi.mul(parity_word(n)).hermitian_key()[1]:
                    assert abs(inner_p) < 1e-10


def test_readme_library_example(capsys):
    # the README's "Library example" block, run as printed
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    ratio_line, category_line = capsys.readouterr().out.splitlines()
    assert float(ratio_line.split()[0]) == pytest.approx(2.0, abs=1e-12)
    assert category_line == "A"


def sliced_correlator_rows(values, indices, n):
    """<<rho| i kappa_1 kappa_4N |rho>> from the 4^N x 4^N correlator, sliced to the indices."""
    from lmem.kappa import edge_correlator

    corr = edge_correlator(n)[indices][:, indices]
    return 2 ** n * np.vecdot(values, (corr @ values.T).T).real


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_edge_correlation_gathers_flip_partners(n):
    # against the sliced correlator, on fig4-purity trajectories and on
    # random states over random index subsets, where most partners are absent
    from lmem.cli import edge_occupied_state
    from lmem.edge import _kappa_correlation_rows
    from lmem.kappa import edge_correlator, edge_correlator_signs

    res = evolve(edge_occupied_state(n, 0.4, 0.3), params(n, J=2.0, gamma=3.0), np.linspace(0.0, 4.0, 9))
    rng = np.random.default_rng(n)
    subsets = [np.sort(rng.choice(4 ** n, size=size, replace=False)) for size in (1, 4 ** n // 3, 4 ** n)]
    cases = [(res.values, res.indices)] + [
        (rng.normal(size=(5, s.size)) + 1j * rng.normal(size=(5, s.size)), s) for s in subsets
    ]
    for values, indices in cases:
        want = sliced_correlator_rows(values, indices, n)
        got = _kappa_correlation_rows(values, n, indices)
        assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
    # the signs are the one stored entry of each correlator column, at its all-bit flip
    coo = edge_correlator(n).tocoo()
    assert np.array_equal(coo.row, coo.col ^ (4 ** n - 1))
    signs = np.zeros(4 ** n, dtype=complex)
    signs[coo.col] = coo.data
    assert np.array_equal(edge_correlator_signs(n, np.arange(4 ** n)), signs)


def test_purity_series_builds_no_correlator(monkeypatch):
    # the edge operators are built by `_product_superoperator` calls in kappa
    import lmem.kappa
    from lmem.cli import edge_occupied_state

    def forbidden(*args):
        raise AssertionError("built a 4^N x 4^N edge operator")

    monkeypatch.setattr(lmem.kappa, "_product_superoperator", forbidden)
    res = evolve(edge_occupied_state(4, 0.4, 0.3), params(4, J=2.0, gamma=3.0), np.linspace(0.0, 2.0, 5))
    _, _, corr = purity_series(res)
    assert np.isfinite(corr).all()
