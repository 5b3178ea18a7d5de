import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lmem.fock import vectorize
from lmem.kappa import build_P_operator, kappa_all
from lmem.liouvillian import (
    Superoperator,
    UnsupportedModelError,
    build_liouvillian_colstack_oracle,
    build_liouvillian_direct,
    build_liouvillian_thirdq,
    read_triplets,
    trace_preservation_defect,
    write_triplets,
)
from lmem.model import ModelParams, build_dissipators, build_hamiltonian, random_perturbed_params
from lmem.pauli import OperatorSum, PauliString, parity_word


def params(n, J=1.0, gamma=0.5, **kw):
    return ModelParams(
        n_sites=n,
        couplings=np.full(n - 1, J),
        dephasing_rates=np.full(n, gamma),
        **kw,
    )


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3])
    def test_three_routes_agree(self, n):
        p = ModelParams(
            n_sites=n,
            couplings=np.linspace(0.7, 1.3, n - 1),
            dephasing_rates=np.linspace(0.3, 0.9, n),
        )
        a = build_liouvillian_thirdq(p).toarray()
        b = build_liouvillian_direct(p).toarray()
        c = build_liouvillian_colstack_oracle(p).toarray()
        assert np.abs(a - b).max() < 1e-12
        assert np.abs(b - c).max() < 1e-12

    @pytest.mark.parametrize("seed", [5, 17, 29])
    @pytest.mark.parametrize("u", [0.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_perturbed_direct_matches_colstack(self, n, u, seed):
        p = random_perturbed_params(n, u=u, rng_seed=seed)
        a = build_liouvillian_direct(p).toarray()
        b = build_liouvillian_colstack_oracle(p).toarray()
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_explicit_form_matches_colstack(self, n):
        # X, Y and Z words in H, and non-Hermitian multi-term jump operators:
        # L rho L^dag then has cross terms between distinct monomials, which
        # the single-word dissipators of the experiments never produce
        rng = np.random.default_rng(40 + n)
        h = OperatorSum(n)
        for codes in ("XY" + "Z" * (n - 2), "Z" + "I" * (n - 1), "Y" * n, "I" * (n - 1) + "X"):
            h.add_term(rng.normal(), PauliString.from_codes(codes))
        dissipators = []
        for j in range(1, n + 1):
            lower = OperatorSum(n)  # sigma^-_j = (X_j - i Y_j) / 2
            lower.add_term(0.5, PauliString.single(n, j, "X"))
            lower.add_term(-0.5j, PauliString.single(n, j, "Y"))
            dissipators.append(lower.scaled(rng.uniform(0.2, 1.0)))
        mixed = OperatorSum(n)
        mixed.add_term(0.3, PauliString.from_codes("XZ" + "I" * (n - 2)))
        mixed.add_term(0.7j, PauliString.single(n, 2, "Y"))
        mixed.add_term(-0.4, PauliString.from_codes("Z" * n))
        dissipators.append(mixed)
        a = build_liouvillian_direct(h, dissipators, n)
        b = build_liouvillian_colstack_oracle(h, dissipators, n)
        assert np.abs(a.toarray() - b.toarray()).max() < 1e-12
        assert trace_preservation_defect(a) < 1e-12

    @pytest.mark.parametrize("u", [0.0, 2.0])
    def test_direct_csr_is_canonical(self, u):
        m = build_liouvillian_direct(random_perturbed_params(4, u=u, rng_seed=3)).matrix
        assert m.format == "csr"
        assert m.has_sorted_indices and m.has_canonical_format
        assert np.all(m.data != 0)

    def test_thirdq_rejects_perturbations(self):
        p = random_perturbed_params(3, u=2.0, rng_seed=1)
        with pytest.raises(UnsupportedModelError):
            build_liouvillian_thirdq(p)

    def test_action_matches_reference_integrator(self):
        # L |rho> against a centered difference of a dense master-equation solve
        n, J, gamma = 2, 1.0, 0.3
        p = params(n, J, gamma)
        L = build_liouvillian_thirdq(p)
        H = build_hamiltonian(p).to_matrix()
        Ls = [d.to_matrix() for d in build_dissipators(p)]

        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = m @ m.conj().T
        rho0 /= np.trace(rho0).real

        def rhs(t, y):
            rho = y.reshape(4, 4)
            comm = H @ rho - rho @ H
            diss = sum(
                Lk @ rho @ Lk.conj().T - 0.5 * (Lk.conj().T @ Lk @ rho + rho @ Lk.conj().T @ Lk)
                for Lk in Ls
            )
            return (-1j * comm + diss).reshape(-1)

        h = 1e-4
        sol = solve_ivp(
            rhs, (0, h), rho0.reshape(-1), t_eval=[h], rtol=1e-12, atol=1e-14
        )
        rho_h = sol.y[:, 0].reshape(4, 4)
        sol_b = solve_ivp(
            rhs, (0, -h), rho0.reshape(-1), t_eval=[-h], rtol=1e-12, atol=1e-14
        )
        rho_mh = sol_b.y[:, 0].reshape(4, 4)
        num_deriv = (vectorize(rho_h, n).amplitudes - vectorize(rho_mh, n).amplitudes) / (2 * h)
        analytic = -1j * (L.matrix @ vectorize(rho0, n).amplitudes)
        np.testing.assert_allclose(num_deriv, analytic, atol=1e-8)


class TestStructure:
    def test_gamma_zero_spectrum_real(self):
        p = params(3, J=1.0, gamma=0.0)
        L = build_liouvillian_thirdq(p).toarray()
        ev = np.linalg.eigvals(L)
        assert np.abs(ev.imag).max() < 1e-10

    @pytest.mark.parametrize("zeta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_stationary_family(self, zeta):
        n = 3
        p = params(n, J=1.2, gamma=0.7)
        L = build_liouvillian_thirdq(p)
        m = parity_word(n).to_matrix()
        rho_s = (np.eye(2 ** n) + zeta * m) / 2 ** n
        residual = np.abs(L.matrix @ vectorize(rho_s, n).amplitudes).max()
        assert residual < 1e-12

    def test_trace_preservation_both_routes(self):
        p = params(3, J=0.8, gamma=0.4)
        assert trace_preservation_defect(build_liouvillian_thirdq(p)) < 1e-12
        assert trace_preservation_defect(build_liouvillian_direct(p)) < 1e-12
        pp = random_perturbed_params(3, u=2.0, rng_seed=2)
        assert trace_preservation_defect(build_liouvillian_direct(pp)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_parity_pairs_commute_with_liouvillian(self, n):
        p = params(n, J=1.0, gamma=0.5)
        L = build_liouvillian_thirdq(p).matrix
        for j in range(1, n):
            P = build_P_operator(j, n)
            assert np.abs((P @ L - L @ P).toarray()).max() < 1e-12

    def test_hopping_vanishes_at_zero_coupling(self):
        p = params(2, J=0.0, gamma=0.5)
        L = build_liouvillian_thirdq(p).matrix
        off = L - sp_diag_of(L)
        assert np.abs(off.toarray()).max() == 0

    def test_edge_modes_decouple(self):
        for n in (2, 3):
            p = params(n, J=1.0, gamma=0.5)
            L = build_liouvillian_thirdq(p).matrix
            kap = kappa_all(n)
            for k in (1, 4 * n):
                assert np.abs((L @ kap[k] - kap[k] @ L).toarray()).max() < 1e-12

    def test_edge_modes_decouple_perturbed_symmetric(self):
        # symmetry-preserving perturbation (u = 0) through the direct path
        p = random_perturbed_params(3, u=0.0, rng_seed=11)
        L = build_liouvillian_direct(p).matrix
        kap = kappa_all(3)
        for k in (1, 12):
            assert np.abs((L @ kap[k] - kap[k] @ L).toarray()).max() < 1e-11
        # the transverse field breaks the decoupling
        p2 = random_perturbed_params(3, u=2.0, rng_seed=11)
        L2 = build_liouvillian_direct(p2).matrix
        assert np.abs((L2 @ kap[1] - kap[1] @ L2).toarray()).max() > 1e-3


def sp_diag_of(m):
    import scipy.sparse as sp

    return sp.diags(m.diagonal())


def test_triplet_round_trip(tmp_path):
    p = params(2, J=1.0, gamma=0.3)
    L = build_liouvillian_thirdq(p)
    path = tmp_path / "lmat.txt"
    write_triplets(L, path)
    back = read_triplets(path)
    assert np.abs((back - L.matrix).toarray()).max() < 1e-15
    assert isinstance(L, Superoperator) and L.source_tag == "third-quantized"
