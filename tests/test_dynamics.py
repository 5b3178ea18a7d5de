from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from lmem import dynamics
from lmem.dynamics import (
    EP_COND_THRESHOLD,
    EP_GAP_TOL,
    _min_gap,
    _taylor_plan,
    check_physical_initial_state,
    evolve,
    exceptional_point_scan,
    expectation,
    expectation_series,
    isolated_pair_branches,
    physicality_report,
    spectrum_analysis,
)
from lmem.fock import (
    dense_blocks,
    devectorize,
    hermitian_part,
    hermitian_powers,
    parity_values,
    reversal_signs,
    row_chunks,
    vector_purity,
    vectorize,
    vectorize_operator,
)
from lmem.liouvillian import build_liouvillian_direct, build_liouvillian_thirdq
from lmem.model import ModelParams, random_perturbed_params
from lmem.pauli import OperatorSum, PauliString, parity_word
from lmem.sectors import SectorLabel, restrict_liouvillian


def params(n, J=1.0, gamma=0.5):
    return ModelParams(
        n_sites=n, couplings=np.full(n - 1, float(J)), dephasing_rates=np.full(n, float(gamma))
    )


def dense_reference(rho0, p, t_grid):
    """Dense Pade exp(-i L t) of the direct generator applied to rho0."""
    L = build_liouvillian_direct(p).toarray()
    t_phys = np.asarray(t_grid, dtype=float) / (p.homogeneous_gamma() or 1.0)
    v0 = vectorize(rho0, p.n_sites).amplitudes
    return np.array([expm(-1j * L * t) @ v0 for t in t_phys])


def up_state(n):
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


class TestEvolve:
    def test_unitary_case_preserves_purity(self):
        n = 2
        p = params(n, J=1.0, gamma=0.0)
        t = np.linspace(0, 3, 7)
        res = evolve(up_state(n), p, t)
        assert res.time_unit == "absolute"
        purities = [vector_purity(res.amplitudes[k], n) for k in range(len(res))]
        np.testing.assert_allclose(purities, 1.0, atol=1e-7)

    def test_stationary_state_is_fixed(self):
        n = 3
        p = params(n, J=1.3, gamma=0.8)
        zeta = 0.5
        rho_s = (np.eye(2 ** n) + zeta * parity_word(n).to_matrix()) / 2 ** n
        res = evolve(rho_s, p, np.linspace(0, 5, 6))
        for k in range(len(res)):
            np.testing.assert_allclose(
                res.density_matrix(k), rho_s, atol=1e-9
            )

    def test_expm_matches_eigen_expansion(self):
        n = 2
        p = params(n, J=1.0, gamma=0.5)
        t = np.linspace(0, 4, 9)
        res_x = evolve(up_state(n), p, t, method="expm")
        res_e = evolve(up_state(n), p, t, method="eigen")
        x = PauliString.single(n, 1, "Z")
        np.testing.assert_allclose(
            expectation_series(x, res_x).real,
            expectation_series(x, res_e).real,
            atol=1e-6,
        )

    def test_sector_and_full_integrations_agree(self):
        n = 3
        p = params(n, J=0.9, gamma=0.6)
        rho0 = up_state(n)
        t = np.linspace(0, 3, 5)
        res_s = evolve(rho0, p, t)
        assert res_s.method_tag == "taylor-sector"
        A = -1j * build_liouvillian_thirdq(p).matrix
        v0 = vectorize(rho0, n).amplitudes
        stop = t[-1] / p.homogeneous_gamma()
        full = expm_multiply(A, v0, start=0.0, stop=stop, num=t.size, endpoint=True)
        np.testing.assert_allclose(res_s.amplitudes, full, atol=1e-7)

    def test_expm_matches_dense_expm(self):
        n = 3
        p = params(n, J=1.1, gamma=0.7)
        rho0 = up_state(n)
        t = np.linspace(0, 4, 9)
        res = evolve(rho0, p, t, method="expm")
        np.testing.assert_allclose(res.amplitudes, dense_reference(rho0, p, t), atol=1e-12)

    def test_sector_breaking_model_matches_dense_expm(self):
        p = random_perturbed_params(3, u=2.0, rng_seed=1)
        t = np.linspace(0, 1, 3)
        res = evolve(up_state(3), p, t, method="expm")
        assert res.method_tag == "taylor"
        np.testing.assert_allclose(res.amplitudes, dense_reference(up_state(3), p, t), atol=1e-12)

    def test_nonuniform_grid_matches_dense_expm(self):
        n = 2
        p = params(n, J=1.0, gamma=0.5)
        t = np.array([0.0, 0.5, 2.0])
        res = evolve(up_state(n), p, t, method="expm")
        np.testing.assert_allclose(res.amplitudes, dense_reference(up_state(n), p, t), atol=1e-12)

    @pytest.mark.parametrize(
        "t",
        [
            [1.5, 2.0, 2.5],  # uniform, starting late
            [3.0, 3.1, 3.2],  # first leg far longer than the rest
            [10.0, 10.01],
            [0.7],  # single sample
            [0.0],
            [0.0, 1.0, 1.0, 2.0],  # repeated time
            [2.0, 2.0, 2.0],
        ],
    )
    def test_grid_shapes_match_dense_expm(self, t):
        n = 3
        p = params(n, J=1.1, gamma=0.7)
        rho0 = self._mixed_state(n)
        res = evolve(rho0, p, t)
        np.testing.assert_array_equal(res.times, t)
        np.testing.assert_allclose(res.amplitudes, dense_reference(rho0, p, t), atol=1e-12)

    @staticmethod
    def _mixed_state(n):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        rho = m @ m.conj().T
        return rho / np.trace(rho)

    def test_zero_coupling_model_matches_dense_expm(self):
        n = 3
        p = params(n, J=0.0, gamma=0.8)
        rho0 = self._mixed_state(n)
        t = np.linspace(0, 3, 7)
        res = evolve(rho0, p, t)
        np.testing.assert_allclose(res.amplitudes, dense_reference(rho0, p, t), atol=1e-12)

    def test_result_does_not_depend_on_global_rng(self):
        # the stepper plans from the exact 1-norm and draws no random
        # numbers, so reseeding np.random must not change a single bit
        p = random_perturbed_params(3, u=2.0, rng_seed=1)
        t = np.linspace(0, 10, 11)
        runs = []
        for seed in range(4):
            np.random.seed(seed)
            runs.append(evolve(up_state(3), p, t).amplitudes)
        for amps in runs[1:]:
            np.testing.assert_array_equal(amps, runs[0])

    @staticmethod
    def _shifted_norm(A):
        """Exact 1-norm of A shifted by its mean diagonal, as the stepper plans."""
        dim = A.shape[0]
        mu = A.diagonal().sum() / dim
        return np.abs(A.toarray() - mu * np.eye(dim)).sum(axis=0).max()

    def test_many_substeps_match_dense_expm(self):
        n = 3
        p = params(n, J=1.1, gamma=0.7)
        rho0 = self._mixed_state(n)
        t = [0.0, 40.0]
        A = -1j * build_liouvillian_direct(p).matrix
        _, s = _taylor_plan(40.0 / 0.7 * self._shifted_norm(A))
        assert s > 1
        res = evolve(rho0, p, t)
        np.testing.assert_allclose(res.amplitudes, dense_reference(rho0, p, t), atol=1e-12)

    def test_sector_breaking_model_matches_expm_multiply(self):
        p = random_perturbed_params(3, u=2.0, rng_seed=4)
        t = np.array([0.0, 0.1, 0.15, 1.3, 4.0, 4.0, 7.5])
        res = evolve(self._mixed_state(3), p, t)
        A = -1j * build_liouvillian_direct(p).matrix
        v = vectorize(self._mixed_state(3), 3).amplitudes
        expected = np.array([expm_multiply(tk * A, v) for tk in t])
        np.testing.assert_allclose(res.amplitudes, expected, atol=1e-12)

    def test_repeated_times_add_no_matvecs(self):
        p = params(3, J=1.1, gamma=0.7)
        once = evolve(up_state(3), p, [2.0])
        repeated = evolve(up_state(3), p, [2.0, 2.0, 2.0])
        assert once.matvecs > 0
        assert repeated.matvecs == once.matvecs
        np.testing.assert_array_equal(repeated.amplitudes[1:], once.amplitudes[[0, 0]])

    def test_uniform_grid_matvecs_within_plan(self):
        p = random_perturbed_params(3, u=2.0, rng_seed=1)
        t = np.linspace(0, 10, 21)
        res = evolve(up_state(3), p, t)
        m, s = _taylor_plan(0.5 * self._shifted_norm(-1j * build_liouvillian_direct(p).matrix))
        assert 0 < res.matvecs <= (t.size - 1) * m * s
        assert evolve(up_state(3), p, t, method="eigen").matvecs == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite time"):
            evolve(up_state(2), params(2), [0.0, bad])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=r"negative time -1\.0"):
            evolve(up_state(2), params(2), [-1.0, 0.0])

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            evolve(up_state(2), params(2), [0.0, 2.0, 1.0])

    @pytest.mark.parametrize("method", ["integrator", "rk45", ""])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match="unknown evolution method"):
            evolve(up_state(2), params(2), [0.0, 1.0], method=method)

    def test_time_unit_tagging(self):
        n = 2
        p = params(n, gamma=2.0)
        res = evolve(up_state(n), p, np.array([0.0, 2.0]))
        assert res.time_unit == "1/gamma"
        # gamma t = 2 at gamma = 2 is physical time 1: verify against the
        # eigen-expansion propagator of the same model at absolute time
        L = build_liouvillian_thirdq(p).toarray()
        v0 = vectorize(up_state(n), n).amplitudes
        expected = expm(-1j * L * 1.0) @ v0
        np.testing.assert_allclose(res.amplitudes[-1], expected, atol=1e-7)
        # heterogeneous rates fall back to absolute time
        p_het = ModelParams(
            n_sites=n, couplings=[1.0], dephasing_rates=[0.3, 0.9]
        )
        assert evolve(up_state(n), p_het, np.array([0.0, 1.0])).time_unit == "absolute"

    def test_nonphysical_initial_state_rejected(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(ValueError, match="trace"):
            check_physical_initial_state(bad)
        indefinite = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_physical_initial_state(indefinite)

    def test_parity_conservation_sets_long_time_state(self):
        n = 2
        p = params(n, J=1.0, gamma=1.0)
        rho0 = up_state(n)
        zeta0 = expectation(parity_word(n), vectorize(rho0, n)).real
        res = evolve(rho0, p, np.array([0.0, 20.0]))
        rho_inf = res.density_matrix(-1)
        expected = (np.eye(2 ** n) + zeta0 * parity_word(n).to_matrix()) / 2 ** n
        np.testing.assert_allclose(rho_inf, expected, atol=1e-7)

    def test_physicality_report(self):
        n = 2
        p = params(n, J=1.0, gamma=0.7)
        res = evolve(up_state(n), p, np.linspace(0, 6, 13))
        rep = physicality_report(res)
        assert rep["max_trace_deviation"] < 1e-8
        assert rep["max_hermiticity_defect"] < 1e-8
        assert rep["max_negative_eigenvalue"] < 1e-8


def reference_report(res):
    """physicality_report as one dense eigvalsh per sample."""
    n = res.n_sites
    worst = {"max_trace_deviation": 0.0, "max_hermiticity_defect": 0.0, "max_negative_eigenvalue": 0.0}
    for v in res.amplitudes:
        rho = devectorize(v, n)
        worst["max_trace_deviation"] = max(worst["max_trace_deviation"], abs(2 ** n * v[0] - 1.0))
        worst["max_hermiticity_defect"] = max(
            worst["max_hermiticity_defect"], np.abs(v - reversal_signs(n) * np.conj(v)).max()
        )
        lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()
        worst["max_negative_eigenvalue"] = max(worst["max_negative_eigenvalue"], -lam)
    return worst


def basis_projector(index, n):
    """Amplitudes of |index><index| = prod_s (I +- Z_s) / 2, all of even degree."""
    op = OperatorSum.identity(n)
    for site in range(1, n + 1):
        sign = -1.0 if (index >> (n - site)) & 1 else 1.0
        z = OperatorSum.from_pauli(PauliString.single(n, site, "Z"), sign)
        op = (op @ (OperatorSum.identity(n) + z)).scaled(0.5)
    return vectorize_operator(op).amplitudes


def full_space(res):
    """The same trajectory stored on all 4^N indices, so res.amplitudes is
    its value array and may be edited in place."""
    return replace(res, indices=np.arange(4 ** res.n_sites), values=res.amplitudes)


def mixed_up_state(n):
    """Half |0...0><0...0| plus half the maximally mixed state: positive definite."""
    return 0.5 * up_state(n) + 0.5 * np.eye(2 ** n) / 2 ** n


class TestPhysicality:
    def test_negative_eigenvalue_in_odd_parity_block(self):
        n = 5
        res = evolve(mixed_up_state(n), params(n, J=1.0, gamma=0.7), np.linspace(0, 3, 40))
        res = full_space(res)
        assert len(row_chunks(len(res), 4 ** n)) == 2
        clean = physicality_report(res)
        assert clean["max_negative_eigenvalue"] == 0.0
        # index 1 has odd popcount: the eigenvalue turns negative in the odd block
        res.amplitudes[33] -= 0.2 * basis_projector(1, n)
        assert not res.amplitudes[:, parity_values(n) < 0].any()  # the parity-block path
        ref = reference_report(res)
        got = physicality_report(res)
        assert ref["max_negative_eigenvalue"] > 0.1
        assert got["max_negative_eigenvalue"] == pytest.approx(ref["max_negative_eigenvalue"], abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_parity_breaking_trajectory_matches_reference(self, seed):
        n = 4
        res = evolve(mixed_up_state(n), random_perturbed_params(n, u=2.0, rng_seed=seed), np.linspace(0, 2, 9))
        assert res.amplitudes[:, parity_values(n) < 0].any()  # the full-matrix path
        for seeded in (False, True):
            if seeded:
                res.amplitudes[4] -= 0.3 * basis_projector(0, n)
            ref = reference_report(res)
            got = physicality_report(res)
            assert got["max_trace_deviation"] == ref["max_trace_deviation"]
            assert got["max_hermiticity_defect"] == ref["max_hermiticity_defect"]
            assert got["max_negative_eigenvalue"] == pytest.approx(ref["max_negative_eigenvalue"], abs=1e-12)
        assert got["max_negative_eigenvalue"] > 0.1

    def test_defects_seeded_in_a_middle_chunk(self):
        n = 6
        res = evolve(mixed_up_state(n), params(n, J=1.0, gamma=0.5), np.linspace(0, 2, 21))
        res = full_space(res)
        chunks = row_chunks(len(res), 4 ** n)
        assert len(chunks) == 3 and chunks[1].start < 11 < chunks[1].stop
        res.amplitudes[11, 0] += 1e-3
        res.amplitudes[11, 0b1111] += 3e-4j  # degree 4: an imaginary part breaks Hermiticity
        got = physicality_report(res)
        v = res.amplitudes[11]
        assert got["max_trace_deviation"] == abs(2 ** n * v[0] - 1.0)
        assert got["max_hermiticity_defect"] == np.abs(v - reversal_signs(n) * np.conj(v)).max()
        assert got["max_hermiticity_defect"] == pytest.approx(6e-4, rel=1e-9)
        assert got == reference_report(res) | {"max_negative_eigenvalue": got["max_negative_eigenvalue"]}

    def test_singular_state_takes_the_eigenvalue_path(self):
        # Cholesky rejects a pure state; eigvalsh then finds no negative eigenvalue
        n = 2
        check_physical_initial_state(up_state(n))
        res = evolve(up_state(n), params(n, J=1.0, gamma=0.7), np.array([0.0]))
        assert physicality_report(res)["max_negative_eigenvalue"] < 1e-15


class TestInitialStateCheck:
    """check_physical_initial_state as a one-sample trajectory on the state's support."""

    @staticmethod
    def stationary(n, zeta):
        return (OperatorSum.identity(n) + OperatorSum.from_pauli(parity_word(n), zeta)).scaled(2.0 ** -n)

    def test_accepts_and_rejects_every_state_form(self):
        n = 3
        for zeta, ok in ((0.5, True), (1.5, False)):
            op = self.stationary(n, zeta)
            for state in (op, vectorize_operator(op), op.to_matrix()):
                if ok:
                    check_physical_initial_state(state)
                else:
                    # (I + zeta M) / 2^N has the eigenvalues (1 +- zeta) / 2^N
                    with pytest.raises(ValueError, match=f"negative eigenvalue: minimum eigenvalue {-0.5 / 8:.3e}"):
                        check_physical_initial_state(state)

    def test_non_hermitian_state_rejected(self):
        n = 2
        op = self.stationary(n, 0.5) + OperatorSum.from_pauli(PauliString.single(n, 1, "Z"), 0.1j)
        with pytest.raises(ValueError, match="not Hermitian"):
            check_physical_initial_state(op)
        with pytest.raises(ValueError, match="not Hermitian"):
            check_physical_initial_state(op.to_matrix())

    def test_odd_degree_state_takes_the_full_matrix_path(self, monkeypatch):
        import lmem.dynamics

        # sx_1 = w_1 has degree 1, so the state does not commute with the parity
        n = 3
        op = OperatorSum.identity(n, 0.125) + OperatorSum.from_pauli(PauliString.single(n, 1, "X"), 0.2)
        lam = np.linalg.eigvalsh(op.to_matrix()).min()
        assert lam == pytest.approx(-0.075)
        paths = []
        kernel = lmem.dynamics._DenseLayout.blocks

        def spy(layout, values, parity_blocks=False):
            paths.append(parity_blocks)
            return kernel(layout, values, parity_blocks)

        monkeypatch.setattr(lmem.dynamics._DenseLayout, "blocks", spy)
        with pytest.raises(ValueError, match=f"minimum eigenvalue {lam:.3e}"):
            check_physical_initial_state(op)
        assert paths == [False]


def quadratic_support(n):
    """Basis indices of Majorana degree 0, 2, 2N - 2 and 2N."""
    idx = np.arange(4 ** n)
    return idx[np.isin(np.bitwise_count(idx), (0, 2, 2 * n - 2, 2 * n))]


def random_quadratic_states(n, count, seed):
    """count random Hermitian states on `quadratic_support(n)`, c_0 = 2^-N."""
    indices = quadratic_support(n)
    x = np.random.default_rng(seed).normal(size=(count, indices.size)) / 2 ** n
    values = np.where(hermitian_powers(indices) == 1, 1j, 1.0) * x  # i^{p_a} x_a is Hermitian
    values[:, 0] = 2.0 ** -n
    return indices, values


def dense_block_minima(values, indices, n):
    """Least eigenvalue of each sample on each parity block, (T, 2), by eigvalsh."""
    blocks = dense_blocks(values, indices, n, parity_blocks=True)
    return np.linalg.eigvalsh(blocks).min(axis=-1)


def pfaffian(a):
    """Pf a by expansion along the first row."""
    if not len(a):
        return 1.0
    total = 0.0
    for j in range(1, len(a)):
        rest = [k for k in range(1, len(a)) if k != j]
        total += (-1) ** (j + 1) * a[0, j] * pfaffian(a[np.ix_(rest, rest)])
    return total


class TestQuadraticPositivity:
    """The 2N x 2N quadratic-form path of `_physicality` against dense eigvalsh."""

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_pfaffian_signs_match_the_expansion(self, m):
        a = np.random.default_rng(m).normal(size=(25, m, m))
        a -= a.transpose(0, 2, 1)
        a[0, :, m - 1] = a[0, m - 1, :] = 0.0  # a vanishing Pfaffian has sign 0
        expected = np.sign([pfaffian(x) for x in a])
        assert expected[0] == 0
        np.testing.assert_array_equal(dynamics._pfaffian_signs(a), expected)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_states_match_dense_blocks(self, n, monkeypatch):
        indices, values = random_quadratic_states(n, 40, seed=n)
        assert dynamics._is_quadratic(indices, n)
        ref = dense_block_minima(values, indices, n)
        assert (ref < 0).all()  # so every block goes through the Pfaffian
        got = dynamics._quadratic_lowest(values, indices, n)
        atol = 1e-13 * np.abs(ref).max()
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)
        # random forms have no zero mode, so the Pfaffian sign decides the
        # branch: with every sign flipped the least eigenvalues come out wrong
        signs = dynamics._pfaffian_signs
        monkeypatch.setattr(dynamics, "_pfaffian_signs", lambda a: -signs(a))
        wrong = np.abs(dynamics._quadratic_lowest(values, indices, n) - ref) > 1e3 * atol
        assert wrong.all()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_states_negative_on_one_parity_block(self, n):
        indices, values = random_quadratic_states(n, 20, seed=10 + n)
        lowest = dense_block_minima(values, indices, n)
        values[:, 0] -= lowest.mean(axis=1)  # shifts both blocks' spectra by the same amount
        ref = dense_block_minima(values, indices, n)
        assert ((ref < 0).sum(axis=1) == 1).all()
        got = dynamics._quadratic_lowest(values, indices, n)
        atol = 1e-13 * np.abs(ref).max()
        # the positive block may report a nonnegative lower bound instead
        np.testing.assert_allclose(np.minimum(got, 0), np.minimum(ref, 0), rtol=0, atol=atol)
        assert (got <= ref + atol).all()
        report = dynamics._physicality(values, indices, n)
        assert report["max_negative_eigenvalue"] == pytest.approx(-ref.min(), rel=1e-12)

    @pytest.mark.parametrize(
        "n, kind", [(4, "product"), (4, "nonproduct"), (6, "product"), (6, "nonproduct"), (5, "fig3b")]
    )
    def test_fig3_trajectories_report_as_the_dense_path(self, n, kind, monkeypatch):
        from lmem.cli import nonproduct_initial_state, product_initial_state

        if kind == "fig3b":
            p = random_perturbed_params(n, u=0.0, rng_seed=5)
            rho0 = product_initial_state(n, 0.5, 0.1)
        else:
            p = params(n, J=1.0, gamma=1.0)
            rho0 = (product_initial_state(n, 0.5, 0.1) if kind == "product"
                    else nonproduct_initial_state(n, 0.5, 0.1, (0.05, 0.05)))
        res = evolve(rho0, p, np.linspace(0, 10, 41))
        assert dynamics._is_quadratic(res.indices, n)
        got = dynamics._quadratic_lowest(res.values, res.indices, n)
        np.testing.assert_allclose(got, dense_block_minima(res.values, res.indices, n), rtol=0, atol=1e-15)
        report = physicality_report(res)
        monkeypatch.setattr(dynamics, "_is_quadratic", lambda indices, n_sites: False)
        assert report == physicality_report(res)
        assert report["max_negative_eigenvalue"] == 0.0

    def test_two_sites_take_the_dense_path(self):
        # at N = 2 the degree-2 and degree-(2N - 2) words coincide, so a
        # complement table would count every pair amplitude twice
        n = 2
        indices, values = random_quadratic_states(n, 30, seed=2)
        assert indices.size == 8 and not dynamics._is_quadratic(indices, n)
        ref = dense_block_minima(values, indices, n)
        assert ref.min() < 0
        got = dynamics._physicality(values, indices, n)
        assert got["max_negative_eigenvalue"] == pytest.approx(-ref.min(), rel=1e-12)

    def test_an_imaginary_quadratic_form_raises(self):
        n = 3
        indices, values = random_quadratic_states(n, 2, seed=1)
        values[1, 1] += 0.01  # w_1 w_2 is anti-Hermitian: a real amplitude breaks the form
        with pytest.raises(RuntimeError, match="not a real quadratic form"):
            dynamics._quadratic_lowest(values, indices, n)


def random_touched_states(n, touched, count, seed):
    """count random Hermitian states whose words, folded onto degree <= N,
    touch exactly `touched` modes: the even words of degree < N on a random
    set T of that many modes, each stored as itself or as its complement,
    plus the identity and its complement W. (indices, values)."""
    rng = np.random.default_rng(seed)
    modes = np.sort(rng.choice(2 * n, size=touched, replace=False))
    idx = np.arange(4 ** n)
    on_t = (idx & ~sum(1 << int(j) for j in modes)) == 0
    degree = np.bitwise_count(idx)
    words = idx[on_t & (degree % 2 == 0) & (degree < n) & (idx > 0)]
    words = rng.choice(words, size=min(words.size, 12), replace=False)
    words = np.where(rng.random(words.size) < 0.5, words ^ (4 ** n - 1), words)
    indices = np.unique(np.concatenate([[0, 4 ** n - 1], words]))
    x = rng.normal(size=(count, indices.size)) / 2 ** n
    values = np.where(hermitian_powers(indices) == 1, 1j, 1.0) * x
    values[:, 0] = 2.0 ** -n
    return indices, values


class TestTouchedPositivity:
    """The touched-mode path of `_physicality` against dense eigvalsh."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_fold_powers_match_dense_words(self, n):
        # w^a = i^q p w^{a^F} on the parity block p, for every even word a
        idx = np.arange(4 ** n)
        even = idx[np.bitwise_count(idx) % 2 == 0]
        q = dynamics._fold_powers(even, n)
        for a, power in zip(even, q):
            word = dense_blocks(np.ones((1, 1)), [a], n, parity_blocks=True)[0]
            complement = dense_blocks(np.ones((1, 1)), [a ^ (4 ** n - 1)], n, parity_blocks=True)[0]
            phase = 1j ** power
            np.testing.assert_array_equal(word, np.stack([phase * complement[0], -phase * complement[1]]))

    @pytest.mark.parametrize(
        "n, touched", [(3, 0), (4, 0), (4, 1), (4, 3), (4, 4), (5, 2), (5, 5), (5, 6), (6, 7), (6, 8)]
    )
    def test_random_states_match_dense_blocks(self, n, touched):
        # |T| = 0 leaves the identity and W alone; an odd |T| pads the chain
        indices, values = random_touched_states(n, touched, 20, seed=10 * n + touched)
        part = hermitian_part(values, n, indices)
        ref = dense_block_minima(part, indices, n)
        assert (ref < 0).any()
        for k in range(len(part)):
            got = dynamics._touched_positivity(part[k : k + 1], indices, n)
            assert got == pytest.approx(max(0.0, -ref[k].min()), rel=0, abs=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("n, touched", [(4, 2), (5, 3), (5, 4), (6, 5)])
    def test_states_negative_on_one_parity_block(self, n, touched):
        indices, values = random_touched_states(n, touched, 20, seed=n + touched)
        lowest = dense_block_minima(values, indices, n)
        values[:, 0] -= lowest.mean(axis=1)  # shifts both blocks' spectra by the same amount
        ref = dense_block_minima(values, indices, n)
        assert ((ref < 0).sum(axis=1) == 1).all()
        part = hermitian_part(values, n, indices)
        for k in range(len(part)):
            got = dynamics._touched_positivity(part[k : k + 1], indices, n)
            assert got == pytest.approx(-ref[k].min(), rel=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_fig4_purity_trajectories_report_as_the_dense_path(self, n, monkeypatch):
        from lmem.cli import edge_occupied_state

        res = evolve(edge_occupied_state(n, 0.4, 0.3), params(n, J=2.0, gamma=3.0), np.linspace(0, 12, 49))
        part = hermitian_part(res.values, n, res.indices)
        assert not dynamics._is_quadratic(res.indices, n)
        assert dynamics._touched_positivity(part, res.indices, n) == 0.0
        # the least eigenvalue is at most the mean 2^-N, so shifted by -2^{1-N} I
        # every sample is negative and both paths report its least eigenvalue
        shifted = part.copy()
        shifted[:, np.flatnonzero(res.indices == 0)] -= 2.0 ** (1 - n)
        ref = dense_block_minima(shifted, res.indices, n)
        got = [dynamics._touched_positivity(shifted[k : k + 1], res.indices, n) for k in range(len(shifted))]
        np.testing.assert_allclose(got, -ref.min(axis=1), rtol=1e-12)
        report = physicality_report(res)
        monkeypatch.setattr(dynamics, "_touched_positivity", lambda part, indices, n_sites: None)
        assert report == physicality_report(res)
        assert report["max_negative_eigenvalue"] == 0.0

    def test_states_beyond_the_touched_path_go_dense(self, monkeypatch):
        from lmem.cli import edge_occupied_state, product_initial_state

        # fig4-purity at N=4 touches all 8 modes, where the rule is off; a
        # chain of N - 1 sites is no smaller than a dense parity block; an odd
        # word maps one parity block onto the other; fig3b's u=2 draws touch every mode
        purity = evolve(edge_occupied_state(4, 0.4, 0.3), params(4, J=2.0, gamma=3.0), [0.0, 1.0])
        odd = OperatorSum.identity(5, 2.0 ** -5) + OperatorSum.from_pauli(PauliString.single(5, 1, "X"), 0.01)
        v = vectorize_operator(odd).amplitudes
        support = np.flatnonzero(v)
        draw = random_perturbed_params(5, u=2.0, rng_seed=3)
        u2 = evolve(product_initial_state(5, 0.5, 0.1), draw, np.linspace(0, 2, 5))
        cases = [
            (4, purity.indices, purity.values),
            (5, *random_touched_states(5, 7, 2, seed=1)),
            (5, support, v[None, support]),
            (5, u2.indices, u2.values),
        ]
        calls = []
        dense = dynamics._dense_positivity
        monkeypatch.setattr(dynamics, "_dense_positivity", lambda *args: calls.append(1) or dense(*args))
        for n, indices, values in cases:
            assert not dynamics._is_quadratic(indices, n)
            assert dynamics._touched_positivity(hermitian_part(values, n, indices), indices, n) is None
            dynamics._physicality(values, indices, n)
        assert len(calls) == len(cases)


def test_dense_kernels_honour_the_cap(monkeypatch):
    from lmem.pauli import SizeLimitError

    n = 4
    res = evolve(up_state(n), params(n), np.array([0.0, 1.0]))
    monkeypatch.setenv("LMEM_DENSE_LIMIT", "3")
    with pytest.raises(SizeLimitError, match="LMEM_DENSE_LIMIT"):
        physicality_report(res)
    with pytest.raises(SizeLimitError, match="LMEM_DENSE_LIMIT"):
        devectorize(res.state(1))


@pytest.mark.parametrize("kind", ["fig4-purity", "fig3b-u2"])
def test_dense_checks_build_no_4n_vector(kind, monkeypatch):
    # the dense positivity path and density_matrix rebuild the matrices
    # from the stored words; no trajectory sample is scattered into 4^N
    import lmem.fock
    from lmem.cli import edge_occupied_state, product_initial_state

    if kind == "fig4-purity":
        n = 5
        rho0 = edge_occupied_state(n, 0.4, 0.3)
        p = params(n, J=2.0, gamma=3.0)
    else:
        n = 4
        rho0 = product_initial_state(n, 0.5, 0.1)
        p = random_perturbed_params(n, u=2.0, rng_seed=3)
    res = evolve(rho0, p, np.linspace(0, 4, 9))
    assert not dynamics._is_quadratic(res.indices, n) and res.indices.size < 4 ** n
    expected = [devectorize(v, n) for v in res.amplitudes]
    report = physicality_report(res)

    def forbidden(*args, **kwargs):
        raise AssertionError("scattered a sample into a 4^N vector")

    for module in (lmem.dynamics, lmem.fock):
        monkeypatch.setattr(module, "scatter_columns", forbidden)
    assert physicality_report(res) == report
    assert report["max_negative_eigenvalue"] == 0.0
    check_physical_initial_state(rho0)
    for k, rho in enumerate(expected):
        np.testing.assert_allclose(res.density_matrix(k), rho, rtol=0, atol=1e-15)


class TestExpectation:
    def test_identity_expectation(self):
        n = 2
        rho = up_state(n)
        assert expectation(OperatorSum.identity(n), rho, n) == pytest.approx(1.0)

    def test_parity_expectation_on_stationary_family(self):
        n = 3
        for zeta in (-0.7, 0.0, 0.4):
            rho = (np.eye(8) + zeta * parity_word(n).to_matrix()) / 8
            assert expectation(parity_word(n), rho, n).real == pytest.approx(zeta, abs=1e-12)

    def test_matrix_trace_path_agrees(self):
        rng = np.random.default_rng(5)
        n = 3
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        X = PauliString.from_codes(codes)
        via_inner = expectation(X, rho, n)
        via_trace = np.trace(X.to_matrix() @ rho)
        assert via_inner == pytest.approx(via_trace, abs=1e-12)


class TestSpectrum:
    def test_zero_coupling_dissipative_ladder(self):
        n = 2
        gamma = 0.8
        p = params(n, J=0.0, gamma=gamma)
        L = build_liouvillian_thirdq(p)
        rep = spectrum_analysis(L.matrix, n_sites=n)
        steps = np.round(rep.eigenvalues.imag / (2 * gamma), 9)
        assert set(np.unique(steps)) <= {0.0, -1.0, -2.0}
        assert np.abs(rep.eigenvalues.real).max() < 1e-12

    def test_structure_full_space(self):
        n = 2
        p = params(n, J=1.0, gamma=0.5)
        rep = spectrum_analysis(build_liouvillian_thirdq(p).matrix, n_sites=n)
        assert rep.max_imag <= 1e-9
        assert not rep.unpaired
        covered = {i for pair in rep.pairing for i in pair}
        assert covered == set(range(4 ** n))
        assert rep.trace_defects.max() < 1e-8
        # stationary eigenvalue exists
        assert np.abs(rep.eigenvalues).min() < 1e-12

    def test_sector_block_structure(self):
        n = 3
        p = params(n, J=1.0, gamma=0.5)
        L = build_liouvillian_thirdq(p)
        lab = SectorLabel((-1, 1))
        block = restrict_liouvillian(L, lab)
        rep = spectrum_analysis(
            block.matrix, n_sites=n, basis_indices=block.basis_indices
        )
        assert rep.max_imag <= 1e-9
        assert not rep.unpaired

    def test_missing_anticonjugate_partner_is_unpaired(self):
        # -conj maps 0 and -1j to themselves; 1-1j and 2-1j have no partner
        rep = spectrum_analysis(np.diag([1 - 1j, 0, 2 - 1j, -1j]))
        assert rep.eigenvalues.tolist() == [-1j, 1 - 1j, 2 - 1j, 0]
        assert sorted(rep.pairing) == [(0, 0), (3, 3)]
        assert rep.unpaired == [1, 2]

    def test_stationary_eigenmatrix_in_parity_span(self):
        n = 2
        p = params(n, J=1.0, gamma=0.5)
        L = build_liouvillian_thirdq(p).toarray()
        lam, R = np.linalg.eig(L)
        zero_modes = R[:, np.abs(lam) < 1e-10]
        assert zero_modes.shape[1] == 2
        # span{I, parity} = span of amplitude indices {0, last}
        support = np.abs(zero_modes).max(axis=1) > 1e-10
        assert set(np.flatnonzero(support)) == {0, 4 ** n - 1}


class TestExceptionalPoints:
    def test_isolated_pair_branch_merge(self):
        J = 2.0
        at_ep = isolated_pair_branches(J, J)
        assert abs(at_ep[0] - at_ep[1]) < 1e-12
        below = isolated_pair_branches(J, 0.5 * J)
        assert abs(below[0] - below[1]) > 1.0

    def test_pair_branches_appear_in_sector_block(self):
        n = 3
        J, gamma = 2.0, 1.2
        p = params(n, J=J, gamma=gamma)
        L = build_liouvillian_thirdq(p)
        lab = SectorLabel((-1, 1))
        ev = np.linalg.eigvals(restrict_liouvillian(L, lab).matrix)
        for branch in isolated_pair_branches(J, gamma):
            assert np.abs(ev - (branch - 2j * gamma)).min() < 1e-9

    def test_scan_flags_ep_at_gamma_equals_J(self):
        n = 3
        J = 2.0
        base = params(n, J=J, gamma=1.0)
        gammas = np.linspace(1.0, 3.0, 21)  # hits 2.0 exactly
        points = exceptional_point_scan(base, gammas, SectorLabel((-1, 1)))
        flagged = [pt.gamma for pt in points if pt.exceptional]
        assert any(abs(g - J) <= 0.1 + 1e-12 for g in flagged)
        # away from the EP the block diagonalizes well
        far = [pt for pt in points if abs(pt.gamma - J) > 0.5]
        assert all(pt.condition_number < 1e6 for pt in far)

    def test_smooth_limit_at_small_gamma(self):
        n = 3
        base = params(n, J=1.0, gamma=0.1)
        pts = exceptional_point_scan(base, [1e-4], SectorLabel((-1, 1)))
        assert np.abs(pts[0].eigenvalues.imag).max() < 1e-3

    def test_slow_modes_of_first_broken_bond_sector(self):
        # the span {sz1, sy1 sx2} is invariant; above the exceptional point
        # its eigenmatrices are sz1 + r sx2 sy1 with the real mixing ratios
        # r = -(gamma -/+ sqrt(gamma^2 - J^2)) / J and eigenvalues
        # -2i gamma +/- 2i sqrt(gamma^2 - J^2); the parity partners mirror it
        from lmem.pauli import PauliString, parity_word

        n, J, gamma = 4, 2.0, 3.0
        p = params(n, J=J, gamma=gamma)
        L = build_liouvillian_thirdq(p).matrix
        sz1 = PauliString.single(n, 1, "Z").to_matrix()
        syx = (
            PauliString.single(n, 1, "Y").mul(PauliString.single(n, 2, "X"))
        ).to_matrix()
        root = np.sqrt(gamma ** 2 - J ** 2)
        m = parity_word(n).to_matrix()
        for partner in (np.eye(2 ** n), m):
            for sign in (+1, -1):
                lam = -2j * gamma + sign * 2j * root
                r = -(gamma - sign * root) / J
                mat = (sz1 + r * syx) @ partner
                v = vectorize(mat, n).amplitudes
                resid = np.abs(L @ v - lam * v).max() / np.abs(v).max()
                assert resid < 1e-12

    def test_slow_branch_becomes_quasi_stable_at_large_gamma(self):
        # decay rate of the slowest broken-bond mode falls like J^2 / gamma
        J = 1.0
        rates = []
        for gamma in (5.0, 50.0):
            lam = isolated_pair_branches(J, gamma)
            rates.append(min(-lam.imag[np.abs(lam.real) < 1e-12]))
        assert rates[1] < rates[0] / 5
        assert rates[1] == pytest.approx(J ** 2 / 50.0, rel=0.01)


def test_exceptional_point_scan_rejects_perturbed_model():
    # the segment form of the sector spectrum holds for the unperturbed model
    # only; a perturbation must not be dropped silently
    base = ModelParams(3, [1.0, 1.0], [1.0, 1.0, 1.0], bond_dissipation=[0.5, 0.0])
    with pytest.raises(ValueError, match="field_b, transverse_u and bond_dissipation"):
        exceptional_point_scan(base, [1.0], SectorLabel((-1, 1)))


def _kdtree_min_gap(lam):
    """The nearest-neighbour gap from a k-d tree, the oracle of `_min_gap`."""
    from scipy.spatial import cKDTree

    points = np.column_stack([lam.real, lam.imag])
    dists, _ = cKDTree(points).query(points, k=2)
    return float(dists[:, 1].min())


def _random_spectra(seed, repeats):
    rng = np.random.default_rng(seed)
    for trial in range(40):
        n = int(rng.integers(2, 300))
        lam = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.uniform(-6, 2)
        if trial % 2:  # many shared real parts, so the sort must order by both
            lam = np.round(lam.real, 1) + 1j * lam.imag
        if repeats:
            lam = rng.permutation(np.concatenate([lam, rng.choice(lam, int(rng.integers(1, n + 1)))]))
        yield lam


@pytest.mark.parametrize("chunk", [dynamics._GAP_CHUNK, 64], ids=["default-chunk", "row-chunks"])
def test_min_gap_matches_kdtree(monkeypatch, chunk):
    monkeypatch.setattr(dynamics, "_GAP_CHUNK", chunk)
    for lam in _random_spectra(11, repeats=True):
        assert _min_gap(lam) == _kdtree_min_gap(lam) == 0.0
    for lam in _random_spectra(12, repeats=False):
        gap = _min_gap(lam)
        assert gap > 0 and gap == _kdtree_min_gap(lam)
    assert _min_gap(np.array([1.0 - 2.0j])) == np.inf
    assert _min_gap(np.array([], dtype=complex)) == np.inf


def test_scan_min_gap_and_flags_match_kdtree():
    # the shipped fig4-spectrum sector at N=6, gamma = J on the grid; every
    # composed spectrum repeats each eigenvalue (the edge pair), so the gap is 0
    base = params(6, J=2.0, gamma=1.0)
    points = exceptional_point_scan(base, np.linspace(0.5, 4.0, 8), SectorLabel.from_string("+-+++"))
    for pt in points:
        gap = _kdtree_min_gap(pt.eigenvalues)
        assert pt.min_gap == gap == 0.0
        assert pt.exceptional == (gap < EP_GAP_TOL and pt.condition_number > EP_COND_THRESHOLD)
    assert [pt.gamma for pt in points if pt.exceptional] == [2.0]


def chunked_dense_positivity(values, indices, n):
    """`_dense_positivity` as it was: the kernel rebuilds its index tables in every chunk."""
    odd = (np.bitwise_count(indices) & 1).astype(bool)
    worst_herm = worst_neg = 0.0
    for rows in row_chunks(len(values), 4 ** n):
        chunk = values[rows]
        part = hermitian_part(chunk, n, indices)
        worst_herm = max(worst_herm, 2 * float(np.abs(chunk - part).max()))
        blocks = dense_blocks(part, indices, n, parity_blocks=not part[:, odd].any())
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            worst_neg = max(worst_neg, -float(np.linalg.eigvalsh(blocks).min()))
    return worst_herm, worst_neg


def dense_path_trajectories():
    """(name, values, indices, n) on the dense positivity path, each walked in several chunks."""
    from lmem.cli import edge_occupied_state, product_initial_state

    t = np.linspace(0.0, 4.0, 49)
    purity = evolve(edge_occupied_state(5, 0.4, 0.3), params(5, J=2.0, gamma=3.0), t)
    full = evolve(product_initial_state(5, 0.5, 0.1), random_perturbed_params(5, u=2.0, rng_seed=3), t)
    rng = np.random.default_rng(9)
    indices = np.sort(rng.choice(4 ** 5, size=300, replace=False))
    indices[0] = 0
    noise = 1e-3 * (rng.normal(size=(70, indices.size)) + 1j * rng.normal(size=(70, indices.size)))
    noise[:, 0] = 2.0 ** -5  # mixed states, some with negative eigenvalues
    return [
        ("fig4-purity", purity.values, purity.indices, 5),
        ("fig3b-u2", full.values, full.indices, 5),
        ("random", noise, indices, 5),
    ]


@pytest.mark.parametrize("name,values,indices,n", dense_path_trajectories(), ids=["fig4-purity", "fig3b-u2", "random"])
def test_dense_positivity_builds_its_tables_once(monkeypatch, name, values, indices, n):
    import lmem.fock

    assert len(row_chunks(len(values), 4 ** n)) > 1 and not dynamics._is_quadratic(indices, n)
    want = chunked_dense_positivity(values, indices, n)
    calls = []
    bits = lmem.fock._pauli_bits
    monkeypatch.setattr(lmem.fock, "_pauli_bits", lambda *args: calls.append(1) or bits(*args))
    part = hermitian_part(values, n, indices)
    assert dynamics._dense_positivity(values, part, indices, n) == want  # bit for bit
    assert len(calls) == 1
    if name == "random":
        assert want[1] > 0
