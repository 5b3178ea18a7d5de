"""Block propagation: the block the generator reaches and the symmetry cells
it lies in, the restricted assembly, the real generator on the Hermitian
basis, and compact trajectories, each against the full-space construction
or a dense oracle."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from lmem.cli import edge_occupied_state, nonproduct_initial_state, product_initial_state, ratio_observables
from lmem.dynamics import (
    _CLOSURE_PAIR_BYTES,
    _UNIT_ROUNDOFF,
    MemoryBudgetError,
    _Shifted,
    _batch_cut,
    _batch_generator,
    _group_words,
    _hermitian_basis_generator,
    _propagate_by_vectors,
    _step_intervals,
    _taylor_plan,
    evolve,
    evolve_batches,
    expectation_series,
    physicality_report,
)
from lmem.edge import purity_series
from lmem.fock import (
    CHUNK_ELEMENTS,
    _bitcount,
    _index_range,
    hermitian_powers,
    liouville_inner,
    reversal_signs,
    vectorize_operator,
)
from lmem.liouvillian import build_liouvillian_direct, generator_table
from lmem.model import ModelParams, _symmetry_generators, build_dissipators, build_hamiltonian, random_perturbed_params
from lmem.pauli import MajoranaMonomial, OperatorSum, PauliString, majorana_to_spin
from lmem.sectors import sector_eigenvalues


def degrees(n):
    return _bitcount(_index_range(2 * n))


def stored_entries(matrix):
    coo = matrix.tocoo()
    return coo.row, coo.col, coo.data


def uniform(n, J=1.0, gamma=0.7):
    return ModelParams(n, [J] * (n - 1), [gamma] * n)


def shifted(*blocks):
    """The `_Shifted` generator of any square sparse blocks, each shifted by
    its own mean diagonal, as `dynamics._batch_generator` shifts a batch."""
    sizes = [b.shape[0] for b in blocks]
    mus = np.array([b.diagonal().sum() / size for b, size in zip(blocks, sizes)])
    A = blocks[0] if len(blocks) == 1 else sp.block_diag(blocks, format="csr")
    A = (A - sp.diags(np.repeat(mus, sizes), format="csr")).tocsr()
    return _Shifted(A, mus, sizes, float(abs(A).sum(axis=0).max()))


@lru_cache(maxsize=None)
def edge_signs(n):
    """(s_1, s_N) of every basis index: 1 where the Pauli word of its monomial
    anticommutes with sx_1, resp. sx_N, so that conjugation negates it."""
    gens = _symmetry_generators(n)
    out = []
    for a in range(4 ** n):
        ((_, word),) = majorana_to_spin(MajoranaMonomial(2 * n, a)).terms()
        out.append([word.commutation_sign(gens["sx_1"]) < 0, word.commutation_sign(gens["sx_N"]) < 0])
    return np.array(out, dtype=np.int64)


def cells(n, degree, sectors):
    """Cell code of every basis index: its edge signs, within its Majorana
    degree when `degree`, and within its parity-pair sector too when
    `sectors`, by brute force over the Pauli words."""
    codes = edge_signs(n) @ [1, 2]
    if degree:
        codes = codes + 4 * degrees(n)
    if sectors:
        pattern = (1 - sector_eigenvalues(_index_range(2 * n), n)) // 2
        codes = codes * 2 ** (n - 1) + pattern @ (1 << np.arange(n - 1))
    return codes


def occupied(v, n, degree, sectors):
    """Basis indices of the union of the cells of `cells` that v occupies."""
    codes = cells(n, degree, sectors)
    return np.flatnonzero(np.isin(codes, codes[np.flatnonzero(v)]))


def random_closed_set(rng, n, sectors):
    """A random union of degree cells, sorted."""
    codes = cells(n, True, sectors)
    chosen = rng.choice(np.unique(codes), size=rng.integers(1, 5), replace=False)
    return np.flatnonzero(np.isin(codes, chosen))


class TestDegreeConservation:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_off_degree_entries_vanish_without_transverse_field(self, n, seed):
        p = random_perturbed_params(n, u=0.0, rng_seed=seed)
        assert p.field_b.any() and p.bond_dissipation.any() and p.conserves_degree()
        rows, cols, _ = stored_entries(build_liouvillian_direct(p).matrix)
        deg = degrees(n)
        assert np.array_equal(deg[rows], deg[cols])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_transverse_field_changes_the_degree(self, n):
        p = random_perturbed_params(n, u=2.0, rng_seed=n)
        assert not p.conserves_degree()
        rows, cols, data = stored_entries(build_liouvillian_direct(p).matrix)
        off = degrees(n)[rows] != degrees(n)[cols]
        assert np.abs(data[off]).max() > 1.0


class TestEdgeLabels:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("u", [0.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_stored_entry_joins_two_labels(self, n, u, seed):
        # conjugation by sx_1 and by sx_N commutes with every model's generator
        rows, cols, _ = stored_entries(build_liouvillian_direct(random_perturbed_params(n, u=u, rng_seed=seed)).matrix)
        labels = edge_signs(n) @ [1, 2]
        assert rows.size and np.array_equal(labels[rows], labels[cols])

    def test_the_edge_labels_halve_the_transverse_block(self):
        # the product state occupies two of the four label pairs, and the
        # generator reaches 125 of their 128 words
        n = 4
        rho = vectorize_operator(product_initial_state(n, 0.5, 0.1))
        p = random_perturbed_params(n, u=2.0, rng_seed=0)
        res = evolve(rho, p, [0.0, 1.0])
        assert res.method_tag == "taylor" and res.indices.size == 125
        assert occupied(rho.amplitudes, n, False, False).size == 4 ** n // 2
        full = evolve(rho, p, [0.0, 1.0], method="eigen")
        off = np.setdiff1d(_index_range(2 * n), res.indices)
        assert np.abs(full.amplitudes[:, off]).max() < 1e-12


def experiment_states(n):
    """Amplitudes of the experiments' initial states: fig3a's product state
    (fig3b's too), fig3a's nonproduct state and fig4-purity's edge state."""
    states = (
        product_initial_state(n, 0.5, 0.1),
        nonproduct_initial_state(n, 0.5, 0.1, (0.05, 0.05)),
        edge_occupied_state(n, 0.4, 0.3),
    )
    return [vectorize_operator(op).amplitudes for op in states]


class TestClosure:
    """The block `evolve` takes, the closure of the state's words under the
    Hamiltonian words that anticommute with them, against the symmetry
    cells the state occupies and the full-space generator and trajectory."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_block_lies_in_the_cells_and_holds_the_trajectory(self, n):
        t = np.linspace(0.0, 2.0, 5)
        models = [random_perturbed_params(n, u=u, rng_seed=10 * n + s) for u in (0.0, 2.0) for s in range(2)]
        assert all(p.field_b.any() and p.bond_dissipation.any() for p in models)
        for p in models + [uniform(n)]:
            degree = p.conserves_degree()
            sectors = degree and p.preserves_sectors()
            L = build_liouvillian_direct(p).matrix
            for v in experiment_states(n):
                block = evolve(v, p, t).indices
                assert np.isin(block, occupied(v, n, degree, sectors)).all()
                assert np.isin(np.flatnonzero(v), block).all()
                outside = np.setdiff1d(_index_range(2 * n), block)
                # the generator maps the block into itself, entry by entry
                assert not L[outside][:, block].toarray().any()
                # the eigen expansion costs 2 s at N=5 and 90 s at N=6; there
                # the same Taylor stepper runs unrestricted on -i L
                if n <= 4:
                    full = evolve(v, p, t, method="eigen").amplitudes
                else:
                    full = TestBlockPropagation.full_taylor(p, v, t)
                assert np.abs(full[:, outside]).max() <= 1e-12 * np.abs(full).max()

    def test_a_zero_state_keeps_the_empty_word(self):
        res = evolve(np.zeros(4 ** 3), uniform(3), [0.0, 1.0])
        assert res.indices.tolist() == [0] and not res.values.any()


class TestRestrictedAssembly:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("sectors", [False, True])
    def test_block_equals_submatrix_of_full_build(self, n, sectors):
        rng = np.random.default_rng(10 * n + sectors)
        p = uniform(n) if sectors else random_perturbed_params(n, u=0.0, rng_seed=n)
        full = build_liouvillian_direct(p).matrix
        for _ in range(4):
            cols = random_closed_set(rng, n, sectors)
            block = build_liouvillian_direct(p, cols=cols).matrix
            assert block.shape == (cols.size, cols.size)
            assert block.has_sorted_indices
            np.testing.assert_array_equal(block.toarray(), full[cols][:, cols].toarray())

    def test_the_whole_range_is_the_full_build(self):
        p = random_perturbed_params(3, u=2.0, rng_seed=5)
        full = build_liouvillian_direct(p).matrix
        block = build_liouvillian_direct(p, cols=np.arange(4 ** 3)).matrix
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(block, attr), getattr(full, attr))

    def test_a_set_that_is_not_closed_raises(self):
        n = 3
        p = random_perturbed_params(n, u=0.0, rng_seed=1)
        one_degree_two = np.flatnonzero(degrees(n) == 2)[:3]
        with pytest.raises(ValueError, match="not closed"):
            build_liouvillian_direct(p, cols=one_degree_two)


class TestHermitianBasis:
    @pytest.mark.parametrize("u", [0.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generator_is_exactly_real(self, u, seed):
        n = 4
        p = random_perturbed_params(n, u=u, rng_seed=seed)
        L = build_liouvillian_direct(p).matrix
        idx = _index_range(2 * n)
        B = _hermitian_basis_generator(L, idx)
        assert B.dtype == np.float64
        # B = D^* (-i L) D with D = diag(i^p), the dense change of basis
        d = 1j ** hermitian_powers(idx)
        expected = np.conj(d)[:, None] * (-1j * L.toarray()) * d[None, :]
        np.testing.assert_array_equal(B.toarray(), expected.real)
        assert not expected.imag.any()

    def test_hermitian_powers_follow_the_reversal_sign(self):
        # i^p w^a is Hermitian when (i^p)^* s_a = i^p, i.e. s_a = (-1)^p with
        # s_a = (-1)^{k(k-1)/2} for degree k
        k = degrees(4)
        signs = 1 - 2 * (((k * (k - 1)) // 2) % 2)
        np.testing.assert_array_equal(signs, 1 - 2 * hermitian_powers(_index_range(8)))

    def test_a_generator_that_breaks_hermiticity_raises(self):
        L = build_liouvillian_direct(uniform(3)).matrix
        with pytest.raises(RuntimeError, match="not real"):
            _hermitian_basis_generator((1j * L).tocsr(), _index_range(6))


def printed_model(p):
    """(H, jump operators, N) of p term by term, as the model is printed:
    J_j sx_j sx_{j+1}, b_j sz_j for interior j, u sx_j, sqrt(gamma_j) sz_j
    and gamma'_j sx_j sx_{j+1}, each left out where its prefactor is zero,
    and a jump also where it is negative. Independent of the word list of
    `model.model_words` and `model.model_weights`."""
    n = p.n_sites
    x, z = (lambda j: PauliString.single(n, j, "X")), (lambda j: PauliString.single(n, j, "Z"))
    h = OperatorSum(n)
    for j in range(1, n):
        if p.couplings[j - 1] != 0:
            h.add_term(p.couplings[j - 1], x(j).mul(x(j + 1)))
    for j in range(2, n):
        if p.field_b[j - 1] != 0:
            h.add_term(p.field_b[j - 1], z(j))
    for j in range(1, n + 1):
        if p.transverse_u != 0:
            h.add_term(p.transverse_u, x(j))
    jumps = [OperatorSum(n, [(np.sqrt(g), z(j))]) for j, g in enumerate(p.dephasing_rates, 1) if g > 0]
    jumps += [OperatorSum(n, [(g, x(j).mul(x(j + 1)))]) for j, g in enumerate(p.bond_dissipation, 1) if g > 0]
    return h, jumps, n


def table_group(n, u):
    """A fig3b group at transverse field u: three seeded draws, one with a
    zero coupling, and one without bond dissipation, its last bond's
    amplitude set negative past validation, which both builds skip."""
    draws = [random_perturbed_params(n, u=u, rng_seed=s) for s in range(3)]
    zero_coupling = random_perturbed_params(n, u=u, rng_seed=3)
    zero_coupling.couplings[-1] = 0.0
    no_bonds = replace(random_perturbed_params(n, u=u, rng_seed=4), bond_dissipation=np.zeros(n - 1))
    no_bonds.bond_dissipation[-1] = -0.5
    return draws + [zero_coupling, no_bonds]


class TestGeneratorTable:
    """The run path's generators, a weight product on one table per block,
    against the direct build on the Hermitian basis."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("u", [0.0, 2.0])
    def test_table_generators_match_the_direct_build(self, n, u):
        rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1)).amplitudes
        indices = occupied(rho0, n, u == 0.0, False)
        group = table_group(n, u)
        # the zero-coupling draw alone holds one Hamiltonian word fewer
        for models in (group, group[3:4]):
            weights, hamiltonian, jumps = _group_words(models)
            table = generator_table(hamiltonian, jumps, n, indices)
            values = table.values(weights)
            oracles = [
                _hermitian_basis_generator(build_liouvillian_direct(*printed_model(p), cols=indices).matrix, indices)
                for p in models
            ]
            for run, want in zip(values.T, oracles):
                got = sp.csr_matrix((run, table.columns, table.indptr), shape=want.shape)
                assert abs(got - want).max() <= 1e-14 * abs(want).max()
            gen, ref = _batch_generator(table, weights), shifted(*oracles)
            assert gen.sizes == ref.sizes and gen.matrix.has_sorted_indices
            assert abs(gen.matrix - ref.matrix).max() <= 1e-14 * abs(ref.matrix).max()
            assert np.abs(gen.mus - ref.mus).max() <= 1e-14 * np.abs(ref.mus).max()
            assert abs(gen.norm - ref.norm) <= 1e-14 * ref.norm
        assert len(_group_words(group[3:4])[1]) == len(_group_words(group)[1]) - 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_builders_follow_the_printed_model(self, n):
        # build_hamiltonian and build_dissipators read the one word list
        for p in table_group(n, 2.0) + table_group(n, 0.0):
            h, jumps, _ = printed_model(p)
            assert dict(build_hamiltonian(p)) == dict(h)
            assert [dict(d) for d in build_dissipators(p)] == [dict(d) for d in jumps]

    def test_a_set_that_is_not_closed_raises(self):
        n = 3
        _, hamiltonian, jumps = _group_words([random_perturbed_params(n, u=0.0, rng_seed=1)])
        with pytest.raises(ValueError, match="not closed"):
            generator_table(hamiltonian, jumps, n, np.flatnonzero(degrees(n) == 2)[:3])
        # the transverse field changes the degree, so a whole degree cell leaks
        _, hamiltonian, jumps = _group_words([random_perturbed_params(n, u=2.0, rng_seed=1)])
        with pytest.raises(ValueError, match="not closed"):
            generator_table(hamiltonian, jumps, n, np.flatnonzero(degrees(n) == 2))


def cases():
    """(name, params, initial amplitudes) with every kind of block."""
    n = 4
    rho = vectorize_operator(product_initial_state(n, 0.5, 0.1)).amplitudes
    edge = vectorize_operator(edge_occupied_state(n, 0.4, 0.3)).amplitudes
    rng = np.random.default_rng(7)
    skew = rho.copy()
    # a non-Hermitian input: complex amplitudes on a few monomials
    picks = rng.choice(4 ** n, size=6, replace=False)
    skew[picks] += 0.01 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    return [
        ("sector", uniform(n, 1.0, 0.7), rho),
        ("sector-edge", uniform(n, 2.0, 3.0), edge),
        ("degree", random_perturbed_params(n, u=0.0, rng_seed=11), rho),
        ("degree-nonhermitian", random_perturbed_params(n, u=0.0, rng_seed=12), skew),
        ("full", random_perturbed_params(n, u=2.0, rng_seed=13), rho),
        ("full-nonhermitian", random_perturbed_params(n, u=2.0, rng_seed=14), skew),
    ]


class TestBlockPropagation:
    T = np.linspace(0.0, 3.0, 7)

    @staticmethod
    def full_taylor(p, v0, t):
        """The 4^N complex Taylor path: the same vector stepper on -i L, unrestricted."""
        t_phys = t / (p.homogeneous_gamma() or 1.0)
        out = np.empty((t.size, v0.size), dtype=complex)
        _propagate_by_vectors(shifted(-1j * build_liouvillian_direct(p).matrix), v0, t_phys, out)
        return out

    @pytest.mark.parametrize("name,p,v0", cases(), ids=[c[0] for c in cases()])
    def test_block_matches_full_taylor_and_eigen(self, name, p, v0):
        n = p.n_sites
        res = evolve(v0, p, self.T)
        tag = {"sector": "taylor-sector", "degree": "taylor-degree", "full": "taylor"}
        assert res.method_tag == tag[name.split("-")[0]]
        if not name.startswith("full"):
            assert res.indices.size < 4 ** n
        oracles = [self.full_taylor(p, v0, self.T)]
        eig = evolve(v0, p, self.T, method="eigen")
        oracles.append(eig.amplitudes)
        x1, x2 = ratio_observables(n)
        for amps in oracles:
            ref = replace(eig, values=amps)
            np.testing.assert_allclose(res.amplitudes, amps, rtol=0, atol=1e-12)
            for X in (x1, x2):
                np.testing.assert_allclose(
                    expectation_series(X, res), expectation_series(X, ref), rtol=0, atol=1e-12
                )
            for got, want in zip(purity_series(res), purity_series(ref)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_nonhermitian_input_keeps_its_imaginary_part(self):
        _, p, v0 = cases()[3]
        res = evolve(v0, p, [0.0, 0.5])
        np.testing.assert_array_equal(res.amplitudes[0], v0)
        assert np.abs(res.amplitudes[1] - reversal_signs(4) * np.conj(res.amplitudes[1])).max() > 1e-4

    def test_compact_and_full_space_reports_agree(self):
        for _, p, v0 in cases()[:3]:
            res = evolve(v0, p, self.T)
            full = replace(res, indices=np.arange(4 ** p.n_sites), values=res.amplitudes)
            assert physicality_report(res) == physicality_report(full)
            assert res.state(3).amplitudes.tolist() == full.amplitudes[3].tolist()
            np.testing.assert_array_equal(res.density_matrix(3), full.density_matrix(3))


class TestExpectationContraction:
    def test_matches_dense_inner_product(self):
        n = 4
        x1, x2 = ratio_observables(n)
        for _, p, v0 in cases():
            res = evolve(v0, p, np.linspace(0.0, 2.0, 5))
            full = replace(res, indices=np.arange(4 ** n), values=res.amplitudes)
            for X in (x1, x2):
                want = [liouville_inner(X, a, n) for a in res.amplitudes]
                for r in (res, full):
                    np.testing.assert_allclose(expectation_series(X, r), want, rtol=0, atol=1e-14)


def plain_stop_propagate(A, v0, t_phys, out):
    """`_propagate_by_vectors` as it was, computing ||f||_inf at every term."""
    dim = A.shape[0]
    mu = A.diagonal().sum() / dim
    A = (A - mu * sp.identity(dim, dtype=A.dtype, format="csr")).tocsr()
    norm = float(abs(A).sum(axis=0).max())
    v = v0.astype(np.result_type(A.dtype, v0.dtype))
    matvecs = 0
    t_prev = 0.0
    for k, t in enumerate(t_phys):
        dt, t_prev = t - t_prev, t
        if dt > 0:
            m, s = _taylor_plan(dt * norm)
            h = dt / s
            eta = np.exp(mu * h)
            for _ in range(s):
                f = v.copy()
                b = v
                c1 = np.abs(b).max()
                for j in range(1, m + 1):
                    b = A @ b
                    b *= h / j
                    f += b
                    matvecs += 1
                    c2 = np.abs(b).max()
                    if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(f).max():
                        break
                    c1 = c2
                f *= eta
                v = f
        out[k] = v
    return matvecs


@pytest.mark.parametrize("name,p,v0", [cases()[i] for i in (0, 3, 5)], ids=["sector", "degree", "full"])
def test_cheap_stop_test_takes_the_same_decisions(name, p, v0):
    t_phys = np.array([0.0, 0.1, 0.15, 1.3, 4.0, 4.0, 7.5])
    L = build_liouvillian_direct(p).matrix
    real = _hermitian_basis_generator(L, _index_range(2 * p.n_sites))
    for generator, v in ((-1j * L, v0), (real, v0.real + v0.imag)):
        got, want = (np.empty((t_phys.size, v.size), dtype=generator.dtype) for _ in range(2))
        got_matvecs = _propagate_by_vectors(shifted(generator), v, t_phys, got)
        want_matvecs = plain_stop_propagate(generator, v, t_phys, want)
        assert got_matvecs == want_matvecs > 0
        np.testing.assert_array_equal(got, want)


def propagate_both_ways(monkeypatch, run):
    """`run()` as it is and with `_step_intervals` forced to the vectors, and
    the path each batch took as it is: (as is, vectors, paths)."""
    import lmem.dynamics

    paths = []
    for path in ("steps", "vectors"):
        kernel = getattr(lmem.dynamics, f"_propagate_by_{path}")
        monkeypatch.setattr(
            lmem.dynamics, f"_propagate_by_{path}", lambda *args, path=path, kernel=kernel: paths.append(path) or kernel(*args)
        )
    got = run()
    taken = list(paths)
    monkeypatch.setattr(lmem.dynamics, "_step_intervals", lambda gen, t_phys: None)
    return got, run(), taken


def assert_columns_agree(got, want):
    """Each column of got within 1e-14 of that column's maximum in want."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max(axis=0)
    assert (np.abs(got - want) <= 1e-14 * scale).all()


def step_cases():
    """(name, params, initial amplitudes, grid) that take the step path."""
    t = np.linspace(0.0, 3.0, 13)
    # repeated samples and intervals of 0.5 and 0.25: two distinct intervals over 11 steps
    uneven = np.array([0.0, 0.5, 0.5, 1.0, 1.5, 1.75, 2.0, 2.5, 2.5, 3.0, 3.25, 3.5, 4.0, 4.5, 5.0])
    out = []
    for n in (4, 5, 6):
        p = uniform(n, 1.0, 1.0)
        product = vectorize_operator(product_initial_state(n, 0.5, 0.1)).amplitudes
        nonproduct = vectorize_operator(nonproduct_initial_state(n, 0.5, 0.1, (0.05, 0.05))).amplitudes
        edge = vectorize_operator(edge_occupied_state(n, 0.4, 0.3)).amplitudes
        out += [
            (f"fig3a-product-{n}", p, product, t),
            (f"fig3a-nonproduct-{n}", p, nonproduct, t),
            (f"fig4-purity-{n}", uniform(n, 2.0, 3.0), edge, np.linspace(0.0, 4.0, 17)),
        ]
    _, p, skew = cases()[3]  # two real columns
    out += [("nonhermitian", p, skew, t), ("uneven-grid", uniform(4, 1.0, 0.7), out[0][2], uneven)]
    return out


class TestStepMatrices:
    """The step path against the vector stepper."""

    @pytest.mark.parametrize("name,p,v0,t", step_cases(), ids=[c[0] for c in step_cases()])
    def test_steps_match_the_vector_stepper(self, monkeypatch, name, p, v0, t):
        n = p.n_sites
        steps, vectors, paths = propagate_both_ways(monkeypatch, lambda: evolve(v0, p, t))
        assert paths == ["steps"] and 0 < steps.matvecs < vectors.matvecs
        assert_columns_agree(steps.values, vectors.values)
        observables = ratio_observables(n) if name.startswith("fig3a") else ()
        for X in observables:
            assert_columns_agree(expectation_series(X, steps), expectation_series(X, vectors))
        if name.startswith("fig4-purity"):
            assert_columns_agree(np.stack(purity_series(steps), 1), np.stack(purity_series(vectors), 1))

    def test_fig3b_batch_steps_match_the_vector_stepper(self, monkeypatch):
        # a u=0 batch of several draws steps each draw by its own matrices
        n = 5
        t = np.linspace(0.0, 5.0, 21)
        rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
        models = [random_perturbed_params(n, u=0.0, rng_seed=s) for s in range(6)]
        steps, vectors, paths = propagate_both_ways(monkeypatch, lambda: next(evolve_batches(rho0, models, t)))
        assert paths == ["steps"] and len(steps) == len(models)
        for got, want in zip(steps, vectors):
            assert_columns_agree(got.values, want.values)

    def test_repeated_times_cost_nothing(self):
        p = uniform(4, 1.0, 0.7)
        v0 = vectorize_operator(product_initial_state(4, 0.5, 0.1)).amplitudes
        t = np.linspace(0.0, 3.0, 7)
        once = evolve(v0, p, t)
        twice = evolve(v0, p, np.repeat(t, 2))
        assert twice.matvecs == once.matvecs > 0
        np.testing.assert_array_equal(twice.values[::2], once.values)
        np.testing.assert_array_equal(twice.values[1::2], once.values)

    def test_rule_weighs_intervals_against_products(self):
        # 40 equal intervals on a block of 44 states pay for one step matrix;
        # every interval distinct, or a block of 512 states with a few
        # thousand entries, does not
        t = np.linspace(0.0, 10.0, 41)
        small = sp.random(44, 44, density=0.05, random_state=1, format="csr")
        large = sp.random(512, 512, density=0.014, random_state=1, format="csr")
        assert np.array_equal(_step_intervals(shifted(small), t), np.unique(np.diff(t)))
        assert _step_intervals(shifted(small), np.cumsum(np.arange(41.0))) is None
        assert _step_intervals(shifted(large), t) is None
        assert _step_intervals(shifted(small, large[:44, :44]), t) is not None
        assert _step_intervals(shifted(small, sp.identity(45, format="csr")), t) is None  # unequal sizes
        assert _step_intervals(shifted(small), np.zeros(5)) is None  # nothing to step

    def test_rule_prices_the_step_matmuls(self):
        # a multiple of the identity takes one nearly free Taylor term per
        # interval, so the 40 matmuls of the steps decide: on 200 states
        # they cost more than the 40 terms, on 20 states less
        t = np.linspace(0.0, 10.0, 41)
        assert _step_intervals(shifted(sp.identity(200, format="csr")), t) is None
        assert _step_intervals(shifted(sp.identity(20, format="csr")), t) is not None


@pytest.mark.parametrize(
    "limit,samples,setting", [(10 ** 5, 3, "n_sites"), (2 ** 20, 301, "time_grid.n_samples")]
)
def test_full_space_budget_raises_before_building(monkeypatch, limit, samples, setting):
    # at N=5 the u=2 product state lives on a block of 509 basis states: the
    # estimate is ~0.46 MB for the generator (13 Hamiltonian words) and 16
    # bytes per basis index and sample for the trajectory
    import lmem.dynamics

    def refuse(*args, **kwargs):
        raise AssertionError("built the generator")

    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: limit)
    monkeypatch.setattr(lmem.dynamics, "build_liouvillian_direct", refuse)
    p = random_perturbed_params(5, u=2.0, rng_seed=1)
    rho0 = vectorize_operator(product_initial_state(5, 0.5, 0.1))
    with pytest.raises(MemoryBudgetError, match=f"block of 509 basis states at n_sites=5 over {samples} samples") as info:
        evolve(rho0, p, np.linspace(0.0, 1.0, samples))
    assert info.value.setting == setting


def test_closure_budget_raises_before_allocating_a_layer(monkeypatch):
    # fig3b's u=2 product state at N=5: each closure layer pairs its frontier
    # words with each of the 12 Hamiltonian words; the largest layer decides
    import lmem.dynamics
    from lmem.liouvillian import anticommuting

    def refuse(*args, **kwargs):
        raise AssertionError("passed the closure")

    frontiers = []

    def spy(masks, words):
        frontiers.append(words.size)
        return anticommuting(masks, words)

    n = 5
    p = random_perturbed_params(n, u=2.0, rng_seed=1)
    rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
    t = np.linspace(0.0, 1.0, 3)
    hamiltonian = _group_words([p])[1]
    assert len(hamiltonian) == 12
    monkeypatch.setattr(lmem.dynamics, "anticommuting", spy)
    monkeypatch.setattr(lmem.dynamics, "_check_budget", refuse)
    with pytest.raises(AssertionError, match="passed the closure"):
        evolve(rho0, p, t)
    assert frontiers[0] == np.count_nonzero(rho0.amplitudes) and max(frontiers) > frontiers[0]
    for frontier in (frontiers[0], max(frontiers)):
        layer = _CLOSURE_PAIR_BYTES * len(hamiltonian) * frontier
        monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: layer - 1)
        with pytest.raises(MemoryBudgetError, match=f"closing the block at n_sites=5: a layer of {frontier} ") as info:
            evolve(rho0, p, t)
        assert info.value.setting == "n_sites"
    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: layer)
    with pytest.raises(AssertionError, match="passed the closure"):
        evolve(rho0, p, t)


def test_closure_budget_accepts_what_the_run_budget_accepts(monkeypatch):
    # under a limit of exactly the run's own estimate (generator and
    # trajectory, on the vector path) no closure layer is refused
    import lmem.dynamics

    n = 5
    p = random_perturbed_params(n, u=2.0, rng_seed=1)
    rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
    t = np.linspace(0.0, 1.0, 3)
    block = evolve(rho0, p, t).indices.size
    held = 64 * (len(_group_words([p])[1]) + 1) * block + 16 * t.size * block
    monkeypatch.setattr(lmem.dynamics, "_step_intervals", lambda gen, t_phys: None)
    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: held)
    assert evolve(rho0, p, t).indices.size == block
    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: held - 1)
    with pytest.raises(MemoryBudgetError, match=f"block of {block} basis states"):
        evolve(rho0, p, t)


def test_budget_counts_the_step_matrices(monkeypatch):
    # fig3a's product state at N=6 steps on a block of 44 states by one
    # 44 x 44 matrix: the budget refuses when those 15 kB tip it over
    import lmem.dynamics
    from lmem.model import build_hamiltonian

    n = 6
    p = uniform(n, 1.0, 1.0)
    rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
    t = np.linspace(0.0, 10.0, 41)
    block = evolve(rho0, p, t).indices.size
    held = 64 * (len(build_hamiltonian(p)) + 1) * block + 16 * t.size * block
    steps = 8 * block * block
    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: held + steps - 1)
    with pytest.raises(MemoryBudgetError, match="MiB for the step matrices") as info:
        evolve(rho0, p, t)
    assert info.value.setting == "time_grid.n_samples"
    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: held + steps)
    evolve(rho0, p, t)
    # the vector path holds no step matrix
    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: held)
    monkeypatch.setattr(lmem.dynamics, "_step_intervals", lambda gen, t_phys: None)
    evolve(rho0, p, t)


def test_memory_limit_reads_the_address_space_limit():
    import resource

    from lmem.dynamics import _memory_limit

    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert _memory_limit() == soft or soft == resource.RLIM_INFINITY
    assert _memory_limit() > 2 ** 20


class TestBatches:
    T = np.linspace(0.0, 3.0, 7)

    @pytest.mark.parametrize("n,u", [(4, 0.0), (4, 2.0), (5, 0.0), (5, 2.0)])
    def test_batched_draws_match_solo_draws(self, n, u):
        # on fig3b's time grid; on coarser grids (steps of 0.5 at u=2) a solo
        # run's own rounding reaches ~2e-14 of x2's maximum, against the
        # eigen expansion, and the batch is no further from it. Ten draws, as
        # fig3b makes: at N=5, u=2 a draw's generator holds 3584 entries, so
        # the group is cut into two batches of five
        t = np.linspace(0.0, 5.0, 21)
        rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
        models = [random_perturbed_params(n, u=u, rng_seed=s) for s in range(10)]
        batches = list(evolve_batches(rho0, models, t))
        assert [len(b) for b in batches] == ([5, 5] if (n, u) == (5, 2.0) else [10])
        x1, x2 = ratio_observables(n)
        runs = [(batch, res) for batch in batches for res in batch]
        for model, (batch, res) in zip(models, runs):
            solo = evolve(rho0, model, t)
            assert np.array_equal(res.indices, solo.indices) and res.method_tag == solo.method_tag
            # matvecs counts the products of the whole batch
            assert res.matvecs == batch[0].matvecs > 0
            for X in (None, x1, x2):
                got, want = (r.values if X is None else expectation_series(X, r) for r in (res, solo))
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_batches_split_by_block_and_chunk(self):
        # runs that share the block and the time unit are batched in order
        n = 4
        rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
        models = [random_perturbed_params(n, u=u, rng_seed=s) for u, s in ((0.0, 1), (0.0, 2), (2.0, 1), (0.0, 3))]
        models.append(uniform(n))
        got = [[(r.method_tag, r.indices.size) for r in b] for b in evolve_batches(rho0, models, self.T)]
        assert got == [[("taylor-degree", 32)] * 2, [("taylor", 125)], [("taylor-degree", 32)], [("taylor-sector", 22)]]
        # a group is cut into the fewest batches, of sizes that differ by at
        # most one, whose generators hold at most CHUNK_ELEMENTS stored
        # entries; a run beyond that is a batch of its own. fig3b's u=2 draws
        # hold 3584 entries at N=5 and 17408 at N=6, its u=0 draws 226 at N=5
        def sizes(runs, entries):
            cut = _batch_cut(runs, entries, lambda size: True)
            assert [b.start for b in cut] == [0] + [b.stop for b in cut[:-1]] and cut[-1].stop == runs
            return [b.stop - b.start for b in cut]

        assert sizes(10, 3584) == [5, 5]
        assert sizes(10, 17408) == [1] * 10
        assert sizes(10, 226) == [10]
        assert sizes(7, 10000) == [2, 2, 3]
        for runs in range(1, 13):
            for entries in (1, 100, 3000, 5000, 9000, 16384, 16385, 40000):
                got = sizes(runs, entries)
                assert max(got) - min(got) <= 1
                assert max(got) * entries <= CHUNK_ELEMENTS or max(got) == 1
                # the fewest batches: one fewer would hold a batch beyond the chunk
                fewer = -(-runs // (len(got) - 1)) if len(got) > 1 else None
                assert fewer is None or fewer * entries > CHUNK_ELEMENTS
        # the cut reads the generator's entries, not the trajectory's length:
        # three u=2 draws at N=4 (704 entries each) over 301 samples are one batch
        t_long = np.linspace(0.0, 1.0, 301)
        assert [len(b) for b in evolve_batches(rho0, [models[2]] * 3, t_long)] == [3]

    def test_group_beyond_the_budget_runs_in_smaller_batches(self, monkeypatch):
        # ten N=5, u=2 draws form two batches of five; under a memory limit
        # that holds four runs but not five, the group runs in batches of
        # at most four, each run as it runs alone. A batch of several runs is
        # sized with the step matrices it would hold, one 509 x 509 matrix a
        # run on this grid of one distinct interval
        import lmem.dynamics

        n = 5
        t = np.linspace(0.0, 5.0, 21)
        rho0 = vectorize_operator(product_initial_state(n, 0.5, 0.1))
        models = [random_perturbed_params(n, u=2.0, rng_seed=s) for s in range(10)]
        _, hamiltonian, _ = _group_words(models)
        block = 509
        one_run = 64 * (1 + len(hamiltonian)) * block + 16 * t.size * block
        steps = 8 * block * block
        monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: 4 * (one_run + steps) + one_run)
        batches = list(evolve_batches(rho0, models, t))
        assert [len(b) for b in batches] == [3, 3, 4]
        for model, res in zip(models, (res for batch in batches for res in batch)):
            solo = evolve(rho0, model, t)
            assert res.indices.size == block and np.array_equal(res.indices, solo.indices)
            assert np.abs(res.values - solo.values).max() <= 1e-14 * np.abs(solo.values).max()
        # a run that does not fit alone still raises, before any table is built
        monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: one_run - 1)
        monkeypatch.setattr(lmem.dynamics, "generator_table", lambda *args: pytest.fail("built the table"))
        with pytest.raises(MemoryBudgetError, match="evolving 1 run"):
            next(evolve_batches(rho0, models, t))

    def test_two_blocks_propagate_as_each_alone(self):
        # distinct blocks with distinct mean diagonals, stacked as one vector
        rng = np.random.default_rng(5)
        t = np.array([0.0, 0.4, 0.4, 2.0])
        blocks, vs = [], []
        for dim, shift in ((6, -1.0), (9, -3.0)):
            A = sp.random(dim, dim, density=0.4, random_state=rng, format="csr") + shift * sp.identity(dim, format="csr")
            blocks.append(A.tocsr())
            vs.append(rng.normal(size=dim))
        out = np.empty((t.size, 15))
        _propagate_by_vectors(shifted(*blocks), np.concatenate(vs), t, out)
        for A, v, cols in zip(blocks, vs, (slice(0, 6), slice(6, 15))):
            want = np.array([expm_multiply(tk * A.toarray(), v) for tk in t])
            np.testing.assert_allclose(out[:, cols], want, rtol=0, atol=1e-14 * np.abs(want).max())
