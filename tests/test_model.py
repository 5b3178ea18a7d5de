import json

import numpy as np
import pytest

from lmem.model import (
    ModelParams,
    build_dissipators,
    build_hamiltonian,
    check_symmetry_preserving,
    random_perturbed_params,
    symmetry_report,
)
from lmem.pauli import OperatorSum, PauliString


def test_two_site_hamiltonian():
    p = ModelParams(n_sites=2, couplings=[1.0], dephasing_rates=[0, 0])
    h = build_hamiltonian(p)
    assert len(h) == 1
    assert h.coefficient(PauliString.from_codes("XX")) == pytest.approx(1.0)


def test_all_zero_couplings_empty_sum():
    p = ModelParams(n_sites=3, couplings=[0, 0], dephasing_rates=[0, 0, 0])
    assert len(build_hamiltonian(p)) == 0


def test_three_site_with_field_is_hermitian():
    p = ModelParams(
        n_sites=3, couplings=[1.0, 2.0], dephasing_rates=[0, 0, 0], field_b=[0, 0.5, 0]
    )
    h = build_hamiltonian(p)
    assert len(h) == 3
    m = h.to_matrix()
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
    assert h.is_hermitian()


def test_edge_fields_never_enter():
    p = ModelParams(
        n_sites=4, couplings=np.zeros(3), dephasing_rates=np.zeros(4),
        field_b=[9.0, 0.5, 0.5, 9.0],
    )
    h = build_hamiltonian(p)
    assert h.coefficient(PauliString.single(4, 1, "Z")) == 0
    assert h.coefficient(PauliString.single(4, 4, "Z")) == 0
    assert h.coefficient(PauliString.single(4, 2, "Z")) == pytest.approx(0.5)


def test_dissipator_amplitudes():
    p = ModelParams(n_sites=2, couplings=[0.0], dephasing_rates=[0.5, 0.0])
    ds = build_dissipators(p)
    assert len(ds) == 1
    assert ds[0].coefficient(PauliString.from_codes("ZI")) == pytest.approx(np.sqrt(0.5))


def test_zero_rates_no_dissipators():
    p = ModelParams(n_sites=3, dephasing_rates=[0, 0, 0], couplings=[1, 1])
    assert build_dissipators(p) == []


def test_single_bond_dissipator():
    p = ModelParams(
        n_sites=3, couplings=[1, 1], dephasing_rates=[0, 0, 0],
        bond_dissipation=[0.2, 0.0],
    )
    ds = build_dissipators(p)
    assert len(ds) == 1
    word = PauliString.from_codes("XXI")
    assert ds[0].coefficient(word) == pytest.approx(0.2)


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        ModelParams(n_sites=2, couplings=[1.0], dephasing_rates=[-0.1, 0.0])
    with pytest.raises(ValueError):
        ModelParams(n_sites=2, couplings=[1.0], bond_dissipation=[-1.0])


class TestSymmetryCheck:
    def test_interior_sz_preserves(self):
        n = 4
        op = OperatorSum.from_pauli(PauliString.single(n, 2, "Z"))
        assert check_symmetry_preserving(op, n)

    def test_edge_sx_fails_parity(self):
        n = 4
        op = OperatorSum.from_pauli(PauliString.single(n, 1, "X"))
        rep = symmetry_report(op, n)
        assert rep["sx_1"] and rep["sx_N"]
        assert not rep["parity"]
        assert not check_symmetry_preserving(op, n)

    def test_identity_preserves(self):
        assert check_symmetry_preserving(OperatorSum.identity(3), 3)

    def test_unperturbed_generators_pass_and_transverse_fails(self):
        n = 5
        params = random_perturbed_params(n, u=0.0, rng_seed=9)
        h = build_hamiltonian(params)
        assert check_symmetry_preserving(h, n)
        for d in build_dissipators(params):
            word = next(iter(d.terms()))[1]
            if word.weight == 2:  # bond sx sx term
                assert check_symmetry_preserving(d, n)
        u_term = OperatorSum(
            n, [(2.0, PauliString.single(n, j, "X")) for j in range(1, n + 1)]
        )
        assert not check_symmetry_preserving(u_term, n)

    def test_symbolic_matches_dense_commutators(self):
        rng = np.random.default_rng(17)
        n = 3
        from lmem.pauli import parity_word

        gens = {
            "sx_1": PauliString.single(n, 1, "X").to_matrix(),
            "sx_N": PauliString.single(n, n, "X").to_matrix(),
            "parity": parity_word(n).to_matrix(),
        }
        for _ in range(15):
            codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            op = OperatorSum.from_pauli(PauliString.from_codes(codes))
            rep = symmetry_report(op, n)
            m = op.to_matrix()
            for name, g in gens.items():
                assert rep[name] == bool(np.allclose(m @ g, g @ m, atol=1e-13))


class TestConfig:
    def test_round_trip(self):
        p = random_perturbed_params(4, u=2.0, rng_seed=3)
        q = ModelParams.from_json(json.dumps(p.to_dict()))
        assert q.n_sites == p.n_sites
        np.testing.assert_allclose(q.couplings, p.couplings)
        np.testing.assert_allclose(q.field_b, p.field_b)
        assert q.transverse_u == p.transverse_u

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown model fields"):
            ModelParams.from_dict({"n_sites": 2, "coupling_strength": [1.0]})

    def test_missing_n_sites_rejected(self):
        with pytest.raises(ValueError):
            ModelParams.from_dict({"couplings": [1.0]})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ModelParams.from_dict({"n_sites": 3, "couplings": [1.0]})


def test_degree_conservation_needs_only_a_zero_transverse_field():
    # fields, bond dissipators and couplings are quadratic in the Majoranas;
    # the transverse field is a sum of odd strings
    assert random_perturbed_params(4, u=0.0, rng_seed=1).conserves_degree()
    assert not random_perturbed_params(4, u=0.0, rng_seed=1).preserves_sectors()
    assert not random_perturbed_params(4, u=0.5, rng_seed=1).conserves_degree()
    assert ModelParams(3).conserves_degree() and ModelParams(3).preserves_sectors()


def test_seeded_draws_reproducible():
    a = random_perturbed_params(6, u=0.0, rng_seed=42)
    b = random_perturbed_params(6, u=0.0, rng_seed=42)
    np.testing.assert_array_equal(a.couplings, b.couplings)
    np.testing.assert_array_equal(a.dephasing_rates, b.dephasing_rates)
    assert a.field_b[0] == 0.0 and a.field_b[-1] == 0.0
