"""Every state-taking entry point accepts the same state in all three forms:
a dense 2^N x 2^N matrix, a LiouvilleVector, and a raw 4^N amplitude vector.
"""

import re

import numpy as np
import pytest

from lmem.dynamics import evolve, expectation
from lmem.edge import (
    ProductStateSpec,
    approx_purity_longtime,
    build_product_state,
    edge_factorization_test,
    kappa_correlation,
    purity,
)
from lmem.fock import as_amplitudes, site_count, vectorize
from lmem.model import ModelParams
from lmem.pauli import PauliString

N = 3


def dense_state():
    # a bulk-edge product state with one term of every category
    spec = ProductStateSpec(
        zeta=0.5,
        a_terms=[(0.2, PauliString.from_codes("IZI"))],
        b_terms=[(0.1, PauliString.from_codes("ZII"))],
        c_terms=[(0.1, PauliString.from_codes("ZIZ"))],
        d_terms=[(0.05, PauliString.from_codes("IIZ"))],
    )
    return build_product_state(spec, N)


def as_form(rho, form):
    if form == "dense":
        return rho
    vec = vectorize(rho)
    return vec if form == "liouville" else vec.amplitudes


def _evolve(state):
    params = ModelParams(
        n_sites=N, couplings=np.full(N - 1, 1.0), dephasing_rates=np.full(N, 0.5)
    )
    return evolve(state, params, np.linspace(0.0, 1.0, 5)).amplitudes


def _factorization(state):
    res = edge_factorization_test(state)
    return (res.factorized, res.residual, *res.amplitudes)


ENTRY_POINTS = {
    "evolve": _evolve,
    "expectation": lambda s: expectation(PauliString.from_codes("XXI"), s),
    "expectation_dense_observable": lambda s: expectation(
        PauliString.from_codes("IZZ").to_matrix(), s
    ),
    "kappa_correlation": kappa_correlation,
    "approx_purity_longtime": approx_purity_longtime,
    "edge_factorization_test": _factorization,
    "purity": purity,
}


@pytest.mark.parametrize("form", ["dense", "liouville", "amplitudes"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_agrees_across_state_forms(entry, form):
    rho = dense_state()
    fn = ENTRY_POINTS[entry]
    expected = np.asarray(fn(rho), dtype=complex)
    got = np.asarray(fn(as_form(rho, form)), dtype=complex)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


class TestAsAmplitudes:
    def test_symbolic_operators(self):
        word = PauliString.from_codes("XYZ")
        v, n = as_amplitudes(word)
        assert n == 3
        np.testing.assert_allclose(v, vectorize(word.to_matrix()).amplitudes, atol=1e-15)

    @pytest.mark.parametrize(
        "shape", [(48,), (8, 4), (6, 6), (2, 2, 4), (1,), (1, 1), (2,), ()]
    )
    def test_wrong_shape_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            as_amplitudes(np.zeros(shape))

    def test_wrong_length_rejected_by_entry_points(self):
        with pytest.raises(ValueError, match=r"\(48,\)"):
            purity(np.zeros(48))
        with pytest.raises(ValueError, match=r"\(48,\)"):
            kappa_correlation(np.zeros(48))

    def test_contradicting_n_sites(self):
        rho = dense_state()
        for form in ("dense", "liouville", "amplitudes"):
            with pytest.raises(ValueError, match="n_sites=4 contradicts input shape"):
                as_amplitudes(as_form(rho, form), n_sites=4)
        with pytest.raises(ValueError, match=r"shape \(64,\)"):
            edge_factorization_test(vectorize(rho).amplitudes, n_sites=2)

    def test_site_count_is_exact(self):
        for n in range(1, 12):
            assert site_count((4 ** n,)) == n
            assert site_count((2 ** n, 2 ** n)) == n
            with pytest.raises(ValueError):
                site_count((4 ** n + 1,))
