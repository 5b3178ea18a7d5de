from functools import lru_cache

import numpy as np
import pytest

from lmem.kappa import build_P_operator
from lmem.liouvillian import build_liouvillian_direct, build_liouvillian_thirdq
from lmem.model import ModelParams, random_perturbed_params
from lmem.sectors import (
    SectorCommutationError,
    SectorLabel,
    all_sector_labels,
    broken_chain_segments,
    compose_segment_spectra,
    enumerate_sector_basis,
    kitaev_form_reconstruction,
    match_spectra,
    restrict_liouvillian,
    sector_eigenvalues,
    sorted_spectrum,
    spectral_order,
)


def assert_same_spectrum(a, b, tol):
    """a and b are equal as multisets: match_spectra pairs every entry."""
    a, b = np.asarray(a), np.asarray(b)
    pairs = match_spectra(a, b, tol)
    assert a.size == b.size == len(pairs)
    assert len({j for _, j in pairs}) == b.size
    assert all(abs(a[i] - b[j]) <= tol for i, j in pairs)


@lru_cache(maxsize=None)
def random_chain(n):
    """Seeded inhomogeneous couplings and rates, and their generator."""
    rng = np.random.default_rng(100 + n)
    p = ModelParams(n, rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.2, 1.5, n))
    return p, build_liouvillian_thirdq(p)


def params(n, J=1.0, gamma=0.5):
    return ModelParams(
        n_sites=n, couplings=np.full(n - 1, float(J)), dephasing_rates=np.full(n, float(gamma))
    )


class TestEnumeration:
    def test_two_site_sector_dimensions(self):
        for label in (SectorLabel((1,)), SectorLabel((-1,))):
            assert enumerate_sector_basis(label, 2).size == 8

    def test_vacuum_in_all_plus(self):
        basis = enumerate_sector_basis(SectorLabel.all_plus(3), 3)
        assert 0 in basis

    def test_partition_exhaustive(self):
        n = 3
        seen = np.concatenate(
            [enumerate_sector_basis(lab, n) for lab in all_sector_labels(n)]
        )
        assert seen.size == 4 ** n
        assert np.array_equal(np.sort(seen), np.arange(4 ** n))
        for lab in all_sector_labels(n):
            assert enumerate_sector_basis(lab, n).size == 2 ** (n + 1)

    def test_eigenvalue_property(self):
        n = 3
        lab = SectorLabel((-1, 1))
        basis = enumerate_sector_basis(lab, n)
        for j in range(1, n):
            P = build_P_operator(j, n)
            vals = P.diagonal()[basis]
            assert np.all(vals == lab.p[j - 1])

    def test_label_round_trip(self):
        lab = SectorLabel.from_string("+--+")
        assert lab.to_string() == "+--+"
        assert lab.n_sites == 5
        with pytest.raises(ValueError):
            SectorLabel.from_string("+0-")

    def test_sector_of_index(self):
        n = 3
        for idx in (0, 5, 37):
            lab = SectorLabel(tuple(sector_eigenvalues(np.array([idx]), n)[0]))
            assert idx in enumerate_sector_basis(lab, n)


class TestRestriction:
    def test_all_plus_spectrum_is_dissipative_sums(self):
        n = 3
        gamma = 0.5
        p = params(n, J=1.7, gamma=gamma)
        L = build_liouvillian_thirdq(p)
        block = restrict_liouvillian(L, SectorLabel.all_plus(n))
        ev = np.linalg.eigvals(block.matrix)
        # couplings drop out: eigenvalues are sums of {0, -2i gamma} per site
        expected = []
        for k in range(n + 1):
            from math import comb

            expected += [-2j * gamma * k] * (comb(n, k) * 2 ** (n + 1 - n))
        # dimension bookkeeping: each of the 2^n occupation patterns of the
        # dissipative pairs appears 4x (two edge modes x 2 from pair content)
        assert block.dimension == 2 ** (n + 1)
        uniq = np.unique(np.round(ev.imag / (2 * gamma)))
        assert np.all(np.isin(uniq, -np.arange(0, n + 1)))
        assert np.abs(ev.real).max() < 1e-12

    def test_gamma_zero_block_real(self):
        n = 3
        p = params(n, J=1.0, gamma=0.0)
        L = build_liouvillian_thirdq(p)
        for lab in all_sector_labels(n):
            ev = np.linalg.eigvals(restrict_liouvillian(L, lab).matrix)
            assert np.abs(ev.imag).max() < 1e-12

    def test_block_eigenvalues_match_full_space(self):
        n = 2
        p = params(n, J=1.0, gamma=0.3)
        L = build_liouvillian_thirdq(p)
        full = L.toarray()
        ev_full, vec_full = np.linalg.eig(full)
        lab = SectorLabel((-1,))
        block = restrict_liouvillian(L, lab)
        ev_block = np.linalg.eigvals(block.matrix)
        # pick full-space eigenpairs whose eigenvectors live in the sector
        basis = set(block.basis_indices.tolist())
        member = []
        for k in range(ev_full.size):
            support = np.flatnonzero(np.abs(vec_full[:, k]) > 1e-9)
            if set(support.tolist()) <= basis:
                member.append(ev_full[k])
        assert len(member) == block.dimension
        assert_same_spectrum(member, ev_block, tol=1e-9)

    def test_union_of_blocks_is_full_spectrum(self):
        n = 2
        p = params(n, J=0.9, gamma=0.4)
        L = build_liouvillian_thirdq(p)
        ev_full = np.linalg.eigvals(L.toarray())
        ev_blocks = np.concatenate(
            [
                np.linalg.eigvals(restrict_liouvillian(L, lab).matrix)
                for lab in all_sector_labels(n)
            ]
        )
        assert_same_spectrum(ev_full, ev_blocks, tol=1e-9)

    def test_perturbed_model_raises_with_violated_pair(self):
        p = random_perturbed_params(3, u=0.0, rng_seed=4)
        assert p.field_b.any()
        L = build_liouvillian_direct(p)
        with pytest.raises(SectorCommutationError, match=r"P_\d"):
            restrict_liouvillian(L, SectorLabel.all_plus(3))


class TestKitaevReconstruction:
    @pytest.mark.parametrize("label_str", ["++", "+-", "-+", "--"])
    def test_every_sector_at_n3(self, label_str):
        n = 3
        p = params(n, J=2.0, gamma=1.0)
        L = build_liouvillian_thirdq(p)
        lab = SectorLabel.from_string(label_str)
        block = restrict_liouvillian(L, lab)
        rebuilt = kitaev_form_reconstruction(lab, p)
        assert np.abs(rebuilt - block.matrix).max() < 1e-12

    def test_site_dependent_couplings(self):
        n = 4
        p = ModelParams(
            n_sites=n,
            couplings=[0.3, 1.1, 0.7],
            dephasing_rates=[0.2, 0.9, 0.5, 1.3],
        )
        L = build_liouvillian_thirdq(p)
        lab = SectorLabel((-1, 1, -1))
        block = restrict_liouvillian(L, lab)
        rebuilt = kitaev_form_reconstruction(lab, p)
        assert np.abs(rebuilt - block.matrix).max() < 1e-12

    def test_sign_flip_breaks_reconstruction(self):
        n = 3
        p = params(n, J=2.0, gamma=1.0)
        L = build_liouvillian_thirdq(p)
        lab = SectorLabel((-1, -1))
        block = restrict_liouvillian(L, lab)
        wrong = kitaev_form_reconstruction(lab, p, flip_odd_sign=True)
        assert np.abs(wrong - block.matrix).max() > 1e-3


class TestBrokenChains:
    def test_all_plus_singletons(self):
        segs = broken_chain_segments(SectorLabel.all_plus(4))
        assert segs == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_all_minus_single_segment(self):
        segs = broken_chain_segments(SectorLabel((-1, -1, -1)))
        assert segs == [(1, 4)]

    def test_interior_segment(self):
        segs = broken_chain_segments(SectorLabel.from_string("+--+"))
        assert segs == [(1, 1), (2, 4), (5, 5)]

    @pytest.mark.parametrize(
        "label_str", [lab.to_string() for n in range(3, 7) for lab in all_sector_labels(n)]
    )
    def test_segment_spectra_compose_to_block(self, label_str):
        lab = SectorLabel.from_string(label_str)
        p, L = random_chain(lab.n_sites)
        predicted, cond = compose_segment_spectra(lab, p)
        actual, R = np.linalg.eig(restrict_liouvillian(L, lab).matrix)
        assert_same_spectrum(predicted, actual, tol=1e-8)
        assert cond == pytest.approx(np.linalg.cond(R), rel=1e-10)

    def test_dense_cap_holds_after_a_cached_call(self, monkeypatch):
        from lmem.pauli import SizeLimitError
        from lmem.sectors import _chain_majoranas

        lab = SectorLabel.from_string("--")
        p = params(3)
        compose_segment_spectra(lab, p)  # caches the length-3 matrices
        _chain_majoranas(3)
        monkeypatch.setenv("LMEM_DENSE_LIMIT", "2")
        with pytest.raises(SizeLimitError):
            _chain_majoranas(3)
        with pytest.raises(SizeLimitError):
            compose_segment_spectra(lab, p)

    def test_segment_cache_keeps_two_lengths(self):
        from lmem.sectors import _cached_chain_majoranas

        _cached_chain_majoranas.cache_clear()
        p = params(8)
        for _ in range(3):  # the spectrum-n8 benchmark sector: lengths 1 and 2
            compose_segment_spectra(SectorLabel.from_string("+-+++++"), p)
        info = _cached_chain_majoranas.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (2, 2, 2)

    def test_composed_condition_number_at_exceptional_point(self):
        # the one coupled pair of +-+ merges its branches at gamma = J
        lab = SectorLabel.from_string("+-+")
        p = params(4, J=2.0, gamma=2.0)
        predicted, cond = compose_segment_spectra(lab, p)
        actual, R = np.linalg.eig(restrict_liouvillian(build_liouvillian_thirdq(p), lab).matrix)
        assert cond > 1e6
        assert cond == pytest.approx(np.linalg.cond(R), rel=1e-6)
        assert_same_spectrum(predicted, actual, tol=1e-6)


def test_sorted_spectrum_orders_by_imag_then_real():
    vals = np.array([1 + 0j, -1 - 1j, 2 - 1j, 0 + 0j])
    out = sorted_spectrum(vals)
    assert out[0] == -1 - 1j and out[1] == 2 - 1j
    assert out[2] == 0 and out[3] == 1
    assert spectral_order(vals).tolist() == [1, 2, 3, 0]


class TestMatchSpectra:
    def spectrum(self, size=24):
        rng = np.random.default_rng(3)
        return rng.normal(size=size) - 1j * rng.random(size=size)

    def test_shuffled_near_degenerate_pair_matches_fully(self):
        a = self.spectrum()
        # imaginary parts 1e-12 apart, real parts far apart: a perturbation
        # of 2e-12 swaps the two in canonical order
        a[0], a[1] = -5 - 1j, 5 - (1 + 1e-12) * 1j
        # a near-degenerate pair within tol of each other
        a[2], a[3] = 0.3 - 0.7j, 0.3 + 3e-10 - 0.7j
        perm = np.random.default_rng(4).permutation(a.size)
        b = a[perm].copy()
        b[np.flatnonzero(perm == 0)[0]] -= 2e-12j
        b[np.flatnonzero(perm == 2)[0]] += 4e-10
        assert np.abs(sorted_spectrum(a) - sorted_spectrum(b)).max() > 1  # no fast path
        assert_same_spectrum(a, b, tol=1e-9)

    def test_value_beyond_tol_is_left_out(self):
        a = self.spectrum()
        perm = np.random.default_rng(5).permutation(a.size)
        b = a[perm].copy()
        moved = 7
        b[moved] += 3e-9  # three times tol
        pairs = match_spectra(a, b, tol=1e-9)
        assert len(pairs) == a.size - 1
        assert perm[moved] not in {i for i, _ in pairs}
        assert moved not in {j for _, j in pairs}
        assert all(abs(a[i] - b[j]) <= 1e-9 for i, j in pairs)

    def test_maximum_matching_where_greedy_fails(self):
        # canonical order sends 0.05 first; its nearest partner 0.5 is the
        # only one 0.6 can take, so a greedy pass leaves 0.6 out
        a = np.array([0.05, 0.6, -50 - 1j, 50 - (1 + 1e-12) * 1j])
        b = np.array([0.5, -0.5, -50 - (1 + 2e-12) * 1j, 50 - (1 + 1e-12) * 1j])
        assert_same_spectrum(a, b, tol=1.0)

    def test_length_mismatch_matches_the_common_part(self):
        a = self.spectrum()
        pairs = match_spectra(a, a[:-3], tol=1e-9)
        assert sorted(pairs) == [(i, i) for i in range(a.size - 3)]
