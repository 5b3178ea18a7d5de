from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from lmem.dynamics import EP_COND_THRESHOLD, EP_GAP_TOL
from lmem.kappa import build_P_operator
from lmem.liouvillian import build_liouvillian_direct, build_liouvillian_thirdq
from lmem.model import ModelParams, random_perturbed_params
from lmem.pauli import MajoranaMonomial, majorana_to_spin
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


# the 2^L segment oracle for the rapidity engine of `compose_segment_spectra`


@lru_cache(maxsize=2)
def chain_majoranas(length):
    """The 2L Majorana matrices of an L-site chain, mode 1 first, in the
    standard chain encoding of `majorana_to_spin`."""
    return tuple(
        majorana_to_spin(MajoranaMonomial(2 * length, 1 << m)).to_matrix() for m in range(2 * length)
    )


def segment_generator(sites, p):
    """Generator of one broken-chain segment in its own 2^L Fock space:
    sum_m -2i J_m k_{2m} k_{2m+1} + sum_m i gamma_m (i k_{2m-1} k_{2m} - 1)
    over its 2L local Majorana modes."""
    s, e = sites
    L = e - s + 1
    k = chain_majoranas(L)  # k[0] is mode 1
    dim = 2 ** L
    mat = np.zeros((dim, dim), dtype=complex)
    for m in range(1, L):  # internal bonds: global bond index s + m - 1
        mat += -2j * p.couplings[s + m - 2] * (k[2 * m - 1] @ k[2 * m])
    for m in range(1, L + 1):
        mat += 1j * p.dephasing_rates[s + m - 2] * (1j * k[2 * m - 2] @ k[2 * m - 1] - np.eye(dim))
    return mat


def oracle_spectrum(label, p):
    """Block eigenvalues as Kronecker sums of the segment generators'
    eigenvalues, each twice for the edge pair."""
    sums = np.zeros(1, dtype=complex)
    for seg in broken_chain_segments(label):
        sums = (sums[:, None] + np.linalg.eigvals(segment_generator(seg, p))[None, :]).reshape(-1)
    return np.repeat(sums, 2)


def oracle_rapidity_columns(label, p):
    """(min_gap, condition number) from A = h - h^T read off each 2^L
    segment generator, h_ab = tr(k_b k_a G) / 2^L for a < b: the smallest
    k-d tree gap within one segment's eigenvalues and the product of the
    eigenvector condition numbers."""
    from scipy.spatial import cKDTree

    gap, cond = np.inf, 1.0
    for s, e in broken_chain_segments(label):
        L = e - s + 1
        k, G = chain_majoranas(L), segment_generator((s, e), p)
        h = np.array([[np.trace(k[b] @ k[a] @ G) / 2 ** L if a < b else 0 for b in range(2 * L)]
                      for a in range(2 * L)])
        w, R = np.linalg.eig(h - h.T)
        points = np.column_stack([w.real, w.imag])
        gap = min(gap, float(cKDTree(points).query(points, k=2)[0][:, 1].min()))
        cond *= np.linalg.cond(R)
    return gap, cond


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
        (predicted,), (gap,), (cond,) = compose_segment_spectra(lab, p)
        actual = np.linalg.eigvals(restrict_liouvillian(L, lab).matrix)
        assert_same_spectrum(predicted, actual, tol=1e-8)
        want_gap, want_cond = oracle_rapidity_columns(lab, p)
        assert gap == pytest.approx(want_gap, rel=1e-10)
        assert cond == pytest.approx(want_cond, rel=1e-10)

    @pytest.mark.parametrize("length", range(1, 7))
    def test_rapidities_match_the_segment_oracle(self, length):
        # a segment over sites 1..L, cut from a last singleton, at random
        # couplings and rates: the model's own rates and a two-gamma scan
        lab = SectorLabel((-1,) * (length - 1) + (1,))
        for seed in range(3):
            rng = np.random.default_rng(10 * length + seed)
            p = ModelParams(length + 1, rng.uniform(0.2, 2.5, length), rng.uniform(0.1, 2.0, length + 1))
            gammas = rng.uniform(0.1, 3.0, 2)
            scan = compose_segment_spectra(lab, p, gammas)
            own = compose_segment_spectra(lab, p)
            for lam, gap, cond, q in zip(
                (*scan.eigenvalues, *own.eigenvalues),
                (*scan.min_gap, *own.min_gap),
                (*scan.condition_number, *own.condition_number),
                [replace(p, dephasing_rates=np.full(length + 1, g)) for g in gammas] + [p],
            ):
                want = oracle_spectrum(lab, q)
                assert_same_spectrum(lam, want, tol=1e-12 * np.abs(want).max())
                want_gap, want_cond = oracle_rapidity_columns(lab, q)
                assert gap == pytest.approx(want_gap, rel=1e-10)
                assert cond == pytest.approx(want_cond, rel=1e-10)

    def test_rows_follow_segments_rapidities_and_signs(self):
        # two segments: (1, 2) with rapidities b1, b2 and the singleton 3
        # with b3; the sign of b1 varies slowest, and each value comes twice
        lab = SectorLabel.from_string("-+")
        p = ModelParams(3, [1.3, 0.0], [0.4, 0.9, 0.6])
        lam = compose_segment_spectra(lab, p).eigenvalues[0]
        assert np.array_equal(lam[0::2], lam[1::2])
        signs = np.array([[1 - 2 * ((r >> k) & 1) for k in (2, 1, 0)] for r in range(8)])
        beta, *_ = np.linalg.lstsq(signs, lam[0::2] + 1.9j, rcond=None)
        assert np.abs(signs @ beta - 1.9j - lam[0::2]).max() < 1e-12
        assert_same_spectrum(lam, oracle_spectrum(lab, p), tol=1e-12)

    def test_composed_condition_number_at_exceptional_point(self):
        # the one coupled pair of +-+ merges its two rapidities at gamma = J;
        # on either side of it the segment is well conditioned
        lab = SectorLabel.from_string("+-+")
        p = params(4, J=2.0, gamma=2.0)
        (predicted,), (gap,), (cond,) = compose_segment_spectra(lab, p)
        actual = np.linalg.eigvals(restrict_liouvillian(build_liouvillian_thirdq(p), lab).matrix)
        assert cond > EP_COND_THRESHOLD and gap < EP_GAP_TOL
        assert_same_spectrum(predicted, actual, tol=1e-6)
        near = compose_segment_spectra(lab, p, [1.9, 2.1])
        assert np.all(near.condition_number < 10) and np.all(near.min_gap > 1)


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
