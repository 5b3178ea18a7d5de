"""Edge-mode analysis: operator classification, bulk-edge product states,
invariant observable ratios, and purity/edge-correlation relations.

Every Pauli word O that commutes with the total parity M carries two signs,

    delta: O (prod_j sz_j sx_1 sx_N) = delta (prod_j sz_j sx_1 sx_N) O
    gamma: O sx_N = gamma sx_N O

which sort the words into categories A=(+,+), B=(-,+), C=(+,-), D=(-,-).
The category decides how a word attaches to the edge fermion: the vector of
O P_+ sits in the edge-occupied component when delta = +1 and the edge-empty
one when delta = -1, and the bulk parts of O and O M coincide up to the sign
-delta*gamma. Assembling

    rho = 2^{-N} [ (I + sum a_i A_i + sum c_k C_k M)(I + zeta M)
                   - (sum b_j B_j M + sum d_l D_l)(I - zeta M) ]

therefore gives a state whose Liouville vector factorizes as
bulk x [(1+zeta)|1> - (1-zeta)|0>] over the edge fermion. Along any
edge-preserving evolution the edge factor is frozen, so for observable
pairs (X1, X2) = (O, O M) the ratio <X1>/<X2> is a constant of motion,
delta * zeta^{-delta*gamma}; for gamma = +1 categories this reduces to
delta * zeta^{-delta}.

The edge correlation <<rho| i kappa_1 kappa_4N |rho>> is not itself an
observable, but equals tr(rho M sx1 sxN rho sx1 sxN) and, on product
states, (a^2 - b^2)/(a^2 + b^2) times the purity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import EvolutionResult, expectation_series
from .fock import (
    as_amplitudes,
    devectorize,
    gather_columns,
    pauli_coefficients,
    purity_rows,
    row_chunks,
    site_count,
    vector_purity,
)
from .kappa import edge_annihilator, edge_correlator
from .pauli import OperatorSum, PauliString, parity_word, spin_to_majorana


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_CATEGORY = {(1, 1): "A", (-1, 1): "B", (1, -1): "C", (-1, -1): "D"}


class ParityMismatchError(ValueError):
    """The word anticommutes with the total parity; no category applies."""


@dataclass(frozen=True)
class EdgeClassification:
    delta: int
    gamma: int

    @property
    def category(self) -> str:
        return _CATEGORY[(self.delta, self.gamma)]

    def ratio_constant(self, zeta: float) -> float:
        """The frozen value of <O>/<O M> on a product state with weight zeta."""
        return self.delta * zeta ** (-self.delta * self.gamma)


def classify_operator(word: PauliString, n_sites: int | None = None) -> EdgeClassification:
    """Commutation signs of a Pauli word against the edge-mode generators.

    Words anticommuting with the total parity cannot enter a Hermitian
    bulk-edge product state and are rejected.
    """
    if n_sites is None:
        n_sites = word.n_sites
    if word.n_sites != n_sites:
        raise ValueError("word length does not match n_sites")
    m = parity_word(n_sites)
    if word.commutation_sign(m) != 1:
        raise ParityMismatchError(
            f"{word.to_label()} anticommutes with the total parity"
        )
    full = m.mul(PauliString.single(n_sites, 1, "X")).mul(
        PauliString.single(n_sites, n_sites, "X")
    )
    delta = word.commutation_sign(full)
    gamma = word.commutation_sign(PauliString.single(n_sites, n_sites, "X"))
    return EdgeClassification(delta, gamma)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


@dataclass
class ProductStateSpec:
    """Coefficients and operators for a bulk-edge product density matrix.

    Each list holds (real coefficient, PauliString) pairs; every operator
    must commute with the total parity and classify into the category of
    its list.
    """

    zeta: float
    a_terms: list = field(default_factory=list)
    b_terms: list = field(default_factory=list)
    c_terms: list = field(default_factory=list)
    d_terms: list = field(default_factory=list)

    def validate(self, n_sites: int) -> None:
        if not -1.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must lie in [-1, 1], got {self.zeta}")
        for cat, terms in zip("ABCD", (self.a_terms, self.b_terms, self.c_terms, self.d_terms)):
            for coeff, word in terms:
                if abs(complex(coeff).imag) > 1e-14:
                    raise ValueError("product-state coefficients must be real")
                got = classify_operator(word, n_sites).category
                if got != cat:
                    raise ValueError(
                        f"{word.to_label()} classifies as {got}, listed under {cat}"
                    )


def _brackets(spec: ProductStateSpec, n: int):
    """The bracketed operators I + sum a A + sum c C M and sum b B M + sum d D."""
    m_op = OperatorSum.from_pauli(parity_word(n))
    front = OperatorSum.identity(n)
    for coeff, word in spec.a_terms:
        front.add_term(float(np.real(coeff)), word)
    for coeff, word in spec.c_terms:
        front = front + (OperatorSum.from_pauli(word, float(np.real(coeff))) @ m_op)

    back = OperatorSum.zero(n)
    for coeff, word in spec.b_terms:
        back = back + (OperatorSum.from_pauli(word, float(np.real(coeff))) @ m_op)
    for coeff, word in spec.d_terms:
        back.add_term(float(np.real(coeff)), word)
    return front, back


def product_state_operator(spec: ProductStateSpec, n_sites: int) -> OperatorSum:
    """Symbolic density operator of the bulk-edge product construction."""
    spec.validate(n_sites)
    n = n_sites
    m_op = OperatorSum.from_pauli(parity_word(n))
    ident = OperatorSum.identity(n)
    plus = ident + m_op.scaled(spec.zeta)  # I + zeta M
    minus = ident - m_op.scaled(spec.zeta)  # I - zeta M
    front, back = _brackets(spec, n)
    return (front @ plus - back @ minus).scaled(2.0 ** -n)


class PositivityError(ValueError):
    """The constructed matrix has a negative eigenvalue."""


def build_product_state(spec: ProductStateSpec, n_sites: int, tol: float = 1e-10) -> np.ndarray:
    """Dense density matrix of the product construction, positivity checked.

    The sufficient condition (both bracketed operators positive) can be
    probed cheaply with `sufficient_positivity_margin`; the eigenvalue check
    here is the necessary-and-sufficient one.
    """
    rho = product_state_operator(spec, n_sites).to_matrix()
    lam_min = float(np.linalg.eigvalsh(rho).min())
    if lam_min < -tol:
        raise PositivityError(
            f"product-state construction is not positive semidefinite "
            f"(minimum eigenvalue {lam_min:.6e})"
        )
    return rho


def sufficient_positivity_margin(spec: ProductStateSpec, n_sites: int) -> float:
    """min over the two bracketed operators of their smallest eigenvalue.

    Nonnegative margin guarantees positivity of the assembled state; a
    negative margin is inconclusive (the eigenvalue check decides).
    """
    front, back = _brackets(spec, n_sites)
    lam_front = float(np.linalg.eigvalsh(front.to_matrix()).min())
    if len(back) == 0:
        return lam_front
    lam_back = float(np.linalg.eigvalsh(-back.to_matrix()).min())
    return min(lam_front, lam_back)


def stationary_density(zeta: float, n_sites: int) -> np.ndarray:
    """(I + zeta M) / 2^N, the stationary family."""
    if not -1.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [-1, 1]")
    return build_product_state(ProductStateSpec(zeta=zeta), n_sites)


# ---------------------------------------------------------------------------
# edge factorization
# ---------------------------------------------------------------------------


@dataclass
class FactorizationResult:
    factorized: bool
    amplitudes: tuple[complex, complex] | None  # (a, b) up to a common scale
    residual: float  # non-parallel fraction of the smaller component

    @property
    def correlation_constant(self) -> float | None:
        if self.amplitudes is None:
            return None
        a, b = self.amplitudes
        denom = abs(a) ** 2 + abs(b) ** 2
        return float((abs(a) ** 2 - abs(b) ** 2) / denom) if denom else None


def edge_factorization_test(
    state, n_sites: int | None = None, tol: float = 1e-8
) -> FactorizationResult:
    """Split |rho> over the edge fermion and test bulk parallelism.

    Writing |rho> = |psi_1>|1> + |psi_0>|0>, the state is a bulk-edge
    product iff psi_1 and psi_0 are parallel; the pair (a, b) of the edge
    factor a|1> + b|0> is returned up to one common complex scale, with the
    convention that a is real and nonnegative.
    """
    v, n = as_amplitudes(state, n_sites)
    d = edge_annihilator(n)
    down = d @ v  # a |psi_bulk> mapped into the edge-empty component
    kept = d @ (d.conj().T @ v)  # b times the same bulk vector
    na, nb = np.linalg.norm(down), np.linalg.norm(kept)
    scale = max(na, nb)
    if scale < 1e-300:
        return FactorizationResult(True, (0.0, 0.0), 0.0)
    if na >= nb:
        ref = down / na
        a_amp = complex(na)
        b_amp = complex(np.vdot(ref, kept))
        resid = float(np.linalg.norm(kept - b_amp * ref) / scale)
    else:
        ref = kept / nb
        b_amp = complex(nb)
        a_amp = complex(np.vdot(ref, down))
        resid = float(np.linalg.norm(down - a_amp * ref) / scale)
    # rotate the common phase so a is real nonnegative (b follows suit)
    if abs(a_amp) > 1e-300:
        phase = a_amp / abs(a_amp)
        a_amp, b_amp = a_amp / phase, b_amp / phase
    return FactorizationResult(resid < tol, (a_amp, b_amp), resid)


# ---------------------------------------------------------------------------
# correlation and purity
# ---------------------------------------------------------------------------


def _kappa_correlation_rows(amplitudes: np.ndarray, n_sites: int, indices=None) -> np.ndarray:
    """<<rho| i kappa_1 kappa_4N |rho>> of each row of amplitudes on the
    sorted basis indices `indices` (all 4^N when None), one sparse product
    per chunk of rows."""
    corr = edge_correlator(n_sites)
    if indices is not None and indices.size < corr.shape[0]:
        corr = corr[indices][:, indices]
    out = np.empty(len(amplitudes))
    for rows in row_chunks(len(amplitudes), amplitudes.shape[1]):
        chunk = amplitudes[rows]
        out[rows] = 2 ** n_sites * np.vecdot(chunk, (corr @ chunk.T).T).real
    return out


def kappa_correlation(state, n_sites: int | None = None, path: str = "kappa") -> float:
    """<<rho| i kappa_1 kappa_4N |rho>>.

    path="kappa" evaluates the Liouville quadratic form; path="trace"
    evaluates the equivalent spin-picture expression
    tr(rho M sx1 sxN rho sx1 sxN). The two agree for Hermitian rho.
    """
    v, n = as_amplitudes(state, n_sites)
    if path == "kappa":
        return float(_kappa_correlation_rows(v[None], n)[0])
    if path == "trace":
        dense = isinstance(state, np.ndarray) and state.ndim == 2
        rho = state if dense else devectorize(v, n)
        m = parity_word(n).to_matrix()
        sx1 = PauliString.single(n, 1, "X").to_matrix()
        sxn = PauliString.single(n, n, "X").to_matrix()
        return float(np.real(np.trace(rho @ m @ sx1 @ sxn @ rho @ sx1 @ sxn)))
    raise ValueError(f"unknown path {path!r}")


def purity(state, n_sites: int | None = None) -> float:
    """tr(rho^2) = <<rho|rho>>."""
    if isinstance(state, np.ndarray) and state.ndim == 2:
        return float(np.real(np.trace(state @ state)))
    return vector_purity(state, n_sites)


def purity_from_observables(rho: np.ndarray, observables=None) -> float:
    """sum_mu |<O_mu>|^2 / 2^N over a Pauli-word set.

    With the full 4^N word set this equals tr(rho^2) exactly (completeness
    of the word basis); a subset gives a lower truncation.
    """
    n = site_count(rho.shape)
    if observables is None:
        # <P_W> = 2^N t_W for the Pauli coefficients t_W of rho
        return float(2 ** n * np.sum(np.abs(pauli_coefficients(rho, n)) ** 2))
    total = 0.0
    for word in observables:
        val = np.trace(word.to_matrix() @ rho)
        total += abs(val) ** 2
    return float(total / 2 ** n)


def longtime_observable_set(n_sites: int) -> list[PauliString]:
    """The slow-mode word family {I, M, sy1 sx2, sz1} and its M-partners.

    These are the words surviving the long-time dynamics of states supported
    on the uniform sector and the single broken-bond sector at site 1; the
    truncated completeness sum over them approximates the purity at large
    dissipation times.
    """
    n = n_sites
    m = parity_word(n)
    base = [
        PauliString.identity(n),
        PauliString.single(n, 1, "Z"),
        PauliString.single(n, 1, "Y").mul(PauliString.single(n, 2, "X")),
    ]
    out = list(base) + [m]
    for w in base[1:]:
        out.append(w.mul(m))
    # phase-free representatives; signs are irrelevant under |<O>|^2
    return [w.hermitian_key()[1] for w in out]


def _word_expectations(amplitudes: np.ndarray, words, n_sites: int, indices=None) -> np.ndarray:
    """Re <<P|rho>> for each Pauli word P, along a new last axis, of
    amplitudes on the basis indices `indices` (all 4^N when None).

    P = phase w^{mask} has one nonzero amplitude, so <<P|rho>> is
    2^N conj(phase) c_mask: a gather of one column per word.
    """
    monos = [spin_to_majorana(w) for w in words]
    phases = np.conj([m.coeff for m in monos])
    columns = gather_columns(amplitudes, indices, [m.mask for m in monos])
    return (2 ** n_sites * columns * phases).real


def _approx_purity_rows(amplitudes: np.ndarray, n_sites: int, form: str, indices=None) -> np.ndarray:
    """`approx_purity_longtime` of each amplitude vector along the last axis."""
    n = n_sites
    if form == "observables":
        values = _word_expectations(amplitudes, longtime_observable_set(n), n, indices)
        return (values ** 2).sum(axis=-1) / 2 ** n
    if form == "zeta":
        words = [
            parity_word(n),
            PauliString.single(n, 1, "Z"),
            PauliString.single(n, 1, "Y").mul(PauliString.single(n, 2, "X")),
        ]
        zeta, sz1, syx = np.moveaxis(_word_expectations(amplitudes, words, n, indices), -1, 0)
        return (1 + zeta ** 2) * (1 + sz1 ** 2 + syx ** 2) / 2 ** n
    raise ValueError(f"unknown form {form!r}")


def approx_purity_longtime(state, n_sites: int | None = None, form: str = "observables") -> float:
    """Truncated purity from the slow-mode observable family.

    form="observables" sums |<O>|^2 / 2^N over `longtime_observable_set`.
    form="zeta" uses the closed expression
    (1 + zeta^2)(1 + <sz1>^2 + <sy1 sx2>^2) / 2^N with zeta = <M>, valid
    when every pair satisfies <O M> = zeta <O>.
    """
    v, n = as_amplitudes(state, n_sites)
    return float(_approx_purity_rows(v, n, form))


def purity_series(result: EvolutionResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact purity, slow-mode truncation (`approx_purity_longtime`) and edge
    correlation (`kappa_correlation`) at every sample of a trajectory."""
    values, n, indices = result.values, result.n_sites, result.indices
    return (
        purity_rows(values, n),
        _approx_purity_rows(values, n, "observables", indices),
        _kappa_correlation_rows(values, n, indices),
    )


# ---------------------------------------------------------------------------
# ratio traces
# ---------------------------------------------------------------------------


@dataclass
class RatioTrace:
    times: np.ndarray
    values: np.ndarray  # ratio <X1>/<X2>, nan where guarded
    x1: np.ndarray
    x2: np.ndarray
    guarded: np.ndarray  # True where |<X2>| fell below the guard

    @property
    def max_drift(self) -> float:
        ok = ~self.guarded
        if not ok.any():
            return float("nan")
        vals = self.values[ok]
        return float(np.nanmax(np.abs(vals - vals[0])))


def ratio_trace(X1, X2, result: EvolutionResult, guard: float = 1e-12) -> RatioTrace:
    """Time series of <X1>/<X2> along a trajectory, with a divide guard."""
    x1 = expectation_series(X1, result).real
    x2 = expectation_series(X2, result).real
    guarded = np.abs(x2) < guard
    values = np.full(x1.shape, np.nan)
    np.divide(x1, x2, out=values, where=~guarded)
    return RatioTrace(result.times.copy(), values, x1, x2, guarded)
