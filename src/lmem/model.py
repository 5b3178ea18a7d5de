"""Physical model definition: XX chain with local dephasing plus optional
interior longitudinal fields, a transverse field, and bond dissipators.

The unperturbed chain has H = sum_j J_j sx_j sx_{j+1} with site dephasing
L_j = sqrt(gamma_j) sz_j. Perturbations add b_j sz_j on interior sites,
u * sum_j sx_j, and bond dissipators L'_j = gamma'_j sx_j sx_{j+1} (the bond
prefactor is an amplitude as printed, so its effective rate is gamma'^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import OperatorSum, PauliString, parity_word


def _as_float_array(value, length: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of {length} numbers, got {name}={value!r}") from None
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    return arr


@dataclass
class ModelParams:
    """Couplings and rates of the dissipative chain.

    couplings has length N-1, dephasing_rates length N, field_b length N
    (only interior entries 2..N-1 enter the Hamiltonian), bond_dissipation
    length N-1. Every entry must be finite, and all rates nonnegative.
    """

    n_sites: int
    couplings: np.ndarray = None
    dephasing_rates: np.ndarray = None
    field_b: np.ndarray = None
    transverse_u: float = 0.0
    bond_dissipation: np.ndarray = None
    rng_seed: int = 0

    def __post_init__(self):
        n = self.n_sites
        if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_sites must be an integer, got n_sites={n!r}")
        if n < 2:
            raise ValueError(f"n_sites must be >= 2, got n_sites={n}")
        self.couplings = (
            np.ones(n - 1) if self.couplings is None
            else _as_float_array(self.couplings, n - 1, "couplings")
        )
        self.dephasing_rates = (
            np.ones(n) if self.dephasing_rates is None
            else _as_float_array(self.dephasing_rates, n, "dephasing_rates")
        )
        self.field_b = (
            np.zeros(n) if self.field_b is None
            else _as_float_array(self.field_b, n, "field_b")
        )
        self.bond_dissipation = (
            np.zeros(n - 1) if self.bond_dissipation is None
            else _as_float_array(self.bond_dissipation, n - 1, "bond_dissipation")
        )
        for name, kind in (("transverse_u", float), ("rng_seed", int)):
            try:
                setattr(self, name, kind(getattr(self, name)))
            except (TypeError, ValueError):
                value = getattr(self, name)
                raise ValueError(f"{name} must be a {kind.__name__}, got {name}={value!r}") from None
        for name in ("couplings", "dephasing_rates", "field_b", "transverse_u", "bond_dissipation"):
            value = np.asarray(getattr(self, name))
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {name}={value.tolist()}")
        if np.any(self.dephasing_rates < 0):
            raise ValueError("dephasing_rates must be nonnegative")
        if np.any(self.bond_dissipation < 0):
            raise ValueError("bond_dissipation must be nonnegative")

    # -- properties -------------------------------------------------------

    def is_unperturbed(self) -> bool:
        """True for the bare chain, the one the third-quantized oracle and the
        segment spectra cover; evolution uses the direct generator for all."""
        return (
            self.transverse_u == 0.0
            and not self.field_b.any()
            and not self.bond_dissipation.any()
        )

    def preserves_sectors(self) -> bool:
        """True when the Lindblad generator commutes with every parity pair
        (transverse and interior-field terms both break it; bond dissipators
        do not)."""
        return self.transverse_u == 0.0 and not self.field_b.any()

    def conserves_degree(self) -> bool:
        """True when the Lindblad generator keeps the Majorana degree of every
        monomial: the couplings, the interior fields, the sz jumps and the
        sx sx bond jumps are all quadratic and Hermitian; only the transverse
        field, a sum of odd Majorana strings, changes the degree."""
        return self.transverse_u == 0.0

    def homogeneous_gamma(self) -> float | None:
        g = self.dephasing_rates
        if g[0] > 0 and np.allclose(g, g[0]):
            return float(g[0])
        return None

    # -- JSON config --------------------------------------------------------

    _FIELDS = (
        "n_sites",
        "couplings",
        "dephasing_rates",
        "field_b",
        "transverse_u",
        "bond_dissipation",
        "rng_seed",
    )

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        if not isinstance(data, dict):
            raise ValueError(f"model config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        if "n_sites" not in data:
            raise ValueError("model config requires n_sites")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "couplings": self.couplings.tolist(),
            "dephasing_rates": self.dephasing_rates.tolist(),
            "field_b": self.field_b.tolist(),
            "transverse_u": self.transverse_u,
            "bond_dissipation": self.bond_dissipation.tolist(),
            "rng_seed": self.rng_seed,
        }


@lru_cache(maxsize=None)
def model_words(n_sites: int) -> tuple[tuple[PauliString, ...], tuple[PauliString, ...]]:
    """(hamiltonian, jumps): every Pauli word a model on n_sites can hold.

    The Hamiltonian words are sx_j sx_{j+1} for j = 1..N-1, sz_j for the
    interior j = 2..N-1 and sx_j for j = 1..N; the jump words are sz_j for
    j = 1..N and sx_j sx_{j+1} for j = 1..N-1. `model_weights` gives a
    model's weight on each, and `build_hamiltonian`, `build_dissipators`
    and the generator table of `liouvillian.generator_table` all read the
    model from this one list.
    """
    n = n_sites

    def bond(j):
        return PauliString.single(n, j, "X").mul(PauliString.single(n, j + 1, "X"))

    hamiltonian = (
        [bond(j) for j in range(1, n)]
        + [PauliString.single(n, j, "Z") for j in range(2, n)]  # b_1 and b_N never enter
        + [PauliString.single(n, j, "X") for j in range(1, n + 1)]
    )
    jumps = [PauliString.single(n, j, "Z") for j in range(1, n + 1)] + [bond(j) for j in range(1, n)]
    return tuple(hamiltonian), tuple(jumps)


def model_weights(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(weights, rates) of the words of `model_words`: H = sum_k weights[k]
    h_k, and jump word l_k enters with rate rates[k], as the jump operator
    sqrt(rates[k]) l_k. The weights are J_j, b_j (interior j) and u; the
    rates are gamma_j and gamma'_j^2, the bond prefactor being the
    amplitude (sqrt(gamma'^2) = gamma' exactly in floating point for
    gamma' > 1e-154). A rate is 0 where its prefactor is not positive; a
    zero weight or rate leaves its word out of the model."""
    n = params.n_sites
    weights = np.concatenate(
        [params.couplings, params.field_b[1 : n - 1], np.full(n, params.transverse_u)]
    )
    g, gp = params.dephasing_rates, params.bond_dissipation
    rates = np.concatenate([np.where(g > 0, g, 0.0), np.where(gp > 0, gp * gp, 0.0)])
    return weights, rates


def build_hamiltonian(params: ModelParams) -> OperatorSum:
    """Hermitian sum: XX bonds, interior sz fields, transverse sx field."""
    words, _ = model_words(params.n_sites)
    weights, _ = model_weights(params)
    out = OperatorSum(params.n_sites)
    for weight, word in zip(weights, words):
        if weight != 0:
            out.add_term(weight, word)
    return out


def build_dissipators(params: ModelParams) -> list[OperatorSum]:
    """Jump operators: sqrt(gamma_j) sz_j per site, plus bond sx sx terms
    gamma'_j sx_j sx_{j+1}: the bond prefactor gamma'_j is the amplitude as
    printed in the paper, not a rate."""
    _, words = model_words(params.n_sites)
    _, rates = model_weights(params)
    return [
        OperatorSum(params.n_sites, [(np.sqrt(rate), word)])
        for rate, word in zip(rates, words)
        if rate > 0
    ]


def _symmetry_generators(n: int) -> dict[str, PauliString]:
    return {
        "sx_1": PauliString.single(n, 1, "X"),
        "sx_N": PauliString.single(n, n, "X"),
        "parity": parity_word(n),
    }


def symmetry_report(op: OperatorSum, n_sites: int) -> dict[str, bool]:
    """Per-generator commutation report for an operator.

    A term commutes with a generator word iff the symbolic commutation sign
    is +1; the operator commutes iff all its words do (words are linearly
    independent, so no cross-term cancellation is possible).
    """
    report = {}
    for name, gen in _symmetry_generators(n_sites).items():
        report[name] = all(
            word.commutation_sign(gen) == 1 for _, word in op.terms()
        )
    return report


def check_symmetry_preserving(op: OperatorSum, n_sites: int) -> bool:
    """True iff op commutes with sx_1, sx_N, and the total sz parity.

    This is the sufficient condition for an added Hamiltonian term or
    dissipator to leave the two edge modes decoupled.
    """
    return all(symmetry_report(op, n_sites).values())


def random_perturbed_params(
    n_sites: int, u: float, rng_seed: int
) -> ModelParams:
    """Draw {J_j, b_j, gamma_j, gamma'_j} uniformly from [0, 1), seeded."""
    rng = np.random.default_rng(rng_seed)
    couplings = rng.uniform(0.0, 1.0, n_sites - 1)
    b = np.zeros(n_sites)
    b[1 : n_sites - 1] = rng.uniform(0.0, 1.0, n_sites - 2)
    gam = rng.uniform(0.0, 1.0, n_sites)
    gp = rng.uniform(0.0, 1.0, n_sites - 1)
    return ModelParams(
        n_sites=n_sites,
        couplings=couplings,
        dephasing_rates=gam,
        field_b=b,
        transverse_u=u,
        bond_dissipation=gp,
        rng_seed=rng_seed,
    )
