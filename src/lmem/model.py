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

import numpy as np

from .pauli import OperatorSum, PauliString, parity_word


def _as_float_array(value, length: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    return arr


@dataclass
class ModelParams:
    """Couplings and rates of the dissipative chain.

    couplings has length N-1, dephasing_rates length N, field_b length N
    (only interior entries 2..N-1 enter the Hamiltonian), bond_dissipation
    length N-1. All rates must be nonnegative.
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
        if n < 2:
            raise ValueError("n_sites must be >= 2")
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
        self.transverse_u = float(self.transverse_u)
        self.rng_seed = int(self.rng_seed)
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


def build_hamiltonian(params: ModelParams) -> OperatorSum:
    """Hermitian sum: XX bonds, interior sz fields, transverse sx field."""
    n = params.n_sites
    out = OperatorSum(n)
    for j in range(1, n):
        if params.couplings[j - 1] != 0:
            word = PauliString.single(n, j, "X").mul(PauliString.single(n, j + 1, "X"))
            out.add_term(params.couplings[j - 1], word)
    for j in range(2, n):  # b_1 and b_N never enter
        if params.field_b[j - 1] != 0:
            out.add_term(params.field_b[j - 1], PauliString.single(n, j, "Z"))
    if params.transverse_u != 0:
        for j in range(1, n + 1):
            out.add_term(params.transverse_u, PauliString.single(n, j, "X"))
    return out


def build_dissipators(params: ModelParams) -> list[OperatorSum]:
    """Jump operators: sqrt(gamma_j) sz_j per site, plus bond sx sx terms
    gamma'_j sx_j sx_{j+1}: the bond prefactor gamma'_j is the amplitude as
    printed in the paper, not a rate."""
    n = params.n_sites
    out = []
    for j in range(1, n + 1):
        g = params.dephasing_rates[j - 1]
        if g > 0:
            out.append(
                OperatorSum(n, [(np.sqrt(g), PauliString.single(n, j, "Z"))])
            )
    for j in range(1, n):
        gp = params.bond_dissipation[j - 1]
        if gp > 0:
            word = PauliString.single(n, j, "X").mul(PauliString.single(n, j + 1, "X"))
            out.append(OperatorSum(n, [(gp, word)]))
    return out


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
