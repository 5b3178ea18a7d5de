"""Simulator for dissipative XX spin chains with local dephasing.

Builds the Lindblad generator in a Majorana-monomial basis two independent
ways (third-quantized closed form and direct vectorization), decomposes it
into weak-symmetry sectors that take the shape of non-Hermitian Kitaev
chains, and analyzes the decoupled Liouville-Majorana edge modes: invariant
observable ratios, bulk-edge product states, purity and edge-correlation
relations, and exceptional-point scans of sector spectra.
"""

__version__ = "0.1.0"

from .pauli import (
    MajoranaMonomial,
    OperatorSum,
    PauliString,
    majorana_to_spin,
    parity_word,
    spin_to_majorana,
)
from .model import (
    ModelParams,
    build_dissipators,
    build_hamiltonian,
    check_symmetry_preserving,
    random_perturbed_params,
    symmetry_report,
)
from .fock import (
    LiouvilleVector,
    apply_c,
    apply_c_dagger,
    as_amplitudes,
    devectorize,
    liouville_inner,
    vectorize,
    vectorize_operator,
)
from .kappa import build_P_operator, kappa_as_liouville_matrix
from .liouvillian import (
    Superoperator,
    UnsupportedModelError,
    build_liouvillian_direct,
    build_liouvillian_thirdq,
    write_triplets,
)
from .sectors import (
    SectorBlock,
    SectorLabel,
    broken_chain_segments,
    enumerate_sector_basis,
    kitaev_form_reconstruction,
    restrict_liouvillian,
)
from .dynamics import (
    EvolutionResult,
    SpectrumReport,
    evolve,
    exceptional_point_scan,
    expectation,
    spectrum_analysis,
)
from .edge import (
    EdgeClassification,
    ProductStateSpec,
    approx_purity_longtime,
    build_product_state,
    classify_operator,
    edge_factorization_test,
    kappa_correlation,
    purity,
    purity_from_observables,
    ratio_trace,
    stationary_density,
)

__all__ = [
    "EdgeClassification",
    "EvolutionResult",
    "LiouvilleVector",
    "MajoranaMonomial",
    "ModelParams",
    "OperatorSum",
    "PauliString",
    "ProductStateSpec",
    "SectorBlock",
    "SectorLabel",
    "SpectrumReport",
    "Superoperator",
    "UnsupportedModelError",
    "approx_purity_longtime",
    "apply_c",
    "apply_c_dagger",
    "as_amplitudes",
    "broken_chain_segments",
    "build_P_operator",
    "build_dissipators",
    "build_hamiltonian",
    "build_liouvillian_direct",
    "build_liouvillian_thirdq",
    "build_product_state",
    "check_symmetry_preserving",
    "classify_operator",
    "devectorize",
    "edge_factorization_test",
    "enumerate_sector_basis",
    "evolve",
    "exceptional_point_scan",
    "expectation",
    "kappa_as_liouville_matrix",
    "kappa_correlation",
    "kitaev_form_reconstruction",
    "liouville_inner",
    "majorana_to_spin",
    "parity_word",
    "purity",
    "purity_from_observables",
    "random_perturbed_params",
    "ratio_trace",
    "restrict_liouvillian",
    "spectrum_analysis",
    "spin_to_majorana",
    "stationary_density",
    "symmetry_report",
    "vectorize",
    "vectorize_operator",
    "write_triplets",
    "__version__",
]
