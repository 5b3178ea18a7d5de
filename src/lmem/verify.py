"""Cross-construction oracle suite behind `lmem verify`.

Each check compares independent constructions of one object (generators,
the kappa cascade, the Kitaev sector reconstruction, Jordan-Wigner maps) or
tests an identity it must satisfy. The experiments in `lmem.cli` build none
of these oracles; only this suite and the tests do.
"""

from __future__ import annotations

import numpy as np

from .fock import c_dagger_matrix, c_matrix, vectorize
from .kappa import build_P_operator, kappa_all
from .liouvillian import (
    build_liouvillian_colstack_oracle,
    build_liouvillian_direct,
    build_liouvillian_thirdq,
    trace_preservation_defect,
)
from .model import ModelParams
from .pauli import PauliString, majorana_to_spin, parity_word, spin_to_majorana
from .sectors import all_sector_labels, kitaev_form_reconstruction, restrict_liouvillian


def oracle_checks(max_n: int, seed: int, flip_kappa_sign: bool = False):
    """Yield (name, n, deviation, tolerance) for every cross-check."""
    rng = np.random.default_rng(seed)
    for n in range(2, max_n + 1):
        p = ModelParams(
            n_sites=n,
            couplings=rng.uniform(0.5, 1.5, n - 1),
            dephasing_rates=rng.uniform(0.2, 1.0, n),
        )
        a = build_liouvillian_thirdq(p)
        b = build_liouvillian_direct(p)
        dev = abs((a.matrix - b.matrix)).max()
        yield ("liouvillian-thirdq-vs-direct", n, float(dev), 1e-12)
        if n <= 3:
            c = build_liouvillian_colstack_oracle(p)
            dev = np.abs(b.toarray() - c.toarray()).max()
            yield ("liouvillian-direct-vs-colstack", n, float(dev), 1e-12)
        yield (
            "trace-preservation",
            n,
            max(trace_preservation_defect(a), trace_preservation_defect(b)),
            1e-12,
        )
        # stationary family
        m = parity_word(n).to_matrix()
        worst = 0.0
        for zeta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            rho_s = (np.eye(2 ** n) + zeta * m) / 2 ** n
            worst = max(worst, float(np.abs(a.matrix @ vectorize(rho_s, n).amplitudes).max()))
        yield ("stationary-family", n, worst, 1e-12)
        if n <= 3:
            # canonical anticommutation relations
            dim = 4 ** n
            eye = np.eye(dim)
            worst = 0.0
            C = [c_matrix(j, n) for j in range(1, 2 * n + 1)]
            Cd = [c_dagger_matrix(j, n) for j in range(1, 2 * n + 1)]
            for i in range(2 * n):
                for j in range(2 * n):
                    worst = max(
                        worst,
                        np.abs((C[i] @ Cd[j] + Cd[j] @ C[i]).toarray() - (eye if i == j else 0)).max(),
                        np.abs((C[i] @ C[j] + C[j] @ C[i]).toarray()).max(),
                    )
            yield ("canonical-anticommutation", n, float(worst), 1e-12)
            # Clifford family
            kap = kappa_all(n, flip_odd_sign=flip_kappa_sign)
            worst = 0.0
            for i in range(1, 4 * n + 1):
                for j in range(i, 4 * n + 1):
                    anti = (kap[i] @ kap[j] + kap[j] @ kap[i]).toarray()
                    worst = max(worst, np.abs(anti - (2 * eye if i == j else 0)).max())
            yield ("kappa-clifford-algebra", n, float(worst), 1e-12)
            # edge decoupling
            worst = 0.0
            for k in (1, 4 * n):
                worst = max(worst, np.abs((a.matrix @ kap[k] - kap[k] @ a.matrix).toarray()).max())
            yield ("edge-mode-decoupling", n, float(worst), 1e-12)
            # sector reconstruction (exercises both Jordan-Wigner layers)
            worst = 0.0
            for lab in all_sector_labels(n):
                block = restrict_liouvillian(a, lab)
                rebuilt = kitaev_form_reconstruction(lab, p, flip_odd_sign=flip_kappa_sign)
                worst = max(worst, float(np.abs(rebuilt - block.matrix).max()))
            yield ("kitaev-sector-reconstruction", n, worst, 1e-12)
        # parity-pair commutation
        worst = 0.0
        for j in range(1, n):
            P = build_P_operator(j, n)
            worst = max(worst, float(abs((P @ a.matrix - a.matrix @ P)).max()))
        yield ("parity-pair-commutation", n, worst, 1e-12)
        # Jordan-Wigner round trip on random words
        worst = 0.0
        for _ in range(20):
            codes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            phase = [1, -1, 1j, -1j][rng.integers(0, 4)]
            w = PauliString.from_codes(codes, phase)
            back = majorana_to_spin(spin_to_majorana(w))
            ((coeff, base),) = list(back.terms())
            ph, key = w.hermitian_key()
            worst = max(worst, abs(coeff - ph) + (0.0 if key == base else 1.0))
        yield ("jordan-wigner-round-trip", n, worst, 1e-12)


def oracle_report(max_n: int, seed: int, flip_kappa_sign: bool = False) -> dict:
    """{"all_passed", "checks"} over `oracle_checks`, the oracle_report.json body."""
    checks = []
    all_passed = True
    for name, n, dev, tol in oracle_checks(max_n, seed, flip_kappa_sign):
        passed = bool(dev < tol)
        all_passed &= passed
        checks.append(
            {"name": name, "n_sites": n, "max_deviation": dev, "tolerance": tol, "passed": passed}
        )
    report = {"all_passed": bool(all_passed), "checks": checks}
    if flip_kappa_sign:
        report["debug_flip_kappa_sign"] = True
    return report
