"""Exact symbolic algebra for N-site Pauli strings and 2N-mode Majorana monomials.

Pauli words are held in symplectic form: a pair of N-bit integers (x, z) plus a
power of i. Bit j-1 of x (resp. z) switches an X (resp. Z) factor on site j, so

    value = i^q * prod_j X_j^{x_j} Z_j^{z_j},

with X Z = -iY on a single site. The Hermitian representative of a word has
q = (#Y sites) mod 4; any other q folds into the displayed phase, which is then
one of {+1, -1, +i, -i}. Products, commutation signs, and adjoints are all O(N)
bit arithmetic and exact (the phase group is the fourth roots of unity).

Majorana monomials w^{a} = w_1^{a_1} ... w_{2N}^{a_{2N}} are held as a 2N-bit
occupation mask in canonical (strictly increasing) mode order together with a
complex coefficient; products reduce to canonical form with the sign obtained
by counting mode transpositions, consistent with {w_i, w_j} = 2 delta_ij.

The two representations are linked by the Jordan-Wigner transformation

    sigma_j^x = prod_{k<j} (-i w_{2k-1} w_{2k}) w_{2j-1},
    sigma_j^y = prod_{k<j} (-i w_{2k-1} w_{2k}) w_{2j},

equivalently w_{2j-1} = sigma_1^z ... sigma_{j-1}^z sigma_j^x and
w_{2j} = sigma_1^z ... sigma_{j-1}^z sigma_j^y. `spin_to_majorana` and
`majorana_to_spin` implement the two directions and round-trip exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CODE_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CODE = {v: k for k, v in _CODE_TO_XZ.items()}

_PHASES = (1, 1j, -1, -1j)
_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LABEL_PHASE = {v: k for k, v in _PHASE_LABEL.items()}

DEFAULT_DENSE_LIMIT = 10


def dense_site_limit() -> int:
    """Largest N for which dense 2^N x 2^N matrices may be built.

    Overridable through the LMEM_DENSE_LIMIT environment variable.
    """
    import os

    raw = os.environ.get("LMEM_DENSE_LIMIT")
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    return int(raw)


class SizeLimitError(ValueError):
    """Raised when a dense construction would exceed the configured site limit."""


def _check_dense(n_sites: int) -> None:
    limit = dense_site_limit()
    if n_sites > limit:
        raise SizeLimitError(
            f"dense construction for n_sites={n_sites} exceeds limit {limit} "
            "(set LMEM_DENSE_LIMIT to override)"
        )


def _popcount(v: int) -> int:
    return bin(v).count("1")


@dataclass(frozen=True)
class PauliString:
    """A signed N-site Pauli word in symplectic (x, z, i-power) form."""

    n_sites: int
    x: int
    z: int
    q: int  # exponent of i, mod 4

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        mask = (1 << self.n_sites) - 1
        object.__setattr__(self, "x", self.x & mask)
        object.__setattr__(self, "z", self.z & mask)
        object.__setattr__(self, "q", self.q % 4)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n_sites: int) -> "PauliString":
        return cls(n_sites, 0, 0, 0)

    @classmethod
    def from_codes(cls, codes, phase: complex = 1) -> "PauliString":
        """Build from per-site symbols, e.g. from_codes("IXYZ") or a list."""
        x = z = q = 0
        for j, c in enumerate(codes):
            cx, cz = _CODE_TO_XZ[c]
            x |= cx << j
            z |= cz << j
            if c == "Y":
                q += 1  # Y = i X Z
        ph = complex(phase)
        for k, p in enumerate(_PHASES):
            if abs(ph - p) < 1e-12:
                return cls(len(codes), x, z, (q + k) % 4)
        raise ValueError(f"phase must be a fourth root of unity, got {phase}")

    @classmethod
    def single(cls, n_sites: int, site: int, code: str) -> "PauliString":
        """One non-identity symbol at `site` (1-based)."""
        if not 1 <= site <= n_sites:
            raise ValueError(f"site {site} out of range for n_sites={n_sites}")
        codes = ["I"] * n_sites
        codes[site - 1] = code
        return cls.from_codes(codes)

    # -- views ------------------------------------------------------------

    @property
    def codes(self) -> str:
        return "".join(
            _XZ_TO_CODE[(self.x >> j) & 1, (self.z >> j) & 1] for j in range(self.n_sites)
        )

    @property
    def y_count(self) -> int:
        return _popcount(self.x & self.z)

    @property
    def phase(self) -> complex:
        """Phase relative to the bare I/X/Y/Z tensor word: one of +1, -1, +i, -i."""
        return _PHASES[(self.q - self.y_count) % 4]

    @property
    def weight(self) -> int:
        return _popcount(self.x | self.z)

    def is_hermitian(self) -> bool:
        return self.phase in (1, -1)

    def hermitian_key(self):
        """Split into (phase, phase-free Hermitian word). value = phase * word."""
        base = PauliString(self.n_sites, self.x, self.z, self.y_count % 4)
        return self.phase, base

    # -- algebra ----------------------------------------------------------

    def mul(self, other: "PauliString") -> "PauliString":
        """Exact matrix product of two signed Pauli words."""
        if self.n_sites != other.n_sites:
            raise ValueError(
                f"site-count mismatch: {self.n_sites} != {other.n_sites}"
            )
        # moving Z^{z1} through X^{x2} picks up (-1)^{|z1 & x2|}
        q = self.q + other.q + 2 * _popcount(self.z & other.x)
        return PauliString(self.n_sites, self.x ^ other.x, self.z ^ other.z, q)

    def __mul__(self, other):
        if isinstance(other, PauliString):
            return self.mul(other)
        return NotImplemented

    def commutation_sign(self, other: "PauliString") -> int:
        """+1 if the words commute, -1 if they anticommute."""
        if self.n_sites != other.n_sites:
            raise ValueError(
                f"site-count mismatch: {self.n_sites} != {other.n_sites}"
            )
        sym = _popcount(self.x & other.z) + _popcount(self.z & other.x)
        return 1 - 2 * (sym % 2)

    def dagger(self) -> "PauliString":
        q = (-self.q + 2 * _popcount(self.x & self.z)) % 4
        return PauliString(self.n_sites, self.x, self.z, q)

    def scaled(self, k_quarter_turns: int) -> "PauliString":
        """Multiply by i^k."""
        return PauliString(self.n_sites, self.x, self.z, self.q + k_quarter_turns)

    # -- dense ------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N matrix (site 1 = most significant factor)."""
        _check_dense(self.n_sites)
        m = reduce(np.kron, (_PAULI_MATRICES[c] for c in self.codes))
        return self.phase * m

    # -- text form ----------------------------------------------------------

    def to_label(self) -> str:
        """Compact text form, e.g. "-i X1 Y3 Z4@4"; identity is "+@N"."""
        parts = [
            f"{_XZ_TO_CODE[(self.x >> j) & 1, (self.z >> j) & 1]}{j + 1}"
            for j in range(self.n_sites)
            if ((self.x >> j) & 1) or ((self.z >> j) & 1)
        ]
        sign = _PHASE_LABEL[(self.q - self.y_count) % 4]
        body = " ".join(parts)
        return f"{sign}{body}@{self.n_sites}" if body else f"{sign}@{self.n_sites}"

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        m = re.fullmatch(r"([+-]i?)\s*((?:[XYZ]\d+\s*)*)@(\d+)", label.strip())
        if not m:
            raise ValueError(f"malformed Pauli label: {label!r}")
        sign, body, n = m.group(1), m.group(2), int(m.group(3))
        codes = ["I"] * n
        for tok in body.split():
            code, site = tok[0], int(tok[1:])
            if not 1 <= site <= n:
                raise ValueError(f"site {site} out of range in label {label!r}")
            if codes[site - 1] != "I":
                raise ValueError(f"repeated site {site} in label {label!r}")
            codes[site - 1] = code
        return cls.from_codes(codes, _PHASES[_LABEL_PHASE[sign]])

    def __repr__(self):
        return f"PauliString({self.to_label()!r})"


class OperatorSum:
    """A finite complex combination of Pauli words on a fixed number of sites.

    Keys are phase-free Hermitian words; phases fold into the coefficients, so
    the operator is Hermitian exactly when every coefficient is real. Zero
    coefficients are pruned.
    """

    __slots__ = ("n_sites", "_terms")

    _PRUNE = 1e-14

    def __init__(self, n_sites: int, terms=None):
        self.n_sites = n_sites
        self._terms: dict[PauliString, complex] = {}
        if terms:
            for coeff, word in terms:
                self.add_term(coeff, word)

    @classmethod
    def zero(cls, n_sites: int) -> "OperatorSum":
        return cls(n_sites)

    @classmethod
    def identity(cls, n_sites: int, coeff: complex = 1.0) -> "OperatorSum":
        return cls(n_sites, [(coeff, PauliString.identity(n_sites))])

    @classmethod
    def from_pauli(cls, word: PauliString, coeff: complex = 1.0) -> "OperatorSum":
        return cls(word.n_sites, [(coeff, word)])

    def add_term(self, coeff: complex, word: PauliString) -> None:
        if word.n_sites != self.n_sites:
            raise ValueError("site-count mismatch in OperatorSum term")
        phase, base = word.hermitian_key()
        new = self._terms.get(base, 0) + coeff * phase
        if abs(new) <= self._PRUNE:
            self._terms.pop(base, None)
        else:
            self._terms[base] = new

    def terms(self):
        """Iterate (coefficient, Hermitian Pauli word) pairs."""
        return ((c, w) for w, c in self._terms.items())

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def coefficient(self, word: PauliString) -> complex:
        phase, base = word.hermitian_key()
        return self._terms.get(base, 0.0) / phase

    def copy(self) -> "OperatorSum":
        out = OperatorSum(self.n_sites)
        out._terms = dict(self._terms)
        return out

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        out = self.copy()
        for word, coeff in other._terms.items():
            out.add_term(coeff, word)
        return out

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + other.scaled(-1)

    def scaled(self, factor: complex) -> "OperatorSum":
        out = OperatorSum(self.n_sites)
        for word, coeff in self._terms.items():
            out.add_term(factor * coeff, word)
        return out

    def __matmul__(self, other: "OperatorSum") -> "OperatorSum":
        if self.n_sites != other.n_sites:
            raise ValueError("site-count mismatch in OperatorSum product")
        out = OperatorSum(self.n_sites)
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                out.add_term(ca * cb, wa.mul(wb))
        return out

    def dagger(self) -> "OperatorSum":
        out = OperatorSum(self.n_sites)
        for word, coeff in self._terms.items():
            # keys are Hermitian words, so only the coefficient conjugates
            out.add_term(np.conj(coeff), word)
        return out

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def to_matrix(self) -> np.ndarray:
        _check_dense(self.n_sites)
        dim = 2 ** self.n_sites
        out = np.zeros((dim, dim), dtype=complex)
        for word, coeff in self._terms.items():
            out += coeff * word.to_matrix()
        return out

    def __repr__(self):
        inner = " ".join(
            f"({c:+.6g})*{w.to_label()}" for w, c in list(self._terms.items())[:4]
        )
        more = "" if len(self._terms) <= 4 else f" ... [{len(self._terms)} terms]"
        return f"OperatorSum({inner}{more})"


@dataclass(frozen=True)
class MajoranaMonomial:
    """Ordered product over 2N Majorana modes: coeff * w_1^{a_1} ... w_{2N}^{a_{2N}}.

    `mask` bit j-1 is the exponent a_j of mode w_j.
    """

    n_modes: int
    mask: int
    coeff: complex = 1.0

    def __post_init__(self):
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError("n_modes must be a positive even integer")
        if self.mask < 0 or self.mask >> self.n_modes:
            raise ValueError("mask out of range for n_modes")

    @property
    def degree(self) -> int:
        return _popcount(self.mask)

    def mul(self, other: "MajoranaMonomial") -> "MajoranaMonomial":
        """Canonical-order product; sign from counting mode transpositions."""
        if self.n_modes != other.n_modes:
            raise ValueError("mode-count mismatch")
        # concatenating self's modes then other's: each pair (j in self, k in
        # other) with j > k is one transposition; equal modes cancel, w^2 = 1
        sign = 1
        a, b = self.mask, other.mask
        bb = b
        while bb:
            low = bb & -bb
            j = low.bit_length() - 1
            if _popcount(a >> (j + 1)) % 2:
                sign = -sign
            bb ^= low
        return MajoranaMonomial(self.n_modes, a ^ b, self.coeff * other.coeff * sign)

    def __mul__(self, other):
        if isinstance(other, MajoranaMonomial):
            return self.mul(other)
        return NotImplemented

    def reversal_sign(self) -> int:
        """Sign s with (w^{a})^dagger = s * w^{a} for the coefficient-free word."""
        k = self.degree
        return 1 - 2 * ((k * (k - 1) // 2) % 2)

    def dagger(self) -> "MajoranaMonomial":
        return MajoranaMonomial(
            self.n_modes, self.mask, np.conj(self.coeff) * self.reversal_sign()
        )

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        d = self.dagger()
        return abs(d.coeff - self.coeff) <= tol


def _site_generator(n_sites: int, site: int, code: str) -> MajoranaMonomial:
    """Majorana image of sigma_site^{code} under the Jordan-Wigner map."""
    n_modes = 2 * n_sites
    j = site
    if code == "X":
        # (-i)^{j-1} w_1 ... w_{2j-2} w_{2j-1}
        return MajoranaMonomial(n_modes, (1 << (2 * j - 1)) - 1, (-1j) ** (j - 1))
    if code == "Y":
        mask = ((1 << (2 * j - 2)) - 1) | (1 << (2 * j - 1))
        return MajoranaMonomial(n_modes, mask, (-1j) ** (j - 1))
    if code == "Z":
        # sigma^z = -i sigma^x sigma^y = -i w_{2j-1} w_{2j}
        mask = (0b11) << (2 * j - 2)
        return MajoranaMonomial(n_modes, mask, -1j)
    raise ValueError(f"unknown code {code!r}")


def spin_to_majorana(p: PauliString) -> MajoranaMonomial:
    """Jordan-Wigner image of a signed Pauli word as one Majorana monomial."""
    out = MajoranaMonomial(2 * p.n_sites, 0, p.phase)
    for j, c in enumerate(p.codes, start=1):
        if c != "I":
            out = out.mul(_site_generator(p.n_sites, j, c))
    return out


def majorana_to_spin(m: MajoranaMonomial) -> OperatorSum:
    """Inverse Jordan-Wigner map; always a single signed Pauli word."""
    n_sites = m.n_modes // 2
    word = PauliString.identity(n_sites)
    for k in range(m.n_modes):
        if (m.mask >> k) & 1:
            # w_{2j-1} = sz_1 ... sz_{j-1} sx_j ;  w_{2j} = sz_1 ... sz_{j-1} sy_j
            mode = k + 1
            site = (mode + 1) // 2
            codes = ["Z"] * (site - 1) + ["X" if mode % 2 else "Y"]
            codes += ["I"] * (n_sites - site)
            word = word.mul(PauliString.from_codes(codes))
    return OperatorSum(n_sites, [(m.coeff, word)])


def parity_word(n_sites: int) -> PauliString:
    """The conserved parity (-1)^N prod_j sigma_j^z."""
    word = PauliString.from_codes("Z" * n_sites)
    return word.scaled(2 * (n_sites % 2))


def operator_to_majorana_terms(op: OperatorSum) -> dict[int, complex]:
    """Expand an OperatorSum as {occupation mask: coefficient} over w^{a}."""
    out: dict[int, complex] = {}
    for coeff, word in op.terms():
        mono = spin_to_majorana(word)
        cur = out.get(mono.mask, 0.0) + coeff * mono.coeff
        if cur == 0:
            out.pop(mono.mask, None)
        else:
            out[mono.mask] = cur
    return out
