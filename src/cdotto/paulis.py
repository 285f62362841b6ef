"""Exact symbolic algebra over N-site Pauli operators.

Operators live as maps from letter patterns (tuples such as
``('X', 'I', 'Z')``) to complex coefficients.  The product of two Pauli
strings is a phase times a string, so commutators are computed term by
term without any dense matrix; dense realizations are built on demand for
propagation and thermal states.

All values are immutable after construction and every operation is a
pure function, so they are safe to share across threads and processes.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import CapacityError, DimensionError

#: Coefficients at or below this magnitude are dropped from canonical forms.
PRUNE_TOL = 1e-14

#: Largest site count for which a dense 2^N x 2^N realization is built.
DENSE_SITE_CAP = 12

LETTERS = ("I", "X", "Y", "Z")

SINGLE_SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Single-site products a * b == phase * letter.
_MUL = {
    ("I", "I"): (1.0 + 0.0j, "I"),
    ("I", "X"): (1.0 + 0.0j, "X"),
    ("I", "Y"): (1.0 + 0.0j, "Y"),
    ("I", "Z"): (1.0 + 0.0j, "Z"),
    ("X", "I"): (1.0 + 0.0j, "X"),
    ("Y", "I"): (1.0 + 0.0j, "Y"),
    ("Z", "I"): (1.0 + 0.0j, "Z"),
    ("X", "X"): (1.0 + 0.0j, "I"),
    ("Y", "Y"): (1.0 + 0.0j, "I"),
    ("Z", "Z"): (1.0 + 0.0j, "I"),
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}


def _check_letters(letters: tuple[str, ...]) -> None:
    if not letters:
        raise DimensionError("a Pauli string needs at least one site")
    for s in letters:
        if s not in LETTERS:
            raise ValueError(f"unknown Pauli letter {s!r}")


def _mul_letters(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[complex, tuple[str, ...]]:
    phase = 1.0 + 0.0j
    out = []
    for sa, sb in zip(a, b):
        ph, s = _MUL[(sa, sb)]
        phase *= ph
        out.append(s)
    return phase, tuple(out)


def _anticommute(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    # Strings anticommute iff they differ on an odd number of jointly
    # non-identity sites.
    count = 0
    for sa, sb in zip(a, b):
        if sa != "I" and sb != "I" and sa != sb:
            count += 1
    return count % 2 == 1


class OperatorSum:
    """A canonical linear combination of Pauli strings on ``n_sites`` sites.

    Canonical means: unique letter patterns, lexicographically ordered, and
    no coefficient of magnitude <= ``PRUNE_TOL``.  An OperatorSum is Hermitian
    exactly when every coefficient is real.  Treat instances as immutable.
    """

    __slots__ = ("_n_sites", "_terms")

    def __init__(self, n_sites: int, terms=None):
        if n_sites < 1:
            raise DimensionError("n_sites must be positive")
        canonical = {}
        if terms:
            for letters, coeff in (terms.items() if isinstance(terms, dict) else terms):
                letters = tuple(letters)
                if len(letters) != n_sites:
                    raise DimensionError(
                        f"pattern {letters} does not match n_sites={n_sites}"
                    )
                _check_letters(letters)
                c = canonical.get(letters, 0.0 + 0.0j) + complex(coeff)
                canonical[letters] = c
        pruned = {k: c for k, c in canonical.items() if abs(c) > PRUNE_TOL}
        self._n_sites = n_sites
        self._terms = dict(sorted(pruned.items()))

    @property
    def n_sites(self) -> int:
        return self._n_sites

    @property
    def terms(self):
        """Read-only view of the pattern -> coefficient map."""
        return MappingProxyType(self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def __mul__(self, scalar) -> "OperatorSum":
        scalar = complex(scalar)
        return OperatorSum(
            self._n_sites, {k: scalar * c for k, c in self._terms.items()}
        )

    __rmul__ = __mul__

    def __repr__(self):
        shown = ", ".join(
            f"{c:g}*{''.join(k)}" for k, c in list(self._terms.items())[:4]
        )
        more = "" if self.n_terms <= 4 else f", ... ({self.n_terms} terms)"
        return f"OperatorSum({self._n_sites} sites: {shown}{more})"


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """[a, b] = ab - ba in canonical form.

    Only anticommuting string pairs contribute, each as twice their product.
    """
    if a.n_sites != b.n_sites:
        raise DimensionError(f"site counts differ: {a.n_sites} vs {b.n_sites}")
    out: dict = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            if _anticommute(pa, pb):
                phase, pat = _mul_letters(pa, pb)
                out[pat] = out.get(pat, 0.0 + 0.0j) + 2.0 * ca * cb * phase
    return OperatorSum(a.n_sites, out)


def pattern_dense(letters: tuple[str, ...]) -> np.ndarray:
    """Dense matrix of a unit-coefficient Pauli string."""
    out = SINGLE_SITE[letters[0]]
    for s in letters[1:]:
        out = np.kron(out, SINGLE_SITE[s])
    return out


def to_dense(a: OperatorSum) -> np.ndarray:
    """Dense 2^N x 2^N realization; Hermitian when coefficients are real."""
    if a.n_sites > DENSE_SITE_CAP:
        raise CapacityError(
            f"dense realization of {a.n_sites} sites exceeds cap of {DENSE_SITE_CAP}"
        )
    dim = 2 ** a.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for pat, c in a.terms.items():
        out += c * pattern_dense(pat)
    return out
