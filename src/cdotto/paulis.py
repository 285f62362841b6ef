"""Exact algebra over N-site Pauli operators.

Operators live as maps from letter patterns (tuples such as
``('X', 'I', 'Z')``) to complex coefficients.  The product of two Pauli
strings is a phase times a string, so commutators are computed term by
term without any dense matrix; dense realizations are built on demand for
propagation and thermal states.

Bulk work runs on the binary symplectic form of the strings (Aaronson &
Gottesman, PRA 70, 052328 (2004)): a pattern is i^{#Y} X^x Z^z for bit
masks x (set by X and Y) and z (set by Z and Y), with site 0 the leading
bit as in the Kronecker order, and #Y = popcount(x & z) since Y = i X Z.
``i_commutator_table`` forms i[O_a, H] for a whole list of strings in one
vectorized pass, and ``dense_strings`` realizes weighted string sums by
scattering each string's signed permutation,
X^x Z^z |j> = (-1)^{popcount(j & z)} |j XOR x>.

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

#: Entries (string entries plus output entries) that one ``dense_strings`` scatter
#: chunk aims at; a single slot larger than this is scattered on its own.
SCATTER_CHUNK = 1 << 17

LETTERS = ("I", "X", "Y", "Z")

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


# letter rank (I, X, Y, Z = 0..3) indexed by x_bit + 2 * z_bit
_RANK = np.array([0, 1, 3, 2])

# i^k for k = 0..3, exact
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _popcount(a: np.ndarray) -> np.ndarray:
    # np.bitwise_count returns uint8, which wraps on subtraction
    return np.bitwise_count(a).astype(np.int64)


def pauli_masks(patterns, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks (x, z) of letter patterns; site 0 is the leading bit."""
    letters = np.array(list(patterns), dtype="U1").reshape(-1, n_sites)
    bits = 1 << np.arange(n_sites - 1, -1, -1)
    x = ((letters == "X") | (letters == "Y")).astype(np.int64) @ bits
    z = ((letters == "Z") | (letters == "Y")).astype(np.int64) @ bits
    return x, z


def pattern_code(x: np.ndarray, z: np.ndarray, n_sites: int) -> np.ndarray:
    """Base-4 code of each (x, z) string, letter ranks I < X < Y < Z, site 0 leading.

    Codes sort in the lexicographic order of the letter patterns.
    """
    code = np.zeros_like(x)
    for bit in range(n_sites):
        code |= _RANK[((x >> bit) & 1) + 2 * ((z >> bit) & 1)] << (2 * bit)
    return code


def string_phases(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """i^{#Y} of each string, so that the pattern is i^{#Y} X^x Z^z."""
    return _I_POWERS[_popcount(x & z) % 4]


def i_commutator_table(x: np.ndarray, z: np.ndarray, h: OperatorSum):
    """Every nonzero term of i[O_a, H] for the unit strings O_a = (x[a], z[a]).

    ``h`` must be Hermitian (real coefficients).  Returns ``(rows, codes,
    values)`` ordered by row: i[O_a, H] is the sum of values * (the string
    with that ``pattern_code``) over the entries with rows == a.  O_a and a
    term O_t of H anticommute when popcount(x_a & z_t) + popcount(z_a & x_t)
    is odd, and then, with c = a XOR t and y = popcount(x & z),

        i[O_a, O_t] = 2i O_a O_t = 2 i^{1 + y_a + y_t - y_c} (-1)^{popcount(z_a & x_t)} O_c,

    a power of i that is even because i[O_a, O_t] is Hermitian.  Pairs that
    commute contribute nothing.
    """
    hx, hz = pauli_masks(h.terms, h.n_sites)
    coeffs = np.array([c.real for c in h.terms.values()])
    odd = (_popcount(x[:, None] & hz) + _popcount(z[:, None] & hx)) & 1
    rows, t = np.nonzero(odd)
    xa, za, xt, zt = x[rows], z[rows], hx[t], hz[t]
    xc, zc = xa ^ xt, za ^ zt
    power = (1 + _popcount(xa & za) + _popcount(xt & zt) - _popcount(xc & zc)
             + 2 * _popcount(za & xt))
    values = 2.0 * coeffs[t] * (1 - power % 4)
    return rows, pattern_code(xc, zc, h.n_sites), values


def dense_strings(n_sites: int, x: np.ndarray, z: np.ndarray, weights: np.ndarray,
                  slots=None, n_slots: int = 1) -> np.ndarray:
    """Dense sums of weighted X^x Z^z, string s into ``out[slots[s]]`` (default slot 0).

    Each string is a signed permutation, so its 2^N entries are scattered
    straight into place; every entry sums its strings in their given order.
    The phases i^{#Y} are the caller's to fold into ``weights``.  Real
    weights give a real (n_slots, 2^N, 2^N) array, complex weights a
    complex one.

    The scatter runs a few whole slots at a time, so its index, sign and
    value arrays stay near ``SCATTER_CHUNK`` entries however many strings
    there are.  An entry belongs to one slot, so chunking leaves every sum
    bitwise as it was.
    """
    dim = 1 << n_sites
    slot = np.zeros(len(x), dtype=np.int64) if slots is None else np.asarray(slots)
    order = np.argsort(slot, kind="stable")
    starts = np.searchsorted(slot[order], np.arange(n_slots + 1))
    out = np.empty((n_slots, dim, dim), dtype=complex if np.iscomplexobj(weights) else float)
    j = np.arange(dim)
    lo = 0
    while lo < n_slots:
        hi = lo + 1
        while (hi < n_slots and (starts[hi + 1] - starts[lo]) * dim
               + (hi + 1 - lo) * dim * dim <= SCATTER_CHUNK):
            hi += 1
        pick = order[starts[lo]:starts[hi]]
        sign = 1 - 2 * (_popcount(j & z[pick, None]) & 1)
        flat = (((slot[pick, None] - lo) * dim + (j ^ x[pick, None])) * dim + j).ravel()
        vals = (weights[pick, None] * sign).ravel()
        block = out[lo:hi].reshape(-1)
        if np.iscomplexobj(vals):
            block.real = np.bincount(flat, vals.real, block.size)
            block.imag = np.bincount(flat, vals.imag, block.size)
        else:
            block[:] = np.bincount(flat, vals, block.size)
        lo = hi
    return out


def to_dense(a: OperatorSum) -> np.ndarray:
    """Dense 2^N x 2^N realization; Hermitian when coefficients are real."""
    if a.n_sites > DENSE_SITE_CAP:
        raise CapacityError(
            f"dense realization of {a.n_sites} sites exceeds cap of {DENSE_SITE_CAP}"
        )
    x, z = pauli_masks(a.terms, a.n_sites)
    coeffs = np.array(list(a.terms.values()), dtype=complex)
    return dense_strings(a.n_sites, x, z, coeffs * string_phases(x, z))[0]
