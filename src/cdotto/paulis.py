"""Exact algebra over N-site Pauli operators.

Operators live as maps from letter patterns (tuples such as
``('X', 'I', 'Z')``) to complex coefficients.  Letter patterns are the
format; every product runs on the binary symplectic form of the strings
(Aaronson & Gottesman, PRA 70, 052328 (2004)): a pattern is i^{#Y} X^x Z^z
for bit masks x (set by X and Y) and z (set by Z and Y), with site 0 the
leading bit as in the Kronecker order, and #Y = popcount(x & z) since
Y = i X Z.  ``commutator`` and ``i_commutator_table`` take the products of
all anticommuting string pairs from one vectorized rule, so no dense matrix
is formed; the table holds i[O_a, H] for a whole list of strings, each
output string keyed by the integer (x << N) | z.  The dense realizations
that propagation and thermal states need are real, as the medium's
operators are: ``dense_strings`` scatters each string's signed permutation,
X^x Z^z |j> = (-1)^{popcount(j & z)} |j XOR x>.

All values are immutable after construction and every operation is a
pure function, so they are safe to share across threads and processes.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import CapacityError, DimensionError, DomainError

#: Coefficients at or below this magnitude are dropped from canonical forms.
PRUNE_TOL = 1e-14

#: Largest site count for which a dense 2^N x 2^N realization is built.
DENSE_SITE_CAP = 12

LETTERS = ("I", "X", "Y", "Z")

def _check_letters(letters: tuple[str, ...]) -> None:
    if not letters:
        raise DimensionError("a Pauli string needs at least one site")
    for s in letters:
        if s not in LETTERS:
            raise ValueError(f"unknown Pauli letter {s!r}")


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


def string_phases(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """i^{#Y} of each string, so that the pattern is i^{#Y} X^x Z^z."""
    return _I_POWERS[_popcount(x & z) % 4]


def _patterns(x: np.ndarray, z: np.ndarray, n_sites: int) -> list[tuple[str, ...]]:
    """Letter patterns of the strings (x, z), the inverse of ``pauli_masks``."""
    bits = np.arange(n_sites - 1, -1, -1)
    codes = ((x[:, None] >> bits) & 1) + 2 * ((z[:, None] >> bits) & 1)
    return [tuple(row) for row in np.array(["I", "X", "Z", "Y"])[codes].tolist()]


def _anticommuting_products(x, z, tx, tz):
    """The products O_a O_t = i^k O_c of every anticommuting pair of strings.

    O_a = (x[a], z[a]) and O_t = (tx[t], tz[t]) anticommute when
    popcount(x_a & z_t) + popcount(z_a & x_t) is odd.  Returns the pairs
    ``(rows, t)`` in row-major order, the product masks ``(xc, zc)`` =
    (x_a ^ x_t, z_a ^ z_t) and the power k = y_a + y_t - y_c +
    2 popcount(z_a & x_t), with y = popcount(x & z): moving Z^{z_a} past
    X^{x_t} gives the sign, and the i^{#Y} of each string the rest.
    """
    odd = (_popcount(x[:, None] & tz) + _popcount(z[:, None] & tx)) & 1
    rows, t = np.nonzero(odd)
    xa, za, xt, zt = x[rows], z[rows], tx[t], tz[t]
    xc, zc = xa ^ xt, za ^ zt
    power = (_popcount(xa & za) + _popcount(xt & zt) - _popcount(xc & zc)
             + 2 * _popcount(za & xt))
    return rows, t, xc, zc, power


def commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """[a, b] = ab - ba in canonical form.

    Only anticommuting string pairs contribute, each as twice their
    product; the pairs are summed term of ``a`` by term of ``b``.
    """
    if a.n_sites != b.n_sites:
        raise DimensionError(f"site counts differ: {a.n_sites} vs {b.n_sites}")
    n = a.n_sites
    rows, t, xc, zc, power = _anticommuting_products(*pauli_masks(a.terms, n),
                                                     *pauli_masks(b.terms, n))
    ca, cb = list(a.terms.values()), list(b.terms.values())
    out: dict = {}
    for i, j, pat, phase in zip(rows.tolist(), t.tolist(), _patterns(xc, zc, n),
                                _I_POWERS[power % 4].tolist()):
        out[pat] = out.get(pat, 0.0 + 0.0j) + 2.0 * ca[i] * cb[j] * phase
    return OperatorSum(n, out)


def i_commutator_table(x: np.ndarray, z: np.ndarray, h: OperatorSum):
    """Every nonzero term of i[O_a, H] for the unit strings O_a = (x[a], z[a]).

    ``h`` must be Hermitian (real coefficients).  Returns ``(rows, keys,
    values)`` ordered by row: i[O_a, H] is the sum of values * (the string
    (x, z) with key (x << N) | z) over the entries with rows == a.  Each
    anticommuting pair gives i[O_a, O_t] = 2i O_a O_t = 2 i^{1 + k} O_c
    (``_anticommuting_products``), a power of i that is even because
    i[O_a, O_t] is Hermitian.  Pairs that commute contribute nothing.
    """
    hx, hz = pauli_masks(h.terms, h.n_sites)
    coeffs = np.array([c.real for c in h.terms.values()])
    rows, t, xc, zc, power = _anticommuting_products(x, z, hx, hz)
    values = 2.0 * coeffs[t] * (1 - (1 + power) % 4)
    return rows, (xc << h.n_sites) | zc, values


def dense_strings(n_sites: int, x: np.ndarray, z: np.ndarray, weights: np.ndarray,
                  slots=None, n_slots: int = 1) -> np.ndarray:
    """Dense sums of weighted X^x Z^z, string s into ``out[slots[s]]`` (default slot 0).

    Each string is a signed permutation, so its 2^N entries are scattered
    straight into place; every entry sums its strings in their given order.
    The phases i^{#Y} are the caller's to fold into the real ``weights``;
    the result is a real (n_slots, 2^N, 2^N) array.

    A slot of one string sums nothing, so all such slots are placed in one
    scatter, as 0.0 + value, which is what a sum from zero gives.  The
    slots of several strings run one at a time.  Either way the index,
    sign and value arrays hold 2^N entries per string placed, not 4^N.
    """
    dim = 1 << n_sites
    slot = np.zeros(len(x), dtype=np.int64) if slots is None else np.asarray(slots)
    counts = np.bincount(slot, minlength=n_slots)
    out = np.empty((n_slots, dim, dim))
    out[counts <= 1] = 0
    j = np.arange(dim)

    def scatter(pick):
        """Flat indices within a block and values of the strings ``pick``, a row each."""
        sign = 1 - 2 * (_popcount(j & z[pick, None]) & 1)
        return (j ^ x[pick, None]) * dim + j, weights[pick, None] * sign

    single = np.flatnonzero(counts[slot] == 1)
    flat, vals = scatter(single)
    out.reshape(n_slots, -1)[slot[single, None], flat] = 0.0 + vals
    order = np.argsort(slot, kind="stable")
    starts = np.searchsorted(slot[order], np.arange(n_slots + 1))
    for k in np.flatnonzero(counts > 1):
        flat, vals = (a.ravel() for a in scatter(order[starts[k]:starts[k + 1]]))
        out[k] = np.bincount(flat, vals, dim * dim).reshape(dim, dim)
    return out


def to_dense(a: OperatorSum) -> np.ndarray:
    """Real 2^N x 2^N realization, symmetric for real coefficients.

    ``DomainError`` unless every weight, coefficient times i^{#Y}, is real.
    """
    if a.n_sites > DENSE_SITE_CAP:
        raise CapacityError(
            f"dense realization of {a.n_sites} sites exceeds cap of {DENSE_SITE_CAP}"
        )
    x, z = pauli_masks(a.terms, a.n_sites)
    weights = np.array(list(a.terms.values()), dtype=complex) * string_phases(x, z)
    if weights.imag.any():
        raise DomainError(f"{a!r} has a complex weight; only real operators are realized")
    return dense_strings(a.n_sites, x, z, weights.real)[0]
