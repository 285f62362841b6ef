"""Variational adiabatic gauge potential for the driven Ising medium.

The control ansatz is the span of all Pauli strings acting on at most p
sites with an odd number of Y letters.  For a candidate A = sum_a alpha_a O_a
the deficiency operator

    G(alpha) = dH0/dtheta + i [A, H0(theta)]

has squared norm S(alpha) = Tr[G^2], a convex quadratic in alpha whose
stationarity condition is the linear system

    gram alpha = v,   gram_ab = Re Tr[C_a C_b],  v_a = -Re Tr[(dH0/dtheta) C_a]

with C_a = i [O_a, H0(theta)] (Sels & Polkovnikov, PNAS 114, E3909 (2017)).
``AgpSolver`` precomputes the theta-dependence (H0 is affine in theta, so
gram and v are polynomial in theta) and solves a whole vector of theta at
once, one chunk of a stroke grid per call, caching each solution by its
theta.  The commutators of all
strings come from one vectorized pass over their binary (x, z) masks
(``cdotto.paulis.i_commutator_table``), as a sparse table of string,
pattern and coefficient.  The solver works in reduced coordinates beta with
alpha = q beta: the permutation-orbit sums for uniform endpoints, the
strings themselves otherwise.  Every reduced solution is checked against
the full normal equations.  All linear algebra here is numpy's.  The tests
keep a direct one-system-per-theta solve, the per-string symbolic build of
the same system and the spectral gauge potential as references
(``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .model import EndpointParams, dh0_dtheta, h0_at
from .paulis import (dense_strings, i_commutator_table, pattern_code, pauli_masks,
                     string_phases)

#: rcond of the minimum-norm least-squares fallback on the full system
LSTSQ_RCOND = 1e-12

#: a reduced solution is kept when the full normal-equation residual is at
#: most this times (1 + ||w(theta)||)
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class AnsatzBasis:
    """Ordered odd-Y Pauli-string basis of maximum weight ``p``."""

    n_sites: int
    p: int
    strings: tuple[tuple[str, ...], ...]

    @property
    def size(self) -> int:
        return len(self.strings)


def build_basis(n_sites: int, p: int) -> AnsatzBasis:
    """All Pauli strings of weight 1..p with an odd number of Y letters.

    Ordering is deterministic: by weight, then lexicographically on the
    letter pattern.  The basis size is sum_w C(N, w) * (3^w - 1) / 2.
    """
    if not 1 <= p <= n_sites:
        raise DomainError(f"ansatz order p={p} outside 1..{n_sites}")
    strings = []
    for w in range(1, p + 1):
        for sites in itertools.combinations(range(n_sites), w):
            for letters in itertools.product("XYZ", repeat=w):
                if letters.count("Y") % 2 == 0:
                    continue
                pat = ["I"] * n_sites
                for site, letter in zip(sites, letters):
                    pat[site] = letter
                strings.append(tuple(pat))
    strings.sort(key=lambda pat: (sum(1 for s in pat if s != "I"), pat))
    return AnsatzBasis(n_sites, p, tuple(strings))


def _orbit_projector(basis: AnsatzBasis) -> np.ndarray:
    """Orthonormal basis of the site-permutation-symmetric coefficient subspace.

    Strings with the same letter multiset form one orbit; for uniform
    endpoint parameters the gram matrix and target commute with the orbit
    action, so the minimum-norm solution lives in this subspace.
    """
    orbits: dict[tuple[str, ...], list[int]] = {}
    for idx, pat in enumerate(basis.strings):
        orbits.setdefault(tuple(sorted(pat)), []).append(idx)
    q = np.zeros((basis.size, len(orbits)))
    for col, members in enumerate(orbits.values()):
        q[members, col] = 1.0 / np.sqrt(len(members))
    return q


def _sparse_matmul(rows, cols, vals, n_rows: int, mat: np.ndarray) -> np.ndarray:
    """M @ mat for the n_rows-row matrix M with entries M[rows, cols] = vals.

    One column at a time, so no temporary grows with the columns of mat.
    """
    return np.stack([np.bincount(rows, vals * col[cols], n_rows) for col in mat.T], axis=1)


def _grams(b0: np.ndarray, b1: np.ndarray, scale: float) -> np.ndarray:
    """P0, P1, P2 of gram(theta) = scale (b0 + theta b1)(b0 + theta b1)^T, stacked."""
    out = np.empty((3, len(b0), len(b0)))
    out[0] = scale * (b0 @ b0.T)
    out[1] = scale * (b0 @ b1.T + b1 @ b0.T)
    out[2] = scale * (b1 @ b1.T)
    return out


class AgpSolver:
    """Per-theta variational solutions for a fixed model and ansatz.

    H0(theta) is affine in theta, so C_a(theta) = K0_a + theta * K1_a with
    constant string content: K0_a = i[O_a, H0(0)] and K1_a = i[O_a, dH0/dtheta]
    have real coefficients b0[a, c] and b1[a, c] over the patterns c that
    occur, and Re Tr[O_c O_c'] = 2^N delta_cc'.  So the gram matrix is the
    quadratic matrix polynomial P0 + theta P1 + theta^2 P2 with
    P(theta) = 2^N (b0 + theta b1)(b0 + theta b1)^T, and the target is
    w0 + theta w1 with w_k = -2^N b_k d for the coefficients d of dH0/dtheta.
    b0 and b1 are built as sparse tables in one vectorized pass over the
    strings' bit masks.

    The solver works in reduced coordinates beta, with alpha = q beta for a
    matrix q of orthonormal columns.  For uniform endpoints q spans the
    site-permutation orbit sums (13 columns at N = 6, p = 4 in place of 926
    strings); the m x r products P_k q = 2^N b_i (b_j^T q) and the targets
    w_k are formed straight from the tables, and no m x m or dense b matrix
    is held.  Otherwise q = I, beta is alpha, and b0, b1 and the P_k are
    dense.

    One path solves every theta: ``reduced_batch`` takes a vector of theta,
    serves those already in the cache and solves the rest together.  Their
    reduced systems (q^T P q) beta = q^T w are stacked, must pass one
    stacked Cholesky factorization and are then solved by one stacked
    ``np.linalg.solve``; each solution is checked against the full normal
    equations, g = sum_k theta^k (P_k q) beta - w0 - theta w1, with the
    residuals of all of them taken as one stacked product with the P_k q.
    If the stacked factorization fails, each theta goes through the same
    path on its own.  A single theta whose factorization or check fails
    falls back to minimum-norm least squares on the full system (counted in
    ``fallbacks``); for uniform endpoints that is the one place the m x m
    gram is formed.  ``reduced_coefficients(theta)`` is the one-theta
    call of the same path.

    The propagator uses the ``reduced_*`` members only:
    H_CD = theta_dot * sum_B beta_B O_B with O_B = sum_a q_aB O_a, and
    ||alpha|| = ||beta||.  Reduced solutions are cached by exact theta
    value, so strokes that share a solver share its solutions.  The cache
    and ``fallbacks`` are updated without a lock: a solver is not meant to
    be shared between threads (each sweep worker process builds its own).
    """

    def __init__(self, params: EndpointParams, basis: AnsatzBasis):
        if params.n_sites != basis.n_sites:
            raise DimensionError("params and basis must share n_sites")
        self.params = params
        self.basis = basis
        self.fallbacks = 0
        self._cache: dict[float, np.ndarray] = {}
        self._stack = None

        n = params.n_sites
        m = basis.size
        self._scale = scale = 2.0 ** n
        self._masks = x, z = pauli_masks(basis.strings, n)
        dh0 = dh0_dtheta(params)
        tables = [i_commutator_table(x, z, h) for h in (h0_at(params, 0.0), dh0)]

        # one column per pattern, in the lexicographic order of the letters,
        # so the dense disordered grams sum in the per-string build's order
        d_codes = pattern_code(*pauli_masks(dh0.terms, n), n)
        # sorted in Python: np.unique imports numpy.ma, and it and np.sort
        # add up to 0.7 MB of peak RSS to a small run
        all_codes = np.concatenate([t[1] for t in tables] + [d_codes])
        codes = np.array(sorted(set(all_codes.tolist())))
        n_pat = self._n_patterns = len(codes)
        self._tables = tuple((rows, np.searchsorted(codes, c), vals) for rows, c, vals in tables)
        d = np.zeros(n_pat)
        d[np.searchsorted(codes, d_codes)] = [c.real for c in dh0.terms.values()]

        if params.is_uniform():
            self._q = q = _orbit_projector(basis)

            def b(k, mat):
                rows, cols, vals = self._tables[k]
                return _sparse_matmul(rows, cols, vals, m, mat)

            b0q, b1q = (_sparse_matmul(cols, rows, vals, n_pat, q)
                        for rows, cols, vals in self._tables)
            self._pq_stack = np.stack([scale * b(0, b0q), scale * (b(0, b1q) + b(1, b0q)),
                                       scale * b(1, b1q)])
            self._w0, self._w1 = (-scale * b(k, d[:, None])[:, 0] for k in (0, 1))
            self._r = tuple(q.T @ self._pq_stack)
            self._u = (q.T @ self._w0, q.T @ self._w1)
        else:
            self._q = None
            b0, b1 = self._dense_tables()
            self._pq_stack = _grams(b0, b1, scale)
            self._r = tuple(self._pq_stack)
            self._w0 = -scale * (b0 @ d)
            self._w1 = -scale * (b1 @ d)
            self._u = (self._w0, self._w1)

    def _dense_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """b0 and b1 as dense (m, patterns) arrays."""
        out = []
        for rows, cols, vals in self._tables:
            b = np.zeros((self.basis.size, self._n_patterns))
            b[rows, cols] = vals
            out.append(b)
        return out[0], out[1]

    @property
    def reduced_stack(self) -> np.ndarray:
        """Imaginary parts of the reduced-coordinate operators O_B, shape (r, 2^N, 2^N).

        Odd-Y strings are i times a real matrix, so O_B = i * reduced_stack[B].
        Built on first use in one scatter of every string's signed
        permutation, weighted by its entry of q, into the slot of its column.
        """
        if self._stack is None:
            x, z = self._masks
            m = self.basis.size
            if self._q is None:
                slots, weights, n_slots = np.arange(m), np.ones(m), m
            else:
                slots = np.nonzero(self._q)[1]
                weights, n_slots = self._q[np.arange(m), slots], self._q.shape[1]
            self._stack = dense_strings(self.basis.n_sites, x, z,
                                        weights * string_phases(x, z).imag, slots, n_slots)
        return self._stack

    def _normal_residual(self, thetas, betas) -> np.ndarray:
        """Norms of the full normal-equation residuals P(theta) q beta - w(theta).

        ``betas`` has the shape of ``thetas`` plus a last axis of r; the
        products of all of them with the P_k q are one stacked matrix product.
        """
        t = np.asarray(thetas, dtype=float)[..., None]
        g0, g1, g2 = betas @ self._pq_stack.transpose(0, 2, 1)
        g = g0 + t * (g1 + t * g2) - self._w0 - t * self._w1
        return np.sqrt(np.vecdot(g, g))

    def _target_norm(self, thetas) -> np.ndarray:
        w = self._w0 + np.asarray(thetas, dtype=float)[..., None] * self._w1
        return np.sqrt(np.vecdot(w, w))

    def _least_squares(self, theta: float) -> np.ndarray:
        """Reduced minimum-norm least-squares solution of the full system at theta."""
        p0, p1, p2 = self._r if self._q is None else _grams(*self._dense_tables(), self._scale)
        gram = p0 + theta * p1 + (theta * theta) * p2
        v = self._w0 + theta * self._w1
        alpha = np.linalg.lstsq(gram, v, rcond=LSTSQ_RCOND)[0]
        return alpha if self._q is None else self._q.T @ alpha

    def _solve(self, thetas: np.ndarray) -> None:
        """Solve the stacked reduced systems of distinct uncached thetas and cache each beta."""
        r0, r1, r2 = self._r
        t = thetas[:, None, None]
        gram = r0 + t * (r1 + t * r2)
        u = self._u[0] + thetas[:, None] * self._u[1]
        try:
            # positive-definiteness gate; numpy has no triangular solve that
            # could reuse the factors, so the solve factors again
            np.linalg.cholesky(gram)
            beta = np.linalg.solve(gram, u[..., None])[..., 0]
        except np.linalg.LinAlgError:
            if len(thetas) > 1:
                for k in range(len(thetas)):
                    self._solve(thetas[k:k + 1])
                return
            beta = np.full(u.shape, np.nan)
        tol = RESIDUAL_RTOL * (1.0 + self._target_norm(thetas))
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite beta fails anyway
            ok = np.isfinite(beta).all(axis=1) & (self._normal_residual(thetas, beta) <= tol)
        if not ok.all():
            for k in np.flatnonzero(~ok):
                beta[k] = self._least_squares(thetas[k])
                self.fallbacks += 1
        # one array per entry, so no entry holds the chunk's arrays alive
        for theta, row in zip(thetas.tolist(), beta):
            row = row.copy()
            row.setflags(write=False)
            self._cache[theta] = row

    def _cached(self, thetas) -> list[np.ndarray]:
        """The cached beta of each theta, after solving the missing ones in one batch."""
        keys = np.asarray(thetas, dtype=float).ravel().tolist()
        missing = [t for t in dict.fromkeys(keys) if t not in self._cache]
        if missing:
            self._solve(np.array(missing))
        return [self._cache[t] for t in keys]

    def reduced_batch(self, thetas) -> np.ndarray:
        """Reduced solutions beta(theta) for a vector of theta, one row each."""
        return np.array(self._cached(thetas))

    def reduced_coefficients(self, theta: float) -> np.ndarray:
        """Reduced solution beta(theta); repeat calls return the same read-only array."""
        return self._cached([theta])[0]

    @property
    def cache_size(self) -> tuple[int, int]:
        """Entries and bytes of the per-theta cache (every entry holds r floats)."""
        return len(self._cache), len(self._cache) * self._u[0].nbytes

    def coefficients(self, theta: float) -> np.ndarray:
        """Full-basis solution alpha(theta) = q beta(theta)."""
        beta = self.reduced_coefficients(theta)
        return beta if self._q is None else self._q @ beta
