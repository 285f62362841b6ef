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
gram and v are polynomial in theta) and serves cached per-theta solutions
fast enough to be called once per integrator step.  It solves in reduced
coordinates beta with alpha = q beta: the permutation-orbit sums for
uniform endpoints, the strings themselves otherwise.  Every reduced
solution is checked against the full normal equations.  All linear algebra
here is numpy's.  The tests keep a direct one-system-per-theta solve and
the spectral gauge potential as references (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .model import EndpointParams, dh0_dtheta, h0_at
from .paulis import OperatorSum, commutator, pattern_dense

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


def _i_commutator_real(op_pattern: tuple[str, ...], h: OperatorSum) -> OperatorSum:
    """i [O, H] for a unit-coefficient string O; real for Hermitian inputs."""
    c = commutator(OperatorSum(len(op_pattern), {op_pattern: 1.0}), h)
    return 1.0j * c


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


class AgpSolver:
    """Per-theta variational solutions for a fixed model and ansatz.

    H0(theta) is affine in theta, so C_a(theta) = K0_a + theta * K1_a with
    constant string content; the gram matrix is a quadratic matrix
    polynomial P0 + theta P1 + theta^2 P2 and the target is w0 + theta w1,
    all precomputed here.

    The solver works in reduced coordinates beta, with alpha = q beta for a
    matrix q of orthonormal columns.  For uniform endpoints q spans the
    site-permutation orbit sums (13 columns at N = 6, p = 4 in place of 926
    strings); otherwise q = I and beta is alpha.  Per theta the reduced
    system (q^T P q) beta = q^T w must pass a Cholesky factorization and is
    then solved; the result is checked against the full normal equations,
    g = sum_k theta^k (P_k q) beta - w0 - theta w1, with the m x r products
    P_k q precomputed.  A failed factorization or check falls back to
    minimum-norm least squares on the full system (counted in
    ``fallbacks``).

    The propagator uses the ``reduced_*`` members only:
    H_CD = theta_dot * sum_B beta_B O_B with O_B = sum_a q_aB O_a, and
    ||alpha|| = ||beta||.  Reduced solutions are cached by exact theta value;
    concurrent cache insertion is benign (worst case a duplicate solve).
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
        scale = 2.0 ** n
        h0_base = h0_at(params, 0.0)
        dh0 = dh0_dtheta(params)
        k0 = [_i_commutator_real(pat, h0_base) for pat in basis.strings]
        k1 = [_i_commutator_real(pat, dh0) for pat in basis.strings]

        patterns = sorted(
            set().union(*(op.terms.keys() for op in k0 + k1), dh0.terms.keys())
        )
        col = {pat: i for i, pat in enumerate(patterns)}
        m = basis.size
        b0 = np.zeros((m, len(patterns)))
        b1 = np.zeros((m, len(patterns)))
        for a in range(m):
            for pat, c in k0[a].terms.items():
                b0[a, col[pat]] = c.real
            for pat, c in k1[a].terms.items():
                b1[a, col[pat]] = c.real
        d = np.zeros(len(patterns))
        for pat, c in dh0.terms.items():
            d[col[pat]] = c.real

        self._p0 = scale * (b0 @ b0.T)
        self._p1 = scale * (b0 @ b1.T + b1 @ b0.T)
        self._p2 = scale * (b1 @ b1.T)
        self._w0 = -scale * (b0 @ d)
        self._w1 = -scale * (b1 @ d)

        if params.is_uniform():
            q = _orbit_projector(basis)
            self._q = q
            self._pq = tuple(p @ q for p in (self._p0, self._p1, self._p2))
            self._r = tuple(q.T @ pq for pq in self._pq)
            self._u = (q.T @ self._w0, q.T @ self._w1)
        else:
            self._q = None
            self._pq = self._r = (self._p0, self._p1, self._p2)
            self._u = (self._w0, self._w1)

    @property
    def reduced_stack(self) -> np.ndarray:
        """Imaginary parts of the reduced-coordinate operators O_B, shape (r, 2^N, 2^N).

        Odd-Y strings are i times a real matrix, so O_B = i * reduced_stack[B].
        Built on first use, summed string by string so the full string stack
        is never held.
        """
        if self._stack is None:
            strings = self.basis.strings
            if self._q is None:
                self._stack = np.stack([pattern_dense(pat).imag for pat in strings])
            else:
                dim = 2 ** self.basis.n_sites
                stack = np.zeros((self._q.shape[1], dim, dim))
                for a, b in zip(*np.nonzero(self._q)):
                    stack[b] += self._q[a, b] * pattern_dense(strings[a]).imag
                self._stack = stack
        return self._stack

    def _normal_residual(self, theta: float, beta: np.ndarray) -> float:
        """Norm of the full normal-equation residual P(theta) q beta - w(theta)."""
        p0q, p1q, p2q = self._pq
        g = p0q @ beta + theta * (p1q @ beta) \
            + (theta * theta) * (p2q @ beta) - self._w0 - theta * self._w1
        return float(np.linalg.norm(g))

    def _target_norm(self, theta: float) -> float:
        return float(np.linalg.norm(self._w0 + theta * self._w1))

    def reduced_coefficients(self, theta: float) -> np.ndarray:
        """Reduced solution beta(theta); repeat calls return the same read-only array."""
        theta = float(theta)
        cached = self._cache.get(theta)
        if cached is not None:
            return cached
        r0, r1, r2 = self._r
        u0, u1 = self._u
        r = r0 + theta * (r1 + theta * r2)
        u = u0 + theta * u1
        try:
            # positive-definiteness gate; numpy has no triangular solve that
            # could reuse the factor, so the solve factors again
            np.linalg.cholesky(r)
            beta = np.linalg.solve(r, u)
        except np.linalg.LinAlgError:
            beta = None
        if beta is not None:
            tol = RESIDUAL_RTOL * (1.0 + self._target_norm(theta))
            if not np.isfinite(beta).all() or self._normal_residual(theta, beta) > tol:
                beta = None
        if beta is None:
            gram = self._p0 + theta * self._p1 + (theta * theta) * self._p2
            v = self._w0 + theta * self._w1
            alpha = np.linalg.lstsq(gram, v, rcond=LSTSQ_RCOND)[0]
            beta = alpha if self._q is None else self._q.T @ alpha
            self.fallbacks += 1
        beta = np.ascontiguousarray(beta)
        beta.setflags(write=False)
        self._cache[theta] = beta
        return beta

    def coefficients(self, theta: float) -> np.ndarray:
        """Full-basis solution alpha(theta) = q beta(theta)."""
        beta = self.reduced_coefficients(theta)
        return beta if self._q is None else self._q @ beta
