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
gram is quadratic in theta and v constant: [H0(theta), dH0/dtheta] is
[H0(0), dH0/dtheta]) and solves a whole vector of theta at once, one
block of a stroke grid per call, and keeps none of the solutions.  As the
gram is quadratic in theta, beta(theta) is a rational function whose 2r
poles are the eigenvalues of one 2r x 2r companion matrix (Tisseur &
Meerbergen, SIAM Rev. 43, 235 (2001)): one eigendecomposition per solver
then gives each theta's solution at O(r^2), the same solution rather than
an approximation.
The commutators of all strings come from one vectorized pass over
their binary (x, z) masks (``cdotto.paulis.i_commutator_table``), as a
sparse table of string, pattern and coefficient.  The solver builds and
solves in reduced coordinates beta only, with alpha = q beta, q given by
a partition of the strings into orbits (``orbit_partition``): uniform and
disordered endpoints take the same build and differ only in that
partition.  Every reduced solution is checked against the reduced normal
equations, whose residual has the norm of the full one.  All linear
algebra here is numpy's.  The tests keep a direct
one-system-per-theta solve, the per-string symbolic build of the same
system and the spectral gauge potential as references
(``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .model import EndpointParams, dh0_dtheta, h0_at
from .paulis import dense_strings, i_commutator_table, pauli_masks, string_phases

#: rcond of the minimum-norm least-squares fallback on the reduced system
LSTSQ_RCOND = 1e-12

#: a reduced solution is kept when its normal-equation residual is at most
#: this times (1 + ||u||)
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


def orbit_partition(params: EndpointParams, basis: AnsatzBasis) -> tuple[np.ndarray, np.ndarray]:
    """Orbit and weight of each string, the one nonzero entry q[a, slots[a]] = weights[a].

    For uniform endpoints the gram matrix and the target commute with site
    permutations, so the minimum-norm solution is a sum over the orbits of
    strings with one letter multiset, each string weighted 1/sqrt(orbit
    size).  Otherwise each string is its own orbit and q = I.  Orbits are
    numbered in the order of their first strings.
    """
    uniform = params.is_uniform()
    first: dict[tuple[str, ...], int] = {}
    slots = np.array([first.setdefault(tuple(sorted(pat)) if uniform else pat, len(first))
                      for pat in basis.strings])
    return slots, 1.0 / np.sqrt(np.bincount(slots)[slots])


def _endpoint_weights(thetas) -> np.ndarray:
    """((1 - t)^2, t (1 - t), t^2) for each theta t, on a last axis."""
    t = np.asarray(thetas, dtype=float)[..., None]
    s = 1.0 - t
    return np.concatenate([s * s, t * s, t * t], axis=-1)


class AgpSolver:
    """Per-theta variational solutions for a fixed model and ansatz.

    H0(theta) = (1 - theta) H0(0) + theta H0(1), so
    C_a(theta) = (1 - theta) K0_a + theta K1_a with K0_a = i[O_a, H0(0)] and
    K1_a = i[O_a, H0(1)], whose real coefficients b0[a, c] and b1[a, c] over
    the patterns c that occur are the sparse tables of one vectorized pass
    over the strings' bit masks.  As Re Tr[O_c O_c'] = 2^N delta_cc', the
    gram matrix is (1 - theta)^2 P0 + theta (1 - theta) P1 + theta^2 P2 with
    P0 = 2^N b0 b0^T, P1 = 2^N (b0 b1^T + b1 b0^T), P2 = 2^N b1 b1^T.  The
    weights of this endpoint form are nonnegative on [0, 1]; the terms of
    the power form cancel, and their rounding moved ill-conditioned
    solutions several times as far.  The target w = -2^N b0 d, for the
    coefficients d of dH0/dtheta, is one vector (b1 d = b0 d, as
    H0(theta) - H0(0) commutes with dH0/dtheta), so the tolerance of the
    residual check below is fixed at build.

    The solver works in reduced coordinates beta, with alpha = q beta for
    the q of orthonormal columns that ``orbit_partition`` gives as a slot
    and a weight per string: the site-permutation orbit sums for uniform
    endpoints (13 columns at N = 6, p = 4 in place of 926 strings), one
    string per orbit (q = I) otherwise.  The build forms the patterns x r
    matrices X_k = b_k^T q in one bincount each and, from them alone,
    R0 = 2^N X0^T X0, R1 = 2^N (X0^T X1 + X1^T X0), R2 = 2^N X1^T X1 (that
    is, q^T P_k q) and u = q^T w = -2^N X0^T d.  No dense b matrix is
    formed, and no m-sized product: the solver holds (3, r, r) and (r,).

    ``reduced_batch`` solves the reduced systems R(theta) beta = u, with
    R(theta) = q^T P(theta) q, for a vector of theta.  Its first rung is a
    spectral factorization of the pencil, built once on first use (or by
    ``factorize``, which ``cycle.run_cycle`` calls before the dense
    states): with t = theta - 1/2, R(theta) = Gc + t G1 + t^2 K2, and one
    ``eig`` of a companion matrix gives R(theta)^-1 = V_top (I + t Lambda)^-1 Y
    in real factors (``_pencil_factors``).  Each theta costs a few products
    with r x 2r factors and two refinements against the residual
    R(theta) beta - u.  The thetas of a call are one block, and each of
    these products, the residual check's included, is one matrix-matrix
    product over the block's rows.  So a solution depends on its block in
    the last bits, as the order of a product's sums depends on its shape:
    on a 1000-theta grid, one block against one theta per call differed by
    up to 8.5e-8 (|beta| up to 65, near a pole) at disordered N = 4, p = 4
    and by 1.5e-12 at N = 5, p = 3 (``tests/test_model.disordered_params``),
    inside the residual check either way.  The same block gives the same
    bits on every call.  Every solution is checked against that residual:
    ||R(theta) beta - u|| <= ``RESIDUAL_RTOL`` (1 + ||u||).  The check is
    the full one, g = P(theta) q beta - w: for disordered endpoints q = I,
    and for uniform ones P(theta) commutes with site permutations and
    q beta and w are invariant, so g lies in the orbit span for every beta
    and ||g|| = ||q^T g||, as ||w|| = ||u||.  A theta that fails the
    check, or every theta when no factorization could be built (Gc = R(1/2)
    not positive definite, as at endpoints with a zero gram there), takes
    the direct path on its own (``_direct``, counted in
    ``direct_solves``): a Cholesky gate, ``np.linalg.solve`` and the same
    check.  Where that fails too, it falls back to minimum-norm least
    squares on the reduced system (counted in ``fallbacks``).  That is the
    full system's minimum-norm solution: for disordered endpoints q = I,
    and for uniform ones P and w commute with site permutations, so
    P q = q R, the range of P lies in the orbit span, and so does the
    minimum-norm alpha, which is q beta.

    The propagator uses the ``reduced_*`` members only:
    H_CD = theta_dot * sum_B beta_B O_B with O_B = sum_a q_aB O_a, and
    ||alpha|| = ||beta||.  The solver holds no per-theta state; only the
    counters, the factorization and the lazily built ``reduced_stack``
    change after build, without a lock: a solver is not meant to be shared
    between threads (each sweep worker process builds its own).
    """

    def __init__(self, params: EndpointParams, basis: AnsatzBasis):
        if params.n_sites != basis.n_sites:
            raise DimensionError("params and basis must share n_sites")
        self.params = params
        self.basis = basis
        self.fallbacks = self.direct_solves = 0
        self.factor_s = self._pencil = self._stack = None

        n = params.n_sites
        self._masks = x, z = pauli_masks(basis.strings, n)
        dh0 = dh0_dtheta(params)
        tables = [i_commutator_table(x, z, h0_at(params, t)) for t in (0.0, 1.0)]

        # one row per pattern that occurs, keyed as the tables key them;
        # sorted in Python: np.unique imports numpy.ma, and it and np.sort
        # add up to 0.7 MB of peak RSS to a small run
        dx, dz = pauli_masks(dh0.terms, n)
        d_codes = (dx << n) | dz
        all_codes = np.concatenate([t[1] for t in tables] + [d_codes])
        codes = np.array(sorted(set(all_codes.tolist())))

        self._slots, self._weights = orbit_partition(params, basis)
        r = self._n_orbits = int(self._slots.max()) + 1
        # X_k = b_k^T q, one bincount each
        x0, x1 = (np.bincount(np.searchsorted(codes, c) * r + self._slots[rows],
                              vals * self._weights[rows], len(codes) * r).reshape(-1, r)
                  for rows, c, vals in tables)
        # R_k written in place, X0^T X1 held in r[2] until R2 replaces it:
        # the build's transient sets the peak RSS of a disordered point
        self._r = np.empty((3, r, r))
        np.matmul(x0.T, x0, out=self._r[0])
        np.matmul(x0.T, x1, out=self._r[2])
        np.add(self._r[2], self._r[2].T, out=self._r[1])
        np.matmul(x1.T, x1, out=self._r[2])
        scale = 2.0 ** n
        self._r *= scale
        # v_a = -Re Tr[dH0 C_a(theta)] and [H0(theta), dH0] = [H0(0), dH0]: one target
        d = np.array([c.real for c in dh0.terms.values()])
        self._u = -scale * (d @ x0[np.searchsorted(codes, d_codes)])
        self._tol = RESIDUAL_RTOL * (1.0 + np.linalg.norm(self._u))

    @property
    def reduced_stack(self) -> np.ndarray:
        """Imaginary parts of the reduced-coordinate operators O_B, shape (r, 2^N, 2^N).

        Odd-Y strings are i times a real matrix, so O_B = i * reduced_stack[B].
        Built on first use in one scatter of every string's signed
        permutation, weighted by its entry of q, into the slot of its orbit.
        """
        if self._stack is None:
            x, z = self._masks
            self._stack = dense_strings(self.basis.n_sites, x, z,
                                        self._weights * string_phases(x, z).imag,
                                        self._slots, self._n_orbits)
        return self._stack

    def _residual(self, weights, betas) -> np.ndarray:
        """R(theta) beta - u for each theta, given its ``_endpoint_weights``.

        ``weights`` is (n, 3) and ``betas`` (n, r), or (3,) and (r,) for
        one theta.  The block's R_k beta are three matrix-matrix products
        with the held R_k, read as they are since each is exactly symmetric.
        """
        rk = betas @ self._r
        return (weights.T[..., None] * rk).sum(axis=0) - self._u

    def _passes(self, weights, betas) -> np.ndarray:
        """Whether each solution is finite and its residual at most ``_tol``."""
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite beta fails anyway
            res = self._residual(weights, betas)
            return np.isfinite(betas).all(axis=-1) & (np.sqrt(np.vecdot(res, res)) <= self._tol)

    def factorize(self) -> None:
        """Build the spectral factorization of the reduced gram pencil, once per solver.

        ``factor_s`` records the build's wall time.  A build that fails
        (``_pencil_factors`` raises ``LinAlgError``) leaves no factorization,
        and every theta then takes the direct path.
        """
        if self.factor_s is not None:
            return
        t0 = time.perf_counter()
        try:
            self._pencil = self._pencil_factors()
        except np.linalg.LinAlgError:
            self._pencil = None
        self.factor_s = time.perf_counter() - t0

    def _pencil_factors(self):
        """Real factors of R(theta)^-1 = V_top (I + t Lambda)^-1 Y, t = theta - 1/2.

        R(theta) = Gc + t G1 + t^2 K2 = Gc (I + t A + t^2 B), and the top
        left r x r block of (I + t C)^-1, C = [[A, B], [-I, 0]], is
        (I + t A + t^2 B)^-1.  One ``eig`` of C gives C = V Lambda V^-1.
        Each complex pair a +- ib, v = p +- iq becomes the columns (p, q)
        and the block [[a, b], [-b, a]] of a real Lambda, so V_top (r x 2r)
        and Y = (V^-1)[:, :r] Gc^-1 (2r x r) are real.  Returns V_top^T,
        Y^T, Y u, the diagonal a of Lambda, its off-diagonal coupling c (-b,
        +b within a pair, 0 for a real eigenvalue) and each column's
        partner.  Raises ``LinAlgError`` when Gc is not positive definite,
        an eigenvalue is left unpaired or a factor is not finite.
        """
        r = self._n_orbits
        r0, r1, r2 = self._r
        gc = 0.25 * (r0 + r1 + r2)
        np.linalg.cholesky(gc)  # a singular Gc (a zero gram at theta = 1/2) has no factors
        comp = np.zeros((2 * r, 2 * r))
        comp[:r, :r] = r2 - r0
        comp[:r, r:] = r0 - r1 + r2
        comp[:r] = np.linalg.solve(gc, comp[:r])
        comp[r:, :r] = -np.eye(r)
        mu, vecs = np.linalg.eig(comp)
        # each 2r x 2r array goes as soon as it is used: the build's transient
        # sets the peak RSS of a disordered point
        del comp
        # LAPACK returns each complex pair as neighbours, positive imaginary part first
        first = np.flatnonzero(mu.imag > 0)
        second = first + 1
        if (2 * len(first) != np.count_nonzero(mu.imag) or second.max(initial=0) >= 2 * r
                or np.any(mu[second] != mu[first].conj())):
            raise np.linalg.LinAlgError("eigenvalues of the gram pencil left unpaired")
        partner = np.arange(2 * r)
        partner[first], partner[second] = second, first
        coupling = np.zeros(2 * r)
        coupling[first], coupling[second] = -mu[first].imag, mu[first].imag
        v = vecs.real.copy()
        v[:, second] = vecs[:, first].imag
        del vecs
        x = np.linalg.solve(v, np.eye(2 * r, r))  # (V^-1)[:, :r]
        vt = np.ascontiguousarray(v[:r].T)
        del v
        yt = np.linalg.solve(gc, x.T)  # Y^T = Gc^-1 X^T, as Gc is symmetric
        yu, a = self._u @ yt, mu.real.copy()
        if not all(np.isfinite(f).all() for f in (vt, yt, yu, a, coupling)):
            raise np.linalg.LinAlgError("non-finite factors of the gram pencil")
        return vt, yt, yu, a, coupling, partner

    def _spectral_batch(self, thetas: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Spectral solutions, refined twice against the reduced residual R(theta) beta - u.

        Near a pole of beta(theta) the unrefined solution is off by up to
        about 5e-5 (relative), and one refinement leaves about its square;
        the second brings it to the rounding floor of the residual, at
        which the direct solve also stops (disordered N = 4, p = 4).
        The thetas are one block: each product is a matrix-matrix product
        over all its rows.
        """
        vt, yt, yu, a, coupling, partner = self._pencil
        t = thetas[:, None] - 0.5
        diag, off = 1.0 + t * a, t * coupling
        # the 2 x 2 blocks [[d, o], [-o, d]] of I + t Lambda inverted in closed form
        den = diag * diag + off * off
        diag, off = diag / den, off / den

        def apply(z):
            """V_top (I + t Lambda)^-1 z for each theta, z one row per theta or one for all."""
            return (diag * z + off * z[..., partner]) @ vt

        beta = apply(yu)
        for _ in range(2):
            beta = beta - apply(self._residual(weights, beta) @ yt)
        return beta

    def _gram(self, theta: float) -> np.ndarray:
        """The reduced gram matrix R(theta)."""
        return (_endpoint_weights(theta) @ self._r.reshape(3, -1)).reshape(self._r.shape[1:])

    def _direct(self, theta: float) -> np.ndarray:
        """The reduced system at one theta: a checked Cholesky-gated solve, else least squares."""
        self.direct_solves += 1
        gram = self._gram(theta)
        try:
            # positive-definiteness gate; numpy has no triangular solve that
            # could reuse the factors, so the solve factors again
            np.linalg.cholesky(gram)
            beta = np.linalg.solve(gram, self._u)
            if self._passes(_endpoint_weights(theta), beta):
                return beta
        except np.linalg.LinAlgError:
            pass
        self.fallbacks += 1
        return self._least_squares(theta)

    def _least_squares(self, theta: float) -> np.ndarray:
        """Minimum-norm least-squares solution of the reduced system at theta."""
        return np.linalg.lstsq(self._gram(theta), self._u, rcond=LSTSQ_RCOND)[0]

    def reduced_batch(self, thetas) -> np.ndarray:
        """Reduced solutions beta(theta) for a vector of theta, one row each.

        The thetas are solved as one block.  Spectral solutions first; a
        theta whose solution fails the residual check, or every theta when
        the solver has no factorization, takes the direct path on its own.
        """
        thetas = np.asarray(thetas, dtype=float).ravel()
        weights = _endpoint_weights(thetas)
        self.factorize()
        if self._pencil is None:
            beta, ok = np.empty((len(thetas), self._n_orbits)), np.zeros(len(thetas), bool)
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                beta = self._spectral_batch(thetas, weights)
            ok = self._passes(weights, beta)
        for k in np.flatnonzero(~ok):
            beta[k] = self._direct(thetas[k])
        return beta

    def coefficients(self, theta: float) -> np.ndarray:
        """Full-basis solution alpha(theta) = q beta(theta)."""
        return self._weights * self.reduced_batch([theta])[0][self._slots]
