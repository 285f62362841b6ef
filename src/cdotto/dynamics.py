"""Unitary stroke propagation, thermal states and observables.

The propagator is the midpoint exponential: per step the full Hamiltonian
(medium plus control) is frozen at the interval midpoint and exponentiated,
U_k = exp(-i H(t_k + dt/2) dt), by a Taylor series whose dropped tail is
below unit roundoff (``_step_unitaries``), so every step is unitary and
trace and purity are conserved to roundoff.  hbar = 1.

A stroke steps in the smallest space its data allows.  With uniform
endpoints H0, the orbit-summed control term and a permutation-symmetric
state act alike on every copy of a collective-spin block, so the stroke
runs on one copy of each (``cdotto.collective``) and weights its traces by
the block multiplicities; otherwise it runs on the full 2^N space with unit
weights.  The step itself is the same in both.

The step loop carries the prefix propagator P_k = U_k ... U_0, not the
state: with c the trapezoid weights and D the trace weights, W_0 is
dt Re Tr[rho_0 M], M = sum_k c_k theta_dot_k P_{k-1}^dagger D dH0/dtheta
P_{k-1} (P_{-1} = I).  The loop only sweeps theta from 0 to 1
(``SweepSpec``); the compression stroke is the time reverse of a sweep of S
steps, theta(tau - t).  H0 and the Gibbs states are real (``to_dense``
realizes real operators only), and the control term is i theta_dot times a
real antisymmetric matrix, so its step j is U_{S-1-j}^T: from rho_c it ends
in V^T rho_c conj(V), V = P_{S-1}, with W_0 = -dt Re Tr[V^dagger rho_c^T V M].

The gauge potential does not depend on the state, so its solve runs apart
from the steps.  The stroke's midpoints are solved in blocks of B
consecutive thetas from the grid's start, one ``AgpSolver.reduced_batch``
call each, whose products are matrix-matrix products over the block's
rows; B depends on r alone (``_solve_rows``), so each theta's block and
with it its solution's last bits are fixed by (steps, r).  The steps run
in chunks of K: per chunk one product with the stack of control operators
assembles the K Hamiltonians from their solutions, and one
``_step_unitaries`` call, stacked matrix products only, gives the K step
unitaries; only P <- U P runs step by step, and two products add the
chunk's terms to M.  K and B are bounded in bytes, not in steps: the K
steps' dense matrices, and the B thetas' r-long work vectors (r the
solver's reduced coordinates), must each fit in ``CHUNK_BYTES``.  So
small spaces take whole strokes in a few chunks and blocks, a uniform
N = 6, p = 4 stroke (13 orbits) takes 18 steps per chunk and 315 thetas
per block, and a disordered N = 5, p = 3 stroke (175 strings) four steps
per chunk and 23 thetas per block.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .agp import AgpSolver
from .collective import collective_basis
from .errors import DimensionError, DomainError, NumericalError
from .model import EndpointParams, SweepSpec, dh0_dtheta, h0_at
from .paulis import OperatorSum, to_dense

#: Propagation refuses grids coarser than this many steps per stroke.
MIN_STEPS = 100

#: largest entry of |P rho P^T - rho|, over the swaps P of neighbouring
#: sites, that still counts a start state rho as permutation-symmetric
SYMMETRY_TOL = 1e-12

#: bytes of per-step work arrays one chunk of a stroke may hold; a chunk
#: runs max(1, CHUNK_BYTES // _step_bytes(...)) steps
CHUNK_BYTES = 1 << 19

#: the layers of a stroke whose wall time the diagnostics report, in step order;
#: ``conjugate_s`` is the product P <- U P and ``trace_s`` the sum M
LAYERS = ("solve_s", "assemble_s", "step_u_s", "conjugate_s", "trace_s")


def _step_bytes(dim: int) -> int:
    """Work-array bytes of one step of a chunk in a dim x dim space.

    Seven complex dim x dim matrices, the most that live at once: in
    ``_step_unitaries``, the Hamiltonian, the powers X .. X^q (q = 4 at the
    largest degree, m = 15), the running sum and either its product with
    X^q or one coefficient block.  A chunk drops its arrays at its end, so
    none of them meets the next chunk's powers; its assembly before the
    step unitaries and its products after them hold fewer.  Nothing of the
    solver counts, as its solve runs in blocks of its own (``_solve_rows``).
    """
    return 7 * 16 * dim * dim


@functools.cache
def _taylor_blocks(m: int) -> np.ndarray:
    """The 1/i! of the degree-m Taylor polynomial as Paterson-Stockmeyer blocks.

    Row j holds 1/(jq + i)! for i < q, q = isqrt(m) + 1, zero past degree
    m: the (m // q + 1, q) coefficient table of ``_step_unitaries``, made
    once per degree and read-only.
    """
    q = math.isqrt(m) + 1
    coef = np.zeros((m // q + 1) * q)
    coef[:m + 1] = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, m + 1)])
    coef = coef.reshape(-1, q)
    coef.setflags(write=False)
    return coef


def _step_unitaries(h: np.ndarray, dt: float) -> np.ndarray:
    """The step unitaries exp(-i dt H_k) of a (K, d, d) stack of Hamiltonians.

    A truncated Taylor series with scaling and squaring, made of matrix
    products only: with nu the stack's largest 1-norm of dt H_k, X = -i dt
    H_k / 2^s for the smallest s with nu / 2^s <= 1/2, and m the smallest
    degree whose term bound (nu / 2^s)^(m+1) / (m+1)! is at most 2^-56, the
    degree-m polynomial of X is summed by Paterson-Stockmeyer and squared s
    times.  With the powers X .. X^q, q = isqrt(m) + 1, Horner in X^q runs
    over the r + 1 = m // q + 1 coefficient blocks sum_{i<q} X^i / (jq+i)!
    (``_taylor_blocks``), each one ``np.dot`` of the powers.  The dropped
    tail is below 1.2 * 2^-56 before the squarings, and p(X)^T = p(X^T),
    so the stack of the H_k^T gives the transposed unitaries.  Steps with non-finite
    entries do not enter nu and come out non-finite.
    """
    norms = np.abs(h).sum(axis=1).max(axis=1)
    nu = dt * float(np.max(norms, initial=0.0, where=np.isfinite(norms)))
    s = 0
    while nu > 0.5:
        nu, s = 0.5 * nu, s + 1
    m, term = 0, nu
    while term > 2.0 ** -56:
        m, term = m + 1, term * nu / (m + 2)
    coef = _taylor_blocks(m)
    r, q = coef.shape[0] - 1, coef.shape[1]
    k, d = h.shape[:2]
    powers = np.empty((q, k, d, d), dtype=complex)
    np.multiply(h, -1j * dt * 0.5 ** s, out=powers[0])
    for j in range(1, q):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    u = np.zeros((k, d, d), dtype=complex)
    for j in range(r, -1, -1):
        if j < r:
            u = u @ powers[q - 1]
        # the np.dot that np.tensordot(coef[j, 1:], powers[:q - 1], 1) makes, same bits
        u += np.dot(coef[j, 1:].reshape(1, q - 1),
                    powers[:q - 1].reshape(q - 1, k * d * d)).reshape(k, d, d)
        u.reshape(k, d * d)[:, ::d + 1] += coef[j, 0]
    for _ in range(s):
        u = u @ u
    return u


def _solve_rows(r: int) -> int:
    """Thetas per block of a stroke's AGP solve, for a solver of r reduced coordinates.

    The block's work arrays, about sixteen r-long vectors per theta (the
    2r-long vectors of the companion solve, or the pairs of r-long ones,
    one per class of the grading, that a graded solve holds in their
    place, and the three R_k beta of the residual), must fit in
    ``CHUNK_BYTES``: 23 thetas at r = 175, the whole of a 1000-step stroke
    at r <= 4.
    """
    return max(1, CHUNK_BYTES // (8 * 16 * r))


def _re_trace_product(rho: np.ndarray, mat: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", rho, mat).real)


class _FullSpace:
    """The 2^N space itself: W = I and unit trace weights."""

    def __init__(self, dim: int):
        self.weights = np.ones(dim)

    @staticmethod
    def project(mat: np.ndarray) -> np.ndarray:
        return mat


def _stroke_space(params: EndpointParams, *states: np.ndarray):
    """One occurrence of each collective-spin block if the data allow it, else the full space.

    Each state must pass every swap of neighbouring sites, a transpose of its
    (2,) * 2N axes; the swaps generate all site permutations (Schur-Weyl).
    """
    n = params.n_sites
    tensors = [rho.reshape((2,) * (2 * n)) for rho in states]
    if params.is_uniform() and all(
            np.abs(t.swapaxes(j, j + 1).swapaxes(n + j, n + j + 1) - t).max() <= SYMMETRY_TOL
            for t in tensors for j in range(n - 1)):
        return collective_basis(n)
    return _FullSpace(2 ** n)


def check_state(m: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Trace Tr[D m] and purity Tr[D m m] of a state m with trace weights D.

    ``DomainError`` unless m is Hermitian to 1e-12, the trace is within
    1e-10 of 1, no eigenvalue is below -1e-10 and the purity is in
    (0, 1 + 1e-10]: the checks of the 2^N state that repeats each block of
    a collective-space m d_S times (an orthogonal change of basis).
    """
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise DomainError("density matrix is not Hermitian to 1e-12")
    trace = weights @ np.diagonal(m)
    if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > 1e-10:
        raise DomainError("density matrix trace differs from 1 by more than 1e-10")
    if np.linalg.eigvalsh(m).min() < -1e-10:
        raise DomainError("density matrix has an eigenvalue below -1e-10")
    purity = float(np.vdot(m, weights[:, None] * m).real)
    if not 0.0 < purity <= 1.0 + 1e-10:
        raise DomainError(f"purity {purity} outside (0, 1]")
    return float(trace.real), purity


@dataclass(frozen=True)
class DensityMatrix:
    """Validated working-medium state: Hermitian, unit trace, positive; a real state stays real."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 ** self.n_sites
        m = np.asarray(self.matrix)
        m = m.astype(np.promote_types(m.dtype, float))
        if m.shape != (dim, dim):
            raise DimensionError(f"matrix shape {m.shape} does not match {self.n_sites} sites")
        check_state(m, np.ones(dim))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def thermal_state(h: OperatorSum, temperature: float) -> tuple[np.ndarray, np.ndarray, DensityMatrix]:
    """The spectrum of H, its Boltzmann populations and the Gibbs state exp(-H/T)/Z.

    One ``eigh`` of the real dense H gives all three: the eigenvalues in
    ascending order, their populations exp(-E/T)/Z with the exponents
    shifted by the lowest energy to avoid overflow, and the real state built
    from the eigenvectors, which commutes with H by construction and is
    validated as a ``DensityMatrix``.  The dense H lives only through the
    ``eigh`` call, and the eigenvectors and the unsymmetrized state are
    dropped before the validation: holding the dense H through the build,
    or the unsymmetrized state through the validation, raised the peak RSS
    of a uniform N = 10 point by about 7 MB.
    """
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    energies, vecs = np.linalg.eigh(to_dense(h))
    populations = np.exp(-(energies - energies.min()) / temperature)
    populations /= populations.sum()
    rho = (vecs * populations) @ vecs.T
    del vecs
    rho = 0.5 * (rho + rho.T)
    return energies, populations, DensityMatrix(h.n_sites, rho)


def gibbs_state(h: OperatorSum, temperature: float) -> DensityMatrix:
    """Thermal state exp(-H/T)/Z: the state of ``thermal_state``."""
    return thermal_state(h, temperature)[2]


@dataclass(frozen=True)
class StrokeDiagnostics:
    steps: int
    trace_drift: float
    purity_drift: float
    #: squared Frobenius norm of the control Hamiltonian at the interval
    #: midpoints, padded with its zeros at the stroke ends, and the times
    #: of those samples; the control cost is their quadrature
    hcd_times: np.ndarray
    hcd_norm_sq: np.ndarray
    agp_fallbacks: int
    #: theta values the solver's spectral solve handed to its direct path
    agp_direct: int
    #: wall seconds spent in each of ``LAYERS``
    layer_s: dict


@dataclass(frozen=True)
class StrokeResult:
    """One isentropic stroke: final state, endpoint energies and work split.

    ``final_state`` is the state as the stroke holds it, read-only: 2^N x
    2^N in the full space, R x R in the collective one (``cdotto.collective``),
    whose traces weight each block by its multiplicity.
    ``w_sta`` is the endpoint energy difference under the full driven
    Hamiltonian (the control term vanishes at both stroke ends), ``w_0``
    the trapezoid quadrature of Tr[rho dH0/dtheta] theta_dot on the step
    grid, and ``w_cd = w_sta - w_0`` exactly by construction.  ``reverse``
    is the time-reversed sweep when one was asked for (``propagate_stroke``).
    """

    final_state: np.ndarray
    w_sta: float
    w_0: float
    w_cd: float
    e_start: float
    e_end: float
    diagnostics: StrokeDiagnostics
    reverse: "StrokeResult | None" = None


def propagate_stroke(rho0: DensityMatrix, params: EndpointParams, sweep: SweepSpec,
                     cd=None, steps: int = 2000,
                     reverse_from: DensityMatrix | None = None) -> StrokeResult:
    """Drive the state through one stroke of the cycle.

    ``cd`` selects the control: None runs the bare non-adiabatic sweep, an
    ``AgpSolver`` (for the same parameters) drives it.  The control term is
    assembled in the solver's reduced coordinates,
    H_CD = theta_dot * sum_B beta_B O_B, and its squared Frobenius norm is
    2^N theta_dot^2 ||beta||^2; uniform and disordered endpoints differ only
    in the size of beta.  The diagnostics carry that norm at the interval
    midpoints for the control-cost quadrature, and the wall time of each
    layer (``LAYERS``): the block solves, then the chunked step.  The
    control device's work is the remainder ``w_cd = w_sta - w_0``; the
    tests check it against an independent quadrature of Tr[rho dH_CD/dt]
    (``tests/oracles.py``).

    Given ``reverse_from``, the result's ``reverse`` is the time-reversed
    sweep, theta from 1 to 0, started from that state.  It has no solve,
    assembly or exponential of its own (module docstring): its control norms
    are the forward ones reversed, and it reports no fallbacks, direct solves
    or layer time, which stay with the forward result.
    The generators and states are projected once onto the stroke's space,
    where ``check_state`` checks the final state and the start (the drifts).
    """
    starts = (rho0,) if reverse_from is None else (rho0, reverse_from)
    if any(rho.n_sites != params.n_sites for rho in starts):
        raise DimensionError("state and parameters differ in n_sites")
    if steps < MIN_STEPS:
        raise DomainError(f"steps={steps} below the minimum of {MIN_STEPS}")

    solver = cd
    if solver is not None:
        if not isinstance(solver, AgpSolver):
            raise TypeError("cd must be None or an AgpSolver")
        if solver.params != params:
            raise ValueError("solver was built for different endpoint parameters")

    n = params.n_sites
    dt = sweep.duration / steps
    grid = sweep.grid(steps)

    space = _stroke_space(params, *(rho.matrix for rho in starts))
    d0 = np.ascontiguousarray(space.project(to_dense(h0_at(params, 0.0))))
    dd = np.ascontiguousarray(space.project(to_dense(dh0_dtheta(params))))

    def solver_counts():
        """The solver's (fallbacks, direct solves) so far."""
        return (solver.fallbacks, solver.direct_solves) if solver is not None else (0, 0)

    counts_before = solver_counts()
    # the weights are constant on each block, so they commute with every
    # generator; traces are taken against the weighted ones
    d0w = space.weights[:, None] * d0
    ddw = space.weights[:, None] * dd

    # c_i theta_dot_i, the trapezoid weights of the W_0 samples
    rates = grid.theta_dot * np.r_[0.5, np.ones(steps - 1), 0.5]
    m_sum = rates[0] * ddw.astype(complex)
    # the control term vanishes exactly at the stroke ends because the sweep rate does
    hcd_norm_sq = np.zeros(steps + 2)

    dim = d0.shape[0]
    prop = np.eye(dim, dtype=complex)
    chunk = max(1, CHUNK_BYTES // _step_bytes(dim))
    if solver is not None:
        r = solver.reduced_stack.shape[0]
        stack = space.project(solver.reduced_stack).reshape(r, dim * dim)
        rows = _solve_rows(r)
        # blocks of `rows` midpoints from the grid's start, so they depend on
        # (steps, r) alone; `solved` holds the solved steps not yet stepped
        blocks = (solver.reduced_batch(grid.theta_mid[b:b + rows]) for b in range(0, steps, rows))
        solved = np.empty((0, r))
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        th = grid.theta_mid[start:stop]
        t0 = time.perf_counter()
        if solver is not None:
            while len(solved) < stop - start:
                solved = np.concatenate((solved, next(blocks)))
            beta, solved = solved[:stop - start], solved[stop - start:]
        t1 = time.perf_counter()
        h = d0 + th[:, None, None] * dd
        if solver is not None:
            td = grid.theta_dot_mid[start:stop]
            hcd_norm_sq[start + 1:stop + 1] = (td * td) * 2.0 ** n * np.vecdot(beta, beta)
            h_cd = np.empty(h.shape, dtype=complex)
            h_cd.real = h
            h_cd.imag = (td[:, None] * (beta @ stack)).reshape(h.shape)
            h = h_cd
        t2 = time.perf_counter()
        u = _step_unitaries(h, dt)
        t3 = time.perf_counter()
        props = np.empty(u.shape, dtype=complex)
        for j in range(stop - start):
            prop = props[j] = u[j] @ prop
        finite = np.isfinite(props).all(axis=(1, 2))
        if not finite.all():
            raise NumericalError(f"non-finite state at step {start + int(finite.argmin()) + 1} "
                                 f"of {steps}")
        t4 = time.perf_counter()
        weighted = (rates[start + 1:stop + 1, None, None] * (ddw @ props)).reshape(-1, dim)
        m_sum += props.reshape(-1, dim).conj().T @ weighted
        # freed before the next chunk's Taylor powers are made (``_step_bytes``)
        del h, u, props, weighted
        t5 = time.perf_counter()
        for name, elapsed in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            layer_s[name] += elapsed

    hcd_times = np.concatenate(([0.0], grid.t_mid, [sweep.duration]))

    def result(start, v, work, thetas, hcd, counts, layers, reverse=None):
        """The stroke from ``start`` with propagator ``v``; W_0 = dt Re Tr[rho0 work]."""
        rho = space.project(start.matrix)
        end = v @ rho @ v.conj().T
        e_start, e_end = (_re_trace_product(x, d0w + th * ddw)
                          for x, th in zip((rho, end), thetas))
        w_0 = dt * _re_trace_product(rho, work)
        trace, purity = check_state(end, space.weights)
        purity0 = check_state(rho, space.weights)[1]
        end.setflags(write=False)
        diag = StrokeDiagnostics(steps, abs(trace - 1.0), abs(purity - purity0), hcd_times, hcd,
                                 *counts, layers)
        return StrokeResult(end, e_end - e_start, w_0, (e_end - e_start) - w_0, e_start, e_end,
                            diag, reverse)

    reverse = None if reverse_from is None else result(
        reverse_from, prop.T, -(prop @ m_sum @ prop.conj().T).T, (grid.theta[-1], grid.theta[0]),
        hcd_norm_sq[::-1], (0, 0), dict.fromkeys(LAYERS, 0.0))
    counts = tuple(after - before for after, before in zip(solver_counts(), counts_before))
    return result(rho0, prop, m_sum, (grid.theta[0], grid.theta[-1]), hcd_norm_sq, counts,
                  layer_s, reverse)
