"""Unitary stroke propagation, thermal states and observables.

The propagator is the midpoint exponential: per step the full Hamiltonian
(medium plus control) is frozen at the interval midpoint and exponentiated
exactly, U_k = exp(-i H(t_k + dt/2) dt), which keeps every step exactly
unitary so trace and purity are conserved to roundoff.  hbar = 1.

A stroke steps in the smallest space its data allows.  With uniform
endpoints H0, the orbit-summed control term and a permutation-symmetric
state act alike on every copy of a collective-spin block, so the stroke
runs on one copy of each (``cdotto.collective``) and weights its traces by
the block multiplicities; otherwise it runs on the full 2^N space with unit
weights.  The step itself is the same in both.

The stroke grid is worked through in chunks of K consecutive steps.  Per
chunk the solver serves the reduced coefficients of every midpoint in one
batched solve, the K Hamiltonians are assembled by one product of the
coefficients with the stack of control operators, and one stacked ``eigh``
and one stacked product give the K step unitaries; only the conjugation
rho <- U rho U^dagger runs step by step, and one ``einsum`` takes the K
trace samples.  K is bounded in bytes, not in steps: the K steps' dense
matrices, the solver's r x r systems and its m-long residual columns must
fit in ``CHUNK_BYTES``, so small spaces take whole strokes in a few chunks
while a large full-space solve runs one step per chunk, with the memory of
a step-by-step loop.
"""

from __future__ import annotations

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

#: largest entry of |lift(project(rho0)) - rho0| that still counts rho0 as
#: permutation-symmetric
SYMMETRY_TOL = 1e-12

#: bytes of per-step work arrays one chunk of a stroke may hold; a chunk
#: runs max(1, CHUNK_BYTES // _step_bytes(...)) steps
CHUNK_BYTES = 1 << 19

#: the layers of a stroke whose wall time the diagnostics report, in step order
LAYERS = ("solve_s", "assemble_s", "eigh_u_s", "conjugate_s", "trace_s")


def _step_bytes(dim: int, r: int, m: int) -> int:
    """Work-array bytes of one step of a chunk in a dim x dim space, with a
    solver of r reduced coordinates and m strings (r = m = 0 when bare).

    About seven complex and two real dim x dim matrices (the Hamiltonian
    and its parts, the eigenvectors, U, their adjoints and the state), four
    r x r matrices of the stacked solve (the systems, their factors and
    temporaries) and four m-long residual columns.
    """
    return 8 * (16 * dim * dim + 4 * r * r + 4 * m)


def _re_trace_product(rho: np.ndarray, mat: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", rho, mat).real)


class _FullSpace:
    """The 2^N space itself: W = I and unit trace weights."""

    def __init__(self, dim: int):
        self.weights = np.ones(dim)

    @staticmethod
    def project(mat: np.ndarray) -> np.ndarray:
        return mat

    @staticmethod
    def lift(mat: np.ndarray) -> np.ndarray:
        return mat


def _stroke_space(params: EndpointParams, rho0: np.ndarray):
    """One copy of each collective-spin block if the data allow it, else the full space."""
    if params.is_uniform():
        space = collective_basis(params.n_sites)
        if np.abs(space.lift(space.project(rho0)) - rho0).max() <= SYMMETRY_TOL:
            return space
    return _FullSpace(2 ** params.n_sites)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated working-medium state: Hermitian, unit trace, positive."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 ** self.n_sites
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise DimensionError(f"matrix shape {m.shape} does not match {self.n_sites} sites")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise DomainError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise DomainError("density matrix trace differs from 1 by more than 1e-10")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise DomainError("density matrix has an eigenvalue below -1e-10")
        purity = float(np.vdot(m, m).real)
        if not 0.0 < purity <= 1.0 + 1e-10:
            raise DomainError(f"purity {purity} outside (0, 1]")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)


def boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Populations exp(-E/T)/Z, with the exponents shifted by the lowest energy."""
    weights = np.exp(-(energies - energies.min()) / temperature)
    return weights / weights.sum()


def gibbs_state(h: OperatorSum, temperature: float) -> DensityMatrix:
    """Thermal state exp(-H/T)/Z via eigendecomposition.

    The populations are ``boltzmann_weights`` of the spectrum, shifted to
    avoid overflow; the result commutes with H by construction.
    """
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    energies, vecs = np.linalg.eigh(to_dense(h))
    weights = boltzmann_weights(energies, temperature)
    rho = (vecs * weights) @ vecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(h.n_sites, rho)


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
    #: wall seconds spent in each of ``LAYERS``
    layer_s: dict


@dataclass(frozen=True)
class StrokeResult:
    """One isentropic stroke: final state, endpoint energies and work split.

    ``w_sta`` is the endpoint energy difference under the full driven
    Hamiltonian (the control term vanishes at both stroke ends), ``w_0``
    the trapezoid quadrature of Tr[rho dH0/dt] on the step grid, and
    ``w_cd = w_sta - w_0`` exactly by construction.  ``betas`` holds the
    reduced control coefficients at every step's midpoint, shape
    (steps, r), with r = 0 for a bare stroke.
    """

    final_state: DensityMatrix
    w_sta: float
    w_0: float
    w_cd: float
    e_start: float
    e_end: float
    diagnostics: StrokeDiagnostics
    betas: np.ndarray


def propagate_stroke(rho0: DensityMatrix, params: EndpointParams, sweep: SweepSpec,
                     cd=None, steps: int = 2000, betas=None) -> StrokeResult:
    """Drive the state through one stroke of the cycle.

    ``cd`` selects the control: None runs the bare non-adiabatic sweep, an
    ``AgpSolver`` (for the same parameters) drives it.  Given ``betas`` of
    shape (steps, r), the stroke takes those rows in place of solving at
    its midpoints (see ``StrokeResult.betas``).  The control term is
    assembled in the solver's reduced coordinates,
    H_CD = theta_dot * sum_B beta_B O_B, and its squared Frobenius norm is
    2^N theta_dot^2 ||beta||^2; uniform and disordered endpoints differ only
    in the size of beta.  The diagnostics carry that norm at the interval
    midpoints for the control-cost quadrature.  The control device's work
    is the remainder ``w_cd = w_sta - w_0``; the tests check it against an
    independent quadrature of Tr[rho dH_CD/dt] (``tests/oracles.py``).

    The generators and ``rho0`` are projected once onto the stroke's space
    (see the module docstring) and the final state is lifted back to 2^N.
    The steps run in chunks (module docstring); the diagnostics also carry
    the wall time spent in each layer of the chunked step (``LAYERS``).
    """
    if rho0.n_sites != params.n_sites:
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
    tau = sweep.duration
    dt = tau / steps
    grid = sweep.grid(steps)
    scale = 2.0 ** n

    space = _stroke_space(params, rho0.matrix)
    # h0 coefficients are real, so both generators are real symmetric
    d0 = np.ascontiguousarray(space.project(to_dense(h0_at(params, 0.0)).real))
    dd = np.ascontiguousarray(space.project(to_dense(dh0_dtheta(params)).real))
    stack = space.project(solver.reduced_stack) if solver is not None else None
    fallbacks_before = solver.fallbacks if solver is not None else 0
    # the weights are constant on each block, so they commute with every
    # generator; traces are taken against the weighted ones
    d0w = space.weights[:, None] * d0
    ddw = space.weights[:, None] * dd

    rho = np.array(space.project(rho0.matrix), dtype=complex)
    e_start = _re_trace_product(rho, d0w + grid.theta[0] * ddw)

    f0 = np.empty(steps + 1)
    f0[0] = grid.theta_dot[0] * _re_trace_product(rho, ddw)
    norm_sq = np.zeros(steps)

    dim = d0.shape[0]
    r, m = (stack.shape[0], solver.basis.size) if solver is not None else (0, 0)
    solve = betas is None
    if solve:
        betas = np.empty((steps, r))
    elif np.shape(betas) != (steps, r):
        raise DimensionError(f"betas of shape {np.shape(betas)}, not ({steps}, {r})")
    chunk = max(1, CHUNK_BYTES // _step_bytes(dim, r, m))
    if solver is not None:
        stack = stack.reshape(r, dim * dim)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        th = grid.theta_mid[start:stop]
        t0 = time.perf_counter()
        if solver is not None:
            if solve:
                betas[start:stop] = solver.reduced_batch(th)
            beta = betas[start:stop]
        t1 = time.perf_counter()
        h = d0 + th[:, None, None] * dd
        if solver is not None:
            td = grid.theta_dot_mid[start:stop]
            norm_sq[start:stop] = (td * td) * scale * np.vecdot(beta, beta)
            h_cd = np.empty(h.shape, dtype=complex)
            h_cd.real = h
            h_cd.imag = (td[:, None] * (beta @ stack)).reshape(h.shape)
            h = h_cd
        t2 = time.perf_counter()
        energies, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp((-1j * dt) * energies)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        u_adj = u.conj().transpose(0, 2, 1)
        t3 = time.perf_counter()
        states = np.empty(u.shape, dtype=complex)
        for j in range(stop - start):
            rho = states[j] = u[j] @ rho @ u_adj[j]
        finite = np.isfinite(states).all(axis=(1, 2))
        if not finite.all():
            raise NumericalError(f"non-finite state at step {start + int(finite.argmin()) + 1} "
                                 f"of {steps}")
        t4 = time.perf_counter()
        f0[start + 1:stop + 1] = (grid.theta_dot[start + 1:stop + 1]
                                  * np.einsum("kij,ji->k", states, ddw).real)
        t5 = time.perf_counter()
        for name, elapsed in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            layer_s[name] += elapsed

    w_0 = float(np.trapezoid(f0, dx=dt))
    e_end = _re_trace_product(rho, d0w + grid.theta[-1] * ddw)
    w_sta = e_end - e_start
    w_cd = w_sta - w_0

    rho = space.lift(rho)
    final = DensityMatrix(n, rho)
    diag = StrokeDiagnostics(
        steps=steps,
        trace_drift=abs(float(np.trace(rho).real) - 1.0),
        purity_drift=abs(final.purity - rho0.purity),
        # the control term vanishes exactly at the stroke ends because the
        # sweep rate does
        hcd_times=np.concatenate(([0.0], grid.t_mid, [tau])),
        hcd_norm_sq=np.concatenate(([0.0], norm_sq, [0.0])),
        agp_fallbacks=(solver.fallbacks - fallbacks_before) if solver is not None else 0,
        layer_s=layer_s,
    )
    return StrokeResult(final_state=final, w_sta=w_sta, w_0=w_0, w_cd=w_cd,
                        e_start=e_start, e_end=e_end, diagnostics=diag, betas=betas)

