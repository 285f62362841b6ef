"""Reference implementations the tests check the package against.

The dense-matrix oracles are built directly from numpy Kronecker products,
independent of the symbolic algebra they validate.  ``exact_agp`` (the
spectral gauge potential) is dense too.  ``letter_commutator`` multiplies
Pauli strings site by site from the single-letter product table, apart
from the package's bit-mask rule, and is the reference for
``cdotto.paulis.commutator`` and ``i_commutator_table``.  ``solve_agp`` is
the direct variational solve, one least-squares system per theta, built
from ``letter_commutator`` and ``hs_inner``; it is the slow, plain
reference for ``cdotto.agp.AgpSolver``.  ``string_build`` forms the
solver's endpoint-form system the plain way, one letter commutator per
string and m x m matrices, the reference for the solver's bit-mask build.
``dense_stroke`` propagates a stroke with dense matrices, its own sweep
profile and exponentials from scipy's ``eigh`` (a LAPACK apart from
numpy's), and integrates both parts of the work split, the reference for
``cdotto.dynamics.propagate_stroke``;
``MirroredSweep`` hands that function the time-reversed grid to step.
``lz_cop`` is the two-level closed form of the coefficient of performance.
``symmetrized`` averages a state over every site permutation, the
reference for the stroke's permutation-symmetry test.
"""

import itertools
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemv, zgemm

from cdotto.errors import DimensionError, DomainError
from cdotto.model import StrokeGrid, SweepSpec, dh0_dtheta, h0_at
from cdotto.paulis import OperatorSum

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_pauli(letters):
    out = MATS[letters[0]]
    for s in letters[1:]:
        out = np.kron(out, MATS[s])
    return out


def dense_operator(n_sites, terms):
    """Dense matrix of a pattern -> coefficient map."""
    dim = 2 ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for pat, c in terms.items():
        out += c * dense_pauli(pat)
    return out


def dense_ising(n, h, b, couplings):
    """-sum h_j X_j - sum b_j Z_j - sum J_jk Z_j Z_k, couplings as {(j, k): J}."""
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)

    def site_op(j, mat):
        ops = [I2] * n
        ops[j] = mat
        full = ops[0]
        for o in ops[1:]:
            full = np.kron(full, o)
        return full

    for j in range(n):
        out -= h[j] * site_op(j, X)
        out -= b[j] * site_op(j, Z)
    for (j, k), val in couplings.items():
        out -= val * (site_op(j, Z) @ site_op(k, Z))
    return out


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


def _mul_letters(a, b):
    phase = 1.0 + 0.0j
    out = []
    for sa, sb in zip(a, b):
        ph, s = _MUL[(sa, sb)]
        phase *= ph
        out.append(s)
    return phase, tuple(out)


def _anticommute(a, b):
    # Strings anticommute iff they differ on an odd number of jointly
    # non-identity sites.
    count = 0
    for sa, sb in zip(a, b):
        if sa != "I" and sb != "I" and sa != sb:
            count += 1
    return count % 2 == 1


def letter_commutator(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """[a, b] = ab - ba from the single-letter product table.

    Only anticommuting string pairs contribute, each as twice their
    product, summed term of ``a`` by term of ``b``.
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


def hs_inner(a: OperatorSum, b: OperatorSum) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dagger b].

    Pauli strings are trace-orthogonal, so this is 2^N times the sum of
    conj(coeff_a) * coeff_b over shared patterns.
    """
    if a.n_sites != b.n_sites:
        raise DimensionError(f"site counts differ: {a.n_sites} vs {b.n_sites}")
    small, large = (a, b) if a.n_terms <= b.n_terms else (b, a)
    acc = 0.0 + 0.0j
    for pat, c in small.terms.items():
        other = large.terms.get(pat)
        if other is not None:
            if small is a:
                acc += np.conj(c) * other
            else:
                acc += np.conj(other) * c
    return (2.0 ** a.n_sites) * acc


def gibbs_populations(energies, temperature):
    w = np.exp(-(np.asarray(energies) - np.min(energies)) / temperature)
    return w / w.sum()


def two_level_energies(h_xi, b_zf, t_cold, t_hot):
    """Closed-form cycle corner energies of the two-level medium."""
    e_a = -h_xi * np.tanh(h_xi / t_cold)
    e_b = -b_zf * np.tanh(h_xi / t_cold)
    e_c = -b_zf * np.tanh(b_zf / t_hot)
    e_d = -h_xi * np.tanh(b_zf / t_hot)
    return e_a, e_b, e_c, e_d


def lz_cop(h_xi: float, b_zf: float) -> float:
    """Two-level coefficient of performance h_xi / (b_zf - h_xi)."""
    if not (b_zf > h_xi > 0):
        raise DomainError(f"need b_zf > h_xi > 0, got h_xi={h_xi}, b_zf={b_zf}")
    return h_xi / (b_zf - h_xi)


class AgpSolution(NamedTuple):
    """Direct variational solution at one theta.

    ``residual_action`` is S at the minimum (>= 0), ``gradient_norm`` the
    Euclidean norm of the gradient of S there, and ``rank_deficient`` tells
    whether the gram matrix was singular (minimum-norm solution taken).
    """

    coefficients: np.ndarray
    residual_action: float
    gradient_norm: float
    rank_deficient: bool


def solve_agp(basis, h0, dh0):
    """Minimize S = ||dH0 + i[A, H0]||_F^2 over the ansatz for fixed H0 and dH0.

    gram_ab = Re Tr[C_a C_b] and v_a = -Re Tr[dH0 C_a] with C_a = i [O_a, H0],
    solved in the minimum-norm least-squares sense.
    """
    assert basis.n_sites == h0.n_sites == dh0.n_sites
    c_ops = [1.0j * letter_commutator(OperatorSum(basis.n_sites, {pat: 1.0}), h0)
             for pat in basis.strings]
    m = basis.size
    gram = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            gram[a, b] = gram[b, a] = hs_inner(c_ops[a], c_ops[b]).real
    v = np.array([-hs_inner(dh0, c).real for c in c_ops])
    coeffs, _, rank, _ = np.linalg.lstsq(gram, v, rcond=1e-12)

    g_op = OperatorSum(basis.n_sites, [*dh0.terms.items(),
                                       *(item for alpha, c in zip(coeffs, c_ops)
                                         for item in (alpha * c).terms.items())])
    return AgpSolution(
        coefficients=coeffs,
        residual_action=float(hs_inner(g_op, g_op).real),
        gradient_norm=float(np.linalg.norm(2.0 * (gram @ coeffs - v))),
        rank_deficient=bool(rank < m),
    )


class StringBuild(NamedTuple):
    """The solver's system in endpoint form.

    gram(theta) = (1 - theta)^2 P0 + theta (1 - theta) P1 + theta^2 P2 and
    v(theta) = (1 - theta) w0 + theta w1.  Each w_k is built from its own
    endpoint, so a check that w0 = w1 tests that v does not depend on theta.
    """

    p: tuple
    w: tuple


def string_build(params, basis):
    """P_k (m x m) and w_k from one symbolic commutator per string and Hamiltonian.

    C_a(theta) = (1 - theta) i[O_a, H0(0)] + theta i[O_a, H0(1)] has real
    coefficients (1 - theta) b0[a, c] + theta b1[a, c] over the patterns c
    that occur, and Re Tr[O_c O_c'] = 2^N delta_cc', so
    gram = 2^N ((1 - theta) b0 + theta b1)(...)^T and
    v = -2^N ((1 - theta) b0 + theta b1) d for the coefficients d of dH0/dtheta.
    """
    n = basis.n_sites
    dh0 = dh0_dtheta(params)
    ops = [[1.0j * letter_commutator(OperatorSum(n, {pat: 1.0}), h)
            for pat in basis.strings]
           for h in (h0_at(params, 0.0), h0_at(params, 1.0))]
    patterns = sorted(set().union(*(op.terms for row in ops for op in row), dh0.terms))
    col = {pat: i for i, pat in enumerate(patterns)}
    b0, b1 = np.zeros((2, basis.size, len(patterns)))
    for b, row in zip((b0, b1), ops):
        for a, op in enumerate(row):
            for pat, c in op.terms.items():
                b[a, col[pat]] = c.real
    d = np.zeros(len(patterns))
    for pat, c in dh0.terms.items():
        d[col[pat]] = c.real
    scale = 2.0 ** n
    return StringBuild(p=(scale * (b0 @ b0.T), scale * (b0 @ b1.T + b1 @ b0.T),
                          scale * (b1 @ b1.T)),
                       w=(-scale * (b0 @ d), -scale * (b1 @ d)))


def exact_agp(h0, dh0):
    """Spectral gauge potential i <m|dH0|n> / (E_n - E_m), as a dense matrix.

    Elements between levels closer than 1e-10 times the spectral norm are
    zeroed, since that gauge freedom does not move populations.
    """
    assert h0.n_sites == dh0.n_sites
    energies, vecs = np.linalg.eigh(dense_operator(h0.n_sites, h0.terms))
    degeneracy_tol = 1e-10 * max(1e-300, float(np.abs(energies).max()))
    dh = vecs.conj().T @ dense_operator(dh0.n_sites, dh0.terms) @ vecs
    gaps = energies[None, :] - energies[:, None]
    safe = np.abs(gaps) > degeneracy_tol
    a_eig = np.zeros_like(dh)
    a_eig[safe] = 1.0j * dh[safe] / gaps[safe]
    return vecs @ a_eig @ vecs.conj().T


def symmetrized(rho, n_sites):
    """The average of P rho P^T over all N! site permutations P.

    Each permutation reorders the N row and the N column axes of rho alike;
    a state is permutation-symmetric when this leaves it unchanged.
    """
    n = n_sites
    t = np.asarray(rho).reshape((2,) * (2 * n))
    total = np.zeros_like(t)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        total += t.transpose(list(perm) + [n + j for j in perm])
    return (total / len(perms)).reshape(rho.shape)


def sweep_profile(t, tau):
    """theta(t) = sin^2((pi/2) s) with s = sin^2(pi t / (2 tau)), and its two time derivatives.

    Written by the chain rule through s, apart from ``cdotto.model``.
    """
    u = np.pi * np.asarray(t, dtype=float) / tau
    s = 0.5 * (1.0 - np.cos(u))
    s_dot = 0.5 * (np.pi / tau) * np.sin(u)
    s_ddot = 0.5 * (np.pi / tau) ** 2 * np.cos(u)
    theta = 0.5 * (1.0 - np.cos(np.pi * s))
    theta_dot = 0.5 * np.pi * np.sin(np.pi * s) * s_dot
    theta_ddot = 0.5 * np.pi * (np.pi * np.cos(np.pi * s) * s_dot ** 2
                                + np.sin(np.pi * s) * s_ddot)
    return theta, theta_dot, theta_ddot


class MirroredSweep(SweepSpec):
    """The compression stroke as a grid of its own, theta_rev(t) = theta(tau - t).

    The forward samples mirrored index-wise, with negated rates, so
    ``propagate_stroke`` steps the time-reversed sweep itself: the
    reference for the ``reverse`` it reads off the forward step unitaries.
    """

    def grid(self, steps: int) -> StrokeGrid:
        fwd = super().grid(steps)
        return StrokeGrid(fwd.theta[::-1].copy(), -fwd.theta_dot[::-1], fwd.t_mid,
                          fwd.theta_mid[::-1].copy(), -fwd.theta_dot_mid[::-1])


class DenseStroke(NamedTuple):
    """``dense_stroke`` result.

    ``w_0`` integrates theta_dot Tr[rho dH0/dtheta] and ``w_cd`` integrates
    Tr[rho dH_CD/dt] over the stroke.
    """

    final: np.ndarray
    e_end: float
    w_0: float
    w_cd: float


def dense_stroke(rho0, params, tau, steps, reverse=False, solver=None, delta=1e-6,
                 cd_work=True):
    """Midpoint-exponential stroke with H(t) = H0(theta) + theta_dot sum_a alpha_a O_a.

    ``rho0`` is a dense matrix; ``solver`` (an ``AgpSolver`` for ``params``,
    or None for the bare sweep) supplies only the coefficients alpha(theta).
    H0(theta) interpolates the dense endpoint Hamiltonians, and the reverse
    stroke evaluates the profile at tau - t.  Both work parts are trapezoid
    sums over the state at the ``steps + 1`` grid points, with
    dH_CD/dt = theta_ddot A + theta_dot^2 dA/dtheta and dalpha/dtheta a
    centered difference of step ``delta`` (one-sided at theta = 0, 1).
    ``cd_work=False`` skips the second quadrature, the costly part of a
    large controlled stroke, and reports ``w_cd`` as nan.

    Every BLAS call of the loop goes to scipy's library, as its ``eigh``
    does: alternating with numpy's threaded OpenBLAS keeps each library's
    idle threads spinning against the other's, about tenfold slower per step
    on two cores.  Traces are elementwise sums for the same reason.
    """
    n = params.n_sites
    pairs = [(j, k) for j in range(1, n) for k in range(j)]
    h_cold = dense_ising(n, params.h_i, params.b_i, dict(zip(pairs, params.j_i)))
    h_hot = dense_ising(n, params.h_f, params.b_f, dict(zip(pairs, params.j_f)))
    dh0 = h_hot - h_cold

    def h0(theta):
        # every field and coupling is linear in theta
        return (1.0 - theta) * h_cold + theta * h_hot

    dim = 2 ** n
    if solver is not None:
        # column a holds the real then the imaginary parts of string a
        paulis = np.array([dense_pauli(pat).ravel() for pat in solver.basis.strings])
        columns = np.asfortranarray(np.concatenate([paulis.real, paulis.imag], axis=1).T)

    def agp(theta):
        parts = dgemv(1.0, columns, solver.coefficients(theta))
        return (parts[:dim * dim] + 1j * parts[dim * dim:]).reshape(dim, dim)

    def agp_derivative(theta):
        lo, hi = max(0.0, theta - delta), min(1.0, theta + delta)
        return (agp(hi) - agp(lo)) / (hi - lo)

    def profile(t):
        theta, rate, accel = sweep_profile(tau - t if reverse else t, tau)
        return float(theta), float(-rate if reverse else rate), float(accel)

    def energy(mat, op):
        return float(np.sum(mat * op.T).real)

    dt = tau / steps
    rho = np.array(rho0, dtype=complex)
    f0 = np.empty(steps + 1)
    f_cd = np.zeros(steps + 1)

    def sample(k, rho):
        theta, rate, accel = profile(tau * k / steps)
        f0[k] = rate * energy(rho, dh0)
        if cd_work and solver is not None and (rate != 0.0 or accel != 0.0):
            f_cd[k] = energy(rho, accel * agp(theta) + rate ** 2 * agp_derivative(theta))

    sample(0, rho)
    for k in range(steps):
        theta, rate, _ = profile(tau * (k + 0.5) / steps)
        h = h0(theta)
        if solver is not None:
            h = h + rate * agp(theta)
        energies, vecs = scipy.linalg.eigh(h)
        u = zgemm(1.0, vecs * np.exp(-1j * dt * energies), vecs, trans_b=2)
        rho = zgemm(1.0, zgemm(1.0, u, rho), u, trans_b=2)
        sample(k + 1, rho)
    return DenseStroke(final=rho, e_end=energy(rho, h0(profile(tau)[0])),
                       w_0=float(np.trapezoid(f0, dx=dt)),
                       w_cd=float(np.trapezoid(f_cd, dx=dt)) if cd_work else float("nan"))
