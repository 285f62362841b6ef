"""Reference implementations the tests check the package against.

The dense-matrix oracles are built directly from numpy Kronecker products,
independent of the symbolic algebra they validate.  ``exact_agp`` (the
spectral gauge potential) is dense too.  ``solve_agp`` is the direct
variational solve, one least-squares system per theta; it builds that
system with the package's own Pauli algebra and serves as the slow,
plain reference for ``cdotto.agp.AgpSolver``.
"""

from typing import NamedTuple

import numpy as np

from cdotto.paulis import OperatorSum, commutator, hs_inner

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
    c_ops = [1.0j * commutator(OperatorSum(basis.n_sites, {pat: 1.0}), h0)
             for pat in basis.strings]
    m = basis.size
    gram = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            gram[a, b] = gram[b, a] = hs_inner(c_ops[a], c_ops[b]).real
    v = np.array([-hs_inner(dh0, c).real for c in c_ops])
    coeffs, _, rank, _ = np.linalg.lstsq(gram, v, rcond=1e-12)

    g_op = dh0
    for alpha, c in zip(coeffs, c_ops):
        g_op = g_op + alpha * c
    return AgpSolution(
        coefficients=coeffs,
        residual_action=float(hs_inner(g_op, g_op).real),
        gradient_norm=float(np.linalg.norm(2.0 * (gram @ coeffs - v))),
        rank_deficient=bool(rank < m),
    )


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
