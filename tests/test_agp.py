"""Variational gauge-potential solver against the spectral oracle."""

import math

import numpy as np
import pytest

import oracles
from cdotto.agp import RESIDUAL_RTOL, AgpSolver, build_basis
from cdotto.errors import DomainError
from cdotto.model import EndpointParams, dh0_dtheta, h0_at
from cdotto import paulis
from cdotto.paulis import OperatorSum, commutator
from oracles import exact_agp, solve_agp

from test_model import disordered_params


def dense_action(n, h0, dh0, basis, coeffs):
    """Independent evaluation of S = ||dH0 + i[A, H0]||_F^2."""
    h = oracles.dense_operator(n, h0.terms)
    dh = oracles.dense_operator(n, dh0.terms)
    a = np.zeros_like(h)
    for alpha, pat in zip(coeffs, basis.strings):
        a += alpha * oracles.dense_pauli(pat)
    g = dh + 1j * (a @ h - h @ a)
    return float(np.trace(g.conj().T @ g).real)


class TestBasis:
    def test_single_site(self):
        basis = build_basis(1, 1)
        assert basis.strings == (("Y",),)
        assert basis.size == 1

    def test_two_site_full_order(self):
        basis = build_basis(2, 2)
        assert basis.size == 6
        assert set(basis.strings) == {
            ("Y", "I"), ("I", "Y"),
            ("Y", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "Y"),
        }

    def test_three_site_first_order(self):
        assert build_basis(3, 1).size == 3

    def test_size_formula(self):
        for n in range(1, 7):
            for p in range(1, min(n, 4) + 1):
                expected = sum(
                    math.comb(n, w) * (3 ** w - 1) // 2 for w in range(1, p + 1)
                )
                assert build_basis(n, p).size == expected

    def test_strings_have_odd_y_and_bounded_weight(self):
        basis = build_basis(4, 3)
        for pat in basis.strings:
            weight = sum(1 for s in pat if s != "I")
            assert 1 <= weight <= 3
            assert pat.count("Y") % 2 == 1

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            build_basis(3, 0)
        with pytest.raises(DomainError):
            build_basis(3, 4)

    def test_deterministic_ordering(self):
        assert build_basis(3, 2).strings == build_basis(3, 2).strings


class TestSolve:
    def test_single_site_closed_form(self):
        # two-level medium at theta = 0.5: h = 0.1, b = 0.25,
        # dh/dtheta = -0.2, db/dtheta = 0.5
        params = EndpointParams.uniform(1)
        sol = solve_agp(build_basis(1, 1), h0_at(params, 0.5), dh0_dtheta(params))
        h, b, dh, db = 0.1, 0.25, -0.2, 0.5
        expected = (b * dh - h * db) / (2 * (h * h + b * b))
        assert sol.coefficients[0] == pytest.approx(expected, abs=1e-12)
        assert abs(sol.coefficients[0]) == pytest.approx(0.6896551724137, abs=1e-10)

    def test_zero_drive_gives_zero_potential(self):
        params = EndpointParams.uniform(2, h_i=0.2, b_i=0.1, j_i=0.0,
                                        h_f=0.2, b_f=0.1, j_f=0.0)
        sol = solve_agp(build_basis(2, 2), h0_at(params, 0.3), dh0_dtheta(params))
        np.testing.assert_allclose(sol.coefficients, 0.0, atol=1e-14)
        assert sol.residual_action == pytest.approx(0.0, abs=1e-14)

    def test_full_order_matches_spectral_oracle(self):
        params = EndpointParams.uniform(2)
        basis = build_basis(2, 2)
        sol = solve_agp(basis, h0_at(params, 0.5), dh0_dtheta(params))
        oracle = exact_agp(h0_at(params, 0.5), dh0_dtheta(params))
        dense = np.zeros((4, 4), dtype=complex)
        for alpha, pat in zip(sol.coefficients, basis.strings):
            dense += alpha * oracles.dense_pauli(pat)
        np.testing.assert_allclose(dense, oracle, atol=1e-8)

    def test_gradient_norm_contract(self):
        for n, p in ((2, 2), (3, 2)):
            params = EndpointParams.uniform(n)
            h0, dh0 = h0_at(params, 0.4), dh0_dtheta(params)
            basis = build_basis(n, p)
            sol = solve_agp(basis, h0, dh0)
            c_ops = [1j * commutator(OperatorSum(n, {pat: 1.0}), h0)
                     for pat in basis.strings]
            v_norm = np.linalg.norm([-oracles.hs_inner(dh0, c).real for c in c_ops])
            assert sol.gradient_norm <= 1e-10 * (1.0 + v_norm)

    def test_variational_optimality_random_perturbations(self):
        rng = np.random.default_rng(23)
        for params in (EndpointParams.uniform(2), disordered_params(2)):
            h0, dh0 = h0_at(params, 0.4), dh0_dtheta(params)
            basis = build_basis(2, 2)
            sol = solve_agp(basis, h0, dh0)
            s_min = dense_action(2, h0, dh0, basis, sol.coefficients)
            assert s_min == pytest.approx(sol.residual_action, rel=1e-10, abs=1e-12)
            for _ in range(100):
                delta = rng.standard_normal(basis.size)
                delta *= 1e-3 / np.linalg.norm(delta)
                s_pert = dense_action(2, h0, dh0, basis, sol.coefficients + delta)
                assert s_pert >= s_min - 1e-12

    def test_residual_nesting_in_order(self):
        params = EndpointParams.uniform(3)
        for theta in (0.2, 0.5, 0.8):
            h0, dh0 = h0_at(params, theta), dh0_dtheta(params)
            residuals = [solve_agp(build_basis(3, p), h0, dh0).residual_action
                         for p in (1, 2, 3)]
            for lo, hi in zip(residuals[1:], residuals[:-1]):
                assert lo <= hi + 1e-12

    def test_singular_gram_is_flagged_min_norm(self):
        # symmetric sites put permutation antisymmetrizers in the null space
        params = EndpointParams.uniform(3)
        sol = solve_agp(build_basis(3, 3), h0_at(params, 0.5), dh0_dtheta(params))
        assert sol.rank_deficient is True
        nondegenerate = solve_agp(build_basis(2, 1),
                                  h0_at(disordered_params(2), 0.5),
                                  dh0_dtheta(disordered_params(2)))
        assert nondegenerate.rank_deficient is False

    def test_commutators_close_on_even_y_real_strings(self):
        params = EndpointParams.uniform(3)
        h0 = h0_at(params, 0.5)
        for pat in build_basis(3, 2).strings:
            c = 1j * commutator(OperatorSum(3, {pat: 1.0}), h0)
            assert all(abs(v.imag) <= 1e-14 for v in c.terms.values())
            for out_pat in c.terms:
                assert out_pat.count("Y") % 2 == 0


class TestExactAgp:
    def test_zero_derivative(self):
        params = EndpointParams.uniform(2, h_i=0.2, b_i=0.0, j_i=0.1,
                                        h_f=0.2, b_f=0.0, j_f=0.1)
        a = exact_agp(h0_at(params, 0.2), dh0_dtheta(params))
        np.testing.assert_allclose(a, 0.0, atol=1e-14)

    def test_two_level_closed_form(self):
        # pure transverse field: A = -(db/dtheta) / (2 h) * Y
        params = EndpointParams.uniform(1)
        a = exact_agp(h0_at(params, 0.0), dh0_dtheta(params))
        np.testing.assert_allclose(a, -1.25 * oracles.Y, atol=1e-12)

    def test_hermitian(self):
        params = disordered_params(3)
        a = exact_agp(h0_at(params, 0.4), dh0_dtheta(params))
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)

    def test_full_order_variational_equivalence_nondegenerate(self):
        for n in (2, 3):
            params = disordered_params(n, seed=n)
            basis = build_basis(n, n)
            for theta in (0.3, 0.7):
                h0, dh0 = h0_at(params, theta), dh0_dtheta(params)
                sol = solve_agp(basis, h0, dh0)
                dense = np.zeros((2 ** n, 2 ** n), dtype=complex)
                for alpha, pat in zip(sol.coefficients, basis.strings):
                    dense += alpha * oracles.dense_pauli(pat)
                np.testing.assert_allclose(dense, exact_agp(h0, dh0), atol=1e-8)


class TestSolverFastPath:
    def test_matches_direct_solve_uniform(self):
        params = EndpointParams.uniform(3)
        basis = build_basis(3, 2)
        solver = AgpSolver(params, basis)
        for theta in (0.15, 0.5, 0.85):
            direct = solve_agp(basis, h0_at(params, theta), dh0_dtheta(params))
            alpha = solver.coefficients(theta)
            np.testing.assert_allclose(alpha, direct.coefficients, atol=1e-10)
            h0, dh0 = h0_at(params, theta), dh0_dtheta(params)
            assert dense_action(3, h0, dh0, basis, alpha) == pytest.approx(
                direct.residual_action, rel=1e-9, abs=1e-12
            )

    def test_matches_direct_solve_disordered(self):
        params = disordered_params(2)
        basis = build_basis(2, 2)
        solver = AgpSolver(params, basis)
        for theta in (0.25, 0.75):
            direct = solve_agp(basis, h0_at(params, theta), dh0_dtheta(params))
            np.testing.assert_allclose(
                solver.coefficients(theta), direct.coefficients, atol=1e-10
            )

    def test_cache_returns_same_array(self):
        params = EndpointParams.uniform(2)
        solver = AgpSolver(params, build_basis(2, 2))
        beta = solver.reduced_coefficients(0.5)
        assert solver.reduced_coefficients(0.5) is beta


BUILD_CASES = [(kind, n) for kind in ("uniform", "disordered") for n in range(1, 7)]


def endpoint_params(kind, n):
    return EndpointParams.uniform(n) if kind == "uniform" else disordered_params(n)


class TestMaskBuild:
    """The bit-mask build against the per-string symbolic one (``oracles.string_build``)."""

    @pytest.mark.parametrize("kind,n", BUILD_CASES, ids=[f"{k}-N{n}" for k, n in BUILD_CASES])
    def test_system_matches_string_build(self, kind, n):
        params = endpoint_params(kind, n)
        basis = build_basis(n, min(n, 4))
        solver = AgpSolver(params, basis)
        ref = oracles.string_build(params, basis)
        q = solver._q if kind == "uniform" else np.eye(basis.size)
        pq = [p @ q for p in ref.p]
        # relative to the size of each family, since some targets vanish
        # analytically and carry only roundoff in the reference
        p_scale = max(np.abs(x).max() for x in pq)
        w_scale = max(np.abs(x).max() for x in ref.w)
        for got, want in zip(solver._pq, pq):
            assert np.abs(got - want).max() <= 1e-12 * p_scale
        for got, want in zip(solver._r, pq):
            assert np.abs(got - q.T @ want).max() <= 1e-12 * p_scale
        for got, want in zip((solver._w0, solver._w1), ref.w):
            assert np.abs(got - want).max() <= 1e-12 * w_scale
        for got, want in zip(solver._u, ref.w):
            assert np.abs(got - q.T @ want).max() <= 1e-12 * w_scale

    @pytest.mark.parametrize("kind,n", BUILD_CASES, ids=[f"{k}-N{n}" for k, n in BUILD_CASES])
    def test_stack_equals_dense_pattern_sums(self, kind, n):
        basis = build_basis(n, min(n, 4))
        solver = AgpSolver(endpoint_params(kind, n), basis)
        q = solver._q if kind == "uniform" else np.eye(basis.size)
        dim = 2 ** n
        want = np.zeros((q.shape[1], dim, dim))
        for a, b in zip(*np.nonzero(q)):
            want[b] += q[a, b] * oracles.dense_pauli(basis.strings[a]).imag
        np.testing.assert_array_equal(solver.reduced_stack, want)

    @pytest.mark.parametrize("kind", ["uniform", "disordered"])
    def test_stack_does_not_depend_on_scatter_chunk(self, kind, monkeypatch):
        # uniform orbits interleave in string order, so one slot per chunk
        # regroups the strings; every entry must still sum them in order
        basis = build_basis(5, 4)
        whole = AgpSolver(endpoint_params(kind, 5), basis).reduced_stack
        monkeypatch.setattr(paulis, "SCATTER_CHUNK", 1)
        chunked = AgpSolver(endpoint_params(kind, 5), basis).reduced_stack
        np.testing.assert_array_equal(chunked, whole)

    def test_uniform_n8_builds_and_solves(self):
        # 3,648 strings in 13 orbits; the full normal-equation residual is
        # checked on every solve and must pass without a fallback
        params = EndpointParams.uniform(8)
        solver = AgpSolver(params, build_basis(8, 4))
        assert solver.basis.size == 3648
        for theta in np.linspace(0.0, 1.0, 11):
            beta = solver.reduced_coefficients(theta)
            assert beta.shape == (13,)
            tol = RESIDUAL_RTOL * (1.0 + solver._target_norm(theta))
            assert solver._normal_residual(theta, beta) <= tol
        assert solver.fallbacks == 0
        assert solver.reduced_stack.shape == (13, 256, 256)


def dense_control_term(basis, alpha, theta_dot):
    """theta_dot * sum_a alpha_a O_a from independently built dense strings."""
    dim = 2 ** basis.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, pat in zip(alpha, basis.strings):
        out += coeff * oracles.dense_pauli(pat)
    return theta_dot * out


REDUCED_CASES = [("uniform", n) for n in range(1, 7)] + [("disordered", n) for n in range(1, 5)]


class TestReducedCoordinates:
    @pytest.mark.parametrize("kind,n", REDUCED_CASES, ids=[f"{k}-N{n}" for k, n in REDUCED_CASES])
    def test_reduced_control_term_matches_full_tensordot(self, kind, n):
        params = EndpointParams.uniform(n) if kind == "uniform" else disordered_params(n)
        theta_dot = 1.7
        for p in range(1, min(n, 4) + 1):
            basis = build_basis(n, p)
            solver = AgpSolver(params, basis)
            for theta in (0.2, 0.65):
                beta = solver.reduced_coefficients(theta)
                alpha = solver.coefficients(theta)
                reduced = theta_dot * np.tensordot(beta, solver.reduced_stack, axes=1)
                full = dense_control_term(basis, alpha, theta_dot)
                np.testing.assert_allclose(1j * reduced, full, rtol=0, atol=1e-12)
                assert beta @ beta == pytest.approx(alpha @ alpha, rel=1e-12)
            if kind == "disordered":
                assert solver.reduced_stack.shape[0] == basis.size
        if kind == "uniform" and n == 6:
            # 926 strings fall into 13 permutation orbits
            assert beta.shape == (13,) and alpha.shape == (926,)

    def test_full_order_matches_spectral_oracle_disordered(self):
        for n in (2, 3, 4):
            params = disordered_params(n, seed=n)
            basis = build_basis(n, n)
            solver = AgpSolver(params, basis)
            for theta in (0.3, 0.7):
                oracle = exact_agp(h0_at(params, theta), dh0_dtheta(params))
                dense = dense_control_term(basis, solver.coefficients(theta), 1.0)
                np.testing.assert_allclose(dense, oracle, rtol=0, atol=1e-10)
            assert solver.fallbacks == 0

    def test_gram_not_positive_definite_takes_counted_fallback(self):
        # every field and coupling changes sign across the sweep, so H0(1/2) = 0:
        # all commutators vanish there and the gram is the zero matrix
        for params in (
            EndpointParams.uniform(2, h_i=0.0, b_i=0.5, j_i=0.1,
                                   h_f=0.0, b_f=-0.5, j_f=-0.1),
            EndpointParams(h_i=[0.0, 0.0], b_i=[0.5, 0.3], j_i=[0.1],
                           h_f=[0.0, 0.0], b_f=[-0.5, -0.3], j_f=[-0.1]),
        ):
            solver = AgpSolver(params, build_basis(2, 2))
            solver.reduced_coefficients(0.3)
            assert solver.fallbacks == 0
            beta = solver.reduced_coefficients(0.5)
            assert solver.fallbacks == 1
            np.testing.assert_array_equal(beta, 0.0)
            assert solver.reduced_coefficients(0.5) is beta
            assert not beta.flags.writeable
            assert solver.fallbacks == 1
