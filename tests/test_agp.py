"""Variational gauge-potential solver against the spectral oracle."""

import math

import numpy as np
import pytest

import oracles
from cdotto.agp import LSTSQ_RCOND, AgpSolver, _endpoint_weights, build_basis, orbit_partition
from cdotto.errors import DimensionError, DomainError
from cdotto.model import EndpointParams, dh0_dtheta, h0_at
from cdotto.paulis import OperatorSum, commutator
from oracles import exact_agp, letter_commutator, solve_agp

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
    def test_params_and_basis_must_share_n_sites(self):
        with pytest.raises(DimensionError, match="share n_sites"):
            AgpSolver(EndpointParams.uniform(2), build_basis(3, 1))

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
            c_ops = [1j * letter_commutator(OperatorSum(n, {pat: 1.0}), h0)
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

    @pytest.mark.parametrize("kind", ["uniform", "disordered"])
    def test_batch_equals_per_theta_solves(self, kind):
        params = EndpointParams.uniform(4) if kind == "uniform" else disordered_params(4)
        basis = build_basis(4, 3)
        thetas = np.linspace(0.01, 0.99, 37)
        batched, single = AgpSolver(params, basis), AgpSolver(params, basis)
        betas = batched.reduced_batch(thetas)
        want = np.array([single.reduced_batch([t])[0] for t in thetas])
        assert betas.shape == want.shape
        assert np.abs(betas - want).max() <= 1e-12
        # a block solved twice is bitwise the same, and its rows agree with
        # the same thetas of the 37-row block
        block = np.repeat(thetas[:3], 2)
        again = batched.reduced_batch(block)
        np.testing.assert_array_equal(batched.reduced_batch(block), again)
        assert np.abs(again - np.repeat(betas[:3], 2, axis=0)).max() <= 1e-12
        assert batched.fallbacks == single.fallbacks == 0


BUILD_CASES = [(kind, n) for kind in ("uniform", "disordered") for n in range(1, 7)]


def endpoint_params(kind, n):
    return EndpointParams.uniform(n) if kind == "uniform" else disordered_params(n)


def dense_q(slots, weights):
    """The (m, r) matrix q of a partition: q[a, slots[a]] = weights[a], zero elsewhere."""
    q = np.zeros((len(slots), slots.max() + 1))
    q[np.arange(len(slots)), slots] = weights
    return q


class TestOrbitPartition:
    @pytest.mark.parametrize("params", [
        EndpointParams.uniform(6),
        # equal per-site lists count as uniform
        EndpointParams(h_i=[0.2] * 6, b_i=[0.0] * 6, j_i=[0.0] * 15,
                       h_f=[0.0] * 6, b_f=[0.5] * 6, j_f=[0.1] * 15),
    ], ids=["uniform", "equal-lists"])
    def test_uniform_orbits_share_a_letter_multiset(self, params):
        basis = build_basis(6, 4)
        slots, weights = orbit_partition(params, basis)
        q = dense_q(slots, weights)
        assert q.shape == (926, 13)
        np.testing.assert_allclose(q.T @ q, np.eye(13), rtol=0, atol=1e-14)
        for b in range(13):
            members = [basis.strings[a] for a in np.flatnonzero(slots == b)]
            assert len({tuple(sorted(pat)) for pat in members}) == 1
        # and distinct orbits hold distinct multisets
        assert len({tuple(sorted(pat)) for pat in basis.strings}) == 13

    def test_disordered_strings_are_their_own_orbits(self):
        basis = build_basis(5, 3)
        slots, weights = orbit_partition(disordered_params(5), basis)
        np.testing.assert_array_equal(slots, np.arange(basis.size))
        np.testing.assert_array_equal(weights, 1.0)

    def test_disordered_solver_holds_each_system_once(self):
        # every solver holds the reduced systems R_k (3, r, r) and u (r,) and
        # nothing of the full ones: the partition and the string masks are
        # its only per-string arrays, also after a solve and a stack build
        for params, r in ((disordered_params(4), 80), (EndpointParams.uniform(4), 7)):
            solver = AgpSolver(params, build_basis(4, 3))
            m = solver.basis.size
            assert m == 80 and solver._n_orbits == r
            assert solver._r.shape == (3, r, r) and solver._u.shape == (r,)
            solver.reduced_batch([0.3])
            assert solver.reduced_stack.shape == (r, 16, 16)
            if r < m:
                held = {name: value if isinstance(value, tuple) else (value,)
                        for name, value in vars(solver).items()}
                assert {name for name, values in held.items()
                        if any(isinstance(v, np.ndarray) and m in v.shape for v in values)
                        } == {"_slots", "_weights", "_masks"}


class TestMaskBuild:
    """The bit-mask build against the per-string symbolic one (``oracles.string_build``)."""

    @pytest.mark.parametrize("kind,n", BUILD_CASES, ids=[f"{k}-N{n}" for k, n in BUILD_CASES])
    def test_system_matches_string_build(self, kind, n):
        params = endpoint_params(kind, n)
        basis = build_basis(n, min(n, 4))
        solver = AgpSolver(params, basis)
        ref = oracles.string_build(params, basis)
        q = dense_q(solver._slots, solver._weights)
        pq = [p @ q for p in ref.p]
        # relative to the size of each family, since some targets vanish
        # analytically and carry only roundoff in the reference
        p_scale = max(np.abs(x).max() for x in pq)
        w_scale = max(np.abs(x).max() for x in ref.w)
        for got, want in zip(solver._r, pq):
            assert np.abs(got - q.T @ want).max() <= 1e-12 * p_scale
        # the target does not depend on theta: the one u matches both endpoints
        assert solver._u.shape == (q.shape[1],)
        for want in ref.w:
            assert np.abs(solver._u - q.T @ want).max() <= 1e-12 * w_scale

    @pytest.mark.parametrize("kind,n", BUILD_CASES, ids=[f"{k}-N{n}" for k, n in BUILD_CASES])
    def test_reduced_residual_is_the_full_residual(self, kind, n):
        # P(theta) commutes with site permutations and q beta, w are
        # invariant, so g = P(theta) q beta - w lies in the orbit span for
        # every beta, and ||g|| = ||q^T g||: the gate loses nothing
        params = endpoint_params(kind, n)
        basis = build_basis(n, min(n, 4))
        solver = AgpSolver(params, basis)
        ref = oracles.string_build(params, basis)
        q = dense_q(solver._slots, solver._weights)
        rng = np.random.default_rng(n)
        for w in ref.w:
            assert abs(np.linalg.norm(w) - np.linalg.norm(solver._u)) <= 1e-12 * np.linalg.norm(w)
        for theta in np.linspace(0.0, 1.0, 7):
            weights = ((1 - theta) ** 2, theta * (1 - theta), theta ** 2)
            pq = sum(c * pk for c, pk in zip(weights, ref.p)) @ q
            for beta in rng.standard_normal((3, q.shape[1])):
                full = np.linalg.norm(pq @ beta - ref.w[0])
                reduced = np.linalg.norm(solver._residual(_endpoint_weights(theta), beta))
                assert abs(reduced - full) <= 1e-12 * full, theta

    @pytest.mark.parametrize("kind,n", BUILD_CASES, ids=[f"{k}-N{n}" for k, n in BUILD_CASES])
    def test_stack_equals_dense_pattern_sums(self, kind, n):
        basis = build_basis(n, min(n, 4))
        solver = AgpSolver(endpoint_params(kind, n), basis)
        q = dense_q(solver._slots, solver._weights)
        dim = 2 ** n
        want = np.zeros((q.shape[1], dim, dim))
        for a, b in zip(*np.nonzero(q)):
            want[b] += q[a, b] * oracles.dense_pauli(basis.strings[a]).imag
        # bitwise, signed zeros too: a slot of one string is placed, not summed,
        # and must read as the sum from zero does
        assert solver.reduced_stack.tobytes() == want.tobytes()

    def test_uniform_n8_builds_and_solves(self):
        # 3,648 strings in 13 orbits; the reduced residual, which is the
        # full normal-equation residual (test_reduced_residual_is_the_full_residual),
        # is checked on every solve and must pass without a fallback
        params = EndpointParams.uniform(8)
        solver = AgpSolver(params, build_basis(8, 4))
        assert solver.basis.size == 3648
        for theta in np.linspace(0.0, 1.0, 11):
            beta = solver.reduced_batch([theta])[0]
            assert beta.shape == (13,)
            assert np.linalg.norm(solver._residual(_endpoint_weights(theta), beta)) <= solver._tol
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

#: every field and coupling changes sign across the sweep, so H0(1/2) = 0
#: and the gram is the zero matrix there
ZERO_GRAM = dict(h_i=0.0, b_i=0.5, j_i=0.1, h_f=0.0, b_f=-0.5, j_f=-0.1)
FALLBACK_CASES = [(kind, n) for kind in ("uniform", "zero-gram") for n in range(1, 7)]


SPECTRAL_CASES = ([("uniform", n, p) for n in range(1, 7) for p in range(1, min(n, 4) + 1)]
                  + [("disordered", n, p) for n in range(2, 6) for p in range(1, n + 1)])

#: 64 theta over [0, 1], six of them within 1e-3 of an end
SPECTRAL_THETAS = np.concatenate([[0.0, 5e-4, 1e-3], np.linspace(2e-3, 1 - 2e-3, 58),
                                  [1 - 1e-3, 1 - 5e-4, 1.0]])


class TestSpectralSolve:
    """The solve from one eigendecomposition of the gram pencil against the direct path."""

    @pytest.mark.parametrize("kind,n,p", SPECTRAL_CASES,
                             ids=[f"{k}-N{n}-p{p}" for k, n, p in SPECTRAL_CASES])
    def test_matches_the_direct_path(self, kind, n, p):
        # within 1e-9 relative, or within the rounding floor 1e-16 kappa of a
        # gram of condition number kappa where that is larger: near a pole of
        # beta(theta) both solves sit at that floor (disordered N = 5, p = 5
        # reaches kappa = 6e9 at theta = 0.788, where they differ by 2.5e-8)
        params = endpoint_params(kind, n)
        solver = AgpSolver(params, build_basis(n, p))
        betas = solver.reduced_batch(SPECTRAL_THETAS)
        assert solver._pencil is not None and solver.direct_solves == 0
        direct = AgpSolver(params, build_basis(n, p))
        for theta, beta in zip(SPECTRAL_THETAS, betas):
            want = direct._direct(theta)
            weights = ((1 - theta) ** 2, theta * (1 - theta), theta ** 2)
            tol = max(1e-9, 1e-16 * np.linalg.cond(np.tensordot(weights, solver._r, 1)))
            assert np.linalg.norm(beta - want) <= tol * np.linalg.norm(want), theta
        assert direct.fallbacks == solver.fallbacks == 0

    def test_factorized_once_and_not_at_build(self, monkeypatch):
        eig, calls = np.linalg.eig, []

        def counting_eig(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        solver = AgpSolver(disordered_params(3), build_basis(3, 2))
        assert calls == [] and solver.factor_s is None
        solver.reduced_batch([0.3])
        solver.reduced_batch(SPECTRAL_THETAS)
        solver.factorize()
        assert calls == [(30, 30)] and solver.factor_s > 0

    def test_failed_build_sends_every_theta_down_the_direct_path(self, monkeypatch):
        def failing_factors(self):
            raise np.linalg.LinAlgError("forced")

        params, basis = disordered_params(4), build_basis(4, 3)
        want = AgpSolver(params, basis)
        want = [want._direct(theta) for theta in SPECTRAL_THETAS]
        monkeypatch.setattr(AgpSolver, "_pencil_factors", failing_factors)
        solver = AgpSolver(params, basis)
        betas = solver.reduced_batch(SPECTRAL_THETAS)
        assert solver._pencil is None and solver.factor_s is not None
        assert solver.direct_solves == len(SPECTRAL_THETAS) and solver.fallbacks == 0
        np.testing.assert_array_equal(betas, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_gram_builds_no_factorization(self, n, monkeypatch):
        # the zero-gram solvers of FALLBACK_CASES: Gc = R(1/2) is the zero matrix
        least_squares, thetas = AgpSolver._least_squares, []

        def recording_least_squares(self, theta):
            thetas.append(theta)
            return least_squares(self, theta)

        monkeypatch.setattr(AgpSolver, "_least_squares", recording_least_squares)
        params = EndpointParams.uniform(n, **ZERO_GRAM)
        for p in range(1, min(n, 4) + 1):
            solver = AgpSolver(params, build_basis(n, p))
            betas = solver.reduced_batch([0.3, 0.5])
            assert solver._pencil is None and solver.direct_solves == 2
            assert thetas == [0.5] and solver.fallbacks == 1
            np.testing.assert_array_equal(betas[1], 0.0)
            thetas.clear()


class TestReducedCoordinates:
    @pytest.mark.parametrize("kind,n", REDUCED_CASES, ids=[f"{k}-N{n}" for k, n in REDUCED_CASES])
    def test_reduced_control_term_matches_full_tensordot(self, kind, n):
        params = EndpointParams.uniform(n) if kind == "uniform" else disordered_params(n)
        theta_dot = 1.7
        for p in range(1, min(n, 4) + 1):
            basis = build_basis(n, p)
            solver = AgpSolver(params, basis)
            for theta in (0.2, 0.65):
                beta = solver.reduced_batch([theta])[0]
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

    @pytest.mark.parametrize("kind,n", FALLBACK_CASES,
                             ids=[f"{k}-N{n}" for k, n in FALLBACK_CASES])
    def test_reduced_fallback_is_the_full_minimum_norm_solution(self, kind, n, monkeypatch):
        # P and w commute with site permutations, so the minimum-norm alpha
        # of the full m x m system is q beta, with beta that of the r x r one
        params = EndpointParams.uniform(n, **(ZERO_GRAM if kind == "zero-gram" else {}))
        lstsq, shapes = np.linalg.lstsq, set()

        def recording_lstsq(a, b, rcond):
            shapes.add(a.shape)
            return lstsq(a, b, rcond=rcond)

        for p in range(1, min(n, 4) + 1):
            basis = build_basis(n, p)
            solver = AgpSolver(params, basis)
            ref = oracles.string_build(params, basis)
            q = dense_q(solver._slots, solver._weights)
            for theta in (0.0, 0.5, 0.85):
                weights = ((1 - theta) ** 2, theta * (1 - theta), theta ** 2)
                gram = sum(c * pk for c, pk in zip(weights, ref.p))
                want = q.T @ lstsq(gram, ref.w[0], rcond=LSTSQ_RCOND)[0]
                monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
                got = solver._least_squares(theta)
                monkeypatch.setattr(np.linalg, "lstsq", lstsq)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert shapes == {(q.shape[1], q.shape[1])}
            shapes.clear()

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
            solver.reduced_batch([0.3])
            assert solver.fallbacks == 0
            beta = solver.reduced_batch([0.5])[0]
            assert solver.fallbacks == 1
            np.testing.assert_array_equal(beta, 0.0)
            # nothing is kept: a repeat solves, and falls back, again
            np.testing.assert_array_equal(solver.reduced_batch([0.5])[0], 0.0)
            assert solver.fallbacks == 2

    def test_batch_with_zero_gram_counts_one_fallback(self):
        # the system of test_gram_not_positive_definite_takes_counted_fallback
        # inside a batch: its failed Cholesky sends every theta of the batch
        # through the one-theta path, and only theta = 1/2 falls back
        for params in (
            EndpointParams.uniform(2, h_i=0.0, b_i=0.5, j_i=0.1,
                                   h_f=0.0, b_f=-0.5, j_f=-0.1),
            EndpointParams(h_i=[0.0, 0.0], b_i=[0.5, 0.3], j_i=[0.1],
                           h_f=[0.0, 0.0], b_f=[-0.5, -0.3], j_f=[-0.1]),
        ):
            thetas = [0.2, 0.35, 0.5, 0.65, 0.8]
            solver = AgpSolver(params, build_basis(2, 2))
            betas = solver.reduced_batch(thetas)
            assert solver.fallbacks == 1
            np.testing.assert_array_equal(betas[2], 0.0)
            single = AgpSolver(params, build_basis(2, 2))
            for theta, beta in zip(thetas, betas):
                np.testing.assert_array_equal(beta, single.reduced_batch([theta])[0])
            np.testing.assert_array_equal(solver.reduced_batch(thetas), betas)
            assert solver.fallbacks == 2
