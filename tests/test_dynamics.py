"""Thermal states, stroke propagation and the work split."""

import numpy as np
import pytest

import oracles
from cdotto import dynamics
from cdotto.agp import AgpSolver, build_basis
from cdotto.collective import CollectiveBasis, collective_basis
from cdotto.dynamics import (MIN_STEPS, DensityMatrix, check_state, gibbs_state,
                             propagate_stroke, thermal_state)
from cdotto.errors import DimensionError, DomainError, NumericalError
from cdotto.model import EndpointParams, SweepSpec, dh0_dtheta, h0_at, pair_index
from cdotto.paulis import OperatorSum, to_dense

from test_model import disordered_params

PARAMS1 = EndpointParams.uniform(1)
PARAMS2 = EndpointParams.uniform(2)

CONSTANT2 = EndpointParams.uniform(2, h_i=0.2, b_i=0.1, j_i=0.05,
                                   h_f=0.2, b_f=0.1, j_f=0.05)


def _oracle_cases():
    """(params, p, steps, reverse) for the dense-oracle comparison.

    The N = 3 strokes are long enough to converge the oracle's quadrature
    of Tr[rho dH_CD/dt]; the uniform N = 5, 6 and 7 strokes run in the
    collective-spin space, at the minimum step count to bound the cost of
    the oracle's dense matrix exponentials.
    """
    cases = [("bare", EndpointParams.uniform(3), 0, 2000),
             ("uniform-p2", EndpointParams.uniform(3), 2, 2000),
             ("disordered-p1", disordered_params(3), 1, 2000)]
    cases += [(f"uniform-N{n}-p{p}", EndpointParams.uniform(n), p, MIN_STEPS)
              for n in (5, 6) for p in (0, 2, 4)]
    for name, params, p, steps in cases:
        for reverse in (False, True):
            yield pytest.param(params, p, steps, reverse,
                               id=f"{name}-{'reverse' if reverse else 'forward'}")
    yield pytest.param(EndpointParams.uniform(7), 2, MIN_STEPS, False,
                       id="uniform-N7-p2-forward")


def held(full, collective):
    """A 2^N state as a stroke holds it: projected onto the collective space
    when ``collective``, which then must hold it whole, else as it is."""
    if not collective:
        return full
    n = full.shape[0].bit_length() - 1
    assert np.abs(oracles.symmetrized(full, n) - full).max() <= 1e-12
    return collective_basis(n).project(full)


def full_state(reduced):
    """The 2^N state of a collective-space one at N <= 2, where W is square
    and every multiplicity is 1."""
    basis = collective_basis(reduced.shape[0].bit_length() - 1)
    assert basis.w.shape == reduced.shape and set(basis.weights) == {1.0}
    return basis.w @ reduced @ basis.w.T


def _rotated(rho, n, phi):
    """rho turned by exp(-i phi sum_j X_j / 2), the exponential taken through eigh."""
    x = oracles.dense_operator(n, {tuple("X" if k == j else "I" for k in range(n)): 0.5
                                   for j in range(n)})
    energies, vecs = np.linalg.eigh(x)
    rot = (vecs * np.exp(-1j * phi * energies)) @ vecs.conj().T
    return rot @ rho @ rot.conj().T


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            DensityMatrix(1, m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, 0.7 * np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError, match=r"shape \(2, 2\) does not match 2 sites"):
            DensityMatrix(2, 0.5 * np.eye(2, dtype=complex))

    def test_keeps_a_real_state_real(self):
        # float stays float, int becomes float, complex stays complex; always a copy
        for given, dtype in ((np.eye(2) / 2, np.float64), (np.diag([1, 0]), np.float64),
                             (np.eye(2, dtype=complex) / 2, np.complex128)):
            rho = DensityMatrix(1, given)
            assert rho.matrix.dtype == dtype
            assert not np.shares_memory(rho.matrix, given)
            assert not rho.matrix.flags.writeable
            np.testing.assert_array_equal(rho.matrix, given)

    def test_weighted_trace_and_purity(self):
        assert check_state(0.5 * np.eye(2, dtype=complex), np.ones(2)) == (1.0, 0.5)
        # one block of multiplicity 2 carrying half the trace, and one of 1
        trace, purity = check_state(np.diag([0.25, 0.5]), np.array([2.0, 1.0]))
        assert trace == 1.0 and purity == pytest.approx(2 * 0.25 ** 2 + 0.5 ** 2)
        with pytest.raises(DomainError):
            check_state(np.diag([0.5, 0.5]), np.array([2.0, 1.0]))


class TestStrokeSpace:
    """The permutation-symmetry test that lets a stroke run in the collective
    space, against the average over all N! site permutations."""

    @staticmethod
    def cases(n):
        params = EndpointParams.uniform(n)
        rng = np.random.default_rng(n)
        a = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
        noisy = a @ a.conj().T / np.trace(a @ a.conj().T).real
        hot = gibbs_state(h0_at(params, 1.0), 0.4).matrix
        alternating = np.zeros((2 ** n, 2 ** n))
        idx = int(("01" * n)[:n], 2)
        alternating[idx, idx] = 1.0
        yield "gibbs", gibbs_state(h0_at(params, 0.0), 0.2).matrix, True
        yield "rotated", _rotated(hot, n, 0.7), True
        yield "symmetrized-random", oracles.symmetrized(noisy, n), True
        yield "alternating", alternating, False
        yield "random", noisy, False
        if n == 3:
            # |001><001| is invariant under the swap (0 1) but not (1 2)
            corner = np.zeros((8, 8))
            corner[0b001, 0b001] = 1.0
            yield "001", corner, False

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetry_test_agrees_with_permutation_average(self, n):
        params = EndpointParams.uniform(n)
        gibbs = gibbs_state(h0_at(params, 0.0), 0.2).matrix
        for name, rho, symmetric in self.cases(n):
            oracle = np.abs(oracles.symmetrized(rho, n) - rho).max() <= dynamics.SYMMETRY_TOL
            assert oracle == symmetric, name
            # every state of the stroke must pass
            for states in ((rho,), (gibbs, rho)):
                space = dynamics._stroke_space(params, *states)
                assert isinstance(space, CollectiveBasis) == symmetric, name
        # site-dependent endpoints never run in the collective space
        assert not isinstance(dynamics._stroke_space(disordered_params(n), gibbs),
                              CollectiveBasis)


class TestGibbs:
    def test_two_level_populations(self):
        rho = gibbs_state(OperatorSum(1, {("X",): -0.2}), 0.2)
        # splitting 0.4 at T = 0.2: excited weight e^-2
        pops = np.sort(np.linalg.eigvalsh(rho.matrix))
        z = 1.0 + np.exp(-2.0)
        np.testing.assert_allclose(pops, [np.exp(-2.0) / z, 1.0 / z], atol=1e-12)

    def test_infinite_temperature_limit(self):
        rho = gibbs_state(h0_at(PARAMS2, 1.0), 1e6)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-5)

    def test_cold_corner_energy(self):
        rho = gibbs_state(h0_at(PARAMS1, 0.0), 0.2)
        energy = np.trace(rho.matrix @ to_dense(h0_at(PARAMS1, 0.0))).real
        assert energy == pytest.approx(-0.2 * np.tanh(1.0), abs=1e-12)

    def test_commutes_with_hamiltonian(self):
        h = h0_at(disordered_params(2), 0.5)
        rho = gibbs_state(h, 0.3)
        hd = to_dense(h)
        assert np.abs(rho.matrix @ hd - hd @ rho.matrix).max() < 1e-10

    def test_temperature_domain(self):
        with pytest.raises(DomainError):
            gibbs_state(h0_at(PARAMS1, 0.0), 0.0)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "disordered"])
    def test_the_medium_is_real(self, n, uniform):
        # H0, dH0/dtheta and the Gibbs state are float64 all the way through
        p = EndpointParams.uniform(n) if uniform else disordered_params(n)

        def ising(h, b, j):
            return oracles.dense_ising(n, h, b, dict(zip(pair_index(n), j)))

        theta = 0.37
        at_theta = ising(*(a + (f - a) * theta for a, f in
                           ((p.h_i, p.h_f), (p.b_i, p.b_f), (p.j_i, p.j_f))))
        slope = ising(p.h_f - p.h_i, p.b_f - p.b_i, p.j_f - p.j_i)
        for op, want in ((h0_at(p, theta), at_theta), (dh0_dtheta(p), slope)):
            dense = to_dense(op)
            assert dense.dtype == np.float64
            np.testing.assert_allclose(dense, want, rtol=0, atol=1e-14)
        assert thermal_state(h0_at(p, 0.0), 0.2)[2].matrix.dtype == np.float64


class TestExpectation:
    """The energy expectations a stroke reports at its two ends."""

    def test_maximally_mixed_traceless(self):
        rho = DensityMatrix(2, np.eye(4, dtype=complex) / 4.0)
        res = propagate_stroke(rho, PARAMS2, SweepSpec(1.0), steps=200)
        assert res.e_start == pytest.approx(0.0, abs=1e-15)
        # unitary steps leave the state maximally mixed, up to their roundoff
        assert res.e_end == pytest.approx(0.0, abs=1e-12)

    def test_ground_state_projector(self):
        # H0(0) = -0.5 Z, whose ground state is |0>
        params = EndpointParams.uniform(1, h_i=0.0, b_i=0.5)
        rho = DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex))
        res = propagate_stroke(rho, params, SweepSpec(1.0), steps=200)
        assert res.e_start == -0.5


class TestPropagation:
    def test_constant_hamiltonian_is_a_no_op(self):
        rho = gibbs_state(h0_at(CONSTANT2, 0.0), 0.2)
        res = propagate_stroke(rho, CONSTANT2, SweepSpec(1.0), steps=500)
        assert np.abs(full_state(res.final_state) - rho.matrix).max() < 1e-12
        assert abs(res.w_sta) < 1e-12
        assert abs(res.w_0) < 1e-12
        assert abs(res.w_cd) < 1e-12

    def test_minimum_step_count(self):
        rho = gibbs_state(h0_at(PARAMS1, 0.0), 0.2)
        with pytest.raises(DomainError):
            propagate_stroke(rho, PARAMS1, SweepSpec(1.0), steps=50)

    def test_transitionless_tracking_single_site(self):
        rho = gibbs_state(h0_at(PARAMS1, 0.0), 0.2)
        res = propagate_stroke(rho, PARAMS1, SweepSpec(1.0),
                               cd=AgpSolver(PARAMS1, build_basis(1, 1)), steps=2000)
        pops_start = np.sort(np.linalg.eigvalsh(rho.matrix))
        w, v = np.linalg.eigh(to_dense(h0_at(PARAMS1, 1.0)))
        pops_end = np.sort(np.diag(v.conj().T @ full_state(res.final_state) @ v).real)
        np.testing.assert_allclose(pops_end, pops_start, atol=1e-6)

    def test_exact_control_splits_work_cleanly(self):
        rho = gibbs_state(h0_at(PARAMS2, 0.0), 0.2)
        res = propagate_stroke(rho, PARAMS2, SweepSpec(1.0),
                               cd=AgpSolver(PARAMS2, build_basis(2, 2)), steps=2000)
        assert abs(res.w_cd) <= 1e-6 * max(abs(res.w_sta), 0.2)

    def test_work_split_identity_is_exact(self):
        rho = gibbs_state(h0_at(PARAMS2, 0.0), 0.2)
        res = propagate_stroke(rho, PARAMS2, SweepSpec(0.7),
                               cd=AgpSolver(PARAMS2, build_basis(2, 1)), steps=500)
        assert res.w_sta == res.w_0 + res.w_cd

    def test_unitarity_drifts(self):
        rho = gibbs_state(h0_at(PARAMS2, 0.0), 0.2)
        res = propagate_stroke(rho, PARAMS2, SweepSpec(1.0),
                               cd=AgpSolver(PARAMS2, build_basis(2, 2)), steps=2000)
        assert res.diagnostics.trace_drift <= 1e-10
        assert res.diagnostics.purity_drift <= 1e-10

    def test_step_halving_convergence(self):
        for n, cd in ((2, build_basis(2, 2)), (4, None)):
            params = EndpointParams.uniform(n)
            rho = gibbs_state(h0_at(params, 0.0), 0.2)
            solver = AgpSolver(params, cd) if cd is not None else None
            coarse = propagate_stroke(rho, params, SweepSpec(1.0), cd=solver, steps=2000)
            fine = propagate_stroke(rho, params, SweepSpec(1.0), cd=solver, steps=4000)
            assert abs(coarse.w_sta - fine.w_sta) <= 1e-7
            assert abs(coarse.w_0 - fine.w_0) <= 1e-7

    def test_tracked_state_stays_diagonal_in_energy_basis(self):
        # in the collective space, where the stroke holds the state
        params = EndpointParams.uniform(3)
        rho = gibbs_state(h0_at(params, 0.0), 0.2)
        res = propagate_stroke(rho, params, SweepSpec(1.0),
                               cd=AgpSolver(params, build_basis(3, 3)), steps=2000)
        h_end = collective_basis(3).project(to_dense(h0_at(params, 1.0)).real)
        w, v = np.linalg.eigh(h_end)
        in_basis = v.conj().T @ res.final_state @ v
        distinct = np.abs(w[:, None] - w[None, :]) > 1e-9
        assert np.linalg.norm(in_basis[distinct]) <= 1e-6

    def test_reverse_stroke_returns_along_same_path(self):
        # forward then reverse with exact control restores the populations
        params = PARAMS2
        solver = AgpSolver(params, build_basis(2, 2))
        rho = gibbs_state(h0_at(params, 0.0), 0.2)
        fwd = propagate_stroke(rho, params, SweepSpec(1.0), cd=solver, steps=1000)
        back = propagate_stroke(rho, params, SweepSpec(1.0), cd=solver, steps=1000,
                                reverse_from=DensityMatrix(2, full_state(fwd.final_state))).reverse
        pops0 = np.sort(np.linalg.eigvalsh(rho.matrix))
        pops1 = np.sort(np.linalg.eigvalsh(back.final_state))
        np.testing.assert_allclose(pops1, pops0, atol=1e-8)

    @pytest.mark.parametrize("params,p,steps,reverse", _oracle_cases())
    def test_matches_dense_stroke_oracle(self, params, p, steps, reverse):
        n = params.n_sites
        rho_a = gibbs_state(h0_at(params, 0.0), 0.2)
        rho = gibbs_state(h0_at(params, 1.0), 0.4) if reverse else rho_a
        # the oracle gets a solver of its own, so it shares no state with the stroke
        solvers = [AgpSolver(params, build_basis(n, p)) if p else None for _ in range(2)]
        res = propagate_stroke(rho_a, params, SweepSpec(1.0), cd=solvers[0], steps=steps,
                               reverse_from=rho if reverse else None)
        if reverse:
            res = res.reverse
        converged = steps >= 2000
        ref = oracles.dense_stroke(rho.matrix, params, 1.0, steps, reverse=reverse,
                                   solver=solvers[1], cd_work=converged)
        assert np.abs(res.final_state - held(ref.final, params.is_uniform())).max() <= 1e-10
        assert res.e_end == pytest.approx(ref.e_end, abs=1e-10)
        assert res.w_0 == pytest.approx(ref.w_0, abs=1e-10)
        if converged:
            # the control device's work, an endpoint-energy remainder in the
            # package, is the quadrature of Tr[rho dH_CD/dt] (zero when bare)
            assert res.w_cd == pytest.approx(ref.w_cd, abs=1e-6)
        if p == 1:
            assert abs(res.w_cd) > 1e-2  # first-order control is genuinely inexact here

    @pytest.mark.parametrize("p", [0, 2])
    def test_non_symmetric_state_matches_dense_stroke_oracle(self, p):
        # uniform endpoints, but |0101><0101| is not permutation-symmetric,
        # so the stroke must not run in the collective-spin space
        params = EndpointParams.uniform(4)
        rho = np.zeros((16, 16), dtype=complex)
        rho[0b0101, 0b0101] = 1.0
        solvers = [AgpSolver(params, build_basis(4, p)) if p else None for _ in range(2)]
        res = propagate_stroke(DensityMatrix(4, rho), params, SweepSpec(1.0),
                               cd=solvers[0], steps=MIN_STEPS)
        ref = oracles.dense_stroke(rho, params, 1.0, MIN_STEPS, solver=solvers[1],
                                   cd_work=False)
        assert np.abs(res.final_state - ref.final).max() <= 1e-10
        assert res.e_end == pytest.approx(ref.e_end, abs=1e-10)
        assert res.w_0 == pytest.approx(ref.w_0, abs=1e-10)

    @pytest.mark.parametrize("kind,p", [("uniform", 0), ("uniform", 2),
                                        ("disordered", 0), ("disordered", 2)])
    def test_chunked_stroke_matches_one_chunk_and_oracle(self, kind, p, monkeypatch):
        # uniform N = 4 runs in the collective-spin space (9 states),
        # disordered N = 3 in the full one (8 states)
        params = EndpointParams.uniform(4) if kind == "uniform" else disordered_params(3)
        n = params.n_sites
        dim = collective_basis(n).w.shape[1] if kind == "uniform" else 2 ** n
        rho = gibbs_state(h0_at(params, 0.0), 0.2)
        spec = SweepSpec(1.0)
        steps = MIN_STEPS + 3  # not a multiple of the 7 steps of a chunk
        solvers = [AgpSolver(params, build_basis(n, p)) if p else None for _ in range(3)]
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 1 << 40)
        whole = propagate_stroke(rho, params, spec, cd=solvers[0], steps=steps)

        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 7 * dynamics._step_bytes(dim))
        chunk_sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(h):
            chunk_sizes.append(len(h))
            return eigh(h)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        chunked = propagate_stroke(rho, params, spec, cd=solvers[1], steps=steps)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert chunk_sizes == [7] * (steps // 7) + [steps % 7]

        assert np.abs(chunked.final_state - whole.final_state).max() <= 1e-12
        for name in ("e_end", "w_0", "w_cd"):
            assert getattr(chunked, name) == pytest.approx(getattr(whole, name), abs=1e-12)
        np.testing.assert_allclose(chunked.diagnostics.hcd_norm_sq,
                                   whole.diagnostics.hcd_norm_sq, rtol=0, atol=1e-12)
        ref = oracles.dense_stroke(rho.matrix, params, 1.0, steps, solver=solvers[2],
                                   cd_work=False)
        assert np.abs(chunked.final_state - held(ref.final, kind == "uniform")).max() <= 1e-10
        assert chunked.e_end == pytest.approx(ref.e_end, abs=1e-10)
        assert chunked.w_0 == pytest.approx(ref.w_0, abs=1e-10)

    @pytest.mark.parametrize("kind,p", [("uniform", 3), ("disordered", 2)])
    def test_one_row_solve_blocks_match_the_default_and_oracle(self, kind, p, monkeypatch):
        # the default blocks are a full one and a partial one; blocks of one
        # row cross every boundary of the default blocks and of the chunks
        params = EndpointParams.uniform(4) if kind == "uniform" else disordered_params(3)
        n = params.n_sites
        rho = gibbs_state(h0_at(params, 0.0), 0.2)
        spec = SweepSpec(1.0)
        solvers = [AgpSolver(params, build_basis(n, p)) for _ in range(3)]
        rows = dynamics._solve_rows(solvers[0].reduced_stack.shape[0])
        steps = max(MIN_STEPS, rows + rows // 2 + 1)
        assert rows > 1 and steps > rows and steps % rows

        def block_sizes(solver):
            sizes, batch = [], solver.reduced_batch

            def recording(thetas):
                sizes.append(len(thetas))
                return batch(thetas)

            monkeypatch.setattr(solver, "reduced_batch", recording)
            return sizes

        default_sizes, one_row_sizes = block_sizes(solvers[0]), block_sizes(solvers[1])
        default = propagate_stroke(rho, params, spec, cd=solvers[0], steps=steps)
        monkeypatch.setattr(dynamics, "_solve_rows", lambda r: 1)
        one_row = propagate_stroke(rho, params, spec, cd=solvers[1], steps=steps)
        assert default_sizes == [rows] * (steps // rows) + [steps % rows]
        assert one_row_sizes == [1] * steps

        assert np.abs(one_row.final_state - default.final_state).max() <= 1e-12
        for name in ("e_end", "w_0", "w_cd"):
            assert getattr(one_row, name) == pytest.approx(getattr(default, name), abs=1e-12)
        # 2^N theta_dot^2 ||beta||^2 reaches 85 here; a block moves beta in its last bits
        np.testing.assert_allclose(one_row.diagnostics.hcd_norm_sq,
                                   default.diagnostics.hcd_norm_sq, rtol=1e-12, atol=1e-12)
        ref = oracles.dense_stroke(rho.matrix, params, 1.0, steps, solver=solvers[2],
                                   cd_work=False)
        assert np.abs(one_row.final_state - held(ref.final, kind == "uniform")).max() <= 1e-10
        assert one_row.e_end == pytest.approx(ref.e_end, abs=1e-10)
        assert one_row.w_0 == pytest.approx(ref.w_0, abs=1e-10)

    @pytest.mark.parametrize("params,dim", [(EndpointParams.uniform(3), 6),
                                            (disordered_params(3), 8)],
                             ids=["collective", "full"])
    def test_final_state_check_fires_in_the_stroke_space(self, params, dim, monkeypatch):
        # eigenvectors stretched by 1.01 make every step unitary 1.0201 times
        # too long, so the final state's trace is far from 1
        rho = gibbs_state(h0_at(params, 0.0), 0.2)
        sizes = []
        eigh = np.linalg.eigh

        def stretching_eigh(h):
            energies, vecs = eigh(h)
            if h.ndim == 3:  # the stroke's stacked calls
                sizes.append(h.shape[-1])
                vecs = vecs * 1.01
            return energies, vecs

        monkeypatch.setattr(np.linalg, "eigh", stretching_eigh)
        with pytest.raises(DomainError, match="trace"):
            propagate_stroke(rho, params, SweepSpec(1.0), steps=MIN_STEPS)
        assert set(sizes) == {dim}

    def test_non_finite_state_names_first_bad_step(self, monkeypatch):
        # chunks of 7 steps; the eigenvectors of the fifth step of the third
        # chunk (step 19) turn to nan, and so does every later state
        rho = gibbs_state(h0_at(PARAMS2, 0.0), 0.2)
        monkeypatch.setattr(dynamics, "CHUNK_BYTES", 7 * dynamics._step_bytes(4))
        calls = []
        eigh = np.linalg.eigh

        def failing_eigh(h):
            energies, vecs = eigh(h)
            if h.ndim == 3:  # the stroke's stacked calls
                calls.append(len(h))
                if len(calls) == 3:
                    vecs[4] = np.nan
            return energies, vecs

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match=r"non-finite state at step 19 of 200$"):
            propagate_stroke(rho, PARAMS2, SweepSpec(1.0), steps=200)
        assert calls == [7, 7, 7]

    @pytest.mark.parametrize("params,p", [
        pytest.param(EndpointParams.uniform(4), 2, id="uniform-N4-p2"),
        pytest.param(disordered_params(3), 3, id="disordered-N3-p3"),
        pytest.param(EndpointParams.uniform(3), 0, id="bare-N3")])
    @pytest.mark.parametrize("start", ["gibbs", "rotated", "product"])
    def test_mirrored_stroke_matches_own_propagation_and_oracle(self, params, p, start):
        # "rotated" turns the hot Gibbs state about the collective x axis, a
        # complex Hermitian, permutation-symmetric state that pins the
        # transpose in the mirrored stroke; "product" is |0101...>, which is
        # not permutation-symmetric, so the pass must leave the collective space
        n = params.n_sites
        rho_a = gibbs_state(h0_at(params, 0.0), 0.2)
        rho_c = gibbs_state(h0_at(params, 1.0), 0.4)
        if start == "rotated":
            rho_c = DensityMatrix(n, _rotated(rho_c.matrix, n, 0.7))
        elif start == "product":
            rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
            idx = int(("01" * n)[:n], 2)
            rho[idx, idx] = 1.0
            rho_c = DensityMatrix(n, rho)
        steps = MIN_STEPS + 3
        solvers = [AgpSolver(params, build_basis(n, p)) if p else None for _ in range(2)]
        fused = propagate_stroke(rho_a, params, SweepSpec(1.0), cd=solvers[0], steps=steps,
                                 reverse_from=rho_c)
        forward = propagate_stroke(rho_a, params, SweepSpec(1.0), cd=solvers[1], steps=steps)
        own = propagate_stroke(rho_c, params, oracles.MirroredSweep(1.0), cd=solvers[1],
                               steps=steps)
        assert forward.reverse is None and own.reverse is None
        collective = params.is_uniform() and start != "product"
        for got, want in ((fused, forward), (fused.reverse, own)):
            # the forward call alone stays in the collective space
            got_state = held(got.final_state, got.final_state.shape != want.final_state.shape)
            assert np.abs(got_state - want.final_state).max() <= 1e-12
            for name in ("e_start", "e_end", "w_0", "w_cd"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
            for name in ("trace_drift", "purity_drift"):
                assert getattr(got.diagnostics, name) == pytest.approx(
                    getattr(want.diagnostics, name), abs=1e-12)
            np.testing.assert_array_equal(got.diagnostics.hcd_times, want.diagnostics.hcd_times)
            np.testing.assert_allclose(got.diagnostics.hcd_norm_sq,
                                       want.diagnostics.hcd_norm_sq, rtol=0, atol=1e-12)
        assert fused.reverse.diagnostics.agp_fallbacks == 0
        assert set(fused.reverse.diagnostics.layer_s.values()) == {0.0}

        ref = oracles.dense_stroke(rho_c.matrix, params, 1.0, steps, reverse=True,
                                   solver=solvers[1], cd_work=False)
        assert np.abs(fused.reverse.final_state - held(ref.final, collective)).max() <= 1e-10
        assert fused.reverse.e_end == pytest.approx(ref.e_end, abs=1e-10)
        assert fused.reverse.w_0 == pytest.approx(ref.w_0, abs=1e-10)

    def test_control_must_be_a_solver(self):
        rho = gibbs_state(h0_at(PARAMS1, 0.0), 0.2)
        with pytest.raises(TypeError):
            propagate_stroke(rho, PARAMS1, SweepSpec(1.0), cd=build_basis(1, 1), steps=200)

    def test_solver_reuse_requires_matching_params(self):
        solver = AgpSolver(PARAMS2, build_basis(2, 2))
        other = disordered_params(2)
        rho = gibbs_state(h0_at(other, 0.0), 0.2)
        with pytest.raises(ValueError):
            propagate_stroke(rho, other, SweepSpec(1.0), cd=solver, steps=200)

    def test_dimension_mismatch(self):
        rho = gibbs_state(h0_at(PARAMS1, 0.0), 0.2)
        with pytest.raises(DimensionError):
            propagate_stroke(rho, PARAMS2, SweepSpec(1.0), steps=200)
        with pytest.raises(DimensionError):
            propagate_stroke(gibbs_state(h0_at(PARAMS2, 0.0), 0.2), PARAMS2, SweepSpec(1.0),
                             steps=200, reverse_from=rho)
