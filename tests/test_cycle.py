"""Four-stroke cycle metrics, the adiabatic reference and sweeps."""

import math

import numpy as np
import pytest

import oracles
from cdotto import agp, cycle, dynamics
from cdotto.agp import AgpSolver, build_basis
from cdotto.cycle import (
    CycleConfig,
    RunOptions,
    adiabatic_reference,
    cd_cost,
    run_cycle,
    sweep,
)
from cdotto.dynamics import LAYERS, gibbs_state
from cdotto.errors import CapacityError, DomainError
from cdotto.model import EndpointParams, h0_at, sweep_theta_dot
from cdotto.paulis import DENSE_SITE_CAP

from test_model import disordered_params

FAST = RunOptions(steps_per_unit_time=1000, min_steps=200, converge=False)


def uniform_cfg(n, p, tau=1.0, **kwargs):
    return CycleConfig(params=EndpointParams.uniform(n), p=p,
                       tau1=tau, tau3=tau, **kwargs)


class TestConfig:
    def test_temperature_ordering_enforced(self):
        with pytest.raises(DomainError):
            uniform_cfg(1, 0, Tc=0.4, Th=0.2)

    def test_durations_positive(self):
        with pytest.raises(DomainError):
            uniform_cfg(1, 0, tau=-1.0)

    def test_negative_cost_prefactor_rejected(self):
        with pytest.raises(DomainError, match="nu must be >= 0"):
            uniform_cfg(1, 1, nu=-1.0)
        assert uniform_cfg(1, 1, nu=0.0).nu == 0.0

    @pytest.mark.parametrize("name", ["Tc", "Th", "tau1", "tau2", "tau3", "tau4", "nu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            CycleConfig(params=EndpointParams.uniform(1), **{name: value})

    @pytest.mark.parametrize("kwargs, match", [
        ({"steps_per_unit_time": math.nan}, "steps_per_unit_time"),
        ({"steps_per_unit_time": math.inf}, "steps_per_unit_time"),
        ({"steps_per_unit_time": -5.0}, "steps_per_unit_time"),
        ({"steps_per_unit_time": 0.0, "min_steps": 0}, "steps_per_unit_time"),
        ({"min_steps": 0}, "min_steps"),
        ({"min_steps": 5000, "max_steps": 1000}, "min_steps"),
    ])
    def test_run_options_rejected(self, kwargs, match):
        with pytest.raises(DomainError, match=match):
            RunOptions(**kwargs)

    def test_run_options_below_the_propagation_minimum_are_legal(self):
        # the stroke, not RunOptions, refuses too few steps
        opts = RunOptions(steps_per_unit_time=10, min_steps=10, max_steps=10)
        assert opts.stroke_steps(1.0) == 10

    def test_order_above_site_count_is_clamped(self):
        cfg = uniform_cfg(2, 4)
        assert cfg.effective_p == 2

    def test_cycle_time(self):
        cfg = uniform_cfg(1, 0, tau=40.0)
        assert cfg.tau_cycle == pytest.approx(80.2)


class TestRunCycle:
    def test_first_law_closure(self):
        for cfg in (uniform_cfg(1, 0), uniform_cfg(2, 1), uniform_cfg(3, 2),
                    CycleConfig(EndpointParams.uniform(2), p=2, tau1=1.0, tau3=1.5)):
            rep = run_cycle(cfg, FAST)
            closure = rep.W1 + rep.W3 + rep.Qc + rep.Qh
            scale = abs(rep.W1) + abs(rep.W3) + abs(rep.Qc) + abs(rep.Qh) + rep.Tc
            assert abs(closure) <= 1e-8 * scale

    def test_diagnostics_split_wall_time(self):
        diag = run_cycle(uniform_cfg(2, 2), FAST).diagnostics
        assert tuple(diag["layer_s"]) == LAYERS
        assert 0.0 < sum(diag["layer_s"].values()) <= diag["wall_s"]
        bare = run_cycle(uniform_cfg(2, 0), FAST).diagnostics
        assert bare["layer_s"]["solve_s"] < bare["wall_s"]
        # the factorization is timed on its own, outside the stroke layers
        assert diag["agp_direct"] == 0 and 0.0 < diag["agp_factor_s"] < diag["wall_s"]
        assert bare["agp_direct"] == 0 and bare["agp_factor_s"] == 0.0

    def test_without_a_factorization_every_theta_is_solved_directly(self):
        # every field and coupling changes sign across the sweep, so the gram
        # is zero at theta = 1/2 and the pencil has no factorization
        params = EndpointParams.uniform(2, h_i=0.0, b_i=0.5, j_i=0.1,
                                        h_f=0.0, b_f=-0.5, j_f=-0.1)
        rep = run_cycle(CycleConfig(params, p=2), FAST)
        # one call per pass solves the forward stroke's midpoints
        assert rep.diagnostics["agp_direct"] == rep.steps // 2
        assert rep.diagnostics["agp_fallbacks"] == 0

    @pytest.mark.parametrize("tau3", [1.0, 1.5])
    def test_reverse_stroke_takes_forward_solutions_when_grids_mirror(self, tau3, monkeypatch):
        # with tau1 = tau3 the reverse stroke is taken from the forward step
        # unitaries: one pass solves and exponentiates steps1 midpoints
        cfg = CycleConfig(params=EndpointParams.uniform(2), p=2, tau1=1.0, tau3=tau3)
        solved, exponentiated = [], []
        reduced_batch, step_unitaries = AgpSolver.reduced_batch, dynamics._step_unitaries

        def counting_batch(self, thetas):
            solved.extend(thetas)
            return reduced_batch(self, thetas)

        def counting_step_unitaries(h, dt):
            exponentiated.append(len(h))
            return step_unitaries(h, dt)

        monkeypatch.setattr(AgpSolver, "reduced_batch", counting_batch)
        monkeypatch.setattr(dynamics, "_step_unitaries", counting_step_unitaries)
        rep = run_cycle(cfg, FAST)
        steps1, steps3 = FAST.stroke_steps(cfg.tau1), FAST.stroke_steps(tau3)
        assert rep.steps == steps1 + steps3
        expected = steps1 if tau3 == cfg.tau1 else steps1 + steps3
        assert len(solved) == expected
        assert sum(exponentiated) == expected

    @pytest.mark.parametrize("params,p", [
        pytest.param(EndpointParams.uniform(3), 2, id="uniform-N3-p2"),
        pytest.param(disordered_params(3), 1, id="disordered-N3-p1")])
    def test_unequal_strokes_match_dense_oracle_cycle(self, params, p):
        # stroke 3 is read off a forward tau3 sweep; the oracle steps the
        # time-reversed profile from rho_c itself
        cfg = CycleConfig(params=params, p=p, tau1=1.0, tau3=1.5)
        rep = run_cycle(cfg, FAST)
        n = params.n_sites
        pairs = [(j, k) for j in range(1, n) for k in range(j)]
        h_cold = oracles.dense_ising(n, params.h_i, params.b_i, dict(zip(pairs, params.j_i)))
        h_hot = oracles.dense_ising(n, params.h_f, params.b_f, dict(zip(pairs, params.j_f)))
        rho_a = gibbs_state(h0_at(params, 0.0), cfg.Tc).matrix
        rho_c = gibbs_state(h0_at(params, 1.0), cfg.Th).matrix
        solver = AgpSolver(params, build_basis(n, p))
        s1 = oracles.dense_stroke(rho_a, params, cfg.tau1, FAST.stroke_steps(cfg.tau1),
                                  solver=solver, cd_work=False)
        s3 = oracles.dense_stroke(rho_c, params, cfg.tau3, FAST.stroke_steps(cfg.tau3),
                                  reverse=True, solver=solver, cd_work=False)
        e_a = float(np.sum(rho_a * h_cold.T).real)
        e_c = float(np.sum(rho_c * h_hot.T).real)
        assert rep.W1 == pytest.approx(s1.e_end - e_a, abs=1e-10)
        assert rep.W3 == pytest.approx(s3.e_end - e_c, abs=1e-10)
        assert rep.Qc == pytest.approx(e_a - s3.e_end, abs=1e-10)
        assert rep.W0_total == pytest.approx(s1.w_0 + s3.w_0, abs=1e-10)

    def test_unequal_strokes_sum_fallbacks_and_layer_time_per_call(self, monkeypatch):
        # with tau1 != tau3 a pass makes two calls, and stroke 3 is the second
        # call's reverse, which reports no fallbacks or layer time of its own;
        # a zero residual tolerance sends almost every theta to the fallback
        monkeypatch.setattr(agp, "RESIDUAL_RTOL", 0.0)
        cfg = CycleConfig(EndpointParams.uniform(2), p=2, tau1=1.0, tau3=1.5)
        fallbacks, calls = [], []
        least_squares, propagate = AgpSolver._least_squares, cycle.propagate_stroke

        def counting_least_squares(self, theta):
            fallbacks.append(theta)
            return least_squares(self, theta)

        def recording_propagate(*args, **kwargs):
            before = len(fallbacks)
            res = propagate(*args, **kwargs)
            calls.append((res, len(fallbacks) - before))
            return res

        monkeypatch.setattr(AgpSolver, "_least_squares", counting_least_squares)
        monkeypatch.setattr(cycle, "propagate_stroke", recording_propagate)
        opts = RunOptions(steps_per_unit_time=200, min_steps=200, converge=True)
        diag = run_cycle(cfg, opts).diagnostics
        assert len(diag["pass_qc"]) >= 2 and len(calls) == 2 * len(diag["pass_qc"])
        final = [count for _, count in calls[-2:]]
        assert min(final) > 0 and sum(final) < len(fallbacks)
        assert diag["agp_fallbacks"] == sum(final)
        for name in LAYERS:
            assert diag["layer_s"][name] == pytest.approx(
                sum(res.diagnostics.layer_s[name] for res, _ in calls), rel=1e-12)

    def test_dense_cap_fails_before_the_solver_is_built(self, monkeypatch):
        built = []

        def no_solver(*args):
            built.append(args)
            raise AssertionError("AgpSolver built for a point above the dense cap")

        monkeypatch.setattr(cycle, "AgpSolver", no_solver)
        cfg = uniform_cfg(DENSE_SITE_CAP + 1, 2)
        with pytest.raises(CapacityError):
            run_cycle(cfg, FAST)
        assert built == []

    def test_single_site_exact_control_hits_lz_cop(self):
        rep = run_cycle(uniform_cfg(1, 1), RunOptions(converge=False))
        assert rep.cop == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert rep.cop_carnot == pytest.approx(1.0)
        assert rep.cop <= rep.cop_carnot + 1e-9

    def test_requested_order_is_reported_clamped_physics(self):
        a = run_cycle(uniform_cfg(2, 2), FAST)
        b = run_cycle(uniform_cfg(2, 4), FAST)
        assert b.p == 4
        assert (a.Qc, a.Qh, a.W1, a.W3) == (b.Qc, b.Qh, b.W1, b.W3)

    def test_cop_marker_when_no_work_consumed(self):
        # engine orientation (h/Tc > b/Th): net work is extracted, so the
        # coefficient of performance is undefined rather than negative
        cfg = uniform_cfg(1, 1, Tc=0.05, Th=0.4)
        rep = run_cycle(cfg, FAST)
        assert rep.W1 + rep.W3 < 0
        assert rep.cop is None
        assert not rep.cop_defined

    def test_no_control_means_no_cost(self):
        rep = run_cycle(uniform_cfg(2, 0), FAST)
        assert rep.cost1 == 0.0 and rep.cost3 == 0.0

    def test_cost_positive_and_symmetric_for_equal_strokes(self):
        rep = run_cycle(uniform_cfg(2, 1), FAST)
        assert rep.cost1 > 0
        assert rep.cost1 == pytest.approx(rep.cost3, rel=1e-12)

    def test_convergence_doubling(self):
        opts = RunOptions(steps_per_unit_time=500, min_steps=200, converge=True)
        rep = run_cycle(uniform_cfg(1, 1), opts)
        pass_steps = rep.diagnostics["pass_steps"]
        assert rep.converged is True
        assert len(pass_steps) >= 2 and pass_steps[-1] == rep.steps
        # the first pass runs half the steps the options ask for
        assert rep.steps >= 2 * opts.stroke_steps(1.0)
        assert 2 * pass_steps[-2] == rep.steps

    def test_half_step_pass_is_dropped_below_the_minimum(self):
        # s = 150 steps per stroke, so the s // 2 pass would run 75 < MIN_STEPS
        opts = RunOptions(steps_per_unit_time=150, min_steps=150, converge=True)
        rep = run_cycle(uniform_cfg(1, 0), opts)
        assert rep.diagnostics["pass_steps"][0] == 300

    @pytest.mark.parametrize("params,p,tau3,at_once", [
        pytest.param(EndpointParams.uniform(2), 0, 1.0, False, id="uniform-N2-p0"),
        pytest.param(EndpointParams.uniform(3), 3, 1.0, True, id="uniform-N3-p3"),
        pytest.param(disordered_params(3), 1, 1.0, False, id="disordered-N3-p1"),
        pytest.param(EndpointParams.uniform(2), 1, 1.5, True, id="uniform-N2-p1-tau3")])
    def test_converged_flag_is_honest(self, params, p, tau3, at_once):
        # a converged Qc lies within the tolerance of a run at four times
        # the reported steps of each stroke
        rate = 200.0
        opts = RunOptions(steps_per_unit_time=rate, min_steps=200, converge=True)
        cfg = CycleConfig(params=params, p=p, tau1=1.0, tau3=tau3)
        rep = run_cycle(cfg, opts)
        assert rep.converged is True
        requested = opts.stroke_steps(cfg.tau1) + opts.stroke_steps(cfg.tau3)
        assert (rep.steps == requested) is at_once
        fine = run_cycle(cfg, RunOptions(steps_per_unit_time=4 * rate * rep.steps / requested,
                                         min_steps=200, converge=False))
        assert fine.steps == 4 * rep.steps
        assert abs(rep.Qc - fine.Qc) <= cycle.CONVERGE_TOL

    def test_convergence_flag_unchecked_when_disabled(self):
        rep = run_cycle(uniform_cfg(1, 0), FAST)
        assert rep.converged is None


class TestAdiabaticReference:
    def test_two_level_closed_form(self):
        ref = adiabatic_reference(uniform_cfg(1, 0))
        expected = 0.2 * (math.tanh(0.5 / 0.4) - math.tanh(0.2 / 0.2))
        assert ref.qc == pytest.approx(expected, abs=1e-14)
        e_a, e_b, e_c, e_d = ref.energies
        closed = oracles.two_level_energies(0.2, 0.5, 0.2, 0.4)
        np.testing.assert_allclose((e_a, e_b, e_c, e_d), closed, atol=1e-13)

    def test_degenerate_endpoints_do_no_work(self):
        # equal endpoints make the sweeps no-ops: zero work, and the pumped
        # heat reduces to the thermal-contact value <H>_Tc - <H>_Th
        params = EndpointParams.uniform(2, h_i=0.2, b_i=0.1, j_i=0.05,
                                        h_f=0.2, b_f=0.1, j_f=0.05)
        cfg = CycleConfig(params=params, p=0, tau1=1.0, tau3=1.0)
        ref = adiabatic_reference(cfg)
        e_a, e_b, e_c, e_d = ref.energies
        assert (e_b - e_a) + (e_d - e_c) == pytest.approx(0.0, abs=1e-14)
        energies = np.linalg.eigvalsh(
            oracles.dense_ising(2, [0.2, 0.2], [0.1, 0.1], {(1, 0): 0.05}))
        p_cold = oracles.gibbs_populations(energies, 0.2)
        p_hot = oracles.gibbs_populations(energies, 0.4)
        assert ref.qc == pytest.approx(float((p_cold - p_hot) @ energies), abs=1e-12)

    def test_zero_hamiltonian_pumps_nothing(self):
        params = EndpointParams.uniform(1, h_i=0.0, b_i=0.0, j_i=0.0,
                                        h_f=0.0, b_f=0.0, j_f=0.0)
        cfg = CycleConfig(params=params, p=0, tau1=1.0, tau3=1.0)
        assert adiabatic_reference(cfg).qc == pytest.approx(0.0, abs=1e-14)

    def test_matches_independent_transport_oracle(self):
        cfg = uniform_cfg(2, 0)
        ref = adiabatic_reference(cfg)
        cold = oracles.dense_ising(2, [0.2, 0.2], [0.0, 0.0], {(1, 0): 0.0})
        hot = oracles.dense_ising(2, [0.0, 0.0], [0.5, 0.5], {(1, 0): 0.1})
        e_cold = np.linalg.eigvalsh(cold)
        e_hot = np.linalg.eigvalsh(hot)
        p_a = oracles.gibbs_populations(e_cold, 0.2)
        p_c = oracles.gibbs_populations(e_hot, 0.4)
        assert ref.qc == pytest.approx(float(p_a @ e_cold - p_c @ e_cold), abs=1e-12)

    def test_endpoint_gap(self):
        # site permutations make a uniform spectrum degenerate
        assert 0.0 <= adiabatic_reference(uniform_cfg(3, 0)).endpoint_gap <= 1e-12
        params = disordered_params(3)
        pairs = [(j, k) for j in range(1, 3) for k in range(j)]
        spectra = [np.linalg.eigvalsh(oracles.dense_ising(3, h, b, dict(zip(pairs, j))))
                   for h, b, j in ((params.h_i, params.b_i, params.j_i),
                                   (params.h_f, params.b_f, params.j_f))]
        gap = min(np.diff(e).min() for e in spectra)
        cfg = CycleConfig(params=params, p=0, tau1=1.0, tau3=1.0)
        assert adiabatic_reference(cfg).endpoint_gap == pytest.approx(gap, rel=1e-12)
        assert gap > 1e-3

    def test_one_decomposition_per_endpoint(self, monkeypatch):
        # uniform N = 3 strokes run in the 6-state collective space, so every
        # 8 x 8 call is a thermal state's: one eigh each, and the eigvalsh of
        # its DensityMatrix check
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def call(a, *args, **kwargs):
                if np.shape(a) == (8, 8):
                    calls.append(name)
                return real(a, *args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        run_cycle(uniform_cfg(3, 2), FAST)
        assert sorted(calls) == ["eigh", "eigh", "eigvalsh", "eigvalsh"]

    @pytest.mark.parametrize("params", [EndpointParams.uniform(3), disordered_params(3)],
                             ids=["uniform", "disordered"])
    def test_strokes_start_in_the_gibbs_states(self, params, monkeypatch):
        starts = []
        propagate = cycle.propagate_stroke

        def recording_propagate(rho0, *args, reverse_from=None, **kwargs):
            starts.append((rho0.matrix, reverse_from.matrix))
            return propagate(rho0, *args, reverse_from=reverse_from, **kwargs)

        monkeypatch.setattr(cycle, "propagate_stroke", recording_propagate)
        cfg = CycleConfig(params=params, p=1, tau1=1.0, tau3=1.0)
        run_cycle(cfg, FAST)
        rho_a = gibbs_state(h0_at(params, 0.0), cfg.Tc).matrix
        rho_c = gibbs_state(h0_at(params, 1.0), cfg.Th).matrix
        assert len(starts) == 1
        assert np.array_equal(starts[0][0], rho_a) and np.array_equal(starts[0][1], rho_c)

    def test_exact_control_reaches_reference(self):
        cfg = uniform_cfg(3, 3)
        rep = run_cycle(cfg, RunOptions(converge=False))
        assert rep.Qc == pytest.approx(rep.Qc_adiabatic, abs=1e-5)


class TestLzCop:
    """The closed form in ``oracles`` that criterion 1 checks against."""

    def test_reference_point(self):
        # 0.2/(0.5 - 0.2) and 2/3 differ by one ulp in binary floats
        assert abs(oracles.lz_cop(0.2, 0.5) - 2.0 / 3.0) < 5e-16

    def test_double_field_gives_unity(self):
        assert oracles.lz_cop(0.3, 0.6) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            oracles.lz_cop(0.5, 0.2)
        with pytest.raises(DomainError):
            oracles.lz_cop(-0.1, 0.5)
        with pytest.raises(DomainError):
            oracles.lz_cop(0.0, 0.5)


class TestCdCost:
    def test_trapezoid_against_quadrature(self):
        import scipy.integrate

        tau, alpha, n, nu = 2.0, 0.7, 3, 0.01
        t = np.linspace(0.0, tau, 20001)
        vals = sweep_theta_dot(t, tau) ** 2 * (2.0 ** n) * alpha ** 2
        exact, _ = scipy.integrate.quad(
            lambda s: sweep_theta_dot(s, tau) ** 2, 0.0, tau, limit=200
        )
        assert cd_cost(t, vals, nu) == pytest.approx(
            nu * (2.0 ** n) * alpha ** 2 * exact, rel=1e-8
        )

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            cd_cost(np.zeros(3), np.zeros(4), 1.0)


class TestSweep:
    def test_empty_grid(self):
        result = sweep([])
        assert result.reports == [] and result.failures == []

    def test_order_preserved_and_tagged(self):
        configs = [uniform_cfg(n, p, tau=0.5, label=f"{n}-{p}")
                   for n in (1, 2) for p in (0, 1)]
        result = sweep(configs, FAST, workers=2)
        assert not result.failures
        assert [r.label for r in result.reports] == ["1-0", "1-1", "2-0", "2-1"]
        assert [r.n_sites for r in result.reports] == [1, 1, 2, 2]

    def test_failures_recorded_and_sweep_continues(self):
        # steps below the propagation minimum make the middle point fail
        bad = RunOptions(steps_per_unit_time=10, min_steps=10, converge=False)
        configs = [uniform_cfg(1, 0, tau=1.0), uniform_cfg(1, 1, tau=1.0)]
        result = sweep(configs, bad, workers=1)
        assert len(result.failures) == 2
        assert all(r is None for r in result.reports)
        assert "DomainError" in result.failures[0][1]

    def test_parallel_matches_serial_bitwise(self):
        configs = [uniform_cfg(n, p, tau=0.5) for n in (1, 2) for p in (0, 1)]
        serial = sweep(configs, FAST, workers=1)
        parallel = sweep(configs, FAST, workers=2)
        for a, b in zip(serial.reports, parallel.reports):
            assert (a.Qc, a.Qh, a.W1, a.W3, a.J, a.cop) == (b.Qc, b.Qh, b.W1, b.W3, b.J, b.cop)


class TestCarnotBound:
    def test_single_site_grid(self):
        for tau in (1.0, 3.0):
            for p in (0, 1):
                rep = run_cycle(uniform_cfg(1, p, tau=tau), FAST)
                if rep.cop_defined and rep.Qc > 0:
                    assert rep.cop <= rep.cop_carnot + 1e-9
