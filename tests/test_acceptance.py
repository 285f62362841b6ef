"""Acceptance suite: each release criterion at its stated tolerance.

Every test prints one PASS/FAIL line (visible with ``pytest -s``) including
its wall time against the runtime budget.  Expected values tagged as derived
come from the independent oracles in this module (closed forms, quadrature,
eigenvalue transport), never from the code paths they check.
"""

import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import oracles
from cdotto.cycle import (
    CycleConfig,
    RunOptions,
    adiabatic_reference,
    cd_cost,
    run_cycle,
    sweep,
)
from cdotto.model import EndpointParams, sweep_theta_dot

# reports accumulated across criteria; the property suite re-checks them all
_ALL_REPORTS = []
_CACHE = {}


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}  [{elapsed:.1f}s / budget {budget:.0f}s]  {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s)"


def _uniform_cfg(n, p, tau, **kwargs):
    return CycleConfig(params=EndpointParams.uniform(n), p=p,
                       tau1=tau, tau3=tau, **kwargs)


def _run(cfg, options):
    report = run_cycle(cfg, options)
    _ALL_REPORTS.append(report)
    return report


def _lz_cycle():
    if "lz" not in _CACHE:
        _CACHE["lz"] = _run(_uniform_cfg(1, 1, 1.0), RunOptions(converge=False))
    return _CACHE["lz"]


def test_criterion_1_lz_cop_exact():
    t0 = time.perf_counter()
    rep = _lz_cycle()
    cop_err = abs(rep.cop - 2.0 / 3.0)
    # the closed form is one ulp away from float(2/3) in binary arithmetic
    closed_err = abs(oracles.lz_cop(0.2, 0.5) - 2.0 / 3.0)
    ok = cop_err <= 1e-5 and closed_err < 5e-16
    _report("criterion 1 (two-level CoP)", ok,
            f"|cop - 2/3| = {cop_err:.2e}, closed form off by {closed_err:.1e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_lz_corner_energies():
    t0 = time.perf_counter()
    rep = _lz_cycle()
    closed = oracles.two_level_energies(0.2, 0.5, 0.2, 0.4)
    simulated = tuple(rep.diagnostics[k] for k in ("e_a", "e_b", "e_c", "e_d"))
    err = max(abs(s - c) for s, c in zip(simulated, closed))
    _report("criterion 2 (two-level corner energies)", err <= 1e-6,
            f"max |E_sim - E_closed| = {err:.2e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_3_exact_control_is_catalytic():
    t0 = time.perf_counter()
    options = RunOptions(converge=False)
    exact_wcd = {}
    for n in (1, 2, 3, 4):
        rep = _run(_uniform_cfg(n, n, 1.0), options)
        exact_wcd[n] = abs(rep.WCD_total)
    contrast = _run(_uniform_cfg(4, 1, 1.0), options)
    _CACHE["contrast_41"] = contrast
    worst = max(exact_wcd.values())
    ok = worst <= 1e-6 and abs(contrast.WCD_total) > 1e-3
    _report("criterion 3 (catalytic exact control)", ok,
            f"max |W_CD| at p=N: {worst:.2e}; "
            f"|W_CD| at N=4,p=1: {abs(contrast.WCD_total):.2e}",
            time.perf_counter() - t0, 120.0)


def test_criterion_4_exact_control_tracks_adiabat():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for tau, rate in ((1.0, 2000.0), (5.0, 2000.0), (40.0, 400.0)):
            rep = _run(_uniform_cfg(n, n, tau),
                       RunOptions(steps_per_unit_time=rate, converge=False))
            worst = max(worst, abs(rep.Qc - rep.Qc_adiabatic))
    _report("criterion 4 (tracking the adiabatic heat)", worst <= 1e-5,
            f"max |Qc - Qc_ad| = {worst:.2e} over tau in (1, 5, 40), N <= 4",
            time.perf_counter() - t0, 300.0)


def test_criterion_5_refrigerator_threshold():
    t0 = time.perf_counter()
    options = RunOptions(steps_per_unit_time=200, converge=False)

    def qc_at(tau):
        return _run(_uniform_cfg(6, 0, tau), options).Qc

    lo, hi = 20.0, 40.0
    qc_lo, qc_hi = qc_at(lo), qc_at(hi)
    bracketed = qc_lo < 0.0 < qc_hi
    if bracketed:
        while hi - lo > 0.5:
            mid = 0.5 * (lo + hi)
            if qc_at(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    tau_star = 0.5 * (lo + hi)
    ok = bracketed and 20.0 <= tau_star <= 40.0
    _report("criterion 5 (refrigerator threshold)", ok,
            f"Qc(20) = {qc_lo:+.4f}, Qc(40) = {qc_hi:+.4f}, "
            f"sign change at tau* = {tau_star:.2f} (resolution 0.5)",
            time.perf_counter() - t0, 600.0)


def test_criterion_6_order_hierarchy_of_cooling_power():
    t0 = time.perf_counter()
    orders = (0, 1, 2, 4)
    sizes = (2, 3, 4, 5, 6)
    configs = [_uniform_cfg(n, p, 40.0) for n in sizes for p in orders]
    result = sweep(configs, RunOptions(steps_per_unit_time=200, converge=False),
                   workers=2)
    assert not result.failures, result.failures
    _ALL_REPORTS.extend(result.reports)
    _CACHE["hierarchy"] = result.reports
    ok = True
    detail = []
    for i, n in enumerate(sizes):
        row = result.reports[i * len(orders):(i + 1) * len(orders)]
        js = [r.J for r in row]
        monotone = all(js[k + 1] >= js[k] - 1e-6 for k in range(len(js) - 1))
        ref = adiabatic_reference(configs[i * len(orders)])
        j_ad = ref.qc / configs[i * len(orders)].tau_cycle
        anchored = abs(js[-1] - j_ad) <= 0.02 * abs(j_ad)
        ok = ok and monotone and anchored
        detail.append(f"N={n}: J(p)={['%.5f' % j for j in js]}, "
                      f"J_ad={j_ad:.5f}{'' if monotone and anchored else ' <-- FAIL'}")
    _report("criterion 6 (cooling-power hierarchy in control order)", ok,
            "; ".join(detail), time.perf_counter() - t0, 900.0)


def test_criterion_7_control_cost():
    t0 = time.perf_counter()
    # (a) single-term analytic case: constant coefficient alpha on one string,
    # cost = nu * 2^N * alpha^2 * integral of the squared sweep rate.  The
    # integral itself is pinned by quadrature; in closed form it equals
    # (pi^4/64) (1 + 2 J1(pi)/pi) / tau (note it is bounded by pi^4/(32 tau)).
    part_a = True
    for tau in (1.0, 2.5):
        quad, _ = scipy.integrate.quad(
            lambda t: sweep_theta_dot(t, tau) ** 2, 0.0, tau, limit=200)
        closed = (np.pi ** 4 / 64.0) * (1.0 + 2.0 * scipy.special.j1(np.pi) / np.pi) / tau
        nu, alpha, n = 0.01, 0.8, 2
        t_grid = np.linspace(0.0, tau, 40001)
        samples = sweep_theta_dot(t_grid, tau) ** 2 * (2.0 ** n) * alpha ** 2
        cost = cd_cost(t_grid, samples, nu)
        expected = nu * (2.0 ** n) * alpha ** 2 * quad
        part_a = part_a and abs(closed - quad) <= 1e-8 \
            and abs(cost - expected) <= 1e-8 * max(1.0, abs(expected))

    # (b) the cost decreases monotonically with stroke duration
    taus = [float(t) for t in range(1, 11)]
    configs = [_uniform_cfg(6, 2, tau) for tau in taus]
    result = sweep(configs, RunOptions(steps_per_unit_time=1000, max_steps=10000,
                                       converge=False), workers=2)
    assert not result.failures, result.failures
    _ALL_REPORTS.extend(result.reports)
    costs = [r.cost1 + r.cost3 for r in result.reports]
    part_b = all(costs[i + 1] < costs[i] for i in range(len(costs) - 1))
    ok = part_a and part_b
    _report("criterion 7 (control implementation cost)", ok,
            f"analytic case ok: {part_a}; cost(tau=1)={costs[0]:.4f} "
            f"monotonically down to cost(tau=10)={costs[-1]:.4f}: {part_b}",
            time.perf_counter() - t0, 300.0)


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    problems = []

    # first-law closure and unitarity on every cycle run so far
    reports = list(_ALL_REPORTS)
    if not reports:
        reports = [_lz_cycle()]
    for rep in reports:
        closure = rep.W1 + rep.W3 + rep.Qc + rep.Qh
        scale = abs(rep.W1) + abs(rep.W3) + abs(rep.Qc) + abs(rep.Qh) + rep.Tc
        if abs(closure) > 1e-8 * scale:
            problems.append(f"first-law closure {closure:.2e} at N={rep.n_sites}")
        if rep.diagnostics["trace_drift"] > 1e-10:
            problems.append(f"trace drift {rep.diagnostics['trace_drift']:.2e}")
        if rep.diagnostics["purity_drift"] > 1e-10:
            problems.append(f"purity drift {rep.diagnostics['purity_drift']:.2e}")

    # variational optimality under random perturbations (independent dense S)
    from cdotto.agp import build_basis
    from cdotto.model import dh0_dtheta, h0_at
    from oracles import exact_agp, solve_agp
    rng = np.random.default_rng(41)
    params = EndpointParams.uniform(3)
    basis = build_basis(3, 2)
    h0, dh0 = h0_at(params, 0.45), dh0_dtheta(params)
    sol = solve_agp(basis, h0, dh0)

    def dense_action(coeffs):
        h = oracles.dense_operator(3, h0.terms)
        dh = oracles.dense_operator(3, dh0.terms)
        a = np.zeros_like(h)
        for alpha, pat in zip(coeffs, basis.strings):
            a += alpha * oracles.dense_pauli(pat)
        g = dh + 1j * (a @ h - h @ a)
        return float(np.trace(g.conj().T @ g).real)

    s_min = dense_action(sol.coefficients)
    for _ in range(100):
        delta = rng.standard_normal(basis.size)
        delta *= 1e-3 / np.linalg.norm(delta)
        if dense_action(sol.coefficients + delta) < s_min - 1e-12:
            problems.append("variational optimality violated")
            break

    # full-order solver equals the spectral oracle on nondegenerate instances
    for n in (2, 3):
        rng_n = np.random.default_rng(n)
        n_pairs = n * (n - 1) // 2
        disordered = EndpointParams(
            h_i=0.2 + 0.03 * rng_n.standard_normal(n),
            b_i=0.01 * rng_n.standard_normal(n),
            j_i=np.zeros(n_pairs),
            h_f=0.02 * rng_n.standard_normal(n),
            b_f=0.5 + 0.04 * rng_n.standard_normal(n),
            j_f=0.1 + 0.02 * rng_n.standard_normal(n_pairs),
        )
        full = build_basis(n, n)
        for theta in (0.3, 0.7):
            h0_d = h0_at(disordered, theta)
            dh0_d = dh0_dtheta(disordered)
            sol_d = solve_agp(full, h0_d, dh0_d)
            dense = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for alpha, pat in zip(sol_d.coefficients, full.strings):
                dense += alpha * oracles.dense_pauli(pat)
            err = np.abs(dense - exact_agp(h0_d, dh0_d)).max()
            if err > 1e-8:
                problems.append(f"oracle equivalence off by {err:.2e} at N={n}")

    # Carnot bound, exact at the two-level point and empirical elsewhere
    for rep in reports:
        if rep.cop_defined and rep.Qc > 0 and rep.cop > rep.cop_carnot + 1e-9:
            problems.append(f"Carnot bound violated at N={rep.n_sites}, p={rep.p}")
    lz = _lz_cycle()
    if not (lz.cop_defined and lz.cop <= lz.cop_carnot + 1e-9):
        problems.append("Carnot bound violated at the two-level point")

    _report("criterion 8 (property suite)", not problems,
            f"{len(reports)} cycles checked" + ("" if not problems
                                                else "; " + "; ".join(problems[:4])),
            time.perf_counter() - t0, 300.0)
