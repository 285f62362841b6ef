"""Four-stroke refrigeration cycle and its heat and work accounting.

Sign conventions, fixed once: every heat is energy gained by the working
medium from the bath during an isochore, every work is energy gained by the
medium during a sweep.  With those signs W1 + W3 + Qc + Qh telescopes to
zero exactly.  Thermalization strokes are idealized (the state is replaced
by the Gibbs state); their durations enter only the cycle time.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

import numpy as np

from .agp import AgpSolver, build_basis
from .dynamics import LAYERS, MIN_STEPS, DensityMatrix, propagate_stroke, thermal_state
from .errors import CapacityError, DomainError
from .model import EndpointParams, SweepSpec, h0_at
from .paulis import DENSE_SITE_CAP


@dataclass(frozen=True)
class CycleConfig:
    """One operating point of the refrigerator.

    ``p`` is the requested control order: 0 runs the bare non-adiabatic
    cycle, values above ``n_sites`` are equivalent to ``p = n_sites``
    (strings cannot act on more sites than exist) and are clamped.
    ``nu`` is the setup-dependent prefactor of the control cost integral.
    """

    params: EndpointParams
    Tc: float = 0.2
    Th: float = 0.4
    tau1: float = 1.0
    tau2: float = 0.1
    tau3: float = 1.0
    tau4: float = 0.1
    p: int = 0
    nu: float = 0.01
    label: str = ""

    def __post_init__(self):
        for name in ("Tc", "Th", "tau1", "tau2", "tau3", "tau4", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.Tc < self.Th:
            raise DomainError(f"need 0 < Tc < Th, got Tc={self.Tc}, Th={self.Th}")
        for name in ("tau1", "tau2", "tau3", "tau4"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.p < 0:
            raise DomainError(f"control order p must be >= 0, got {self.p}")
        if self.nu < 0:
            raise DomainError(f"control cost prefactor nu must be >= 0, got {self.nu}")

    @property
    def n_sites(self) -> int:
        return self.params.n_sites

    @property
    def tau_cycle(self) -> float:
        return self.tau1 + self.tau2 + self.tau3 + self.tau4

    @property
    def effective_p(self) -> int:
        return min(self.p, self.n_sites)


#: the step-doubling stop rule of ``RunOptions.converge``
CONVERGE_TOL = 1e-7
MAX_DOUBLINGS = 4


@dataclass(frozen=True)
class RunOptions:
    """Numerical knobs for cycle runs.

    The step count s per stroke is ``steps_per_unit_time * tau`` rounded up
    and clipped to ``[min_steps, max_steps]``, with or without ``converge``;
    the rate must be finite and positive, and 1 <= min_steps <= max_steps.
    With ``converge=True`` the cycle runs passes of s // 2, s, 2 s, ... up
    to ``MAX_DOUBLINGS`` doublings of the first (the s // 2 pass is skipped
    where it falls below ``dynamics.MIN_STEPS``) and stops at the first pass
    whose pumped heat is within ``CONVERGE_TOL`` of the previous pass's.
    That pass is reported, with ``converged`` True; if no pass settles, the
    finest is reported with ``converged`` False.  The rule watches ``Qc``
    alone, not the works.
    """

    steps_per_unit_time: float = 2000.0
    min_steps: int = 1000
    max_steps: int = 20000
    converge: bool = True

    def __post_init__(self):
        rate = self.steps_per_unit_time
        if not (math.isfinite(rate) and rate > 0):
            raise DomainError(f"steps_per_unit_time must be finite and positive, got {rate}")
        if not 1 <= self.min_steps <= self.max_steps:
            raise DomainError(f"need 1 <= min_steps <= max_steps, got "
                              f"min_steps={self.min_steps}, max_steps={self.max_steps}")

    def stroke_steps(self, tau: float) -> int:
        raw = math.ceil(self.steps_per_unit_time * tau)
        return int(min(max(raw, self.min_steps), self.max_steps))


@dataclass(frozen=True)
class CycleReport:
    """All per-cycle outputs plus the grid point they belong to."""

    n_sites: int
    p: int
    tau1: float
    tau3: float
    tau2: float
    tau4: float
    Tc: float
    Th: float
    Qc: float
    Qh: float
    W1: float
    W3: float
    W0_total: float
    WCD_total: float
    J: float
    cop: float | None
    cop_carnot: float
    Qc_adiabatic: float
    cost1: float
    cost3: float
    steps: int
    converged: bool | None
    label: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def cop_defined(self) -> bool:
        return self.cop is not None


@dataclass(frozen=True)
class AdiabaticReference:
    """Infinitely slow cycle computed by eigenvalue transport, no propagation.

    ``states`` are the Gibbs states rho_a and rho_c whose spectra it reads.
    """

    qc: float
    endpoint_gap: float
    energies: tuple[float, float, float, float]
    states: tuple[DensityMatrix, DensityMatrix]


def adiabatic_reference(cfg: CycleConfig) -> AdiabaticReference:
    """Cycle metrics in the adiabatic limit.

    One ``dynamics.thermal_state`` per endpoint gives the sorted spectrum
    of H0(0) with its populations at Tc and of H0(1) at Th, and the Gibbs
    states rho_a and rho_c that ``run_cycle`` starts its strokes in.  The
    populations are carried along the sorted eigenvalue order of the
    endpoint Hamiltonians (no level crossings assumed).  ``endpoint_gap``
    is the smallest gap between neighbours of the two sorted endpoint
    spectra: where it is small the transport order is ambiguous, but the
    energies are not.  Site-independent parameters with N >= 2 have exact
    permutation degeneracies, so it is zero up to rounding at every such
    point.
    """
    e_cold, p_a, rho_a = thermal_state(h0_at(cfg.params, 0.0), cfg.Tc)
    e_hot, p_c, rho_c = thermal_state(h0_at(cfg.params, 1.0), cfg.Th)
    e_a = float(p_a @ e_cold)
    e_b = float(p_a @ e_hot)
    e_c = float(p_c @ e_hot)
    e_d = float(p_c @ e_cold)
    return AdiabaticReference(
        qc=e_a - e_d,
        endpoint_gap=min(float(np.diff(e_cold).min()), float(np.diff(e_hot).min())),
        energies=(e_a, e_b, e_c, e_d),
        states=(rho_a, rho_c),
    )


def cd_cost(times: np.ndarray, hcd_norm_sq: np.ndarray, nu: float) -> float:
    """Control implementation cost: nu times the quadrature of ||H_CD(t)||_F^2."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(hcd_norm_sq, dtype=float)
    if times.shape != values.shape:
        raise DomainError("times and samples must have matching shapes")
    return float(nu) * float(np.trapezoid(values, times))


def run_cycle(cfg: CycleConfig, options: RunOptions | None = None) -> CycleReport:
    """Propagate one full cycle and assemble every reported metric.

    Every ``propagate_stroke`` call sweeps theta from 0 to 1 starting in
    rho_a; rho_a and rho_c are the states of ``adiabatic_reference``, so
    each endpoint is decomposed once per point.  Stroke 1 is the sweep of tau1; stroke 3 is the ``reverse`` of
    the sweep of tau3, started in rho_c.  When both have one duration and
    step count, a pass makes one call; otherwise it makes two.  The
    report's ``diagnostics`` carry the point's wall time, its split over
    the stroke layers (``dynamics.LAYERS``, summed over every call of every
    pass), the AGP fallbacks and direct solves of the final pass's calls,
    the wall time of the solver's spectral factorization (built once, before
    the dense states) and the size of the pencil it factored, and, per
    step-doubling pass, the pumped heat and the steps of both strokes.
    With ``converge`` (see ``RunOptions`` for the pass schedule) they also
    carry ``qc_error``, |Qc change| / 3 over the last two passes: the
    second-order Richardson estimate of the reported ``Qc``'s error.  It is
    None for a fixed-rate run, which makes one pass.
    """
    t0 = time.perf_counter()
    opt = options or RunOptions()
    n = cfg.n_sites
    if n > DENSE_SITE_CAP:
        raise CapacityError(f"dense states of {n} sites exceed the cap of {DENSE_SITE_CAP}")
    p_eff = cfg.effective_p
    solver = AgpSolver(cfg.params, build_basis(n, p_eff)) if p_eff >= 1 else None
    if solver is not None:
        # factored before the dense states: the eigensolve's work arrays are
        # freed before the states' own LAPACK calls, which keeps peak RSS lower
        solver.factorize()
    ref = adiabatic_reference(cfg)
    rho_a, rho_c = ref.states

    layer_s = dict.fromkeys(LAYERS, 0.0)

    def once(steps1: int, steps3: int):
        # one call per distinct sweep, keyed by (tau, steps) to its reverse_from;
        # equal keys merge, so the first call then also gives stroke 3
        sweeps = {(cfg.tau1, steps1): None, (cfg.tau3, steps3): rho_c}
        calls = [propagate_stroke(rho_a, cfg.params, SweepSpec(tau), cd=solver, steps=steps,
                                  reverse_from=start)
                 for (tau, steps), start in sweeps.items()]
        for call in calls:
            for name in LAYERS:
                layer_s[name] += call.diagnostics.layer_s[name]
        return calls[0], calls[-1].reverse, calls

    steps1 = opt.stroke_steps(cfg.tau1)
    steps3 = opt.stroke_steps(cfg.tau3)
    if opt.converge:
        # pass k runs (s << k) >> 1 steps per stroke: s // 2, s, 2 s, ...;
        # the half-step pass is dropped where it falls below MIN_STEPS
        schedule = [(steps1 << k >> 1, steps3 << k >> 1) for k in range(MAX_DOUBLINGS + 1)]
        if min(schedule[0]) < MIN_STEPS:
            del schedule[0]
    else:
        schedule = [(steps1, steps3)]
    pass_qc, pass_steps = [], []
    converged: bool | None = False if opt.converge else None
    for pass_steps1, pass_steps3 in schedule:
        s1, s3, calls = once(pass_steps1, pass_steps3)
        pass_qc.append(s1.e_start - s3.e_end)
        pass_steps.append(pass_steps1 + pass_steps3)
        if len(pass_qc) > 1 and abs(pass_qc[-1] - pass_qc[-2]) <= CONVERGE_TOL:
            converged = True
            break

    # endpoint energies; the control term vanishes at every stroke end
    e_a, e_b = s1.e_start, s1.e_end
    e_c, e_d = s3.e_start, s3.e_end
    qc = e_a - e_d
    qh = e_c - e_b
    w1 = s1.w_sta
    w3 = s3.w_sta
    w_total = w1 + w3

    diagnostics = {
        "trace_drift": max(s1.diagnostics.trace_drift, s3.diagnostics.trace_drift),
        "purity_drift": max(s1.diagnostics.purity_drift, s3.diagnostics.purity_drift),
        "agp_fallbacks": sum(call.diagnostics.agp_fallbacks for call in calls),
        "agp_direct": sum(call.diagnostics.agp_direct for call in calls),
        "agp_factor_s": solver.factor_s if solver is not None else 0.0,
        "agp_pencil": solver.pencil_size if solver is not None else 0,
        "endpoint_gap": ref.endpoint_gap,
        "e_a": e_a, "e_b": e_b, "e_c": e_c, "e_d": e_d,
        "pass_qc": pass_qc,
        "pass_steps": pass_steps,
        "qc_error": abs(pass_qc[-1] - pass_qc[-2]) / 3 if opt.converge else None,
        "layer_s": layer_s,
        "wall_s": time.perf_counter() - t0,
    }

    return CycleReport(
        n_sites=n,
        p=cfg.p,
        tau1=cfg.tau1,
        tau3=cfg.tau3,
        tau2=cfg.tau2,
        tau4=cfg.tau4,
        Tc=cfg.Tc,
        Th=cfg.Th,
        Qc=qc,
        Qh=qh,
        W1=w1,
        W3=w3,
        W0_total=s1.w_0 + s3.w_0,
        WCD_total=s1.w_cd + s3.w_cd,
        J=qc / cfg.tau_cycle,
        cop=(qc / w_total) if w_total > 0 else None,
        cop_carnot=cfg.Tc / (cfg.Th - cfg.Tc),
        Qc_adiabatic=ref.qc,
        cost1=cd_cost(s1.diagnostics.hcd_times, s1.diagnostics.hcd_norm_sq, cfg.nu),
        cost3=cd_cost(s3.diagnostics.hcd_times, s3.diagnostics.hcd_norm_sq, cfg.nu),
        steps=s1.diagnostics.steps + s3.diagnostics.steps,
        converged=converged,
        label=cfg.label,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class SweepResult:
    """Order-preserving cycle reports; failed points are None and listed."""

    reports: list
    failures: list


def _run_point(task):
    idx, cfg, options = task
    try:
        return idx, run_cycle(cfg, options), None
    except Exception as exc:  # per-point failures must not kill the sweep
        return idx, None, f"{type(exc).__name__}: {exc}"


def default_workers() -> int:
    """Worker count of a sweep when none is given: the CPUs this process may run on.

    With one BLAS thread per worker (see ``sweep``) this is the number of
    cores the sweep can keep busy.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(configs, options: RunOptions | None = None,
          workers: int | None = None, on_point=None) -> SweepResult:
    """Run independent cycles over a grid of configurations.

    Points are distributed over a process pool and collected in input
    order; a failing point is recorded and the sweep continues.  Worker
    count 1 and K traverse identical code paths, so the result tables
    match bitwise.  ``on_point(index, report, error)`` is called in this
    process as each point finishes, in finishing order.

    Threads: the workers are forked and inherit this process's BLAS.
    ``cdotto run`` pins OpenBLAS/OpenMP to one thread before numpy is
    first imported (``cdotto.cli``; an explicit ``OPENBLAS_NUM_THREADS``
    or ``OMP_NUM_THREADS`` wins), so K workers use K cores and fork from
    a BLAS library that never started a thread pool: the matrices here
    (16 x 16 to 175 x 175 in the benchmark workloads) gain nothing from a
    second thread, which only spins.  A library caller that imports numpy
    first owns its BLAS threads and should set those variables itself.
    The pool keeps the ``fork`` start method: with the same pin, ``spawn``
    re-imports numpy and cdotto in every child, about 0.3 s more per
    invocation on a 2-core machine (a ``survey`` benchmark round of two
    invocations went from 2.84 to 3.49 s).
    """
    configs = list(configs)
    if not configs:
        return SweepResult([], [])
    opt = options or RunOptions()
    workers = workers or default_workers()
    workers = max(1, min(workers, len(configs)))
    tasks = [(i, cfg, opt) for i, cfg in enumerate(configs)]
    reports: list = [None] * len(configs)
    failures: list = []
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = [pool.submit(_run_point, task) for task in tasks]
        for future in as_completed(futures):
            idx, report, error = future.result()
            if error is not None:
                failures.append((idx, error))
            else:
                reports[idx] = report
            if on_point is not None:
                on_point(idx, report, error)
    failures.sort()
    return SweepResult(reports=reports, failures=failures)
