"""Traced run: per-layer metrics from spans around calls into cdotto's modules.

The spans (name, start, end, parent) are recorded by the benchmark's own
code around its calls into `cdotto.config`, `cdotto.paulis`,
`cdotto.agp`, `cdotto.dynamics` and `cdotto.cycle`, and around
`cdotto.cycle.propagate_stroke`, which `run_cycle` calls once per stroke
and pass.  They are kept in memory and written to
``.perfbench/trace-<workload>-<seed>.json`` with each span's self time
(its duration minus the time its children cover) when the run ends.

A metric whose layer function is gone or no longer accepts the call is
reported as missing; the other metrics are still measured.

run.py --trace 1 starts this script in a child process that has the
workload's BLAS thread setting:

  python3 perfbench/traced.py --workload NAME --seed N --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from rounds import SRC, count_failures, run_process, run_round
from workloads import WORKLOADS

IMPORT_REPEATS = 3
EXPAND_REPEATS = 20
BUILD_REPEATS = 3
SOLVE_SAMPLES = 200
ROW_FIELDS = ("p", "tau1", "tau3", "tau2", "tau4", "Tc", "Th", "Qc", "Qh", "W1", "W3",
              "W0_total", "WCD_total", "J", "cop", "cop_carnot", "Qc_adiabatic",
              "cost1", "cost3", "steps")
#: (name, unit) of every per-layer metric, in the order they are reported
METRICS = (
    ("cli.import_s", "s"), ("config.expand_ms", "ms"), ("paulis.commutator_ms", "ms"),
    ("agp.basis_size", "count"), ("agp.build_ms", "ms"), ("agp.solve_us", "us"),
    ("agp.fallbacks", "count"), ("dynamics.bare_step_us", "us"),
    ("dynamics.cd_first_step_us", "us"), ("dynamics.cd_step_us", "us"),
    ("cycle.run_s", "s"), ("cycle.passes", "count"), ("cycle.steps_total", "count"),
    ("cycle.alloc_peak_mb", "MB"), ("cli.overhead_s", "s"),
)
#: exceptions that mean a layer function was removed or changed its signature
MISSING = (ImportError, AttributeError, TypeError)


class Tracer:
    """In-memory spans with parent links; written out once at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def dump(self, path) -> None:
        out = []
        for s in self.spans:
            busy = sum(c["end"] - c["start"] for c in self.children(s["id"]))
            out.append({**s, "self": (s["end"] - s["start"]) - busy})
        path.write_text(json.dumps(out, indent=1) + "\n")


def basis_size(n: int, p: int) -> int:
    """Odd-Y strings of weight 1..p on n sites, sum_w C(n, w) (3^w - 1) / 2."""
    return sum(math.comb(n, w) * (3 ** w - 1) // 2 for w in range(1, min(p, n) + 1))


def report_row(report) -> dict:
    """A CycleReport as the result row `cdotto run` would write for it."""
    row = {"N": report.n_sites, **{k: getattr(report, k) for k in ROW_FIELDS}}
    row["cop_defined"] = "true" if report.cop_defined else "false"
    row["converged"] = {None: "unchecked", True: "true", False: "false"}[report.converged]
    return row


def run(workload, seed: int, workdir: Path):
    """Measure every per-layer metric for one workload; returns (metrics, attempted, failed)."""
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    values: dict = {}
    missing: list[str] = []

    def measure(names, fn):
        try:
            values.update(zip(names, fn()))
        except MISSING as exc:
            missing.extend(names)
            print(f"missing: {', '.join(names)} ({type(exc).__name__}: {exc})")

    def import_s():
        argv = [sys.executable, "-c", "import cdotto"]
        walls = []
        for _ in range(IMPORT_REPEATS):
            with tracer.span("cli.import"):
                wall, _, _, code = run_process(argv, workdir / "import.log",
                                               workload.blas_threads)
            if code != 0:
                raise ImportError((workdir / "import.log").read_text()[-500:])
            walls.append(wall)
        return [statistics.median(walls)]

    measure(["cli.import_s"], import_s)

    def expand():
        import cdotto.config as config

        configs = []
        for _ in range(EXPAND_REPEATS):
            with tracer.span("config.expand"):
                configs = [config.resolve_blocks([config.parse_config_text(inv.config)])
                           for inv in workload.invocations]
        return [1e3 * statistics.median(tracer.durations("config.expand")), configs]

    measure(["config.expand_ms", "_configs"], expand)
    attempted = failed = 0
    grid = [cfg for block in values.pop("_configs", []) for cfg in block]
    if grid:
        options = [_options(inv.rate) for inv in workload.invocations for _ in inv.points]
        # the point with the largest control basis carries the agp and cd
        # metrics; the largest N carries the bare step
        sizes = [basis_size(pt.n, pt.p) for pt in workload.points]
        rep = sizes.index(max(sizes))
        bare = max(range(len(grid)), key=lambda i: workload.points[i].n)
        measure(["paulis.commutator_ms", "agp.basis_size", "agp.build_ms", "agp.solve_us"],
                lambda: _agp_layer(tracer, grid[rep], options[rep]))
        measure(["dynamics.bare_step_us"],
                lambda: _strokes(tracer, grid[bare], options[bare], cd=False))
        measure(["dynamics.cd_first_step_us", "dynamics.cd_step_us"],
                lambda: _strokes(tracer, grid[rep], options[rep], cd=True))
        measure(["cycle.run_s", "cycle.passes", "cycle.steps_total", "agp.fallbacks",
                 "_rows"], lambda: _cycles(tracer, grid, options))
        rows = values.pop("_rows", [])
        attempted += len(rows)
        failed += count_failures(workload, rows, "traced round") if rows else 0

    # the untraced round runs right after the traced one, so both see the
    # machine in the same state
    with tracer.span("cli.round"):
        wall, _, _, cli_rows = run_round(workload, workdir)
    attempted += len(cli_rows)
    failed += count_failures(workload, cli_rows, "untraced CLI round")
    if grid:
        measure(["cycle.alloc_peak_mb"], lambda: _alloc_peak(grid[rep], options[rep]))
    if "cycle.run_s" in values:
        traced_total = sum(tracer.durations("cycle.run_cycle"))
        values["cli.overhead_s"] = wall - traced_total
        print(f"tracing overhead: traced in-process round {traced_total:.3f} s "
              f"against {wall:.3f} s untraced through the CLI "
              f"({100.0 * (traced_total / wall - 1.0):+.1f}%)")
    else:
        missing.append("cli.overhead_s")

    path = workdir.parent / f"trace-{workload.name}-{seed}.json"
    tracer.dump(path)
    print(f"spans: {path}")
    if missing:
        print(f"missing metrics: {', '.join(sorted(set(missing)))}")
    metrics = {name: (values[name], unit) for name, unit in METRICS if name in values}
    return metrics, attempted, failed


def _options(rate):
    """The RunOptions `cdotto run` uses for a given --steps-per-unit-time."""
    from cdotto.cycle import RunOptions

    return RunOptions() if rate is None else RunOptions(steps_per_unit_time=rate,
                                                       converge=False)


def _agp_layer(tracer, cfg, options):
    from cdotto.agp import AgpSolver, build_basis
    from cdotto.model import SweepSpec, h0_at
    from cdotto.paulis import OperatorSum, commutator

    n, p = cfg.n_sites, cfg.effective_p
    basis = build_basis(n, p)
    h0 = h0_at(cfg.params, 0.5)
    with tracer.span("paulis.commutator") as sp:
        for pat in basis.strings:
            commutator(OperatorSum(n, {pat: 1.0}), h0)
    commutator_ms = 1e3 * (sp["end"] - sp["start"])
    for _ in range(BUILD_REPEATS):
        with tracer.span("agp.build"):
            solver = AgpSolver(cfg.params, basis)
    build_ms = 1e3 * statistics.median(tracer.durations("agp.build"))
    steps = options.stroke_steps(cfg.tau1)
    thetas = SweepSpec(cfg.tau1).grid(steps).theta_mid
    thetas = thetas[:: max(1, len(thetas) // SOLVE_SAMPLES)]
    with tracer.span("agp.solve") as sp:
        for theta in thetas:
            solver.coefficients(theta)
    solve_us = 1e6 * (sp["end"] - sp["start"]) / len(thetas)
    return commutator_ms, basis.size, build_ms, solve_us


def _strokes(tracer, cfg, options, cd: bool):
    """Per-step cost of the forward stroke: bare, or a fresh solver twice."""
    from cdotto.agp import AgpSolver, build_basis
    from cdotto.dynamics import gibbs_state, propagate_stroke
    from cdotto.model import SweepSpec, h0_at

    steps = options.stroke_steps(cfg.tau1)
    rho = gibbs_state(h0_at(cfg.params, 0.0), cfg.Tc)
    spec = SweepSpec(cfg.tau1)
    if not cd:
        with tracer.span("dynamics.bare_stroke") as sp:
            propagate_stroke(rho, cfg.params, spec, cd=None, steps=steps)
        return [1e6 * (sp["end"] - sp["start"]) / steps]
    with tracer.span("agp.build"):
        solver = AgpSolver(cfg.params, build_basis(cfg.n_sites, cfg.effective_p))
    per_step = []
    for name in ("dynamics.cd_first_stroke", "dynamics.cd_stroke"):
        with tracer.span(name) as sp:
            propagate_stroke(rho, cfg.params, spec, cd=solver, steps=steps)
        per_step.append(1e6 * (sp["end"] - sp["start"]) / steps)
    return per_step


def _cycles(tracer, grid, options):
    """One in-process round of run_cycle with every stroke traced."""
    import cdotto.cycle as cycle

    real_stroke = cycle.propagate_stroke

    def traced_stroke(*args, **kwargs):
        with tracer.span("dynamics.propagate_stroke") as sp:
            result = real_stroke(*args, **kwargs)
        sp["steps"] = result.diagnostics.steps
        return result

    rows, passes, fallbacks = [], [], 0
    cycle.propagate_stroke = traced_stroke
    try:
        for cfg, opt in zip(grid, options):
            with tracer.span("cycle.run_cycle") as sp:
                try:
                    report = cycle.run_cycle(cfg, opt)
                except MISSING:
                    raise
                except Exception as exc:  # a failing point is a failed row, as in the CLI
                    print(f"  run_cycle failed at {cfg.label}: {type(exc).__name__}: {exc}")
                    rows.append(None)
                    continue
            passes.append(len(tracer.children(sp["id"])) / 2)
            fallbacks += report.diagnostics["agp_fallbacks"]
            rows.append(report_row(report))
    finally:
        cycle.propagate_stroke = real_stroke
    steps = [s["steps"] for s in tracer.spans if s["name"] == "dynamics.propagate_stroke"]
    return (statistics.median(tracer.durations("cycle.run_cycle")), statistics.mean(passes),
            sum(steps), fallbacks, rows)


def _alloc_peak(cfg, options):
    from cdotto.cycle import run_cycle

    tracemalloc.start()
    try:
        run_cycle(cfg, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [peak / 2 ** 20]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    metrics, attempted, failed = run(WORKLOADS[args.workload](args.seed), args.seed,
                                     args.workdir)
    args.result.write_text(json.dumps({"metrics": metrics, "attempted": attempted,
                                       "failed": failed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
