"""cdotto benchmark: time `cdotto run` end to end, check every result row.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload survey --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

With ``--trace 0`` a run first times the set-up (``setup_s``: a fresh
interpreter that imports cdotto, expands the workload's configs and
builds one AgpSolver per distinct (endpoints, p)), then repeats whole
rounds of the workload's `cdotto run` invocations, each a fresh process,
until ``--seconds`` have passed and at least two rounds are done.  It
reports the median round's wall time, CPU time of the process trees and
peak resident memory.  With ``--trace 1`` it runs the traced per-layer
measurement instead (traced.py).  Every result row is checked by
oracle.py; a row that fails a check counts as a failed operation.  The
last line of standard output is the JSON result; with ``--workload all``
its metric names carry the workload as a prefix (``survey.wall_s``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import selfcheck  # noqa: E402
from rounds import ROOT, SRC, child_env, count_failures, run_process, run_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
#: every run times at least this many rounds, however long they take
MIN_ROUNDS = 2
TRACE_TIMEOUT_S = 170.0
OUT_DIR = ROOT / ".perfbench"


def time_setup(workload, workdir: Path) -> float:
    """Median launch-to-exit time of fresh set-up processes (one untimed warm-up)."""
    spec = workdir / "setup.json"
    spec.write_text(json.dumps([inv.config for inv in workload.invocations]))
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(spec)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, _, code = run_process(argv, workdir / "setup.log", workload.blas_threads)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}: "
                               + (workdir / "setup.log").read_text()[-2000:])
        if i:
            times.append(wall)
    return statistics.median(times)


def end_to_end(workload, seconds: float, workdir: Path):
    setup_s = time_setup(workload, workdir)
    print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS})")
    walls, cpus, rsss = [], [], []
    failed = 0
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        wall, cpu, rss, rows = run_round(workload, workdir)
        n_bad = count_failures(workload, rows, f"round {len(walls) + 1}")
        failed += n_bad
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        print(f"round {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
              f"peak rss {rss:.1f} MB, {len(rows) - n_bad}/{len(rows)} rows ok")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
    }
    return metrics, len(walls) * len(workload.points), failed


def traced_run(name: str, seed: int, workdir: Path):
    """The traced run, in a child process that has the workload's BLAS threads."""
    result = workdir / "traced.json"
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", name, "--seed", str(seed),
            "--workdir", str(workdir), "--result", str(result)]
    subprocess.run(argv, cwd=ROOT, env=child_env(WORKLOADS[name](seed).blas_threads),
                   timeout=TRACE_TIMEOUT_S, check=True)
    out = json.loads(result.read_text())
    metrics = {metric: tuple(value_unit) for metric, value_unit in out["metrics"].items()}
    return metrics, out["attempted"], out["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cdotto" / "__init__.py").is_file():
        print(f"error: no cdotto sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    checks = selfcheck.run()
    for name, ok in checks:
        print(f"self-check {'ok  ' if ok else 'FAIL'} {name}")
    correct = all(ok for _, ok in checks)

    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        print(f"workload {name}")
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
        try:
            if args.trace:
                part, part_attempted, part_failed = traced_run(name, args.seed, workdir)
            else:
                part, part_attempted, part_failed = end_to_end(
                    WORKLOADS[name](args.seed), args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: value_unit for metric, value_unit in part.items()})
        attempted += part_attempted
        failed += part_failed

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
