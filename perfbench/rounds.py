"""Process trees and rounds of `cdotto run` invocations, with their checks."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from oracle import check_rows, read_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the `cdotto` console script is cdotto.cli:main
CLI_ENTRY = "import sys; from cdotto.cli import main; sys.exit(main())"
PROCESS_TIMEOUT_S = 150.0


def child_env(blas_threads: int | None = None) -> dict:
    """Environment that imports cdotto from this checkout, with the BLAS threads given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
    return env


def run_process(argv, log_path, blas_threads: int | None = None):
    """Run one process tree to its end; returns (wall s, CPU s, peak RSS MB, exit code).

    CPU time and peak RSS come from wait4 and so cover the process and
    every descendant it waited for (the CLI's pool worker).
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env(blas_threads), start_new_session=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def invocation_rows(inv, out: Path, code: int) -> list:
    """Rows of one invocation aligned with its points; None where a point has no row.

    A run that failed, or wrote more rows than it was asked for, has no
    row for any of its points.
    """
    missing = [None] * len(inv.points)
    if code != 0 or not (out / "results.csv").exists():
        return missing
    failed = set()
    manifest = out / "manifest.json"
    if manifest.exists():
        failed = {f["index"] for f in json.loads(manifest.read_text())["failures"]}
    rows = iter(read_rows(out / "results.csv"))
    aligned = [None if i in failed else next(rows, None) for i in range(len(inv.points))]
    return missing if next(rows, None) is not None else aligned


def run_round(workload, workdir: Path):
    """One round: every invocation of the workload, one after another."""
    wall = cpu = rss = 0.0
    rows = []
    for k, inv in enumerate(workload.invocations):
        cfg = workdir / f"inv{k}.cfg"
        cfg.write_text(inv.config)
        out = workdir / f"out{k}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-c", CLI_ENTRY, "run", "--config", str(cfg),
                "--out", str(out), "--workers", "1"]
        if inv.rate is not None:
            argv += ["--steps-per-unit-time", repr(inv.rate)]
        log = workdir / f"cli{k}.log"
        w, c, r, code = run_process(argv, log, workload.blas_threads)
        if code != 0:
            print(f"  cdotto run exited with {code}:\n{log.read_text()[-2000:]}")
        wall += w
        cpu += c
        rss = max(rss, r)
        rows += invocation_rows(inv, out, code)
    return wall, cpu, rss, rows


def count_failures(workload, rows, label: str) -> int:
    """Check a round's rows; print and count the rows that fail."""
    failures = check_rows(rows, workload.points, workload.order_check)
    for pt, bad in zip(workload.points, failures):
        if bad:
            print(f"  {label}: N={pt.n} p={pt.p} tau={pt.tau} failed: {', '.join(bad)}")
    return sum(1 for bad in failures if bad)
