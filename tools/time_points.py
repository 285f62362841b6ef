"""Time cycle points under two cdotto source trees, in alternating fresh processes.

Usage:

  python tools/time_points.py OLD_SRC NEW_SRC CONFIG... [--steps-per-unit-time S]
                              [--repeats K] [--processes P]

OLD_SRC and NEW_SRC are directories that hold a ``cdotto`` package (the
``src/`` of two checkouts); each CONFIG is a ``cdotto run`` config file.
Every grid point of every config runs in P fresh processes per tree, in
the order old, new, old, new, ...  Each process has
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` and its tree first on
PYTHONPATH, makes one warm-up ``run_cycle`` of the point and then K timed
ones.  Per point and tree the tool prints the minimum and the median wall
time over the P x K timed runs and the smallest and largest peak RSS
(``ru_maxrss``) of the P processes, then the median over the same runs
of each layer of the point's ``diagnostics["layer_s"]`` and of
``diagnostics["agp_factor_s"]``, in ms, so that a layer claim can be
read off the same command.  With ``--steps-per-unit-time`` the
points run at that fixed rate, as ``cdotto run --steps-per-unit-time``
does; without it they run under the default options, step doubling
included.

The processes run in a temporary directory that is removed at the end,
with ``PYTHONDONTWRITEBYTECODE=1``; nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: one process: expand the config, warm up on point ``index``, then time it
CHILD = """
import json, resource, sys, time
from cdotto.config import parse_config_text, resolve_blocks
from cdotto.cycle import RunOptions, run_cycle
path, index, rate, repeats = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
configs = resolve_blocks([parse_config_text(open(path, encoding="utf-8").read())])
if index < 0:
    print(json.dumps([cfg.label for cfg in configs]))
    raise SystemExit
opt = RunOptions() if rate == "default" else RunOptions(steps_per_unit_time=float(rate),
                                                        converge=False)
run_cycle(configs[index], opt)
times, layers = [], []
for _ in range(repeats):
    t0 = time.perf_counter()
    diag = run_cycle(configs[index], opt).diagnostics
    times.append(time.perf_counter() - t0)
    layers.append(dict(diag["layer_s"], agp_factor_s=diag["agp_factor_s"]))
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"times": times, "layers": layers, "rss_mb": rss_mb}))
"""


def run_child(src: Path, cwd: Path, config: Path, index: int, rate: str, repeats: int):
    """The JSON that one fresh process with ``src`` first on PYTHONPATH prints."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = [sys.executable, "-c", CHILD, str(config), str(index), rate, str(repeats)]
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{config} point {index} failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("configs", type=Path, nargs="+")
    parser.add_argument("--steps-per-unit-time", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per process")
    parser.add_argument("--processes", type=int, default=3, help="processes per tree and point")
    args = parser.parse_args()
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    rate = "default" if args.steps_per_unit_time is None else repr(args.steps_per_unit_time)
    print(f"{args.processes} processes per tree and point, 1 warm-up + {args.repeats} timed "
          f"run_cycle each, rate {rate}, one BLAS thread")
    with tempfile.TemporaryDirectory(prefix="time_points-") as tmp:
        cwd = Path(tmp)
        for config in (c.resolve() for c in args.configs):
            labels = run_child(trees["new"], cwd, config, -1, rate, 0)
            for index, label in enumerate(labels):
                runs: dict = {tree: [] for tree in trees}
                for _ in range(args.processes):
                    for tree, src in trees.items():
                        runs[tree].append(run_child(src, cwd, config, index, rate, args.repeats))
                print(f"{config.name} [{index}] {label}")
                for tree, results in runs.items():
                    times = [t for r in results for t in r["times"]]
                    rss = [r["rss_mb"] for r in results]
                    print(f"  {tree}: min {min(times):.3f} s  median "
                          f"{statistics.median(times):.3f} s  peak RSS "
                          f"{min(rss):.1f}-{max(rss):.1f} MB", flush=True)
                    layers = [layer for r in results for layer in r["layers"]]
                    print("    median ms: " + "  ".join(
                        f"{name} {1e3 * statistics.median(layer[name] for layer in layers):.1f}"
                        for name in layers[0]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
