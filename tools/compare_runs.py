"""Compare the result tables of two cdotto source trees, column by column.

Usage:

  python tools/compare_runs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``cdotto`` package (the
``src/`` of two checkouts).  Each tree runs the same `cdotto run --workers 1`
invocations in a fresh process with that tree first on PYTHONPATH:

- every invocation of the four benchmark workloads (``perfbench/workloads.py``)
  at seeds 1 and 2, under each workload's BLAS thread count;
- ``--preset fig2`` to ``fig5`` at ``--steps-per-unit-time 100``;
- the command at the top of every pinned table's config
  (``tests/data/*/*.cfg``, read as ``tests/test_pinned_tables.py`` reads
  it), with its config path taken from this repository.

For each table it prints whether the two ``results.csv`` are byte-identical
and how many cells lie beyond the pinned-table rule |new - old| <=
1e-10 (1 + |old|) of ``tests/test_pinned_tables.py``; then, per column
over all tables, the largest |new - old| with the table where it occurs
and the largest relative |new - old| / |old|.  Tables and configs go to a
temporary directory that is removed at the end; nothing else is written.
"""

from __future__ import annotations

import csv
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
PRESETS = ("fig2", "fig3", "fig4", "fig5")
PRESET_RATE = 100.0


def invocations():
    """(table name, config text or None, other `cdotto run` arguments, BLAS threads) per run."""
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            wl = workload(seed)
            for i, inv in enumerate(wl.invocations):
                rate = [] if inv.rate is None else ["--steps-per-unit-time", repr(inv.rate)]
                yield f"{name}-s{seed}-{i}", inv.config, rate, wl.blas_threads
    for preset in PRESETS:
        yield preset, None, ["--preset", preset, "--steps-per-unit-time", repr(PRESET_RATE)], None
    for cfg in sorted((ROOT / "tests" / "data").glob("*/*.cfg")):
        yield f"{cfg.parent.name}-{cfg.stem}", None, pinned_args(cfg), None


def pinned_args(cfg: Path) -> list:
    """The arguments of the `# cdotto run ...` line of a pinned config, less ``--out DIR``."""
    line = next(line for line in cfg.read_text().splitlines() if line.startswith("# cdotto run "))
    args = shlex.split(line.removeprefix("# cdotto run "))
    del args[args.index("--out"):args.index("--out") + 2]
    i = args.index("--config") + 1
    args[i] = str(ROOT / args[i])
    return args


def run_table(src: Path, out: Path, args: list, blas_threads) -> Path:
    """`cdotto run --workers 1 *args` with ``src`` on the path; returns ``out``'s results.csv."""
    argv = [sys.executable, "-m", "cdotto.cli", "run", "--workers", "1", "--out", str(out), *args]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
    out.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(argv, cwd=out.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{out.name} failed under {src}:\n{proc.stdout}{proc.stderr}")
    return out / "results.csv"


#: a cell passes when |new - old| <= PINNED_RTOL (1 + |old|), as in the pinned tables
PINNED_RTOL = 1e-10


def cell_deltas(old: Path, new: Path):
    """(column, |new - old|, |new - old| / |old|, within the pinned rule) for every cell.

    A non-numeric cell that differs counts as inf; a zero old cell gives a
    relative change of 0 if the new one is zero too, else inf.
    """
    with open(old, newline="") as f_old, open(new, newline="") as f_new:
        rows_old, rows_new = list(csv.DictReader(f_old)), list(csv.DictReader(f_new))
    if len(rows_old) != len(rows_new):
        raise SystemExit(f"{new}: {len(rows_new)} rows against {len(rows_old)}")
    for a, b in zip(rows_old, rows_new):
        for col, x in a.items():
            try:
                x_old, x_new = float(x), float(b[col])
            except ValueError:
                same = b[col] == x
                yield col, 0.0 if same else math.inf, 0.0 if same else math.inf, same
                continue
            d = abs(x_new - x_old)
            rel = d / abs(x_old) if x_old else (0.0 if d == 0 else math.inf)
            yield col, d, rel, d <= PINNED_RTOL * (1 + abs(x_old))


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/compare_runs.py OLD_SRC NEW_SRC")
    old_src, new_src = (Path(a).resolve() for a in sys.argv[1:])
    worst: dict = {}
    worst_rel: dict = {}
    with tempfile.TemporaryDirectory(prefix="compare_runs-") as tmp:
        work = Path(tmp)
        for name, text, args, blas_threads in invocations():
            if text is not None:
                config = work / f"{name}.cfg"
                config.write_text(text)
                args = ["--config", str(config), *args]
            old, new = (run_table(src, work / tree / name, args, blas_threads)
                        for tree, src in (("old", old_src), ("new", new_src)))
            same = old.read_bytes() == new.read_bytes()
            beyond = 0
            for col, d, rel, within in cell_deltas(old, new):
                beyond += not within
                if d > worst.get(col, (-1.0, ""))[0]:
                    worst[col] = (d, name)
                worst_rel[col] = max(worst_rel.get(col, 0.0), rel)
            print(f"{name:22s} {'byte-identical' if same else 'differs':14s} "
                  f"{beyond} cells beyond {PINNED_RTOL:g} (1 + |x|)", flush=True)
    print("\nlargest |new - old| and |new - old| / |old| per column:")
    for col, (d, name) in worst.items():
        print(f"  {col:14s} {d:9.3g} {worst_rel[col]:9.3g}" + (f"  ({name})" if d > 0 else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
