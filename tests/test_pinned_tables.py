"""Pinned result tables: every committed ``results.csv`` rerun in process.

Each ``tests/data/*/NAME.cfg`` opens with the `cdotto run` command that
wrote ``NAME.csv`` beside it, as a comment line ``# cdotto run ...``,
with ``DIR`` for the output directory; its ``results.csv`` is the table.
The test runs the same command's grid and options in process:

- ``default_runs/``: small points under default options, so every point
  steps until it converges and ``steps`` and ``converged`` are pinned;
- ``fixed_rate/``: grids at ``--steps-per-unit-time 100``: the fig3
  preset, site-dependent endpoints at N = 3 and 4 (the fields of
  ``test_model.disordered_params``), and tau1 != tau3.

``steps``, ``converged`` and ``cop_defined`` must match exactly, every
float column within 1e-10 (1 + |x|).  A change that moves these numbers
on purpose reruns the command of each table it moves and states the
largest change per column.
"""

import shlex
from pathlib import Path

import pytest

from cdotto.cli import CSV_COLUMNS, _build_parser, _cell, _resolve_inputs, _row_values
from cdotto.config import resolve_blocks
from cdotto.cycle import RunOptions, run_cycle

ROOT = Path(__file__).parent.parent
TABLES = sorted((Path(__file__).parent / "data").glob("*/*.cfg"))
EXACT = ("N", "p", "steps", "converged", "cop_defined")


def table_command(cfg: Path) -> str:
    """The `cdotto run ...` command recorded in the first comment line naming one."""
    for line in cfg.read_text().splitlines():
        if line.startswith("# cdotto run "):
            return line[2:]
    raise AssertionError(f"{cfg} records no `cdotto run` command")


@pytest.mark.parametrize("cfg", TABLES, ids=[f"{p.parent.name}/{p.stem}" for p in TABLES])
def test_pinned_table_matches_its_command(cfg, monkeypatch):
    command = table_command(cfg)
    args = _build_parser().parse_args(shlex.split(command)[1:])
    assert args.config is not None and (ROOT / args.config).resolve() == cfg.resolve(), command
    monkeypatch.chdir(ROOT)  # the command names its config relative to the repository
    configs = resolve_blocks(_resolve_inputs(args))
    rate = args.steps_per_unit_time
    options = RunOptions() if rate is None else RunOptions(steps_per_unit_time=rate,
                                                           converge=False)
    header, *lines = cfg.with_suffix(".csv").read_text().splitlines()
    regenerate = f"regenerate with `{command}` and copy DIR/results.csv"
    assert header == ",".join(CSV_COLUMNS), regenerate
    assert len(lines) == len(configs), regenerate
    for cfg_point, line in zip(configs, lines):
        pinned = dict(zip(CSV_COLUMNS, line.split(",")))
        row = _row_values(run_cycle(cfg_point, options))
        for col in CSV_COLUMNS:
            where = f"{cfg_point.label} {col}: got {row[col]!r}, pinned {pinned[col]!r}; " \
                    + regenerate
            if col in EXACT:
                assert _cell(row[col]) == pinned[col], where
            elif row[col] is None or pinned[col] == "":
                assert col == "cop" and row[col] is None and pinned[col] == "", where
            else:
                x = float(pinned[col])
                assert abs(row[col] - x) <= 1e-10 * (1 + abs(x)), where
