"""Pinned tables of default-option runs: step doubling and its numbers.

Each ``tests/data/default_runs/NAME.cfg`` is a `cdotto run` config and
``NAME.csv`` the ``results.csv`` that

  cdotto run --config tests/data/default_runs/NAME.cfg --out DIR

wrote for it (no ``--steps-per-unit-time``, so every point steps until it
converges).  A change that moves these numbers on purpose regenerates the
tables that way and states the largest change per column.
"""

from pathlib import Path

import pytest

from cdotto.cli import CSV_COLUMNS, _cell, _row_values
from cdotto.config import parse_config_text, resolve_blocks
from cdotto.cycle import RunOptions, run_cycle

DATA = Path(__file__).parent / "data" / "default_runs"
EXACT = ("N", "p", "steps", "converged", "cop_defined")


@pytest.mark.parametrize("name", ["uniform", "disordered"])
def test_default_runs_match_pinned_table(name):
    configs = resolve_blocks([parse_config_text((DATA / f"{name}.cfg").read_text())])
    header, *lines = (DATA / f"{name}.csv").read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert len(lines) == len(configs)
    for cfg, line in zip(configs, lines):
        pinned = dict(zip(CSV_COLUMNS, line.split(",")))
        row = _row_values(run_cycle(cfg, RunOptions()))
        for col in CSV_COLUMNS:
            if col in EXACT:
                assert _cell(row[col]) == pinned[col], col
            elif row[col] is None or pinned[col] == "":
                assert col == "cop" and row[col] is None and pinned[col] == "", col
            else:
                x = float(pinned[col])
                assert abs(row[col] - x) <= 1e-10 * (1 + abs(x)), col
