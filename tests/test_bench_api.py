"""The benchmark's traced run still reaches every layer it measures.

``perfbench/traced.py`` calls into ``cdotto`` by name, and reports a metric
as missing when a name it calls is gone or no longer takes the call.  This
runs each of its layer functions on a small grid (N = 2, p = 0 and 1,
tau = 1, 500 steps per unit time), so that such a change fails here.
Nothing is written.
"""

import math
import sys
from pathlib import Path

import pytest

from cdotto.cycle import CycleConfig
from cdotto.model import EndpointParams

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import traced
finally:
    sys.path.remove(PERFBENCH)

RATE = 500


def call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except traced.MISSING as exc:
        pytest.fail(f"traced.{fn.__name__} would report its metrics missing: "
                    f"{type(exc).__name__}: {exc}")


def test_every_traced_layer_runs():
    # as in traced.run: the largest basis carries the agp and cd layers,
    # the first point of the largest N the bare stroke
    grid = [CycleConfig(params=EndpointParams.uniform(2), p=p) for p in (0, 1)]
    options = [traced._options(RATE) for _ in grid]
    bare, rep = 0, 1
    tracer = traced.Tracer()
    agp = call(traced._agp_layer, tracer, grid[rep], options[rep])
    assert agp[1] == traced.basis_size(2, 1)
    bare_step = call(traced._strokes, tracer, grid[bare], options[bare], cd=False)
    cd_steps = call(traced._strokes, tracer, grid[rep], options[rep], cd=True)
    *cycles, rows = call(traced._cycles, tracer, grid, options)
    alloc = call(traced._alloc_peak, grid[rep], options[rep])
    values = [*agp, *bare_step, *cd_steps, *cycles, *alloc]
    assert len(values) == 12
    assert all(math.isfinite(v) for v in values)
    assert len(rows) == len(grid) and None not in rows
    assert all(math.isfinite(v) for row in rows for v in row.values()
               if isinstance(v, float))
