"""The benchmark's workloads: seeded `cdotto run` invocations and their points.

A workload is a list of invocations, run one after another as one round.
Each invocation is one config file for `cdotto run` plus its step-rate
option.  The points it should produce are expanded here, in the CLI's
documented grid order (N outer, then p, then tau), without calling
cdotto, so the oracle checks rows against what was asked for.

The seed moves the inputs but not the amount of work: stroke durations
are drawn where the step count is clipped to its floor of 1000 steps per
stroke, and disordered fields keep the matrix sizes of their N and p.

The BLAS thread count is part of a workload.  `survey` and `converge`
run with OpenBLAS pinned to one thread: under the default threading the
forked `cdotto run` worker switches at random into a mode up to ten
times slower (see README.md), so their figures would measure the
scheduler.  `cd-uniform` and `cd-disordered` keep the default, which
helps the first and costs the second about tenfold, steadily.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import Point

REFERENCE = {"h_i": 0.2, "b_i": 0.0, "J_i": 0.0, "h_f": 0.0, "b_f": 0.5, "J_f": 0.1}


@dataclass(frozen=True)
class Invocation:
    """One `cdotto run --config ...` call."""

    config: str
    rate: float | None
    points: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    #: check that J does not fall as p rises at fixed N across the round
    order_check: bool = False
    #: OpenBLAS/OpenMP threads for every process of the workload; None keeps the default
    blas_threads: int | None = None

    @property
    def points(self) -> list:
        return [pt for inv in self.invocations for pt in inv.points]


def _fmt(value: float) -> str:
    return repr(float(value))


def _invocation(ns, ps, taus, fields, rate) -> Invocation:
    """Config text and expanded points for one grid of a single field set.

    ``fields`` maps each endpoint key to a scalar (uniform) or to a per-site
    (per-pair for couplings) list; lists need a single N.
    """
    lines = [f"N = {','.join(map(str, ns))}",
             f"p = {','.join(map(str, ps))}",
             f"tau = {','.join(_fmt(t) for t in taus)}"]
    for key, val in fields.items():
        text = " ".join(_fmt(v) for v in val) if isinstance(val, list) else _fmt(val)
        lines.append(f"{key} = {text}")
    points = []
    for n in ns:
        n_pairs = n * (n - 1) // 2

        def spread(key, size):
            val = fields[key]
            return tuple(float(v) for v in val) if isinstance(val, list) \
                else (float(val),) * size

        site = {k: spread(k, n) for k in ("h_i", "b_i", "h_f", "b_f")}
        pair = {k: spread(k, n_pairs) for k in ("J_i", "J_f")}
        for p in ps:
            for tau in taus:
                points.append(Point(n=n, p=p, tau=float(tau),
                                    h_i=site["h_i"], b_i=site["b_i"], j_i=pair["J_i"],
                                    h_f=site["h_f"], b_f=site["b_f"], j_f=pair["J_f"],
                                    rate=rate))
    return Invocation("\n".join(lines) + "\n", rate, tuple(points))


def _disordered_fields(rng: random.Random, n: int) -> dict:
    """Reference operating point with every field and coupling drawn within +-20%."""
    def draw(centre, size):
        return [round(centre * (1.0 + rng.uniform(-0.2, 0.2)), 4) for _ in range(size)]

    n_pairs = n * (n - 1) // 2
    return {"h_i": draw(0.2, n), "b_i": 0.0, "J_i": 0.0,
            "h_f": 0.0, "b_f": draw(0.5, n), "J_f": draw(0.1, n_pairs)}


def survey(seed: int) -> Workload:
    rng = random.Random(f"survey:{seed}")
    tau = round(rng.uniform(36.0, 44.0), 2)
    return Workload("survey", (
        _invocation([1, 2, 3, 4, 5, 6], [0, 2], [tau], REFERENCE, 20.0),
        _invocation([3, 4], [4], [tau], REFERENCE, 20.0),
    ), order_check=True, blas_threads=1)


def cd_uniform(seed: int) -> Workload:
    rng = random.Random(f"cd-uniform:{seed}")
    tau = round(rng.uniform(0.8, 1.2), 3)
    return Workload("cd-uniform", (_invocation([6], [4], [tau], REFERENCE, 500.0),))


def cd_disordered(seed: int) -> Workload:
    rng = random.Random(f"cd-disordered:{seed}")
    tau = round(rng.uniform(0.8, 1.2), 3)
    grids = ((4, [2, 4]), (5, [3]))
    return Workload("cd-disordered", tuple(
        _invocation([n], ps, [tau], _disordered_fields(rng, n), 500.0) for n, ps in grids))


def converge(seed: int) -> Workload:
    rng = random.Random(f"converge:{seed}")
    tau = round(rng.uniform(0.4, 0.5), 3)
    return Workload("converge", (_invocation([4, 5], [0, 4], [tau], REFERENCE, None),),
                    blas_threads=1)


WORKLOADS = {"survey": survey, "cd-uniform": cd_uniform,
             "cd-disordered": cd_disordered, "converge": converge}
