"""Step-halving study behind the oracle's discretization tolerances.

Usage (from the root of a source checkout):

  python3 perfbench/halving.py [--seeds 1 2 3] [--workloads survey converge]

For every point of every workload and seed it runs the cycle in process
at the step count the benchmark's `cdotto run` uses (for ``converge``, the
step count its convergence loop settles on) and again at twice that.  The
midpoint integrator is second order, so |X(s) - X(2s)| * 4/3 estimates
the discretization error of X at s.  For each workload and checked quantity
the study prints the largest such estimate and the largest value the
benchmark's step count actually gives.  The tolerances in oracle.py are
ten times the largest estimates; README.md records what this script
printed.

BLAS is pinned to one thread here only to keep the study short; it does
not change which steps are taken.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from cdotto.config import parse_config_text, resolve_blocks  # noqa: E402
from cdotto.cycle import RunOptions, run_cycle  # noqa: E402
from oracle import adiabatic_cycle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _fixed(per_stroke: int) -> RunOptions:
    return RunOptions(min_steps=per_stroke, max_steps=per_stroke, converge=False)


def _record(worst: dict, key, value: float, label: str) -> None:
    if value >= worst.get(key, (0.0, ""))[0]:
        worst[key] = (value, label)


def study(name: str, seed: int, exact_only: bool, worst: dict) -> None:
    workload = WORKLOADS[name](seed)
    for inv in workload.invocations:
        configs = resolve_blocks([parse_config_text(inv.config)])
        for cfg, pt in zip(configs, inv.points):
            if exact_only and not pt.exact:
                continue
            if inv.rate is None:
                coarse = run_cycle(cfg, RunOptions())
            else:
                coarse = run_cycle(cfg, RunOptions(steps_per_unit_time=inv.rate,
                                                   converge=False))
            fine = run_cycle(cfg, _fixed(coarse.steps))  # twice the per-stroke steps
            e_a, _, _, e_d = adiabatic_cycle(pt)
            quantities = {"J": (coarse.J, fine.J)}
            if pt.exact:
                quantities["track |Qc - Qc_ad|"] = (coarse.Qc - (e_a - e_d),
                                                     fine.Qc - (e_a - e_d))
                quantities["catalytic |WCD_total|"] = (coarse.WCD_total, fine.WCD_total)
                if pt.n == 1:
                    closed = pt.h_i[0] / (pt.b_f[0] - pt.h_i[0])
                    quantities["two-level |cop - h/(b-h)|"] = (coarse.cop - closed,
                                                               fine.cop - closed)
            label = f"seed {seed} N={pt.n} p={pt.p} tau={pt.tau} steps={coarse.steps}"
            for key, (x_s, x_2s) in quantities.items():
                _record(worst, (name, key, "estimate"), abs(x_s - x_2s) * 4.0 / 3.0, label)
                if key != "J":
                    _record(worst, (name, key, "value"), abs(x_s), label)
            print(f"{name} {label}: fallbacks {coarse.diagnostics['agp_fallbacks']}, "
                  f"J {coarse.J:.12g} (2s: {fine.J:.12g})", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS),
                        choices=sorted(WORKLOADS))
    parser.add_argument("--exact-only", action="store_true",
                        help="study only the exact-control points (p >= N)")
    args = parser.parse_args()
    worst: dict = {}
    for name in args.workloads:
        for seed in args.seeds:
            study(name, seed, args.exact_only, worst)
    print("\nworkload, quantity: largest error estimate |X(s) - X(2s)| * 4/3, "
          "or largest |X(s)|, and where")
    for (name, key, kind), (value, label) in sorted(worst.items()):
        print(f"  {name}, {key} {kind}: {value:.3e} at {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
