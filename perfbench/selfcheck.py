"""Quick self-check of the benchmark's oracle; runs in well under a second.

Usage: python3 perfbench/selfcheck.py

It checks that the oracle reproduces the closed-form corner energies and
coefficient of performance of the two-level medium, that a row built
from the oracle's own adiabatic cycle passes every check, and that each
deliberately perturbed copy of it is flagged as failed.  run.py runs it
at the start of every benchmark run and reports ``correct: false`` if it
does not pass.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import (  # noqa: E402
    Point,
    adiabatic_cycle,
    check_rows,
    expected_steps,
    two_level_corners,
)


def _point(n: int, p: int, h: float = 0.2, b: float = 0.5, j: float = 0.1) -> Point:
    n_pairs = n * (n - 1) // 2
    return Point(n=n, p=p, tau=1.0, h_i=(h,) * n, b_i=(0.0,) * n, j_i=(0.0,) * n_pairs,
                 h_f=(0.0,) * n, b_f=(b,) * n, j_f=(j,) * n_pairs, rate=500.0)


def _row(pt: Point, heat_deficit: float = 0.0) -> dict:
    """A consistent result row for ``pt`` that pumps ``heat_deficit`` less than the adiabat."""
    e_a, e_b, e_c, e_d = adiabatic_cycle(pt)
    e_d += heat_deficit
    qc, qh, w1, w3 = e_a - e_d, e_c - e_b, e_b - e_a, e_d - e_c
    return {"N": pt.n, "p": pt.p, "tau1": pt.tau, "tau3": pt.tau, "tau2": pt.tau2,
            "tau4": pt.tau4, "Tc": pt.Tc, "Th": pt.Th, "Qc": qc, "Qh": qh,
            "W1": w1, "W3": w3, "W0_total": w1 + w3, "WCD_total": 0.0,
            "J": qc / pt.tau_cycle, "cop": qc / (w1 + w3), "cop_defined": "true",
            "cop_carnot": pt.Tc / (pt.Th - pt.Tc), "Qc_adiabatic": qc + heat_deficit,
            "cost1": 0.0 if pt.p == 0 else 0.01, "cost3": 0.0 if pt.p == 0 else 0.01,
            "steps": expected_steps(pt), "converged": "unchecked"}


def _flagged(rows, points, order_check=False) -> list[bool]:
    return [bool(bad) for bad in check_rows(rows, points, order_check)]


def run() -> list[tuple[str, bool]]:
    results = []
    corners_ok = cop_ok = True
    for h, b, tc, th in ((0.2, 0.5, 0.2, 0.4), (0.13, 0.71, 0.05, 0.9), (0.3, 0.35, 0.4, 0.6)):
        pt = replace(_point(1, 1, h, b), Tc=tc, Th=th)
        sim = adiabatic_cycle(pt)
        corners_ok &= max(abs(s - c) for s, c in zip(sim, two_level_corners(h, b, tc, th))) < 1e-12
        e_a, e_b, e_c, e_d = sim
        cop_ok &= abs((e_a - e_d) / (e_b - e_a + e_d - e_c) - h / (b - h)) < 1e-12
    results.append(("two-level corner energies match the closed form", corners_ok))
    results.append(("two-level adiabatic cop is h / (b - h)", cop_ok))

    exact = _point(1, 1)
    good = _row(exact)
    results.append(("an exact two-level row passes", _flagged([good], [exact]) == [False]))
    perturbations = {
        "Qc_adiabatic": {"Qc_adiabatic": good["Qc_adiabatic"] + 1e-8},
        "first law": {"Qh": good["Qh"] + 1e-6},
        "catalytic": {"WCD_total": 1e-3, "W0_total": good["W0_total"] - 1e-3},
        "cop": {"cop": good["cop"] + 1e-6},
        "step count": {"steps": good["steps"] + 2},
        "converged flag": {"converged": "true"},
    }
    for name, change in perturbations.items():
        results.append((f"perturbed row is flagged: {name}",
                        _flagged([{**good, **change}], [exact]) == [True]))
    results.append(("missing row is flagged", _flagged([None], [exact]) == [True]))

    bare, low = _point(2, 0), _point(2, 1)
    rows = [_row(bare, 1e-3), _row(low, 2e-3)]
    results.append(("cooling power falling with p is flagged",
                    _flagged(rows, [bare, low], order_check=True) == [False, True]))
    return results


if __name__ == "__main__":
    checks = run()
    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    raise SystemExit(0 if all(ok for _, ok in checks) else 1)
