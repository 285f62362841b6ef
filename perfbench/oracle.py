"""Independent checks of `cdotto run` result rows.

Nothing here imports cdotto.  The Ising Hamiltonian is built from numpy
Kronecker products and the adiabatic cycle from its own eigenvalue
transport, so a fault in the program's Pauli algebra, model or cycle code
cannot also hide in the reference it is checked against.

Two kinds of tolerance are used:

* Roundoff tolerances (``ROUNDOFF``, ``ADIABATIC_TOL``) guard identities
  that hold exactly for an exactly unitary propagator: first-law closure,
  passivity (``Qc <= Qc_adiabatic``) and the Carnot bound.
* Discretization tolerances (``TRACK_TOL``, ``CATALYTIC_TOL``,
  ``COP_TOL``, ``ORDER_TOL``) guard results that the midpoint integrator
  reaches only as the step shrinks.  They are ten times the largest
  discretization error that ``perfbench/halving.py`` estimates by step
  halving over the benchmark's own inputs (see README.md), never values
  read off the program's printed output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

#: |Qc_adiabatic - eigenvalue transport|; both are a handful of eigvalsh calls.
ADIABATIC_TOL = 1e-10
#: identities that hold to roundoff (first law, work split, J, cop, passivity)
ROUNDOFF = 1e-9
#: |Qc - Qc_adiabatic| at p >= N (exact control tracks the adiabat)
TRACK_TOL = 1.3e-4
#: |WCD_total| at p >= N (exact control is catalytic)
CATALYTIC_TOL = 1.5e-4
#: |cop - h/(b - h)| at N = 1 under exact control
COP_TOL = 4e-10
#: allowed decrease of J from one control order to the next at fixed N
ORDER_TOL = 8e-8

_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class Point:
    """One grid point as the benchmark asked for it.

    Fields are per-site lists, couplings per pair in (j, k), j > k order,
    exactly as written to the config file.  ``rate`` is the fixed
    ``--steps-per-unit-time``; None means the default converged run.
    """

    n: int
    p: int
    tau: float
    h_i: tuple
    b_i: tuple
    j_i: tuple
    h_f: tuple
    b_f: tuple
    j_f: tuple
    rate: float | None
    Tc: float = 0.2
    Th: float = 0.4
    tau2: float = 0.1
    tau4: float = 0.1

    @property
    def exact(self) -> bool:
        return self.p >= self.n

    @property
    def tau_cycle(self) -> float:
        return 2.0 * self.tau + self.tau2 + self.tau4


def _site_op(n: int, site: int, mat: np.ndarray) -> np.ndarray:
    out = np.ones((1, 1))
    for j in range(n):
        out = np.kron(out, mat if j == site else _I)
    return out


def ising_dense(n: int, h, b, couplings) -> np.ndarray:
    """-sum h_j X_j - sum b_j Z_j - sum_{j>k} J_jk Z_j Z_k as a dense real matrix."""
    dim = 2 ** n
    out = np.zeros((dim, dim))
    zs = [_site_op(n, j, _Z) for j in range(n)]
    for j in range(n):
        out -= h[j] * _site_op(n, j, _X) + b[j] * zs[j]
    pairs = [(j, k) for j in range(1, n) for k in range(j)]
    for (j, k), val in zip(pairs, couplings):
        out -= val * (zs[j] @ zs[k])
    return out


def _populations(energies: np.ndarray, temperature: float) -> np.ndarray:
    w = np.exp(-(energies - energies.min()) / temperature)
    return w / w.sum()


def adiabatic_cycle(pt: Point):
    """Corner energies (E_a, E_b, E_c, E_d) of the infinitely slow cycle.

    Gibbs populations of each bath are carried, level by level in energy
    order, onto the other endpoint Hamiltonian.  The result is the passive
    cycle: no unitary stroke can pump more heat out of the cold bath.
    """
    e_cold = np.linalg.eigvalsh(ising_dense(pt.n, pt.h_i, pt.b_i, pt.j_i))
    e_hot = np.linalg.eigvalsh(ising_dense(pt.n, pt.h_f, pt.b_f, pt.j_f))
    p_a = _populations(e_cold, pt.Tc)
    p_c = _populations(e_hot, pt.Th)
    return (float(p_a @ e_cold), float(p_a @ e_hot),
            float(p_c @ e_hot), float(p_c @ e_cold))


def two_level_corners(h: float, b: float, t_cold: float, t_hot: float):
    """Closed-form corner energies of the two-level medium (N = 1)."""
    return (-h * math.tanh(h / t_cold), -b * math.tanh(h / t_cold),
            -b * math.tanh(b / t_hot), -h * math.tanh(b / t_hot))


def read_rows(path) -> list[dict]:
    """Result rows of results.csv with numbers parsed and flags as strings."""
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {}
            for key, text in raw.items():
                if key in ("cop_defined", "converged"):
                    row[key] = text
                elif key in ("N", "p", "steps"):
                    row[key] = int(text)
                else:
                    row[key] = float(text) if text != "" else None
            rows.append(row)
    return rows


def expected_steps(pt: Point) -> int:
    """Steps per cycle at a fixed rate, as the README's accuracy knobs define them."""
    per_stroke = min(max(math.ceil(pt.rate * pt.tau), 1000), 20000)
    return 2 * per_stroke


def check_row(row: dict, pt: Point, qc_ad: float) -> list[str]:
    """Every check that one row can fail on its own; returns the failures."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    need(row["N"] == pt.n and row["p"] == pt.p, "grid point N/p")
    need(row["tau1"] == pt.tau and row["tau3"] == pt.tau
         and row["Tc"] == pt.Tc and row["Th"] == pt.Th, "grid point tau/T")
    values = [row[k] for k in ("Qc", "Qh", "W1", "W3", "W0_total", "WCD_total",
                               "J", "cop_carnot", "Qc_adiabatic")]
    if not all(v is not None and math.isfinite(v) for v in values):
        return bad + ["non-finite value"]
    qc, qh, w1, w3 = row["Qc"], row["Qh"], row["W1"], row["W3"]
    w = w1 + w3
    need(abs(row["Qc_adiabatic"] - qc_ad) <= ADIABATIC_TOL, "Qc_adiabatic vs oracle")
    need(abs(w1 + w3 + qc + qh) <= ROUNDOFF, "first-law closure")
    need(abs(row["W0_total"] + row["WCD_total"] - w) <= ROUNDOFF, "work split")
    need(abs(row["J"] - qc / pt.tau_cycle) <= ROUNDOFF, "J = Qc / tau_cycle")
    need(abs(row["cop_carnot"] - pt.Tc / (pt.Th - pt.Tc)) <= ROUNDOFF, "cop_carnot")
    need(qc <= qc_ad + ROUNDOFF, "passivity Qc <= Qc_adiabatic")
    if w > 0:
        need(row["cop_defined"] == "true" and row["cop"] is not None
             and abs(row["cop"] - qc / w) <= ROUNDOFF, "cop = Qc / W")
        if qc > 0:
            need(row["cop"] <= row["cop_carnot"] + ROUNDOFF, "Carnot bound")
    else:
        need(row["cop_defined"] == "false" and row["cop"] is None, "cop undefined")
    need(row["cost1"] >= 0 and row["cost3"] >= 0, "control cost sign")
    if pt.p == 0:
        need(row["cost1"] == 0 and row["cost3"] == 0, "no control cost at p = 0")
    if pt.exact:
        need(abs(qc - qc_ad) <= TRACK_TOL, "exact control tracks the adiabat")
        need(abs(row["WCD_total"]) <= CATALYTIC_TOL, "exact control is catalytic")
        if pt.n == 1:
            closed = pt.h_i[0] / (pt.b_f[0] - pt.h_i[0])
            need(row["cop"] is not None and abs(row["cop"] - closed) <= COP_TOL,
                 "two-level cop h / (b - h)")
    if pt.rate is None:
        need(row["converged"] == "true", "converged")
    else:
        need(row["converged"] == "unchecked", "fixed rate is unchecked")
        need(row["steps"] == expected_steps(pt), "step count")
    return bad


def check_rows(rows: list, points: list[Point], order_check: bool) -> list[list[str]]:
    """Check rows, aligned with the points they answer, against those points.

    ``rows`` holds None where a point produced no row.  Returns one
    failure list per point.  With ``order_check`` the cooling power must
    not fall as the control order rises at fixed N (the row with the
    higher order is blamed).
    """
    qc_ad: dict = {}
    out = []
    for pt, row in zip(points, rows):
        if row is None:
            out.append(["missing row"])
            continue
        key = (pt.n, pt.h_i, pt.b_i, pt.j_i, pt.h_f, pt.b_f, pt.j_f, pt.Tc, pt.Th)
        if key not in qc_ad:
            e_a, _, _, e_d = adiabatic_cycle(pt)
            qc_ad[key] = e_a - e_d
        out.append(check_row(row, pt, qc_ad[key]))
    out += [["missing row"] for _ in range(len(points) - len(out))]
    if order_check:
        by_n: dict = {}
        for i, pt in enumerate(points):
            if not out[i]:
                by_n.setdefault(pt.n, []).append(i)
        for idx in by_n.values():
            idx.sort(key=lambda i: points[i].p)
            for lo, hi in zip(idx, idx[1:]):
                if rows[hi]["J"] < rows[lo]["J"] - ORDER_TOL:
                    out[hi].append("J non-decreasing in p")
    return out
