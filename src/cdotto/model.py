"""Driven Ising working medium.

The Hamiltonian interpolates between two endpoint field/coupling sets as a
dimensionless progress variable theta runs from 0 to 1,

    H0(theta) = - sum_j h_j(theta) X_j - sum_j b_j(theta) Z_j
                - sum_{j>k} J_jk(theta) Z_j Z_k,

with every scalar linear in theta, so dH0/dtheta is the same Ising form
with the endpoint differences (final minus initial) as its fields and
couplings.  The time profile of theta over a stroke is the nested-sine
sweep below, which starts and ends at rest (zero rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError
from .paulis import OperatorSum


def pair_index(n_sites: int) -> list[tuple[int, int]]:
    """Canonical (j, k) coupling order with j > k."""
    return [(j, k) for j in range(1, n_sites) for k in range(j)]


def _as_field(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite, got {arr}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class EndpointParams:
    """Per-site fields and pair couplings at the two ends of a sweep.

    The ``*_i`` values apply at theta = 0 (cold working point), the ``*_f``
    values at theta = 1 (hot working point).  Couplings follow the
    ``pair_index`` order.
    """

    h_i: np.ndarray
    b_i: np.ndarray
    j_i: np.ndarray
    h_f: np.ndarray
    b_f: np.ndarray
    j_f: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.h_i).size
        n_pairs = n * (n - 1) // 2
        object.__setattr__(self, "h_i", _as_field(self.h_i, n, "h_i"))
        object.__setattr__(self, "b_i", _as_field(self.b_i, n, "b_i"))
        object.__setattr__(self, "h_f", _as_field(self.h_f, n, "h_f"))
        object.__setattr__(self, "b_f", _as_field(self.b_f, n, "b_f"))
        object.__setattr__(self, "j_i", _as_field(self.j_i, n_pairs, "j_i"))
        object.__setattr__(self, "j_f", _as_field(self.j_f, n_pairs, "j_f"))

    @property
    def n_sites(self) -> int:
        return self.h_i.size

    @property
    def n_pairs(self) -> int:
        return self.j_i.size

    @classmethod
    def uniform(cls, n_sites: int, h_i=0.2, b_i=0.0, j_i=0.0,
                h_f=0.0, b_f=0.5, j_f=0.1) -> "EndpointParams":
        """Site-independent parameter set; defaults are the reference operating point."""
        n_pairs = n_sites * (n_sites - 1) // 2
        return cls(
            h_i=np.full(n_sites, float(h_i)),
            b_i=np.full(n_sites, float(b_i)),
            j_i=np.full(n_pairs, float(j_i)),
            h_f=np.full(n_sites, float(h_f)),
            b_f=np.full(n_sites, float(b_f)),
            j_f=np.full(n_pairs, float(j_f)),
        )

    def is_uniform(self) -> bool:
        def flat(a):
            return a.size == 0 or bool(np.all(a == a[0]))

        return all(flat(a) for a in (self.h_i, self.b_i, self.j_i,
                                     self.h_f, self.b_f, self.j_f))

    def __eq__(self, other):
        if not isinstance(other, EndpointParams):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("h_i", "b_i", "j_i", "h_f", "b_f", "j_f")
        )


def _check_time(t, tau):
    if tau <= 0:
        raise DomainError("sweep duration must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > tau):
        raise DomainError(f"time outside [0, {tau}]")
    return t


def sweep_theta(t, tau: float):
    """Nested-sine progress profile; 0 at t=0, 1 at t=tau, monotone between."""
    t = _check_time(t, tau)
    inner = np.sin(np.pi * t / (2.0 * tau)) ** 2
    out = np.sin(0.5 * np.pi * inner) ** 2
    return out if out.ndim else float(out)


def sweep_theta_dot(t, tau: float):
    """Time derivative of ``sweep_theta``; vanishes at both stroke ends."""
    t = _check_time(t, tau)
    inner = np.sin(np.pi * t / (2.0 * tau)) ** 2
    out = (np.pi ** 2 / (4.0 * tau)) * np.sin(np.pi * t / tau) * np.sin(np.pi * inner)
    return out if out.ndim else float(out)


def _ising(n: int, h, b, couplings) -> OperatorSum:
    """-sum_j h_j X_j - sum_j b_j Z_j - sum_{j>k} J_jk Z_j Z_k."""
    terms = {}
    for site in range(n):
        for letter, field in (("X", h), ("Z", b)):
            pat = ["I"] * n
            pat[site] = letter
            terms[tuple(pat)] = -field[site]
    for idx, (site, other) in enumerate(pair_index(n)):
        pat = ["I"] * n
        pat[site] = "Z"
        pat[other] = "Z"
        terms[tuple(pat)] = -couplings[idx]
    return OperatorSum(n, terms)


def h0_at(params: EndpointParams, theta: float) -> OperatorSum:
    """Working-medium Hamiltonian at progress ``theta`` in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta={theta} outside [0, 1]")
    p = params
    return _ising(p.n_sites, p.h_i + (p.h_f - p.h_i) * theta,
                  p.b_i + (p.b_f - p.b_i) * theta, p.j_i + (p.j_f - p.j_i) * theta)


def dh0_dtheta(params: EndpointParams) -> OperatorSum:
    """Derivative of ``h0_at`` with respect to theta (constant, schedules are linear)."""
    p = params
    return _ising(p.n_sites, p.h_f - p.h_i, p.b_f - p.b_i, p.j_f - p.j_i)


class StrokeGrid(NamedTuple):
    """Uniform time grid for one stroke plus theta values and rates.

    ``theta``/``theta_dot`` are sampled at the ``steps + 1`` grid points
    t_k = k tau / steps, the ``*_mid`` arrays at the ``steps`` interval
    midpoints ``t_mid``, where the propagator freezes the Hamiltonian.
    """

    theta: np.ndarray
    theta_dot: np.ndarray
    t_mid: np.ndarray
    theta_mid: np.ndarray
    theta_dot_mid: np.ndarray


@dataclass(frozen=True)
class SweepSpec:
    """One isentropic sweep of theta from 0 to 1 over ``duration``.

    The compression stroke is the time reverse of such a sweep and is read
    off its step unitaries (``cdotto.dynamics.propagate_stroke``).
    """

    duration: float

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise DomainError(f"stroke duration must be positive and finite, got {self.duration}")

    def grid(self, steps: int) -> StrokeGrid:
        """Evaluate the profile on a uniform grid."""
        tau = self.duration
        t = tau * np.arange(steps + 1) / steps
        t_mid = tau * (np.arange(steps) + 0.5) / steps
        th = np.asarray(sweep_theta(t, tau))
        thd = np.asarray(sweep_theta_dot(t, tau))
        thm = np.asarray(sweep_theta(t_mid, tau))
        thdm = np.asarray(sweep_theta_dot(t_mid, tau))
        return StrokeGrid(th, thd, t_mid, thm, thdm)
