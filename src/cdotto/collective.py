"""Collective-spin basis of N spins 1/2 (the Schur-Weyl decomposition).

Under the collective spin S = (1/2) sum_j sigma_j the 2^N-dimensional space
splits into spin-S blocks, S = N/2 - k for k = 0..N//2, and the spin-S block
occurs d_S = C(N, k) - C(N, k - 1) times.  When every occurrence carries the
standard basis |S, m>, an operator that commutes with all site permutations
acts on each occurrence of a block by the same (2S+1) x (2S+1) matrix.  So
one occurrence per block carries it: with W the 2^N x R isometry onto them,
R = floor((N + 2)^2 / 4), and the multiplicities D as trace weights,
Tr[rho X] = Tr[D (W^T rho W)(W^T X W)] for permutation-symmetric rho and X
(Lipkin, Meshkov & Glick, Nucl. Phys. 62, 188 (1965); Shammah et al.,
PRA 98, 063815 (2018)).  A stroke that runs here keeps its state in the
R x R space; nothing maps it back to 2^N.

W is built without any 2^N x 2^N operator: for each k, the first vector of
an orthonormal basis of the highest-weight space (ker S+ among the states
with k down spins) is one |S, S>, and S- ladders it down to |S, -S>.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _lower(cols: np.ndarray, n: int) -> np.ndarray:
    """S- = sum_j sigma-_j applied to each column; site 0 is the leading bit, 0 is up."""
    t = cols.reshape((2,) * n + (-1,))
    out = np.zeros_like(t)
    for j in range(n):
        up = (slice(None),) * j + (0,)
        down = (slice(None),) * j + (1,)
        out[down] += t[up]
    return out.reshape(cols.shape)


def _highest_weights(n: int, k: int) -> np.ndarray:
    """Orthonormal columns spanning ker S+ among the states with k down spins."""
    dim = 2 ** n
    popcount = np.bitwise_count(np.arange(dim))
    sector = np.flatnonzero(popcount == k)
    above = {s: row for row, s in enumerate(np.flatnonzero(popcount == k - 1))}
    # S+ from sector k to sector k - 1 flips one down spin up
    raise_op = np.zeros((len(above), len(sector)))
    for col, s in enumerate(sector):
        for j in range(n):
            bit = 1 << j
            if s & bit:
                raise_op[above[s ^ bit], col] = 1.0
    # S- S+ is S(S+1) - m(m+1) >= 2(m+1) on the sector outside ker S+, so the
    # kernel is its d_S lowest eigenvectors
    d = len(sector) - len(above)
    vecs = np.linalg.eigh(raise_op.T @ raise_op)[1][:, :d]
    out = np.zeros((dim, d))
    out[sector] = vecs
    return out


class CollectiveBasis:
    """One occurrence of each collective-spin block of N sites.

    ``w`` is the 2^N x R isometry W, its columns block by block (S
    descending), m from S down to -S, and ``weights`` the multiplicity d_S
    of each column.  Arrays are read-only.
    """

    def __init__(self, n_sites: int):
        w, weights, block = [], [], []
        for k in range(n_sites // 2 + 1):
            spin = n_sites / 2.0 - k
            size = n_sites - 2 * k + 1
            highest = _highest_weights(n_sites, k)
            vecs = highest[:, :1]
            ladder = [vecs]
            for step in range(1, size):
                m = spin - step + 1  # the m being lowered
                vecs = _lower(vecs, n_sites) / math.sqrt((spin + m) * (spin - m + 1))
                ladder.append(vecs)
            w.append(np.concatenate(ladder, axis=1))
            weights.append(np.full(size, float(highest.shape[1])))
            block.append(np.full(size, k))
        self.w = np.ascontiguousarray(np.concatenate(w, axis=1))
        self.weights = np.concatenate(weights)
        block = np.concatenate(block)
        self._mask = block[:, None] == block[None, :]
        for arr in (self.w, self.weights, self._mask):
            arr.setflags(write=False)

    def project(self, mat: np.ndarray) -> np.ndarray:
        """Block-diagonal part of W^T mat W, for one matrix or a stack of them."""
        return (self.w.T @ mat @ self.w) * self._mask


@functools.lru_cache(maxsize=None)
def collective_basis(n_sites: int) -> CollectiveBasis:
    """The ``CollectiveBasis`` of ``n_sites``, built once per process."""
    return CollectiveBasis(n_sites)
