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

The occurrence is written down, with no operator built: block k is
s^{(x)k} (x) D_{N-2k}, singlets s = (|01> - |10>)/sqrt(2) on the site pairs
(0, 1), ..., (2k-2, 2k-1) times the Dicke states of the other N - 2k sites.
A singlet has spin 0, so S+-, S_z act on the Dicke factor alone, where
S- has positive matrix elements: the columns are the standard |S, m>.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _dicke(n: int) -> np.ndarray:
    """Dicke states of n sites, 2^n x (n + 1): column j has j down spins (0 is up)."""
    downs = np.bitwise_count(np.arange(2 ** n))
    states = (downs[:, None] == np.arange(n + 1)).astype(float)
    return states / np.sqrt(states.sum(axis=0))


class CollectiveBasis:
    """One occurrence of each collective-spin block of N sites.

    ``w`` is the 2^N x R isometry W, its columns block by block (S
    descending), m from S down to -S, and ``weights`` the multiplicity d_S
    of each column.  Arrays are read-only.
    """

    def __init__(self, n_sites: int):
        w, weights, block = [], [], []
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        singlets = np.ones(1)
        for k in range(n_sites // 2 + 1):
            size = n_sites - 2 * k + 1
            w.append(np.kron(singlets[:, None], _dicke(n_sites - 2 * k)))
            d = math.comb(n_sites, k) - (math.comb(n_sites, k - 1) if k else 0)
            weights.append(np.full(size, float(d)))
            block.append(np.full(size, k))
            singlets = np.kron(singlets, singlet)
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
