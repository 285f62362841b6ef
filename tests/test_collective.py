"""The collective-spin basis against dense operators, for N = 1..8 (1..12 where cheap)."""

import functools
import math

import numpy as np
import pytest

from cdotto.agp import AgpSolver, build_basis
from cdotto.collective import collective_basis
from cdotto.dynamics import check_state, gibbs_state
from cdotto.model import EndpointParams, dh0_dtheta, h0_at
from cdotto.paulis import OperatorSum, to_dense

SIZES = list(range(1, 9))


@functools.lru_cache(maxsize=None)
def symmetric_operators(n):
    """Uniform H0(theta), dH0/dtheta and every orbit operator up to p = 4."""
    params = EndpointParams.uniform(n)
    ops = [to_dense(h0_at(params, theta)).real for theta in (0.0, 0.3, 1.0)]
    ops.append(to_dense(dh0_dtheta(params)).real)
    for p in range(1, min(n, 4) + 1):
        ops.extend(AgpSolver(params, build_basis(n, p)).reduced_stack)
    return ops


@pytest.mark.parametrize("n", range(1, 13))
def test_w_has_orthonormal_columns(n):
    basis = collective_basis(n)
    assert np.abs(basis.w.T @ basis.w - np.eye(basis.w.shape[1])).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_block_sizes_and_multiplicities(n):
    basis = collective_basis(n)
    assert basis.w.shape == (2 ** n, (n + 2) ** 2 // 4)
    expected = []
    for k in range(n // 2 + 1):
        d = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        expected += [d] * (n - 2 * k + 1)  # d_S copies of 2S + 1 states
    np.testing.assert_array_equal(basis.weights, expected)
    assert basis.weights.sum() == 2 ** n


def collective_sum(n, letter):
    """Dense sum_j sigma^letter_j, twice the collective spin component."""
    return to_dense(OperatorSum(n, {"I" * j + letter + "I" * (n - j - 1): 1.0
                                    for j in range(n)})).real


@pytest.mark.parametrize("n", range(1, 11))
def test_columns_are_the_standard_basis(n):
    # block by block, m runs from S down to -S, and the standard basis has
    # <S, m-1|S_x|S, m> = sqrt(S(S+1) - m(m-1)) / 2 > 0
    m, s_x = [], np.zeros(((n + 2) ** 2 // 4,) * 2)
    for k in range(n // 2 + 1):
        spin = n / 2 - k
        start = len(m)
        m += [spin - i for i in range(n - 2 * k + 1)]
        for i in range(start, len(m) - 1):
            s_x[i, i + 1] = s_x[i + 1, i] = 0.5 * math.sqrt(spin * (spin + 1) - m[i] * (m[i] - 1))
    w = collective_basis(n).w
    sum_x = collective_sum(n, "X")
    assert np.abs(w.T @ collective_sum(n, "Z") @ w - 2 * np.diag(m)).max() <= 1e-12
    assert np.abs(w.T @ sum_x @ w - 2 * s_x).max() <= 1e-12
    assert np.abs(sum_x @ w - w @ (w.T @ sum_x @ w)).max() <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_symmetric_operators_leave_the_copies_invariant(n):
    basis = collective_basis(n)
    w = basis.w
    for mat in symmetric_operators(n):
        assert np.abs(mat @ w - w @ (w.T @ mat @ w)).max() <= 1e-12
        # and the reduced form is block-diagonal, so projecting drops nothing
        assert np.abs(w.T @ mat @ w - basis.project(mat)).max() <= 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_weighted_reduced_traces_equal_full_traces(n):
    basis = collective_basis(n)
    params = EndpointParams.uniform(n)
    states = [gibbs_state(h0_at(params, 0.0), 0.2).matrix,
              gibbs_state(h0_at(params, 1.0), 0.4).matrix]
    for rho in states:
        rho_r = basis.project(rho)
        # the weighted trace and purity the stroke checks are the state's own
        trace, purity = check_state(rho_r, basis.weights)
        assert trace == pytest.approx(1.0, abs=1e-12)
        assert purity == pytest.approx(np.vdot(rho, rho).real, abs=1e-12)
        for mat in symmetric_operators(n):
            # Tr[a b] = sum_ij a_ij b_ji
            full = np.sum(rho * mat.T)
            reduced = np.sum((basis.weights[:, None] * rho_r) * basis.project(mat).T)
            assert abs(full - reduced) <= 1e-12


def test_built_once_and_read_only():
    basis = collective_basis(5)
    assert collective_basis(5) is basis
    for arr in (basis.w, basis.weights):
        assert not arr.flags.writeable
