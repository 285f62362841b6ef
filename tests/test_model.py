"""Schedules, sweep profile and the driven Hamiltonian."""

import numpy as np
import pytest

import oracles
from cdotto.errors import DimensionError, DomainError
from cdotto.model import (
    EndpointParams,
    SweepSpec,
    dh0_dtheta,
    h0_at,
    pair_index,
    sweep_theta,
    sweep_theta_dot,
)
from cdotto.paulis import OperatorSum


def disordered_params(n, seed=3):
    rng = np.random.default_rng(seed)
    n_pairs = n * (n - 1) // 2
    return EndpointParams(
        h_i=0.2 + 0.03 * rng.standard_normal(n),
        b_i=0.01 * rng.standard_normal(n),
        j_i=np.zeros(n_pairs),
        h_f=0.02 * rng.standard_normal(n),
        b_f=0.5 + 0.04 * rng.standard_normal(n),
        j_f=0.1 + 0.02 * rng.standard_normal(n_pairs),
    )


class TestSweepProfile:
    def test_endpoints_are_exact(self):
        assert sweep_theta(0.0, 2.0) == 0.0
        assert sweep_theta(2.0, 2.0) == 1.0

    def test_midpoint_is_half(self):
        assert sweep_theta(1.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_increasing(self):
        tau = 3.0
        t = np.linspace(0, tau, 801)
        th = sweep_theta(t, tau)
        assert np.all(np.diff(th) >= 0)
        assert np.all(np.diff(th[80:-80]) > 0)

    def test_mirror_symmetry(self):
        tau = 1.7
        for t in (0.1, 0.3, 0.77):
            assert sweep_theta(tau - t, tau) == pytest.approx(
                1.0 - sweep_theta(t, tau), abs=1e-14
            )

    def test_rate_endpoints_vanish(self):
        assert sweep_theta_dot(0.0, 1.0) == 0.0
        assert abs(sweep_theta_dot(1.0, 1.0)) < 1e-15

    def test_rate_midpoint(self):
        tau = 2.0
        assert sweep_theta_dot(tau / 2, tau) == pytest.approx(
            np.pi ** 2 / (4 * tau), abs=1e-14
        )

    def test_rate_matches_finite_difference(self):
        tau, t, dt = 1.0, 0.25, 1e-6
        fd = (sweep_theta(t + dt, tau) - sweep_theta(t - dt, tau)) / (2 * dt)
        assert sweep_theta_dot(t, tau) == pytest.approx(fd, abs=1e-8)

    def test_second_derivative_matches_finite_difference(self):
        # the stroke oracle's closed-form acceleration, against the package's rate
        tau, dt = 1.3, 1e-6
        for t in (0.2, 0.6, 1.0):
            fd = (sweep_theta_dot(t + dt, tau) - sweep_theta_dot(t - dt, tau)) / (2 * dt)
            assert oracles.sweep_profile(t, tau)[2] == pytest.approx(fd, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sweep_theta(-0.1, 1.0)
        with pytest.raises(DomainError):
            sweep_theta(1.1, 1.0)
        with pytest.raises(DomainError):
            sweep_theta_dot(2.0, 1.0)


class TestEndpointParams:
    def test_uniform_shapes(self):
        p = EndpointParams.uniform(4)
        assert p.n_sites == 4
        assert p.n_pairs == 6
        assert p.is_uniform()

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            EndpointParams(h_i=[0.2, 0.2], b_i=[0.0], j_i=[0.0],
                           h_f=[0.0, 0.0], b_f=[0.5, 0.5], j_f=[0.1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, value):
        # a NaN field would also break the solver's equality check, as NaN != NaN
        with pytest.raises(DomainError, match="b_f must be finite"):
            EndpointParams(h_i=[0.2, 0.2], b_i=[0.0, 0.0], j_i=[0.0],
                           h_f=[0.0, 0.0], b_f=[0.5, value], j_f=[0.1])
        with pytest.raises(DomainError, match="j_i must be finite"):
            EndpointParams.uniform(2, j_i=value)

    def test_equality(self):
        assert EndpointParams.uniform(3) == EndpointParams.uniform(3)
        assert EndpointParams.uniform(3) != EndpointParams.uniform(3, h_i=0.3)

    def test_disorder_detected(self):
        assert not disordered_params(3).is_uniform()

    def test_pair_order(self):
        assert pair_index(3) == [(1, 0), (2, 0), (2, 1)]


class TestHamiltonian:
    def test_cold_endpoint_is_pure_transverse_field(self):
        op = h0_at(EndpointParams.uniform(2), 0.0)
        assert dict(op.terms) == {("X", "I"): -0.2, ("I", "X"): -0.2}

    def test_hot_endpoint_is_classical_ising(self):
        op = h0_at(EndpointParams.uniform(2), 1.0)
        assert dict(op.terms) == {
            ("Z", "I"): -0.5, ("I", "Z"): -0.5, ("Z", "Z"): -0.1,
        }

    def test_single_site_midpoint(self):
        op = h0_at(EndpointParams.uniform(1), 0.5)
        assert dict(op.terms) == {("X",): -0.1, ("Z",): -0.25}

    def test_matches_dense_ising_oracle(self):
        params = disordered_params(3)
        theta = 0.37
        h = params.h_i + (params.h_f - params.h_i) * theta
        b = params.b_i + (params.b_f - params.b_i) * theta
        couplings = {
            jk: params.j_i[i] + (params.j_f[i] - params.j_i[i]) * theta
            for i, jk in enumerate(pair_index(3))
        }
        from cdotto.paulis import to_dense
        np.testing.assert_allclose(
            to_dense(h0_at(params, theta)),
            oracles.dense_ising(3, h, b, couplings),
            atol=1e-14,
        )

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            h0_at(EndpointParams.uniform(1), 1.2)

    def test_affine_in_theta_exactly(self):
        for params in (EndpointParams.uniform(3), disordered_params(3)):
            base = h0_at(params, 0.0)
            slope = dh0_dtheta(params)
            for theta in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.9, 1.0):
                line = OperatorSum(3, [*base.terms.items(), *(theta * slope).terms.items()])
                assert dict(h0_at(params, theta).terms) == dict(line.terms)


class TestDerivative:
    def test_single_site_value(self):
        op = dh0_dtheta(EndpointParams.uniform(1))
        assert dict(op.terms) == {("X",): 0.2, ("Z",): -0.5}

    def test_two_site_value(self):
        op = dh0_dtheta(EndpointParams.uniform(2))
        assert dict(op.terms) == {
            ("X", "I"): 0.2, ("I", "X"): 0.2,
            ("Z", "I"): -0.5, ("I", "Z"): -0.5, ("Z", "Z"): -0.1,
        }

    def test_constant_drive_has_zero_derivative(self):
        params = EndpointParams.uniform(2, h_i=0.2, b_i=0.1, j_i=0.05,
                                        h_f=0.2, b_f=0.1, j_f=0.05)
        assert not dh0_dtheta(params).terms

    def test_finite_difference_of_h0(self):
        params = disordered_params(2)
        eps = 1e-6
        hi = h0_at(params, 0.4 + eps)
        lo = h0_at(params, 0.4 - eps)
        fd = (1.0 / (2 * eps)) * OperatorSum(2, [*hi.terms.items(),
                                                  *((-1.0) * lo).terms.items()])
        exact = dh0_dtheta(params)
        for pat, c in exact.terms.items():
            assert fd.terms[pat] == pytest.approx(c, abs=1e-9)


class TestSweepSpec:
    def test_duration_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(0.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(DomainError, match="positive and finite"):
            SweepSpec(duration)

    def test_forward_grid_endpoints(self):
        grid = SweepSpec(2.0).grid(100)
        assert grid.theta[0] == 0.0 and grid.theta[-1] == 1.0
        assert grid.theta_dot[0] == 0.0
