"""Closed-form Gaussian bottleneck: spectrum, projections, and the curve."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussbound import ConditioningError, DomainError, gib_curve, gib_spectrum
from gaussbound.gib import _CAP_NATS, IBCurve, default_beta_grid, projection_coefficients
from gaussbound.stats_core import NATS_PER_BIT
from reference import gib_mi_nats, gib_point_info, gib_projection

# frozen plug-in arithmetic: beta = 2 / 0.36 on the rho = 0.6 scalar pair
SCALAR_BETA = 2.0 / 0.36
SCALAR_A = 1.25
SCALAR_ITX = 0.4704916722322633  # 0.5 ln(41/16)
SCALAR_ITY = 0.12391808195229065  # ITX - 0.5 ln 2
SCALAR_COV = [[1.0, 0.6], [0.6, 1.0]]


@pytest.fixture(scope="module")
def scalar_spec():
    return gib_spectrum(SCALAR_COV, 1)


class TestSpectrum:
    def test_scalar_algebra(self, scalar_spec):
        assert_allclose(scalar_spec.lam, [0.64], atol=1e-12)
        assert_allclose(scalar_spec.beta_crit, [1.0 / 0.36], atol=1e-10)
        assert_allclose(scalar_spec.r, [1.0], atol=1e-12)

    def test_independence_degenerates(self):
        spec = gib_spectrum(np.eye(4), 2)
        assert_allclose(spec.lam, [1.0, 1.0])
        assert np.all(np.isinf(spec.beta_crit))
        curve = gib_curve(spec, beta_grid=np.logspace(0, 3, 20))
        assert np.all(curve.i_tx == 0.0)
        assert np.all(curve.i_ty == 0.0)

    def test_deterministic_limit(self):
        eps = 1e-6
        spec = gib_spectrum([[1.0, 1.0], [1.0, 1.0 + eps]], 1)
        assert spec.lam[0] <= 2 * eps
        assert abs(spec.beta_crit[0] - 1.0) <= 3 * eps

    def test_singular_input_rejected(self):
        with pytest.raises(ConditioningError):
            gib_spectrum(np.diag([0.0, 0.0, 1.0, 1.0]), 2)

    def test_ascending_lambda_and_beta(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 6))
        joint = a @ a.T / 6
        spec = gib_spectrum(joint, 2)
        assert np.all(np.diff(spec.lam) >= 0)
        assert np.all(np.diff(spec.beta_crit) >= 0)


class TestProjection:
    def test_empty_below_first_critical(self, scalar_spec):
        assert gib_projection(scalar_spec, 0.5 * scalar_spec.beta_crit[0]).shape[0] == 0
        assert gib_projection(scalar_spec, scalar_spec.beta_crit[0]).shape[0] == 0

    def test_scalar_coefficient(self, scalar_spec):
        a = gib_projection(scalar_spec, SCALAR_BETA)
        assert_allclose(np.abs(a), [[SCALAR_A]], atol=1e-12)

    def test_continuous_activation(self, scalar_spec):
        bc = scalar_spec.beta_crit[0]
        a, active = projection_coefficients(scalar_spec, bc * (1 + 1e-12))
        assert active[0]
        assert a[0] <= 1e-5  # coefficient grows continuously from zero

    def test_deterministic_component_capped(self):
        cov = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]
        spec = gib_spectrum(cov, 1)
        a, active = projection_coefficients(spec, 10.0)
        assert active[0] and a[0] == np.sqrt(np.expm1(2.0 * _CAP_NATS) / spec.r[0])
        itx, _ = gib_point_info(a[:, None] * spec.vectors, cov, 1)
        assert itx <= 30.0 + 1e-9

    def test_beta_domain(self, scalar_spec):
        with pytest.raises(DomainError):
            gib_projection(scalar_spec, 0.0)


class TestPointInfo:
    def test_empty_projection(self, scalar_spec):
        assert gib_point_info(np.zeros((0, 1)), SCALAR_COV, 1) == (0.0, 0.0)

    def test_scalar_plugin_values(self, scalar_spec):
        a = gib_projection(scalar_spec, SCALAR_BETA)
        itx, ity = gib_point_info(a, SCALAR_COV, 1)
        assert abs(itx - SCALAR_ITX) <= 1e-12
        assert abs(ity - SCALAR_ITY) <= 1e-12

    def test_endpoint_identity(self, scalar_spec):
        a = gib_projection(scalar_spec, 1e4)
        _, ity = gib_point_info(a, SCALAR_COV, 1)
        assert abs(ity - gib_mi_nats(scalar_spec)) <= 1e-3


class TestCurve:
    def test_all_zero_below_activation(self, scalar_spec):
        grid = np.linspace(0.1, 0.9 * scalar_spec.beta_crit[0], 10)
        curve = gib_curve(scalar_spec, beta_grid=grid)
        assert np.all(curve.i_tx == 0.0) and np.all(curve.i_ty == 0.0)

    def test_mixture_bound_endpoint(self):
        spec = gib_spectrum([[1.0, 0.703], [0.703, 1.0]], 1)
        curve = gib_curve(spec, beta_grid=np.logspace(0, 5, 300)).in_units("bits")
        assert abs(curve.i_ty[-1] - 0.4917) <= 1e-3

    def test_slope_at_activation(self):
        c_xy = np.diag([np.sqrt(0.7), np.sqrt(0.3)])
        spec = gib_spectrum(np.block([[np.eye(2), c_xy], [c_xy, np.eye(2)]]), 2)
        assert_allclose(np.sort(spec.lam), [0.3, 0.7], atol=1e-12)
        for bc in spec.beta_crit:
            betas = np.array([bc * (1 + 1e-5), bc * (1 + 2e-5)])
            curve = gib_curve(spec, beta_grid=betas)
            slope = (curve.i_ty[1] - curve.i_ty[0]) / (curve.i_tx[1] - curve.i_tx[0])
            assert abs(slope - 1.0 / bc) <= 1e-3

    def test_dpi_and_activation_order(self, scalar_spec):
        curve = gib_curve(scalar_spec)
        assert np.all(curve.i_ty <= curve.i_tx + 1e-9)
        assert np.all(curve.i_ty <= gib_mi_nats(scalar_spec) + 1e-9)
        curve.validate()

    def test_units_roundtrip(self, scalar_spec):
        nats = gib_curve(scalar_spec)
        bits = nats.in_units("bits")
        assert_allclose(bits.i_ty * NATS_PER_BIT, nats.i_ty, atol=1e-15)

    def test_default_grid_spans_activations(self, scalar_spec):
        grid = default_beta_grid(scalar_spec)
        assert len(grid) == 200
        assert grid[0] < scalar_spec.beta_crit[0] < grid[-1]


class TestIBCurveValidation:
    def test_rejects_dpi_violation(self):
        curve = IBCurve(np.array([1.0, 2.0]), np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        with pytest.raises(DomainError):
            curve.validate()

    def test_rejects_concavity_violation(self):
        curve = IBCurve(
            np.array([1.0, 2.0, 3.0]),
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 0.1, 1.0]),
        )
        with pytest.raises(DomainError):
            curve.validate()

    def test_interpolation_query(self):
        curve = IBCurve(
            np.array([1.0, 2.0, 3.0]),
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 0.5, 0.75]),
        )
        assert_allclose(curve.ity_at([0.5, 1.5]), [0.25, 0.625])
