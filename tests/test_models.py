"""Synthetic model suite: samplers, exact MI values, scramble transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gaussbound import (
    ParameterError,
    expgamma_sample,
    gm1d_sample,
    gm1d_true_mi,
    gm_mv_sample,
    mirror_transform,
    mvg_scramble_sample,
)
from gaussbound.models import (
    MODEL_FAMILIES,
    ExpMirrorModel,
    Gm1dModel,
    _gm1d_mi_numeric,
    discretizable_from_spec,
    sample_from_spec,
)
from gaussbound.stats_core import NATS_PER_BIT, ks_normal_stat
from reference import gm1d_mi_closed_form


class TestGm1d:
    def test_raw_correlation(self):
        ms = gm1d_sample(100_000, 10.0, 0.1, seed=1)
        corr = np.corrcoef(ms.samples.x[:, 0], ms.samples.y[:, 0])[0, 1]
        assert abs(corr - 0.098) <= 0.01

    def test_eps_zero_limit_on_correlated_branch(self):
        ms = gm1d_sample(5000, 10.0, 1e-12, seed=2)
        keep = ~ms.meta["noise_branch"][:, 0]
        assert_allclose(ms.samples.y[keep, 0], ms.samples.x[keep, 0], atol=1e-9)

    def test_branch_fractions(self):
        n = 40_000
        ms = gm1d_sample(n, seed=3)
        frac = ms.meta["noise_branch"].mean()
        assert abs(frac - 0.5) <= 3 / np.sqrt(n)

    def test_true_mi_value(self):
        bits = gm1d_true_mi(10.0, 0.1) / NATS_PER_BIT
        assert abs(bits - 1.66) <= 0.02

    def test_numeric_approaches_closed_form(self):
        closed = gm1d_mi_closed_form(0.0, 0.1)  # mu_z-free expression
        gaps = [abs(_gm1d_mi_numeric(mu, 0.1) - closed) for mu in (6.0, 8.0, 10.0)]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= 1e-3


class TestMirror:
    def test_symmetric_interval(self):
        assert mirror_transform(0.5, -1.0, 1.0) == -0.5
        assert mirror_transform(3.0, -1.0, 1.0) == 3.0

    def test_exp_interval_center(self):
        assert mirror_transform(0.5, 0.0, 2.0) == 1.5
        assert mirror_transform(2.5, 0.0, 2.0) == 2.5

    @given(st.floats(-5, 5), st.sampled_from([(-1.0, 1.0), (0.0, 2.0)]))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, t, interval):
        lo, hi = interval
        assert mirror_transform(mirror_transform(t, lo, hi), lo, hi) == pytest.approx(t, abs=1e-12)

    def test_interval_validation(self):
        with pytest.raises(ParameterError):
            mirror_transform(0.0, 2.0, 1.0)


class TestMvgScramble:
    def test_true_mi_values(self):
        assert abs(mvg_scramble_sample(10, 1, seed=0).true_mi_bits - 0.5) <= 1e-12
        assert abs(mvg_scramble_sample(10, 5, seed=0).true_mi_bits - 2.5) <= 1e-12

    def test_scrambled_marginal_still_normal(self):
        n = 10_000
        ms = mvg_scramble_sample(n, 2, seed=4)
        for c in range(2):
            assert ks_normal_stat(ms.samples.x[:, c]) <= 1.36 * 1.5 / np.sqrt(n)

    def test_inverse_recovers_raw(self):
        ms = mvg_scramble_sample(500, 3, seed=5)
        assert np.array_equal(mirror_transform(ms.samples.x, -1.0, 1.0), ms.meta["x_raw"])
        assert np.array_equal(mirror_transform(ms.samples.y, -1.0, 1.0), ms.meta["y_raw"])

    def test_dimension_guard(self):
        with pytest.raises(ParameterError):
            mvg_scramble_sample(100, 11, seed=0)


class TestExpGamma:
    def test_true_mi_is_euler_gamma_per_dim(self):
        ms = expgamma_sample(10, 1, seed=6)
        assert abs(ms.true_mi_nats - np.euler_gamma) <= 1e-12
        assert abs(ms.true_mi_bits - 0.8327) <= 1e-3

    def test_rotation_orthogonal_and_det_invariant(self):
        ms = expgamma_sample(5000, 3, seed=7)
        rot = ms.meta["rotation_y"]
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-12
        y = ms.samples.y
        unrot = y @ rot  # undo the rotation
        assert abs(np.linalg.det(np.cov(y.T)) - np.linalg.det(np.cov(unrot.T))) <= 1e-6

    def test_inverse_recovers_raw(self):
        ms = expgamma_sample(300, 2, seed=8)
        unrot = ms.samples.x @ ms.meta["rotation_x"]
        assert_allclose(mirror_transform(unrot, 0.0, 2.0), ms.meta["x_raw"], atol=1e-12)


class TestGmMv:
    def test_d1_matches_gm1d_stream(self):
        a = gm1d_sample(1000, 10.0, 0.1, seed=9)
        b = gm_mv_sample(1000, 1, 10.0, 0.1, seed=9)
        assert np.array_equal(a.samples.x, b.samples.x)
        assert np.array_equal(a.samples.y, b.samples.y)

    def test_additivity_of_mi(self):
        ms = gm_mv_sample(10, 2, 10.0, 0.1, seed=10)
        single = gm1d_true_mi(10.0, 0.1)
        assert abs(ms.true_mi_nats - 2 * single) <= 1e-12
        assert abs(ms.true_mi_bits - 3.329) <= 0.04

    def test_branches_independent_across_coordinates(self):
        n = 20_000
        ms = gm_mv_sample(n, 2, seed=11)
        b = ms.meta["noise_branch"].astype(float)
        corr = np.corrcoef(b[:, 0], b[:, 1])[0, 1]
        assert abs(corr) <= 3 / np.sqrt(n)


class TestReproducibility:
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda seed: gm1d_sample(300, seed=seed),
            lambda seed: mvg_scramble_sample(300, 2, seed=seed),
            lambda seed: expgamma_sample(300, 2, seed=seed),
            lambda seed: gm_mv_sample(300, 3, seed=seed),
        ],
    )
    def test_bit_for_bit(self, sampler):
        a, b = sampler(123), sampler(123)
        assert np.array_equal(a.samples.x, b.samples.x)
        assert np.array_equal(a.samples.y, b.samples.y)


class TestSampleFromSpec:
    def test_valid_families_only(self):
        with pytest.raises(ParameterError):
            sample_from_spec("mystery", 100, 1, 10.0, 0.1, 0)
        with pytest.raises(ParameterError):
            discretizable_from_spec("mystery", 1, 10.0, 0.1)
        for family in MODEL_FAMILIES:
            with pytest.raises(ParameterError):
                sample_from_spec(family, 100, 0, 10.0, 0.1, 0)
            with pytest.raises(ParameterError):
                sample_from_spec(family, 0, 1, 10.0, 0.1, 0)

    def test_table_dispatch(self):
        pairs = [
            (sample_from_spec("gm1d", 50, 1, 5.0, 0.3, 3), gm1d_sample(50, 5.0, 0.3, seed=3)),
            (sample_from_spec("gm_mv", 50, 2, 5.0, 0.3, 3), gm_mv_sample(50, 2, 5.0, 0.3, seed=3)),
            (sample_from_spec("exp_gamma", 50, 2, 5.0, 0.3, 3), expgamma_sample(50, 2, seed=3)),
            (sample_from_spec("mv_gaussian_scramble", 50, 2, 5.0, 0.3, 3), mvg_scramble_sample(50, 2, seed=3)),
        ]
        for got, want in pairs:
            assert np.array_equal(got.samples.x, want.samples.x)
            assert np.array_equal(got.samples.y, want.samples.y)
        joint = discretizable_from_spec("gm_mv", 1, 5.0, 0.3)
        assert isinstance(joint, Gm1dModel) and (joint.mu_z, joint.eps) == (5.0, 0.3)
        assert isinstance(discretizable_from_spec("exp_gamma", 1, 5.0, 0.3), ExpMirrorModel)
        assert discretizable_from_spec("mv_gaussian_scramble", 1, 5.0, 0.3) is None
        assert discretizable_from_spec("gm_mv", 2, 5.0, 0.3) is None

    def test_gm1d_is_one_dimensional(self):
        with pytest.raises(ParameterError, match="gm_mv"):
            sample_from_spec("gm1d", 100, 2, 10.0, 0.1, 0)

    @pytest.mark.parametrize(
        "mu_z, eps", [(10.0, 0.0), (10.0, -0.1), (10.0, math.nan), (10.0, math.inf), (math.nan, 0.1), (-math.inf, 0.1)]
    )
    def test_gm_parameters_rejected_before_drawing(self, mu_z, eps):
        # ParameterError, not the DomainError the MI computation after the draw raises
        for d in (1, 2):
            with pytest.raises(ParameterError):
                gm_mv_sample(100, d, mu_z, eps, seed=0)


class TestLemmaFlagPipeline:
    def test_mixture_flags_lossy_embedding(self, gm_mix_ace):
        from gaussbound import ace_upper_bound

        true_mi = gm1d_true_mi(10.0, 0.1)
        assert true_mi > ace_upper_bound(gm_mix_ace)  # large, robust gap

    def test_scrambled_gaussian_recovers_mi(self):
        from gaussbound import ace_fit, ace_upper_bound

        ms = mvg_scramble_sample(10_000, 1, seed=21)
        model = ace_fit(ms.samples, knn_k=200, seed=22)
        # the bound reaches the analytic MI up to sampling/smooothing slack,
        # so there is no evidence against a lossless Gaussian embedding
        assert ace_upper_bound(model) >= 0.9 * ms.true_mi_nats


class TestDiscretizableModels:
    def test_exp_mirror_quantiles_invert_cdf(self):
        model = ExpMirrorModel()
        qs = np.array([0.05, 0.3, 0.6, 0.9])
        ms = expgamma_sample(200_000, 1, seed=14)
        for quantile, sample in ((model.x_quantile, ms.samples.x), (model.y_quantile, ms.samples.y)):
            emp = np.asarray([np.mean(sample[:, 0] <= v) for v in quantile(qs)])
            assert np.max(np.abs(emp - qs)) <= 0.01
