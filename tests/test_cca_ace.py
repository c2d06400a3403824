"""ACE fits and the correlation upper bound."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussbound import (
    InsufficientDataError,
    PairedSamples,
    ace_fit,
    ace_upper_bound,
    covariance,
    gaussian_mi_bound,
    gm1d_true_mi,
    mvg_scramble_sample,
)
from gaussbound.cca_ace import CanonicalModel
from gaussbound.stats_core import NATS_PER_BIT


class TestAceFit:
    def test_gaussian_pair_recovers_linear_structure(self, gaussian_pair_06):
        # moderate window: the default oversmooths the tails of a 1-D fit
        model = ace_fit(gaussian_pair_06, knn_k=400, seed=1)
        assert abs(model.rho[0] - 0.6) <= 0.03
        # the optimal transforms are affine for jointly Gaussian data
        u = model.u[:, 0]
        x = gaussian_pair_06.x[:, 0]
        corr_ux = abs(np.corrcoef(u, x)[0, 1])
        assert corr_ux >= 0.99

    def test_mixture_model_upper_bound(self, gm_mix_ace):
        assert abs(gm_mix_ace.rho[0] - 0.703) <= 0.03
        bits = ace_upper_bound(gm_mix_ace) / NATS_PER_BIT
        assert abs(bits - 0.4917) <= 0.05

    def test_no_lossless_embedding_flag(self, gm_mix_ace):
        true_bits = gm1d_true_mi(10.0, 0.1) / NATS_PER_BIT
        upper_bits = ace_upper_bound(gm_mix_ace) / NATS_PER_BIT
        assert true_bits > upper_bits  # 1.66 > ~0.49: no lossless Gaussian embedding

    def test_independent_pair(self, independent_pair):
        model = ace_fit(independent_pair, seed=2)
        assert model.rho[0] <= 0.1

    def test_model_invariants(self, gm_mix_ace):
        for block in (gm_mix_ace.u, gm_mix_ace.v):
            n, k = block.shape
            assert np.all(np.abs(block.mean(axis=0)) <= 1e-8)
            assert_allclose(block.var(axis=0), 1.0, atol=1e-6)
            gram = block.T @ block / n
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) <= 1e-6
        assert np.all(np.diff(gm_mix_ace.rho) <= 1e-12)
        assert np.all(gm_mix_ace.rho >= -1e-8)
        assert np.all(gm_mix_ace.rho <= 1.0)

    def test_objective_trace_nondecreasing(self, gm_mix_ace):
        trace = gm_mix_ace.phi_history[0]
        assert np.all(np.diff(trace) >= -1e-5)

    def test_scale_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(600)
        y = 0.7 * x + rng.standard_normal(600)
        base = ace_fit(PairedSamples(x, y), seed=3)
        moved = ace_fit(PairedSamples(3.0 * x - 2.0, -0.5 * y + 4.0), seed=3)
        assert abs(base.rho[0] - moved.rho[0]) <= 1e-6

    def test_bound_matches_covariance_formula(self, gm_mix_ace):
        cov = covariance(np.hstack([gm_mix_ace.u, gm_mix_ace.v]))
        bound = gaussian_mi_bound(cov, gm_mix_ace.u.shape[1])
        assert abs(ace_upper_bound(gm_mix_ace) - bound) <= 1e-6

    def test_multivariate_pairs_sorted(self):
        ms = mvg_scramble_sample(2000, 2, seed=5)
        model = ace_fit(ms.samples, seed=4)
        assert model.rho.size == 2
        assert model.rho[0] >= model.rho[1] >= 0

    def test_small_sample_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientDataError):
            ace_fit(PairedSamples(rng.standard_normal(10), rng.standard_normal(10)))

    def test_non_convergence_returns_best_iterate(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(500)
        y = np.sin(3 * x) + 0.3 * rng.standard_normal(500)
        model = ace_fit(PairedSamples(x, y), max_iter=1, seed=1)
        assert not model.converged[0]
        assert 0.0 <= model.rho[0] <= 1.0


class TestAceUpperBound:
    def test_known_value(self):
        model = CanonicalModel(
            u=np.zeros((2, 1)),
            v=np.zeros((2, 1)),
            rho=np.array([0.703]),
            phi_history=[np.array([0.703])],
            converged=np.array([True]),
        )
        assert abs(ace_upper_bound(model) / NATS_PER_BIT - 0.4917) <= 1e-4

    def test_zero_correlations(self):
        model = CanonicalModel(
            u=np.zeros((2, 3)),
            v=np.zeros((2, 3)),
            rho=np.zeros(3),
            phi_history=[],
            converged=np.ones(3, bool),
        )
        assert ace_upper_bound(model) == 0.0

    def test_additive_gaussian_channel(self):
        # Y = X + W with identity covariances: rho_i = 1/sqrt(2) per dim
        for d in (1, 3):
            model = CanonicalModel(
                u=np.zeros((2, d)),
                v=np.zeros((2, d)),
                rho=np.full(d, 1.0 / np.sqrt(2.0)),
                phi_history=[],
                converged=np.ones(d, bool),
            )
            assert abs(ace_upper_bound(model) / NATS_PER_BIT - d * 0.5) <= 1e-12

    def test_saturation_clamps(self):
        model = CanonicalModel(
            u=np.zeros((2, 1)),
            v=np.zeros((2, 1)),
            rho=np.array([1.0]),
            phi_history=[],
            converged=np.ones(1, bool),
        )
        assert np.isfinite(ace_upper_bound(model))
