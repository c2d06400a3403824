"""Alternating Gaussianized conditional expectations and its bounds."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussbound import (
    PairedSamples,
    SmootherConfig,
    UnsupportedModelError,
    agce_fit_1d,
    agce_fit_mv_oracle,
    agce_step,
    gm1d_sample,
    marginal_gaussianize,
    naive_lower_1d,
    offshelf_lower_1d,
)
from gaussbound.agce import distance_correlation, pair_bound_nats
from gaussbound.cca_ace import ace_fit, ace_upper_bound
from gaussbound.models import OracleGaussian, OracleProduct
from gaussbound.stats_core import NATS_PER_BIT, rank_quantile_grid


def is_rank_exact(u):
    return np.array_equal(np.sort(u), rank_quantile_grid(len(u)))


class TestAgceStep:
    def test_identity_pair_is_fixed_point(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        psi = marginal_gaussianize(x, seed=1)[0]
        step = agce_step(psi, SmootherConfig(k=1).build(x), seed=2)
        assert np.array_equal(step.u, psi)
        assert abs(step.rho - 1.0) <= 1e-9

    def test_gaussian_step_keeps_correlation(self, gaussian_pair_06):
        x = gaussian_pair_06.x[:, 0]
        y = gaussian_pair_06.y[:, 0]
        psi = marginal_gaussianize(y, seed=3)[0]
        step = agce_step(psi, SmootherConfig().build(x[:, None]), seed=4)
        assert abs(step.rho - 0.6) <= 0.03
        assert is_rank_exact(step.u)

    def test_never_decreases_with_prev(self, gaussian_pair_06):
        x = gaussian_pair_06.x
        y = gaussian_pair_06.y[:, 0]
        psi = marginal_gaussianize(y, seed=5)[0]
        good_u = marginal_gaussianize(gaussian_pair_06.x[:, 0], seed=6)[0]
        step = agce_step(psi, SmootherConfig(k=3).build(x), seed=7, prev_u=good_u)
        rho_prev = float(np.corrcoef(good_u, psi)[0, 1])
        assert step.rho >= rho_prev - 1e-12

    def test_degenerate_conditional_expectation_flag(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        psi = marginal_gaussianize(rng.standard_normal(300), seed=9)[0]
        step = agce_step(psi, SmootherConfig(k=300).build(x), seed=10)  # full window
        assert step.independent
        assert step.rho == 0.0

    def test_converged_fixed_point_residual(self, gm_mix_samples, gm_mix_agce):
        step = agce_step(
            gm_mix_agce.v, SmootherConfig().build(gm_mix_samples.x), seed=11, prev_u=gm_mix_agce.u
        )
        assert abs(step.rho - gm_mix_agce.rho) < 2e-4  # < 2 * tol


class TestAgceFit1d:
    def test_mixture_model(self, gm_mix_ace, gm_mix_agce):
        assert gm_mix_agce.rho >= 0.60
        assert pair_bound_nats(gm_mix_agce) / NATS_PER_BIT >= 0.36
        assert gm_mix_agce.rho <= gm_mix_ace.rho[0] + 0.02

    def test_gaussian_model_self_optimum(self, gaussian_pair_06):
        pair = agce_fit_1d(gaussian_pair_06, n_restarts=3, seed=12)
        assert abs(pair.rho - 0.6) <= 0.03
        bits = pair_bound_nats(pair) / NATS_PER_BIT
        assert abs(bits - (-0.5 * np.log2(1 - 0.36))) <= 0.05

    def test_independent_pair(self, independent_pair):
        pair = agce_fit_1d(independent_pair, n_restarts=2, seed=13)
        assert pair.rho <= 0.1
        assert pair_bound_nats(pair) / NATS_PER_BIT <= 0.01

    def test_trace_monotone(self, gm_mix_agce):
        assert np.all(np.diff(gm_mix_agce.trace) >= -1e-4)

    def test_outputs_rank_exact(self, gm_mix_agce):
        assert is_rank_exact(gm_mix_agce.u)
        assert is_rank_exact(gm_mix_agce.v)

    def test_transforms_evaluable_on_new_points(self, gm_mix_samples, gm_mix_agce):
        xs = np.linspace(-2, 2, 7)
        vals = gm_mix_agce.phi(xs[:, None])
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("n_restarts", [1, 3, 8])
    def test_kept_ace_start_has_transforms(self, n_restarts):
        # restart 0 wins and every step keeps its Gaussianized ACE start, so
        # no step fits a map; the off-shelf transforms stand in for it
        samples = gm1d_sample(1200, 10, 0.1, seed=11).samples
        pair = agce_fit_1d(samples, n_restarts=n_restarts, seed=12)
        assert not pair.independent and pair.rho > 0.6
        assert np.corrcoef(pair.phi(samples.x), pair.u)[0, 1] >= 0.99
        assert np.corrcoef(pair.psi(samples.y), pair.v)[0, 1] >= 0.99
        held_out = gm1d_sample(2000, 10, 0.1, seed=13).samples
        rho_held_out = np.corrcoef(pair.phi(held_out.x), pair.psi(held_out.y))[0, 1]
        assert rho_held_out >= pair.rho - 0.1

    def test_requires_univariate(self):
        rng = np.random.default_rng(14)
        with pytest.raises(Exception):
            agce_fit_1d(
                PairedSamples(rng.standard_normal((200, 2)), rng.standard_normal(200))
            )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_restart_zero_starts_from_offshelf_pair(self, seed):
        samples = gm1d_sample(600, 10, 0.1, seed=seed).samples
        pair = agce_fit_1d(samples, n_restarts=1, seed=seed)
        assert pair.trace[0] == offshelf_lower_1d(samples, seed=seed).rho

    def test_pairs_carry_their_ace_fit(self):
        samples = gm1d_sample(600, 10, 0.1, seed=4).samples
        rho = ace_fit(samples, k=1).rho
        for pair in (agce_fit_1d(samples, n_restarts=2, seed=5), offshelf_lower_1d(samples, seed=5)):
            assert np.array_equal(pair.ace.rho, rho)


class TestOffshelfAndNaive:
    def test_mixture_values(self, gm_mix_offshelf):
        assert abs(gm_mix_offshelf.rho - 0.646) <= 0.03
        bits = pair_bound_nats(gm_mix_offshelf) / NATS_PER_BIT
        assert abs(bits - 0.389) <= 0.05

    def test_sandwich(self, gm_mix_offshelf, gm_mix_agce, gm_mix_ace):
        assert gm_mix_offshelf.rho <= gm_mix_agce.rho + 1e-9
        assert gm_mix_agce.rho <= gm_mix_ace.rho[0] + 0.02

    def test_monotone_affine_gaussian_noop(self, gaussian_pair_06):
        ace = ace_fit(gaussian_pair_06, k=1, seed=15)
        off = offshelf_lower_1d(gaussian_pair_06, seed=15)
        assert abs(off.rho - ace.rho[0]) <= 0.02

    def test_naive_mixture_benchmark(self, gm_mix_samples):
        pair = naive_lower_1d(gm_mix_samples, seed=16)
        assert abs(pair.rho - 0.288) <= 0.03
        assert abs(pair_bound_nats(pair) / NATS_PER_BIT - 0.0628) <= 0.02

    def test_naive_beaten_by_offshelf(self, gm_mix_samples, gm_mix_offshelf):
        naive = naive_lower_1d(gm_mix_samples, seed=17)
        assert gm_mix_offshelf.rho > naive.rho + 0.2


class TestOracleMultivariate:
    def test_gaussian_oracle_recovers_canonical_pairs(self):
        model = OracleGaussian.from_canonical([0.8, 0.5], seed=3)
        pairs = agce_fit_mv_oracle(model, k=2, n=10_000, seed=9)
        assert abs(pairs[0].rho - 0.8) <= 0.03
        assert abs(pairs[1].rho - 0.5) <= 0.03

    def test_pair_independence(self):
        model = OracleGaussian.from_canonical([0.8, 0.5], seed=3)
        pairs = agce_fit_mv_oracle(model, k=2, n=10_000, seed=9)
        corr = abs(np.corrcoef(pairs[0].u, pairs[1].u)[0, 1])
        assert corr <= 0.02
        assert distance_correlation(pairs[0].u, pairs[1].u) <= 0.05

    def test_product_model(self):
        pairs = agce_fit_mv_oracle(OracleProduct(2, 2), k=2, n=10_000, seed=10)
        assert all(p.rho <= 0.05 for p in pairs)
        assert all(p.independent for p in pairs)

    def test_outputs_rank_exact(self):
        model = OracleGaussian.from_canonical([0.7, 0.3], seed=4)
        pairs = agce_fit_mv_oracle(model, k=2, n=2000, seed=11)
        assert is_rank_exact(pairs[0].u)
        assert is_rank_exact(pairs[1].v)

    def test_traces_monotone(self):
        model = OracleGaussian.from_canonical([0.7, 0.3], seed=4)
        pairs = agce_fit_mv_oracle(model, k=2, n=2000, seed=11)
        for p in pairs:
            assert np.all(np.diff(p.trace) >= -1e-10)

    def test_unsupported_model(self):
        class Opaque:
            pass

        with pytest.raises(UnsupportedModelError):
            agce_fit_mv_oracle(Opaque())


def test_distance_correlation_detects_dependence():
    rng = np.random.default_rng(20)
    x = rng.standard_normal(1500)
    assert distance_correlation(x, x * x) > 0.3
    assert distance_correlation(x, rng.standard_normal(1500)) < 0.1
