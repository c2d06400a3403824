"""Conditional-expectation smoothers: exactness, ties, and shared properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gaussbound import (
    KernelSmoother,
    KnnSmoother,
    PairedSamples,
    ParameterError,
    ace_fit,
    kernel_smooth,
    knn_smooth,
)
from gaussbound.smoother import SmootherConfig, default_knn_k, knn_indices


def brute_force_neighbors(x, k, queries=None):
    """Reference: per-query scan sorting by (distance, index).

    Without ``queries`` every sample is a query and comes first among its
    own neighbors.
    """
    x = np.asarray(x, float).reshape(len(x), -1)
    own = queries is None
    q = x if own else np.asarray(queries, float).reshape(-1, x.shape[1])
    out = []
    for i, point in enumerate(q):
        d = np.sum((x - point) ** 2, axis=1)
        if own:
            d[i] = -1.0
        out.append(sorted(range(len(x)), key=lambda j: (d[j], j))[:k])
    return out


def brute_force_knn_fit(x, z, k):
    """Reference fit: mean of z over each point's brute-force neighbors."""
    return np.array([np.mean([z[j] for j in nb]) for nb in brute_force_neighbors(x, k)])


_RNG = np.random.default_rng(12)
# Values on a 2^-20 grid make every distance computed below exact, so a query midway
# between two samples is a true tie, not a rounding coin flip.
ONE_D_BLOCKS = {
    "continuous": np.round(_RNG.standard_normal(150) * 2.0**20) / 2.0**20,
    "integer-ties": _RNG.integers(0, 5, 120).astype(float),
    "all-equal": np.full(30, 2.5),
    "n2": np.array([0.75, -0.25]),
    "n2-equal": np.array([1.0, 1.0]),
}


def _one_d_cases():
    for name, x in ONE_D_BLOCKS.items():
        n = x.size
        for k in sorted({1, 2, 4, 11, 60, n - 1, n}):
            if 1 <= k <= n:
                yield pytest.param(x, k, id=f"{name}-k{k}")


@pytest.mark.parametrize("x, k", list(_one_d_cases()))
class TestKnn1dWindows:
    """The sorted-window path against the brute-force (distance, index) rule."""

    def test_table_matches_brute_force(self, x, k):
        table = knn_indices(x, k)
        assert table.shape == (x.size, k)
        assert [sorted(row) for row in table.tolist()] == [
            sorted(nb) for nb in brute_force_neighbors(x, k)
        ]

    def test_predict_matches_brute_force(self, x, k):
        z = np.random.default_rng(k).standard_normal(x.size)
        span = np.ptp(x) + 1.0
        # training values, midpoints, and points beyond both ends
        queries = np.concatenate(
            [x, (x[:-1] + x[1:]) / 2.0, [x.min() - span, x.max() + span, x.min() - 1e-9]]
        )
        expected = [np.mean(z[nb]) for nb in brute_force_neighbors(x, k, queries)]
        assert_allclose(KnnSmoother(x, k).predict(queries, z), expected, rtol=0, atol=1e-12)

    def test_smooth_is_table_mean_bit_for_bit(self, x, k):
        # window sums must add the same values in the same order as the table
        z = np.random.default_rng(k).standard_normal(x.size) * 1e3
        sm = KnnSmoother(x, k)
        assert np.array_equal(sm.smooth(z), z[sm.neighbors].mean(axis=1))


class TestKnn:
    def test_full_window_is_mean(self):
        z = np.array([1.0, 5.0, 9.0, -2.0])
        assert_allclose(knn_smooth(np.arange(4.0), z, 4), np.full(4, z.mean()))

    def test_k1_returns_z(self):
        rng = np.random.default_rng(0)
        x, z = rng.standard_normal(50), rng.standard_normal(50)
        assert np.array_equal(knn_smooth(x, z, 1), z)

    def test_matches_brute_force_1d(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        fitted = knn_smooth(x, x, 3)
        assert_allclose(fitted, brute_force_knn_fit(x, x, 3), atol=1e-14)

    def test_matches_brute_force_multid_with_ties(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, size=(40, 2)).astype(float)  # many exact ties
        z = rng.standard_normal(40)
        for k in (1, 4, 11):
            assert_allclose(knn_smooth(x, z, k), brute_force_knn_fit(x, z, k), atol=1e-14)

    def test_duplicate_points_keep_self_at_k1(self):
        x = np.array([1.0, 1.0, 1.0])
        z = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(knn_smooth(x, z, 1), z)

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            knn_smooth(np.arange(5.0), np.arange(5.0), 6)

    def test_predict_at_new_points(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        z = np.array([0.0, 1.0, 2.0, 3.0])
        sm = KnnSmoother(x, 2)
        assert_allclose(sm.predict(np.array([0.1]), z), [0.5])


class TestTranslation:
    def test_1d_smooth_under_offset(self):
        rng = np.random.default_rng(13)
        x, z = rng.standard_normal(3000), rng.standard_normal(3000)
        assert_allclose(knn_smooth(x + 1e6, z, 200), knn_smooth(x, z, 200), rtol=0, atol=1e-12)

    def test_2d_smooth_under_offset(self):
        rng = np.random.default_rng(14)
        x, z = rng.standard_normal((1500, 2)), rng.standard_normal(1500)
        assert_allclose(knn_smooth(x + 1e6, z, 60), knn_smooth(x, z, 60), rtol=0, atol=1e-9)

    def test_ace_rho_under_offset(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(2000)
        y = np.sin(2.0 * x) + 0.5 * rng.standard_normal(2000)
        rho = ace_fit(PairedSamples(x, y), k=1, seed=1).rho[0]
        shifted = ace_fit(PairedSamples(x + 1e8, y), k=1, seed=1).rho[0]
        assert abs(shifted - rho) <= 1e-9


class TestKernel:
    def test_huge_bandwidth_gives_mean(self):
        rng = np.random.default_rng(3)
        x, z = rng.standard_normal(100), rng.standard_normal(100)
        assert_allclose(kernel_smooth(x, z, 1e6), np.full(100, z.mean()), atol=1e-6)

    def test_two_point_hand_value(self):
        fitted = kernel_smooth(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0)
        w = np.exp(-0.5)
        assert_allclose(fitted, [w / (1 + w), 1 / (1 + w)], atol=1e-12)
        assert abs(fitted[0] - 0.37754066879814546) <= 1e-12

    def test_constant_response(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(60)
        assert_allclose(kernel_smooth(x, np.full(60, 2.5), 0.3), np.full(60, 2.5))

    def test_underflow_fallback_on_predict(self):
        sm = KernelSmoother(np.linspace(0, 1, 30), 1e-3)
        out = sm.predict(np.array([500.0]), np.linspace(0, 1, 30))
        assert np.isfinite(out).all()
        assert sm.fallback_count == 1

    def test_bandwidth_validation(self):
        with pytest.raises(ParameterError):
            kernel_smooth(np.arange(4.0), np.arange(4.0), 0.0)


@pytest.mark.parametrize("make", [lambda x: KnnSmoother(x, 5), lambda x: KernelSmoother(x, 0.7)])
class TestSharedProperties:
    def test_linearity_in_z(self, make):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((80, 2))
        z1, z2 = rng.standard_normal(80), rng.standard_normal(80)
        sm = make(x)
        lhs = sm.smooth(2.0 * z1 - 3.0 * z2)
        rhs = 2.0 * sm.smooth(z1) - 3.0 * sm.smooth(z2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_range_containment(self, make):
        rng = np.random.default_rng(6)
        x, z = rng.standard_normal((120, 2)), rng.standard_normal(120)
        fitted = make(x).smooth(z)
        assert fitted.min() >= z.min() - 1e-12
        assert fitted.max() <= z.max() + 1e-12

    def test_permutation_equivariance(self, make):
        rng = np.random.default_rng(7)
        x, z = rng.standard_normal((70, 2)), rng.standard_normal(70)
        perm = rng.permutation(70)
        base = make(x).smooth(z)
        permuted = make(x[perm]).smooth(z[perm])
        assert_allclose(permuted, base[perm], atol=1e-12)


@given(st.integers(3, 4000))
@settings(max_examples=20, deadline=None)
def test_default_k_window(n):
    k = default_knn_k(n)
    assert 3 <= k <= n


def test_config_build_dispatch():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(30)
    assert isinstance(SmootherConfig().build(x), KnnSmoother)
    assert isinstance(SmootherConfig(kind="kernel", bandwidth=1.0).build(x), KernelSmoother)
    with pytest.raises(ParameterError):
        SmootherConfig(kind="kernel").build(x)
    with pytest.raises(ParameterError):
        SmootherConfig(kind="nope").build(x)
