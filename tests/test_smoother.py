"""Conditional-expectation smoothers: exactness, ties, and shared properties."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from gaussbound import (
    KnnSmoother,
    PairedSamples,
    ParameterError,
    ace_fit,
)
from gaussbound import smoother
from gaussbound.agce import FittedTransform
from gaussbound.smoother import _reselect, _window_sums, default_knn_k, experiment_knn_k, knn_indices


def brute_force_neighbors(x, k, queries=None):
    """Reference: per-query scan sorting by (distance, index).

    Without ``queries`` every sample is a query.
    """
    x = np.asarray(x, float).reshape(len(x), -1)
    q = x if queries is None else np.asarray(queries, float).reshape(-1, x.shape[1])
    out = []
    for point in q:
        d = np.sum((x - point) ** 2, axis=1)
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
        assert np.array_equal(sm.smooth(z), z[knn_indices(x, k)].mean(axis=1))


@st.composite
def tied_blocks(draw):
    """A 1-D block with repeated values, a k, and queries on and between them."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["few-values", "halves", "signed-zeros", "big-offset", "constant"]))
    if kind == "few-values":
        x = rng.integers(0, draw(st.integers(1, 20)), n).astype(float)
    elif kind == "halves":
        x = np.round(rng.standard_normal(n) * 3.0) / 2.0
    elif kind == "signed-zeros":
        x = rng.integers(0, 3, n) + np.where(rng.random(n) < 0.5, 0.0, -0.0)
    elif kind == "big-offset":
        # distinct values whose distances round to the same double
        x = 1e16 + 2.0 * rng.integers(0, 8, n)
    else:
        x = np.full(n, 1.25)
    k = draw(st.one_of(st.sampled_from([1, 2, 3, n // 2, n]), st.integers(1, n)).filter(lambda k: 1 <= k <= n))
    q = np.concatenate([x, rng.choice(x, 20) + rng.choice([0.0, 0.5, -0.5, 1.0], 20), (x[:-1] + x[1:]) / 2.0])
    return x, k, q


class TestTiedRows:
    """A tied 1-D row comes from the sorted sample, not a full distance row."""

    @given(tied_blocks())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_full_row_selection(self, case):
        # order included: a smooth sums each row in its order
        x, k, q = case
        sample = smoother._SortedSample(x, k)
        for self_query, queries in ((True, x), (False, q)):
            qc = queries - sample.centre
            _, tied, rows, group = sample.windows(queries, self_query)
            expected = _reselect(tied, lambda r: np.abs((x - sample.centre)[None, :] - qc[r, None]), x.size, k)
            assert rows[group].tobytes() == expected.tobytes()

    def test_integer_block_reads_no_full_row(self, monkeypatch):
        # every row of an integer block is tied; each value's row is
        # O(k + run length)
        x = np.random.default_rng(1).integers(0, 50, 10_000).astype(float)
        full_rows = [0]

        def counting(rows, *args):
            full_rows[0] += rows.size
            return _reselect(rows, *args)

        monkeypatch.setattr(smoother, "_reselect", counting)
        sm = KnnSmoother(x, default_knn_k(x.size))
        assert sm.neighbors.shape == (50, sm.k)
        assert full_rows[0] == 0

    def test_tied_wide_block_reads_one_full_row_per_point(self, monkeypatch):
        # 50 points, 8 copies each: every copy's k-th neighbour is tied, and
        # a distinct point's full distance row serves all its copies
        x = np.repeat(np.random.default_rng(2).standard_normal((50, 2)), 8, axis=0)
        full_rows = [0]

        def counting(rows, *args):
            full_rows[0] += rows.size
            return _reselect(rows, *args)

        monkeypatch.setattr(smoother, "_reselect", counting)
        table = knn_indices(x, 20)
        assert 0 < full_rows[0] <= 50
        assert [sorted(row) for row in table.tolist()] == [sorted(nb) for nb in brute_force_neighbors(x, 20)]


def reference_window_sums(z, k):
    """numpy's own row sums of every length-k window of z."""
    return sliding_window_view(z, k).sum(axis=1)


# the widths where numpy's pairwise sum changes shape: in-order below 8,
# eight accumulators up to 128, split in two above
_EDGE_WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 255, 256, 257]


@st.composite
def window_cases(draw):
    n = draw(st.integers(1, 3000))
    k = draw(st.one_of(st.sampled_from(_EDGE_WIDTHS), st.integers(1, 3000)))
    k = min(k, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "zero-sum", "signed-zeros"]))
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4), k
    if kind == "signed-zeros":
        # a window of -0.0 alone sums to -0.0 in the tree, +0.0 from the reduce
        positive = draw(st.sampled_from([0.0, 0.01, 0.1]))
        return np.where(rng.random(n) < positive, 0.0, -0.0), k
    # integers, period k, each period summing to exactly 0, with signed
    # zeros: every window sums to exactly 0
    period = rng.integers(-3, 4, k).astype(float)
    period[-1] -= period.sum()
    zeros = period == 0.0
    period[zeros] *= rng.choice([-1.0, 1.0], zeros.sum())
    return np.resize(period, n), k


class TestWindowSums:
    """The shared pairwise tree against numpy's own window sums, bit for bit."""

    @given(window_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_row_sums(self, case):
        z, k = case
        expected = reference_window_sums(z, k)
        assert np.array_equal(_window_sums(z, k).view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("k", [793, 8191, 8192, 8193, 10_000])
    def test_large_widths(self, k):
        z = np.random.default_rng(k).standard_normal(10_000)
        expected = reference_window_sums(z, k)
        assert np.array_equal(_window_sums(z, k).view(np.int64), expected.view(np.int64))

    def test_smooth_leaves_no_garbage_for_the_collector(self):
        rng = np.random.default_rng(17)
        x, z = rng.standard_normal(10_000), rng.standard_normal(10_000)
        sm = KnnSmoother(x, default_knn_k(x.size))
        sm.smooth(z)
        assert growth_with_collector_off(lambda: sm.smooth(z)) < 2e6


def growth_with_collector_off(call, times=50):
    """Traced memory growth over ``times`` calls with the collector off.

    Memory held by a reference cycle per call (say, a self-referencing
    closure) would pile up.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(times):
            call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()


def fresh_sort_predict(x, q, z, k):
    """Reference: the 1-D ``predict`` that sorts the training sample and sums
    its windows on every call, kept as it stood before the smoother kept its
    sort."""
    n = x.size
    order = np.argsort(x, kind="stable")
    centre = x[order[(n - 1) // 2]]
    xc = x - centre
    xs = xc[order]
    qc = q - centre
    lo = np.searchsorted(xs[: n - k] + xs[k:], 2.0 * qc)
    radius = np.maximum(qc - xs[lo], xs[lo + k - 1] - qc)
    ends = np.concatenate([[-np.inf], xs, [np.inf]])
    gap = np.minimum(qc - ends[lo], ends[lo + k + 1] - qc)
    tied = np.flatnonzero(gap <= radius)
    rows = _reselect(tied, lambda r: np.abs(xc[None, :] - qc[r, None]), n, k)
    sums = _window_sums(z[order], k)[lo]
    sums[tied] = z[rows].sum(axis=1)
    return sums / k


_CACHE_RNG = np.random.default_rng(19)
CACHED_PREDICT_BLOCKS = {
    "ties": _CACHE_RNG.integers(0, 6, 90).astype(float) * 0.5,
    "duplicates": np.repeat(np.round(_CACHE_RNG.standard_normal(40) * 2.0**20) / 2.0**20, 3),
    "integer-grid": np.arange(-30.0, 31.0),
    "continuous": _CACHE_RNG.standard_normal(120),
}


def _cached_predict_cases():
    for name, x in CACHED_PREDICT_BLOCKS.items():
        n = x.size
        for k in (1, 2, 17, n - 1, n):
            yield pytest.param(x, k, id=f"{name}-k{k}")


@pytest.mark.parametrize("x, k", list(_cached_predict_cases()))
def test_cached_predict_equals_fresh_sort_bit_for_bit(x, k):
    rng = np.random.default_rng(k)
    z = rng.standard_normal(x.size) * 1e3
    lo, hi = x.min(), x.max()
    span = hi - lo + 1.0
    queries = np.concatenate([
        rng.uniform(lo, hi, 40),                            # inside the range
        [lo - span, hi + span, lo - 1e-9, hi + 0.5],        # outside it
        x,                                                  # on sample points
        (x[:-1] + x[1:]) / 2.0,                             # midpoints, tied on a grid
        np.repeat(x[:4], 3), np.repeat(rng.uniform(lo, hi, 2), 5),  # repeated
    ])
    sm = KnnSmoother(x, k)
    expected = fresh_sort_predict(x, queries, z, k).view(np.int64)
    for _ in range(2):
        assert np.array_equal(sm.predict(queries, z).view(np.int64), expected)
    # what a fitted transform calls: the window means, gathered per query
    predictor = sm.predictor(z, lambda a: a)
    for _ in range(2):
        assert np.array_equal(predictor(queries).view(np.int64), expected)


def _predictor_cases():
    for name in ("continuous", "duplicates", "integer-grid"):
        x = CACHED_PREDICT_BLOCKS[name]
        for k in (1, x.size):
            yield pytest.param(lambda x=x, k=k: KnnSmoother(x, k), id=f"knn-{name}-k{k}")
    d2 = np.random.default_rng(25).standard_normal((60, 2))
    yield pytest.param(lambda: KnnSmoother(d2, 7), id="knn-d2")


@pytest.mark.parametrize("make", list(_predictor_cases()))
def test_predictor_equals_f_of_predict_bit_for_bit(make):
    sm = make()
    rng = np.random.default_rng(sm.n)
    z = rng.standard_normal(sm.n) * 1e3
    x, d = sm.x, sm.x.shape[1]
    lo, hi = x.min(axis=0), x.max(axis=0)
    queries = np.concatenate([
        rng.uniform(lo, hi, (40, d)),
        [2.0 * lo - hi - 1.0, 2.0 * hi - lo + 1.0],  # outside the range
        x, (x[:-1] + x[1:]) / 2.0,                  # on sample points, midpoints
        np.repeat(x[:4], 3, axis=0),                # repeated
    ])
    predictor = sm.predictor(z, np.arctan)
    expected = np.arctan(sm.predict(queries, z)).tobytes()
    for _ in range(2):
        assert predictor(queries).tobytes() == expected


class TestSortedOnce:
    """A 1-D smoother sorts its sample once; ``predict`` builds nothing."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        original = smoother._SortedSample.__init__

        def counting(sample, x, k):
            calls.append(x.size)
            original(sample, x, k)

        monkeypatch.setattr(smoother._SortedSample, "__init__", counting)
        return calls

    def test_one_build_per_smoother_none_per_predict(self, builds):
        rng = np.random.default_rng(20)
        x, z = rng.standard_normal(500), rng.standard_normal(500)
        sm = KnnSmoother(x, 30)
        assert builds == [500]
        predictor = sm.predictor(z, np.tanh)
        for m in (1, 7, 300):
            sm.predict(rng.standard_normal(m), z)
            predictor(rng.standard_normal(m))
        sm.smooth(z)
        assert builds == [500]

    def test_wider_block_builds_no_sort(self, builds):
        rng = np.random.default_rng(21)
        sm = KnnSmoother(rng.standard_normal((50, 2)), 5)
        z, q = rng.standard_normal(50), rng.standard_normal((20, 2))
        assert sm.predictor(z, np.tanh)(q).tobytes() == np.tanh(sm.predict(q, z)).tobytes()
        assert builds == []

    def test_predict_leaves_no_garbage_for_the_collector(self):
        rng = np.random.default_rng(22)
        x, z = rng.standard_normal(10_000), rng.standard_normal(10_000)
        q = rng.standard_normal(10_000)
        sm = KnnSmoother(x, default_knn_k(x.size))
        sm.predict(q, z)
        assert growth_with_collector_off(lambda: sm.predict(q, z)) < 2e6

    def test_transform_table_leaves_no_garbage(self):
        # each call builds a fresh transform: its step table would pile up
        # if it sat in a reference cycle
        rng = np.random.default_rng(23)
        x, z = rng.standard_normal(10_000), rng.standard_normal(10_000)
        q = rng.standard_normal(1_000)
        sm = KnnSmoother(x, default_knn_k(x.size))

        def fresh_transform_call():
            return FittedTransform(sm, z)(q)

        fresh_transform_call()
        assert growth_with_collector_off(fresh_transform_call) < 2e6


_NON_FINITE_PATHS = {
    "knn-1d": (lambda x: KnnSmoother(x[:, 0], 5), 1),
    "knn-2d": (lambda x: KnnSmoother(x, 5), 2),
}


@pytest.mark.parametrize("path", list(_NON_FINITE_PATHS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected(path, bad):
    make, d = _NON_FINITE_PATHS[path]
    rng = np.random.default_rng(18)
    x, z = rng.standard_normal((40, 2)), rng.standard_normal(40)
    sm = make(x)
    queries = np.zeros((3, d))
    queries[1, -1] = bad
    with pytest.raises(ParameterError):
        sm.predict(queries, z)
    with pytest.raises(ParameterError):
        sm.predictor(z, np.tanh)(queries)


@pytest.mark.parametrize("path", list(_NON_FINITE_PATHS))
def test_query_of_wrong_width_rejected(path):
    make, d = _NON_FINITE_PATHS[path]
    rng = np.random.default_rng(24)
    sm, z = make(rng.standard_normal((40, 2))), rng.standard_normal(40)
    queries = np.zeros((3, d + 1))
    with pytest.raises(ParameterError, match="do not match"):
        sm.predict(queries, z)
    with pytest.raises(ParameterError, match="do not match"):
        sm.predictor(z, np.tanh)(queries)


@pytest.mark.parametrize("path", list(_NON_FINITE_PATHS))
@pytest.mark.parametrize("m", [39, 41])
def test_response_of_wrong_length_rejected(path, m):
    make, d = _NON_FINITE_PATHS[path]
    rng = np.random.default_rng(26)
    sm, z = make(rng.standard_normal((40, 2))), rng.standard_normal(m)
    queries = np.zeros((3, d))
    for call in (lambda: sm.smooth(z), lambda: sm.predict(queries, z), lambda: sm.predictor(z, np.tanh)):
        with pytest.raises(ParameterError, match="response length does not match"):
            call()


@pytest.mark.parametrize(
    "make",
    [lambda x: KnnSmoother(x, 3), lambda x: knn_indices(x, 3)],
    ids=["knn", "knn_indices"],
)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_block_rejected(make, d, bad):
    # a 1-D k-NN block would otherwise sort the nan anywhere and smooth wrong
    x = np.tile(np.arange(10.0)[:, None], (1, d))
    x[3, -1] = bad
    with pytest.raises(ParameterError, match="predictor block must be finite"):
        make(x[:, 0] if d == 1 else x)


_GRID = 2.0**20
_POINTS = {d: np.round(_RNG.standard_normal((60, d)) * _GRID) / _GRID for d in (2, 3)}
# Integer values and a 2^-20 grid keep every distance exact, so ties are true ties.
MULTI_D_BLOCKS = {
    "integer-ties-d2": _RNG.integers(0, 5, (150, 2)).astype(float),
    "integer-ties-d3": _RNG.integers(0, 3, (120, 3)).astype(float),
    "duplicates-d2": np.repeat(_POINTS[2], 3, axis=0),
    "duplicates-d3": np.concatenate([_POINTS[3], _POINTS[3][:20]]),
    "continuous-d2": _POINTS[2],
}


def _multi_d_cases():
    for name, x in MULTI_D_BLOCKS.items():
        n = x.shape[0]
        for k in sorted({1, 2, 5, 17, n - 1, n}):
            yield pytest.param(x, k, id=f"{name}-k{k}")


@pytest.mark.parametrize("x, k", list(_multi_d_cases()))
class TestKnnTree:
    """The kd-tree path (d > 1) against the brute-force (distance, index) rule."""

    def test_table_matches_brute_force(self, x, k):
        table = knn_indices(x, k)
        assert table.shape == (x.shape[0], k)
        assert [sorted(row) for row in table.tolist()] == [
            sorted(nb) for nb in brute_force_neighbors(x, k)
        ]

    def test_predict_matches_brute_force(self, x, k):
        z = np.random.default_rng(k).standard_normal(x.shape[0])
        span = np.ptp(x, axis=0) + 1.0
        # training points, midpoints of successive rows, and points beyond the corners
        queries = np.concatenate(
            [x, (x[:-1] + x[1:]) / 2.0, [x.min(axis=0) - span, x.max(axis=0) + span]]
        )
        expected = [np.mean(z[nb]) for nb in brute_force_neighbors(x, k, queries)]
        assert_allclose(KnnSmoother(x, k).predict(queries, z), expected, rtol=0, atol=1e-12)


class TestKnn:
    def test_full_window_is_mean(self):
        z = np.array([1.0, 5.0, 9.0, -2.0])
        assert_allclose(KnnSmoother(np.arange(4.0), 4).smooth(z), np.full(4, z.mean()))

    def test_k1_returns_z(self):
        rng = np.random.default_rng(0)
        x, z = rng.standard_normal(50), rng.standard_normal(50)
        assert np.array_equal(KnnSmoother(x, 1).smooth(z), z)

    def test_matches_brute_force_1d(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        fitted = KnnSmoother(x, 3).smooth(x)
        assert_allclose(fitted, brute_force_knn_fit(x, x, 3), atol=1e-14)

    def test_matches_brute_force_multid_with_ties(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, size=(40, 2)).astype(float)  # many exact ties
        z = rng.standard_normal(40)
        for k in (1, 4, 11):
            assert_allclose(KnnSmoother(x, k).smooth(z), brute_force_knn_fit(x, z, k), atol=1e-14)

    def test_duplicate_points_share_the_first_copy_at_k1(self):
        # the (distance, index) rule: every copy's nearest point is copy 0
        x = np.array([1.0, 1.0, 1.0])
        z = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(KnnSmoother(x, 1).smooth(z), np.full(3, z[0]))

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            KnnSmoother(np.arange(5.0), 6).smooth(np.arange(5.0))

    def test_1d_block_holds_no_table(self):
        # a 1-D block keeps its sorted windows and tied rows; an (n, k) table
        # at n = 1e4 and the default k = 793 alone would take 63 MB
        x = np.random.default_rng(16).standard_normal(10_000)
        tracemalloc.start()
        try:
            sm = KnnSmoother(x, default_knn_k(x.size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert sm.neighbors.shape == (0, sm.k)

    def test_integer_block_keeps_one_row_per_value(self):
        # a value's copies share one tied row, so 50 values at k = 793 keep
        # at most 50 rows, where one row per point would take 63 MB
        rng = np.random.default_rng(27)
        x, z = rng.integers(0, 50, 10_000).astype(float), rng.standard_normal(10_000)
        sm = KnnSmoother(x, 793)
        assert sm.neighbors.shape[0] <= 50
        sm.smooth(z)
        tracemalloc.start()
        try:
            sm.smooth(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_predict_at_new_points(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        z = np.array([0.0, 1.0, 2.0, 3.0])
        sm = KnnSmoother(x, 2)
        assert_allclose(sm.predict(np.array([0.1]), z), [0.5])


class TestTranslation:
    def test_1d_smooth_under_offset(self):
        rng = np.random.default_rng(13)
        x, z = rng.standard_normal(3000), rng.standard_normal(3000)
        shifted = KnnSmoother(x + 1e6, 200).smooth(z)
        assert_allclose(shifted, KnnSmoother(x, 200).smooth(z), rtol=0, atol=1e-12)

    def test_2d_smooth_under_offset(self):
        rng = np.random.default_rng(14)
        x, z = rng.standard_normal((1500, 2)), rng.standard_normal(1500)
        shifted = KnnSmoother(x + 1e6, 60).smooth(z)
        assert_allclose(shifted, KnnSmoother(x, 60).smooth(z), rtol=0, atol=1e-9)

    def test_ace_rho_under_offset(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(2000)
        y = np.sin(2.0 * x) + 0.5 * rng.standard_normal(2000)
        rho = ace_fit(PairedSamples(x, y), seed=1).rho[0]
        shifted = ace_fit(PairedSamples(x + 1e8, y), seed=1).rho[0]
        assert abs(shifted - rho) <= 1e-9


# the wide block's kd-tree table, and the 1-D block's sorted windows
@pytest.mark.parametrize("make", [lambda x: KnnSmoother(x, 5), lambda x: KnnSmoother(x[:, 0], 5)])
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


@pytest.mark.parametrize(
    "widths, k", [((1, 1), 456), ((2, 2), 37), ((2, 1), 37), ((1, 3), 17)], ids=["1-1", "2-2", "2-1", "1-3"]
)
def test_paired_samples_choose_the_default_k(widths, k):
    # the one place a default is chosen, at n = 5000: default_knn_k for a
    # 1-D pair, else experiment_knn_k of the wider block, for both blocks
    assert k == (default_knn_k(5000) if max(widths) == 1 else experiment_knn_k(5000, max(widths)))
    rng = np.random.default_rng(8)
    samples = PairedSamples(rng.standard_normal((5000, widths[0])), rng.standard_normal((5000, widths[1])))
    pair = samples.smoothers()
    assert [sm.k for sm in pair] == [k, k]
    assert samples.smoothers() is pair
    assert [sm.k for sm in samples.smoothers(4)] == [4, 4]
    with pytest.raises(ParameterError):
        samples.smoothers(5001)
