"""Nonparametric conditional-expectation smoothers shared by the CCA fits.

Two estimators of E[Z | X]: a k-nearest-neighbor average (the default; its
neighbor sets depend only on the predictor block, so they are computed once
and reused across the many response vectors an alternating fit produces)
and a Nadaraya-Watson smoother with Gaussian weights.

The neighbor table of a 1-D block costs O(n log n + n k): a point's k
nearest neighbors are a contiguous window of the sorted sample.  Wider
blocks take a chunked O(n^2 d) distance pass.  A 1-D ``smooth`` sums each
sorted window once instead of gathering the table, with the same result bit
for bit.  ``PairedSamples.smoothers`` memoizes the built pair per
``SmootherConfig``, so every fit on one sample shares one table per block,
and ``predict`` never needs the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError

# Rows per chunk are sized so a chunk of the squared-distance matrix stays
# around 128 MB at float64.
_CHUNK_BUDGET = 16_000_000


def default_knn_k(n: int) -> int:
    """Default neighbor count: ceil(n^(4/5) / 2) clamped to [3, n]."""
    return int(np.clip(math.ceil(n ** 0.8 / 2.0), 3, n))


def _as_block(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ParameterError("predictor block must be 1-D or 2-D")
    return a


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, clipped at 0.

    Both blocks are first centred on b's column-wise lower median, so an
    offset shared by a and b cannot cancel catastrophically in the
    |a|^2 + |b|^2 - 2 a.b expansion.  The median is a sample value, which
    keeps integer-valued data, and so its exact distance ties, exact.
    """
    mid = (b.shape[0] - 1) // 2
    centre = np.partition(b, mid, axis=0)[mid]
    a = a - centre
    b = b - centre
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _select_k_smallest(d2_rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries per row, ties broken by index order."""
    n = d2_rows.shape[1]
    if k >= n:
        return np.broadcast_to(np.arange(n), (d2_rows.shape[0], n)).copy()
    idx = np.argpartition(d2_rows, k - 1, axis=1)[:, :k]
    rows = np.arange(d2_rows.shape[0])[:, None]
    boundary = d2_rows[rows, idx].max(axis=1)
    # argpartition gives *a* set of k smallest; when the boundary distance is
    # tied, re-select that row so the smallest indices win.
    n_le = (d2_rows <= boundary[:, None]).sum(axis=1)
    for r in np.flatnonzero(n_le > k):
        row = d2_rows[r]
        cut = boundary[r]
        strict = np.flatnonzero(row < cut)
        tied = np.flatnonzero(row == cut)
        idx[r] = np.concatenate([strict, tied[: k - strict.size]])
    return idx


def _select_chunked(distances, m: int, n: int, k: int) -> np.ndarray:
    """k smallest per row of an (m, n) distance matrix built in row chunks.

    ``distances(start, stop)`` returns rows start..stop-1 of the matrix.
    """
    out = np.empty((m, k), dtype=np.intp)
    chunk = max(1, _CHUNK_BUDGET // n)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        out[start:stop] = _select_k_smallest(distances(start, stop), k)
    return out


def _windows_1d(x: np.ndarray, q: np.ndarray, k: int):
    """(sorted order of x, window start per query, queries with a tied boundary).

    The k nearest points of q form a contiguous window [l, l + k) of the
    sorted sample.  The window moves right past l while xs[l + k] is
    strictly nearer than xs[l], i.e. while xs[l] + xs[l + k] < 2 q, and that
    sum is nondecreasing in l, so one searchsorted finds l.  A query whose
    nearest outside point is no farther than the window radius has a tied
    boundary.
    """
    n = x.size
    order = np.argsort(x, kind="stable")
    centre = x[order[(n - 1) // 2]]  # a sample value, as in sq_distances
    xs = x[order] - centre
    qc = q - centre
    lo = np.searchsorted(xs[: n - k] + xs[k:], 2.0 * qc)
    radius = np.maximum(qc - xs[lo], xs[lo + k - 1] - qc)
    gap = np.full(q.size, np.inf)
    left = lo > 0
    gap[left] = qc[left] - xs[lo[left] - 1]
    right = lo + k < n
    gap[right] = np.minimum(gap[right], xs[lo[right] + k] - qc[right])
    return order, lo, np.flatnonzero(gap <= radius)


def _knn_1d(x: np.ndarray, q: np.ndarray, k: int, self_query: bool) -> np.ndarray:
    """Exact k nearest of each query among the 1-D sample x, from sorted windows.

    A row with a tied window boundary is re-selected over its full row by
    (distance, index).  With ``self_query`` the queries are x itself and
    each point wins every tie at distance 0 to itself; a window can miss its
    own point only when the window is all copies of that value, so the point
    is an outside one at distance 0 and the row is re-selected.
    """
    n = x.size
    order, lo, tied = _windows_1d(x, q, k)
    idx = order[lo[:, None] + np.arange(k)]
    if tied.size:
        centre = x[order[(n - 1) // 2]]
        xc, qc = x - centre, q - centre

        def distances(start, stop):
            rows = tied[start:stop]
            d = np.abs(xc[None, :] - qc[rows, None])
            if self_query:
                d[np.arange(rows.size), rows] = -1.0
            return d

        idx[tied] = _select_chunked(distances, tied.size, n, k)
    return idx


def knn_indices(x_block, k: int) -> np.ndarray:
    """Exact k-nearest-neighbor indices per sample, self always included.

    Ties at the k-th distance go to the smaller index, and a point beats
    every other point at distance 0 to itself.  A 1-D block costs
    O(n log n + n k) through sorted windows; wider blocks take a chunked
    O(n^2 d) distance pass.
    """
    x = _as_block(x_block)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k = {k} is outside [1, n = {n}]")
    if x.shape[1] == 1:
        return _knn_1d(x[:, 0], x[:, 0], k, self_query=True)

    def distances(start, stop):
        d2 = sq_distances(x[start:stop], x)
        # self is always a neighbor: give it a sentinel distance below any tie
        d2[np.arange(stop - start), np.arange(start, stop)] = -1.0
        return d2

    return _select_chunked(distances, n, n, k)


class KnnSmoother:
    """k-NN conditional-expectation estimator with precomputed neighborhoods."""

    kind = "knn"

    def __init__(self, x_block, k: int | None = None):
        self.x = _as_block(x_block)
        self.n = self.x.shape[0]
        self.k = default_knn_k(self.n) if k is None else int(k)
        self.neighbors = knn_indices(self.x, self.k)
        # a 1-D table row without a tied boundary is its sorted window
        self._windows = None
        if self.x.shape[1] == 1:
            self._windows = _windows_1d(self.x[:, 0], self.x[:, 0], self.k)

    def smooth(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.n:
            raise ParameterError("response length does not match the fitted block")
        if self._windows is None:
            return z[self.neighbors].mean(axis=1)
        # a window sums the same values in the same order as its table row,
        # so this equals the table gather's mean bit for bit, reading no table
        order, lo, tied = self._windows
        sums = sliding_window_view(z[order], self.k).sum(axis=1)[lo]
        sums[tied] = z[self.neighbors[tied]].sum(axis=1)
        return sums / self.k

    def predict(self, x_new, z) -> np.ndarray:
        """k-NN regression of z at new query points (no self handling).

        Uses only the training block, never the neighbor table.
        """
        z = np.asarray(z, dtype=float).ravel()
        q = _as_block(x_new)
        if q.shape[1] != self.x.shape[1]:
            raise ParameterError("query points do not match the fitted block's dimension")
        if self.x.shape[1] == 1:
            idx = _knn_1d(self.x[:, 0], q[:, 0], self.k, self_query=False)
        else:
            idx = _select_chunked(
                lambda start, stop: sq_distances(q[start:stop], self.x), q.shape[0], self.n, self.k
            )
        return z[idx].mean(axis=1)


class KernelSmoother:
    """Nadaraya-Watson smoother with Gaussian weights exp(-||dx||^2 / 2h^2).

    Weight rows that underflow entirely fall back to a k-NN average with
    k = max(3, ceil(n^(4/5) / 10)); the count of such points is kept in
    ``fallback_count``.
    """

    kind = "kernel"

    def __init__(self, x_block, bandwidth: float):
        if not bandwidth > 0:
            raise ParameterError("bandwidth must be positive")
        self.x = _as_block(x_block)
        self.n = self.x.shape[0]
        self.bandwidth = float(bandwidth)
        self.fallback_count = 0
        self._fallback_k = max(3, math.ceil(self.n ** 0.8 / 10.0))
        self._fallback: KnnSmoother | None = None

    def _weights_apply(self, q: np.ndarray, z: np.ndarray, selfq: bool) -> np.ndarray:
        out = np.empty(q.shape[0])
        dead = []
        h2 = 2.0 * self.bandwidth ** 2
        chunk = max(1, _CHUNK_BUDGET // self.n)
        for start in range(0, q.shape[0], chunk):
            stop = min(start + chunk, q.shape[0])
            w = np.exp(-sq_distances(q[start:stop], self.x) / h2)
            den = w.sum(axis=1)
            num = w @ z
            bad = den <= 0.0
            den[bad] = 1.0
            out[start:stop] = num / den
            dead.extend(start + i for i in np.flatnonzero(bad))
        if dead:
            self.fallback_count += len(dead)
            if self._fallback is None or self._fallback.k != min(self._fallback_k, self.n):
                self._fallback = KnnSmoother(self.x, min(self._fallback_k, self.n))
            dead = np.asarray(dead, dtype=np.intp)
            if selfq:
                out[dead] = self._fallback.smooth(z)[dead]
            else:
                out[dead] = self._fallback.predict(q[dead], z)
        return out

    def smooth(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.n:
            raise ParameterError("response length does not match the fitted block")
        return self._weights_apply(self.x, z, selfq=True)

    def predict(self, x_new, z) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        return self._weights_apply(_as_block(x_new), z, selfq=False)


@dataclass(frozen=True)
class SmootherConfig:
    """Declarative smoother choice, resolved per predictor block via build()."""

    kind: str = "knn"
    k: int | None = None
    bandwidth: float | None = None

    def build(self, x_block):
        if self.kind == "knn":
            return KnnSmoother(x_block, self.k)
        if self.kind == "kernel":
            if self.bandwidth is None:
                raise ParameterError("kernel smoother needs an explicit bandwidth")
            return KernelSmoother(x_block, self.bandwidth)
        raise ParameterError(f"unknown smoother kind {self.kind!r}")


def knn_smooth(x_block, z, k: int) -> np.ndarray:
    """Fitted values of the k-NN estimate of E[Z | X] at the sample points."""
    return KnnSmoother(x_block, k).smooth(z)


def kernel_smooth(x_block, z, bandwidth: float) -> np.ndarray:
    """Fitted values of the Gaussian-kernel estimate of E[Z | X]."""
    return KernelSmoother(x_block, bandwidth).smooth(z)
