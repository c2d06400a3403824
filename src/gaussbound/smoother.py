"""Nonparametric conditional-expectation smoothers shared by the CCA fits.

Two estimators of E[Z | X]: a k-nearest-neighbor average (the default; its
neighbor sets depend only on the predictor block, so they are computed once
and reused across the many response vectors an alternating fit produces)
and a Nadaraya-Watson smoother with Gaussian weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Squared Euclidean distances between the rows of a and b, clipped at 0."""
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


def knn_indices(x_block, k: int) -> np.ndarray:
    """Exact k-nearest-neighbor indices per sample (self included first)."""
    x = _as_block(x_block)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k = {k} is outside [1, n = {n}]")
    out = np.empty((n, k), dtype=np.intp)
    chunk = max(1, _CHUNK_BUDGET // n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq_distances(x[start:stop], x)
        # self is always a neighbor: give it a sentinel distance below any tie
        d2[np.arange(stop - start), np.arange(start, stop)] = -1.0
        out[start:stop] = _select_k_smallest(d2, k)
    return out


class KnnSmoother:
    """k-NN conditional-expectation estimator with precomputed neighborhoods."""

    kind = "knn"

    def __init__(self, x_block, k: int | None = None):
        self.x = _as_block(x_block)
        self.n = self.x.shape[0]
        self.k = default_knn_k(self.n) if k is None else int(k)
        self.neighbors = knn_indices(self.x, self.k)

    def smooth(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.n:
            raise ParameterError("response length does not match the fitted block")
        return z[self.neighbors].mean(axis=1)

    def predict(self, x_new, z) -> np.ndarray:
        """k-NN regression of z at new query points (no self handling)."""
        z = np.asarray(z, dtype=float).ravel()
        q = _as_block(x_new)
        out = np.empty(q.shape[0])
        chunk = max(1, _CHUNK_BUDGET // self.n)
        for start in range(0, q.shape[0], chunk):
            stop = min(start + chunk, q.shape[0])
            d2 = sq_distances(q[start:stop], self.x)
            idx = _select_k_smallest(d2, self.k)
            out[start:stop] = z[idx].mean(axis=1)
        return out


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
