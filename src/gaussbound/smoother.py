"""The k-nearest-neighbor conditional-expectation smoother shared by the CCA fits.

It estimates E[Z | X] as z's mean over each point's k nearest neighbors.
The neighbor sets depend only on the predictor block, so they are computed
once and reused across the many response vectors an alternating fit
produces.

A point's k nearest neighbors in a 1-D block are a window of the sorted
sample, so the block sorts its sample once and keeps that sort and its
window starts.  All windows of one width share numpy's pairwise summation
tree, so z's mean over every window is one table, O(n log k), equal to
numpy's row means bit for bit, and ``smooth``, ``predict`` and
``predictor`` each gather it at their windows (``_gather``); a query costs
one binary search.  ``predictor(z, f)`` serves a response that is predicted
many times, as a fitted transform's is: it keeps f of the table, and
``predict`` is ``predictor(z, identity)``.  Wider blocks keep the table of
neighbors from a kd-tree (Friedman, Bentley & Finkel, 1977), which a
prediction queries per call.  A row whose k-th neighbor is tied takes the
exact (distance, index) selection, built once per distinct value: in a 1-D
block it is read off the sorted sample in O(k + run length), in a wider one
from a full distance row, O(n d) per distinct tied point.  A smoother is built
only on a finite block, and takes only finite query points and a response of
the block's length.  A call changes no state of the smoother.  A smoother
takes its k as given; ``PairedSamples.smoothers`` chooses the default and
memoizes the built pair per k.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import ParameterError

# Rows per chunk are sized so a chunk of the squared-distance matrix stays
# around 128 MB at float64.
_CHUNK_BUDGET = 16_000_000


def default_knn_k(n: int) -> int:
    """Default neighbor count: ceil(n^(4/5) / 2) clamped to [3, n]."""
    return int(np.clip(math.ceil(n ** 0.8 / 2.0), 3, n))


def experiment_knn_k(n: int, d: int) -> int:
    """Neighbor count for d-column blocks: consistency-rate scaling in d."""
    return int(np.clip(math.ceil(n ** (4.0 / (4.0 + d)) / 8.0), 10, default_knn_k(n)))


def as_block(x) -> np.ndarray:
    """``x`` as a float (n, d) block; a 1-D array becomes one column."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ParameterError("predictor block must be 1-D or 2-D")
    return a


def _finite_block(x, what: str) -> np.ndarray:
    """``x`` as an (n, d) block of finite values; ``what`` names it in the error."""
    a = as_block(x)
    if not np.isfinite(a).all():
        raise ParameterError(f"{what} must be finite")
    return a


def _response(z, n: int) -> np.ndarray:
    """``z`` as a flat float vector of the fitted block's length n."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != n:
        raise ParameterError("response length does not match the fitted block")
    return z


def _identity(a):
    return a


def _query_block(x_new, d: int) -> np.ndarray:
    """``x_new`` as an (m, d) block of finite query points."""
    q = _finite_block(x_new, "query points")
    if q.shape[1] != d:
        raise ParameterError("query points do not match the fitted block's dimension")
    return q


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
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - (2.0 * a) @ b.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _select_k_smallest(d2_rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries per row, ties broken by index order."""
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


def _reselect(rows: np.ndarray, distances, n: int, k: int) -> np.ndarray:
    """The exact (distance, index) selection of k neighbors for the queries ``rows``.

    ``distances(rows)`` returns the full distance rows of those queries; it is
    called in row chunks.
    """
    out = np.empty((rows.size, k), dtype=np.intp)
    chunk = max(1, _CHUNK_BUDGET // n)
    for start in range(0, rows.size, chunk):
        d = distances(rows[start : start + chunk])
        out[start : start + chunk] = _select_k_smallest(d, k)
        del d  # free this chunk's rows before the next chunk is built
    return out


class _SortedSample:
    """The build half of the 1-D k-nearest search: a sample's sort, once.

    It keeps the stable sort order, the centre (a sample value, as in
    ``sq_distances``), the pair sums ``xs[l] + xs[l + k]`` of the centred
    sorted sample xs that place a window, and xs padded with -inf and inf,
    so ``ends[l + 1]`` is xs[l].  ``windows`` is the query half.
    """

    def __init__(self, x: np.ndarray, k: int):
        n = x.size
        self.x, self.k = x, k
        self.order = np.argsort(x, kind="stable")
        self.centre = x[self.order[(n - 1) // 2]]
        xs = x[self.order] - self.centre
        self.pairs = xs[: n - k] + xs[k:]
        self.ends = np.concatenate([[-np.inf], xs, [np.inf]])

    def windows(self, q: np.ndarray, self_query: bool):
        """``(lo, tied, rows, group)``: the exact k nearest of queries q in the sample.

        Query i's neighbors are the sorted window ``order[lo[i]:lo[i] + k]``,
        unless i is in ``tied``; tied query ``tied[j]`` takes the
        (distance, index) row ``rows[group[j]]``.  The k nearest points of q
        form a window [l, l + k) of the sorted sample.  The window moves right
        past l while xs[l + k] is strictly nearer than xs[l], i.e. while
        xs[l] + xs[l + k] < 2 q, and that sum is nondecreasing in l, so one
        searchsorted finds l.  It is given the queries in sorted order: each
        binary search then narrows from the last, where on unsorted queries
        nearly every branch is mispredicted, and sorting costs less than that.
        With ``self_query`` the queries are x itself, already sorted by
        ``order``.  A query whose nearest outside point is no farther than the
        window radius has a tied boundary and is re-selected exactly
        (``_tied_rows``).
        """
        k, ends = self.k, self.ends
        qc = q - self.centre
        key = 2.0 * qc
        at = self.order if self_query else np.argsort(key)
        lo = np.empty(q.size, dtype=np.intp)
        lo[at] = np.searchsorted(self.pairs, key[at])
        radius = np.maximum(qc - ends[lo + 1], ends[lo + k] - qc)
        gap = np.minimum(qc - ends[lo], ends[lo + k + 1] - qc)
        tied = np.flatnonzero(gap <= radius)
        return (lo, tied, *self._tied_rows(qc[tied]))

    def _tied_rows(self, qc: np.ndarray):
        """``(rows, group)``: one (distance, index) row per distinct value of qc.

        ``rows[group[j]]`` is the row of centred query ``qc[j]``.  Along the
        sorted sample a query's distances |xs - qc| fall, then rise, so those
        below the k-th smallest, D, are one sorted range within k places of
        the query, and those equal to D are at most two runs beside it.
        ``_select_k_smallest`` picks the range's indices in index order, then
        the runs' smallest indices in index order; this builds that row in
        O(k + run length), not from a full distance row.  When exactly k
        distances are <= D, ``_select_k_smallest`` keeps ``argpartition``'s
        order, so those rows are still selected over their full distance rows.
        """
        n, k, order, xs = self.x.size, self.k, self.order, self.ends[1:-1]
        if not qc.size:
            return np.empty((0, k), dtype=np.intp), np.empty(0, dtype=np.intp)
        values, group = np.unique(qc, return_inverse=True)
        rows = np.empty((values.size, k), dtype=np.intp)
        full = []
        for g, v in enumerate(values):
            p = int(np.searchsorted(xs, v))
            lo, hi = max(0, p - k), min(n, p + k)
            d = np.abs(xs[lo:hi] - v)
            cut = np.partition(d, k - 1)[k - 1]
            within = (d <= cut).nonzero()[0]
            la, rb = lo + int(within[0]), lo + int(within[-1]) + 1
            # a run at D can reach past the k places on either side
            if la == lo:
                la = bisect.bisect_left(range(lo), True, key=lambda j: abs(xs[j] - v) <= cut)
            if rb == hi:
                rb = hi + bisect.bisect_left(range(hi, n), True, key=lambda j: abs(xs[j] - v) > cut)
            if rb - la == k:
                full.append(g)
                continue
            strict = (d < cut).nonzero()[0]
            a, b = (lo + int(strict[0]), lo + int(strict[-1]) + 1) if strict.size else (la, la)
            ties = np.sort(np.concatenate([order[la:a], order[b:rb]]))
            rows[g] = np.concatenate([np.sort(order[a:b]), ties[: k - (b - a)]])
        if full:
            full = np.array(full)
            rows[full] = _reselect(full, lambda r: np.abs((self.x - self.centre)[None, :] - values[r, None]), n, k)
        return rows, group


def _pairwise_split(width: int) -> int:
    """Where numpy's pairwise sum splits a run of ``width`` > 128 values."""
    half = width // 2
    return half - half % 8


def _window_sums(p: np.ndarray, k: int) -> np.ndarray:
    """Sum of every length-k window of p, bit for bit as numpy's ``sum`` adds a row.

    numpy adds a contiguous float64 run of length L pairwise: for L < 8 in
    order from 0.0; for L <= 128 in eight strided accumulators over the first
    8 floor(L/8) values, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the tail in order; above 128 as the sum of two runs split at
    ``_pairwise_split(L)``.  Every window of one width has the same tree, so
    each width the tree visits gets its sums for all window starts at once,
    smallest first: a split width is one add of two shifted slices, and the
    leaf widths read one strided running sum.  The final ``+ 0.0`` is the
    reduction's 0.0 start, which turns -0.0 into +0.0.
    """
    n = p.size
    if k < 8:
        sums = p[: n - k + 1] + 0.0
        for t in range(1, k):
            sums += p[t : n - k + 1 + t]
        return sums
    widths, todo = set(), [k]
    while todo:
        width = todo.pop()
        if width not in widths:
            widths.add(width)
            if width > 128:
                half = _pairwise_split(width)
                todo += [half, width - half]
    sums = {}
    run, terms = p, 1  # run[i] = p[i] + p[i + 8] + ... over ``terms`` values
    for width in sorted(widths):
        m = n - width + 1
        if width > 128:
            half = _pairwise_split(width)
            sums[width] = sums[half][:m] + sums[width - half][half : half + m]
            continue
        while terms < width // 8:
            run = run[: n - 8 * terms] + p[8 * terms :]
            terms += 1
        pairs = run[:-1] + run[1:]
        quads = pairs[:-2] + pairs[2:]
        total = quads[:m] + quads[4 : 4 + m]
        for t in range(8 * terms, width):
            total += p[t : t + m]
        sums[width] = total
    return sums[k] + 0.0


def _gather(table: np.ndarray, z: np.ndarray, windows, f) -> np.ndarray:
    """f of z's mean over each query's ``_SortedSample.windows`` neighbors.

    ``table`` holds f of z's mean over every sorted window.  A window sums the
    same values in the same order as its table row (``_window_sums``), so
    this equals f of the table gather's mean bit for bit; only the rows of
    queries whose window boundary is tied are averaged and mapped on their
    own, each distinct row once.
    """
    lo, tied, rows, group = windows
    out = table[lo]
    if tied.size:
        out[tied] = f(z[rows].sum(axis=1) / rows.shape[1])[group]
    return out


def _knn_tree(x: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest of each query row among the rows of x, from a kd-tree.

    The tree gives each query's k + 1 nearest in row chunks.  A row whose
    k-th and (k+1)-th distances tie is re-selected over its full
    ``sq_distances`` row by (distance, index), once per distinct tied point.
    """
    from scipy.spatial import cKDTree  # imported here: a 1-D bound loads no scipy

    n, m = x.shape[0], q.shape[0]
    tree = cKDTree(x)
    idx = np.empty((m, k), dtype=np.intp)
    tied = []
    chunk = max(1, _CHUNK_BUDGET // (k + 1))
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        # beyond n neighbors the tree pads with distance inf
        dist, nb = tree.query(q[start:stop], k + 1)
        idx[start:stop] = nb[:, :k]
        tied.append(start + np.flatnonzero(dist[:, k - 1] == dist[:, k]))
    tied = np.concatenate(tied)
    if tied.size:
        points, group = np.unique(q[tied], axis=0, return_inverse=True)
        rows = _reselect(np.arange(len(points)), lambda r: sq_distances(points[r], x), n, k)
        idx[tied] = rows[group]
    return idx


def knn_indices(x_block, k: int) -> np.ndarray:
    """Exact k-nearest-neighbor table (1 <= k <= n) of a block's own points.

    Row i holds point i's k nearest by (distance, index): ties at the k-th
    distance go to the smaller index.  Copies of one point have the same
    neighbors, so a point with more than k copies may not be among its own.
    A 1-D block's rows are its sorted windows, O(n log n + n k); wider blocks
    query a kd-tree, and only their distinct points with a tied k-th
    neighbor take a full distance row.  ``KnnSmoother`` builds this table
    only for blocks wider than one column.
    """
    x = _finite_block(x_block, "predictor block")
    if x.shape[1] > 1:
        return _knn_tree(x, x, k)
    sample = _SortedSample(x[:, 0], k)
    lo, tied, rows, group = sample.windows(x[:, 0], self_query=True)
    idx = sample.order[lo[:, None] + np.arange(k)]
    idx[tied] = rows[group]
    return idx


class KnnSmoother:
    """k-NN conditional-expectation estimator with precomputed neighborhoods.

    ``k`` (1 <= k <= n) has no default.  ``neighbors`` is the (n, k) table,
    or for a 1-D block only its tied rows, one per distinct tied value.
    """

    def __init__(self, x_block, k: int):
        self.x = _finite_block(x_block, "predictor block")
        self.n = self.x.shape[0]
        self.k = int(k)
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"k = {self.k} is outside [1, n = {self.n}]")
        self._sorted = _SortedSample(self.x[:, 0], self.k) if self.x.shape[1] == 1 else None
        if self._sorted is None:
            self.neighbors = knn_indices(self.x, self.k)
        else:
            self._windows = self._sorted.windows(self.x[:, 0], self_query=True)
            self.neighbors = self._windows[2]

    def smooth(self, z) -> np.ndarray:
        """k-NN regression of z at the sample's own points."""
        z = _response(z, self.n)
        if self._sorted is None:
            return z[self.neighbors].mean(axis=1)
        return _gather(_window_sums(z[self._sorted.order], self.k) / self.k, z, self._windows, _identity)

    def predict(self, x_new, z) -> np.ndarray:
        """k-NN regression of z at new query points (no self handling)."""
        return self.predictor(z, _identity)(x_new)

    def predictor(self, z, f):
        """``x_new -> f(predict(x_new, z))``, for an elementwise f, bit for bit.

        On a 1-D block the callable keeps f of z's window means, so a call is
        one window search and one ``_gather``.  On a wider block a call
        queries the kd-tree.
        """
        z, x, k, sample = _response(z, self.n), self.x, self.k, self._sorted
        if sample is None:
            return lambda x_new: f(z[_knn_tree(x, _query_block(x_new, x.shape[1]), k)].mean(axis=1))
        table = f(_window_sums(z[sample.order], k) / k)
        return lambda x_new: _gather(table, z, sample.windows(_query_block(x_new, 1)[:, 0], False), f)

