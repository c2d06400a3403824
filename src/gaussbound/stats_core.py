"""Rank-based Gaussianization, covariances, and the Gaussian MI bound.

Foundational statistics used everywhere else: the normal-scores rank grid,
monotone normal-scores maps (with randomized tie breaking so atomic inputs
still come out exactly marginally normal), covariance estimation, and the
closed-form Gaussian lower bound on mutual information of two standardized
blocks.

All information quantities are in nats unless a function name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with the package)
from numpy.linalg import LinAlgError
try:  # numpy's LAPACK gufuncs, without the public wrappers' checks
    from numpy.linalg._umath_linalg import eigvalsh_lo, slogdet
except ImportError:  # the same gufuncs, through the public wrappers
    from numpy.linalg import eigvalsh as eigvalsh_lo, slogdet

from .errors import (
    DomainError,
    InsufficientDataError,
    InvalidCovarianceError,
    ParameterError,
)
from .smoother import KnnSmoother, as_block, default_knn_k, experiment_knn_k

NATS_PER_BIT = float(np.log(2.0))

# Correlations at or above this magnitude are treated as saturated when
# converting to an information value.
SATURATION_RHO = 1.0 - 1e-12

# Relative ridge added to covariance blocks before taking determinants.
COV_RIDGE = 1e-10

# Every bit of an IEEE double but its sign, as an int64 mask.
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)

# A uniform draw times 2^53 is an integer below 2^53 when the draw is one of
# the generator's 53-bit doubles.
_TWO_53 = float(2**53)


# Cephes' ndtri, as scipy.special.ndtri ships it: a rational in (p - 1/2)^2
# between exp(-2) and 1 - exp(-2), and in 1/x with x = sqrt(-2 ln y) on the
# tails, x < 8 and x >= 8 apart.  The denominators' leading 1 is implicit.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Horner's rule from the highest power, as cephes' ``polevl``.

    ``monic`` is cephes' ``p1evl``: a leading coefficient of 1 not stored.
    """
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _logs(v: np.ndarray) -> np.ndarray:
    """Natural logs from libm, as cephes takes them; ``np.log`` differs in the last bit."""
    return np.fromiter(map(math.log, v.tolist()), dtype=float, count=v.size)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on (0, 1), bit for bit ``scipy.special.ndtri``."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    mid = y > _EXP_M2
    out = np.empty_like(p)
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _polevl(c2, _NDTRI_Q0, monic=True))) * _SQRT_2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _logs(y[tail]))
    x0 = x - _logs(x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    for part, pn, qn in ((x < 8.0, _NDTRI_P1, _NDTRI_Q1), (x >= 8.0, _NDTRI_P2, _NDTRI_Q2)):
        zp = z[part]
        x1[part] = zp * _polevl(zp, pn) / _polevl(zp, qn, monic=True)
    x0 -= x1
    out[tail] = np.where(upper[tail], x0, -x0)
    return out


@lru_cache(maxsize=8)
def rank_quantile_grid(n: int) -> np.ndarray:
    """Normal scores at the mid-rank plotting positions (i - 0.5) / n, i = 1..n.

    Cached per n, so the array is read-only: every caller shares it.
    """
    if n < 2:
        raise InsufficientDataError("need at least 2 samples for a rank grid")
    grid = _ndtri((np.arange(1, n + 1) - 0.5) / n)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class MonotoneMap:
    """A fitted strictly increasing map, piecewise linear between knots.

    Used for normal-scores transforms; outside the knot range the map clamps
    to the terminal values.
    """

    knots_in: np.ndarray
    knots_out: np.ndarray

    def __post_init__(self):
        kin = np.asarray(self.knots_in, dtype=float)
        kout = np.asarray(self.knots_out, dtype=float)
        if kin.ndim != 1 or kin.shape != kout.shape or kin.size < 1:
            raise DomainError("MonotoneMap knots must be equal-length 1-D arrays")
        if np.any(np.diff(kin) <= 0) or np.any(np.diff(kout) <= 0):
            raise DomainError("MonotoneMap knots must be strictly increasing")
        object.__setattr__(self, "knots_in", kin)
        object.__setattr__(self, "knots_out", kout)

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.knots_in, self.knots_out)
        return float(out) if np.ndim(x) == 0 else out


@lru_cache(maxsize=8)
def _sample_indices(n: int) -> np.ndarray:
    """``arange(n)`` as int64, cached read-only like the rank grid."""
    idx = np.arange(n, dtype=np.int64)
    idx.flags.writeable = False
    return idx


def _skip_uniforms(rng: np.random.Generator, n: int) -> None:
    """Leave ``rng`` in the state ``rng.random(n)`` would, without the draws.

    A stock ``Generator`` on ``PCG64`` takes one 64-bit output per double,
    so advancing the bit generator by ``n`` lands on the same state.  The
    advance also clears the buffered half of a 32-bit draw, so a generator
    holding one still draws; so does any other generator or bit generator.
    """
    bg = rng.bit_generator
    if type(rng) is np.random.Generator and type(bg) is np.random.PCG64 and not bg.state["has_uint32"]:
        bg.advance(n)
    else:
        rng.random(n)


def _clashes(keys: np.ndarray, shift: int) -> np.ndarray:
    """Where adjacent sorted int64 keys agree in all but their low ``shift`` bits.

    Those bits hold a position, so the two keys of a clash sit in position
    order whatever the fields they stand in for.  Returns the first index of
    each clashing pair.
    """
    low = (1 << shift) - 1
    gaps = keys[1:] - keys[:-1]
    if gaps.min() > low:
        return np.empty(0, dtype=np.intp)
    near = (gaps <= low).nonzero()[0]
    return near[(keys[near] >> shift) == (keys[near + 1] >> shift)]


def _descent_runs(near: np.ndarray, descent: np.ndarray, size: int) -> np.ndarray:
    """Sorted positions of the members of every clash run that holds a descent.

    ``near`` are the clashes from ``_clashes``; adjacent ones chain into
    runs, and ``descent`` marks the pairs whose fields are out of order.
    """
    new_run = np.ones(near.size, dtype=bool)
    np.not_equal(near[1:] - near[:-1], 1, out=new_run[1:])
    run = np.cumsum(new_run) - 1
    bad = np.zeros(run[-1] + 1, dtype=bool)
    bad[run[descent]] = True
    links = near[bad[run]]
    member = np.zeros(size, dtype=bool)
    member[links] = True
    member[links + 1] = True
    return member.nonzero()[0]


def _group_starts(xs_sorted: np.ndarray) -> np.ndarray:
    """True where a sorted column's value differs from the one before."""
    first = np.empty(xs_sorted.size, dtype=bool)
    first[0] = True
    np.not_equal(xs_sorted[1:], xs_sorted[:-1], out=first[1:])
    return first


def rank_order(xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sort order of a finite column, ties broken by one uniform per sample.

    The tie-break rank step of every normal-scores transform.  The column is
    ranked by one sort of int64 keys: each value's order-preserving bit
    pattern (``-0.0`` read as ``0.0``) with its low ``ceil(log2 n)`` bits
    replaced by the sample's index.  Keys whose kept bits differ are in
    value order, so a key order with no clash at all is the value order.
    Otherwise one adjacent comparison of the gathered sorted values finds
    whether any clash run holds distinct values out of order; only then are
    the clashes located and those runs re-sorted exactly, by (value,
    index).  When the column has ties (``-0.0`` ties ``0.0``)
    ``rng.random(n)`` is drawn and the members of tied groups, by then in
    (value, index) order, are re-sorted by one more int64 sort.  Its keys
    pack, from the high bits down, a member's group number, ``floor(draw
    2^53)`` shifted right as far as the key's 63 bits need, and its
    position, read off a prefix of the column's cached index array, so
    columns of one length with any tie counts share one cached array;
    clashing runs out of draw order are again re-sorted exactly, by (group,
    draw, position).  So the result is the ``lexsort((draw,
    xs))`` permutation.  A column without ties reads no draw and skips it
    (see ``_skip_uniforms``): the generator ends in the same state either
    way, so its stream never depends on the data.

    Returns only ``order``: ``u[order] = rank_quantile_grid(n)`` gives the
    normal scores, and ``marginal_gaussianize`` builds a map's knots from
    ``xs[order]``.
    """
    n = xs.size
    shift = (n - 1).bit_length()
    low = (1 << shift) - 1
    keys = (xs + 0.0).view(np.int64)
    flip = keys >> 63  # all ones on a negative value: reverse its magnitude
    flip &= _MAGNITUDE
    keys ^= flip
    keys &= ~low
    keys |= _sample_indices(n)
    keys.sort()
    order = keys & low
    gaps = np.subtract(keys[1:], keys[:-1], out=flip[:-1])  # reuse the spent sign mask
    if gaps.min() > low:  # no clash, so no tie either
        _skip_uniforms(rng, n)
        return order

    xs_sorted = xs[order]
    if (xs_sorted[1:] < xs_sorted[:-1]).any():  # a descent, inside some clash run
        near = _clashes(keys, shift)
        descent = xs_sorted[near + 1] < xs_sorted[near]
        at = _descent_runs(near, descent, n)
        sub = order[at]
        order[at] = sub[np.lexsort((sub, xs[sub]))]
        xs_sorted = xs[order]
    first = _group_starts(xs_sorted)
    if first.all():
        _skip_uniforms(rng, n)
        return order

    # Order the tied groups' members, now in (x, index) order, by (x, r, index).
    r = rng.random(n)
    in_group = ~first  # tied with the value before, or
    in_group[:-1] |= in_group[1:]  # with the value after
    tied = in_group.nonzero()[0]
    m = tied.size
    members = order[tied]
    draws = r[members]
    group_of = np.cumsum(first[tied])
    m_shift = (m - 1).bit_length()
    draw_bits = min(53, 63 - m_shift - int(group_of[-1]).bit_length())
    keys = (draws * _TWO_53).astype(np.int64)  # floor(draw 2^53), monotone in the draw
    keys >>= 53 - draw_bits
    keys |= group_of << draw_bits
    keys <<= m_shift
    keys |= _sample_indices(n)[:m]  # a prefix: one cached array per n
    keys.sort()
    pos = keys & ((1 << m_shift) - 1)
    # dropped draw bits, or draws finer than 2^-53, can clash out of order
    near = _clashes(keys, m_shift)
    if near.size:
        descent = draws[pos[near + 1]] < draws[pos[near]]
        if descent.any():
            at = _descent_runs(near, descent, m)
            sub = pos[at]
            pos[at] = sub[np.lexsort((sub, draws[sub], group_of[sub]))]
    order[tied] = members[pos]
    return order


def _ranked_column(x, seed) -> tuple[np.ndarray, np.ndarray]:
    """A checked finite column and its ``rank_order`` with ``seed``'s generator."""
    xs = np.asarray(x, dtype=float).ravel()
    if xs.size < 2:
        raise InsufficientDataError("marginal_gaussianize needs at least 2 samples")
    if not np.all(np.isfinite(xs)):
        raise DomainError("marginal_gaussianize requires finite inputs")
    return xs, rank_order(xs, np.random.default_rng(seed))


def normal_scores(x, seed=None) -> np.ndarray:
    """The normal scores of ``marginal_gaussianize``, without its map.

    Same checks, same draws and the same output bit for bit; for callers
    that never read the map.
    """
    xs, order = _ranked_column(x, seed)
    u = np.empty(xs.size)
    u[order] = rank_quantile_grid(xs.size)
    return u


def marginal_gaussianize(x, seed=None):
    """Transform a scalar sample to exact marginal normal scores.

    Ranks are mapped to the fixed grid ``Phi^{-1}((i - 0.5) / n)``; ties are
    broken by seeded uniform randomization (``rank_order``), so atomic or
    mixed inputs still produce an exact draw-free normal-scores sample.

    The map's knots come from the sorted column ``xs[order]``: group starts
    from one adjacent comparison, and each group's knot is its first sorted
    value mapped to the mean of its grid scores (one ``reduceat``).  Only
    which member of a group sorts first depends on the draw, so the knots do
    not, except for the sign of a zero knot where ``-0.0`` ties ``0.0``: it
    is the sign of the member the draw puts first.  Callers that need only
    the scores call ``normal_scores``.

    Parameters
    ----------
    x : array_like, shape (n,)
    seed : int, Generator or None
        Drives tie randomization only; distinct inputs are seed-independent.

    Returns
    -------
    u : ndarray, shape (n,)
        Transformed values; ``np.sort(u)`` equals the rank grid bit for bit.
    fitted : MonotoneMap
        Increasing map from input values to normal scores (tied inputs get
        their group-average score), evaluable on new points.
    """
    xs, order = _ranked_column(x, seed)
    n = xs.size
    grid = rank_quantile_grid(n)
    u = np.empty(n)
    u[order] = grid
    xs_sorted = xs[order]
    starts = _group_starts(xs_sorted).nonzero()[0]
    counts = np.diff(starts, append=n)
    return u, MonotoneMap(xs_sorted[starts], np.add.reduceat(grid, starts) / counts)


def covariance(samples) -> np.ndarray:
    """Unbiased sample covariance (divisor n - 1), symmetric by construction."""
    a = as_block(samples)
    n = a.shape[0]
    if n < 2:
        raise InsufficientDataError("covariance needs at least 2 samples")
    c = np.atleast_2d(np.cov(a, rowvar=False, ddof=1))
    return (c + c.T) / 2.0


def joint_covariance(cov, d_u: int) -> np.ndarray:
    """Checked, exactly symmetric copy of the joint covariance of (U, V).

    U is the first ``d_u`` coordinates.  A non-square, non-finite or
    asymmetric matrix (beyond 1e-8 of its largest entry) raises
    InvalidCovarianceError; a split that leaves U or V empty raises
    ParameterError.
    """
    c = np.asarray(cov, dtype=float)
    if c.ndim < 2:
        c = np.atleast_2d(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCovarianceError("joint covariance must be a square matrix")
    if not 0 < d_u < c.shape[0]:
        raise ParameterError(f"d_u = {d_u} leaves a side of the {c.shape[0]}-dim joint empty")
    size = float(np.abs(c).max())
    if not math.isfinite(size):
        raise InvalidCovarianceError("joint covariance must be finite")
    ct = c.T
    # c - c.T is antisymmetric, so its largest entry is its largest magnitude
    if float((c - ct).max()) > 1e-8 * size:
        raise InvalidCovarianceError("joint covariance is not symmetric")
    return (c + ct) / 2.0


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix from its lower triangle.

    The gufunc ``numpy.linalg.eigvalsh`` calls (LAPACK ``dsyevd``), without
    that function's per-call checks.  LAPACK's failure to converge fills
    the result with NaN, and raises ``LinAlgError`` here.
    """
    w = eigvalsh_lo(m)
    if math.isnan(w[0]):
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _slogdet(m: np.ndarray) -> tuple[float, float]:
    """``(sign, ln|det m|)``: the gufunc ``numpy.linalg.slogdet`` calls.

    One LAPACK ``dgetrf``; an exactly singular factor gives ``(0.0, -inf)``.
    """
    sign, logdet = slogdet(m)
    return float(sign), float(logdet)


def _mean_of(values: list[float]) -> float:
    """Mean summed left to right, numpy's order for fewer than 8 terms."""
    return reduce(add, values, 0.0) / len(values)


def gaussian_mi_bound(cov, d_u: int, *, details: bool = False):
    """Gaussian lower bound on mutual information from a joint covariance.

    ``cov`` is the covariance of (U, V) with U's ``d_u`` coordinates first.
    Computes ``0.5 * ln(|C_U| |C_V| / |C_[U,V]|)`` in nats, which is the
    mutual information of a jointly Gaussian pair with the same covariance.
    A relative ridge (``COV_RIDGE`` times a block's mean variance)
    stabilizes the determinants of near-singular empirical blocks;
    Hadamard-Fischer guarantees the value is nonnegative for any PSD joint
    matrix.  Every check is relative to the matrix's own scale, so scaling
    ``cov`` leaves the value unchanged up to rounding: the joint must be
    PSD to 1e-8 of its mean variance, and each ridged block's smallest
    eigenvalue must exceed 1e-12 of that block's mean variance.

    The eigenvalues and determinants come from the LAPACK gufuncs behind
    ``numpy.linalg.eigvalsh`` and ``slogdet`` (``_eigvalsh``, ``_slogdet``),
    called without those functions' per-call checks; the traces come from
    one read of the diagonal.  A bi-terminal Givens try calls this once, so
    its cost is mostly per-call overhead.

    With ``details=True`` returns ``(value, info)``, where ``info`` holds
    only a ``saturated`` flag: the ridged joint covariance is numerically
    singular, i.e. a correlation sits at 1.
    """
    jnt = joint_covariance(cov, d_u)
    d = jnt.shape[0]
    du, dv = d_u, d - d_u
    diag = jnt.diagonal().tolist()
    scale = max(_mean_of(diag), 1e-300)
    eig_joint = _eigvalsh(jnt)
    if eig_joint[0] < -1e-8 * scale:
        raise InvalidCovarianceError(
            f"joint covariance is not PSD (min eigenvalue {eig_joint[0]:.3e})"
        )

    var_u, var_v = _mean_of(diag[:du]), _mean_of(diag[du:])
    diagonal = jnt.reshape(-1)[:: d + 1]  # a view: jnt is a fresh C-contiguous copy
    diagonal += [COV_RIDGE * var_u] * du + [COV_RIDGE * var_v] * dv
    cu, cv = jnt[:du, :du], jnt[du:, du:]

    for name, m, var in (("C_U", cu, var_u), ("C_V", cv, var_v)):
        if _eigvalsh(m)[0] <= 1e-12 * var:
            raise InvalidCovarianceError(f"{name} is singular even after ridge")

    sign_u, ld_u = _slogdet(cu)
    sign_v, ld_v = _slogdet(cv)
    sign_j, ld_j = _slogdet(jnt)
    if min(sign_u, sign_v, sign_j) <= 0:
        raise InvalidCovarianceError("covariance determinant is not positive")
    value = max(0.0, 0.5 * (ld_u + ld_v - ld_j))

    if not details:
        return value
    return value, {"saturated": bool(_eigvalsh(jnt)[0] <= 1e-8 * scale * 10.0)}


def mi_from_correlations(rho) -> float:
    """Nats of Gaussian MI implied by canonical correlations: -0.5 sum ln(1 - rho_i^2)."""
    r = np.atleast_1d(np.asarray(rho, dtype=float))
    r = np.clip(np.abs(r), 0.0, SATURATION_RHO)
    return float(-0.5 * np.log1p(-r * r).sum())


def w2_to_normal(x) -> float:
    """Squared 2-Wasserstein distance of a sample to the standard normal.

    Quantile form: the sorted sample is compared against the normal scores
    at the mid-rank plotting positions, so a sample sitting exactly on those
    positions scores 0.  Diagnostic only.
    """
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    n = xs.size
    if n < 2:
        raise InsufficientDataError("w2_to_normal needs at least 2 samples")
    grid = rank_quantile_grid(n)
    return float(np.mean((xs - grid) ** 2))


def ks_normal_stat(x) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the standard normal."""
    from scipy.special import ndtr  # imported here: a 1-D bound loads no scipy

    xs = np.sort(np.asarray(x, dtype=float).ravel())
    n = xs.size
    if n < 1:
        raise InsufficientDataError("ks_normal_stat needs at least 1 sample")
    cdf = ndtr(xs)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class PairedSamples:
    """Aligned observation blocks of X (n x d_x) and Y (n x d_y).

    The blocks are read-only copies of the input, so the smoothers built on
    them can be kept for the life of the object (see ``smoothers``).
    """

    x: np.ndarray
    y: np.ndarray
    _smoothers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim == 1:
            y = y[:, None]
        if x.ndim != 2 or y.ndim != 2:
            raise DomainError("PairedSamples blocks must be 1-D or 2-D arrays")
        if x.shape[0] != y.shape[0]:
            raise DomainError("PairedSamples blocks must share the sample axis")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("PairedSamples values must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def smoothers(self, knn_k: int | None = None):
        """``(KnnSmoother(x, k), KnnSmoother(y, k))``, built once per k.

        The one default k: ``default_knn_k(n)`` when both blocks are 1-D,
        else ``experiment_knn_k(n, max(d_x, d_y))``.  Every fit on these
        samples with the same k shares one neighbor structure per block
        (sorted windows for a 1-D block, a kNN table for a wider one).
        """
        if knn_k is None:
            d = max(self.d_x, self.d_y)
            knn_k = default_knn_k(self.n) if d == 1 else experiment_knn_k(self.n, d)
        if knn_k not in self._smoothers:
            self._smoothers[knn_k] = (KnnSmoother(self.x, knn_k), KnnSmoother(self.y, knn_k))
        return self._smoothers[knn_k]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_y(self) -> int:
        return self.y.shape[1]
