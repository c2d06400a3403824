"""Foundational statistics: quantiles, Gaussianization, covariance, bounds."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtri

from gaussbound import (
    DomainError,
    InsufficientDataError,
    InvalidCovarianceError,
    MonotoneMap,
    PairedSamples,
    ParameterError,
    covariance,
    gaussian_mi_bound,
    gib_spectrum,
    marginal_gaussianize,
    mi_from_correlations,
    w2_to_normal,
)
from gaussbound import stats_core
from gaussbound.stats_core import (
    COV_RIDGE,
    NATS_PER_BIT,
    _eigvalsh,
    _ndtri,
    _slogdet,
    ks_normal_stat,
    normal_scores,
    rank_order,
    rank_quantile_grid,
)
from reference import correlations_saturated

# frozen from a 30-digit mpmath bisection on the erf-based normal CDF
MPMATH_Q_975 = 1.959963984540054
MPMATH_Q_00135 = -2.999999555858321
MPMATH_Q_16 = -0.9674215661017012


class TestNormalQuantile:
    """Phi^{-1} as the package computes it: the normal-scores rank grid."""

    def test_median_is_zero(self):
        assert rank_quantile_grid(5)[2] == 0.0

    def test_against_bisection_oracle(self):
        # plotting position (i - 0.5) / n: 19.5 / 20 = 0.975 and
        # 6749.5 / 5e6 = 0.0013499, both correctly rounded
        assert abs(rank_quantile_grid(20)[-1] - MPMATH_Q_975) <= 1e-9
        q_00135 = rank_quantile_grid(5_000_000)[6749]
        assert abs(q_00135 - (-3.0)) <= 1e-3
        assert abs(q_00135 - MPMATH_Q_00135) <= 1e-9

    def test_domain_errors(self):
        for bad in (0, 1):
            with pytest.raises(InsufficientDataError):
                rank_quantile_grid(bad)

    def test_vectorized(self):
        out = rank_quantile_grid(4)  # levels 0.125, 0.375, 0.625, 0.875
        assert_allclose(out, -out[::-1], atol=1e-12)

    def test_cached_grid_is_read_only(self):
        grid = rank_quantile_grid(6)
        assert grid is rank_quantile_grid(6)
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_grid_is_scipy_ndtri_bit_for_bit(self):
        for n in [*range(2, 3001), 10**4, 10**5, 10**6]:
            expected = ndtri((np.arange(1, n + 1) - 0.5) / n)
            assert rank_quantile_grid(n).tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize(
        "edge",
        # the central rational's ends, and where the tails' x = sqrt(-2 ln y) crosses 8
        [np.exp(-2.0), 1.0 - np.exp(-2.0), stats_core._EXP_M2, 1.0 - stats_core._EXP_M2,
         np.exp(-32.0), 1.0 - np.exp(-32.0)],
    )
    def test_ndtri_bit_for_bit_at_branch_edges(self, edge):
        # every double within 200 ulps of the edge, short of 1
        p = (np.float64(edge).view(np.int64) + np.arange(-200, 201)).view(np.float64)
        p = p[p < 1.0]
        assert _ndtri(p).tobytes() == ndtri(p).tobytes()

    def test_ndtri_bit_for_bit_on_random_levels(self):
        rng = np.random.default_rng(26)
        tails = np.exp(-rng.uniform(0.0, 700.0, 100_000))
        for p in (rng.random(200_000), tails, 1.0 - tails):
            p = p[(p > 0.0) & (p < 1.0)]
            assert _ndtri(p).tobytes() == ndtri(p).tobytes()


def lexsort_gaussianize(x, rng):
    """Reference rank rule: sort by (x, one uniform draw per sample).

    Returns ``(u, knots_in, knots_out)``; a tied group's knot is its first
    sorted value and the mean of its grid scores.
    """
    xs = np.asarray(x, dtype=float)
    n = xs.size
    order = np.lexsort((rng.random(n), xs))
    grid = ndtri((np.arange(1, n + 1) - 0.5) / n)
    u = np.empty(n)
    u[order] = grid
    xs_sorted = xs[order]
    starts = np.flatnonzero(np.r_[True, xs_sorted[1:] != xs_sorted[:-1]])
    counts = np.diff(np.append(starts, n))
    return u, xs_sorted[starts], np.add.reduceat(grid, starts) / counts


_SIZES = {"min_size": 2, "max_size": 400}


def _ulp_chain(start, steps):
    """``start``, then each value 1-4 ulps above the one before."""
    values = [start]
    for k in steps:
        x = values[-1]
        for _ in range(k):
            x = float(np.nextafter(x, np.inf))
        values.append(x)
    return values


def _with_low_bits(value, lows):
    """``value`` with its low 9 bits replaced by each of ``lows`` in turn.

    rank_order keeps all but the low ceil(log2 n) <= 9 bits of a key for
    n <= 400, so these values differ only in the bits it drops.
    """
    bits = np.float64(value).view(np.int64) & ~np.int64(511)
    return [float(np.int64(bits | low).view(np.float64)) for low in lows]


# finite values around +-0: zeros, subnormals and the smallest normals
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, 1e-310, -1e-310,
         2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -1e-300]
_POWER_OF_TWO_SIZES = st.integers(1, 8).flatmap(lambda k: st.sampled_from([2**k, 2**k + 1]))

RANK_COLUMNS = st.one_of(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), unique=True, **_SIZES),
    st.lists(st.integers(-4, 4).map(float), **_SIZES),
    st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]), **_SIZES).map(lambda v: v + [0.0, -0.0]),
    st.tuples(st.floats(-10, 10), st.integers(2, 400)).map(lambda t: [t[0]] * t[1]),
    # packed-key clashes: distinct values whose keys share every kept bit,
    # in an order the index bits alone would get wrong
    st.tuples(st.floats(-1e6, 1e6), st.lists(st.integers(1, 4), min_size=1, max_size=399))
    .map(lambda t: _ulp_chain(*t))
    .flatmap(st.permutations),
    st.lists(st.sampled_from(_TINY), **_SIZES),
    st.tuples(st.floats(-1e3, 1e3), st.lists(st.integers(0, 511), **_SIZES))
    .map(lambda t: _with_low_bits(*t)),
    st.tuples(st.floats(-1e3, 1e3), _POWER_OF_TWO_SIZES.flatmap(
        lambda n: st.lists(st.integers(0, 511), min_size=n, max_size=n)))
    .map(lambda t: _with_low_bits(*t)),
)


class EqualDraws(np.random.Generator):
    """A generator whose uniform draws all tie, so ties fall to the index."""

    def random(self, size=None):
        return np.full(size, 0.5)


class LowBitDraws(np.random.Generator):
    """A generator whose draws differ only in bits the tie-break keys drop.

    Each draw is 2^-20 (1 + j 2^-52) for a random j < 2^30, so
    floor(draw 2^53) keeps only j's top 11 bits, and a column with enough
    tied members drops those too: every pair of keys in a tie group then
    clashes, and only the exact re-sort can order them.
    """

    def random(self, size=None):
        return 2.0**-20 * (1.0 + self.integers(0, 2**30, size) * 2.0**-52)


_DRAWS = {"pcg64": np.random.Generator, "equal": EqualDraws, "low-bit": LowBitDraws}


def _make_draws(kind, seed):
    return _DRAWS[kind](np.random.PCG64(seed))


def _tied_column(n_groups=2_000, n_single=2_000, seed=19):
    """A shuffled column of ``n_groups`` tie groups of 2-6 copies each,
    among ``n_single`` untied non-integers: n = 10,000."""
    sizes = 2 + np.arange(n_groups) % 5
    tied = np.repeat(np.arange(n_groups, dtype=float), sizes)
    single = np.arange(n_single) + 0.5
    return np.random.default_rng(seed).permutation(np.concatenate([tied, single]))


class TestRankOrder:
    """The shared tie-break rank step of marginal_gaussianize and the Givens tries."""

    @given(RANK_COLUMNS, st.integers(0, 2**32 - 1), st.sampled_from(list(_DRAWS)))
    @settings(max_examples=100, deadline=None)
    def test_order_is_the_lexsort_permutation(self, x, seed, draws):
        self.check_against_lexsort(np.asarray(x, dtype=float), lambda: _make_draws(draws, seed))

    @pytest.mark.parametrize("draws", list(_DRAWS))
    def test_large_tied_column(self, draws):
        # 8,000 tied members in 2,000 groups: the tie-break keys drop draw
        # bits, which RANK_COLUMNS' short columns rarely make them do
        self.check_against_lexsort(_tied_column(), lambda: _make_draws(draws, 20))

    @pytest.mark.parametrize("n", [300, 512, 513])
    def test_descent_inside_a_clash_run(self, n):
        # values that differ only in the low ceil(log2 n) bits, in reverse
        # index order: every key clashes, and the index bits put each
        # adjacent pair out of value order
        shift = (n - 1).bit_length()
        bits = np.float64(3.75).view(np.int64) & ~np.int64((1 << shift) - 1)
        xs = (bits | np.arange(n - 1, -1, -1, dtype=np.int64)).view(np.float64)
        assert np.all(np.diff(xs) < 0)
        self.check_against_lexsort(xs, lambda: np.random.default_rng(n))
        assert np.array_equal(rank_order(xs, np.random.default_rng(0)), np.arange(n)[::-1])

    @staticmethod
    def check_against_lexsort(xs, make):
        rng, ref_rng = make(), make()
        order = rank_order(xs, rng)
        assert np.array_equal(order, np.lexsort((ref_rng.random(xs.size), xs)))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_untied_column_leaves_the_draws_state_on_pcg64(self):
        xs = np.random.default_rng(1).standard_normal(1000)
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        rank_order(xs, rng)
        ref_rng.random(1000)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()

    def test_buffered_half_draw_survives(self):
        # a 32-bit draw leaves half a 64-bit output buffered; advancing the
        # bit generator would drop it, rng.random(n) keeps it
        xs = np.random.default_rng(3).standard_normal(500)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for g in (rng, ref_rng):
            g.integers(0, 10, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"]
        rank_order(xs, rng)
        ref_rng.random(500)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.integers(0, 2**31, dtype=np.int32) == ref_rng.integers(0, 2**31, dtype=np.int32)

    def test_other_bit_generator_still_draws(self):
        xs = np.random.default_rng(5).standard_normal(300)
        rng = np.random.Generator(np.random.MT19937(1))
        ref_rng = np.random.Generator(np.random.MT19937(1))
        rank_order(xs, rng)
        ref_rng.random(300)
        assert rng.bit_generator.state["state"]["pos"] == ref_rng.bit_generator.state["state"]["pos"]
        assert np.array_equal(rng.bit_generator.state["state"]["key"], ref_rng.bit_generator.state["state"]["key"])


class TestMarginalGaussianize:
    @given(RANK_COLUMNS, st.integers(0, 2**32 - 1), st.sampled_from(list(_DRAWS)))
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_reference_bit_for_bit(self, x, seed, draws):
        rng, ref_rng = _make_draws(draws, seed), _make_draws(draws, seed)
        u, fitted = marginal_gaussianize(np.asarray(x), rng)
        ref_u, ref_in, ref_out = lexsort_gaussianize(x, ref_rng)
        assert u.tobytes() == ref_u.tobytes()
        assert fitted.knots_in.tobytes() == ref_in.tobytes()  # the sign of a zero too
        assert fitted.knots_out.tobytes() == ref_out.tobytes()
        # one rng.random(n) per call, tied or not
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("draws", list(_DRAWS))
    def test_large_tied_column_knots(self, draws):
        xs = _tied_column()
        _, fitted = marginal_gaussianize(xs, _make_draws(draws, 20))
        _, ref_in, ref_out = lexsort_gaussianize(xs, _make_draws(draws, 20))
        assert fitted.knots_in.tobytes() == ref_in.tobytes()
        assert fitted.knots_out.tobytes() == ref_out.tobytes()

    @given(RANK_COLUMNS, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_normal_scores_are_its_scores(self, x, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u = normal_scores(x, rng)
        assert u.tobytes() == marginal_gaussianize(x, ref_rng)[0].tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("entry", [normal_scores, marginal_gaussianize])
    def test_rejects_short_or_non_finite_columns(self, entry):
        with pytest.raises(InsufficientDataError):
            entry([1.0], seed=0)
        with pytest.raises(DomainError):
            entry([1.0, np.nan, 2.0], seed=0)

    def test_three_point_rank_formula(self):
        u, _ = marginal_gaussianize([13.0, -4.0, 7.0], seed=0)
        grid = rank_quantile_grid(3)
        assert u[1] == grid[0] and u[2] == grid[1] and u[0] == grid[2]
        assert abs(grid[0] - MPMATH_Q_16) <= 1e-9
        assert grid[1] == 0.0

    def test_sorted_output_is_grid_bit_for_bit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(997)
        u, _ = marginal_gaussianize(x, seed=2)
        assert np.array_equal(np.sort(u), rank_quantile_grid(997))

    def test_ks_statistic_on_gaussian_input(self):
        rng = np.random.default_rng(5)
        u, _ = marginal_gaussianize(rng.standard_normal(10_000), seed=0)
        assert ks_normal_stat(u) <= 1.36 / np.sqrt(10_000) * 1.5

    def test_constant_input_randomizes_ranks(self):
        n = 100
        u1, _ = marginal_gaussianize(np.zeros(n), seed=11)
        u2, _ = marginal_gaussianize(np.zeros(n), seed=12)
        grid = rank_quantile_grid(n)
        assert np.array_equal(np.sort(u1), grid)
        assert np.array_equal(np.sort(u2), grid)
        assert not np.array_equal(u1, u2)

    def test_mean_and_variance_window(self):
        rng = np.random.default_rng(8)
        x = rng.exponential(2.0, 400)
        u, _ = marginal_gaussianize(x, seed=0)
        assert abs(u.mean()) <= 3 / np.sqrt(400)
        assert 0.8 <= u.var() <= 1.2

    @given(st.sampled_from(["affine", "cube", "exp"]))
    @settings(max_examples=12, deadline=None)
    def test_monotone_invariance(self, kind):
        rng = np.random.default_rng(abs(hash(kind)) % 2**32)
        x = rng.standard_normal(257)
        g = {"affine": 3.0 * x + 1.0, "cube": x**3 + x, "exp": np.exp(x / 2)}[kind]
        u_x, _ = marginal_gaussianize(x, seed=1)
        u_g, _ = marginal_gaussianize(g, seed=99)  # seed-free for distinct inputs
        assert np.array_equal(u_x, u_g)

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientDataError):
            marginal_gaussianize([1.0], seed=0)


class TestMonotoneMap:
    def test_roundtrip_identity_on_knots(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.standard_normal(50))
        _, fitted = marginal_gaussianize(x, seed=1)
        inverse = MonotoneMap(fitted.knots_out, fitted.knots_in)
        back = inverse(fitted(fitted.knots_in))
        assert np.max(np.abs(back - fitted.knots_in)) <= 1e-10

    def test_extrapolation_modes(self):
        m_clamp = MonotoneMap([0.0, 1.0], [0.0, 2.0])
        assert m_clamp(5.0) == 2.0
        assert m_clamp(-1.0) == 0.0

    def test_rejects_nonincreasing_knots(self):
        with pytest.raises(DomainError):
            MonotoneMap([0.0, 0.0], [0.0, 1.0])


class TestCovariance:
    def test_two_point_example(self):
        c = covariance(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert_allclose(c, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_monte_carlo_identity(self):
        rng = np.random.default_rng(2)
        c = covariance(rng.standard_normal((100_000, 3)))
        assert np.max(np.abs(c - np.eye(3))) <= 0.02

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 2))
        assert_allclose(covariance(2.5 * x), 6.25 * covariance(x), rtol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientDataError):
            covariance(np.ones((1, 2)))


class TestGaussianMiBound:
    def test_independence_is_zero(self):
        assert gaussian_mi_bound(np.eye(2), 1) == 0.0

    def test_univariate_known_value(self):
        cov = [[1.0, 0.703], [0.703, 1.0]]
        bits = gaussian_mi_bound(cov, 1) / NATS_PER_BIT
        assert abs(bits - 0.4917) <= 1e-4
        assert abs(gaussian_mi_bound(cov, 1) - 0.3408) <= 1e-4

    def test_two_dim_diagonal(self):
        cov = np.kron([[1.0, 0.5], [0.5, 1.0]], np.eye(2))
        assert abs(gaussian_mi_bound(cov, 2) - (-np.log(0.75))) <= 1e-10

    def test_non_psd_rejected(self):
        with pytest.raises(InvalidCovarianceError):
            gaussian_mi_bound([[1.0, 1.5], [1.5, 1.0]], 1)

    @pytest.mark.parametrize("fn", [gaussian_mi_bound, gib_spectrum])
    def test_malformed_joint_rejected(self, fn):
        with pytest.raises(InvalidCovarianceError):
            fn([[1.0, 0.5], [0.2, 1.0]], 1)
        with pytest.raises(InvalidCovarianceError):
            fn(np.ones((2, 3)), 1)

    @pytest.mark.parametrize("fn", [gaussian_mi_bound, gib_spectrum])
    @pytest.mark.parametrize("d_u", [0, 3])
    def test_empty_side_rejected(self, fn, d_u):
        with pytest.raises(ParameterError):
            fn(np.eye(3), d_u)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_on_random_psd(self, seed):
        rng = np.random.default_rng(seed)
        du, dv = rng.integers(1, 4, size=2)
        a = rng.standard_normal((du + dv, du + dv + 2))
        joint = a @ a.T / (du + dv + 2)
        assert gaussian_mi_bound(joint, du) >= 0.0

    @staticmethod
    def _random_well_conditioned(rng):
        q1 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        q2 = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        return q1 @ np.diag(rng.uniform(0.5, 2.0, 2)) @ q2

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_invariance_under_linear_maps(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((600, 2))
        v = u @ rng.standard_normal((2, 2)) + 0.5 * rng.standard_normal((600, 2))
        base = gaussian_mi_bound(covariance(np.hstack([u, v])), 2)
        a = self._random_well_conditioned(rng)
        b = self._random_well_conditioned(rng)
        mapped = gaussian_mi_bound(covariance(np.hstack([u @ a.T, v @ b.T])), 2)
        assert abs(base - mapped) <= 1e-8 * max(1.0, base)

    @given(st.integers(0, 10_000))
    @example(1512)
    @settings(max_examples=25, deadline=None)
    def test_matches_canonical_correlations(self, seed):
        # joint covariance with canonical correlations below 0.9 and
        # well-conditioned marginal blocks
        rng = np.random.default_rng(seed)
        du, dv = (int(d) for d in rng.integers(1, 4, size=2))
        cross = np.zeros((du, dv))
        np.fill_diagonal(cross, rng.uniform(0.0, 0.9, min(du, dv)))
        mix = np.zeros((du + dv, du + dv))
        mix[:du, :du] = np.linalg.qr(rng.standard_normal((du, du)))[0] * rng.uniform(0.5, 2.0, du)
        mix[du:, du:] = np.linalg.qr(rng.standard_normal((dv, dv)))[0] * rng.uniform(0.5, 2.0, dv)
        cov = mix @ np.block([[np.eye(du), cross], [cross.T, np.eye(dv)]]) @ mix.T
        # canonical correlations from cov alone: singular values of the
        # whitened cross block L_U^-1 C_UV L_V^-T, with each marginal block
        # ridged the way gaussian_mi_bound ridges it (COV_RIDGE times its
        # mean variance); the un-ridged blocks differ by up to 2.1e-9 nats
        c_u = cov[:du, :du] + COV_RIDGE * np.trace(cov[:du, :du]) / du * np.eye(du)
        c_v = cov[du:, du:] + COV_RIDGE * np.trace(cov[du:, du:]) / dv * np.eye(dv)
        l_u = np.linalg.cholesky(c_u)
        l_v = np.linalg.cholesky(c_v)
        whitened = np.linalg.solve(l_u, np.linalg.solve(l_v, cov[du:, :du]).T)
        rho = np.linalg.svd(whitened, compute_uv=False)
        assert abs(gaussian_mi_bound(cov, du) - mi_from_correlations(rho)) <= 1e-12

    def test_saturation_details(self):
        u = np.random.default_rng(0).standard_normal(500)
        value, info = gaussian_mi_bound(covariance(np.column_stack([u, u])), 1, details=True)
        assert info["saturated"] and value > 5.0


def reference_gaussian_mi_bound(cov, d_u):
    """The bound through ``numpy.linalg``: the checks, ridge and
    scale-relative thresholds of ``gaussian_mi_bound``, with ``eigvalsh``,
    ``slogdet`` and ``np.trace`` in place of its gufunc calls and its sums
    of the diagonal."""
    c = np.atleast_2d(np.asarray(cov, dtype=float))
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCovarianceError("not square")
    if not 0 < d_u < c.shape[0]:
        raise ParameterError("empty side")
    size = np.abs(c).max()
    if not np.isfinite(size):
        raise InvalidCovarianceError("not finite")
    if np.abs(c - c.T).max() > 1e-8 * size:
        raise InvalidCovarianceError("not symmetric")
    jnt = (c + c.T) / 2.0
    d = jnt.shape[0]
    scale = max(float(np.trace(jnt)) / d, 1e-300)
    if np.linalg.eigvalsh(jnt)[0] < -1e-8 * scale:
        raise InvalidCovarianceError("not PSD")
    du, dv = d_u, d - d_u
    var_u = np.trace(jnt[:du, :du]) / du
    var_v = np.trace(jnt[du:, du:]) / dv
    cu = jnt[:du, :du] + COV_RIDGE * var_u * np.eye(du)
    cv = jnt[du:, du:] + COV_RIDGE * var_v * np.eye(dv)
    jnt[:du, :du] = cu
    jnt[du:, du:] = cv
    for m, var in ((cu, var_u), (cv, var_v)):
        if np.linalg.eigvalsh(m)[0] <= 1e-12 * var:
            raise InvalidCovarianceError("singular block")
    (s_u, ld_u), (s_v, ld_v), (s_j, ld_j) = (np.linalg.slogdet(m) for m in (cu, cv, jnt))
    if min(s_u, s_v, s_j) <= 0:
        raise InvalidCovarianceError("determinant not positive")
    return max(0.0, 0.5 * (ld_u + ld_v - ld_j))


def _random_joint(rng, du, dv):
    """A well-conditioned PSD joint: canonical correlations below 0.9, and
    each block a random rotation of variances in [0.25, 4]."""
    cross = np.zeros((du, dv))
    np.fill_diagonal(cross, rng.uniform(0.0, 0.9, min(du, dv)))
    mix = np.zeros((du + dv, du + dv))
    mix[:du, :du] = np.linalg.qr(rng.standard_normal((du, du)))[0] * rng.uniform(0.5, 2.0, du)
    mix[du:, du:] = np.linalg.qr(rng.standard_normal((dv, dv)))[0] * rng.uniform(0.5, 2.0, dv)
    return mix @ np.block([[np.eye(du), cross], [cross.T, np.eye(dv)]]) @ mix.T


def _joint_case(kind, seed, du, dv):
    """A joint covariance of one kind: valid, PSD-violating, asymmetric,
    with a zero (singular) block, or saturated (V a copy of U)."""
    rng = np.random.default_rng(seed)
    if kind == "saturated":
        a = rng.standard_normal((du, du + 3))
        block = a @ a.T
        return np.block([[block, block], [block, block]]), du
    joint = _random_joint(rng, du, dv)
    d = du + dv
    if kind == "not_psd":
        w, q = np.linalg.eigh(joint)
        w[0] = -rng.uniform(1e-6, 1.0) * w.mean()
        joint = (q * w) @ q.T
    elif kind == "asymmetric":
        i, j = rng.choice(d, size=2, replace=False)
        joint[i, j] += rng.uniform(1e-6, 1.0) * np.abs(joint).max()
    elif kind == "singular_block":
        side = slice(0, du) if rng.random() < 0.5 else slice(du, d)
        joint[side, :] = 0.0
        joint[:, side] = 0.0
    return joint, du


JOINT_KINDS = ["valid", "not_psd", "asymmetric", "singular_block", "saturated"]


class TestLapackCalls:
    """``_eigvalsh`` and ``_slogdet`` are the gufuncs behind numpy.linalg's."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_match_numpy_linalg_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for _ in range(50):
            a = rng.standard_normal((d + 2, d + 5))
            psd = a @ a.T
            # a leading block is a strided view, as gaussian_mi_bound passes them
            for m in (psd, psd[:d, :d]):
                assert _eigvalsh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()
                sign, logdet = np.linalg.slogdet(m)
                assert np.array(_slogdet(m)).tobytes() == np.array([sign, logdet]).tobytes()

    @pytest.mark.parametrize("m", [np.zeros((3, 3)), np.ones((2, 2)), np.diag([1.0, 0.0, 2.0])])
    def test_singular_matrix(self, m):
        assert _slogdet(m) == (0.0, -np.inf)

    def test_eigenvalue_failure_raises(self, monkeypatch):
        # LAPACK's failure to converge leaves NaN eigenvalues
        monkeypatch.setattr(stats_core, "eigvalsh_lo", lambda m: np.full(m.shape[0], np.nan))
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_mi_bound(np.eye(2), 1)


class TestLeanBound:
    """gaussian_mi_bound calls numpy's LAPACK gufuncs directly; the public
    numpy.linalg functions, which call the same gufuncs, are the reference,
    so the two agree exactly.
    """

    @given(st.sampled_from(JOINT_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_reference(self, kind, seed, du, dv):
        joint, d_u = _joint_case(kind, seed, du, dv)
        try:
            expected = reference_gaussian_mi_bound(joint, d_u)
        except (InvalidCovarianceError, ParameterError) as exc:
            with pytest.raises(type(exc)):
                gaussian_mi_bound(joint, d_u)
            return
        assert gaussian_mi_bound(joint, d_u) == expected
        if kind == "saturated":
            assert gaussian_mi_bound(joint, d_u, details=True)[1]["saturated"]

    @pytest.mark.parametrize("kind", JOINT_KINDS)
    def test_each_kind_reaches_its_branch(self, kind):
        outcomes = set()
        for seed in range(20):
            try:
                outcomes.add(("value", reference_gaussian_mi_bound(*_joint_case(kind, seed, 2, 2)) > 5.0))
            except InvalidCovarianceError as exc:
                outcomes.add(("error", str(exc)))
        expected = {
            "valid": {("value", False)},
            "not_psd": {("error", "not PSD")},
            "asymmetric": {("error", "not symmetric")},
            "singular_block": {("error", "singular block")},
            "saturated": {("value", True)},
        }[kind]
        assert outcomes == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        joint = np.eye(3)
        joint[0, 2] = joint[2, 0] = bad
        with pytest.raises(InvalidCovarianceError, match="finite"):
            gaussian_mi_bound(joint, 1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.floats(-20.0, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariant(self, seed, du, dv, log10_s):
        joint = _random_joint(np.random.default_rng(seed), du, dv)
        base = gaussian_mi_bound(joint, du)
        assume(base >= 0.1)
        scaled = gaussian_mi_bound(joint * 10.0**log10_s, du)
        assert abs(scaled - base) <= 1e-12 * base

    @pytest.mark.parametrize("scale", [1e-13, 1e-4, 1.0, 1e13])
    def test_checks_hold_at_every_scale(self, scale):
        # asymmetric by 30% of its largest entry, and an eigenvalue of -1e-6
        # of its scale: each was let through below scale 1
        with pytest.raises(InvalidCovarianceError, match="not symmetric"):
            gaussian_mi_bound(np.array([[1.0, 0.5], [0.2, 1.0]]) * scale, 1)
        with pytest.raises(InvalidCovarianceError, match="not PSD"):
            gaussian_mi_bound(np.array([[1.0, 1.0 + 1e-6], [1.0 + 1e-6, 1.0]]) * scale, 1)

    @pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e13])
    def test_tiny_and_huge_scales_accepted(self, scale):
        # the singular-block and PSD checks used to be absolute below scale 1,
        # so 1e-13 raised "C_U is singular even after ridge"
        joint = np.array([[1.0, 0.5], [0.5, 1.0]])
        base = gaussian_mi_bound(joint, 1)
        assert abs(base - (-0.5 * np.log(0.75))) <= 1e-10  # the ridge moves it ~3e-11
        assert abs(gaussian_mi_bound(joint * scale, 1) - base) <= 1e-12 * base
        assert_allclose(gib_spectrum(joint * scale, 1).lam, gib_spectrum(joint, 1).lam, rtol=1e-12)


class TestCorrelationHelpers:
    def test_mi_from_correlations_matches_formula(self):
        assert abs(mi_from_correlations([0.6]) - (-0.5 * np.log(0.64))) <= 1e-12

    def test_saturation_clamp(self):
        assert np.isfinite(mi_from_correlations([1.0]))
        assert correlations_saturated([1.0])
        assert not correlations_saturated([0.999])


class TestW2ToNormal:
    def test_zero_on_plotting_positions(self):
        assert w2_to_normal(rank_quantile_grid(512)) == 0.0

    def test_translation(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(10_000) + 1.5
        assert abs(w2_to_normal(x) - 1.5**2) <= 0.05

    def test_scaling(self):
        rng = np.random.default_rng(22)
        x = 2.0 * rng.standard_normal(10_000)
        assert abs(w2_to_normal(x) - 1.0) <= 0.05


class TestPairedSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_rejected(self, bad, side):
        blocks = {"x": np.arange(5.0), "y": np.arange(5.0)}
        blocks[side][2] = bad
        with pytest.raises(DomainError):
            PairedSamples(blocks["x"], blocks["y"])

    @given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=15, deadline=None)
    def test_non_finite_rejected_anywhere(self, n, d_x, d_y, data):
        rng = np.random.default_rng(n)
        blocks = {"x": rng.standard_normal((n, d_x)), "y": rng.standard_normal((n, d_y))}
        PairedSamples(blocks["x"], blocks["y"])
        side = data.draw(st.sampled_from(["x", "y"]))
        row = data.draw(st.integers(0, n - 1))
        col = data.draw(st.integers(0, blocks[side].shape[1] - 1))
        blocks[side][row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(DomainError):
            PairedSamples(blocks["x"], blocks["y"])
