"""Rotation-based Gaussianization: separate and objective-aware bi-terminal."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaussbound import (
    biterminal_gaussianize,
    covariance,
    expgamma_sample,
    gaussian_mi_bound,
    joint_objective,
    marginal_gaussianize,
    separate_gaussianize,
)
from gaussbound.biterminal import (
    _rank_rows,
    _try_scorer,
    default_normality_tol,
    givens_rotation,
    random_rotation,
)
from gaussbound.errors import DomainError, InvalidCovarianceError, ParameterError
from gaussbound.stats_core import ks_normal_stat, rank_quantile_grid
from reference import discretize_samples


def is_rank_exact(col):
    return np.array_equal(np.sort(col), rank_quantile_grid(len(col)))


def reference_layer(block, rotation, rng):
    """The layer as first written, on an (n, d) block: rotate, then rank
    each column by ``lexsort((rng.random(n), column))``, the normal-scores
    rule of ``marginal_gaussianize``, drawing the tie-breaks of every column."""
    rotated = block @ rotation.T
    n, d = rotated.shape
    out = np.empty_like(rotated)
    for c in range(d):
        out[np.lexsort((rng.random(n), rotated[:, c])), c] = rank_quantile_grid(n)
    return out


def reference_probe_stats(block, rng):
    probe = block @ random_rotation(block.shape[1], rng).T
    return np.asarray([ks_normal_stat(probe[:, c]) for c in range(block.shape[1])])


def reference_separate(block, max_layers, tol, seed):
    """The separate loop as first written, on an (n, d) block: per layer a
    rotation, ``reference_layer`` and a probe from ``default_rng(seed)``,
    stopping once this block's probe passes.  Returns (out, layers, converged)."""
    rng = np.random.default_rng(seed)
    for layer in range(1, max_layers + 1):
        block = reference_layer(block, random_rotation(block.shape[1], rng), rng)
        if reference_probe_stats(block, rng).max() <= tol:
            return block, layer, True
    return block, max_layers, False


@pytest.fixture(scope="module")
def gaussian_blocks():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5000, 2))
    return x, x + rng.standard_normal((5000, 2))


class TestSeparateGaussianize:
    def test_already_gaussian_converges_in_one_layer(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((10_000, 2))
        _, chain = separate_gaussianize(block, seed=2)
        assert chain.converged
        assert chain.layers == 1

    def test_univariate_reduces_to_marginal(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(1.0, 500)
        out, chain = separate_gaussianize(x, seed=4)
        direct = marginal_gaussianize(x, seed=0)[0]
        # 1-D rotations are +-1, absorbed by the rank map up to a global sign
        corr = np.corrcoef(out[:, 0], direct)[0, 1]
        assert abs(abs(corr) - 1.0) <= 1e-12
        assert is_rank_exact(out[:, 0])

    def test_uniform_square_dependence_decreases(self):
        # coordinate-dependence proxy (pairwise histogram MI) decreases over
        # the layer stack; single random rotations are not guaranteed to make
        # progress, so the band covers estimator noise plus idle layers
        rng = np.random.default_rng(5)
        block = rng.uniform(-1, 1, (30_000, 2))

        def pairwise_mi(rows):
            return discretize_samples(rows[0], rows[1], bins=16).mutual_information()

        proxies = []
        cur = np.ascontiguousarray(block.T)
        chain_rng = np.random.default_rng(6)
        for _ in range(40):
            cur = _rank_rows(random_rotation(2, chain_rng) @ cur, chain_rng)
            proxies.append(pairwise_mi(cur))
        diffs = np.diff(proxies)
        assert np.all(diffs <= 0.02)
        assert proxies[-1] <= 0.01
        assert proxies[-1] <= 0.1 * proxies[0]

    def test_output_rank_exact(self):
        rng = np.random.default_rng(7)
        block = rng.exponential(1.0, (400, 3))
        out, _ = separate_gaussianize(block, max_layers=5, seed=8)
        for c in range(3):
            assert is_rank_exact(out[:, c])

    @pytest.mark.parametrize("normality_tol", [None, -1.0])
    @pytest.mark.parametrize("kind", ["1d", "tied_2d", "3d"])
    def test_matches_reference(self, kind, normality_tol):
        # tol <= 0 runs all 6 layers; with the default tolerance the 3-D
        # block stops after 5 and the others after 1
        rng = np.random.default_rng(0)
        block = {
            "1d": lambda: rng.exponential(1.0, (500, 1)),
            "tied_2d": lambda: rng.integers(0, 8, (600, 2)).astype(float),
            "3d": lambda: rng.gamma(2.0, 1.0, (600, 3)) @ rng.standard_normal((3, 3)),
        }[kind]()
        out, chain = separate_gaussianize(block, max_layers=6, normality_tol=normality_tol, seed=10)
        tol = default_normality_tol(block.shape[0]) if normality_tol is None else normality_tol
        ref, layers, converged = reference_separate(block, 6, tol, seed=10)
        assert np.array_equal(out, ref)
        assert (chain.layers, chain.converged) == (layers, converged)
        if kind == "3d" and normality_tol is None:
            assert 2 <= layers < 6

    def test_non_finite_rejected(self):
        block = np.random.default_rng(21).standard_normal((200, 2))
        block[7, 1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            separate_gaussianize(block, seed=1)
        with pytest.raises(DomainError, match="finite"):
            biterminal_gaussianize(block, np.ones((200, 2)), seed=1)


class TestJointObjective:
    def test_saturation_when_equal(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(2000)
        assert joint_objective(u, u, details=True)[1]["saturated"]

    def test_independent_near_zero(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((10_000, 2))
        v = rng.standard_normal((10_000, 2))
        assert joint_objective(u, v) <= 0.02

    def test_matches_gaussian_mi_bound(self, gaussian_blocks):
        u, v = gaussian_blocks
        assert joint_objective(u, v) == gaussian_mi_bound(covariance(np.hstack([u, v])), 2)

    def test_rotation_invariance_before_regaussianizing(self, gaussian_blocks):
        u, v = gaussian_blocks
        rng = np.random.default_rng(11)
        ru = random_rotation(2, rng)
        rv = random_rotation(2, rng)
        assert abs(joint_objective(u @ ru.T, v @ rv.T) - joint_objective(u, v)) <= 1e-8

    def test_needs_enough_rows(self):
        with pytest.raises(ParameterError):
            joint_objective(np.zeros((3, 2)), np.zeros((3, 2)))


class TestBiterminal:
    def test_gaussian_objective_preserved(self, gaussian_blocks):
        u, v = gaussian_blocks
        before = joint_objective(u, v)
        bu, bv, chains, _ = biterminal_gaussianize(u, v, outer_iters=10, inner_tries=15, seed=12)
        after = joint_objective(bu, bv)
        assert abs(after - before) <= 0.05
        assert chains[0].converged and chains[1].converged

    def test_beats_separate_on_exp_model(self):
        wins = 0
        for s in range(3):
            ms = expgamma_sample(4000, 2, seed=40 + s)
            su, _ = separate_gaussianize(ms.samples.x, max_layers=10, seed=50 + s)
            sv, _ = separate_gaussianize(ms.samples.y, max_layers=10, seed=60 + s)
            bu, bv, _, _ = biterminal_gaussianize(
                ms.samples.x, ms.samples.y, outer_iters=10, inner_tries=25, seed=70 + s
            )
            wins += joint_objective(bu, bv) >= joint_objective(su, sv)
        assert wins >= 2

    def test_inner_tries_zero_matches_separate(self):
        rng = np.random.default_rng(13)
        u = rng.exponential(1.0, (500, 2))
        v = rng.exponential(1.0, (500, 2))
        layers = 4
        # normality_tol <= 0 disables early stopping so both paths run the
        # same number of layers from the same per-side seed streams
        bu, bv, _, _ = biterminal_gaussianize(
            u, v, outer_iters=layers, inner_tries=0, normality_tol=-1.0, seed=14
        )
        ss_u, ss_v = np.random.SeedSequence(14).spawn(2)
        su, _ = separate_gaussianize(u, max_layers=layers, normality_tol=-1.0, seed=ss_u)
        sv, _ = separate_gaussianize(v, max_layers=layers, normality_tol=-1.0, seed=ss_v)
        assert np.array_equal(bu, su)
        assert np.array_equal(bv, sv)

    def test_univariate_blocks_make_no_tries(self):
        # a 1-column block has no Givens move, so tries would only redraw
        # its tie-breaks; tied columns make that visible
        rng = np.random.default_rng(19)
        u = rng.integers(0, 40, 600).astype(float)
        v = u + rng.integers(0, 40, 600)
        runs = [
            biterminal_gaussianize(u, v, outer_iters=3, inner_tries=tries, normality_tol=-1.0, seed=20)
            for tries in (40, 0)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][3] == runs[1][3]

    def test_accepted_trace_strictly_increasing(self):
        rng = np.random.default_rng(15)
        u = rng.exponential(1.0, (1500, 2))
        v = u + rng.exponential(1.0, (1500, 2))
        _, _, _, trace = biterminal_gaussianize(u, v, outer_iters=4, inner_tries=20, seed=16)
        segments = {}
        for outer, side, value in trace:
            segments.setdefault((outer, side), []).append(value)
        for values in segments.values():
            assert np.all(np.diff(values) > 0)

    def test_outputs_rank_exact_and_rotations_orthogonal(self):
        rng = np.random.default_rng(17)
        u = rng.exponential(1.0, (400, 2))
        v = rng.exponential(1.0, (400, 2))
        bu, bv, _, _ = biterminal_gaussianize(u, v, outer_iters=3, inner_tries=5, seed=18)
        for block in (bu, bv):
            for c in range(2):
                assert is_rank_exact(block[:, c])


def reference_biterminal(u, v, seed):
    """The hill climb as first written, with the default budgets: (n, d)
    blocks, every try ranked by ``reference_layer`` and scored by
    ``joint_objective`` of the restacked pair.  Returns (u_out, v_out, trace)."""
    tol = default_normality_tol(u.shape[0])
    ss_u, ss_v = np.random.SeedSequence(seed).spawn(2)
    rngs = {"u": np.random.default_rng(ss_u), "v": np.random.default_rng(ss_v)}
    blocks = {"u": u, "v": v}
    trace = []
    for outer in range(30):
        for side in ("u", "v"):
            rng, block = rngs[side], blocks[side]
            d = block.shape[1]
            rotation = random_rotation(d, rng)
            cand = reference_layer(block, rotation, rng)
            obj = joint_objective(**{**blocks, side: cand})
            trace.append((outer, side, obj))
            for _ in range(40 if d >= 2 else 0):
                i, j = rng.choice(d, size=2, replace=False)
                theta = rng.uniform(-np.pi, np.pi)
                rot2 = givens_rotation(d, int(i), int(j), theta) @ rotation
                cand2 = reference_layer(block, rot2, rng)
                obj2 = joint_objective(**{**blocks, side: cand2})
                if obj2 > obj:
                    rotation, cand, obj = rot2, cand2, obj2
                    trace.append((outer, side, obj))
            blocks[side] = cand
        stats_u = reference_probe_stats(blocks["u"], rngs["u"])
        stats_v = reference_probe_stats(blocks["v"], rngs["v"])
        if stats_u.max() <= tol and stats_v.max() <= tol:
            break
    return blocks["u"], blocks["v"], trace


def _off_grid_pair(d_u, d_v, seed, n=600):
    """Dependent blocks with column means near 5, far from the rank grid."""
    rng = np.random.default_rng(seed)
    u = 5.0 + rng.exponential(1.0, (n, d_u)) @ rng.standard_normal((d_u, d_u))
    v = 5.0 + rng.gamma(2.0, 1.0, (n, d_v)) + u[:, :1]
    return u, v


def _rows_of(block):
    """An (n, d) block in the hill climb's (d, n) layout."""
    return np.ascontiguousarray(block.T)


class TestTryScorer:
    """Each Givens try is scored from cross-products against the fixed side.

    The scorer takes (d, n) blocks and candidates; ``joint_objective`` takes
    the same data as (n, d) blocks.
    """

    @pytest.mark.parametrize("d_u, d_v", [(1, 3), (3, 2), (2, 2)])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_matches_joint_objective(self, d_u, d_v, side):
        u, v = _off_grid_pair(d_u, d_v, seed=30 + 3 * d_u + d_v)
        blocks = {"u": u, "v": v}
        score = _try_scorer({k: _rows_of(b) for k, b in blocks.items()}, side)
        rng = np.random.default_rng(31)
        block = _rows_of(blocks[side])
        for _ in range(4):
            # an on-grid candidate, as a try makes, and one off the grid
            noisy = block + rng.standard_normal(block.shape)
            cand = _rank_rows(random_rotation(block.shape[0], rng) @ noisy, rng)
            for c in (cand, noisy):
                expected = joint_objective(**{**blocks, side: c.T})
                assert abs(score(c) - expected) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_saturated_candidate(self, d, side):
        # cand == other: the joint is singular, so the ridge sets the value
        # and rounding of order eps * scale shifts it by about that / ridge.
        # Both paths must agree at that resolution, or raise alike.
        u, v = _off_grid_pair(d, d, seed=40 + d)
        blocks = {"u": u, "v": v}
        rows = {k: _rows_of(b) for k, b in blocks.items()}
        cand = blocks["v" if side == "u" else "u"]
        replaced = {**blocks, side: cand}
        assert joint_objective(**replaced, details=True)[1]["saturated"]
        try:
            expected = joint_objective(**replaced)
        except InvalidCovarianceError as exc:
            with pytest.raises(type(exc)):
                _try_scorer(rows, side)(_rows_of(cand))
            return
        got = _try_scorer(rows, side)(_rows_of(cand))
        assert expected > 5.0
        assert abs(got - expected) <= 1e-3

    @pytest.mark.parametrize("model", ["exponential", "exp_gamma", "exp_gamma_d3"])
    def test_hill_climb_matches_reference(self, model):
        # 5, 7 and 2 layers, with 25, 52 and 22 accepted moves.  On 3-D
        # blocks a Givens pick leaves half a 32-bit draw buffered, which a
        # skipped tie-break draw must keep.
        if model == "exponential":
            seed = 5
            rng = np.random.default_rng(seed)
            u = rng.exponential(1.0, (600, 2))
            v = u + rng.exponential(1.0, (600, 2))
        else:
            seed, d = (2, 3) if model == "exp_gamma_d3" else (1, 2)
            ms = expgamma_sample(600, d, seed=seed)
            u, v = ms.samples.x, ms.samples.y
        bu, bv, chains, trace = biterminal_gaussianize(u, v, seed=seed)
        ru, rv, ref_trace = reference_biterminal(u, v, seed=seed)
        assert np.array_equal(bu, ru)
        assert np.array_equal(bv, rv)
        assert len(trace) == len(ref_trace)
        assert [t[:2] for t in trace] == [t[:2] for t in ref_trace]
        assert max(abs(a[2] - b[2]) for a, b in zip(trace, ref_trace)) <= 1e-12
        assert chains[0].layers == chains[1].layers == trace[-1][0] + 1


class TestBiterminalInputs:
    def test_mismatched_rows_rejected(self):
        rng = np.random.default_rng(34)
        with pytest.raises(DomainError, match="rows"):
            biterminal_gaussianize(rng.standard_normal((200, 2)), rng.standard_normal((150, 2)), seed=1)

    def test_more_dimensions_than_samples_rejected(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ParameterError, match="more samples"):
            biterminal_gaussianize(rng.standard_normal((100, 60)), rng.standard_normal((100, 40)), seed=1)

    @pytest.mark.parametrize("outer_iters", [0, -1])
    def test_outer_iters_below_one_rejected(self, outer_iters):
        u = np.random.default_rng(36).standard_normal((200, 2))
        with pytest.raises(ParameterError, match="outer_iters"):
            biterminal_gaussianize(u, u + 1.0, outer_iters=outer_iters, seed=1)

    def test_negative_inner_tries_rejected(self):
        u = np.random.default_rng(37).standard_normal((200, 2))
        with pytest.raises(ParameterError, match="inner_tries"):
            biterminal_gaussianize(u, u + 1.0, inner_tries=-3, seed=1)

    @pytest.mark.parametrize("max_layers", [0, -2])
    def test_separate_max_layers_below_one_rejected(self, max_layers):
        block = np.random.default_rng(38).standard_normal((200, 2))
        with pytest.raises(ParameterError, match="max_layers"):
            separate_gaussianize(block, max_layers=max_layers, seed=1)

    def test_nonpositive_normality_tol_allowed(self):
        # a tolerance <= 0 only switches off early stopping
        rng = np.random.default_rng(39)
        u = rng.standard_normal((200, 2))
        _, _, chains, _ = biterminal_gaussianize(u, u + rng.standard_normal((200, 2)), outer_iters=2,
                                                 inner_tries=1, normality_tol=-1.0, seed=1)
        assert [c.layers for c in chains] == [2, 2]
        assert not chains[0].converged


def test_rotation_helpers():
    rng = np.random.default_rng(19)
    r = random_rotation(4, rng)
    assert_allclose(r @ r.T, np.eye(4), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) <= 1e-10
    g = givens_rotation(3, 0, 2, 0.7)
    assert_allclose(g @ g.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(g) - 1.0) <= 1e-10


def test_default_tol_value():
    assert abs(default_normality_tol(10_000) - 1.5 * 1.36 / 100.0) <= 1e-12
