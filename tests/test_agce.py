"""Alternating Gaussianized conditional expectations and its bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbound import (
    DomainError,
    MonotoneMap,
    PairedSamples,
    ParameterError,
    agce_fit_1d,
    agce_step,
    gm1d_sample,
    marginal_gaussianize,
    mi_from_correlations,
    naive_lower_1d,
    offshelf_lower_1d,
)
from gaussbound import smoother
from gaussbound.agce import FittedTransform
from gaussbound.cca_ace import ace_fit, ace_upper_bound
from gaussbound.smoother import KnnSmoother, default_knn_k
from gaussbound.stats_core import NATS_PER_BIT, rank_quantile_grid


def is_rank_exact(u):
    return np.array_equal(np.sort(u), rank_quantile_grid(len(u)))


class TestAgceStep:
    def test_identity_pair_is_fixed_point(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        psi = marginal_gaussianize(x, seed=1)[0]
        step = agce_step(psi, KnnSmoother(x, 1), seed=2)
        assert np.array_equal(step.u, psi)
        assert abs(step.rho - 1.0) <= 1e-9

    def test_gaussian_step_keeps_correlation(self, gaussian_pair_06):
        x = gaussian_pair_06.x[:, 0]
        y = gaussian_pair_06.y[:, 0]
        psi = marginal_gaussianize(y, seed=3)[0]
        step = agce_step(psi, KnnSmoother(x[:, None], default_knn_k(x.size)), seed=4)
        assert abs(step.rho - 0.6) <= 0.03
        assert is_rank_exact(step.u)

    def test_never_decreases_with_prev(self, gaussian_pair_06):
        x = gaussian_pair_06.x
        y = gaussian_pair_06.y[:, 0]
        psi = marginal_gaussianize(y, seed=5)[0]
        good_u = marginal_gaussianize(gaussian_pair_06.x[:, 0], seed=6)[0]
        step = agce_step(psi, KnnSmoother(x, 3), seed=7, prev_u=good_u)
        rho_prev = float(np.corrcoef(good_u, psi)[0, 1])
        assert step.rho >= rho_prev - 1e-12

    def test_degenerate_conditional_expectation_flag(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        psi = marginal_gaussianize(rng.standard_normal(300), seed=9)[0]
        step = agce_step(psi, KnnSmoother(x, 300), seed=10)  # full window
        assert step.independent
        assert step.rho == 0.0

    def test_converged_fixed_point_residual(self, gm_mix_samples, gm_mix_agce):
        sm = KnnSmoother(gm_mix_samples.x, default_knn_k(gm_mix_samples.n))
        step = agce_step(gm_mix_agce.v, sm, seed=11, prev_u=gm_mix_agce.u)
        assert abs(step.rho - gm_mix_agce.rho) < 2e-4  # < 2 * tol


class TestAgceFit1d:
    def test_mixture_model(self, gm_mix_ace, gm_mix_agce):
        assert gm_mix_agce.rho >= 0.60
        assert mi_from_correlations([gm_mix_agce.rho]) / NATS_PER_BIT >= 0.36
        assert gm_mix_agce.rho <= gm_mix_ace.rho[0] + 0.02

    def test_gaussian_model_self_optimum(self, gaussian_pair_06):
        pair = agce_fit_1d(gaussian_pair_06, n_restarts=3, seed=12)
        assert abs(pair.rho - 0.6) <= 0.03
        bits = mi_from_correlations([pair.rho]) / NATS_PER_BIT
        assert abs(bits - (-0.5 * np.log2(1 - 0.36))) <= 0.05

    def test_independent_pair(self, independent_pair):
        pair = agce_fit_1d(independent_pair, n_restarts=2, seed=13)
        assert pair.rho <= 0.1
        assert mi_from_correlations([pair.rho]) / NATS_PER_BIT <= 0.01

    def test_trace_monotone(self, gm_mix_agce):
        assert np.all(np.diff(gm_mix_agce.trace) >= -1e-4)

    def test_outputs_rank_exact(self, gm_mix_agce):
        assert is_rank_exact(gm_mix_agce.u)
        assert is_rank_exact(gm_mix_agce.v)

    def test_transforms_evaluable_on_new_points(self, gm_mix_samples, gm_mix_agce):
        xs = np.linspace(-2, 2, 7)
        vals = gm_mix_agce.phi(xs[:, None])
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_transform_rejects_non_finite_points(self, gm_mix_agce, bad):
        assert isinstance(gm_mix_agce.phi, FittedTransform)
        with pytest.raises(ParameterError):
            gm_mix_agce.phi(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("n_restarts", [1, 3, 8])
    def test_kept_ace_start_has_transforms(self, n_restarts):
        # restart 0 wins and every step keeps its Gaussianized ACE start, so
        # no step fits a map; the off-shelf transforms stand in for it
        samples = gm1d_sample(1200, 10, 0.1, seed=11).samples
        pair = agce_fit_1d(samples, n_restarts=n_restarts, seed=12)
        assert pair.rho > 0.6
        assert np.corrcoef(pair.phi(samples.x), pair.u)[0, 1] >= 0.99
        assert np.corrcoef(pair.psi(samples.y), pair.v)[0, 1] >= 0.99
        held_out = gm1d_sample(2000, 10, 0.1, seed=13).samples
        rho_held_out = np.corrcoef(pair.phi(held_out.x), pair.psi(held_out.y))[0, 1]
        assert rho_held_out >= pair.rho - 0.1

    def test_random_restart_without_v_step_has_psi(self):
        # the winning random restart keeps its start scores on every v-step,
        # so no step fits a psi; the restart regresses those scores instead
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(300), rng.standard_normal(300)
        pair = agce_fit_1d(PairedSamples(x, y), n_restarts=8, seed=6)
        assert np.all(np.isfinite(pair.psi(y))) and np.all(np.isfinite(pair.phi(x)))

    @pytest.mark.parametrize("case", ["fixture", "psi_restart"])
    def test_each_transform_regresses_its_own_response(self, request, case):
        # in sample, each normal-scores map sees the regression it was fitted
        # on, so it orders the points as its side's scores do
        if case == "fixture":
            samples = request.getfixturevalue("gm_mix_samples")
            pair = request.getfixturevalue("gm_mix_agce")
        else:
            samples = gm1d_sample(1500, 10, 0.1, seed=21).samples
            pair = agce_fit_1d(samples, n_restarts=3, seed=23)
        sm_x, sm_y = samples.smoothers()
        for t, sm, scores in ((pair.phi, sm_x, pair.u), (pair.psi, sm_y, pair.v)):
            fitted = t.map(sm.smooth(t.z_values))
            assert np.all(np.diff(fitted[np.argsort(scores)]) >= 0)

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
        rho = ace_fit(samples).rho
        for pair in (agce_fit_1d(samples, n_restarts=2, seed=5), offshelf_lower_1d(samples, seed=5)):
            assert np.array_equal(pair.ace.rho, rho)


class TestFittedTransformCalls:
    """A fitted transform sums its response's windows on its first call only."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        calls = {"sorts": 0, "window_sums": 0}
        build, sums = smoother._SortedSample.__init__, smoother._window_sums

        def counting_build(sample, x, k):
            calls["sorts"] += 1
            build(sample, x, k)

        def counting_sums(p, k):
            calls["window_sums"] += 1
            return sums(p, k)

        monkeypatch.setattr(smoother._SortedSample, "__init__", counting_build)
        monkeypatch.setattr(smoother, "_window_sums", counting_sums)
        return calls

    def test_first_call_sums_later_calls_reuse(self, counts):
        samples = gm1d_sample(800, 10, 0.1, seed=31).samples
        pair = agce_fit_1d(samples, n_restarts=2, seed=32)
        sorts = counts["sorts"]
        grid = np.linspace(-12.0, 12.0, 101)
        first = pair.phi(grid), pair.psi(grid)
        after_first = dict(counts)
        assert after_first["sorts"] == sorts
        for _ in range(3):
            again = pair.phi(grid), pair.psi(grid)
            for a, b in zip(first, again):
                assert a.tobytes() == b.tobytes()
        assert counts == after_first

    def test_equals_an_uncached_predict(self):
        samples = gm1d_sample(600, 10, 0.1, seed=33).samples
        pair = offshelf_lower_1d(samples, seed=34)
        q = np.random.default_rng(35).normal(0.0, 6.0, 257)
        for t in (pair.phi, pair.psi):
            expected = t.map(t.smoother.predict(q, t.z_values))
            assert t(q).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fit", [agce_fit_1d, offshelf_lower_1d])
    def test_step_table_equals_map_of_predict_on_integer_fits(self, fit):
        # integer-valued blocks tie nearly every query's window boundary, so
        # both the table gather and the per-query row mean run
        rng = np.random.default_rng(41)
        x = rng.integers(0, 25, 700).astype(float)
        y = np.round(x / 2.0 + rng.normal(0.0, 3.0, 700))
        pair = fit(PairedSamples(x, y), seed=42)
        tied = 0
        for t in (pair.phi, pair.psi):
            values = np.unique(t.smoother.x[:, 0])
            lo, hi = values[0], values[-1]
            q = np.concatenate([
                values, t.smoother.x[:50, 0],                  # on sample values
                (values[:-1] + values[1:]) / 2.0,              # midpoints
                np.repeat(values[:3], 4), np.repeat([lo + 0.3], 5),  # repeated
                [lo - 100.0, lo - 1e-9, hi + 1e-9, hi + 100.0],      # outside
                rng.uniform(lo, hi, 200),
            ])
            expected = t.map(t.smoother.predict(q, t.z_values))
            for _ in range(2):
                assert t(q).tobytes() == expected.tobytes()
            tied += _boundary_ties(t.smoother.x[:, 0], q, t.smoother.k)
        assert 0 < tied < 2 * q.size


def _boundary_ties(x, q, k):
    """How many queries' k-th and (k+1)-th nearest sample distances tie.

    Distances are taken about the sample's lower median, as the smoother
    takes them.
    """
    centre = np.sort(x)[(x.size - 1) // 2]
    d = np.sort(np.abs((x - centre)[None, :] - (q - centre)[:, None]), axis=1)
    return int(np.count_nonzero(d[:, k - 1] == d[:, k])) if k < x.size else 0


def _integer_pair(seed=41, n=700):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 25, n).astype(float)
    return PairedSamples(x, np.round(x / 2.0 + rng.normal(0.0, 3.0, n)))


class TestDerivedMap:
    """A transform's map, derived on first read, is the map the rank step builds."""

    @pytest.mark.parametrize("fit", [agce_fit_1d, offshelf_lower_1d])
    @pytest.mark.parametrize("data", ["continuous", "integer"])
    def test_knots_are_the_rank_steps_for_any_draw(self, fit, data):
        samples = gm1d_sample(900, 10, 0.1, seed=51).samples if data == "continuous" else _integer_pair()
        pair = fit(samples, seed=52)
        for t in (pair.phi, pair.psi):
            column = t.smoother.smooth(t.z_values)
            for s in (0, 1, 2):
                ref = marginal_gaussianize(column, s)[1]
                assert t.map.knots_in.tobytes() == ref.knots_in.tobytes()
                assert t.map.knots_out.tobytes() == ref.knots_out.tobytes()

    def test_signed_zero_knot_is_seed_zeros(self):
        # windows of two subnormals average to -0.0 or +0.0, one tie group;
        # only which member the draw puts first, and so the zero knot's sign,
        # depends on the draw: the derived map pins it with seed 0
        n = 400
        z = np.random.default_rng(5).choice([-5e-324, 0.0, 5e-324, 1.0, -1.0], n)
        sm = smoother.KnnSmoother(np.arange(n, dtype=float), 2)
        column = sm.smooth(z)
        assert (np.signbit(column) & (column == 0.0)).any() and (~np.signbit(column) & (column == 0.0)).any()
        t = FittedTransform(sm, z)
        q = np.array([-0.0, 0.0, 5e-324, -5e-324, 0.3, -0.3])
        signs = set()
        for s in (0, 1, 2):
            ref = marginal_gaussianize(column, s)[1]
            assert np.array_equal(t.map.knots_in, ref.knots_in)
            assert t.map.knots_out.tobytes() == ref.knots_out.tobytes()
            assert t.map(q).tobytes() == ref(q).tobytes()
            signs.add(bool(np.signbit(ref.knots_in[ref.knots_in == 0.0])[0]))
        assert signs == {True, False}  # the draw does move the sign
        assert t.map.knots_in.tobytes() == marginal_gaussianize(column, 0)[1].knots_in.tobytes()

    def test_failed_knot_check_raises_on_every_call(self, monkeypatch):
        samples = gm1d_sample(300, 10, 0.1, seed=53).samples
        t = offshelf_lower_1d(samples, seed=54).phi

        def reject(self):
            raise DomainError("MonotoneMap knots must be strictly increasing")

        monkeypatch.setattr(MonotoneMap, "__post_init__", reject)
        for _ in range(2):
            with pytest.raises(DomainError):
                t(samples.x)
        monkeypatch.undo()
        assert np.isfinite(t(samples.x)).all()


class TestNoUnreadMaps:
    """An AGCE fit builds no normal-scores map; a transform builds its own once."""

    @pytest.fixture()
    def maps_built(self, monkeypatch):
        built = [0]
        check = MonotoneMap.__post_init__

        def counting(self):
            built[0] += 1
            check(self)

        monkeypatch.setattr(MonotoneMap, "__post_init__", counting)
        return built

    def test_agce_fit_builds_none_and_a_call_builds_one(self, maps_built):
        samples = gm1d_sample(1000, 10, 0.1, seed=55).samples
        pair = agce_fit_1d(samples, n_restarts=3, seed=56)
        assert maps_built[0] == 0
        pair.phi(samples.x)
        assert maps_built[0] == 1
        pair.phi(samples.x[:10])
        assert maps_built[0] == 1
        pair.psi(samples.y)
        assert maps_built[0] == 2

    def test_agce_bound_builds_none(self, maps_built, tmp_path, capsys):
        from gaussbound import cli

        path = tmp_path / "gm1d.csv"
        assert cli.main(["gen", "--model", "gm1d", "--n", "1000", "--seed", "1", "--out", str(path)]) == 0
        assert cli.main(["bound", "--input", str(path), "--method", "agce", "--restarts", "3"]) == 0
        assert maps_built[0] == 0


class TestOffshelfAndNaive:
    def test_mixture_values(self, gm_mix_offshelf):
        assert abs(gm_mix_offshelf.rho - 0.646) <= 0.03
        bits = mi_from_correlations([gm_mix_offshelf.rho]) / NATS_PER_BIT
        assert abs(bits - 0.389) <= 0.05

    def test_sandwich(self, gm_mix_offshelf, gm_mix_agce, gm_mix_ace):
        assert gm_mix_offshelf.rho <= gm_mix_agce.rho + 1e-9
        assert gm_mix_agce.rho <= gm_mix_ace.rho[0] + 0.02

    def test_monotone_affine_gaussian_noop(self, gaussian_pair_06):
        ace = ace_fit(gaussian_pair_06, seed=15)
        off = offshelf_lower_1d(gaussian_pair_06, seed=15)
        assert abs(off.rho - ace.rho[0]) <= 0.02

    def test_naive_mixture_benchmark(self, gm_mix_samples):
        pair = naive_lower_1d(gm_mix_samples, seed=16)
        assert abs(pair.rho - 0.288) <= 0.03
        assert abs(mi_from_correlations([pair.rho]) / NATS_PER_BIT - 0.0628) <= 0.02

    @given(
        st.integers(0, 10_000),
        st.floats(0.1, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(0.1, 10.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_affine_invariance(self, seed, a, b, c, e):
        # x -> a x + b and y -> c y + e (a, c > 0) keep every rank, and every
        # 1-D neighbour window up to rounding of the distances
        s = gm1d_sample(400, 10.0, 0.1, seed=seed).samples
        t = PairedSamples(a * s.x + b, c * s.y + e)
        naive = [mi_from_correlations([naive_lower_1d(p, seed=1).rho]) for p in (s, t)]
        assert naive[0] == naive[1]
        upper = [ace_upper_bound(ace_fit(p, seed=2)) for p in (s, t)]
        assert abs(upper[0] - upper[1]) <= 1e-12

    def test_naive_beaten_by_offshelf(self, gm_mix_samples, gm_mix_offshelf):
        naive = naive_lower_1d(gm_mix_samples, seed=17)
        assert gm_mix_offshelf.rho > naive.rho + 0.2
