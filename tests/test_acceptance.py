"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line (pytest -v shows them per criterion).  The
experiment bundles are computed once per session through
``reproduce.run_experiment``, the code path the CLI's `reproduce` command
renders; each row reads the reports of `bound`/`curve` commands.
"""

import time

import numpy as np
import pytest

from gaussbound import reproduce as repro
from gaussbound.gib import gib_curve, gib_spectrum
from gaussbound.ib_discrete import quadrature_discretize, reverse_anneal
from reference import BivariateGaussianModel, discretize_samples, gib_mi_nats

TIME_BUDGETS = {
    "corr-xy": 1.0,
    "true-mi": 5.0,
    "naive": 5.0,
    "ace": 30.0,
    "agce": 180.0,
    "offshelf": 60.0,
}


@pytest.fixture(scope="session")
def sec44_rows():
    return {row.id: row for row in repro.run_experiment("sec4.4")}


@pytest.fixture(scope="session")
def sec54_gauss_rows():
    t0 = time.perf_counter()
    rows = repro.run_experiment("sec5.4-gauss")
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sec54_exp_rows():
    t0 = time.perf_counter()
    rows = repro.run_experiment("sec5.4-exp")
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sec61_gm_rows():
    t0 = time.perf_counter()
    rows = repro.run_experiment("sec6.1-gm")
    return rows, time.perf_counter() - t0


def _check(row, budget=None):
    assert row.passed, f"{row.id}: value {row.value} misses target {row.target}"
    if budget is not None:
        assert row.elapsed_s < budget, f"{row.id}: {row.elapsed_s:.1f}s over {budget}s budget"
    print(f"PASS {row.id}: {row.value} (target {row.target}, {row.elapsed_s:.1f}s)")


@pytest.mark.parametrize("row_id", ["corr-xy", "true-mi", "naive", "ace", "agce", "offshelf"])
def test_criterion_1_to_6_mixture_experiment(sec44_rows, row_id):
    _check(sec44_rows[row_id], TIME_BUDGETS[row_id])


def test_criterion_7_scrambled_gaussian(sec54_gauss_rows):
    rows, elapsed = sec54_gauss_rows
    binding = [r for r in rows if r.binding]
    assert len(binding) == 5
    for row in binding:
        _check(row)
    assert elapsed < 300.0, f"sec5.4-gauss took {elapsed:.0f}s (budget 300s)"


def test_criterion_8_exponential_biterminal(sec54_exp_rows):
    rows, elapsed = sec54_exp_rows
    for row in rows:
        _check(row)
    assert elapsed < 600.0, f"sec5.4-exp took {elapsed:.0f}s (budget 600s)"


def test_criterion_9_gib_vs_discrete_reference():
    t0 = time.perf_counter()
    spec = gib_spectrum([[1.0, 0.6], [0.6, 1.0]], 1)
    analytic = gib_curve(spec)
    pmf, _ = quadrature_discretize(BivariateGaussianModel(0.6), m=30)
    annealed, _ = reverse_anneal(pmf)
    grid = np.linspace(0.05, 1.0, 40)
    gap = np.max(np.abs(analytic.ity_at(grid) - annealed.ity_at(grid)))
    elapsed = time.perf_counter() - t0
    assert gap <= 0.02, f"curve gap {gap:.4f} nats exceeds 0.02"
    assert elapsed < 120.0
    print(f"PASS gib-vs-discrete: max |dI_TY| = {gap:.5f} nats over I_TX in [0.05, 1.0] ({elapsed:.0f}s)")


def test_criterion_10_curve_ordering(sec61_gm_rows):
    rows, elapsed = sec61_gm_rows
    for row in rows:
        _check(row)
    assert elapsed < 600.0, f"sec6.1-gm took {elapsed:.0f}s (budget 600s)"


class TestCriterion11PropertySuite:
    """Consolidated no-paper-numbers properties at their exact tolerances."""

    def test_rank_exactness_and_monotone_invariance(self):
        from gaussbound import marginal_gaussianize
        from gaussbound.stats_core import rank_quantile_grid

        rng = np.random.default_rng(0)
        x = rng.exponential(1.0, 2001)
        u, _ = marginal_gaussianize(x, seed=1)
        assert np.array_equal(np.sort(u), rank_quantile_grid(2001))
        g = np.expm1(x) + 2.0 * x  # strictly increasing
        assert np.array_equal(u, marginal_gaussianize(g, seed=7)[0])
        print("PASS property: rank exactness + monotone invariance")

    def test_agce_trace_monotone(self, gm_mix_agce):
        assert np.all(np.diff(gm_mix_agce.trace) >= -1e-4)
        print("PASS property: AGCE objective trace monotone")

    def test_hill_climb_trace_monotone(self):
        from gaussbound import biterminal_gaussianize

        rng = np.random.default_rng(2)
        u = rng.exponential(1.0, (1000, 2))
        v = u + rng.exponential(1.0, (1000, 2))
        _, _, _, trace = biterminal_gaussianize(u, v, outer_iters=3, inner_tries=15, seed=3)
        segments = {}
        for outer, side, value in trace:
            segments.setdefault((outer, side), []).append(value)
        for values in segments.values():
            assert np.all(np.diff(values) > 0)
        print("PASS property: hill-climb accepted trace strictly increasing")

    def test_mi_bound_nonnegative_and_invariant(self):
        from gaussbound import covariance, gaussian_mi_bound

        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            joint = a @ a.T / 6
            assert gaussian_mi_bound(joint, 2) >= 0.0
        u = rng.standard_normal((500, 2))
        v = u + rng.standard_normal((500, 2))
        base = gaussian_mi_bound(covariance(np.hstack([u, v])), 2)
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        mapped = gaussian_mi_bound(covariance(np.hstack([u @ q.T, v])), 2)
        assert abs(base - mapped) <= 1e-8
        print("PASS property: Gaussian MI bound nonnegative + linearly invariant")

    def test_curve_dpi_and_concavity(self):
        c_xy = np.diag([0.8, 0.5])
        spec = gib_spectrum(np.block([[np.eye(2), c_xy], [c_xy, np.eye(2)]]), 2)
        curve = gib_curve(spec)
        assert np.all(curve.i_ty <= curve.i_tx + 1e-9)
        assert np.all(curve.i_ty <= gib_mi_nats(spec) + 1e-9)
        curve.validate(concavity_tol=1e-6)
        print("PASS property: IB curve DPI + concavity")

    def test_ib_data_processing_lemma(self):
        from gaussbound import JointPmf

        rng = np.random.default_rng(6)
        schedule = np.logspace(2.3, -0.1, 25)
        for _ in range(3):
            pmf = JointPmf(rng.random((4, 4)))
            psi = rng.permutation([0, 1, 1, 2])
            merged = np.zeros((4, 3))
            for y_from, y_to in enumerate(psi):
                merged[:, y_to] += pmf.p[:, y_from]
            curve, _ = reverse_anneal(pmf, beta_schedule=schedule)
            curve_psi, _ = reverse_anneal(JointPmf(merged), beta_schedule=schedule)
            top = min(curve.i_tx.max(), curve_psi.i_tx.max())
            grid = np.linspace(0.0, top, 25)
            assert np.all(curve_psi.ity_at(grid) <= curve.ity_at(grid) + 2e-3)
        print("PASS property: IB data-processing lemma on random 4x4 pmfs")

    def test_separately_vs_jointly_gaussian_curve(self, gm_mix_agce):
        # the analytic curve of the Gaussianized pair's covariance sits below
        # the annealed curve of the (binned) Gaussianized samples
        rho = float(np.corrcoef(gm_mix_agce.u, gm_mix_agce.v)[0, 1])
        analytic = gib_curve(gib_spectrum([[1.0, rho], [rho, 1.0]], 1))
        pmf = discretize_samples(gm_mix_agce.u, gm_mix_agce.v, bins=24)
        annealed, _ = reverse_anneal(pmf)
        top = min(analytic.i_tx.max(), annealed.i_tx.max())
        grid = np.linspace(0.01, top, 40)
        excess = float(np.max(analytic.ity_at(grid) - annealed.ity_at(grid)))
        assert excess <= 0.02, f"jointly Gaussian curve exceeds the sample curve by {excess:.4f}"
        print("PASS property: separately >= jointly Gaussian IB curve (0.02 slack)")
