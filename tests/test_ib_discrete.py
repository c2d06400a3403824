"""Discrete bottleneck solver, annealing, and quadrature discretization."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from gaussbound import (
    JointPmf,
    ParameterError,
    UnsupportedModelError,
    ib_iterate,
    quadrature_discretize,
    reverse_anneal,
)
from gaussbound.ib_discrete import (
    _PLAIN_SWEEPS,
    _STATIONARY_TOL,
    _STATIONARY_WINDOW,
    _mi_rows,
    _spans_less,
    upper_concave_envelope,
)
from gaussbound.models import ExpMirrorModel, Gm1dModel
from reference import BivariateGaussianModel, discretize_samples, pmf_entropy_x


def symmetric_2x2(flip: float) -> JointPmf:
    return JointPmf(0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]]))


def grid_search_symmetric_ib(pmf: JointPmf, beta: float, grid: int = 20001):
    """Brute-force oracle for the symmetric binary bottleneck.

    By symmetry the optimal encoder is a binary symmetric channel with one
    parameter a = q(t=0 | x=0) = q(t=1 | x=1); scan it and minimize the
    Lagrangian I_TX - beta * I_TY.
    """
    a = np.linspace(0.5, 1.0, grid)
    px = pmf.p_x
    pyx = pmf.p_y_given_x

    def h2(p):
        p = np.clip(p, 1e-300, 1.0)
        q = np.clip(1.0 - p, 1e-300, 1.0)
        return -(p * np.log(p) + q * np.log(q))

    # symmetric inputs: q(t) = 1/2; I_TX = ln 2 - H2(a)
    i_tx = np.log(2.0) - h2(a)
    # q(y=0|t=0) = a p(y0|x0) + (1-a) p(y0|x1)
    qy0t0 = a * pyx[0, 0] + (1 - a) * pyx[1, 0]
    i_ty = h2(pmf.p_y[0]) - h2(qy0t0)
    lagr = i_tx - beta * i_ty
    best = int(np.argmin(lagr))
    return float(i_tx[best]), float(i_ty[best])


def reference_sweep(joint: JointPmf, beta: float, q=None, tol=1e-9, max_iter=3000, flush=True):
    """The solver as first written: scipy logsumexp softmax, Lagrangian from _mi_rows.

    With the solver's two later steps: encoder entries below 1e-300 are set
    to 0 after each softmax (unless ``flush`` is false), and a beta stops
    once I_TX and I_TY each span less than the stationary tolerance over the
    last window of sweeps.

    Returns (q(t|x), I_TX, I_TY, n_iter, Lagrangian trace, number of entries
    the flush zeroed).
    """
    px, pyx = joint.p_x, joint.p_y_given_x
    h_rows = np.sum(pyx * np.log(np.maximum(pyx, 1e-300)), axis=1)
    q = np.eye(joint.n_x) if q is None else q.copy()

    def decoder(q):
        qt = px @ q
        qyt = (q * px[:, None]).T @ pyx
        alive = qt > 0
        qyt[alive] /= qt[alive, None]
        qyt[~alive] = 1.0 / pyx.shape[1]
        return qt, qyt

    def spans_less(values):
        window = values[-_STATIONARY_WINDOW:]
        return max(window) - min(window) < _STATIONARY_TOL

    tx, ty = [], []
    flushed = 0
    qt, qyt = decoder(q)
    for n_iter in range(1, max_iter + 1):
        d = h_rows[:, None] - pyx @ np.log(np.maximum(qyt, 1e-300)).T
        logits = np.log(np.maximum(qt, 1e-300))[None, :] - beta * d
        q_new = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        if flush:
            sub_floor = (q_new > 0) & (q_new < 1e-300)
            flushed += np.count_nonzero(sub_floor)
            q_new[sub_floor] = 0.0
        qt, qyt = decoder(q_new)
        tx.append(_mi_rows(px, q_new, qt))
        ty.append(_mi_rows(qt, qyt, joint.p_y))
        delta = np.abs(q_new - q).max()
        q = q_new
        if delta < tol:
            break
        if n_iter >= _STATIONARY_WINDOW and spans_less(tx) and spans_less(ty):
            break
    trace = np.asarray(tx) - beta * np.asarray(ty)
    return q, _mi_rows(px, q, qt), _mi_rows(qt, qyt, joint.p_y), n_iter, trace, flushed


def assert_matches_plain(joint: JointPmf, solutions, check_trace=False):
    """Each beta of a warm-started run against ``reference_sweep`` from the same start.

    A beta the reference stops within ``_PLAIN_SWEEPS`` sweeps runs the same
    sweeps: the same count and, to rounding, the same information pair (and
    Lagrangian trace).  Any other beta is accelerated; it must sit within
    1e-9 nats in Lagrangian, and 1e-6 nats in I_TX and I_TY, of the reference
    run for up to 30,000 sweeps.  Returns the accelerated betas' indices.
    """
    accelerated = []
    q = None
    for k, sol in enumerate(solutions):
        _, i_tx, i_ty, n_iter, trace, _ = reference_sweep(joint, sol.beta, q)
        if n_iter <= _PLAIN_SWEEPS:
            assert sol.n_iter == n_iter
            assert abs(sol.i_tx - i_tx) <= 1e-12
            assert abs(sol.i_ty - i_ty) <= 1e-12
            if check_trace:
                assert np.max(np.abs(sol.lagrangian_trace - trace)) <= 1e-12
        else:
            _, i_tx, i_ty, _, _, _ = reference_sweep(joint, sol.beta, q, max_iter=30_000)
            lagrangian = sol.i_tx - sol.beta * sol.i_ty
            assert abs(lagrangian - (i_tx - sol.beta * i_ty)) <= 1e-9
            assert abs(sol.i_tx - i_tx) <= 1e-6
            assert abs(sol.i_ty - i_ty) <= 1e-6
            accelerated.append(k)
        q = sol.q_t_given_x
    return accelerated


def dead_cluster_case():
    """Duplicated x rows, and a start encoder with one pooled and two empty clusters.

    Rows 3-5 repeat rows 0-2; the start encoder pools rows 3-5 in one
    cluster, a mixture far (KL ~ ln 3) from every row, and leaves two
    clusters empty.  Returns (pmf, start solution, beta).
    """
    pmf = JointPmf(np.vstack([np.eye(3) + 1e-3] * 2))
    q0 = np.zeros((6, 6))
    q0[[0, 1, 2], [0, 1, 2]] = 1.0
    q0[3:, 3] = 1.0
    start = dataclasses.replace(ib_iterate(pmf, beta=1.0), q_t_given_x=q0)
    return pmf, start, 1e3


class TestIbIterate:
    def test_compression_limit(self):
        pmf = symmetric_2x2(0.1)
        sol = ib_iterate(pmf, beta=1e-6)
        assert sol.i_tx <= 1e-3 and sol.i_ty <= 1e-3

    def test_lossless_limit(self):
        rng = np.random.default_rng(0)
        pmf = JointPmf(rng.random((5, 4)))
        sol = ib_iterate(pmf, beta=1e3)
        assert abs(sol.i_ty - pmf.mutual_information()) <= 1e-3

    @pytest.mark.parametrize("beta", [2.0, 6.0])
    def test_matches_grid_search_oracle(self, beta):
        pmf = symmetric_2x2(0.1)
        sol = ib_iterate(pmf, beta=beta, tol=1e-12)
        otx, oty = grid_search_symmetric_ib(pmf, beta)
        assert abs(sol.i_tx - otx) <= 1e-3
        assert abs(sol.i_ty - oty) <= 1e-3

    def test_lagrangian_nonincreasing(self):
        rng = np.random.default_rng(1)
        pmf = JointPmf(rng.random((6, 5)))
        sol = ib_iterate(pmf, beta=3.0)
        assert np.all(np.diff(sol.lagrangian_trace) <= 1e-9)
        # an accelerated beta traces only the iterates it keeps: beta = 16.18
        # of the random-6x5 anneal, which takes 1,145 plain sweeps
        pmf = JointPmf(np.random.default_rng(11).random((6, 5)))
        _, diag = reverse_anneal(pmf, beta_schedule=np.logspace(2.3, -0.1, 12))
        sol = diag["solutions"][5]
        assert round(sol.beta, 2) == 16.18
        assert _PLAIN_SWEEPS < sol.n_iter < 1145 and sol.converged
        assert len(sol.lagrangian_trace) <= sol.n_iter
        assert np.all(np.diff(sol.lagrangian_trace) <= 1e-9)

    def test_dpi_against_pmf_mi(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            pmf = JointPmf(rng.random((4, 4)))
            for beta in (0.5, 2.0, 20.0):
                sol = ib_iterate(pmf, beta=beta)
                assert sol.i_ty <= pmf.mutual_information() + 1e-9
                assert sol.i_ty <= sol.i_tx + 1e-9

    def test_solution_invariants(self):
        rng = np.random.default_rng(3)
        pmf = JointPmf(rng.random((5, 3)))
        sol = ib_iterate(pmf, beta=4.0)
        assert_allclose(sol.q_t_given_x.sum(axis=1), 1.0, atol=1e-10)
        assert_allclose(sol.q_y_given_t.sum(axis=1), 1.0, atol=1e-10)
        assert_allclose(sol.q_t, pmf.p_x @ sol.q_t_given_x, atol=1e-9)

    def test_beta_validation(self):
        with pytest.raises(ParameterError):
            ib_iterate(symmetric_2x2(0.1), beta=0.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ParameterError, match="finite"):
            ib_iterate(symmetric_2x2(0.1), beta=beta)

    def test_init_of_another_alphabet_rejected(self):
        other = ib_iterate(JointPmf(np.full((3, 2), 1.0)), beta=2.0)
        with pytest.raises(ParameterError, match="shape"):
            ib_iterate(symmetric_2x2(0.1), beta=2.0, init=other)

    @pytest.mark.parametrize(
        "pmf",
        [
            symmetric_2x2(0.1),
            JointPmf(np.random.default_rng(11).random((6, 5))),
            quadrature_discretize(Gm1dModel(10.0, 0.1), m=16)[0],
        ],
        ids=["symmetric-2x2", "random-6x5", "gm1d-m16"],
    )
    def test_matches_reference_sweep(self, pmf):
        # a warm-started 12-beta reverse schedule: the plain betas run the
        # reference's sweeps, and the accelerated ones land on its long run
        _, diag = reverse_anneal(pmf, beta_schedule=np.logspace(2.3, -0.1, 12))
        assert_matches_plain(pmf, diag["solutions"], check_trace=True)

    def test_dead_clusters(self):
        # at beta = 1e3 the pooled mixture's weight underflows to 0
        pmf, start, beta = dead_cluster_case()
        sol = ib_iterate(pmf, beta=beta, init=start)
        assert np.count_nonzero(sol.q_t == 0.0) == 3
        assert np.isfinite([sol.i_tx, sol.i_ty]).all()
        assert np.isfinite(sol.lagrangian_trace).all()
        assert sol.i_ty <= sol.i_tx
        assert_allclose(sol.q_y_given_t.sum(axis=1), 1.0, atol=1e-12)


@pytest.fixture(scope="module")
def design_point_anneal():
    """The default anneal of the gm1d design point (mu_z, eps) = (10, 0.1), m = 32."""
    pmf, _ = quadrature_discretize(Gm1dModel(10.0, 0.1), m=32)
    _, diag = reverse_anneal(pmf)
    return pmf, diag


class TestFlushAndStop:
    @pytest.mark.parametrize(
        "case, flushes",
        [("random-6x5", False), ("gm1d-m16", True), ("dead-cluster", False), ("dead-cluster-650", True)],
    )
    def test_flush_is_bit_identical(self, case, flushes):
        # zeroing sub-floor encoder mass moves no information value, sweep count
        # or Lagrangian bit: the 12-beta schedule of the reference-sweep test,
        # or one beta from the dead-cluster start (at beta = 650 the pooled
        # cluster's weight lands near 1e-310 instead of underflowing to 0)
        if case.startswith("dead-cluster"):
            pmf, start, beta = dead_cluster_case()
            runs = [650.0 if case.endswith("650") else beta]
        else:
            if case == "random-6x5":
                pmf = JointPmf(np.random.default_rng(11).random((6, 5)))
            else:
                pmf = quadrature_discretize(Gm1dModel(10.0, 0.1), m=16)[0]
            start = None
            runs = np.logspace(2.3, -0.1, 12)
        q_on = q_off = None if start is None else start.q_t_given_x
        sol, flushed = start, 0
        for beta in runs:
            q_on, tx_on, ty_on, n_on, trace_on, count = reference_sweep(pmf, beta, q_on)
            q_off, tx_off, ty_off, n_off, trace_off, _ = reference_sweep(pmf, beta, q_off, flush=False)
            flushed += count
            assert (n_on, tx_on, ty_on) == (n_off, tx_off, ty_off)
            assert np.array_equal(trace_on, trace_off)
            sol = ib_iterate(pmf, beta, init=sol)
            q = sol.q_t_given_x
            assert not np.any((q > 0) & (q < 1e-300))
        assert (flushed > 0) == flushes

    def test_design_point_matches_reference_sweep(self, design_point_anneal):
        # the default 60-beta anneal, where betas near the cluster splits stop
        # as stationary or are accelerated
        pmf, diag = design_point_anneal
        assert any(sol.stationary for sol in diag["solutions"])
        assert assert_matches_plain(pmf, diag["solutions"])

    @pytest.mark.parametrize("beta", [1.69, 1.54])
    def test_cluster_split_betas_stop_stationary(self, design_point_anneal, beta):
        # accelerated, these betas still stop as stationary, well under the
        # 2,250 sweeps once allowed and under the plain iteration's count from
        # the same start (2,047 and 476 sweeps)
        pmf, diag = design_point_anneal
        sols = diag["solutions"]
        k = next(i for i, sol in enumerate(sols) if round(sol.beta, 2) == beta)
        sol = sols[k]
        assert sol.stationary and not sol.converged
        # and they end where the plain iteration does, given 30,000 sweeps
        _, i_tx, i_ty, n_plain, _, _ = reference_sweep(pmf, sol.beta, sols[k - 1].q_t_given_x, max_iter=30_000)
        assert sol.n_iter <= 750 and sol.n_iter < n_plain
        assert abs((sol.i_tx - sol.beta * sol.i_ty) - (i_tx - sol.beta * i_ty)) <= 1e-9
        assert abs(sol.i_tx - i_tx) <= 1e-6
        assert abs(sol.i_ty - i_ty) <= 1e-6

    def test_stop_never_fires_before_window(self, design_point_anneal):
        # restarted at its own fixed point with a tolerance no sweep can meet,
        # a beta's information pair does not move, and it stops at sweep W
        pmf = JointPmf(np.random.default_rng(11).random((6, 5)))
        fixed = ib_iterate(pmf, beta=3.0)
        assert fixed.converged
        sol = ib_iterate(pmf, beta=3.0, init=fixed, tol=1e-300)
        assert sol.stationary and not sol.converged
        assert sol.n_iter == _STATIONARY_WINDOW
        _, diag = design_point_anneal
        stopped = [s.n_iter for s in diag["solutions"] if s.stationary]
        assert stopped and min(stopped) >= _STATIONARY_WINDOW
        assert np.array_equal(diag["stationary"], [s.stationary for s in diag["solutions"]][::-1])

    def test_stop_needs_the_whole_window_still(self):
        # the rule is the span of the window, not its endpoints
        flat = [0.5] * _STATIONARY_WINDOW
        assert _spans_less(flat)
        spike = flat.copy()
        spike[_STATIONARY_WINDOW // 2] += 10 * _STATIONARY_TOL
        assert not _spans_less(spike)
        drift = [0.5 + 2 * _STATIONARY_TOL * i / _STATIONARY_WINDOW for i in range(_STATIONARY_WINDOW + 1)]
        assert not _spans_less(drift)
        assert _spans_less([0.0] + flat)  # only the last window counts

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ParameterError, match="tol"):
            ib_iterate(symmetric_2x2(0.1), beta=2.0, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_bad_max_iter_rejected(self, max_iter):
        with pytest.raises(ParameterError, match="max_iter"):
            ib_iterate(symmetric_2x2(0.1), beta=2.0, max_iter=max_iter)


class TestAcceleration:
    @pytest.fixture(scope="class")
    def random_anneal(self):
        pmf = JointPmf(np.random.default_rng(11).random((6, 5)))
        _, diag = reverse_anneal(pmf, beta_schedule=np.logspace(2.3, -0.1, 12))
        return pmf, diag["solutions"]

    def test_residual_is_the_last_sweeps_change(self, random_anneal):
        pmf = JointPmf(np.random.default_rng(1).random((6, 5)))
        a = ib_iterate(pmf, 3.0, max_iter=10)
        b = ib_iterate(pmf, 3.0, max_iter=11)
        assert b.residual == np.abs(b.q_t_given_x - a.q_t_given_x).max()
        _, sols = random_anneal
        assert all(sol.converged and sol.residual < 1e-9 for sol in sols)

    @pytest.mark.parametrize("max_iter", [_PLAIN_SWEEPS + 1, _PLAIN_SWEEPS + 2, 150, 151, 152])
    def test_every_sweep_counts_against_max_iter(self, random_anneal, max_iter):
        # beta = 16.18 is accelerated; a cut anywhere in a cycle spends
        # exactly the budget, extrapolated and rejected steps included
        pmf, sols = random_anneal
        sol = ib_iterate(pmf, sols[5].beta, init=sols[4], max_iter=max_iter)
        assert sol.n_iter == max_iter and not (sol.converged or sol.stationary)
        assert len(sol.lagrangian_trace) <= max_iter
        assert sol.residual > 1e-9

    def test_slowest_design_point_converges(self):
        # gm1d m = 32 at (9.25, 0.09): plainly, beta = 1.277 runs out its
        # 3,000 sweeps 2.4e-3 nats off in I_TX
        pmf, _ = quadrature_discretize(Gm1dModel(9.25, 0.09), m=32)
        _, diag = reverse_anneal(pmf)
        assert np.all(diag["converged"] | diag["stationary"])
        sols = diag["solutions"]
        k = next(i for i, sol in enumerate(sols) if round(sol.beta, 3) == 1.277)
        sol = sols[k]
        _, i_tx, i_ty, n_iter, _, _ = reference_sweep(pmf, sol.beta, sols[k - 1].q_t_given_x, max_iter=30_000)
        assert 3000 < n_iter < 30_000
        assert abs((sol.i_tx - sol.beta * sol.i_ty) - (i_tx - sol.beta * i_ty)) <= 1e-9
        assert abs(sol.i_tx - i_tx) <= 1e-6
        assert abs(sol.i_ty - i_ty) <= 1e-6


class TestReverseAnneal:
    def test_independent_pmf_stays_at_origin(self):
        pmf = JointPmf(np.outer([0.3, 0.7], [0.4, 0.6]))
        curve, _ = reverse_anneal(pmf, beta_schedule=np.logspace(2, 0, 12))
        assert np.all(curve.i_ty <= 1e-6)

    def test_single_huge_beta_is_lossless_endpoint(self):
        rng = np.random.default_rng(4)
        pmf = JointPmf(rng.random((4, 4)))
        curve, _ = reverse_anneal(pmf, beta_schedule=np.array([1e4]))
        assert abs(curve.i_ty[0] - pmf.mutual_information()) <= 1e-3
        assert abs(curve.i_tx[0] - pmf_entropy_x(pmf)) <= 0.05

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            reverse_anneal(symmetric_2x2(0.1), beta_schedule=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("schedule", [[200.0, np.nan, 1.0], [np.inf, 1.0], [np.nan]])
    def test_non_finite_schedule_rejected(self, schedule):
        # rejected up front, before any beta is solved
        with pytest.raises(ParameterError, match="schedule entries must be finite"):
            reverse_anneal(symmetric_2x2(0.1), beta_schedule=np.array(schedule))

    def test_curve_passes_validation(self):
        pmf = symmetric_2x2(0.1)
        curve, diag = reverse_anneal(pmf)
        curve.validate()
        assert len(diag["solutions"]) == curve.beta.size

    def test_data_processing_lemma_brute_force(self):
        # coarsening Y can only lower the curve at matched I_TX
        rng = np.random.default_rng(5)
        for trial in range(4):
            p = rng.random((4, 4))
            pmf = JointPmf(p)
            psi = rng.permutation([0, 0, 1, 2])  # deterministic map on Y's alphabet
            merged = np.zeros((4, 3))
            for y_from, y_to in enumerate(psi):
                merged[:, y_to] += pmf.p[:, y_from]
            pmf_psi = JointPmf(merged)
            schedule = np.logspace(2.3, -0.1, 30)
            curve, _ = reverse_anneal(pmf, beta_schedule=schedule)
            curve_psi, _ = reverse_anneal(pmf_psi, beta_schedule=schedule)
            top = min(curve.i_tx.max(), curve_psi.i_tx.max())
            grid = np.linspace(0.0, top, 30)
            assert np.all(curve_psi.ity_at(grid) <= curve.ity_at(grid) + 2e-3)


class TestQuadratureDiscretize:
    def test_scalar_gaussian_mi(self):
        pmf, _ = quadrature_discretize(BivariateGaussianModel(0.6), m=32)
        assert abs(pmf.mutual_information() - 0.22314355) <= 3e-3

    def test_independent_product(self):
        pmf, _ = quadrature_discretize(BivariateGaussianModel(0.0), m=16)
        assert pmf.mutual_information() <= 1e-10

    def test_upward_convergence_gaussian(self):
        mis = [
            quadrature_discretize(BivariateGaussianModel(0.6), m=m)[0].mutual_information()
            for m in (16, 32, 64)
        ]
        assert np.all(np.diff(mis) >= -1e-3)
        assert abs(mis[-1] - 0.22314355) <= 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "stated pmf MI of 1.66 +- 0.05 bits is not what point sampling "
            "gives: the correlated branch's conditional scale (0.1) is finer "
            "than the node spacing, so the pmf MI aliases up to 1.732 bits at "
            "m=32 (1.830 at m=16, 1.928 at m=24; m=64 exceeds the 4096-bin "
            "budget); the 1.66-bit anchor is the continuous MI, which "
            "gm1d_true_mi reproduces (1.665 bits)"
        ),
    )
    def test_mixture_pmf_mi_as_specified(self):
        pmf, _ = quadrature_discretize(Gm1dModel(10.0, 0.1), m=32)
        mi_bits = pmf.mutual_information() / np.log(2.0)
        assert abs(mi_bits - 1.66) <= 0.05

    def test_exp_model_uses_quantile_fallback(self):
        pmf, diag = quadrature_discretize(ExpMirrorModel(), m=24)
        assert set(diag["fallback_axes"]) == {"x", "y"}
        # point sampling on a smooth conditional tracks the analytic MI
        assert abs(pmf.mutual_information() - np.euler_gamma) <= 0.12

    def test_bin_budget_enforced(self):
        with pytest.raises(ParameterError):
            quadrature_discretize(Gm1dModel(10.0, 0.1), m=64)
        with pytest.raises(ParameterError):
            quadrature_discretize(BivariateGaussianModel(0.3), m=4)

    def test_unsupported_model(self):
        class Opaque:
            pass

        with pytest.raises(UnsupportedModelError):
            quadrature_discretize(Opaque(), m=16)


class TestJointPmf:
    def test_prunes_zero_rows_and_renormalizes(self):
        p = np.array([[0.2, 0.2], [0.0, 0.0], [0.3, 0.3]])
        pmf = JointPmf(p)
        assert pmf.n_x == 2
        assert_allclose(pmf.p.sum(), 1.0, atol=1e-15)

    def test_mutual_information_of_independent(self):
        pmf = JointPmf(np.outer([0.5, 0.5], [0.25, 0.75]))
        assert abs(pmf.mutual_information()) <= 1e-15

    def test_discretize_samples_recovers_dependence(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20_000)
        y = 0.8 * x + 0.6 * rng.standard_normal(20_000)
        pmf = discretize_samples(x, y, bins=20)
        analytic = -0.5 * np.log(1 - 0.64)
        assert abs(pmf.mutual_information() - analytic) <= 0.06


def test_upper_concave_envelope():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 0.2, 1.0, 1.2])  # middle point dips below the hull
    env = upper_concave_envelope(x, y)
    assert env[1] >= 0.5  # lifted onto the chord structure
    assert env[0] == 0.0 and env[-1] == 1.2
