"""Alternating Gaussianized conditional expectations.

The optimizer for maximal correlation under exact marginal-normality
constraints: each half-step smooths the fixed side's values onto the other
block and replaces the usual variance normalization with the one-dimensional
optimal-transport map to the standard normal (a rank Gaussianization).  Each
accepted step never decreases the correlation, so every run produces a
monotone objective trace that converges to a local optimum; restarts search
across optima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cca_ace import _DEGENERATE_STD, CanonicalModel, _standardize, ace_fit
from .errors import InsufficientDataError, ParameterError, UnsupportedModelError
from .smoother import KernelSmoother, KnnSmoother, SmootherConfig, sq_distances
from .stats_core import (
    MonotoneMap,
    PairedSamples,
    marginal_gaussianize,
    mi_from_correlations,
)


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa <= _DEGENERATE_STD or sb <= _DEGENERATE_STD:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


@dataclass(frozen=True)
class FittedTransform:
    """phi(x) = normal-scores map applied to a smoothed regression at x.

    Stores the smoother built on the training block, the response values it
    regresses, and the monotone map fitted on the in-sample regression
    values, so the transform can be evaluated on new points.
    """

    smoother: KnnSmoother | KernelSmoother
    z_values: np.ndarray
    map: MonotoneMap

    def __call__(self, x_new):
        return self.map(self.smoother.predict(x_new, self.z_values))


@dataclass
class AgcePair:
    """One fitted pair of marginally normal transforms and its correlation.

    ``ace`` is the ACE model the pair was built from, if any.
    """

    phi: object
    psi: object
    u: np.ndarray
    v: np.ndarray
    rho: float
    trace: np.ndarray
    converged: bool
    independent: bool = False
    ace: CanonicalModel | None = None


def _gaussianized_pair(a, b, rng, **fields) -> AgcePair:
    """Normal scores of ``a`` and ``b`` and their correlation, as one pair.

    phi/psi default to the two normal-scores maps; ``fields`` overrides any
    AgcePair field.
    """
    u, map_u = marginal_gaussianize(a, rng)
    v, map_v = marginal_gaussianize(b, rng)
    rho = _corr(u, v)
    base = dict(phi=map_u, psi=map_v, u=u, v=v, rho=rho, trace=np.asarray([rho]), converged=True)
    return AgcePair(**{**base, **fields})


@dataclass(frozen=True)
class StepResult:
    """Outcome of one projection step."""

    u: np.ndarray
    rho: float
    kept_previous: bool
    independent: bool
    fitted_map: MonotoneMap | None


def agce_step(v_fixed, smoother, seed=None, prev_u=None) -> StepResult:
    """One optimal-transport projection: Gaussianize E[v | X].

    Smooths the fixed (standardized) side with ``smoother``, built on the X
    block, and rank Gaussianizes the result.  If ``prev_u`` is given and the
    new candidate correlates worse with ``v_fixed``, the previous transform
    is kept, which makes repeated stepping a monotone ascent.  A degenerate
    conditional expectation (all ties) is flagged as an independent fit with
    rho = 0.
    """
    v = np.asarray(v_fixed, dtype=float).ravel()
    xbar = smoother.smooth(v)
    u, gmap = marginal_gaussianize(xbar, seed)
    if xbar.std() <= _DEGENERATE_STD * (1.0 + np.abs(xbar.mean())):
        return StepResult(u, 0.0, False, True, gmap)
    rho = _corr(u, v)
    if prev_u is not None:
        rho_prev = _corr(np.asarray(prev_u, dtype=float), v)
        if rho_prev > rho:
            # keep the previous transform (and its map) per the monotone
            # convergence argument
            return StepResult(np.asarray(prev_u, dtype=float), rho_prev, True, False, None)
    return StepResult(u, rho, False, False, gmap)


def _alternate(u_init, v_init, sm_x, sm_y, tol: float, max_iter: int, rng: np.random.Generator):
    """Run one AGCE restart from standardized normal-scores initial values."""
    u = u_init
    v = v_init
    rho = _corr(u, v) if u is not None else 0.0
    trace = [rho] if u is not None else []
    map_u = map_v = None
    converged = False
    independent = False
    for _ in range(max_iter):
        step_u = agce_step(v, sm_x, rng, prev_u=u)
        u = step_u.u
        map_u = step_u.fitted_map if step_u.fitted_map is not None else map_u
        if step_u.independent:
            independent = True
            rho = 0.0
            trace.append(0.0)
            break
        trace.append(step_u.rho)
        step_v = agce_step(u, sm_y, rng, prev_u=v)
        v = step_v.u
        map_v = step_v.fitted_map if step_v.fitted_map is not None else map_v
        if step_v.independent:
            independent = True
            rho = 0.0
            trace.append(0.0)
            break
        trace.append(step_v.rho)
        if abs(step_v.rho - rho) < tol:
            rho = step_v.rho
            converged = True
            break
        rho = step_v.rho
    return u, v, rho, np.asarray(trace), converged, independent, map_u, map_v


def _random_smooth_init(y_col: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normal scores of a random cubic polynomial in the standardized input."""
    ys = _standardize(y_col)[0]
    coef = rng.standard_normal(4)
    vals = coef[0] + coef[1] * ys + coef[2] * ys ** 2 + coef[3] * ys ** 3
    return marginal_gaussianize(vals, rng)[0]


def _ace_transform(sm, target) -> FittedTransform:
    """Regress an ACE column with ``sm``; normal scores of the regression.

    The normal-scores map does not depend on the tie-breaking draw, so a
    fixed seed leaves the caller's generator untouched.
    """
    return FittedTransform(sm, target, marginal_gaussianize(sm.smooth(target), 0)[1])


def agce_fit_1d(
    samples: PairedSamples,
    tol: float = 1e-4,
    max_iter: int = 100,
    n_restarts: int = 8,
    smoother: SmootherConfig = SmootherConfig(),
    seed=None,
) -> AgcePair:
    """Best local optimum of the Gaussianized correlation over restarts.

    Restart 0 starts from the off-shelf pair (so the result can never fall
    below the off-shelf lower bound); the remaining restarts start from
    normal scores of random cubic polynomials of y.  When restart 0 wins and
    no step replaced a side's start, that side keeps the off-shelf
    transform.  ``tol`` is the alternation's tolerance; the off-shelf ACE
    fit keeps its own, and the result carries that fit as ``ace``.
    """
    if n_restarts < 1 or not tol > 0:
        raise ParameterError("agce_fit_1d needs n_restarts >= 1 and tol > 0")
    rng = np.random.default_rng(seed)
    off = offshelf_lower_1d(samples, smoother, seed=rng)
    sm_x, sm_y = samples.smoothers(smoother)

    best = None
    for r in range(n_restarts):
        if r == 0:
            u_init, v_init = off.u, off.v
        else:
            u_init, v_init = None, _random_smooth_init(samples.y[:, 0], rng)
        fit = _alternate(u_init, v_init, sm_x, sm_y, tol, max_iter, rng)
        if best is None or fit[2] > best[1][2]:
            best = (r, fit)

    r_best, (u, v, rho, trace, converged, independent, map_u, map_v) = best
    phi = FittedTransform(sm_x, v, map_u) if map_u is not None else None
    psi = FittedTransform(sm_y, u, map_v) if map_v is not None else None
    if r_best == 0:
        phi, psi = phi or off.phi, psi or off.psi
    return AgcePair(
        phi=phi,
        psi=psi,
        u=u,
        v=v,
        rho=rho,
        trace=trace,
        converged=converged,
        independent=independent,
        ace=off.ace,
    )


def offshelf_lower_1d(
    samples: PairedSamples,
    smoother: SmootherConfig = SmootherConfig(),
    seed=None,
) -> AgcePair:
    """Off-shelf lower bound: ACE first, then Gaussianize both outputs.

    Cheaper than the alternating search and, when the search is seeded from
    this point, never better than it.
    """
    if samples.d_x != 1 or samples.d_y != 1:
        raise ParameterError("the off-shelf pair requires univariate X and Y")
    if samples.n < 100:
        raise InsufficientDataError("the off-shelf pair needs at least 100 samples")
    rng = np.random.default_rng(seed)
    ace = ace_fit(samples, k=1, smoother=smoother, seed=rng)
    sm_x, sm_y = samples.smoothers(smoother)
    # out-of-sample transforms regress the opposite ACE column and carry a
    # normal-scores map fitted on that regression's own in-sample scale
    return _gaussianized_pair(
        ace.u[:, 0], ace.v[:, 0], rng,
        phi=_ace_transform(sm_x, ace.v[:, 0]), psi=_ace_transform(sm_y, ace.u[:, 0]),
        converged=bool(ace.converged[0]), ace=ace,
    )


def naive_lower_1d(samples: PairedSamples, seed=None) -> AgcePair:
    """Benchmark bound: Gaussianize the raw coordinates directly."""
    if samples.d_x != 1 or samples.d_y != 1:
        raise ParameterError("naive_lower_1d requires univariate X and Y")
    return _gaussianized_pair(samples.x[:, 0], samples.y[:, 0], np.random.default_rng(seed))


def pair_bound_nats(pair: AgcePair) -> float:
    """Gaussian MI bound implied by a fitted pair's correlation."""
    return mi_from_correlations([pair.rho])


def distance_correlation(a, b, max_n: int = 2000, seed=0) -> float:
    """Sample distance correlation, subsampled to keep the n^2 matrices small."""
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    n = a.shape[0]
    if n > max_n:
        idx = np.random.default_rng(seed).choice(n, size=max_n, replace=False)
        a, b = a[idx], b[idx]
        n = max_n

    def centered(m):
        d = np.sqrt(sq_distances(m, m))
        return d - d.mean(0, keepdims=True) - d.mean(1, keepdims=True) + d.mean()

    ca, cb = centered(a), centered(b)
    dcov2 = (ca * cb).mean()
    da = (ca * ca).mean()
    db = (cb * cb).mean()
    if da <= 0 or db <= 0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / np.sqrt(da * db)))


def agce_fit_mv_oracle(model, k: int = 2, n: int = 10_000, seed=None) -> list[AgcePair]:
    """Multivariate pairs via oracle conditionals and CDF push-forwards.

    Pair 1 alternates the model's exact conditional-expectation projections
    to their fixed point (for Gaussian oracles a closed-form power
    iteration) and Gaussianizes the resulting canonical values on the drawn
    samples.  Between pairs, the model pushes each block through its
    conditional CDF given the first canonical variable onto a uniform target
    that is exactly independent of it; pair 2 repeats the alternation on the
    push-forward blocks.  Degenerate conditional expectations produce an
    independent-fit pair with rho = 0.
    """
    if k > 2:
        raise ParameterError("oracle mode supports at most 2 pairs")
    required = (
        "sample",
        "first_pair_values",
        "independent_subspace_x",
        "independent_subspace_y",
    )
    for attr in required:
        if not hasattr(model, attr):
            raise UnsupportedModelError(
                f"model {type(model).__name__} lacks {attr}; analytic conditional "
                "CDFs are required for oracle fitting"
            )
    rng = np.random.default_rng(seed)
    x, y = model.sample(n, rng)
    pairs = []
    for j in range(2 if k == 2 else 1):
        if j == 1:
            x, y = model.independent_subspace_x(x), model.independent_subspace_y(y)
        raw = (model.second_pair_values if j else model.first_pair_values)(x, y)
        if raw is None:
            # degenerate conditional expectation: an independent fit, whose
            # u and v fall back to the raw blocks
            pair = _gaussianized_pair(
                np.asarray(x)[:, 0], np.asarray(y)[:, 0], rng,
                phi=None, psi=None, trace=np.asarray([0.0]), independent=True,
            )
            pair.rho = abs(pair.rho)
        else:
            u_raw, v_raw, _, trace = raw
            pair = _gaussianized_pair(u_raw, v_raw, rng, trace=trace)
        pairs.append(pair)
    return pairs
