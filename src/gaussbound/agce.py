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
from functools import cached_property

import numpy as np

from .cca_ace import _DEGENERATE_STD, CanonicalModel, _standardize, ace_fit
from .errors import InsufficientDataError, ParameterError
from .smoother import KnnSmoother
from .stats_core import (
    MonotoneMap,
    PairedSamples,
    marginal_gaussianize,
    normal_scores,
)

_MAX_ITER = 100  # alternation rounds per restart
_TOL = 1e-4  # a restart converges when a round moves rho by less than this


def _moments(a: np.ndarray) -> tuple[float, float]:
    """``(mean, std)`` of a column, as ``_corr`` reads them."""
    return a.mean(), a.std()


def _corr(a: np.ndarray, b: np.ndarray, ma=None, mb=None) -> float:
    """Correlation of two columns; ``ma``, ``mb`` are their ``_moments`` if known."""
    (a_mean, sa), (b_mean, sb) = ma or _moments(a), mb or _moments(b)
    if sa <= _DEGENERATE_STD or sb <= _DEGENERATE_STD:
        return 0.0
    return float(np.mean((a - a_mean) * (b - b_mean)) / (sa * sb))


@dataclass(frozen=True)
class FittedTransform:
    """phi(x) = normal-scores map applied to a k-NN regression at x.

    Stores the k-NN smoother built on the training block and the response
    values it regresses, so the transform can be evaluated on new points.  Its
    ``map`` is the normal-scores map of the in-sample regression,
    ``marginal_gaussianize(smoother.smooth(z_values), 0)[1]``, derived on
    first read: building a transform costs nothing, and AGCE builds one at
    every half-step and reads almost none.  The knots do not depend on the
    tie-break draw (bar the sign of a zero knot, which the fixed seed 0
    pins), so this is the map the fit's own rank step would have built.  A
    failed knot check is not cached: it raises ``DomainError`` on every
    call.  A call is ``map(smoother.predict(x_new, z_values))`` bit for bit,
    through the smoother's ``predictor``: on a 1-D block that keeps the map
    of every sorted window's mean, built on the first call, so later
    calls are one window search and one gather.  The first call sums z's
    windows twice, once for the map and once for the predictor, and maps all
    n - k + 1 windows, so the table pays off only over repeated calls on one
    transform.
    """

    smoother: KnnSmoother
    z_values: np.ndarray

    @cached_property
    def map(self) -> MonotoneMap:
        return marginal_gaussianize(self.smoother.smooth(self.z_values), 0)[1]

    @cached_property
    def _predict(self):
        return self.smoother.predictor(self.z_values, self.map)

    def __call__(self, x_new):
        return self._predict(x_new)


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
    ace: CanonicalModel | None = None


def _scored_pair(phi, psi, u, v, converged=True, ace=None) -> AgcePair:
    """A pair of normal scores whose one-entry trace is their correlation."""
    rho = _corr(u, v)
    return AgcePair(phi, psi, u, v, rho, np.asarray([rho]), converged, ace=ace)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one projection step.

    ``transform`` regresses the response this step smoothed; it is ``None``
    when the step kept its previous value.  ``moments`` are ``u``'s
    ``(mean, std)``, for the caller's next step.
    """

    u: np.ndarray
    rho: float
    kept_previous: bool
    independent: bool
    transform: FittedTransform | None
    moments: tuple[float, float] | None = None


def agce_step(v_fixed, smoother, seed=None, prev_u=None, v_moments=None, prev_moments=None) -> StepResult:
    """One optimal-transport projection: Gaussianize E[v | X].

    Smooths the fixed (standardized) side with ``smoother``, built on the X
    block, and rank Gaussianizes the result.  If ``prev_u`` is given and the
    new candidate correlates worse with ``v_fixed``, the previous transform
    is kept, which makes repeated stepping a monotone ascent.  A degenerate
    conditional expectation (all ties) is flagged as an independent fit with
    rho = 0.  ``v_moments`` and ``prev_moments`` are the ``(mean, std)`` of
    ``v_fixed`` and ``prev_u`` when the caller has them.
    """
    v = np.asarray(v_fixed, dtype=float).ravel()
    xbar = smoother.smooth(v)
    u = normal_scores(xbar, seed)
    transform = FittedTransform(smoother, v)
    if xbar.std() <= _DEGENERATE_STD * (1.0 + np.abs(xbar.mean())):
        return StepResult(u, 0.0, False, True, transform)
    mu, mv = _moments(u), v_moments or _moments(v)
    rho = _corr(u, v, mu, mv)
    if prev_u is not None:
        prev_u = np.asarray(prev_u, dtype=float)
        prev_moments = prev_moments or _moments(prev_u)
        rho_prev = _corr(prev_u, v, prev_moments, mv)
        if rho_prev > rho:
            # keep the previous transform per the monotone convergence argument
            return StepResult(prev_u, rho_prev, True, False, None, prev_moments)
    return StepResult(u, rho, False, False, transform, mu)


def _alternate(u, v, phi, psi, sm_x, sm_y, rng: np.random.Generator) -> AgcePair:
    """Run one AGCE restart from normal-scores start values and transforms.

    ``u`` may be ``None`` (a random restart starts from ``v`` alone).  A side
    keeps its start transform until a step replaces it.  Each side's
    ``(mean, std)`` rides along with it, so no column's moments are computed
    twice.
    """
    mu = _moments(u) if u is not None else None
    mv = _moments(v)
    rho = _corr(u, v, mu, mv) if u is not None else 0.0
    trace = [rho] if u is not None else []
    for _ in range(_MAX_ITER):
        step = agce_step(v, sm_x, rng, prev_u=u, v_moments=mv, prev_moments=mu)
        u, phi, mu = step.u, step.transform or phi, step.moments
        trace.append(step.rho)
        if not step.independent:
            step = agce_step(u, sm_y, rng, prev_u=v, v_moments=mu, prev_moments=mv)
            v, psi, mv = step.u, step.transform or psi, step.moments
            trace.append(step.rho)
        # an independent step reports rho = 0 and ends the restart unconverged
        converged = not step.independent and abs(step.rho - rho) < _TOL
        rho = step.rho
        if converged or step.independent:
            break
    # a random restart whose v-steps all kept the start scores fitted no psi
    psi = psi or FittedTransform(sm_y, v)
    return AgcePair(phi, psi, u, v, rho, np.asarray(trace), converged)


def _random_smooth_init(powers, rng: np.random.Generator) -> np.ndarray:
    """Normal scores of a random cubic polynomial in the standardized input.

    ``powers`` is ``(ys, ys ** 2, ys ** 3)`` of the standardized column.
    """
    ys, ys2, ys3 = powers
    coef = rng.standard_normal(4)
    vals = coef[0] + coef[1] * ys + coef[2] * ys2 + coef[3] * ys3
    return normal_scores(vals, rng)


def agce_fit_1d(
    samples: PairedSamples,
    n_restarts: int = 8,
    knn_k: int | None = None,
    seed=None,
) -> AgcePair:
    """Best local optimum of the Gaussianized correlation over restarts.

    Restart 0 starts from the off-shelf pair and its transforms (so the
    result can never fall below the off-shelf lower bound); the remaining
    restarts start from normal scores of random cubic polynomials of y.
    A restart alternates until a round moves rho by less than a fixed 1e-4;
    the off-shelf ACE fit keeps its own tolerance, and the result carries
    that fit as ``ace``.  ``knn_k`` is as in ``ace_fit``.
    """
    if n_restarts < 1:
        raise ParameterError("agce_fit_1d needs n_restarts >= 1")
    rng = np.random.default_rng(seed)
    off = offshelf_lower_1d(samples, knn_k, seed=rng)
    sm_x, sm_y = samples.smoothers(knn_k)

    best = _alternate(off.u, off.v, off.phi, off.psi, sm_x, sm_y, rng)
    ys = _standardize(samples.y[:, 0])[0]
    powers = (ys, ys ** 2, ys ** 3)
    for _ in range(1, n_restarts):
        v_init = _random_smooth_init(powers, rng)
        fit = _alternate(None, v_init, None, None, sm_x, sm_y, rng)
        if fit.rho > best.rho:
            best = fit
    best.ace = off.ace
    return best


def offshelf_lower_1d(samples: PairedSamples, knn_k: int | None = None, seed=None) -> AgcePair:
    """Off-shelf lower bound: ACE first, then Gaussianize both outputs.

    Cheaper than the alternating search and, when the search is seeded from
    this point, never better than it.  ``knn_k`` is as in ``ace_fit``.
    """
    if samples.d_x != 1 or samples.d_y != 1:
        raise ParameterError("the off-shelf pair requires univariate X and Y")
    if samples.n < 100:
        raise InsufficientDataError("the off-shelf pair needs at least 100 samples")
    rng = np.random.default_rng(seed)
    ace = ace_fit(samples, knn_k=knn_k, seed=rng)
    sm_x, sm_y = samples.smoothers(knn_k)
    u, v = ace.u[:, 0], ace.v[:, 0]
    # out-of-sample transforms regress the opposite ACE column and carry a
    # normal-scores map fitted on that regression's own in-sample scale
    phi, psi = FittedTransform(sm_x, v), FittedTransform(sm_y, u)
    scores = normal_scores(u, rng), normal_scores(v, rng)
    return _scored_pair(phi, psi, *scores, bool(ace.converged[0]), ace)


def naive_lower_1d(samples: PairedSamples, seed=None) -> AgcePair:
    """Benchmark bound: Gaussianize the raw coordinates directly."""
    if samples.d_x != 1 or samples.d_y != 1:
        raise ParameterError("naive_lower_1d requires univariate X and Y")
    rng = np.random.default_rng(seed)
    u, phi = marginal_gaussianize(samples.x[:, 0], rng)
    v, psi = marginal_gaussianize(samples.y[:, 0], rng)
    return _scored_pair(phi, psi, u, v)
