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
from .smoother import KernelSmoother, KnnSmoother, SmootherConfig
from .stats_core import (
    MonotoneMap,
    PairedSamples,
    marginal_gaussianize,
    mi_from_correlations,
)

_MAX_ITER = 100  # alternation rounds per restart


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
    values, so the transform can be evaluated on new points.  On a 1-D k-NN
    block the transform is a step function of the query's sorted window:
    from its first call on it keeps the map of every window's mean, so a
    call is one window search and one gather, and only a query whose window
    boundary is tied is averaged and mapped on its own.  Each table entry is
    the division and the map ``map(smoother.predict(x_new, z_values))``
    applies, so the outputs are the same bit for bit.  The first call maps
    all n - k + 1 windows, which costs more than mapping a small batch, so
    the table pays off only over repeated calls on one transform.
    """

    smoother: KnnSmoother | KernelSmoother
    z_values: np.ndarray
    map: MonotoneMap

    @cached_property
    def _table(self) -> np.ndarray | None:
        # made on the first call, not at construction: agce_step builds one
        # transform per half-step and discards nearly all of them
        sums = self.smoother.window_sums(self.z_values)
        return None if sums is None else self.map(sums / self.smoother.k)

    def __call__(self, x_new):
        if isinstance(self.smoother, KernelSmoother) or self._table is None:
            return self.map(self.smoother.predict(x_new, self.z_values))
        lo, tied, rows = self.smoother.query_windows(x_new)
        out = self._table[lo]
        if tied.size:
            out[tied] = self.map(self.z_values[rows].sum(axis=1) / self.smoother.k)
        return out


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
    """Outcome of one projection step.

    ``transform`` regresses the response this step smoothed; it is ``None``
    when the step kept its previous value.
    """

    u: np.ndarray
    rho: float
    kept_previous: bool
    independent: bool
    transform: FittedTransform | None


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
    transform = FittedTransform(smoother, v, gmap)
    if xbar.std() <= _DEGENERATE_STD * (1.0 + np.abs(xbar.mean())):
        return StepResult(u, 0.0, False, True, transform)
    rho = _corr(u, v)
    if prev_u is not None:
        rho_prev = _corr(np.asarray(prev_u, dtype=float), v)
        if rho_prev > rho:
            # keep the previous transform per the monotone convergence argument
            return StepResult(np.asarray(prev_u, dtype=float), rho_prev, True, False, None)
    return StepResult(u, rho, False, False, transform)


def _alternate(u, v, phi, psi, sm_x, sm_y, tol: float, rng: np.random.Generator) -> AgcePair:
    """Run one AGCE restart from normal-scores start values and transforms.

    ``u`` may be ``None`` (a random restart starts from ``v`` alone).  A side
    keeps its start transform until a step replaces it.
    """
    rho = _corr(u, v) if u is not None else 0.0
    trace = [rho] if u is not None else []
    for _ in range(_MAX_ITER):
        step = agce_step(v, sm_x, rng, prev_u=u)
        u, phi = step.u, step.transform or phi
        trace.append(step.rho)
        if not step.independent:
            step = agce_step(u, sm_y, rng, prev_u=v)
            v, psi = step.u, step.transform or psi
            trace.append(step.rho)
        # an independent step reports rho = 0 and ends the restart unconverged
        converged = not step.independent and abs(step.rho - rho) < tol
        rho = step.rho
        if converged or step.independent:
            break
    # a random restart whose v-steps all kept the start scores fitted no psi
    psi = psi or _ace_transform(sm_y, v)
    return AgcePair(phi, psi, u, v, rho, np.asarray(trace), converged, step.independent)


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
    n_restarts: int = 8,
    smoother: SmootherConfig = SmootherConfig(),
    seed=None,
) -> AgcePair:
    """Best local optimum of the Gaussianized correlation over restarts.

    Restart 0 starts from the off-shelf pair and its transforms (so the
    result can never fall below the off-shelf lower bound); the remaining
    restarts start from normal scores of random cubic polynomials of y.
    ``tol`` is the alternation's tolerance; the off-shelf ACE fit keeps its
    own, and the result carries that fit as ``ace``.
    """
    if n_restarts < 1 or not tol > 0:
        raise ParameterError("agce_fit_1d needs n_restarts >= 1 and tol > 0")
    rng = np.random.default_rng(seed)
    off = offshelf_lower_1d(samples, smoother, seed=rng)
    sm_x, sm_y = samples.smoothers(smoother)

    best = _alternate(off.u, off.v, off.phi, off.psi, sm_x, sm_y, tol, rng)
    for _ in range(1, n_restarts):
        v_init = _random_smooth_init(samples.y[:, 0], rng)
        fit = _alternate(None, v_init, None, None, sm_x, sm_y, tol, rng)
        if fit.rho > best.rho:
            best = fit
    best.ace = off.ace
    return best


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
