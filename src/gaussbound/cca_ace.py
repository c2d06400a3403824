"""Nonlinear canonical correlation by alternating conditional expectations.

ACE (Breiman & Friedman, 1985) maximizes corr(phi(X), psi(Y)) over arbitrary
zero-mean unit-variance transforms by alternating smoothed conditional
expectations; the resulting correlations upper-bound what any pair of
marginally normal embeddings can achieve.  A regularized Gaussian-kernel CCA
is provided as the fallback estimator when the predictor dimension makes
neighborhood smoothing unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InsufficientDataError, ParameterError
from .smoother import SmootherConfig, sq_distances
from .stats_core import PairedSamples, mi_from_correlations

_DEGENERATE_STD = 1e-12


def _standardize(col: np.ndarray) -> tuple[np.ndarray, bool]:
    """Zero-mean unit-variance (population) version of a column; flags degeneracy."""
    c = col - col.mean()
    s = c.std()
    if s <= _DEGENERATE_STD:
        return np.zeros_like(c), True
    return c / s, False


def _orthogonalize(col: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    n = col.size
    for b in basis:
        col = col - (col @ b) / n * b
    return col


def _pc1(block: np.ndarray) -> np.ndarray:
    """First principal-component score of a block, deterministic sign."""
    centered = block - block.mean(axis=0)
    cov = centered.T @ centered / max(1, block.shape[0] - 1)
    w = np.linalg.eigh(cov)[1][:, -1]
    if w[np.argmax(np.abs(w))] < 0:
        w = -w
    return centered @ w


def _noise_pair(rng: np.random.Generator, n: int, u_cols, v_cols):
    """Independent standardized noise columns orthogonal to the earlier pairs."""
    u, _ = _standardize(_orthogonalize(rng.standard_normal(n), u_cols))
    v, _ = _standardize(_orthogonalize(rng.standard_normal(n), v_cols))
    return u, v


@dataclass
class CanonicalModel:
    """Fitted transform pair: sample blocks U, V and their correlations."""

    u: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    phi_history: list[np.ndarray]
    converged: np.ndarray
    degenerate: np.ndarray


def _sorted_model(u_cols, v_cols, rho, history, converged, degenerate):
    """Assemble the fitted pairs into a CanonicalModel in decreasing-rho order."""
    order = np.argsort(-rho, kind="stable")
    return CanonicalModel(
        u=np.column_stack([u_cols[i] for i in order]),
        v=np.column_stack([v_cols[i] for i in order]),
        rho=rho[order],
        phi_history=[history[i] for i in order],
        converged=converged[order],
        degenerate=degenerate[order],
    )


def ace_fit(
    samples: PairedSamples,
    k: int | None = None,
    smoother: SmootherConfig = SmootherConfig(),
    tol: float = 1e-5,
    max_iter: int = 200,
    seed=None,
) -> CanonicalModel:
    """Alternating-conditional-expectation fit of k canonical pairs.

    Pair 1 starts from the standardized first principal component of Y;
    later pairs start from seeded random vectors Gram-Schmidt-orthogonalized
    against the earlier V columns, and both sides are re-orthogonalized after
    every smoothing step.  Non-convergence returns the best iterate with the
    pair's ``converged`` flag cleared rather than raising.
    """
    y = samples.y
    n = samples.n
    if n < 50:
        raise InsufficientDataError("ace_fit needs at least 50 samples")
    if k is None:
        k = min(samples.d_x, samples.d_y)
    if k < 1:
        raise ParameterError("k must be at least 1")

    rng = np.random.default_rng(seed)
    sm_x, sm_y = samples.smoothers(smoother)

    u_cols: list[np.ndarray] = []
    v_cols: list[np.ndarray] = []
    rho = np.zeros(k)
    history: list[np.ndarray] = []
    converged = np.zeros(k, dtype=bool)
    degenerate = np.zeros(k, dtype=bool)

    for j in range(k):
        if j == 0:
            v, dead = _standardize(_pc1(y))
            if dead:  # constant Y block: fall back to a random direction
                v, dead = _standardize(rng.standard_normal(n))
        else:
            v, dead = _standardize(_orthogonalize(rng.standard_normal(n), v_cols))
        u = np.zeros(n)
        rho_j = 0.0
        trace = []
        for _ in range(max_iter):
            u_raw = _orthogonalize(sm_x.smooth(v), u_cols)
            u, dead_u = _standardize(u_raw)
            v_raw = _orthogonalize(sm_y.smooth(u), v_cols)
            v, dead_v = _standardize(v_raw)
            if dead_u or dead_v:
                degenerate[j] = True
                break
            rho_new = float(u @ v / n)
            trace.append(rho_new)
            if abs(rho_new - rho_j) < tol:
                rho_j = rho_new
                converged[j] = True
                break
            rho_j = rho_new
        if degenerate[j]:
            # keep the invariants testable: emit an independent noise column
            u, v = _noise_pair(rng, n, u_cols, v_cols)
            rho_j = 0.0
            converged[j] = True
        u_cols.append(u)
        v_cols.append(v)
        rho[j] = rho_j
        history.append(np.asarray(trace))
    return _sorted_model(u_cols, v_cols, rho, history, converged, degenerate)


def ace_upper_bound(model: CanonicalModel) -> float:
    """Nats of Gaussian MI at the relaxed optimum: -0.5 sum ln(1 - rho_i^2).

    Any embedding satisfying the marginal-normality constraints is bounded
    above by this value; correlations at 1 are clamped before the log.
    """
    return mi_from_correlations(model.rho)


def _median_heuristic_width(block: np.ndarray, rng: np.random.Generator) -> float:
    m = min(block.shape[0], 1000)
    idx = rng.choice(block.shape[0], size=m, replace=False)
    d2 = sq_distances(block[idx], block[idx])
    med = float(np.median(np.sqrt(d2[np.triu_indices(m, 1)])))
    return med if med > 0 else 1.0


def _centered_gaussian_gram(block: np.ndarray, width: float) -> np.ndarray:
    g = np.exp(-sq_distances(block, block) / (2.0 * width ** 2))
    g -= g.mean(axis=0, keepdims=True)
    g -= g.mean(axis=1, keepdims=True)
    return g


def kcca_fit(
    samples: PairedSamples,
    k: int | None = None,
    kernel_width: float | None = None,
    ridge: float = 1e-3,
    seed=None,
) -> CanonicalModel:
    """Regularized Gaussian-kernel CCA on dense centered Gram matrices.

    Solves the ridge-regularized generalized eigenproblem through the
    singular values of (K_x + c I)^{-1} K_x K_y (K_y + c I)^{-1}; output
    columns are standardized like ace_fit's.  Intended for predictor
    dimensions where neighborhood smoothing breaks down.
    """
    n = samples.n
    if n > 10_000:
        raise ParameterError("kcca_fit builds dense n x n kernels; n must be <= 10000")
    if n < 50:
        raise InsufficientDataError("kcca_fit needs at least 50 samples")
    if not 0 < ridge < np.inf:
        raise ParameterError(f"ridge must be finite and positive, got {ridge}")
    # a width whose 2w^2 overflows or underflows to 0 leaves a Gram of NaNs
    if kernel_width is not None and not (
        kernel_width > 0 and 0 < 2.0 * kernel_width * kernel_width < np.inf
    ):
        raise ParameterError(
            f"kernel_width must be positive with 2w^2 finite and > 0, got {kernel_width}"
        )
    if k is None:
        k = min(samples.d_x, samples.d_y)
    # imported here: a 1-D bound loads no scipy
    import scipy.linalg
    from scipy.sparse.linalg import ArpackError, svds

    rng = np.random.default_rng(seed)
    wx = kernel_width or _median_heuristic_width(samples.x, rng)
    wy = kernel_width or _median_heuristic_width(samples.y, rng)
    kx = _centered_gaussian_gram(samples.x, wx)
    ky = _centered_gaussian_gram(samples.y, wy)

    cur_ridge = ridge
    for attempt in range(4):
        reg = cur_ridge * n
        try:
            cx = scipy.linalg.cho_factor(kx + reg * np.eye(n))
            cy = scipy.linalg.cho_factor(ky + reg * np.eye(n))
            sx = scipy.linalg.cho_solve(cx, kx)
            sy = scipy.linalg.cho_solve(cy, ky)
            m = sx @ sy.T
            # a kernel so wide that its centered Gram vanishes, or a ridge so
            # large that the solved product underflows, leaves nothing to
            # decompose; a larger ridge would only shrink it further
            if not m.any():
                raise ConditioningError(
                    "kernel CCA cross-product is zero; the kernel width or ridge leaves no signal"
                )
            # only the k leading singular pairs are used; v0 keeps svds seeded
            try:
                left, sing, vt = svds(m, k=k, v0=rng.standard_normal(n))
            except ArpackError as exc:
                raise ConditioningError(f"kernel CCA decomposition failed: {exc}") from None
            break
        except np.linalg.LinAlgError:
            if attempt == 3:
                raise ConditioningError(
                    "kernel CCA system stayed singular after ridge escalation"
                ) from None
            cur_ridge *= 10.0

    order = np.argsort(sing)[::-1]
    left, vt = left[:, order], vt[order]
    u_cols, v_cols, rho = [], [], []
    for j in range(k):
        uj, dead_u = _standardize(_orthogonalize(sx @ left[:, j], u_cols))
        vj, dead_v = _standardize(_orthogonalize(sy @ vt[j], v_cols))
        if dead_u or dead_v:
            uj, vj = _noise_pair(rng, n, u_cols, v_cols)
        u_cols.append(uj)
        v_cols.append(vj)
        rho.append(max(0.0, float(uj @ vj / n)))

    rho = np.asarray(rho)
    history = [np.asarray([r]) for r in rho]
    return _sorted_model(
        u_cols, v_cols, rho, history, np.ones(k, dtype=bool), np.zeros(k, dtype=bool)
    )
