"""Nonlinear canonical correlation by alternating conditional expectations.

ACE (Breiman & Friedman, 1985) maximizes corr(phi(X), psi(Y)) over arbitrary
zero-mean unit-variance transforms by alternating smoothed conditional
expectations; the resulting correlations upper-bound what any pair of
marginally normal embeddings can achieve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .stats_core import PairedSamples, mi_from_correlations

_DEGENERATE_STD = 1e-12
_TOL = 1e-5  # ace_fit's convergence tolerance on rho


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


@dataclass
class CanonicalModel:
    """Fitted transform pair: sample blocks U, V and their correlations."""

    u: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    phi_history: list[np.ndarray]
    converged: np.ndarray


def ace_fit(
    samples: PairedSamples,
    knn_k: int | None = None,
    max_iter: int = 200,
    seed=None,
) -> CanonicalModel:
    """Alternating-conditional-expectation fit of min(d_x, d_y) canonical pairs.

    Pair 1 starts from the standardized first principal component of Y;
    later pairs start from seeded random vectors Gram-Schmidt-orthogonalized
    against the earlier V columns, and both sides are re-orthogonalized after
    every smoothing step.  A pair converges when one round moves its
    correlation by less than 1e-5.  Non-convergence after ``max_iter`` rounds
    returns the best iterate with the pair's ``converged`` flag cleared
    rather than raising.  ``knn_k`` counts neighbors (None:
    ``PairedSamples.smoothers``' default).
    """
    y = samples.y
    n = samples.n
    if n < 50:
        raise InsufficientDataError("ace_fit needs at least 50 samples")
    k = min(samples.d_x, samples.d_y)

    rng = np.random.default_rng(seed)
    sm_x, sm_y = samples.smoothers(knn_k)

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
            if abs(rho_new - rho_j) < _TOL:
                rho_j = rho_new
                converged[j] = True
                break
            rho_j = rho_new
        if degenerate[j]:
            # keep the invariants testable: emit independent standardized
            # noise columns orthogonal to the earlier pairs
            u, _ = _standardize(_orthogonalize(rng.standard_normal(n), u_cols))
            v, _ = _standardize(_orthogonalize(rng.standard_normal(n), v_cols))
            rho_j = 0.0
            converged[j] = True
        u_cols.append(u)
        v_cols.append(v)
        rho[j] = rho_j
        history.append(np.asarray(trace))
    order = np.argsort(-rho, kind="stable")  # pairs in decreasing-rho order
    return CanonicalModel(
        u=np.column_stack([u_cols[i] for i in order]),
        v=np.column_stack([v_cols[i] for i in order]),
        rho=rho[order],
        phi_history=[history[i] for i in order],
        converged=converged[order],
    )


def ace_upper_bound(model: CanonicalModel) -> float:
    """Nats of Gaussian MI at the relaxed optimum: -0.5 sum ln(1 - rho_i^2).

    Any embedding satisfying the marginal-normality constraints is bounded
    above by this value; correlations at 1 are clamped before the log.
    """
    return mi_from_correlations(model.rho)
