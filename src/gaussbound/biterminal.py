"""Multivariate Gaussianization by rotations plus marginal normal scores.

Two schemes over the same layer primitive: an objective-blind iteration of
[random rotation -> per-coordinate Gaussianization] in the spirit of
rotation-based iterative Gaussianization (Laparra et al., 2011), and a
bi-terminal variant that Gaussianizes two blocks simultaneously while
hill-climbing over Givens perturbations of each rotation so the joint
Gaussian-MI objective survives the marginal maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError, ParameterError
from .smoother import as_block
from .stats_core import (
    MonotoneMap,
    covariance,
    gaussian_mi_bound,
    ks_normal_stat,
    marginal_gaussianize,
)


def default_normality_tol(n: int) -> float:
    """KS acceptance level: 1.5 x the 95% one-sample band 1.36 / sqrt(n)."""
    return 1.5 * 1.36 / np.sqrt(n)


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed proper rotation (QR of a Gaussian matrix, det +1)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def givens_rotation(d: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(d)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


@dataclass
class GaussianizeLayer:
    rotation: np.ndarray
    maps: list[MonotoneMap]


@dataclass
class GaussianizeChain:
    """Fitted stack of rotation + per-coordinate normal-scores layers."""

    layers: list[GaussianizeLayer] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    normality_stat: np.ndarray | None = None
    converged: bool = False


def _gaussianize_coords(block: np.ndarray, rng: np.random.Generator):
    out = np.empty_like(block)
    maps = []
    for c in range(block.shape[1]):
        out[:, c], m = marginal_gaussianize(block[:, c], rng)
        maps.append(m)
    return out, maps


def _apply_layer(block: np.ndarray, rotation: np.ndarray, rng: np.random.Generator):
    rotated = block @ rotation.T
    out, maps = _gaussianize_coords(rotated, rng)
    return out, GaussianizeLayer(rotation, maps)


def _probe_stats(block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate KS stats after a held-out plain rotation."""
    probe = block @ random_rotation(block.shape[1], rng).T
    return np.asarray([ks_normal_stat(probe[:, c]) for c in range(block.shape[1])])


def separate_gaussianize(
    block,
    max_layers: int = 30,
    normality_tol: float | None = None,
    seed=None,
):
    """Objective-blind iterative Gaussianization of one block.

    Layers of [random rotation -> per-coordinate normal scores] are stacked
    until the per-coordinate KS statistics of a held-out probe rotation all
    drop below the tolerance.  Output coordinates are exactly marginally
    Gaussian after the final layer.  Non-convergence returns the best chain
    with ``converged`` cleared.
    """
    b = as_block(block)
    n = b.shape[0]
    if n < 100:
        raise InsufficientDataError("separate_gaussianize needs at least 100 samples")
    if max_layers < 1:
        raise ParameterError(f"max_layers must be at least 1, got {max_layers}")
    tol = default_normality_tol(n) if normality_tol is None else float(normality_tol)
    rng = np.random.default_rng(seed)
    chain = GaussianizeChain()
    for _ in range(max_layers):
        b, layer = _apply_layer(b, random_rotation(b.shape[1], rng), rng)
        chain.layers.append(layer)
        stats = _probe_stats(b, rng)
        chain.normality_stat = stats
        if stats.max() <= tol:
            chain.converged = True
            break
    return b, chain


def joint_objective(u, v) -> float:
    """Gaussian MI bound of the empirical joint covariance of (U, V), in nats."""
    u, v = as_block(u), as_block(v)
    if u.shape[0] <= u.shape[1] + v.shape[1]:
        raise ParameterError("need more samples than total dimensions")
    return gaussian_mi_bound(covariance(np.hstack([u, v])), u.shape[1])


def joint_objective_saturated(u, v) -> bool:
    """True when the joint covariance of (U, V) is numerically singular."""
    u, v = as_block(u), as_block(v)
    _, info = gaussian_mi_bound(covariance(np.hstack([u, v])), u.shape[1], details=True)
    return info["saturated"]


def _try_scorer(blocks: dict, side: str):
    """``cand -> joint_objective`` of (U, V) with ``side``'s block replaced by ``cand``.

    The other block is centered and its Gram taken once, here; each call
    adds only the candidate's column sums (``ones @ cand``), ``cand.T @ cand``
    and ``cand.T @ other_c``, from which it builds the ddof-1 joint
    covariance in (U, V) order.  That matrix goes through the same checks,
    ridge and determinants in ``gaussian_mi_bound`` as ``joint_objective``.
    """
    other = blocks["v" if side == "u" else "u"]
    n, d_o = other.shape
    d_c = blocks[side].shape[1]
    ones = np.ones(n)
    other_c = other - (ones @ other) / n
    gram_o = other_c.T @ other_c
    # the candidate's rows and columns of the joint, and U's width
    c, o = (slice(0, d_c), slice(d_c, None)) if side == "u" else (slice(d_o, None), slice(0, d_o))
    d_u = d_c if side == "u" else d_o

    def score(cand) -> float:
        sums = ones @ cand
        cross = cand.T @ other_c
        joint = np.empty((d_c + d_o, d_c + d_o))
        joint[c, c] = cand.T @ cand - np.outer(sums, sums) / n
        joint[c, o] = cross
        joint[o, c] = cross.T
        joint[o, o] = gram_o
        return gaussian_mi_bound(joint / (n - 1), d_u)

    return score


def biterminal_gaussianize(
    u,
    v,
    outer_iters: int = 30,
    inner_tries: int = 40,
    normality_tol: float | None = None,
    seed=None,
):
    """Joint Gaussianization of two blocks by objective-aware hill climbing.

    Per outer iteration and per side: draw a base rotation, Gaussianize, then
    repeatedly perturb the rotation by a random Givens rotation (two
    coordinates, angle uniform on (-pi, pi)), keeping a candidate only when
    the joint objective strictly increases.  With ``inner_tries=0`` the
    procedure is the per-side objective-blind scheme; the U and V sides draw
    from the two children of ``np.random.SeedSequence(seed).spawn(2)``.

    A try is scored without restacking (U, V): the unchanged side's centered
    block and its Gram are taken once per side step, and each candidate adds
    its own column sums, Gram and cross-products with that block.  The
    resulting joint covariance goes through ``gaussian_mi_bound``, so a try
    scores ``joint_objective`` of the replaced pair up to rounding.

    Returns ``(u_out, v_out, (chain_u, chain_v), trace)`` where ``trace`` is a
    list of ``(outer_iteration, side, accepted_objective)`` tuples.
    """
    u, v = as_block(u), as_block(v)
    n = u.shape[0]
    if v.shape[0] != n:
        raise DomainError(f"u has {n} rows but v has {v.shape[0]}")
    if n < 100:
        raise InsufficientDataError("biterminal_gaussianize needs at least 100 samples")
    if n <= u.shape[1] + v.shape[1]:
        raise ParameterError("need more samples than total dimensions")
    if outer_iters < 1:
        raise ParameterError(f"outer_iters must be at least 1, got {outer_iters}")
    if inner_tries < 0:
        raise ParameterError(f"inner_tries must be nonnegative, got {inner_tries}")
    tol = default_normality_tol(n) if normality_tol is None else float(normality_tol)

    ss_u, ss_v = np.random.SeedSequence(seed).spawn(2)
    rngs = {"u": np.random.default_rng(ss_u), "v": np.random.default_rng(ss_v)}
    blocks = {"u": u, "v": v}
    chains = {"u": GaussianizeChain(), "v": GaussianizeChain()}
    trace: list[tuple[int, str, float]] = []

    for outer in range(outer_iters):
        for side in ("u", "v"):
            rng = rngs[side]
            block = blocks[side]
            d = block.shape[1]
            score = _try_scorer(blocks, side)
            rotation = random_rotation(d, rng)
            cand, layer = _apply_layer(block, rotation, rng)
            obj = score(cand)
            trace.append((outer, side, obj))
            # a 1-column block has no Givens move: a try would only redraw its tie-breaks
            for _ in range(inner_tries if d >= 2 else 0):
                i, j = rng.choice(d, size=2, replace=False)
                theta = rng.uniform(-np.pi, np.pi)
                rot2 = givens_rotation(d, int(i), int(j), theta) @ rotation
                cand2, layer2 = _apply_layer(block, rot2, rng)
                obj2 = score(cand2)
                if obj2 > obj:
                    rotation, cand, layer, obj = rot2, cand2, layer2, obj2
                    trace.append((outer, side, obj))
            blocks[side] = cand
            chains[side].layers.append(layer)
            chains[side].objective_trace.append(obj)
        stats_u = _probe_stats(blocks["u"], rngs["u"])
        stats_v = _probe_stats(blocks["v"], rngs["v"])
        chains["u"].normality_stat = stats_u
        chains["v"].normality_stat = stats_v
        if stats_u.max() <= tol and stats_v.max() <= tol:
            chains["u"].converged = True
            chains["v"].converged = True
            break

    return blocks["u"], blocks["v"], (chains["u"], chains["v"]), trace
