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
    rank_order,
    rank_quantile_grid,
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
    """One fitted layer: ``maps[c]`` sends rotated coordinate ``c`` to normal scores."""

    rotation: np.ndarray
    maps: list[MonotoneMap]

    @classmethod
    def from_knots(cls, rotation: np.ndarray, knots) -> "GaussianizeLayer":
        return cls(rotation, [MonotoneMap(*k) for k in knots])


@dataclass
class GaussianizeChain:
    """Fitted stack of rotation + per-coordinate normal-scores layers."""

    layers: list[GaussianizeLayer] = field(default_factory=list)
    objective_trace: list[float] = field(default_factory=list)
    normality_stat: np.ndarray | None = None
    converged: bool = False


def _rows(block) -> np.ndarray:
    """A finite sample block as a C-contiguous (d, n) array, one coordinate per row."""
    b = as_block(block)
    if not np.isfinite(b).all():
        raise DomainError("Gaussianization requires finite inputs")
    return np.ascontiguousarray(b.T)


def _rank_rows(rotated: np.ndarray, rng: np.random.Generator):
    """Normal scores of each row of a (d, n) block, plus each row's knots.

    Rows are ranked in order by ``rank_order``, each taking its tie-break
    draws from ``rng``; no map is built here.
    """
    grid = rank_quantile_grid(rotated.shape[1])
    out = np.empty_like(rotated)
    knots = []
    for row, x in zip(out, rotated):
        order, knots_in, knots_out = rank_order(x, rng)
        row[order] = grid
        knots.append((knots_in, knots_out))
    return out, knots


def _probe_stats(block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate KS stats of a (d, n) block after a held-out plain rotation."""
    probe = random_rotation(block.shape[0], rng) @ block
    return np.asarray([ks_normal_stat(row) for row in probe])


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
    b = _rows(block)
    d, n = b.shape
    if n < 100:
        raise InsufficientDataError("separate_gaussianize needs at least 100 samples")
    if max_layers < 1:
        raise ParameterError(f"max_layers must be at least 1, got {max_layers}")
    tol = default_normality_tol(n) if normality_tol is None else float(normality_tol)
    rng = np.random.default_rng(seed)
    chain = GaussianizeChain()
    for _ in range(max_layers):
        rotation = random_rotation(d, rng)
        b, knots = _rank_rows(rotation @ b, rng)
        chain.layers.append(GaussianizeLayer.from_knots(rotation, knots))
        stats = _probe_stats(b, rng)
        chain.normality_stat = stats
        if stats.max() <= tol:
            chain.converged = True
            break
    return np.ascontiguousarray(b.T), chain


def joint_objective(u, v, *, details: bool = False):
    """Gaussian MI bound of the empirical joint covariance of (U, V), in nats.

    With ``details=True`` returns ``(value, info)`` as ``gaussian_mi_bound``
    does; ``info["saturated"]`` is True when that covariance is numerically
    singular, so the value is set by the ridge, not by the data.
    """
    u, v = as_block(u), as_block(v)
    if u.shape[0] <= u.shape[1] + v.shape[1]:
        raise ParameterError("need more samples than total dimensions")
    return gaussian_mi_bound(covariance(np.hstack([u, v])), u.shape[1], details=details)


def _try_scorer(blocks: dict, side: str):
    """``cand -> joint_objective`` of (U, V) with ``side``'s block replaced by ``cand``.

    Blocks and candidates are (d, n) arrays, one coordinate per row.  The
    other block is centered and its Gram taken once, here; each call adds
    only the candidate's row sums (``cand @ ones``), ``cand @ cand.T`` and
    ``cand @ other_c.T``, from which it builds the ddof-1 joint covariance
    in (U, V) order.  That matrix goes through the same checks, ridge and
    determinants in ``gaussian_mi_bound`` as ``joint_objective``.
    """
    other = blocks["v" if side == "u" else "u"]
    d_o, n = other.shape
    d_c = blocks[side].shape[0]
    ones = np.ones(n)
    other_c = other - (other @ ones)[:, None] / n
    gram_o = other_c @ other_c.T
    # the candidate's rows and columns of the joint, and U's width
    c, o = (slice(0, d_c), slice(d_c, None)) if side == "u" else (slice(d_o, None), slice(0, d_o))
    d_u = d_c if side == "u" else d_o

    def score(cand) -> float:
        sums = cand @ ones
        cross = cand @ other_c.T
        joint = np.empty((d_c + d_o, d_c + d_o))
        joint[c, c] = cand @ cand.T - np.outer(sums, sums) / n
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

    Both blocks are held as C-contiguous (d, n) arrays, one coordinate per
    row: transposed once on entry and back to (n, d) on return.  A try
    rotates with ``rotation @ block``, ranks each row with ``rank_order``
    and keeps only the rows' knots; a layer's ``MonotoneMap`` objects are
    built once per side step, for the kept rotation only.  A row without
    ties reads no tie-break draw: on a stock ``PCG64`` generator it advances
    the bit generator by n instead of drawing, which leaves the state that
    ``rng.random(n)`` leaves, so the seeded stream is the same either way.

    A try is scored without restacking (U, V): the unchanged side's centered
    block and its Gram are taken once per side step, and each candidate adds
    its own row sums, Gram and cross-products with that block.  The
    resulting joint covariance goes through ``gaussian_mi_bound``, so a try
    scores ``joint_objective`` of the replaced pair up to rounding.

    Returns ``(u_out, v_out, (chain_u, chain_v), trace)`` where ``trace`` is a
    list of ``(outer_iteration, side, accepted_objective)`` tuples.
    """
    u, v = _rows(u), _rows(v)
    n = u.shape[1]
    if v.shape[1] != n:
        raise DomainError(f"u has {n} rows but v has {v.shape[1]}")
    if n < 100:
        raise InsufficientDataError("biterminal_gaussianize needs at least 100 samples")
    if n <= u.shape[0] + v.shape[0]:
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
            d = block.shape[0]
            score = _try_scorer(blocks, side)
            rotation = random_rotation(d, rng)
            cand, knots = _rank_rows(rotation @ block, rng)
            obj = score(cand)
            trace.append((outer, side, obj))
            # a 1-column block has no Givens move: a try would only redraw its tie-breaks
            for _ in range(inner_tries if d >= 2 else 0):
                i, j = rng.choice(d, size=2, replace=False)
                theta = rng.uniform(-np.pi, np.pi)
                rot2 = givens_rotation(d, int(i), int(j), theta) @ rotation
                cand2, knots2 = _rank_rows(rot2 @ block, rng)
                obj2 = score(cand2)
                if obj2 > obj:
                    rotation, cand, knots, obj = rot2, cand2, knots2, obj2
                    trace.append((outer, side, obj))
            blocks[side] = cand
            chains[side].layers.append(GaussianizeLayer.from_knots(rotation, knots))
            chains[side].objective_trace.append(obj)
        stats_u = _probe_stats(blocks["u"], rngs["u"])
        stats_v = _probe_stats(blocks["v"], rngs["v"])
        chains["u"].normality_stat = stats_u
        chains["v"].normality_stat = stats_v
        if stats_u.max() <= tol and stats_v.max() <= tol:
            chains["u"].converged = True
            chains["v"].converged = True
            break

    u_out, v_out = (np.ascontiguousarray(blocks[side].T) for side in ("u", "v"))
    return u_out, v_out, (chains["u"], chains["v"]), trace
