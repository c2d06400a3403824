"""Multivariate Gaussianization by rotations plus marginal normal scores.

One layer loop stacks [random rotation -> per-coordinate normal scores] on
each block, in the spirit of rotation-based iterative Gaussianization
(Laparra et al., 2011), until a held-out probe rotation of every block looks
normal.  On one block that is the objective-blind separate scheme.  On two
blocks (the bi-terminal variant) each layer also hill-climbs over Givens
perturbations of its rotation so the joint Gaussian-MI objective survives
the marginal maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError, ParameterError
from .smoother import as_block
from .stats_core import (
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
class GaussianizeChain:
    """What one block's layer stack reports: its layer count and convergence.

    ``objective_trace`` holds, per layer, the joint objective the bi-terminal
    hill climb kept (empty for a separate chain); ``perfbench/spans.py``
    reads its length as the layer count.
    """

    layers: int = 0
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False


def _rows(block) -> np.ndarray:
    """A finite sample block as a C-contiguous (d, n) array, one coordinate per row."""
    b = as_block(block)
    if not np.isfinite(b).all():
        raise DomainError("Gaussianization requires finite inputs")
    return np.ascontiguousarray(b.T)


def _rank_rows(rotated: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normal scores of each row of a (d, n) block, ranked in row order with ``rng``."""
    grid = rank_quantile_grid(rotated.shape[1])
    out = np.empty_like(rotated)
    for row, x in zip(out, rotated):
        row[rank_order(x, rng)] = grid
    return out


def _probe_stats(block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate KS stats of a (d, n) block after a held-out plain rotation."""
    probe = random_rotation(block.shape[0], rng) @ block
    return np.asarray([ks_normal_stat(row) for row in probe])


def joint_objective(u, v, *, details: bool = False):
    """Gaussian MI bound of the empirical joint covariance of (U, V), in nats.

    With ``details=True`` returns ``(value, info)`` as ``gaussian_mi_bound``
    does; ``info`` holds only ``saturated``, True when that covariance is
    numerically singular, so the value is set by the ridge, not by the data.
    """
    u, v = as_block(u), as_block(v)
    if u.shape[0] <= u.shape[1] + v.shape[1]:
        raise ParameterError("need more samples than total dimensions")
    return gaussian_mi_bound(covariance(np.hstack([u, v])), u.shape[1], details=details)


def _try_scorer(blocks: dict, side: str):
    """``cand -> joint_objective`` of (U, V) with ``side``'s block replaced by ``cand``.

    Blocks and candidates are (d, n) arrays, one coordinate per row.  The
    other block is centered and its Gram taken once, here, and stacked under
    a row of ones.  Each call copies the candidate on top of that stack and
    takes one product, ``cand @ stack.T``: the candidate's Gram, its
    cross-products with the centered block and its row sums.  From these it
    builds the ddof-1 joint covariance in (U, V) order, which goes through
    the same checks, ridge and determinants in ``gaussian_mi_bound`` as
    ``joint_objective``.
    """
    other = blocks["v" if side == "u" else "u"]
    d_o, n = other.shape
    d_c = blocks[side].shape[0]
    ones = np.ones(n)
    stack = np.empty((d_c + d_o + 1, n))
    other_c = stack[d_c:-1]
    np.subtract(other, (other @ ones)[:, None] / n, out=other_c)
    stack[-1] = ones
    # the candidate's rows and columns of the joint, and U's width
    c, o = (slice(0, d_c), slice(d_c, None)) if side == "u" else (slice(d_o, None), slice(0, d_o))
    d_u = d_c if side == "u" else d_o
    joint = np.empty((d_c + d_o, d_c + d_o))
    joint[o, o] = other_c @ other_c.T

    def score(cand) -> float:
        stack[:d_c] = cand
        prods = cand @ stack.T
        sums = prods[:, -1:]
        joint[c, c] = prods[:, :d_c] - sums * sums.T / n
        joint[c, o] = prods[:, d_c:-1]
        joint[o, c] = prods[:, d_c:-1].T
        return gaussian_mi_bound(joint / (n - 1), d_u)

    return score


def _gaussianize(blocks: dict, rngs: dict, max_layers: int, tol: float, inner_tries: int):
    """The layer loop over one or two (d, n) blocks keyed by side.

    Per layer and per side: draw a rotation from that side's generator and
    rank the rotated rows to normal scores.  With a second block to score
    against, the side then hill-climbs: each of ``inner_tries`` Givens
    perturbations of the rotation (two coordinates, angle uniform on
    (-pi, pi)) is ranked and kept only when the joint objective strictly
    increases.  After every side has moved, every side draws its probe and
    the loop stops once all probes pass ``tol``.  Each generator thus reads
    rotation, ranks, tries, probe, layer after layer.

    Returns ``(blocks, chains, trace)``; ``trace`` lists
    ``(layer, side, objective)`` per side per layer and per accepted move.
    """
    chains = {side: GaussianizeChain() for side in blocks}
    trace: list[tuple[int, str, float]] = []
    for outer in range(max_layers):
        for side, rng in rngs.items():
            block = blocks[side]
            d = block.shape[0]
            rotation = random_rotation(d, rng)
            cand = _rank_rows(rotation @ block, rng)
            if len(blocks) == 2:
                score = _try_scorer(blocks, side)
                obj = score(cand)
                trace.append((outer, side, obj))
                # a 1-column block has no Givens move: a try would only redraw its tie-breaks
                for _ in range(inner_tries if d >= 2 else 0):
                    i, j = rng.choice(d, size=2, replace=False)
                    theta = rng.uniform(-np.pi, np.pi)
                    rot2 = givens_rotation(d, int(i), int(j), theta) @ rotation
                    cand2 = _rank_rows(rot2 @ block, rng)
                    obj2 = score(cand2)
                    if obj2 > obj:
                        rotation, cand, obj = rot2, cand2, obj2
                        trace.append((outer, side, obj))
                chains[side].objective_trace.append(obj)
            blocks[side] = cand
            chains[side].layers += 1
        # a list, not a short-circuit: every side draws its probe each layer
        stats = [_probe_stats(blocks[side], rng).max() for side, rng in rngs.items()]
        if max(stats) <= tol:
            for chain in chains.values():
                chain.converged = True
            break
    return blocks, chains, trace


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
    Gaussian after the final layer.  Non-convergence returns the full chain
    with ``converged`` cleared.
    """
    b = _rows(block)
    n = b.shape[1]
    if n < 100:
        raise InsufficientDataError("separate_gaussianize needs at least 100 samples")
    if max_layers < 1:
        raise ParameterError(f"max_layers must be at least 1, got {max_layers}")
    tol = default_normality_tol(n) if normality_tol is None else float(normality_tol)
    blocks, chains, _ = _gaussianize({"x": b}, {"x": np.random.default_rng(seed)}, max_layers, tol, 0)
    return np.ascontiguousarray(blocks["x"].T), chains["x"]


def biterminal_gaussianize(
    u,
    v,
    outer_iters: int = 30,
    inner_tries: int = 40,
    normality_tol: float | None = None,
    seed=None,
):
    """Joint Gaussianization of two blocks by objective-aware hill climbing.

    The layer loop of ``separate_gaussianize`` on both blocks at once: in
    each of at most ``outer_iters`` layers U steps, then V, each keeping the
    best of its base rotation and ``inner_tries`` Givens perturbations of
    it; the loop stops when both probes pass.  With ``inner_tries=0`` each
    side gets exactly the separate scheme's output.  The U and V sides draw
    from the two children of ``np.random.SeedSequence(seed).spawn(2)``.

    Blocks are held as C-contiguous (d, n) arrays, one coordinate per row,
    and each try ranks its rotated rows with ``rank_order``, one int64 key
    sort per row.  A row without ties reads no tie-break draw: on a stock
    ``PCG64`` generator it advances the bit generator by n instead of
    drawing, which leaves the state that ``rng.random(n)`` leaves, so the
    seeded stream is the same either way.

    A try is scored without restacking (U, V): the unchanged side's centered
    block and its Gram are taken once per side step, and each candidate adds
    its own Gram, cross-products with that block and row sums, all from one
    matrix product.  The resulting joint covariance goes through
    ``gaussian_mi_bound``, so a try scores ``joint_objective`` of the
    replaced pair up to rounding.

    Returns ``(u_out, v_out, (chain_u, chain_v), trace)`` where ``trace`` is a
    list of ``(outer_iteration, side, accepted_objective)`` tuples: one per
    side per layer for the base rotation, plus one per accepted Givens move.
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
    blocks, chains, trace = _gaussianize({"u": u, "v": v}, rngs, outer_iters, tol, inner_tries)
    u_out, v_out = (np.ascontiguousarray(blocks[side].T) for side in ("u", "v"))
    return u_out, v_out, (chains["u"], chains["v"]), trace
