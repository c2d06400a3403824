"""Reference Information Bottleneck solver on finite alphabets.

Implements the classic self-consistent iterations (Tishby, Pereira & Bialek,
1999) with a warm-started reverse annealing sweep, plus quadrature
discretization of analytic continuous joints so the discrete curve can serve
as the reference a Gaussian lower-bound curve is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedModelError
from .gib import IBCurve

_Q_FLOOR = 1e-300
# A beta whose I(T;X) and I(T;Y) each span less than _STATIONARY_TOL nats over
# the last _STATIONARY_WINDOW sweeps stops as stationary.
_STATIONARY_WINDOW = 50
_STATIONARY_TOL = 1e-9
# A beta still running after _PLAIN_SWEEPS plain sweeps switches to SQUAREM
# cycles, whose step bound moves by _STEP_FACTOR.
_PLAIN_SWEEPS = 100
_STEP_FACTOR = 4.0


@dataclass(frozen=True)
class JointPmf:
    """Finite joint distribution p[x, y], renormalized, with zero-probability x rows pruned."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2:
            raise DomainError("JointPmf needs a 2-D matrix")
        if np.any(p < 0) or not np.isfinite(p).all():
            raise DomainError("JointPmf entries must be finite and nonnegative")
        total = p.sum()
        if total <= 0:
            raise DomainError("JointPmf must have positive mass")
        if abs(total - 1.0) > 1e-12:
            p = p / total
        p = p[p.sum(axis=1) > 0.0]
        p = p / p.sum()
        object.__setattr__(self, "p", p)

    @property
    def n_x(self) -> int:
        return self.p.shape[0]

    @property
    def p_x(self) -> np.ndarray:
        return self.p.sum(axis=1)

    @property
    def p_y(self) -> np.ndarray:
        return self.p.sum(axis=0)

    @property
    def p_y_given_x(self) -> np.ndarray:
        return self.p / self.p_x[:, None]

    def mutual_information(self) -> float:
        """Exact I(X;Y) of the pmf, in nats."""
        outer = np.outer(self.p_x, self.p_y)
        mask = self.p > 0
        return float(np.sum(self.p[mask] * np.log(self.p[mask] / outer[mask])))


def _mi_rows(weights: np.ndarray, rows: np.ndarray, marginal: np.ndarray) -> float:
    """sum_i w_i KL(rows_i || marginal), the MI of a channel with input weights."""
    ratio = _log_floored(rows) - _log_floored(marginal)
    return float(np.sum(weights[:, None] * rows * ratio))


@dataclass
class IBSolution:
    """A locally optimal encoder q(t|x) with its decoder and information pair.

    ``residual`` is the max |Δq(t|x)| of the sweep that produced the encoder.
    """

    q_t_given_x: np.ndarray
    q_t: np.ndarray
    q_y_given_t: np.ndarray
    beta: float
    i_tx: float
    i_ty: float
    converged: bool
    n_iter: int
    stationary: bool = False
    lagrangian_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    residual: float = np.nan


class _Iterate(NamedTuple):
    """An encoder with its marginal, decoder and their floored logs.

    A sweep's output also carries its information pair and its max |Δq|.
    """

    q: np.ndarray
    qt: np.ndarray
    qyt: np.ndarray
    log_qt: np.ndarray
    log_qyt: np.ndarray
    i_tx: float = np.nan
    i_ty: float = np.nan
    delta: float = np.nan


def ib_iterate(
    joint: JointPmf,
    beta: float,
    init: IBSolution | None = None,
    tol: float = 1e-9,
    max_iter: int = 3000,
) -> IBSolution:
    """Fixed-point iteration of the bottleneck self-consistent equations.

    The map F sends q(t|x) to q(t) exp(-beta KL(p(y|x) || q(y|t))),
    normalized over t, with the marginal and decoder recomputed from the
    result.  Encoder entries below the log floor (1e-300) are set to exactly
    0 after each softmax: every log already reads them as 1e-300, and left in
    place they turn the decoder's products into subnormal arithmetic.

    The first ``_PLAIN_SWEEPS`` (100) sweeps apply F plainly.  A beta still
    running after them switches to SQUAREM cycles (Varadhan & Roland, Scand.
    J. Statist. 35, 2008): from q0, q1 = F(q0) and q2 = F(q1); with
    r = q1 - q0 and v = q2 - 2 q1 + q0, the step q0 - 2 alpha r + alpha^2 v,
    alpha = -||r|| / ||v|| clipped to at most -1 and at least
    -``step_max``, is clipped to nonnegative entries, its rows are
    renormalized, and one stabilizing F follows.  The cycle keeps that result
    only if its Lagrangian is not above q2's.  Otherwise it continues from
    q2 and quarters ``step_max`` (at least 1); a kept step taken at
    ``step_max`` quadruples it.  Every evaluation of F counts as a sweep.

    The Lagrangian I(T;X) - beta I(T;Y) of every kept iterate is traced and
    is nonincreasing up to numerical noise.  It comes from the sweep's own
    logs: log q(t|x) from the softmax, and the floored log q(t) and
    log q(y|t) that the next sweep's KL term reuses.

    A beta stops at the first of three events, read off kept sweeps only,
    so a rejected step cannot trip them:

    - ``converged``: a sweep moves q(t|x) by less than ``tol`` in max-abs;
    - ``stationary``: over the last 50 kept sweeps (``_STATIONARY_WINDOW``),
      I(T;X) and I(T;Y) each span less than 1e-9 nats
      (``_STATIONARY_TOL``), so it never fires before sweep 50.  Near a
      cluster split q(t|x) can creep for thousands of sweeps while the
      information pair has settled;
    - neither: ``max_iter`` sweeps ran out.

    ``residual`` is the max-abs change of the sweep that produced the
    returned encoder.
    """
    if not (np.isfinite(beta) and beta > 0):
        raise ParameterError(f"beta must be finite and positive, got {beta}")
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    if init is not None and init.q_t_given_x.shape != (joint.n_x, joint.n_x):
        raise ParameterError(
            f"init encoder has shape {init.q_t_given_x.shape}, expected {(joint.n_x, joint.n_x)}"
        )
    px = joint.p_x
    pyx = joint.p_y_given_x
    pxy = px[:, None] * pyx
    h_rows = np.sum(pyx * _log_floored(pyx), axis=1)  # sum_y p(y|x) ln p(y|x)
    log_py = _log_floored(joint.p_y)
    log_floor = np.log(_Q_FLOOR)

    def decode(q):
        qt, _, qyt = _decoder(q, px, pxy)
        return _Iterate(q, qt, qyt, _log_floored(qt), _log_floored(qyt))

    def sweep(it: _Iterate) -> _Iterate:
        """F(it.q), with its information pair and max |Δq|."""
        # d[x,t] = KL(p(y|x) || q(y|t))
        d = h_rows[:, None] - pyx @ it.log_qyt.T
        q, log_q = _softmax(it.log_qt - beta * d, axis=1)
        q[q < _Q_FLOOR] = 0.0
        qt, qty, qyt = _decoder(q, px, pxy)
        log_qt, log_qyt = _log_floored(qt), _log_floored(qyt)
        # sum_x p(x) q(t|x) ln(q(t|x) / q(t)) and sum_t q(t) q(y|t) ln(q(y|t) / p(y))
        i_tx = np.vdot(px[:, None] * q, np.maximum(log_q, log_floor) - log_qt)
        i_ty = np.vdot(qty, log_qyt - log_py)
        delta = np.abs(q - it.q).max()
        return _Iterate(q, qt, qyt, log_qt, log_qyt, float(i_tx), float(i_ty), delta)

    tx_hist, ty_hist = [], []

    def keep(it: _Iterate) -> str:
        """Record a kept sweep; the stop event it trips, if any."""
        tx_hist.append(it.i_tx)
        ty_hist.append(it.i_ty)
        if it.delta < tol:
            return "converged"
        if len(tx_hist) >= _STATIONARY_WINDOW and _spans_less(tx_hist) and _spans_less(ty_hist):
            return "stationary"
        return ""

    cur = decode(np.eye(joint.n_x) if init is None else init.q_t_given_x.copy())
    n_iter, stop, step_max, cycle = 0, "", 1.0, []
    while not stop and n_iter < max_iter:
        if n_iter >= _PLAIN_SWEEPS:
            cycle.append(cur.q)
        cur = sweep(cur)
        n_iter += 1
        stop = keep(cur)
        if len(cycle) < 2 or stop or n_iter == max_iter:
            continue
        (q0, q1), cycle = cycle, []
        r = q1 - q0
        v = cur.q - 2.0 * q1 + q0
        sr, sv = np.linalg.norm(r), np.linalg.norm(v)
        alpha = -min(step_max, max(1.0, sr / sv if sv > 0 else np.inf))
        if alpha < -1.0:  # at alpha = -1 the step lands on q2
            q = np.maximum(q0 - 2.0 * alpha * r + alpha * alpha * v, 0.0)
            q /= q.sum(axis=1, keepdims=True)
            trial = sweep(decode(q))
            n_iter += 1
            if trial.i_tx - beta * trial.i_ty > cur.i_tx - beta * cur.i_ty:
                step_max = max(1.0, step_max / _STEP_FACTOR)
                continue
            cur = trial
            stop = keep(cur)
        if alpha == -step_max:
            step_max *= _STEP_FACTOR

    return IBSolution(
        q_t_given_x=cur.q,
        q_t=cur.qt,
        q_y_given_t=cur.qyt,
        beta=float(beta),
        i_tx=_mi_rows(px, cur.q, cur.qt),
        i_ty=_mi_rows(cur.qt, cur.qyt, joint.p_y),
        converged=stop == "converged",
        n_iter=n_iter,
        stationary=stop == "stationary",
        lagrangian_trace=np.asarray(tx_hist) - beta * np.asarray(ty_hist),
        residual=float(cur.delta),
    )


def _spans_less(history: list) -> bool:
    """Whether the last _STATIONARY_WINDOW values span less than _STATIONARY_TOL.

    The endpoints are compared first, so a beta that is still moving costs
    one subtraction per sweep.
    """
    if abs(history[-1] - history[-_STATIONARY_WINDOW]) >= _STATIONARY_TOL:
        return False
    window = history[-_STATIONARY_WINDOW:]
    return max(window) - min(window) < _STATIONARY_TOL


def _log_floored(a: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(a, _Q_FLOOR))


def _softmax(logits: np.ndarray, axis=None):
    """exp(logits) normalized along ``axis`` (over every entry when None), and its log.

    The max is subtracted before ``exp`` so nothing overflows.  This stands in
    for scipy's ``logsumexp``, whose per-call dispatch outweighs the
    arithmetic on matrices this small.
    """
    shifted = logits - logits.max(axis=axis, keepdims=True)
    unnorm = np.exp(shifted)
    total = unnorm.sum(axis=axis, keepdims=True)
    return unnorm / total, shifted - np.log(total)


def _decoder(q: np.ndarray, px: np.ndarray, pxy: np.ndarray):
    """Marginal q(t), joint q(t,y) and decoder q(y|t) of the encoder q(t|x).

    ``pxy`` is the joint p(x,y).  A dead cluster (q(t) = 0) gets a uniform
    decoder.
    """
    qt = px @ q
    qty = q.T @ pxy
    if qt.all():
        return qt, qty, qty / qt[:, None]
    alive = qt > 0
    qyt = np.full_like(qty, 1.0 / qty.shape[1])
    qyt[alive] = qty[alive] / qt[alive, None]
    return qt, qty, qyt


def upper_concave_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y values of the least concave majorant of the points, at their own x."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    env_sorted = np.interp(xs, xs[hull], ys[hull])
    out = np.empty_like(env_sorted)
    out[order] = env_sorted
    return out


def reverse_anneal(joint: JointPmf, beta_schedule=None):
    """Warm-started sweep from large beta down, tracing the trade-off curve.

    Each solution seeds the next (smaller) beta; the default schedule is 60
    log-spaced betas from 200 down to 0.8.  Points that violate
    concavity by more than 1e-6 (local-optimum artifacts) get their I_TY
    replaced by the upper concave envelope, and their indices are the
    diagnostics' ``lifted_points``.  The diagnostics also hold each beta's
    ``converged`` and ``stationary`` flags (see ``ib_iterate``), in curve
    order, so a beta with neither stopped at the sweep limit, and the
    ``solutions`` in schedule order.

    Returns ``(curve, diagnostics)``.
    """
    if beta_schedule is None:
        beta_schedule = np.logspace(np.log10(200.0), np.log10(0.8), 60)
    schedule = np.asarray(beta_schedule, float)
    if schedule.ndim != 1 or schedule.size == 0:
        raise ParameterError("beta schedule must be a nonempty 1-D array")
    if not np.isfinite(schedule).all():
        raise ParameterError("beta schedule entries must be finite")
    if schedule.size > 1 and np.any(np.diff(schedule) >= 0):
        raise ParameterError("beta schedule must be strictly descending")

    solutions = []
    init = None
    for beta in schedule:
        sol = ib_iterate(joint, beta, init=init)
        solutions.append(sol)
        init = sol

    betas = np.asarray([s.beta for s in solutions])[::-1]
    conv = np.asarray([s.converged for s in solutions])[::-1]
    stationary = np.asarray([s.stationary for s in solutions])[::-1]

    # cleanup: clip coordinate backtracking, then lift concavity violations
    tx = np.maximum.accumulate(np.asarray([s.i_tx for s in solutions])[::-1])
    ty = np.maximum.accumulate(np.asarray([s.i_ty for s in solutions])[::-1])
    env = upper_concave_envelope(tx, ty)
    lifted = env > ty + 1e-6
    ty = np.where(lifted, env, ty)
    ty = np.minimum(ty, tx)
    curve = IBCurve(betas, tx, ty, "nats")
    curve.validate(concavity_tol=2e-6)
    diagnostics = {
        "converged": conv,
        "stationary": stationary,
        "lifted_points": np.flatnonzero(lifted),
        "solutions": solutions,
    }
    return curve, diagnostics


def _hermite_nodes(mean: float, std: float, m: int):
    """Gauss-Hermite nodes/log-weights for integrating against N(mean, std^2)."""
    t, w = np.polynomial.hermite.hermgauss(m)
    nodes = mean + np.sqrt(2.0) * std * t
    log_prob = np.log(w) - 0.5 * np.log(np.pi)
    return nodes, log_prob


def _axis_nodes(components, m: int):
    """Node locations and log Lebesgue weights for a Gaussian mixture axis.

    Every mixture component contributes m Gauss-Hermite nodes; the Lebesgue
    weight of a node divides out its own component's density so that
    sum_i exp(logw_i) f(x_i) approximates the integral of f.
    """
    nodes, logw = [], []
    for weight, mean, std in components:
        xs, log_prob = _hermite_nodes(mean, std, m)
        log_pdf = -0.5 * ((xs - mean) / std) ** 2 - np.log(std * np.sqrt(2 * np.pi))
        nodes.append(xs)
        logw.append(np.log(weight) + log_prob - log_pdf)
    return np.concatenate(nodes), np.concatenate(logw)


def _quantile_nodes(quantile_fn, m: int):
    """Equal-probability bins from a marginal quantile function."""
    probs = np.clip(np.linspace(0.0, 1.0, m + 1), 1e-9, 1.0 - 1e-9)
    edges = quantile_fn(probs)
    centers = quantile_fn((np.arange(m) + 0.5) / m)
    widths = np.diff(edges)
    if np.any(widths <= 0) or not np.isfinite(widths).all():
        raise DomainError("marginal quantile function produced invalid bins")
    return centers, np.log(widths)


def quadrature_discretize(model, m: int = 32):
    """Discretize an analytic joint onto a quadrature-node grid.

    Node placement: Gaussian-like marginals get Gauss-Hermite nodes per
    mixture component; other marginal families fall back to equal-probability
    quantile bins (flagged in the diagnostics).  The joint density is
    evaluated at node products, importance-weighted and renormalized.  Point
    sampling tracks the analytic MI closely on smooth joints but can
    exaggerate dependence when a conditional scale is finer than the node
    spacing.

    Returns ``(JointPmf, diagnostics)``, the pmf's axes in ascending node order.
    """
    if not 8 <= m <= 64:
        raise ParameterError("nodes per dimension must lie in [8, 64]")
    if not hasattr(model, "joint_log_density"):
        raise UnsupportedModelError(
            f"model {type(model).__name__} exposes no joint_log_density"
        )

    diagnostics = {"fallback_axes": []}
    nodes, logw = [], []
    for axis in ("x", "y"):
        comps = getattr(model, f"{axis}_gaussian_components", lambda: None)()
        if comps is not None:
            ns, lw = _axis_nodes(comps, m)
            order = np.argsort(ns, kind="stable")
            ns, lw = ns[order], lw[order]
        else:
            quantile_fn = getattr(model, f"{axis}_quantile", None)
            if quantile_fn is None:
                raise UnsupportedModelError(
                    f"model {type(model).__name__} has neither Gaussian components "
                    f"nor a quantile function for axis {axis}"
                )
            diagnostics["fallback_axes"].append(axis)
            ns, lw = _quantile_nodes(quantile_fn, m)
        nodes.append(ns)
        logw.append(lw)

    xn, yn = nodes
    if xn.size * yn.size > 4096:
        raise ParameterError("total bins exceed 4096; lower m")

    log_p = (
        model.joint_log_density(xn[:, None], yn[None, :])
        + logw[0][:, None]
        + logw[1][None, :]
    )
    return JointPmf(_softmax(log_p)[0]), diagnostics
