"""In-memory span tracer wrapped around gaussbound's public callables.

The tracer never edits the package: ``install`` rebinds each traced
function's name in every ``gaussbound.*`` module that holds it (so both
``from .x import f`` importers and same-module global lookups see the
wrapper) and patches the traced methods on their classes; ``uninstall``
puts the originals back.  Spans live in a list until the run dumps them.

Each span is ``[id, parent_id, phase, name, start, end, attrs, overhead]``.  ``phase``
is the op id the span belongs to ("setup" or "op-<i>"), so all spans of
one op share it.  Counters ride on span ``attrs``; anything they
need from the arguments is computed before the span's clock starts, and
anything from the result after it stops.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time

import numpy as np


class Tracer:
    """Span recorder for one single-threaded run; set ``phase`` per op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        """Callable that records a span named ``name`` around ``fn``.

        The span also keeps the tracer's own time outside ``[start, end]``
        (the counter hooks and bookkeeping), which is the tracing overhead.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            attrs = before(*args, **kwargs) if before else {}
            span = [len(spans), stack[-1] if stack else None, self.phase, name, 0.0, 0.0, attrs, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if after:
                attrs.update(after(result, *args, **kwargs))
            span[7] = (span[4] - entered) + (time.perf_counter() - span[5])
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "gaussbound" or n.startswith("gaussbound.")]
        for module_name, attr, name, before, after in _FUNCTIONS:
            original = getattr(sys.modules[f"gaussbound.{module_name}"], attr)
            traced = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, traced)
        for module_name, cls_name, attr, name, before in _METHODS:
            cls = getattr(sys.modules[f"gaussbound.{module_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, before))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "parent", "phase", "name", "start", "end", "attrs", "overhead")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), default=float) + "\n")


# ---------------------------------------------------------------------------
# What gets traced, and which counters each span carries
# ---------------------------------------------------------------------------


def _block_digest(x_block, *_args, **_kwargs):
    block = np.ascontiguousarray(np.asarray(x_block, dtype=float))
    return {"block": hashlib.blake2b(block.tobytes(), digest_size=16).hexdigest()}


def _smooth_bytes(smoother, *_args, **_kwargs):
    # computed, not measured: one intp index plus one float64 gathered per entry
    n, k = smoother.neighbors.shape
    return {"bytes": n * k * 16}


def _predict_points(_smoother, x_new, *_args, **_kwargs):
    return {"points": int(np.shape(x_new)[0])}


def _ace_counts(model, *_args, **_kwargs):
    return {
        "iterations": int(sum(len(h) for h in model.phi_history)),
        "pairs": int(len(model.converged)),
        "converged": int(np.sum(model.converged)),
    }


def _step_counts(step, *_args, **_kwargs):
    return {"kept_previous": bool(step.kept_previous)}


def _biterminal_counts(result, *args, **kwargs):
    _, _, (chain_u, _), trace = result
    outer = len(chain_u.objective_trace)
    inner = kwargs.get("inner_tries", args[3] if len(args) > 3 else 40)
    # the trace holds one entry per side per outer iteration plus one per
    # accepted Givens move
    return {"outer_iters": outer, "accepted": len(trace) - 2 * outer, "tries": 2 * outer * inner}


def _ib_counts(sol, *_args, **_kwargs):
    return {"n_iter": int(sol.n_iter), "converged": bool(sol.converged)}


def _pmf_cells(result, *_args, **_kwargs):
    return {"cells": int(result[0].p.size)}


_FUNCTIONS = (
    ("smoother", "knn_indices", "smoother.knn_indices", _block_digest, None),
    ("stats_core", "marginal_gaussianize", "stats_core.marginal_gaussianize", None, None),
    ("stats_core", "covariance", "stats_core.covariance", None, None),
    ("stats_core", "gaussian_mi_bound", "stats_core.gaussian_mi_bound", None, None),
    ("cca_ace", "ace_fit", "cca_ace.ace_fit", None, _ace_counts),
    ("agce", "agce_fit_1d", "agce.agce_fit_1d", None, None),
    ("agce", "agce_step", "agce.agce_step", None, _step_counts),
    ("biterminal", "biterminal_gaussianize", "biterminal.biterminal_gaussianize", None, _biterminal_counts),
    ("biterminal", "joint_objective", "biterminal.joint_objective", None, None),
    ("gib", "gib_spectrum", "gib.gib_spectrum", None, None),
    ("gib", "gib_curve", "gib.gib_curve", None, None),
    ("ib_discrete", "quadrature_discretize", "ib_discrete.quadrature_discretize", None, _pmf_cells),
    ("ib_discrete", "reverse_anneal", "ib_discrete.reverse_anneal", None, None),
    ("ib_discrete", "ib_iterate", "ib_discrete.ib_iterate", None, _ib_counts),
    ("models", "sample_from_spec", "models.sample", None, None),
    ("models", "gm_mv_sample", "models.sample", None, None),
    ("models", "expgamma_sample", "models.sample", None, None),
    ("cli", "read_samples_csv", "cli.read_samples_csv", None, None),
    ("cli", "main", "cli.main", None, None),
)

_METHODS = (
    ("smoother", "KnnSmoother", "smooth", "smoother.smooth", _smooth_bytes),
    ("smoother", "KnnSmoother", "predict", "smoother.predict", _predict_points),
    ("agce", "FittedTransform", "__call__", "agce.FittedTransform.call", None),
)


# ---------------------------------------------------------------------------
# Per-layer metrics derived from the spans
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "smoother.knn_indices.calls": ("count", "lower"),
    "smoother.knn_indices.s": ("s", "lower"),
    "smoother.knn_tables.distinct_ratio": ("ratio", "higher"),
    "smoother.smooth.calls": ("count", "lower"),
    "smoother.smooth.s": ("s", "lower"),
    "smoother.smooth.bytes_computed": ("bytes", "lower"),
    "smoother.predict.calls": ("count", "lower"),
    "smoother.predict.s": ("s", "lower"),
    "smoother.predict.points": ("count", "lower"),
    "stats_core.marginal_gaussianize.calls": ("count", "lower"),
    "stats_core.marginal_gaussianize.s": ("s", "lower"),
    "stats_core.covariance.calls": ("count", "lower"),
    "stats_core.covariance.s": ("s", "lower"),
    "stats_core.gaussian_mi_bound.calls": ("count", "lower"),
    "stats_core.gaussian_mi_bound.s": ("s", "lower"),
    "biterminal.biterminal_gaussianize.s": ("s", "lower"),
    "biterminal.biterminal_gaussianize.self_s": ("s", "lower"),
    "biterminal.joint_objective.calls": ("count", "lower"),
    "biterminal.joint_objective.self_s": ("s", "lower"),
    "biterminal.outer_iters": ("count", "lower"),
    "biterminal.givens_accept_ratio": ("ratio", "higher"),
    "cca_ace.ace_fit.calls": ("count", "lower"),
    "cca_ace.ace_fit.s": ("s", "lower"),
    "cca_ace.ace_fit.self_s": ("s", "lower"),
    "cca_ace.ace_fit.iterations": ("count", "lower"),
    "cca_ace.ace_fit.converged_ratio": ("ratio", "higher"),
    "agce.agce_fit_1d.s": ("s", "lower"),
    "agce.agce_step.calls": ("count", "lower"),
    "agce.agce_step.kept_previous_ratio": ("ratio", "lower"),
    "agce.FittedTransform.call.s": ("s", "lower"),
    "ib_discrete.reverse_anneal.s": ("s", "lower"),
    "ib_discrete.ib_iterate.calls": ("count", "lower"),
    "ib_discrete.ib_iterate.iterations": ("count", "lower"),
    "ib_discrete.ib_iterate.converged_ratio": ("ratio", "higher"),
    "ib_discrete.ib_iterate.s": ("s", "lower"),
    "ib_discrete.quadrature_discretize.s": ("s", "lower"),
    "ib_discrete.pmf_cells": ("count", "lower"),
    "gib.gib_spectrum.s": ("s", "lower"),
    "gib.gib_curve.s": ("s", "lower"),
    "models.sample.s": ("s", "lower"),
    "models.sample.setup_s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.read_samples_csv.s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.op_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _phase_totals(spans: list[list]) -> dict[str, dict]:
    """Per phase and span name: calls, time, self time and summed counters.

    ``<name>.s`` sums only a name's outermost spans, so a traced function
    that reaches another one of the same name is not counted twice;
    ``<name>#<attr>`` sums a numeric counter and ``<name>#blocks`` collects
    block digests.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    out: dict[str, dict] = {}
    for s in spans:
        tot = out.setdefault(s[2], {})
        name, dur = s[3], s[5] - s[4]
        sums = {".calls": 1, ".self_s": dur - child_time.get(s[0], 0.0)}
        parent = s[1]
        while parent is not None and by_id[parent][3] != name:
            parent = by_id[parent][1]
        if parent is None:
            sums[".s"] = dur
        for attr, value in s[6].items():
            if attr == "block":
                tot.setdefault(name + "#blocks", set()).add(value)
            else:
                sums["#" + attr] = float(value)
        for suffix, value in sums.items():
            tot[name + suffix] = tot.get(name + suffix, 0.0) + value
        tot["trace.overhead_s"] = tot.get("trace.overhead_s", 0.0) + s[7]
    return out


def layer_metrics(spans: list[list], op_wall_s: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans of the ops.

    ``op_wall_s`` maps each op's phase id to its wall time.  Times and
    counts are medians over ops; ratios pool all ops.  A layer that never
    ran reads 0, and so does a ratio with nothing under it.
    ``trace.overhead_ratio`` is an op's wall time over that time less the
    tracer's own share of it, so it needs no second, untraced op.
    """
    totals = _phase_totals(spans)
    ops = [totals.get(op, {}) for op in op_wall_s]

    def per_op(key: str) -> float:
        return float(statistics.median(t.get(key, 0.0) for t in ops))

    def pooled(num: str, den: str) -> float:
        n = sum(len(t.get(num, ())) if num.endswith("#blocks") else t.get(num, 0.0) for t in ops)
        d = sum(t.get(den, 0.0) for t in ops)
        return n / d if d else 0.0

    m = {
        "smoother.knn_tables.distinct_ratio": pooled("smoother.knn_indices#blocks", "smoother.knn_indices.calls"),
        "smoother.smooth.bytes_computed": per_op("smoother.smooth#bytes"),
        "smoother.predict.points": per_op("smoother.predict#points"),
        "biterminal.outer_iters": per_op("biterminal.biterminal_gaussianize#outer_iters"),
        "biterminal.givens_accept_ratio": pooled(
            "biterminal.biterminal_gaussianize#accepted", "biterminal.biterminal_gaussianize#tries"
        ),
        "cca_ace.ace_fit.iterations": per_op("cca_ace.ace_fit#iterations"),
        "cca_ace.ace_fit.converged_ratio": pooled("cca_ace.ace_fit#converged", "cca_ace.ace_fit#pairs"),
        "agce.agce_step.kept_previous_ratio": pooled("agce.agce_step#kept_previous", "agce.agce_step.calls"),
        "ib_discrete.ib_iterate.iterations": per_op("ib_discrete.ib_iterate#n_iter"),
        "ib_discrete.ib_iterate.converged_ratio": pooled(
            "ib_discrete.ib_iterate#converged", "ib_discrete.ib_iterate.calls"
        ),
        "ib_discrete.pmf_cells": pooled(
            "ib_discrete.quadrature_discretize#cells", "ib_discrete.quadrature_discretize.calls"
        ),
        "models.sample.setup_s": totals.get("setup", {}).get("models.sample.s", 0.0),
        "cli.self_s": per_op("cli.main.self_s"),
        "trace.ops": len(op_wall_s),
        "trace.op_s": statistics.median(op_wall_s.values()),
        "trace.overhead_ratio": statistics.median(
            wall / (wall - totals.get(op, {}).get("trace.overhead_s", 0.0)) for op, wall in op_wall_s.items()
        ),
    }
    for name in LAYER_METRICS:
        if name not in m:
            m[name] = per_op(name)
    return {name: float(m[name]) for name in LAYER_METRICS}
