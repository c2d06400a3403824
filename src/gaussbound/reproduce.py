"""Experiment reproductions: every check row reads ``gaussbound`` reports.

A bundle is data.  Each row names the ``bound`` or ``curve`` commands it
reads and a check over their reports' fields.  ``run_experiment`` parses
each command with the CLI's own parser and calls the report builders that
``gaussbound bound`` and ``gaussbound curve`` call, once per distinct
command, so a table certifies the pipeline the CLI runs.  The table prints
the commands, so any number in it can be rerun from the shell (a ``curve``
row reads its curves in memory; rerun, it writes them under ``curves/``).
A command's ``--seed`` is the seed of the sample it draws; the methods
take the CLI's settings and seed offsets.  Only the two model checks of
sec4.4 (``corr-xy``, ``true-mi``) call the library directly.  Rows flagged
non-binding are informational context (e.g. the sec6.1-exp curve checks)
whose values the qualitative figures do not pin down.
"""

from __future__ import annotations

import math
import shlex
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cli
from .errors import ParameterError
from .models import gm1d_sample, gm1d_true_mi
from .smoother import experiment_knn_k
from .stats_core import NATS_PER_BIT


@dataclass
class CheckRow:
    """One line of a reproduction table, with the commands it read."""

    id: str
    description: str
    value: str
    target: str
    passed: bool
    binding: bool = True
    elapsed_s: float = 0.0
    commands: tuple[str, ...] = ()


@dataclass
class _Check:
    """A row as data: the commands it reads, and a check mapping their
    reports, in ``argvs`` order, to (value text, passed)."""

    id: str
    description: str
    target: str
    argvs: list[tuple[str, ...]]
    check: Callable[[list[dict]], tuple[str, bool]]
    binding: bool = True


def _argv(command: str, model: str, n: int, seed: int, method: str, *flags) -> tuple[str, ...]:
    argv = [command, "--model", model, "--n", n, "--seed", seed, "--method", method, *flags]
    if command == "curve":  # required by the parser; a row reads the curves in memory
        argv += ["--out-dir", "curves"]
    return tuple(str(a) for a in argv)


def _pair_value(report: dict) -> str:
    return f"rho={report['rho'][0]:.3f}, {report['lower_bound_bits']:.4f} bits"


def _share(report: dict, key: str) -> float:
    return report[key] / report["true_mi_nats"]


# ---------------------------------------------------------------------------
# sec4.4: univariate Gaussian mixture (mu_z = 10, eps = 0.1, the CLI defaults)
# ---------------------------------------------------------------------------


def _corr_xy(seed: int) -> tuple[str, bool]:
    big = gm1d_sample(100_000, 10.0, 0.1, seed=seed).samples
    corr = float(np.corrcoef(big.x[:, 0], big.y[:, 0])[0, 1])
    return f"{corr:.4f}", abs(corr - 0.098) <= 0.010


def _true_mi(_reports) -> tuple[str, bool]:
    bits = gm1d_true_mi(10.0, 0.1) / NATS_PER_BIT
    return f"{bits:.4f} bits", abs(bits - 1.66) <= 0.02


def _naive(reports) -> tuple[str, bool]:
    (r,) = reports
    return _pair_value(r), abs(r["rho"][0] - 0.288) <= 0.03 and abs(r["lower_bound_bits"] - 0.063) <= 0.02


def _ace(reports) -> tuple[str, bool]:
    (r,) = reports
    rho, bits, flag = r["ace_rho"][0], r["ace_upper_bound_bits"], r["no_lossless_gaussian_embedding"]
    ok = abs(rho - 0.703) <= 0.03 and abs(bits - 0.4917) <= 0.05 and flag
    return f"rho={rho:.3f}, {bits:.4f} bits, flag={flag}", ok


def _agce(reports) -> tuple[str, bool]:
    (r,) = reports
    rho = r["rho"][0]
    return _pair_value(r), rho >= 0.60 and r["lower_bound_bits"] >= 0.36 and rho <= r["ace_rho"][0] + 0.02


def _offshelf(reports) -> tuple[str, bool]:
    agce, r = reports
    rho = r["rho"][0]
    ok = abs(rho - 0.646) <= 0.03 and abs(r["lower_bound_bits"] - 0.389) <= 0.05
    return _pair_value(r), ok and rho <= agce["rho"][0] + 1e-9


def sec44(n: int = 10_000, seed: int = 7) -> list[_Check]:
    """Univariate Gaussian-mixture experiment; the ace row reads AGCE's ACE fit."""
    naive, agce, offshelf = (_argv("bound", "gm1d", n, seed, m) for m in ("naive", "agce", "offshelf"))
    return [
        _Check("corr-xy", "raw correlation of the mixture pair, n=1e5", "0.098 +- 0.010", [],
               lambda _: _corr_xy(seed)),
        _Check("true-mi", "numeric mutual information of the model", "1.66 +- 0.02 bits", [], _true_mi),
        _Check("naive", "direct separate Gaussianization of X and Y",
               "rho 0.288 +- 0.03, 0.063 +- 0.02 bits", [naive], _naive),
        _Check("ace", "nonlinear CCA upper bound and no-lossless-embedding flag",
               "rho 0.703 +- 0.03, 0.4917 +- 0.05 bits, flag TRUE", [agce], _ace),
        _Check("agce", "alternating Gaussianized search, best of the CLI's 8 restarts",
               "rho >= 0.60, >= 0.36 bits, <= ACE rho + 0.02", [agce], _agce),
        _Check("offshelf", "Gaussianized ACE lower bound",
               "rho 0.646 +- 0.03, 0.389 +- 0.05 bits, <= AGCE", [agce, offshelf], _offshelf),
    ]


# ---------------------------------------------------------------------------
# sec5.4: multivariate models
# ---------------------------------------------------------------------------


def _gauss_shares(reports) -> tuple[str, bool]:
    (r,) = reports
    ace, naive = _share(r, "ace_upper_bound_nats"), _share(r, "lower_bound_nats")
    return f"ace={100 * ace:.1f}%, naive={100 * naive:.1f}%", ace >= 0.90 and naive <= 0.40


def sec54_gauss(n: int = 10_000, seed: int = 100) -> list[_Check]:
    """Scrambled jointly Gaussian model: ACE recovers, naive does not.

    A naive report carries both shares: its lower bound, and the upper bound
    of the ACE fit it makes for it.  Only the d = 1 row sets ``--k``: wider
    rows' default is already ``experiment_knn_k(n, d)``.
    """
    return [
        _Check(f"gauss-d{d}", f"d={d}: ACE share of true MI vs naive Gaussianization share",
               "ace >= 90%, naive <= 40%",
               [_argv("bound", "mv_gaussian_scramble", n, seed + d, "naive", "--d", d,
                      *(("--k", experiment_knn_k(n, d)) if d == 1 else ()))],
               _gauss_shares)
        for d in range(1, 6)
    ]


def _biterminal_wins(reports) -> tuple[str, bool]:
    pairs = list(zip(reports[::2], reports[1::2]))
    wins = sum(bit["lower_bound_nats"] >= sep["lower_bound_nats"] for sep, bit in pairs)
    return f"{wins}/{len(pairs)} wins", wins >= math.ceil(0.9 * len(pairs))


def _worst_ace_share(reports) -> tuple[str, bool]:
    worst = min(_share(r, "ace_upper_bound_nats") for r in reports)
    return f"{100 * worst:.1f}%", worst >= 0.50


def sec54_exp(n: int = 10_000, seed: int = 200) -> list[_Check]:
    """Rotated, mirrored exponential model, d = 2: bi-terminal beats separate.

    Seeds seed..seed+9 each run ``offshelf`` (separate Gaussianization of
    ACE) and ``biterminal``.
    """
    argvs = [
        _argv("bound", "exp_gamma", n, seed + s, method, "--d", 2)
        for s in range(10)
        for method in ("offshelf", "biterminal")
    ]
    return [
        _Check("exp-biterminal", "d=2: bi-terminal beats separate Gaussianization of ACE over 10 seeds",
               ">= 9/10", argvs, _biterminal_wins),
        _Check("exp-ace-share", "d=2: worst ACE share of true MI over 10 seeds", ">= 50%", argvs,
               _worst_ace_share),
    ]


def _gm_flag(reports) -> tuple[str, bool]:
    (r,) = reports
    flag = r["no_lossless_gaussian_embedding"]
    true_bits = r["true_mi_nats"] / NATS_PER_BIT
    return f"true={true_bits:.3f} bits, ace={r['ace_upper_bound_bits']:.3f} bits, flag={flag}", flag


def sec54_gm(n: int = 10_000, seed: int = 300) -> list[_Check]:
    """Multivariate Gaussian-mixture model: the no-lossless-embedding flag."""
    return [
        _Check(f"gm-d{d}", f"d={d}: true MI exceeds the ACE bound (no lossless Gaussian embedding)",
               "flag TRUE", [_argv("bound", "gm_mv", n, seed + d, "ace", "--d", d)], _gm_flag)
        for d in (1, 2)
    ]


# ---------------------------------------------------------------------------
# sec6.1: trade-off curve orderings
# ---------------------------------------------------------------------------


def _matched_curves(reports):
    """Method, raw and reference I_TY on a grid of I_TX all three reach."""
    curves = reports[0]["curves"]
    method, raw, ref = (curves[k] for k in ("method_curve", "raw_gib_curve", "reference_curve"))
    grid = np.linspace(0.01, min(method.i_tx.max(), ref.i_tx.max()), 50)
    return method.ity_at(grid), raw.ity_at(grid), ref.ity_at(grid)


def _dominates_raw(reports) -> tuple[str, bool]:
    method, raw, _ = _matched_curves(reports)
    above = bool(np.all(method >= raw - 1e-12))
    return f"dominates={above} (rho {reports[0]['rho'][0]:.3f} vs raw)", above


def _below_reference(reports) -> tuple[str, bool]:
    method, _, ref = _matched_curves(reports)
    excess = float((method - ref).max())
    return f"max excess {excess:.4f} nats", excess <= 0.02


def _curve_rows(tag: str, argv: tuple[str, ...], binding: bool = True) -> list[_Check]:
    return [
        _Check(f"{tag}-vs-raw", "Gaussianized-embedding curve dominates the raw-covariance curve",
               "at every matched I_TX", [argv], _dominates_raw, binding),
        _Check(f"{tag}-vs-ref", "Gaussianized-embedding curve stays below the discrete reference",
               "<= 0.02 nats", [argv], _below_reference, binding),
    ]


def sec61_gm(n: int = 10_000, seed: int = 7) -> list[_Check]:
    """Trade-off curve ordering on the Gaussian-mixture model."""
    return _curve_rows("gm-curve", _argv("curve", "gm1d", n, seed, "agce"))


def sec61_exp(n: int = 10_000, seed: int = 400) -> list[_Check]:
    """Trade-off curve ordering on the mirrored exponential model (qualitative)."""
    argv = _argv("curve", "exp_gamma", n, seed, "agce", "--quad-m", 48, "--restarts", 6)
    return _curve_rows("exp-curve", argv, binding=False)


EXPERIMENTS = {
    "sec4.4": sec44,
    "sec5.4-gauss": sec54_gauss,
    "sec5.4-exp": sec54_exp,
    "sec5.4-gm": sec54_gm,
    "sec6.1-exp": sec61_exp,
    "sec6.1-gm": sec61_gm,
}


def _report(argv: tuple[str, ...]) -> dict:
    """The report ``gaussbound`` builds for argv; a curve's also holds its curves."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "bound":
        return cli.bound_report(args)
    manifest, curves = cli.curve_report(args)
    return {**manifest, "curves": curves}


def run_experiment(experiment_id: str, n: int | None = None, seed: int | None = None) -> list[CheckRow]:
    """Run a named bundle, each distinct command once; n and seed override its defaults."""
    if experiment_id not in EXPERIMENTS:
        raise ParameterError(f"unknown experiment {experiment_id!r}; choose from {', '.join(EXPERIMENTS)}")
    if n is not None and n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    overrides = {key: value for key, value in (("n", n), ("seed", seed)) if value is not None}
    reports, rows = {}, []
    for spec in EXPERIMENTS[experiment_id](**overrides):
        for argv in spec.argvs:
            if argv not in reports:
                reports[argv] = _report(argv)
        read = [reports[argv] for argv in spec.argvs]
        t0 = time.perf_counter()
        value, passed = spec.check(read)
        elapsed = time.perf_counter() - t0 + sum(r["timing"]["wall_s"] for r in read)
        commands = tuple(shlex.join(("gaussbound", *argv)) for argv in spec.argvs)
        rows.append(CheckRow(spec.id, spec.description, value, spec.target, bool(passed), spec.binding,
                             elapsed, commands))
    return rows


def _numbers(numbers: list[int]) -> str:
    """[3, 4, 5] as "3-5"; other lists joined by commas; none as "-"."""
    if len(numbers) > 2 and numbers == list(range(numbers[0], numbers[-1] + 1)):
        return f"{numbers[0]}-{numbers[-1]}"
    return ",".join(map(str, numbers)) or "-"


def format_table(rows: list[CheckRow]) -> str:
    """Fixed-width pass/fail table, then the numbered commands its rows read."""
    number = {c: i for i, c in enumerate(dict.fromkeys(c for r in rows for c in r.commands), start=1)}
    headers = ("check", "value", "target", "status", "commands")
    cells = [
        (
            r.id,
            r.value,
            r.target,
            ("PASS" if r.passed else "FAIL") + ("" if r.binding else " (info)"),
            _numbers([number[c] for c in r.commands]),
        )
        for r in rows
    ]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(s.ljust(w) for s, w in zip(c, widths)).rstrip() for c in cells)
    if number:
        lines.append("")
        lines.extend(f"[{i}] {c}" for c, i in number.items())
    return "\n".join(lines)
