"""End-to-end experiment reproductions with documented defaults.

Each ``sec*`` function runs one experiment bundle and returns check rows the
CLI renders as a pass/fail table; the acceptance test suite asserts the same
rows.  Rows flagged non-binding are informational context (e.g. kernel-CCA
columns) whose values the qualitative figures do not pin down.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .agce import agce_fit_1d, naive_lower_1d, offshelf_lower_1d, pair_bound_nats
from .biterminal import biterminal_gaussianize, joint_objective, separate_gaussianize
from .cca_ace import ace_fit, ace_upper_bound, kcca_fit
from .gib import gib_curve, gib_spectrum
from .ib_discrete import quadrature_discretize, reverse_anneal
from .models import Gm1dModel, expgamma_sample, gm1d_sample, gm1d_true_mi, gm_mv_sample, mvg_scramble_sample
from .smoother import SmootherConfig, default_knn_k
from .stats_core import NATS_PER_BIT, covariance


@dataclass
class CheckRow:
    """One line of a reproduction table."""

    id: str
    description: str
    value: str
    target: str
    passed: bool
    binding: bool = True
    elapsed_s: float = 0.0


def experiment_knn_k(n: int, d: int) -> int:
    """Documented per-experiment neighbor count: consistency-rate scaling in d."""
    return int(np.clip(math.ceil(n ** (4.0 / (4.0 + d)) / 8.0), 10, default_knn_k(n)))


def _bits(nats: float) -> float:
    return nats / NATS_PER_BIT


def sec44(n: int = 10_000, seed: int = 7, n_restarts: int = 8) -> list[CheckRow]:
    """Univariate Gaussian-mixture experiment (mu_z = 10, eps = 0.1)."""
    rows = []
    mu_z, eps = 10.0, 0.1

    t0 = time.perf_counter()
    big = gm1d_sample(100_000, mu_z, eps, seed=seed)
    corr = float(np.corrcoef(big.samples.x[:, 0], big.samples.y[:, 0])[0, 1])
    rows.append(
        CheckRow(
            "corr-xy",
            "raw correlation of the mixture pair, n=1e5",
            f"{corr:.4f}",
            "0.098 +- 0.010",
            abs(corr - 0.098) <= 0.010,
            elapsed_s=time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    mi_bits = _bits(gm1d_true_mi(mu_z, eps))
    rows.append(
        CheckRow(
            "true-mi",
            "numeric mutual information of the model",
            f"{mi_bits:.4f} bits",
            "1.66 +- 0.02 bits",
            abs(mi_bits - 1.66) <= 0.02,
            elapsed_s=time.perf_counter() - t0,
        )
    )

    ms = gm1d_sample(n, mu_z, eps, seed=seed)

    t0 = time.perf_counter()
    nv = naive_lower_1d(ms.samples, seed=seed + 1)
    nv_bits = _bits(pair_bound_nats(nv))
    ok = abs(nv.rho - 0.288) <= 0.03 and abs(nv_bits - 0.063) <= 0.02
    rows.append(
        CheckRow(
            "naive",
            "direct separate Gaussianization of X and Y",
            f"rho={nv.rho:.3f}, {nv_bits:.4f} bits",
            "rho 0.288 +- 0.03, 0.063 +- 0.02 bits",
            ok,
            elapsed_s=time.perf_counter() - t0,
        )
    )

    t0 = time.perf_counter()
    off = offshelf_lower_1d(ms.samples, seed=seed + 3)
    off_bits = _bits(pair_bound_nats(off))
    off_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    ag = agce_fit_1d(ms.samples, n_restarts=n_restarts, seed=seed + 3)
    ag_bits = _bits(pair_bound_nats(ag))
    ag_elapsed = time.perf_counter() - t0

    # the ACE fit AGCE started from: a one-pair fit starts from Y's first
    # principal component, so it is the same model whatever its seed
    ace = ag.ace
    ub_bits = _bits(ace_upper_bound(ace))
    lemma_flag = mi_bits > ub_bits
    ok = abs(ace.rho[0] - 0.703) <= 0.03 and abs(ub_bits - 0.4917) <= 0.05 and lemma_flag
    rows.append(
        CheckRow(
            "ace",
            "nonlinear CCA upper bound and no-lossless-embedding flag",
            f"rho={ace.rho[0]:.3f}, {ub_bits:.4f} bits, flag={lemma_flag}",
            "rho 0.703 +- 0.03, 0.4917 +- 0.05 bits, flag TRUE",
            ok,
        )
    )

    ok = ag.rho >= 0.60 and ag_bits >= 0.36 and ag.rho <= ace.rho[0] + 0.02
    rows.append(
        CheckRow(
            "agce",
            f"alternating Gaussianized search, best of {n_restarts} restarts",
            f"rho={ag.rho:.3f}, {ag_bits:.4f} bits",
            "rho >= 0.60, >= 0.36 bits, <= ACE rho + 0.02",
            ok,
            elapsed_s=ag_elapsed,
        )
    )

    ok = abs(off.rho - 0.646) <= 0.03 and abs(off_bits - 0.389) <= 0.05 and off.rho <= ag.rho + 1e-9
    rows.append(
        CheckRow(
            "offshelf",
            "Gaussianized ACE lower bound",
            f"rho={off.rho:.3f}, {off_bits:.4f} bits",
            "rho 0.646 +- 0.03, 0.389 +- 0.05 bits, <= AGCE",
            ok,
            elapsed_s=off_elapsed,
        )
    )
    return rows


def sec54_gauss(
    n: int = 10_000,
    seed: int = 100,
    dims=(1, 2, 3, 4, 5),
    kcca_dims=(6, 7, 8, 9, 10),
    kcca_n: int = 2000,
) -> list[CheckRow]:
    """Scrambled jointly Gaussian model: ACE recovers, naive does not."""
    rows = []
    for d in dims:
        t0 = time.perf_counter()
        ms = mvg_scramble_sample(n, d, seed=seed + d)
        true_mi = ms.true_mi_nats
        cfg = SmootherConfig(k=experiment_knn_k(n, d))
        ace = ace_fit(ms.samples, smoother=cfg, seed=seed + d)
        share = ace_upper_bound(ace) / true_mi
        su, _ = separate_gaussianize(ms.samples.x, max_layers=15, seed=seed + 31 * d)
        sv, _ = separate_gaussianize(ms.samples.y, max_layers=15, seed=seed + 37 * d)
        naive_share = joint_objective(su, sv) / true_mi
        ok = share >= 0.90 and naive_share <= 0.40
        rows.append(
            CheckRow(
                f"gauss-d{d}",
                f"d={d}: ACE share of true MI vs naive Gaussianization share",
                f"ace={100 * share:.1f}%, naive={100 * naive_share:.1f}%",
                "ace >= 90%, naive <= 40%",
                ok,
                elapsed_s=time.perf_counter() - t0,
            )
        )
    for d in kcca_dims:
        t0 = time.perf_counter()
        ms = mvg_scramble_sample(kcca_n, d, seed=seed + d)
        kc = kcca_fit(ms.samples, k=min(d, 4), ridge=1e-2, seed=seed + d)
        su, _ = separate_gaussianize(kc.u, max_layers=10, seed=seed + 41 * d)
        sv, _ = separate_gaussianize(kc.v, max_layers=10, seed=seed + 43 * d)
        share = joint_objective(su, sv) / ms.true_mi_nats
        rows.append(
            CheckRow(
                f"kcca-d{d}",
                f"d={d}: Gaussianized kernel-CCA share of true MI (n={kcca_n})",
                f"{100 * share:.1f}%",
                "informational (suboptimal fallback)",
                True,
                binding=False,
                elapsed_s=time.perf_counter() - t0,
            )
        )
    return rows


def sec54_exp(n: int = 10_000, seed: int = 200, d: int = 2, n_seeds: int = 10) -> list[CheckRow]:
    """Rotated, mirrored exponential model: bi-terminal beats separate."""
    wins = 0
    shares = []
    t0 = time.perf_counter()
    cfg = SmootherConfig(k=experiment_knn_k(n, d))
    for s in range(n_seeds):
        ms = expgamma_sample(n, d, seed=seed + s)
        ace = ace_fit(ms.samples, smoother=cfg, seed=seed + s)
        shares.append(ace_upper_bound(ace) / ms.true_mi_nats)
        su, _ = separate_gaussianize(ace.u, max_layers=12, seed=seed + 1000 + s)
        sv, _ = separate_gaussianize(ace.v, max_layers=12, seed=seed + 2000 + s)
        sep = joint_objective(su, sv)
        bu, bv, _, _ = biterminal_gaussianize(
            ace.u, ace.v, outer_iters=12, inner_tries=30, seed=seed + 3000 + s
        )
        bit = joint_objective(bu, bv)
        wins += bit >= sep
    elapsed = time.perf_counter() - t0
    return [
        CheckRow(
            "exp-biterminal",
            f"d={d}: bi-terminal beats separate Gaussianization of ACE over {n_seeds} seeds",
            f"{wins}/{n_seeds} wins",
            ">= 9/10",
            wins >= math.ceil(0.9 * n_seeds),
            elapsed_s=elapsed,
        ),
        CheckRow(
            "exp-ace-share",
            f"d={d}: worst ACE share of true MI over {n_seeds} seeds",
            f"{100 * min(shares):.1f}%",
            ">= 50%",
            min(shares) >= 0.50,
            elapsed_s=0.0,
        ),
    ]


def sec54_gm(n: int = 10_000, seed: int = 300, dims=(1, 2)) -> list[CheckRow]:
    """Multivariate Gaussian-mixture model: the no-lossless-embedding flag."""
    rows = []
    for d in dims:
        t0 = time.perf_counter()
        ms = gm_mv_sample(n, d, seed=seed + d)
        cfg = SmootherConfig(k=experiment_knn_k(n, d))
        ace = ace_fit(ms.samples, smoother=cfg, seed=seed + d)
        ub = ace_upper_bound(ace)
        flag = ms.true_mi_nats > ub
        rows.append(
            CheckRow(
                f"gm-d{d}",
                f"d={d}: true MI exceeds the ACE bound (no lossless Gaussian embedding)",
                f"true={_bits(ms.true_mi_nats):.3f} bits, ace={_bits(ub):.3f} bits, flag={flag}",
                "flag TRUE",
                flag,
                elapsed_s=time.perf_counter() - t0,
            )
        )
    return rows


def _curve_ordering_rows(
    tag: str,
    model,
    samples,
    n_restarts: int,
    seed: int,
    quad_m: int,
    slack: float = 0.02,
) -> list[CheckRow]:
    """Shared scaffolding for the trade-off curve orderings."""
    t0 = time.perf_counter()
    ag = agce_fit_1d(samples, n_restarts=n_restarts, seed=seed)
    method_curve = gib_curve(gib_spectrum([[1.0, ag.rho], [ag.rho, 1.0]], 1))
    raw_spec = gib_spectrum(covariance(np.hstack([samples.x, samples.y])), samples.d_x)
    raw_curve = gib_curve(raw_spec, beta_grid=method_curve.beta)
    pmf, _ = quadrature_discretize(model, m=quad_m)
    ref_curve, _ = reverse_anneal(pmf)

    top_ref = min(method_curve.i_tx.max(), ref_curve.i_tx.max())
    grid = np.linspace(0.01, top_ref, 50)
    above_raw = bool(
        np.all(method_curve.ity_at(grid) >= raw_curve.ity_at(grid) - 1e-12)
    )
    excess = float((method_curve.ity_at(grid) - ref_curve.ity_at(grid)).max())
    elapsed = time.perf_counter() - t0
    return [
        CheckRow(
            f"{tag}-vs-raw",
            "Gaussianized-embedding curve dominates the raw-covariance curve",
            f"dominates={above_raw} (rho {ag.rho:.3f} vs raw)",
            "at every matched I_TX",
            above_raw,
            elapsed_s=elapsed,
        ),
        CheckRow(
            f"{tag}-vs-ref",
            "Gaussianized-embedding curve stays below the discrete reference",
            f"max excess {excess:.4f} nats",
            f"<= {slack} nats",
            excess <= slack,
            elapsed_s=0.0,
        ),
    ]


def sec61_gm(n: int = 10_000, seed: int = 7, quad_m: int = 32, n_restarts: int = 8) -> list[CheckRow]:
    """Trade-off curve ordering on the Gaussian-mixture model."""
    ms = gm1d_sample(n, seed=seed)
    return _curve_ordering_rows("gm-curve", Gm1dModel(10.0, 0.1), ms.samples, n_restarts, seed + 11, quad_m)


def sec61_exp(n: int = 10_000, seed: int = 400, quad_m: int = 48, n_restarts: int = 6) -> list[CheckRow]:
    """Trade-off curve ordering on the mirrored exponential model."""
    from .models import ExpMirrorModel

    ms = expgamma_sample(n, 1, seed=seed)
    rows = _curve_ordering_rows(
        "exp-curve", ExpMirrorModel(), ms.samples, n_restarts, seed + 11, quad_m
    )
    for r in rows:
        r.binding = False  # figure ordering is qualitative for this model
    return rows


EXPERIMENTS = {
    "sec4.4": sec44,
    "sec5.4-gauss": sec54_gauss,
    "sec5.4-exp": sec54_exp,
    "sec5.4-gm": sec54_gm,
    "sec6.1-exp": sec61_exp,
    "sec6.1-gm": sec61_gm,
}


def run_experiment(experiment_id: str, **kwargs) -> list[CheckRow]:
    """Dispatch one of the named experiment bundles (KeyError if unknown)."""
    return EXPERIMENTS[experiment_id](**kwargs)


def format_table(rows: list[CheckRow]) -> str:
    """Fixed-width pass/fail table."""
    headers = ("check", "value", "target", "status")
    cells = [
        (r.id, r.value, r.target, ("PASS" if r.passed else "FAIL") + ("" if r.binding else " (info)"))
        for r in rows
    ]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for c in cells:
        lines.append("  ".join(s.ljust(w) for s, w in zip(c, widths)))
    return "\n".join(lines)
