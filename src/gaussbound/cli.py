"""Command-line front end: bound, curve, gen, reproduce.

Exit codes: 0 success, 2 input/config error (non-finite sample values,
out-of-range parameters, negative seeds, too few samples for a method and
unknown config keys included), 3 I/O error, 4 numerical failure, 5 a
binding ``reproduce`` check failed.  The ``GB_SEED`` environment variable
supplies the default seed; a ``--config`` file of ``key = value`` lines
fills in unset flags (explicit flags win).  Each setting is declared once,
in ``_SETTINGS``: its default, parser, help and choices.  The flags are
built from that table, and a config value or ``GB_SEED`` goes through the
parser of the flag it stands for, so a bad one exits 2.  Model parameters
are checked by the samplers in ``models`` before they draw.
All reports are deterministic for a fixed config and seed, except the
separately kept "timing" section.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import reproduce as repro
from .agce import agce_fit_1d, naive_lower_1d, offshelf_lower_1d
from .biterminal import biterminal_gaussianize, joint_objective, separate_gaussianize
from .cca_ace import ace_fit, ace_upper_bound, kcca_fit
from .errors import GaussboundError, InsufficientDataError, ParameterError
from .gib import default_beta_grid, gib_curve, gib_spectrum
from .ib_discrete import quadrature_discretize, reverse_anneal
from .models import MODEL_FAMILIES, discretizable_from_spec, sample_from_spec
from .smoother import SmootherConfig
from .stats_core import (
    NATS_PER_BIT,
    PairedSamples,
    covariance,
    gaussian_mi_bound,
    w2_to_normal,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_CHECK_FAILED = 5

METHODS = ("ace", "agce", "offshelf", "biterminal", "kcca", "naive")
SMOOTHERS = ("knn", "kernel")
UNITS = ("bits", "nats")
_TRUE_WORDS, _FALSE_WORDS = ("1", "true", "yes"), ("0", "false", "no")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _expected_header(d_x: int, d_y: int) -> str:
    return ",".join([f"x{i}" for i in range(d_x)] + [f"y{i}" for i in range(d_y)])


def read_samples_csv(path: str) -> PairedSamples:
    """Read the `x0..,y0..` sample layout, reporting the offending line on error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    lines = text.splitlines()
    if not lines:
        raise CliError(f"{path}: empty file (line 1)", EXIT_CONFIG)
    header = lines[0].split(",")
    d_x = sum(1 for h in header if h.startswith("x"))
    d_y = sum(1 for h in header if h.startswith("y"))
    if d_x == 0 or d_y == 0 or header != _expected_header(d_x, d_y).split(","):
        raise CliError(
            f"{path}: line 1: header must be x0..x{{dx-1}},y0..y{{dy-1}}, got {lines[0]!r}",
            EXIT_CONFIG,
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d_x + d_y:
            raise CliError(
                f"{path}: line {lineno}: expected {d_x + d_y} columns, got {len(parts)}",
                EXIT_CONFIG,
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise CliError(f"{path}: line {lineno}: {exc}", EXIT_CONFIG) from exc
        if not all(map(math.isfinite, rows[-1])):
            raise CliError(f"{path}: line {lineno}: non-finite value", EXIT_CONFIG)
    if len(rows) < 2:
        raise CliError(f"{path}: need at least 2 data rows", EXIT_CONFIG)
    arr = np.asarray(rows)
    return PairedSamples(arr[:, :d_x], arr[:, d_x:])


def write_samples_csv(path: Path, samples: PairedSamples) -> None:
    header = _expected_header(samples.d_x, samples.d_y)
    data = np.hstack([samples.x, samples.y])
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in data)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(obj: dict, out: str | Path | None) -> None:
    """Write obj as indented, key-sorted JSON to the path out, or to stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}", EXIT_IO) from exc


def write_curve_csv(path: Path, curve, units: str) -> None:
    c = curve.in_units(units)
    lines = [f"beta,i_tx_{units},i_ty_{units}"]
    lines.extend(
        f"{repr(float(b))},{repr(float(tx))},{repr(float(ty))}"
        for b, tx, ty in zip(c.beta, c.i_tx, c.i_ty)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_IO) from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected key = value", EXIT_CONFIG)
        written, value = (part.strip() for part in line.split("=", 1))
        key = written.replace("-", "_")
        if key not in _SETTINGS:
            raise CliError(f"{path}: line {lineno}: unknown key {written!r}", EXIT_CONFIG)
        out[key] = value
    return out


def _one_of(choices: tuple, value: str) -> str:
    """value, if it is one of a flag's choices; ValueError otherwise."""
    if value not in choices:
        raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
    return value


def _seed(text: str) -> int:
    """A seed: numpy's generators take non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _yes_no(text: str) -> bool:
    return _one_of(_TRUE_WORDS + _FALSE_WORDS, text.lower()) in _TRUE_WORDS


# key -> (default, parser, help, choices).  Each key is the flag --key (with
# "_" as "-"); a yes/no setting is the switch --no-key.  A config-file value
# and GB_SEED go through the parser and choices of the flag they stand for.
_SETTINGS = {
    "n": (10_000, int, "sample count", None),
    "mu_z": (10.0, float, "mixture offset (gm models)", None),
    "eps": (0.1, float, "correlated-branch noise scale (gm models)", None),
    "d": (1, int, "model dimension", None),
    "method": ("agce", str, "embedding method", METHODS),
    "smoother": ("knn", str, "conditional-expectation estimator", SMOOTHERS),
    "k": (None, int, "neighbor count for the knn smoother", None),
    "bandwidth": (None, float, "bandwidth for the kernel smoother", None),
    "restarts": (8, int, "AGCE restart count", None),
    "tol": (1e-4, float, "AGCE alternation tolerance (correlation change)", None),
    "units": ("bits", str, "output units", UNITS),
    "quad_m": (32, int, "quadrature nodes per component", None),
    "beta_points": (200, int, "curve grid size", None),
    "kcca_ridge": (1e-3, float, "kernel CCA ridge", None),
    "kcca_width": (None, float, "kernel CCA width", None),
    "reference": (True, _yes_no, "skip the discrete reference curve", None),
    "seed": (0, _seed, "RNG seed (default: GB_SEED or 0)", None),
}
_MODEL_KEYS = ("mu_z", "eps", "d", "n", "seed", "units")
_METHOD_KEYS = ("method", "smoother", "k", "bandwidth", "restarts", "tol", "kcca_ridge", "kcca_width")


def _parse(key: str, text: str, source: str):
    """A config-file or GB_SEED value for key, checked like its flag."""
    _, parse, _, choices = _SETTINGS[key]
    try:
        value = parse(text)
        return _one_of(choices, value) if choices else value
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise CliError(f"{source}: {exc}", EXIT_CONFIG) from exc


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then GB_SEED, then the defaults."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, (value, *_) in _SETTINGS.items():
        if getattr(args, key, None) is not None:
            continue
        if key in file_cfg:
            value = _parse(key, file_cfg[key], f"config {key}")
        elif key == "seed" and os.environ.get("GB_SEED"):
            value = _parse(key, os.environ["GB_SEED"], "GB_SEED")
        setattr(args, key, value)
    return args


def _get_samples(args) -> tuple[PairedSamples, object, dict]:
    """Samples plus (optional) analytic model and provenance from the args."""
    if args.input:
        samples = read_samples_csv(args.input)
        return samples, None, {"input": args.input, "true_mi_nats": None}
    ms, params = _draw_model(args)
    prov = {
        "model": args.model,
        "params": params,
        "d": args.d,
        "n": args.n,
        "true_mi_nats": ms.true_mi_nats,
    }
    return ms.samples, discretizable_from_spec(args.model, args.d, args.mu_z, args.eps), prov


def _draw_model(args) -> tuple[object, dict]:
    """(drawn ModelSample, the parameters it records) for ``--model``."""
    ms = sample_from_spec(args.model, args.n, args.d, args.mu_z, args.eps, args.seed)
    return ms, {key: ms.meta[key] for key in ("mu_z", "eps") if key in ms.meta}


def _smoother_config(args, samples) -> SmootherConfig:
    if args.smoother == "kernel":
        if args.bandwidth is None:
            raise CliError("--bandwidth is required with --smoother kernel", EXIT_CONFIG)
        return SmootherConfig(kind="kernel", bandwidth=args.bandwidth)
    k = args.k
    if k is None and max(samples.d_x, samples.d_y) > 1:
        k = repro.experiment_knn_k(samples.n, max(samples.d_x, samples.d_y))
    return SmootherConfig(kind="knn", k=k)


# ---------------------------------------------------------------------------
# Method pipelines
# ---------------------------------------------------------------------------


def _separate_pair(u, v, seed: int):
    """Gaussianize both outputs separately, with seeds seed and seed + 1."""
    return separate_gaussianize(u, seed=seed)[0], separate_gaussianize(v, seed=seed + 1)[0]


def run_method(method: str, samples: PairedSamples, cfg: SmootherConfig, args):
    """Fit the chosen embedding; returns (u, v, rho array, extras dict).

    A method that fits ACE passes the model as ``extras["model"]``.
    """
    seed = args.seed
    univariate = samples.d_x == 1 and samples.d_y == 1
    if method == "naive":
        if univariate:
            pair = naive_lower_1d(samples, seed=seed)
            return pair.u[:, None], pair.v[:, None], np.asarray([pair.rho]), {}
        return *_separate_pair(samples.x, samples.y, seed), None, {}
    if method == "ace":
        model = ace_fit(samples, smoother=cfg, seed=seed)
        return model.u, model.v, model.rho, {"converged": model.converged, "model": model}
    if method == "offshelf":
        if univariate:
            pair = offshelf_lower_1d(samples, smoother=cfg, seed=seed)
            return pair.u[:, None], pair.v[:, None], np.asarray([pair.rho]), {"model": pair.ace}
        model = ace_fit(samples, smoother=cfg, seed=seed)
        return *_separate_pair(model.u, model.v, seed + 1), None, {"model": model}
    if method == "agce":
        if not univariate:
            raise CliError(
                "sample-based multivariate AGCE is not supported; "
                "use biterminal for multivariate data",
                EXIT_CONFIG,
            )
        pair = agce_fit_1d(
            samples, tol=args.tol, n_restarts=args.restarts, smoother=cfg, seed=seed
        )
        extras = {"trace": pair.trace, "converged": pair.converged, "model": pair.ace}
        return pair.u[:, None], pair.v[:, None], np.asarray([pair.rho]), extras
    if method == "biterminal":
        model = ace_fit(samples, smoother=cfg, seed=seed)
        bu, bv, (chain_u, _), trace = biterminal_gaussianize(model.u, model.v, seed=seed + 1)
        extras = {
            "model": model,
            "accepted_moves": len(trace) - 2 * chain_u.layers,
            "outer_iters": chain_u.layers,
            "converged": chain_u.converged,
        }
        return bu, bv, None, extras
    if method == "kcca":
        model = kcca_fit(
            samples, kernel_width=args.kcca_width, ridge=args.kcca_ridge, seed=seed
        )
        return *_separate_pair(model.u, model.v, seed + 1), model.rho, {}
    raise CliError(f"unknown method {method!r}", EXIT_CONFIG)


def _bound_report(args) -> dict:
    samples, _, prov = _get_samples(args)
    cfg = _smoother_config(args, samples)
    t0 = time.perf_counter()
    u, v, rho, extras = run_method(args.method, samples, cfg, args)
    lower = None
    if args.method != "ace":
        lower, info = joint_objective(u, v, details=True)
        if args.method == "biterminal":
            extras["saturated"] = info["saturated"]

    # naive and kcca fit no ACE model of their own
    ace_model = extras.pop("model", None)
    if ace_model is None:
        ace_model = ace_fit(samples, smoother=cfg, seed=args.seed + 17)
    upper = ace_upper_bound(ace_model)
    elapsed = time.perf_counter() - t0

    true_mi = prov.get("true_mi_nats")
    report = {
        "schema": 1,
        "command": "bound",
        "method": args.method,
        "provenance": prov,
        "seed": args.seed,
        "units": args.units,
        "rho": None if rho is None else list(np.round(np.asarray(rho), 12)),
        "ace_rho": list(np.round(ace_model.rho, 12)),
        "lower_bound_nats": lower,
        "lower_bound_bits": None if lower is None else lower / NATS_PER_BIT,
        "ace_upper_bound_nats": upper,
        "ace_upper_bound_bits": upper / NATS_PER_BIT,
        "true_mi_nats": true_mi,
        "no_lossless_gaussian_embedding": (
            None if true_mi is None else bool(true_mi > upper + 1e-12)
        ),
        "w2_diagnostics": {
            "u_first_coord": w2_to_normal(u[:, 0]),
            "v_first_coord": w2_to_normal(v[:, 0]),
        },
        "extras": extras,
        "timing": {"wall_s": elapsed},
    }
    return report


def _curve_outputs(args) -> dict:
    samples, analytic, prov = _get_samples(args)
    cfg = _smoother_config(args, samples)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {out_dir}: {exc}", EXIT_IO) from exc

    t0 = time.perf_counter()
    u, v, rho, _ = run_method(args.method, samples, cfg, args)
    cov = covariance(np.hstack([u, v]))
    spec = gib_spectrum(cov, u.shape[1])
    grid = default_beta_grid(spec, num=args.beta_points)
    method_curve = gib_curve(spec, beta_grid=grid)

    raw_spec = gib_spectrum(covariance(np.hstack([samples.x, samples.y])), samples.d_x)
    raw_curve = gib_curve(raw_spec, beta_grid=grid)

    files = {}
    write_curve_csv(out_dir / "method_curve.csv", method_curve, args.units)
    files["method_curve"] = "method_curve.csv"
    write_curve_csv(out_dir / "raw_gib_curve.csv", raw_curve, args.units)
    files["raw_gib_curve"] = "raw_gib_curve.csv"

    reference_mi = reference_solver = None
    if args.reference and analytic is not None:
        pmf, _ = quadrature_discretize(analytic, m=args.quad_m)
        ref_curve, diag = reverse_anneal(pmf)
        write_curve_csv(out_dir / "reference_curve.csv", ref_curve, args.units)
        files["reference_curve"] = "reference_curve.csv"
        reference_mi = pmf.mutual_information()
        reference_solver = {
            "sweeps": sum(sol.n_iter for sol in diag["solutions"]),
            "stationary_betas": int(np.count_nonzero(diag["stationary"])),
            "unconverged_betas": int(np.count_nonzero(~(diag["converged"] | diag["stationary"]))),
            "lifted_points": [int(i) for i in diag["lifted_points"]],
        }
    elapsed = time.perf_counter() - t0

    manifest = {
        "schema": 1,
        "command": "curve",
        "method": args.method,
        "provenance": prov,
        "seed": args.seed,
        "units": args.units,
        "rho": None if rho is None else list(np.round(np.asarray(rho), 12)),
        "embedding_bound_nats": gaussian_mi_bound(cov, u.shape[1]),
        "reference_pmf_mi_nats": reference_mi,
        "reference_solver": reference_solver,
        "files": files,
        "timing": {"wall_s": elapsed},
    }
    _write_json(manifest, out_dir / "manifest.json")
    return manifest


def _gen_outputs(args) -> None:
    ms, params = _draw_model(args)
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_samples_csv(out, ms.samples)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", EXIT_IO) from exc
    scramble = {}
    for key in ("mirror", "rotation_x", "rotation_y"):
        if key in ms.meta:
            scramble[key] = ms.meta[key]
    sidecar = {
        "schema": 1,
        "model": args.model,
        "params": params,
        "d": args.d,
        "n": args.n,
        "seed": args.seed,
        "true_mi_nats": ms.true_mi_nats,
        "true_mi_bits": ms.true_mi_bits,
        "scramble": scramble,
    }
    sidecar_path = out.with_suffix(out.suffix + ".meta.json")
    _write_json(sidecar, sidecar_path)
    print(f"wrote {out} and {sidecar_path}")


def _reproduce_outputs(args) -> int:
    kwargs = {}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.seed is not None:
        kwargs["seed"] = args.seed
    rows = repro.run_experiment(args.experiment, **kwargs)
    print(repro.format_table(rows))
    failures = [r for r in rows if r.binding and not r.passed]
    if failures:
        print(f"\n{len(failures)} binding check(s) failed")
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_command(sub, name: str, help_text: str, keys: tuple, with_input: bool = True):
    """A subcommand with one sample source, --config and the flags of keys."""
    p = sub.add_parser(name, help=help_text)
    source = p.add_mutually_exclusive_group(required=True)
    if with_input:
        source.add_argument("--input", help="CSV of paired samples (header x0..,y0..)")
    source.add_argument("--model", choices=MODEL_FAMILIES, help="synthetic model family")
    p.add_argument("--config", help="key = value file supplying unset flags")
    for key in keys:
        _, parse, text, choices = _SETTINGS[key]
        flag = key.replace("_", "-")
        if parse is _yes_no:
            p.add_argument(f"--no-{flag}", dest=key, action="store_false", default=None, help=text)
        else:
            p.add_argument(f"--{flag}", dest=key, type=parse, choices=choices, help=text)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussbound",
        description="Gaussian lower bounds on mutual information and the IB curve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = _add_command(sub, "bound", "compute MI bounds for one pair", _MODEL_KEYS + _METHOD_KEYS)
    p_bound.add_argument("--out", help="write the JSON report here instead of stdout")

    curve_keys = _MODEL_KEYS + _METHOD_KEYS + ("quad_m", "beta_points", "reference")
    p_curve = _add_command(sub, "curve", "emit trade-off curves as CSV", curve_keys)
    p_curve.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")

    p_gen = _add_command(sub, "gen", "generate model samples as CSV", _MODEL_KEYS, with_input=False)
    p_gen.add_argument("--out", required=True, help="CSV output path")

    p_rep = sub.add_parser("reproduce", help="rerun a documented experiment bundle")
    p_rep.add_argument(
        "experiment", choices=repro.EXPERIMENTS, metavar="experiment", help="|".join(repro.EXPERIMENTS)
    )
    p_rep.add_argument("--n", type=int, help="override the documented sample count")
    p_rep.add_argument("--seed", type=_seed, help="override the documented seed")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "reproduce":
            return _reproduce_outputs(args)
        args = _resolve(args)
        if args.command == "bound":
            _write_json(_bound_report(args), args.out)
        elif args.command == "curve":
            _curve_outputs(args)
        else:
            _gen_outputs(args)
        return EXIT_OK
    except (CliError, ParameterError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_CONFIG)
    except GaussboundError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
