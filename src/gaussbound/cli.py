"""Command-line front end: bound, curve, gen, reproduce.

Exit codes: 0 success, 2 input/config error (non-finite sample values,
out-of-range parameters, negative seeds, too few samples for a method,
unknown config keys and sample or config files that are not UTF-8
included), 3 I/O error, 4 numerical failure, 5 a binding ``reproduce``
check failed.  The ``GB_SEED`` environment variable supplies the default
seed; a ``--config`` file of ``key = value`` lines fills in unset flags
(explicit flags win).  Each setting is declared once,
in ``_SETTINGS``: its default, parser, help and choices; ``_COMMAND_KEYS``
names the settings each command takes.  ``parse_args`` turns ``GB_SEED``
and each config line into a ``--key=value`` flag placed before the command
line's own, and argparse parses them all: a bad value, or a key the command
does not take, exits 2 like its flag.  Model parameters are checked by the
samplers in ``models`` before they draw.
Sample CSVs are read and written a block of rows at a time
(``read_samples_csv``, ``write_samples_csv``): beyond the samples, only one
block's text is held, and files, arrays and messages are those of one pass
over the whole text.
All reports are deterministic for a fixed config and seed, except the
separately kept "timing" section.  ``bound_report`` and ``curve_report``
build them; ``reproduce`` runs every row's commands through the same
parser and builders.
"""

from __future__ import annotations

import argparse
import array
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .agce import agce_fit_1d, naive_lower_1d, offshelf_lower_1d
from .biterminal import biterminal_gaussianize, joint_objective, separate_gaussianize
from .cca_ace import ace_fit, ace_upper_bound
from .errors import GaussboundError, InsufficientDataError, ParameterError
from .gib import default_beta_grid, gib_curve, gib_spectrum
from .ib_discrete import quadrature_discretize, reverse_anneal
from .models import MODEL_FAMILIES, discretizable_from_spec, sample_from_spec
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

METHODS = ("ace", "agce", "offshelf", "biterminal", "naive")
UNITS = ("bits", "nats")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


# A sample CSV is read _READ_CHARS characters, and written _WRITE_ROWS rows,
# at a time.  Universal newlines leave no "\r", so these are every character
# str.splitlines ends a line at.
_READ_CHARS = 2**15
_WRITE_ROWS = 2**11
_LINE_BREAKS = ("\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _expected_header(d_x: int, d_y: int) -> str:
    return ",".join([f"x{i}" for i in range(d_x)] + [f"y{i}" for i in range(d_y)])


def read_samples_csv(path: str) -> PairedSamples:
    """Read the `x0..,y0..` sample layout, reporting the offending line on error.

    The file is decoded ``_READ_CHARS`` characters at a time, with universal
    newlines, and each chunk's complete lines are parsed as one block; so
    beyond the samples themselves, only one block's text and fields are held
    at once.  Arrays and messages are those of a parse of the whole text.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            arr, d_x = _read_rows(path, fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason})", EXIT_CONFIG) from exc
    if arr.shape[0] < 2:
        raise CliError(f"{path}: need at least 2 data rows", EXIT_CONFIG)
    return PairedSamples(arr[:, :d_x], arr[:, d_x:])


def _read_rows(path: str, fh) -> tuple[np.ndarray, int]:
    """(the data rows, d_x) of the open sample file, parsed one chunk's lines
    at a time.  The rows gather in one growing buffer: kept as an array per
    block, the freed blocks stayed resident as heap holes (16 MB more after
    a 10**6-row read)."""
    chunks = _chunk_lines(fh)
    first = next(chunks, None)
    if first is None:
        raise CliError(f"{path}: empty file (line 1)", EXIT_CONFIG)
    d_x, d_y = _header_widths(path, first[0])
    d = d_x + d_y
    rows, start = array.array("d"), 2
    for lines in itertools.chain([first[1:]], chunks):
        arr = _parse_body(lines, d)
        if arr is None:
            arr = _parse_body([line for line in lines if line.strip()], d)
        if arr is None:
            arr = _parse_lines(path, lines, d, start)
        rows.frombytes(memoryview(arr).cast("B"))  # the block's bytes, as one flat buffer
        start += len(lines)
    return np.frombuffer(rows).reshape(-1, d), d_x


def _chunk_lines(fh):
    """The lines ``str.splitlines`` gives on the file's whole text, as one
    non-empty list per chunk read: a line cut at a chunk's end is carried,
    as its pieces, into the list of the chunk that ends it."""
    cut = []  # pieces of the line the chunks so far leave unterminated
    while chunk := fh.read(_READ_CHARS):
        lines = chunk.splitlines()
        tail = None if chunk.endswith(_LINE_BREAKS) else lines.pop()
        if lines:
            lines[0] = "".join(cut) + lines[0]
            cut = []
            yield lines
        if tail is not None:
            cut.append(tail)
    if cut:
        yield ["".join(cut)]


def _header_widths(path: str, line: str) -> tuple[int, int]:
    """(d_x, d_y) of the header line ``x0..,y0..``."""
    header = line.split(",")
    d_x = sum(1 for h in header if h.startswith("x"))
    d_y = sum(1 for h in header if h.startswith("y"))
    if d_x == 0 or d_y == 0 or header != _expected_header(d_x, d_y).split(","):
        raise CliError(
            f"{path}: line 1: header must be x0..x{{dx-1}},y0..y{{dy-1}}, got {line!r}",
            EXIT_CONFIG,
        )
    return d_x, d_y


def _parse_body(body: list[str], d: int) -> np.ndarray | None:
    """The data lines as an (n, d) array in one numpy parse, which calls
    ``float`` on each field; None if a line is blank, has the wrong column
    count, or holds a bad or non-finite value."""
    if not all(line.count(",") == d - 1 for line in body):
        return None  # d >= 2, so this also catches blank lines
    try:
        arr = np.array(",".join(body).split(","), dtype=float)
    except ValueError:
        return None
    if not np.isfinite(arr).all():
        return None
    return arr.reshape(len(body), d)


def _parse_lines(path: str, body: list[str], d: int, start: int = 2) -> np.ndarray:
    """The data lines, numbered from start, parsed one at a time, skipping
    blank ones; raises at the first bad line with its line number."""
    rows = []
    for lineno, line in enumerate(body, start=start):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d:
            raise CliError(f"{path}: line {lineno}: expected {d} columns, got {len(parts)}", EXIT_CONFIG)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise CliError(f"{path}: line {lineno}: {exc}", EXIT_CONFIG) from exc
        if not all(map(math.isfinite, rows[-1])):
            raise CliError(f"{path}: line {lineno}: non-finite value", EXIT_CONFIG)
    return np.asarray(rows)


def write_samples_csv(path: Path, samples: PairedSamples) -> None:
    """Write the `x0..,y0..` sample layout: each value as ``repr(float(v))``.

    The rows are formatted ``_WRITE_ROWS`` at a time, each block in one
    ``%`` of a row format repeated, so only one block's text is held at once.
    """
    row = ",".join(["%r"] * (samples.d_x + samples.d_y)) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_expected_header(samples.d_x, samples.d_y) + "\n")
        for lo in range(0, samples.n, _WRITE_ROWS):
            block = np.hstack([samples.x[lo : lo + _WRITE_ROWS], samples.y[lo : lo + _WRITE_ROWS]])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))  # Python floats: repr is the text


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


def _get_samples(args) -> tuple[PairedSamples, dict]:
    """(samples, provenance) from ``--input`` or a ``--model`` draw; no analytic joint."""
    if args.input:
        samples = read_samples_csv(args.input)
        return samples, {"input": args.input, "true_mi_nats": None}
    ms, params = _draw_model(args)
    prov = {
        "model": args.model,
        "params": params,
        "d": args.d,
        "n": args.n,
        "true_mi_nats": ms.true_mi_nats,
    }
    return ms.samples, prov


def _draw_model(args) -> tuple[object, dict]:
    """(drawn ModelSample, the parameters it records) for ``--model``."""
    ms = sample_from_spec(args.model, args.n, args.d, args.mu_z, args.eps, args.seed)
    return ms, {key: ms.meta[key] for key in ("mu_z", "eps") if key in ms.meta}


# ---------------------------------------------------------------------------
# Method pipelines
# ---------------------------------------------------------------------------


def _separate_pair(u, v, seed: int):
    """Gaussianize both outputs separately, with seeds seed and seed + 1."""
    return separate_gaussianize(u, seed=seed)[0], separate_gaussianize(v, seed=seed + 1)[0]


def run_method(method: str, samples: PairedSamples, args):
    """Fit the chosen embedding; returns (u, v, rho array, extras dict).

    A method that fits ACE passes the model as ``extras["model"]``.  Its
    smoothers take ``args.k`` neighbors, or the samples' default if None.
    """
    seed = args.seed
    univariate = samples.d_x == 1 and samples.d_y == 1
    if method == "naive":
        if univariate:
            pair = naive_lower_1d(samples, seed=seed)
            return pair.u[:, None], pair.v[:, None], np.asarray([pair.rho]), {}
        return *_separate_pair(samples.x, samples.y, seed), None, {}
    if method == "ace":
        model = ace_fit(samples, knn_k=args.k, seed=seed)
        return model.u, model.v, model.rho, {"converged": model.converged, "model": model}
    if method == "offshelf":
        if univariate:
            pair = offshelf_lower_1d(samples, knn_k=args.k, seed=seed)
            return pair.u[:, None], pair.v[:, None], np.asarray([pair.rho]), {"model": pair.ace}
        model = ace_fit(samples, knn_k=args.k, seed=seed)
        return *_separate_pair(model.u, model.v, seed + 1), None, {"model": model}
    if method == "agce":
        if not univariate:
            raise CliError(
                "sample-based multivariate AGCE is not supported; "
                "use biterminal for multivariate data",
                EXIT_CONFIG,
            )
        pair = agce_fit_1d(samples, n_restarts=args.restarts, knn_k=args.k, seed=seed)
        extras = {"trace": pair.trace, "converged": pair.converged, "model": pair.ace}
        return pair.u[:, None], pair.v[:, None], np.asarray([pair.rho]), extras
    if method == "biterminal":
        model = ace_fit(samples, knn_k=args.k, seed=seed)
        bu, bv, (chain_u, _), trace = biterminal_gaussianize(model.u, model.v, seed=seed + 1)
        extras = {
            "model": model,
            "accepted_moves": len(trace) - 2 * chain_u.layers,
            "outer_iters": chain_u.layers,
            "converged": chain_u.converged,
        }
        return bu, bv, None, extras
    raise CliError(f"unknown method {method!r}", EXIT_CONFIG)


def bound_report(args) -> dict:
    samples, prov = _get_samples(args)
    t0 = time.perf_counter()
    u, v, rho, extras = run_method(args.method, samples, args)
    lower = None
    if args.method != "ace":
        lower, info = joint_objective(u, v, details=True)
        if args.method == "biterminal":
            extras["saturated"] = info["saturated"]

    # naive fits no ACE model of its own
    ace_model = extras.pop("model", None)
    if ace_model is None:
        ace_model = ace_fit(samples, knn_k=args.k, seed=args.seed + 17)
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


def curve_report(args) -> tuple[dict, dict]:
    """The curve manifest and its curves, keyed by the stem of each CSV."""
    samples, prov = _get_samples(args)
    t0 = time.perf_counter()
    # the quadrature draws nothing, so a --quad-m the model cannot take fails before the fit
    analytic = None if args.input else discretizable_from_spec(args.model, args.d, args.mu_z, args.eps)
    pmf = None if analytic is None else quadrature_discretize(analytic, m=args.quad_m)[0]
    u, v, rho, _ = run_method(args.method, samples, args)
    cov = covariance(np.hstack([u, v]))
    spec = gib_spectrum(cov, u.shape[1])
    grid = default_beta_grid(spec)
    raw_spec = gib_spectrum(covariance(np.hstack([samples.x, samples.y])), samples.d_x)
    curves = {
        "method_curve": gib_curve(spec, beta_grid=grid),
        "raw_gib_curve": gib_curve(raw_spec, beta_grid=grid),
    }

    reference_mi = reference_solver = None
    if pmf is not None:
        curves["reference_curve"], diag = reverse_anneal(pmf)
        reference_mi = pmf.mutual_information()
        reference_solver = {
            "sweeps": sum(sol.n_iter for sol in diag["solutions"]),
            "stationary_betas": int(np.count_nonzero(diag["stationary"])),
            "unconverged_betas": int(np.count_nonzero(~(diag["converged"] | diag["stationary"]))),
            "max_residual": max(sol.residual for sol in diag["solutions"]),
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
        "files": {name: f"{name}.csv" for name in curves},
        "timing": {"wall_s": elapsed},
    }
    return manifest, curves


def _write_curves(manifest: dict, curves: dict, args) -> None:
    """Each curve as ``out_dir/<name>.csv`` in args.units, then the manifest."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, curve in curves.items():
            write_curve_csv(out_dir / manifest["files"][name], curve, args.units)
    except OSError as exc:
        raise CliError(f"cannot write to {out_dir}: {exc}", EXIT_IO) from exc
    _write_json(manifest, out_dir / "manifest.json")


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
    # imported here: reproduce runs its rows through this module
    from . import reproduce as repro

    rows = repro.run_experiment(args.experiment, n=args.n, seed=args.seed)
    print(repro.format_table(rows))
    failures = [r for r in rows if r.binding and not r.passed]
    if failures:
        print(f"\n{len(failures)} binding check(s) failed")
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A seed: numpy's generators take non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


# key -> (default, parser, help, choices).  Each key is the flag --key (with
# "_" as "-"); argparse applies its parser, choices and default to the flag,
# to a config-file line and to GB_SEED alike.
_SETTINGS = {
    "n": (10_000, int, "sample count", None),
    "mu_z": (10.0, float, "mixture offset (gm models)", None),
    "eps": (0.1, float, "correlated-branch noise scale (gm models)", None),
    "d": (1, int, "model dimension", None),
    "method": ("agce", str, "embedding method", METHODS),
    "k": (None, int, "neighbor count for the knn smoother", None),
    "restarts": (8, int, "AGCE restart count", None),
    "units": ("bits", str, "output units", UNITS),
    "quad_m": (32, int, "quadrature nodes per component", None),
    "seed": (0, _seed, "RNG seed (default: GB_SEED or 0)", None),
}
# command -> the settings it takes, both as flags and as config-file keys
_COMMAND_KEYS = {
    "bound": ("mu_z", "eps", "d", "n", "seed", "method", "k", "restarts", "units"),
    "curve": ("mu_z", "eps", "d", "n", "seed", "method", "k", "restarts", "units", "quad_m"),
    "gen": ("mu_z", "eps", "d", "n", "seed"),
}


def _add_command(sub, name: str, help_text: str, with_input: bool = True):
    """A subcommand with one sample source, --config and its settings' flags."""
    p = sub.add_parser(name, help=help_text)
    source = p.add_mutually_exclusive_group(required=True)
    if with_input:
        source.add_argument("--input", help="CSV of paired samples (header x0..,y0..)")
    source.add_argument("--model", choices=MODEL_FAMILIES, help="synthetic model family")
    p.add_argument("--config", help="key = value file supplying unset flags")
    for key in _COMMAND_KEYS[name]:
        default, parse, text, choices = _SETTINGS[key]
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=parse, choices=choices, default=default,
                       help=text)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussbound",
        description="Gaussian lower bounds on mutual information and the IB curve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = _add_command(sub, "bound", "compute MI bounds for one pair")
    p_bound.add_argument("--out", help="write the JSON report here instead of stdout")

    p_curve = _add_command(sub, "curve", "emit trade-off curves as CSV")
    p_curve.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")

    p_gen = _add_command(sub, "gen", "generate model samples as CSV", with_input=False)
    p_gen.add_argument("--out", required=True, help="CSV output path")

    p_rep = sub.add_parser("reproduce", help="rerun a documented experiment bundle")
    p_rep.add_argument("experiment", help="bundle id, such as sec4.4 (an unknown id lists them)")
    p_rep.add_argument("--n", type=int, help="override the documented sample count")
    p_rep.add_argument("--seed", type=_seed, help="override the documented seed")

    return parser


def _config_flags(path: str, command: str) -> list[str]:
    """Each ``key = value`` line of the config file as the flag ``--key=value``:
    one token, so a value such as ``-1`` is never read as an option."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", EXIT_IO) from exc
    try:
        text = data.decode("utf-8")  # splitlines ends lines as universal newlines would
    except UnicodeDecodeError as exc:
        # the line the bad byte is on: the lines before it, and its own
        lineno = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise CliError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})", EXIT_CONFIG) from exc
    flags = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected key = value", EXIT_CONFIG)
        written, value = (part.strip() for part in line.split("=", 1))
        key = written.replace("-", "_")
        if key not in _COMMAND_KEYS[command]:
            raise CliError(f"{path}: line {lineno}: unknown key {written!r} for {command}", EXIT_CONFIG)
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def parse_args(argv=None) -> argparse.Namespace:
    """The command line, parsed with GB_SEED and each config-file line as a
    flag placed before its own: the last flag wins, so a flag beats the
    file, which beats GB_SEED, which beats the default."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce":
        return args
    flags = []
    if os.environ.get("GB_SEED"):
        try:
            flags.append(f"--seed={_seed(os.environ['GB_SEED'])}")
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"GB_SEED: {exc}", EXIT_CONFIG) from exc
    if args.config:
        flags += _config_flags(args.config, args.command)
    if not flags:
        return args
    try:
        return parser.parse_args([argv[0], *flags, *argv[1:]])
    except SystemExit:
        # the command line parsed alone, so the rejected value is the file's
        print(f"error: the value is from config {args.config}", file=sys.stderr)
        raise


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        if args.command == "reproduce":
            return _reproduce_outputs(args)
        if args.command == "bound":
            _write_json(bound_report(args), args.out)
        elif args.command == "curve":
            _write_curves(*curve_report(args), args)
        else:
            _gen_outputs(args)
        return EXIT_OK
    except SystemExit as exc:  # argparse: --help, or a rejected flag
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (CliError, ParameterError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_CONFIG)
    except GaussboundError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
