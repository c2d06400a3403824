"""Parity probe: one sha256 per output of a fixed set of CLI runs.

    PYTHONPATH=src python tests/parity_probe.py [--quick] [--update]

Run it on two checkouts (each with its own ``PYTHONPATH``) and compare the
printed lines: a change meant to keep answers byte-identical must print the
same hash for every case.  Each hash covers a ``bound`` report or a ``curve``
manifest and every curve CSV, all outside ``timing``; the bytes of a k-NN
smoother's ``smooth`` and ``predict``, or of a fitted pair's ``phi`` and
``psi``, on in-range, tied, midpoint and out-of-range queries; or the rows of
a ``reproduce`` bundle outside their elapsed time and commands, whose
commands hash apart.  The ``rounded-*`` cases run on integer- and
half-grid-rounded data, whose many duplicated values exercise the smoother's
tied rows; ``mixed-*`` reads an (x0, x1, y0) sample, whose blocks differ in
width; ``*expgamma-d1-*`` draw a d = 1 exp_gamma sample, whose analytic
joint only ``curve`` builds, for its discrete reference.  ``--quick``
leaves out the reproduce bundles.  pytest does not collect this file; the
full run takes about 6 s on a 2-vCPU machine.

``tests/answers.json`` is the answer ledger: for every case but the bundles,
its sha256 and headline numbers (a bound's lower and upper bounds in nats and
its rho; a curve's embedding bound and reference pmf MI; a library case's
L2 norm), with the numpy, scipy and BLAS versions it was made with.
``test_answers.py`` checks every run against it.  ``--update`` rewrites the
ledger and prints the cases whose hash changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from gaussbound import (
    KnnSmoother,
    PairedSamples,
    agce_fit_1d,
    cli,
    expgamma_sample,
    gm1d_sample,
    offshelf_lower_1d,
)
from gaussbound import reproduce as repro

BOUNDS = [
    *((f"gm1d-{m}", ["--model", "gm1d", "--n", "10000", "--seed", "7", "--method", m]) for m in cli.METHODS),
    *(
        (f"expgamma-d2-{m}", ["--model", "exp_gamma", "--d", "2", "--n", "3000", "--seed", "7", "--method", m])
        for m in ("naive", "ace", "offshelf", "biterminal")
    ),
    *(
        (f"scramble-d{d}-naive", ["--model", "mv_gaussian_scramble", "--d", str(d), "--n", "3000", "--seed", "7",
                                  "--method", "naive"])
        for d in (3, 5)
    ),
    ("gm_mv-d2-ace", ["--model", "gm_mv", "--d", "2", "--n", "3000", "--seed", "7", "--method", "ace"]),
    *((f"expgamma-d1-{m}", ["--model", "exp_gamma", "--d", "1", "--n", "3000", "--seed", "7", "--method", m])
      for m in ("naive", "offshelf", "agce")),
    *((f"rounded-1d-{m}", ["--input", "rounded-1d.csv", "--seed", "1", "--method", m])
      for m in ("offshelf", "agce", "biterminal")),
    *((f"rounded-expgamma-d2-{m}", ["--input", "rounded-expgamma-d2.csv", "--seed", "1", "--method", m])
      for m in ("offshelf", "biterminal")),
    *((f"mixed-expgamma-{m}", ["--input", "mixed-expgamma.csv", "--seed", "1", "--method", m])
      for m in ("naive", "ace", "offshelf", "biterminal")),
]
CURVES = [
    *((f"curve-gm1d-{m}", ["--model", "gm1d", "--n", "10000", "--seed", "7", "--method", m])
      for m in ("naive", "agce", "offshelf")),
    ("curve-expgamma-d2-biterminal",
     ["--model", "exp_gamma", "--d", "2", "--n", "3000", "--seed", "7", "--method", "biterminal"]),
    ("curve-expgamma-d1-naive",
     ["--model", "exp_gamma", "--d", "1", "--n", "3000", "--seed", "7", "--method", "naive", "--quad-m", "16"]),
]
BUNDLES = ("sec4.4", "sec5.4-gauss", "sec6.1-gm")
LEDGER = Path(__file__).resolve().with_name("answers.json")


def write_rounded_csvs() -> None:
    """x ~ N(0, 1), y = x + N(0, 1) rounded to integers, and an exp-Gamma
    d = 2 sample rounded to a 0.5 grid; n = 2,000 each."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2000)
    y = x + rng.standard_normal(2000)
    cli.write_samples_csv(Path("rounded-1d.csv"), PairedSamples(np.round(x), np.round(y)))
    s = expgamma_sample(2000, 2, seed=1).samples
    halves = PairedSamples(np.round(2.0 * s.x) / 2.0, np.round(2.0 * s.y) / 2.0)
    cli.write_samples_csv(Path("rounded-expgamma-d2.csv"), halves)
    cli.write_samples_csv(Path("mixed-expgamma.csv"), PairedSamples(s.x, s.y[:, :1]))


def queries(x: np.ndarray) -> np.ndarray:
    """Sample values (tied with the sample), a grid across the range, the
    midpoints of neighbouring distinct values and points past either end."""
    values = np.unique(x, axis=0)
    lo, hi = x.min(axis=0), x.max(axis=0)
    grid = lo + np.linspace(-0.1, 1.1, 101)[:, None] * (hi - lo)
    return np.concatenate([x[:200], grid, (values[:-1] + values[1:])[:200] / 2.0, [lo - 5.0, hi + 5.0]])


def library_cases():
    """(name, output arrays) of smoothers on 1-D and d = 2 blocks, continuous
    and tied, and of fitted off-shelf and AGCE transforms."""
    rng = np.random.default_rng(3)
    s = expgamma_sample(2000, 2, seed=1).samples.x
    blocks = {
        "1d": rng.standard_normal(3000)[:, None],
        "1d-tied": np.round(rng.standard_normal(3000))[:, None],
        "d2": s,
        "d2-tied": np.round(2.0 * s) / 2.0,
    }
    for name, x in blocks.items():
        z, q = rng.standard_normal(x.shape[0]), queries(x)
        for k in (1, 7, 20, 150):
            sm = KnnSmoother(x, k)
            yield f"smoother-{name}-k{k}", [sm.smooth(z), sm.predict(q, z)]
    pairs = {"gm1d": gm1d_sample(3000, 10.0, 0.1, seed=7).samples}
    x = rng.standard_normal(3000)
    pairs["rounded"] = PairedSamples(np.round(x), np.round(x + rng.standard_normal(3000)))
    for name, samples in pairs.items():
        for fit, pair in (("offshelf", offshelf_lower_1d(samples, seed=5)),
                          ("agce", agce_fit_1d(samples, n_restarts=2, seed=5))):
            yield f"transform-{name}-{fit}", [pair.phi(queries(samples.x)[:, 0]),
                                              pair.psi(queries(samples.y)[:, 0])]


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def without_timing(report: dict) -> bytes:
    return json.dumps({key: value for key, value in report.items() if key != "timing"}, sort_keys=True).encode()


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exit code {code}: {' '.join(argv)}")


def quick_cases():
    """(name, sha256, headline numbers) of every case but the bundles; writes
    its inputs and outputs to the working directory."""
    write_rounded_csvs()
    for name, args in BOUNDS:
        run(["bound", *args, "--out", f"{name}.json"])
        report = read_json(Path(f"{name}.json"))
        yield name, digest(without_timing(report)), {
            "lower": report["lower_bound_nats"], "upper": report["ace_upper_bound_nats"], "rho": report["rho"]}
    for name, args in CURVES:
        run(["curve", *args, "--out-dir", name])
        out = Path(name)
        manifest = read_json(out / "manifest.json")
        csvs = sorted(out.glob("*.csv"))
        yield name, digest(without_timing(manifest), *(p.read_bytes() for p in csvs)), {
            "embedding": manifest["embedding_bound_nats"], "reference": manifest["reference_pmf_mi_nats"]}
    for name, arrays in library_cases():
        norm = float(np.linalg.norm(np.concatenate(arrays)))
        yield name, digest(*(a.tobytes() for a in arrays)), {"norm": norm}


def versions() -> dict:
    """The versions of the libraries whose arithmetic a hash depends on."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas}


def update_ledger(cases: dict) -> None:
    """Rewrite the ledger with cases, printing each case whose hash changed."""
    old = read_json(LEDGER)["cases"] if LEDGER.exists() else {}
    for name in {**old, **cases}:
        if old.get(name, {}).get("sha256") != cases.get(name, {}).get("sha256"):
            print("changed", name, flush=True)
    text = json.dumps({"versions": versions(), "cases": cases}, indent=1)
    LEDGER.write_text(text + "\n", encoding="utf-8")


def main(argv: list[str]) -> None:
    quick = "--quick" in argv
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, sha, headline in quick_cases():
            print(name, sha, flush=True)
            cases[name] = {"sha256": sha, **headline}
        for bundle in () if quick else BUNDLES:
            rows = [dataclasses.asdict(row) for row in repro.run_experiment(bundle)]
            commands = [row.pop("commands") for row in rows]
            for row in rows:
                row.pop("elapsed_s")
            print(f"reproduce-{bundle}", digest(json.dumps(rows, sort_keys=True).encode()), flush=True)
            print(f"reproduce-{bundle}-commands", digest(json.dumps(commands).encode()), flush=True)
    if "--update" in argv:
        update_ledger(cases)


if __name__ == "__main__":
    main(sys.argv[1:])
