"""Parity probe: one sha256 per output of a fixed set of CLI runs.

    PYTHONPATH=src python tests/parity_probe.py [--quick]

Run it on two checkouts (each with its own ``PYTHONPATH``) and compare the
printed lines: a change meant to keep answers byte-identical must print the
same hash for every case.  Each hash covers a ``bound`` report or a ``curve``
manifest and every curve CSV, all outside ``timing``, or the rows of a
``reproduce`` bundle outside their elapsed time.  The ``rounded-*`` cases run
on integer- and half-grid-rounded data, whose many duplicated values exercise
the smoother's tied rows.  ``--quick`` leaves out the reproduce bundles.
pytest does not collect this file; it takes a few minutes on two cores.
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

from gaussbound import PairedSamples, cli, expgamma_sample
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
    *((f"rounded-1d-{m}", ["--input", "rounded-1d.csv", "--seed", "1", "--method", m])
      for m in ("offshelf", "agce", "biterminal")),
    *((f"rounded-expgamma-d2-{m}", ["--input", "rounded-expgamma-d2.csv", "--seed", "1", "--method", m])
      for m in ("offshelf", "biterminal")),
]
CURVES = [
    *((f"curve-gm1d-{m}", ["--model", "gm1d", "--n", "10000", "--seed", "7", "--method", m])
      for m in ("naive", "agce", "offshelf")),
    ("curve-expgamma-d2-biterminal",
     ["--model", "exp_gamma", "--d", "2", "--n", "3000", "--seed", "7", "--method", "biterminal"]),
]
BUNDLES = ("sec4.4", "sec5.4-gauss", "sec6.1-gm")


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


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def without_timing(path: Path) -> bytes:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timing")
    return json.dumps(report, sort_keys=True).encode()


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exit code {code}: {' '.join(argv)}")


def main(argv: list[str]) -> None:
    quick = "--quick" in argv
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_rounded_csvs()
        for name, args in BOUNDS:
            run(["bound", *args, "--out", f"{name}.json"])
            print(name, digest(without_timing(Path(f"{name}.json"))), flush=True)
        for name, args in CURVES:
            run(["curve", *args, "--out-dir", name])
            out = Path(name)
            csvs = sorted(out.glob("*.csv"))
            print(name, digest(without_timing(out / "manifest.json"), *(p.read_bytes() for p in csvs)), flush=True)
        for bundle in () if quick else BUNDLES:
            rows = [dataclasses.asdict(row) for row in repro.run_experiment(bundle)]
            for row in rows:
                row.pop("elapsed_s")
            print(f"reproduce-{bundle}", digest(json.dumps(rows, sort_keys=True).encode()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
