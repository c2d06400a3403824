"""Benchmark launcher: run one workload in its own process and print the result.

    python3 perfbench/run.py --workload agce-gm1d --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  The workload runs in a child process with the OpenBLAS and
OpenMP thread caps set to at most the usable core count.  The host, the
source revision and the seed are printed on a ``# host`` line; the last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full record of the run (every op, and the spans of a traced run) is
written under ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workload import ROOT, WORK, WORKLOADS

CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env(nproc: int) -> dict:
    """The environment with every thread cap at most ``nproc``."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        env[var] = str(current if 1 <= current <= nproc else nproc)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gaussbound benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gaussbound" / "__init__.py").is_file():
        print(f"error: no gaussbound source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    dump = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dump", str(dump)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=thread_env(nproc), stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload exited with code {child.returncode}", file=sys.stderr)
        return 1
    run = json.loads(lines[-1])
    detail = run["detail"]
    host = {**detail["host"], "workload": args.workload, "seed": args.seed,
            "op_s": [round(op["s"], 6) for op in detail["ops"]]}
    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
