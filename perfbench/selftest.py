"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that every workload runs clean, untraced and traced; that each run
emits exactly the metrics BENCHMARK.json names, with their units; that a
tampered ``bound`` report (lower bound above the ACE upper bound, or ``u``
off the rank grid) is counted as a failed op, not a passed one; and that
the launcher refuses to run, printing no result, without the program's
source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workload

SEED = 20_171_107
TINY = {
    "agce-gm1d": {"n": 400, "restarts": 2},
    "biterminal-expgamma": {"n": 300},
    "curve-gm1d": {"n": 400, "quad_m": 8},
    "transform-gm1d": {"fit_n": 1000, "batch": 2000, "restarts": 2},
}


def _expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(problems: list[str], before: int, what: str) -> None:
    for problem in problems[before:]:
        print(f"FAIL {problem}", flush=True)
    if len(problems) == before:
        print(f"ok   {what}", flush=True)


def _run(name: str, trace: bool) -> dict:
    return workload.run_workload(name, SEED, 0, trace, TINY[name])["result"]


def check_workloads(problems: list[str]) -> None:
    for name in TINY:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            before = len(problems)
            result = _run(name, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']}/{result['attempted']} ops failed")
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            if got != _expected_metrics(trace):
                problems.append(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
            if not all(isinstance(m["value"], float) for m in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a float")
            _report(problems, before, f"{label}: {result['attempted']} ops")


def _tampered_run(attr: str, tamper) -> dict:
    from gaussbound import cli

    original = getattr(cli, attr)
    setattr(cli, attr, tamper(original))
    try:
        return _run("agce-gm1d", False)
    finally:
        setattr(cli, attr, original)


def _zero_upper(_original):
    return lambda _model: 0.0


def _shift_u(original):
    def run_method(*args, **kwargs):
        u, v, rho, extras = original(*args, **kwargs)
        return u + 1e-3, v, rho, extras

    return run_method


def check_tampering(problems: list[str]) -> None:
    for label, attr, tamper in (
        ("lower > upper", "ace_upper_bound", _zero_upper),
        ("off-grid u", "run_method", _shift_u),
    ):
        before = len(problems)
        result = _tampered_run(attr, tamper)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"tampered report ({label}) was not counted as failed: {result}")
        _report(problems, before, f"tampered report ({label}) counted as failed")


def check_bare_directory(problems: list[str]) -> None:
    """The launcher, copied without ``src/``, must exit nonzero silently."""
    bare = workload.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(workload.ROOT / "BENCHMARK.json", bare)
    for path in (workload.ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        child = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "curve-gm1d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    before = len(problems)
    if child.returncode == 0 or "{" in child.stdout:
        problems.append(f"bare directory: exit {child.returncode}, stdout {child.stdout!r}")
    _report(problems, before, f"bare directory: exit {child.returncode}")


def main() -> int:
    problems: list[str] = []
    check_workloads(problems)
    check_tampering(problems)
    check_bare_directory(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
