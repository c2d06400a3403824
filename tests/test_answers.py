"""The answer ledger: every quick parity-probe case against tests/answers.json.

With the numpy, scipy and BLAS versions the ledger was made with, each case
must hash the same; with others, its headline numbers must agree to 1e-9
relative.  After a change that moves an answer on purpose, rewrite the ledger
with ``python tests/parity_probe.py --quick --update``.
"""

import math

import parity_probe


def _close(recorded, value) -> bool:
    if recorded is None or value is None:
        return recorded is value
    if isinstance(recorded, list):
        return len(recorded) == len(value) and all(map(_close, recorded, value))
    return math.isclose(recorded, value, rel_tol=1e-9)


def test_answers_match_the_ledger(tmp_path, monkeypatch):
    ledger = parity_probe.read_json(parity_probe.LEDGER)
    monkeypatch.chdir(tmp_path)
    runs = {name: (sha, headline) for name, sha, headline in parity_probe.quick_cases()}
    assert list(runs) == list(ledger["cases"])
    by_hash = ledger["versions"] == parity_probe.versions()
    moved = []
    for name, case in ledger["cases"].items():
        sha, headline = runs[name]
        if by_hash:
            same = sha == case["sha256"]
        else:
            same = all(_close(case[key], value) for key, value in headline.items())
        if not same:
            moved.append(name)
    compared = "sha256" if by_hash else "headline numbers"
    assert not moved, f"answers moved ({compared}): {', '.join(moved)}"
