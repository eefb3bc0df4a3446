"""Smoke test: every workload at a tiny size, through the same checks.

Run from the repository root, either way::

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

Each case runs ``run.py --tiny`` in a child process (untraced and
traced) and checks the result line: correct outputs, the metric set of
``BENCHMARK.json``, and — for ``serve`` — that exactly the malformed
``Content-Length`` requests failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, (got, expected)
    if workload == "serve":
        # One request with a non-numeric and one with a negative
        # Content-Length per round; the server drops both unanswered.
        assert result["failed"] > 0 and result["failed"] % 2 == 0
    else:
        assert result["failed"] == 0


def test_grid():
    _check("grid", 0)


def test_churn():
    _check("churn", 0)


def test_serve():
    _check("serve", 0)


def test_traced():
    for workload in ("grid", "churn", "serve"):
        _check(workload, 1)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
