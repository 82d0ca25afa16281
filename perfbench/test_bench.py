"""The benchmark's own test: every workload in the reduced-size mode.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Known faults each round attempts and counts as failed, per workload,
#: as (failed, attempted) per round.
FAULTS_PER_ROUND = {"q1": (0, 2), "highcard": (3, 5), "kernel": (2, 10)}


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [
    "q1",
    "highcard",
    pytest.param("kernel", marks=pytest.mark.xfail(
        strict=True, reason="mixed-magnitude sums at one row per group exceed "
        "Eq. 6 (see the FOUND line on the window grid in CHANGES.md)")),
])
def test_quick_run(workload):
    res = _run(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    failed, per_round = FAULTS_PER_ROUND[workload]
    assert res["attempted"] % per_round == 0
    assert res["failed"] * per_round == failed * res["attempted"]
    assert res["correct"]


def test_missing_program_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for p in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_text(p.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
