"""Smoke test of the benchmark: every workload runs end to end at tiny sizes,
prints every metric named in BENCHMARK.json, and catches its planted wrong
answer.

    python3 -m pytest bench/test_bench_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_prints_every_metric(workload: str, trace: int) -> None:
    meta, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert meta["planted_wrong_answer_caught"] is True
    assert meta["unexpected_failures"] == []
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_known_defect_stays_visible() -> None:
    """Jointly valid mixtures still fail completion (ROADMAP defect 1), and
    only those ops fail; a fix turns them into passes, not into errors."""
    meta, result = run("presentation", 0)
    assert result["failed"] == sum(meta["known_defect_failures"].values())
    assert set(meta["failed_by_kind"]) <= {"complete_to_measure"}


def test_refuses_to_run_without_the_library(tmp_path: Path) -> None:
    """Outside a checkout (no src/) the benchmark exits non-zero and prints no result."""
    for rel in ["BENCHMARK.json"] + [str(p.relative_to(ROOT)) for p in BENCH.glob("*.py")]:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes((ROOT / rel).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "antichain", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
