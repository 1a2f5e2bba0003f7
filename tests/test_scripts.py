"""The scripts under ``scripts/`` run end to end and print their known results."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def launch(script: str, *args: str) -> subprocess.CompletedProcess:
    """``python scripts/<script> <args>`` run against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / script), *args]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def run(script: str, *args: str) -> list[str]:
    """stdout lines of a script run that must exit 0."""
    proc = launch(script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_worked_examples_rebuild_the_golden_table(tmp_path):
    run("worked_examples.py", "--out-dir", str(tmp_path))
    golden = ROOT / "tests" / "golden" / "expected" / "worked-examples.json"
    assert (tmp_path / "worked_examples.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "args, last",
    [
        ("half-blend --members 0,1 --levels 12", "limit: 1/2^1 (exact)"),
        ("tilted-fair-coin --members 1 --levels 20", "limit: 733007751851/2^42 (upper bound at depth 21)"),
    ],
)
def test_trim_convergence_ends_at_the_limit(args, last):
    assert run("trim_convergence.py", *args.split())[-1].strip() == last


def test_trim_convergence_csv_has_one_row_per_level():
    lines = run("trim_convergence.py", *"--file tests/golden/inputs/tilted.json --members 0,1 --levels 4 --format csv".split())
    assert lines[0] == "level,mass,gap"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize(
    "args, code, line",
    [
        ("--members 0,2", 2, "parse error: not a binary string: '2'"),
        ("--members 0,01", 4, "precondition failed: the open set must be given as a prefix-free antichain"),
        ("--levels -1", 2, "parse error: m_max must be non-negative"),
    ],
)
def test_trim_convergence_reports_bad_input_as_the_cli_does(args, code, line):
    """One stderr line, no traceback and no stdout, and the CLI's exit code:
    2 for a parse error or bad value, 4 for a failed precondition."""
    proc = launch("trim_convergence.py", *args.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", line + "\n")


def test_bench_record_writes_every_workload_and_compares_two_files(tmp_path):
    """A smoke recording holds each workload's end-to-end metrics and
    metadata; compared with itself every metric keeps its bound, and a copy
    at half the antichain throughput is refused on that metric alone."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = tmp_path / "base.json"
    run("bench_record.py", "--out", str(base), "--smoke")
    recorded = json.loads(base.read_text())
    assert recorded["commit"] is None or len(recorded["commit"]) == 40
    assert recorded["seconds"] == 0.2 and recorded["smoke"] is True
    assert list(recorded["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in recorded["workloads"].items():
        assert list(entry["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        assert entry["correct"] is True and entry["meta"]["workload"] == name and entry["meta"]["smoke"] is True
    lines = run("bench_record.py", "--compare", str(base), str(base))
    assert len(lines) == len(spec["workloads"]) * len(spec["end_to_end"])
    assert all(line.endswith(" ok") for line in lines)
    recorded["workloads"]["antichain"]["metrics"]["throughput_ops_s"] /= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(recorded))
    proc = launch("bench_record.py", "--compare", str(base), str(slower))
    assert proc.returncode == 1, proc.stderr
    worse = [line for line in proc.stdout.splitlines() if not line.endswith(" ok")]
    assert len(worse) == 1 and worse[0].startswith("antichain throughput_ops_s ") and "-50.0%" in worse[0]
