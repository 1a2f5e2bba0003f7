"""Golden CLI corpus: every subcommand's stdout and exit code, byte for byte.

``tests/golden/cases.json`` lists invocations over the fixed inputs in
``tests/golden/inputs``; each runs once with ``--format json`` and once
with ``--format csv``.  The expected stdout of each run is
``tests/golden/expected/<name>.<format>`` and its exit code is in
``expected/exit_codes.json``.  A change that means to alter CLI output
regenerates them with ``python tests/test_golden.py --write`` and shows the
diff; run without arguments the script prints the corpus results as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
FORMATS = ("json", "csv")


def invocations() -> list[tuple[str, list[str]]]:
    """(file name of the expected stdout, argv) for every case and format."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    out = []
    for case in cases:
        argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]
        for fmt in FORMATS:
            out.append((f"{case['name']}.{fmt}", argv + ["--format", fmt]))
    return out


def run_corpus() -> dict[str, tuple[int, str]]:
    """Run every invocation through ``cli.main`` in this process."""
    from semimeasures.cli import main

    results = {}
    for name, argv in invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        results[name] = (code, out.getvalue())
    return results


def expected() -> dict[str, tuple[int, str]]:
    codes = json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
    return {name: (code, (EXPECTED / name).read_bytes().decode("utf-8")) for name, code in codes.items()}


def write_expected() -> None:
    EXPECTED.mkdir(exist_ok=True)
    results = run_corpus()
    for name, (_code, text) in results.items():
        (EXPECTED / name).write_bytes(text.encode("utf-8"))
    codes = {name: code for name, (code, _text) in results.items()}
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


def test_every_invocation_matches_its_golden_output():
    want = expected()
    got = run_corpus()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_golden_outputs_do_not_depend_on_the_hash_seed():
    want = {name: list(v) for name, v in expected().items()}
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_expected()
    else:
        print(json.dumps(run_corpus()))
