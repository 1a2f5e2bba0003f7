"""Golden CLI corpus: every subcommand's stdout and exit code, byte for byte.

``tests/golden/cases.json`` lists invocations over the fixed inputs in
``tests/golden/inputs``; each runs once with ``--format json`` and once
with ``--format csv``.  The expected stdout of each run is
``tests/golden/expected/<name>.<format>`` and its exit code is in
``expected/exit_codes.json``.  Every invocation runs a second time with
``--out FILE``: the file must hold the expected stdout byte for byte, stdout
must stay empty, and a run whose expected stdout is empty (an error written
to stderr alone) must create no file.  A change that means to alter CLI
output regenerates them with ``python tests/test_golden.py --write`` and
shows the diff; run without arguments the script prints the results of
both runs as JSON.  ``python tests/test_golden.py --command CMD`` runs every
invocation through the command line CMD instead (for example the installed
``semimeasures`` console script), prints one line per run whose stdout or
exit code differs from ``expected/``, and exits 1 if there is any.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
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


def run_corpus(out_dir: Path | None = None) -> dict[str, tuple[int, str | None]]:
    """Run every invocation through ``cli.main`` in this process.

    With ``out_dir`` each run also gets ``--out out_dir/<name>``; its text
    is then that file's, or None when no file was written, and its stdout
    must be empty.
    """
    from semimeasures.cli import main

    results = {}
    for name, argv in invocations():
        out = io.StringIO()
        target = None if out_dir is None else out_dir / name
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv if target is None else argv + ["--out", str(target)])
        if target is None:
            results[name] = (code, out.getvalue())
        else:
            assert out.getvalue() == "", f"{name}: stdout not empty with --out"
            results[name] = (code, target.read_bytes().decode("utf-8") if target.exists() else None)
    return results


def both_runs() -> dict[str, dict[str, tuple[int, str | None]]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {"stdout": run_corpus(), "out": run_corpus(Path(tmp))}


def expected() -> dict[str, tuple[int, str]]:
    codes = json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
    return {name: (code, (EXPECTED / name).read_bytes().decode("utf-8")) for name, code in codes.items()}


def command_mismatches(command: list[str]) -> list[str]:
    """Run every invocation as ``command + argv``; one line per run whose
    stdout or exit code differs from the expected ones."""
    want = expected()
    out = []
    for name, argv in invocations():
        proc = subprocess.run([*command, *argv], capture_output=True, timeout=120)
        code, text = want[name]
        if proc.returncode != code:
            out.append(f"{name}: exit code {proc.returncode}, expected {code}")
        elif proc.stdout.decode("utf-8") != text:
            out.append(f"{name}: stdout differs from expected/{name}")
    return out


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


def test_out_file_holds_the_golden_stdout(tmp_path):
    want = {name: (code, text or None) for name, (code, text) in expected().items()}
    got = run_corpus(tmp_path)
    assert got == want
    assert sorted(name for name, (_code, text) in got.items() if text is None) == [
        f"{case}.{fmt}" for case in ("eval-inconsistent", "induce-inconsistent") for fmt in ("csv", "json")
    ]


def test_module_entry_point(tmp_path):
    """``python -m semimeasures.cli``: stdout and exit code as in the corpus,
    and a missing input file is a parse error with empty stdout."""
    want = expected()
    runs = {name: argv for name, argv in invocations() if name in ("trim.json", "validate-inconsistent.csv")}
    runs["missing-file"] = ["validate", str(tmp_path / "absent.json")]
    want["missing-file"] = (2, "")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for name, argv in runs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "semimeasures.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == want[name], name
    assert sorted(want[name][0] for name in runs) == [0, 1, 2]


def test_command_mode_reports_every_mismatch():
    """``true`` prints nothing and exits 0, which no golden run does."""
    proc = subprocess.run(
        [sys.executable, __file__, "--command", "true"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1, proc.stderr
    assert sorted(line.split(":")[0] for line in proc.stdout.splitlines()) == sorted(expected())


def test_golden_outputs_do_not_depend_on_the_hash_seed():
    want = {name: list(v) for name, v in expected().items()}
    want_out = {name: [code, text or None] for name, (code, text) in expected().items()}
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["stdout"] == want, f"PYTHONHASHSEED={seed}"
        assert got["out"] == want_out, f"PYTHONHASHSEED={seed} with --out"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_expected()
    elif len(sys.argv) == 3 and sys.argv[1] == "--command":
        mismatches = command_mismatches(shlex.split(sys.argv[2]))
        print("\n".join(mismatches), end="\n" if mismatches else "")
        sys.exit(1 if mismatches else 0)
    else:
        print(json.dumps(both_runs()))
