"""Record the benchmark's end-to-end metrics in one file, or compare two such files.

    python3 scripts/bench_record.py --out BENCH_<n>.json [--tree DIR] [--smoke]
    python3 scripts/bench_record.py --compare BASE.json NEW.json

Recording runs ``bench/run.py --workload W --seed 1 --seconds T`` of the
checkout at ``--tree`` (default: the one holding this script) once for each
workload its ``BENCHMARK.json`` names, T being that file's ``run_seconds``,
and writes each run's end-to-end metrics and metadata line.  ``--smoke``
runs the benchmark's tiny sizes for 0.2 s each, to check the script.  The file also holds the checkout's commit, from
``git rev-parse HEAD``, and ``dirty``, whether ``git status --porcelain``
lists any change; both are null when the tree is not the top of a git
checkout (a ``git archive`` copy, say).

Comparing applies the end-to-end bounds of this checkout's
``BENCHMARK.json`` to two such files: a metric is worse beyond its bound
when it moved the wrong way by more than that share of the base value.  It
prints one line per workload and metric, and exits 1 when a metric is worse
beyond its bound or a workload is missing from either file, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SMOKE_SECONDS = 0.2


def git(tree: Path, *args: str) -> str | None:
    """stdout of a git command run in ``tree``, or None when it fails."""
    try:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def revision(tree: Path) -> tuple[str | None, bool | None]:
    """The commit checked out at ``tree`` and whether its tree has changes;
    (None, None) unless ``tree`` is the top of a git checkout."""
    top = git(tree, "rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != tree.resolve():
        return None, None
    head, status = git(tree, "rev-parse", "HEAD"), git(tree, "status", "--porcelain")
    return (head.strip() if head else None), (bool(status.strip()) if status is not None else None)


def record(tree: Path, smoke: bool) -> dict:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    seconds = SMOKE_SECONDS if smoke else spec["run_seconds"]
    commit, dirty = revision(tree)
    out = {"commit": commit, "dirty": dirty, "seed": SEED, "seconds": seconds, "smoke": smoke, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
                "--seconds", str(seconds), *(["--smoke"] if smoke else [])]
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
        meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        out["workloads"][workload] = {
            "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "meta": json.loads(meta_line)["meta"],
        }
    return out


def worse_by(base: float, new: float, better: str) -> float:
    """How far ``new`` moved the wrong way, as a share of ``base``."""
    loss = base - new if better == "higher" else new - base
    if base:
        return loss / abs(base)
    return math.copysign(math.inf, loss) if loss else 0.0


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """One line per workload and metric, and whether every metric kept its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base["workloads"] or workload not in new["workloads"]:
            lines.append(f"{workload} missing")
            ok = False
            continue
        before, after = base["workloads"][workload]["metrics"], new["workloads"][workload]["metrics"]
        for m in spec["end_to_end"]:
            a, b = before[m["name"]], after[m["name"]]
            worse = worse_by(a, b, m["better"])
            kept = worse <= m["bound"]
            ok &= kept
            change = f"{(b - a) / abs(a):+.1%}" if a else "n/a"
            lines.append(f"{workload} {m['name']} {a:.6g} -> {b:.6g} {change} "
                         f"(bound {m['bound']:.0%}, {m['better']} is better) {'ok' if kept else 'WORSE'}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="file to write the recorded runs to")
    action.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"), help="two recorded files")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to run the benchmark of")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny sizes, 0.2 s per workload")
    args = parser.parse_args(argv)
    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        lines, ok = compare(base, new)
        print("\n".join(lines))
        return 0 if ok else 1
    try:
        recorded = record(args.tree, args.smoke)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 3
    args.out.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
