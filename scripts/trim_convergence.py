"""Tabulate refinement masses of an open set descending to the trim limit.

For a chosen presentation and antichain, prints the exact mass of the
m-level refinement for m = 0..--levels together with the certified limit
and per-level gap, all as m/2^n literals.  Stock presentations are built
in-process; --file reads any serialized presentation instead.  Bad input
ends in one stderr line and the exit codes of the ``semimeasures`` command:
2 for a parse error or bad value, 4 for a failed precondition.
"""

from __future__ import annotations

import argparse

from semimeasures import (
    HALF,
    Dyadic,
    dirac_spine,
    geometric_semimeasure,
    mix_stages,
    open_set_derived,
    staged_from_json,
    tilt_by_ones,
    uniform_measure,
)
from semimeasures.cli import load_json, report_failure

QUARTER = Dyadic(1, 2)

STOCK = {
    "fair-coin": lambda: uniform_measure(),
    "quarter-geometric": lambda: geometric_semimeasure(QUARTER),
    "half-blend": lambda: mix_stages(
        [uniform_measure(), geometric_semimeasure(QUARTER)], [HALF, HALF]
    ),
    "zero-spine": lambda: dirac_spine("0"),
    "tilted-fair-coin": lambda: tilt_by_ones(uniform_measure()),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "presentation",
        nargs="?",
        default="half-blend",
        choices=sorted(STOCK),
        help="stock presentation to tabulate",
    )
    parser.add_argument("--file", default=None, help="serialized presentation instead of a stock one")
    parser.add_argument("--stage", type=int, default=0, help="stage index for staged files")
    parser.add_argument("--members", default="", help="comma-separated antichain (default: the root)")
    parser.add_argument("--levels", type=int, default=12)
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    args = parser.parse_args(argv)
    try:
        return tabulate(args)
    except ValueError as exc:
        return report_failure(exc)


def tabulate(args: argparse.Namespace) -> int:
    if args.file is not None:
        stage = staged_from_json(load_json(args.file)).stage_at(args.stage)
        name = args.file
    else:
        stage = STOCK[args.presentation]()
        name = args.presentation
    members = tuple(m for m in args.members.split(",") if m) or ("",)

    result = open_set_derived(stage, members, args.levels)
    limit = result.limit.value
    rows = [(m, mass, mass - limit) for m, mass in enumerate(result.masses)]

    if args.format == "csv":
        print("level,mass,gap")
        for m, mass, gap in rows:
            print(f"{m},{mass},{gap}")
    else:
        shown = ",".join(m or "(root)" for m in members)
        print(f"presentation: {name}   members: {shown}")
        width = max(len(str(mass)) for _, mass, _ in rows)
        for m, mass, gap in rows:
            print(f"  level {m:>2}: {str(mass):>{width}}   gap {gap}")
        certainty = "exact" if result.limit.stabilized else f"upper bound at depth {result.limit.depth}"
        print(f"  limit: {limit} ({certainty})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
