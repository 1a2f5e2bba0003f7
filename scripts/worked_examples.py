"""Recompute the worked-example table and drive the CLI end to end.

Runs every step through ``semimeasures.cli.main`` exactly as a shell user
would: recompute the frozen example table (JSON and CSV), trim the
half-fair-coin / half-quarter-geometric blend, invert the blend into a
functional and induce it back, and decode the heavy path of a spine
presentation.  All artifacts land in --out-dir; the script fails if any
subcommand does.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from semimeasures import (
    HALF,
    Dyadic,
    all_strings,
    dumps,
    dyadic_from_text,
    geometric_semimeasure,
    dirac_spine,
    mix_stages,
    stage_to_json,
    uniform_measure,
)
from semimeasures.cli import main as cli_main

QUARTER = Dyadic(1, 2)


def half_blend():
    return mix_stages([uniform_measure(), geometric_semimeasure(QUARTER)], [HALF, HALF])


def run_cli(argv: list[str]) -> int:
    code = cli_main(argv)
    marker = "ok" if code == 0 else f"exit {code}"
    print(f"  semimeasures {' '.join(argv)}  [{marker}]")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out", help="directory for the artifacts")
    parser.add_argument("--depth", type=int, default=3, help="depth of the inversion round trip")
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0

    print("worked example table:")
    for fmt in ("json", "csv"):
        target = out / f"worked_examples.{fmt}"
        failures += run_cli(["worked-examples", "--format", fmt, "--out", str(target)])

    blend_file = out / "half_blend.json"
    blend_file.write_text(dumps(stage_to_json(half_blend())), encoding="utf-8")
    print("trim of the blend below '0':")
    failures += run_cli(
        ["trim", str(blend_file), "--sigma", "0", "--depth", "12", "--out", str(out / "trim_blend.json")]
    )

    print("inversion round trip:")
    functional_file = out / "blend_functional.json"
    induced_file = out / "blend_induced.json"
    failures += run_cli(
        ["invert", str(blend_file), "--depth", str(args.depth), "--out", str(functional_file)]
    )
    failures += run_cli(
        ["induce", str(functional_file), "--depth", str(args.depth), "--out", str(induced_file)]
    )
    induced = json.loads(induced_file.read_text(encoding="utf-8"))
    blend = half_blend()
    mismatches = []
    for component in induced["components"]:
        weight = dyadic_from_text(component["weight"])
        for level, row in enumerate(component["table"]):
            for sigma, text in zip(all_strings(level), row):
                if weight * dyadic_from_text(text) != blend.value(sigma):
                    mismatches.append(sigma)
    if mismatches:
        print(f"  round trip drifted at: {sorted(mismatches)}")
        failures += 1
    else:
        print(f"  induced table matches the blend on all strings up to depth {args.depth}")

    print("atom decoding along the zero spine:")
    spine_file = out / "zero_spine.json"
    spine_file.write_text(dumps(stage_to_json(dirac_spine("0"))), encoding="utf-8")
    failures += run_cli(
        [
            "atom-decode",
            str(spine_file),
            "--q",
            "3/2^2",
            "--bits",
            "16",
            "--out",
            str(out / "decoded_atom.json"),
        ]
    )

    print(f"artifacts in {out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
