"""Command-line front end.

One subcommand per construction; all numeric output is exact ``m/2^n`` text.
Identical inputs and flags produce byte-identical output.

Exit codes: 0 success, 1 validation failure (a failed certificate
included), 2 parse error, 3 budget exhausted, 4 precondition failure.
Every failure line on stderr is written by :func:`report_failure`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Any

from .dyadic import HALF, ZERO, Dyadic, _text, common
from .errors import BudgetExhaustedError, CertificateError, ParseError, PreconditionError, _count
from .functional import (
    MonotoneFunctional,
    consistency_check,
    eval_on_string,
    from_semimeasure,
    induced_semimeasure,
    mirror_pair,
    pad_with_identity,
)
from .mltest import validate_ml_test
from .semimeasure import (
    complete_to_measure,
    geometric_semimeasure,
    mix_stages,
    uniform_measure,
    validate,
)
from .serialize import (
    dumps,
    dyadic_from_text,
    functional_from_json,
    functional_to_json,
    stage_to_json,
    staged_from_json,
    test_from_json,
    trim_result_to_json,
)
from .strings import EPSILON, check_bits
from .trim import decode_atom, derived_measure, lebesgue_like_check

GRANULARITY_ENV = "SEMIMEASURES_GRANULARITY_CAP"


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def _flatten(prefix: str, obj: Any, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif not isinstance(obj, list):
        rows.append((prefix, "" if obj is None else str(obj)))
    elif not any(isinstance(item, (dict, list)) for item in obj):  # scalars: one row each, no recursion
        rows.extend((f"{prefix}[{idx}]", "" if item is None else str(item)) for idx, item in enumerate(obj))
    elif all(isinstance(y, list) for y in obj) and not any(isinstance(x, (dict, list)) for y in obj for x in y):
        # lists of scalars, such as a functional's pairs: one row per scalar, no call per list
        rows.extend((f"{prefix}[{i}][{j}]", "" if x is None else str(x))
                    for i, y in enumerate(obj) for j, x in enumerate(y))
    else:
        for idx, item in enumerate(obj):
            _flatten(f"{prefix}[{idx}]", item, rows)


def _render(payload: Any, fmt: str) -> str:
    """JSON as-is; CSV as a table when the payload carries one, else key,value.

    The key,value rows are joined as plain text.  ``csv.writer`` writes the
    same bytes unless a field holds a comma or a quote, or the text a line
    break; only then are the rows handed to it, to be quoted."""
    if fmt == "json":
        return dumps(payload)
    if isinstance(payload, dict) and "rows" in payload and "header" in payload:
        rows = [payload["header"], *payload["rows"]]
    else:
        rows = [("key", "value")]
        _flatten("", payload, rows)
        text = "".join([f"{k},{v}\n" for k, v in rows])
        if text.count(",") == text.count("\n") == len(rows) and '"' not in text and "\r" not in text:
            return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _granularity_cap() -> int:
    raw = os.environ.get(GRANULARITY_ENV)
    if raw is None:
        return 16
    if not (raw.isascii() and raw.isdigit()):  # [0-9]+, as dyadic literals
        raise ParseError(f"{GRANULARITY_ENV} must be a non-negative integer in ASCII digits, got {raw!r}")
    return int(raw)


# -- subcommands ---------------------------------------------------------------
# Each handler returns (payload, exit code), or raises the error that ends
# the run.


def cmd_validate(args: argparse.Namespace) -> tuple[Any, int]:
    stage = _count(args.stage, "stage")  # read on every document kind
    obj = load_json(args.file)
    if isinstance(obj, dict) and ("components" in obj or obj.get("kind") in ("constant", "infimum")):
        report = validate(staged_from_json(obj).stage_at(stage))
        payload = {
            "kind": "semimeasure",
            "ok": report.ok,
            "node": report.node,
            "message": report.message or None,
            "children": (
                None
                if report.children is None
                else {"0": str(report.children[0]), "1": str(report.children[1])}
            ),
        }
        return payload, 0 if report.ok else 1
    if isinstance(obj, dict) and ("stages" in obj or obj.get("kind") == "identity"):
        phi = functional_from_json(obj)
        last = stage if phi.last is None or not phi.pairs_at(phi.last) else phi.last
        report = consistency_check(phi, last)
        payload = {
            "kind": "functional",
            "ok": report.ok,
            "stage": last,
            "conflict": None if report.ok else [list(report.pair_a), list(report.pair_b)],
        }
        return payload, 0 if report.ok else 1
    if isinstance(obj, dict) and "levels" in obj:
        violation = validate_ml_test(test_from_json(obj))
        payload = {
            "kind": "test",
            "ok": violation is None,
            "violation": (
                None
                if violation is None
                else {
                    "level": violation.level,
                    "mass": str(violation.mass),
                    "bound": str(violation.bound),
                }
            ),
        }
        return payload, 0 if violation is None else 1
    raise ParseError(f"{args.file}: not a semi-measure, functional, or test")


def _mirror_gap(
    phi: MonotoneFunctional, psi: MonotoneFunctional, stages: int, depth: int
) -> tuple[Dyadic, list[Dyadic]]:
    """Largest difference of the two induced semi-measures over the first
    ``stages`` stages and every node of length <= depth, compared level row
    by level row; and phi's values on the 0-spine at the last stage."""
    worst, spine = ZERO, []
    for s in range(stages):
        left = induced_semimeasure(phi, s, depth)
        right = induced_semimeasure(psi, s, depth)
        spine = []
        for n in range(depth + 1):
            (a, b), e = common(left.level_row(n), right.level_row(n))
            worst = max(worst, Dyadic(max(abs(x - y) for x, y in zip(a, b)), e))
            spine.append(Dyadic(a[0], e))
    return worst, spine


def _worked_rows() -> list[tuple[str, str, str, str]]:
    rows: list[tuple[str, str, str, str]] = []

    def add(name: str, expected: str, computed: str) -> None:
        rows.append((name, expected, computed, "true" if expected == computed else "false"))

    # Geometric decay whose mass all leaks away: the trim vanishes.
    leaky = geometric_semimeasure(Dyadic(1, 2))
    add("vanishing-trim", "0/2^0", str(derived_measure(leaky, EPSILON).value))

    # Half fair coin plus half leaky: trim is half the uniform measure.
    blended = mix_stages([uniform_measure(), leaky], [HALF, HALF])
    alpha = lebesgue_like_check(blended, 4).alpha
    add("half-uniform-trim", "1/2^1", "none" if alpha is None else str(alpha))

    # Completing the 4^-n table pushes surplus down into the fair coin.
    nums, e = complete_to_measure(geometric_semimeasure(Dyadic(1, 2), depth=2), depth=4).level_row(4)
    add("geometric-quarter-completion", "1/2^4", str(Dyadic(nums[-1], e)))  # the value at 1111

    # Prefixing a functional with an identity branch averages in the coin.
    padded = pad_with_identity(MonotoneFunctional.constant([("0", "0")]))
    nums, e = induced_semimeasure(padded, 2, 1).level_row(1)
    add("identity-pad", "1/2^1", str(Dyadic(nums[0], e)))  # the value at 0

    # Twin functionals from one approximation agree at every stage.
    approx = [dyadic_from_text(t) for t in ["0", "1/2^2", "1/2^1", "1/2^1", "5/2^3", "11/2^4", "3/2^2"]]
    phi, psi = mirror_pair(approx)
    add("mirror-pair-depth-6", "0/2^0", str(_mirror_gap(phi, psi, len(approx), 6)[0]))
    return rows


def cmd_worked_examples(args: argparse.Namespace) -> tuple[Any, int]:
    rows = _worked_rows()
    payload = {
        "header": ["construction", "expected", "computed", "match"],
        "rows": [list(r) for r in rows],
    }
    return payload, 0 if all(r[3] == "true" for r in rows) else 1


def cmd_trim(args: argparse.Namespace) -> tuple[Any, int]:
    stage = staged_from_json(load_json(args.file)).stage_at(args.stage)
    sigma = check_bits(args.sigma)
    if args.depth < len(sigma):
        raise ParseError("--depth must be at least the length of --sigma")
    levels = stage.level_masses(sigma, args.depth)
    table = [[n, _text(*level)] for n, level in enumerate(levels, len(sigma))]
    result = derived_measure(stage, sigma, probe_depth=args.depth)
    payload = {
        "sigma": sigma,
        "header": ["depth", "value"],
        "rows": table,
        "derived": trim_result_to_json(result),
    }
    return payload, 0


def cmd_induce(args: argparse.Namespace) -> tuple[Any, int]:
    phi = functional_from_json(load_json(args.file))
    report = consistency_check(phi, args.stage)
    if not report.ok:
        raise CertificateError(
            f"inconsistent functional at stage {args.stage}: pairs {list(report.pair_a)} and "
            f"{list(report.pair_b)} have comparable inputs and incomparable outputs"
        )
    stage = induced_semimeasure(phi, args.stage, args.depth)
    return stage_to_json(stage), 0


def cmd_invert(args: argparse.Namespace) -> tuple[Any, int]:
    rho = staged_from_json(load_json(args.file))
    phi = from_semimeasure(rho, args.stage, args.depth, granularity_cap=_granularity_cap())
    return functional_to_json(phi), 0


def cmd_atom_decode(args: argparse.Namespace) -> tuple[Any, int]:
    rho = staged_from_json(load_json(args.file))
    q = dyadic_from_text(args.q)
    decoded = decode_atom(rho, q, args.seed, args.bits, max_stage=args.budget)
    payload = {"seed": args.seed, "q": str(q), "bits": decoded}
    return payload, 0


def cmd_mirror_pair(args: argparse.Namespace) -> tuple[Any, int]:
    if args.stages_file is not None:
        raw = load_json(args.stages_file)
        if not isinstance(raw, list):
            raise ParseError(f"{args.stages_file}: expected a JSON list of dyadic literals")
        texts = raw
    else:
        texts = [t.strip() for t in args.stages.split(",") if t.strip()]
    if not texts:
        raise ParseError("no approximation stages given")
    approx = [dyadic_from_text(t) for t in texts]
    phi, psi = mirror_pair(approx)
    depth = args.depth if args.depth is not None else min(len(approx) - 1, 8)
    gap, spine = _mirror_gap(phi, psi, len(approx), depth)
    agree = not gap
    payload = {
        "first": functional_to_json(phi),
        "second": functional_to_json(psi),
        "depth": depth,
        "stages": len(approx),
        "induced_agree": agree,
        "spine_values": [str(v) for v in spine],
    }
    return payload, 0 if agree else 1


def cmd_eval(args: argparse.Namespace) -> tuple[Any, int]:
    phi = functional_from_json(load_json(args.file))
    output = eval_on_string(phi, args.sigma, args.stage)
    payload = {"input": args.sigma, "stage": args.stage, "output": output}
    return payload, 0


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimeasures",
        description="Exact computations on dyadic semi-measure presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")

    staged = argparse.ArgumentParser(add_help=False)  # a file read at a stage
    staged.add_argument("file")
    staged.add_argument("--stage", type=int, default=0)

    p = sub.add_parser("validate", parents=[common, staged], help="check a semi-measure, functional, or test file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("worked-examples", parents=[common], help="recompute the frozen example table")
    p.set_defaults(handler=cmd_worked_examples)

    p = sub.add_parser("trim", parents=[common, staged], help="level-mass convergence table and derived measure")
    p.add_argument("--sigma", default=EPSILON)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(handler=cmd_trim)

    p = sub.add_parser("induce", parents=[common, staged], help="semi-measure induced by a functional")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(handler=cmd_induce)

    p = sub.add_parser("invert", parents=[common, staged], help="functional whose induced semi-measure matches a table")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(handler=cmd_invert)

    p = sub.add_parser("atom-decode", parents=[common], help="follow the unique heavy path of a presentation")
    p.add_argument("file")
    p.add_argument("--q", required=True, help="threshold as an m/2^n literal")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", default=EPSILON)
    p.add_argument("--budget", type=int, default=256, help="stage budget per bit")
    p.set_defaults(handler=cmd_atom_decode)

    p = sub.add_parser("mirror-pair", parents=[common], help="twin functionals from a dyadic approximation")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--stages", help="comma-separated m/2^n literals")
    given.add_argument("--stages-file", help="JSON list of m/2^n literals")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(handler=cmd_mirror_pair)

    p = sub.add_parser("eval", parents=[common, staged], help="run a functional on one input string")
    p.add_argument("--sigma", required=True)
    p.set_defaults(handler=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
        text = _render(payload, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc}") from None
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, BudgetExhaustedError) as exc:
        return report_failure(exc)


def report_failure(exc: ValueError | BudgetExhaustedError) -> int:
    """Write the one stderr line of an error that ends a run and return its
    exit code: 3 for an exhausted budget, 1 for a failed certificate, 4 for
    any other failed precondition, and 2 for a parse error or any other bad
    value."""
    if isinstance(exc, BudgetExhaustedError):
        label, code = "budget exhausted", 3
    elif isinstance(exc, CertificateError):
        label, code = "validation failed", 1
    elif isinstance(exc, PreconditionError):
        label, code = "precondition failed", 4
    else:
        label, code = "parse error", 2
    sys.stderr.write(f"{label}: {exc}\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
