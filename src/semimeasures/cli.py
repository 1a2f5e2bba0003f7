"""Command-line front end.

One subcommand per construction; all numeric output is exact ``m/2^n`` text.
Identical inputs and flags produce byte-identical output.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 budget
exhausted, 4 precondition or certificate failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Any

from .dyadic import Dyadic
from .errors import BudgetExhaustedError, CertificateError, ParseError, PreconditionError
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
    validate,
)
from .serialize import (
    dumps,
    dyadic_from_text,
    functional_from_json,
    functional_to_json,
    stage_from_json,
    stage_to_json,
    staged_from_json,
    test_from_json,
    trim_result_to_json,
)
from .strings import EPSILON, check_bits, strings_up_to
from .trim import decode_atom, derived_measure, lebesgue_like_check, partial_trim

GRANULARITY_ENV = "SEMIMEASURES_GRANULARITY_CAP"


def _load_json(path: str) -> Any:
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
    elif isinstance(obj, list):
        for idx, item in enumerate(obj):
            _flatten(f"{prefix}[{idx}]", item, rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _render(payload: Any, fmt: str) -> str:
    """JSON as-is; CSV as a table when the payload carries one, else key,value."""
    if fmt == "json":
        return dumps(payload)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(payload, dict) and "rows" in payload and "header" in payload:
        writer.writerow(payload["header"])
        writer.writerows(payload["rows"])
    else:
        writer.writerow(["key", "value"])
        rows: list[tuple[str, str]] = []
        _flatten("", payload, rows)
        writer.writerows(rows)
    return out.getvalue()


def _emit(payload: Any, args: argparse.Namespace) -> None:
    text = _render(payload, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _granularity_cap() -> int:
    raw = os.environ.get(GRANULARITY_ENV)
    if raw is None:
        return 16
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"{GRANULARITY_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ParseError(f"{GRANULARITY_ENV} must be non-negative")
    return cap


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    obj = _load_json(args.file)
    if isinstance(obj, dict) and ("components" in obj or obj.get("kind") in ("constant", "infimum")):
        stage = staged_from_json(obj).stage_at(args.stage)
        report = validate(stage)
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
        _emit(payload, args)
        return 0 if report.ok else 1
    if isinstance(obj, dict) and ("stages" in obj or obj.get("kind") == "identity"):
        phi = functional_from_json(obj)
        last = max((t for t, _i, _o in phi.events), default=0) if phi.events else args.stage
        report = consistency_check(phi, last)
        payload = {
            "kind": "functional",
            "ok": report.ok,
            "stage": last,
            "conflict": None if report.ok else [list(report.pair_a), list(report.pair_b)],
        }
        _emit(payload, args)
        return 0 if report.ok else 1
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
        _emit(payload, args)
        return 0 if violation is None else 1
    raise ParseError(f"{args.file}: not a semi-measure, functional, or test")


def _mirror_gap(phi: MonotoneFunctional, psi: MonotoneFunctional, stages: int, depth: int) -> Dyadic:
    """Largest difference of the two induced semi-measures over the first
    ``stages`` stages and every node of length <= depth."""
    worst = Dyadic(0)
    for s in range(stages):
        left = induced_semimeasure(phi, s, depth)
        right = induced_semimeasure(psi, s, depth)
        for node in strings_up_to(depth):
            a, b = left.value(node), right.value(node)
            gap = a - b if b < a else b - a
            if worst < gap:
                worst = gap
    return worst


def _worked_rows() -> list[tuple[str, str, str, str]]:
    rows: list[tuple[str, str, str, str]] = []

    def add(name: str, expected: str, computed: str) -> None:
        rows.append((name, expected, computed, "true" if expected == computed else "false"))

    # Geometric decay whose mass all leaks away: the trim vanishes.
    leaky = geometric_semimeasure(Dyadic(1, 2))
    add("vanishing-trim", "0/2^0", str(derived_measure(leaky, EPSILON).value))

    # Half fair coin plus half leaky: trim is half the uniform measure.
    blended = stage_from_json(
        {
            "components": [
                {"weight": "1/2^1", "table": [["1"]], "tail": {"kind": "uniform"}},
                {"weight": "1/2^1", "table": [["1"]], "tail": {"kind": "geometric", "beta": "1/2^2"}},
            ]
        }
    )
    alpha = lebesgue_like_check(blended, 4).alpha
    add("half-uniform-trim", "1/2^1", "none" if alpha is None else str(alpha))

    # Completing the 4^-n table pushes surplus down into the fair coin.
    completed = complete_to_measure(geometric_semimeasure(Dyadic(1, 2), depth=2), depth=4)
    add(
        "geometric-quarter-completion",
        "1/2^4",
        str(completed.value("1111")),
    )

    # Prefixing a functional with an identity branch averages in the coin.
    padded = pad_with_identity(MonotoneFunctional.constant([("0", "0")]))
    add("identity-pad", "1/2^1", str(induced_semimeasure(padded, 2, 1).value("0")))

    # Twin functionals from one approximation agree at every stage.
    approx = [dyadic_from_text(t) for t in ["0", "1/2^2", "1/2^1", "1/2^1", "5/2^3", "11/2^4", "3/2^2"]]
    phi, psi = mirror_pair(approx)
    add("mirror-pair-depth-6", "0/2^0", str(_mirror_gap(phi, psi, len(approx), 6)))
    return rows


def cmd_worked_examples(args: argparse.Namespace) -> int:
    rows = _worked_rows()
    payload = {
        "header": ["construction", "expected", "computed", "match"],
        "rows": [list(r) for r in rows],
    }
    _emit(payload, args)
    return 0 if all(r[3] == "true" for r in rows) else 1


def cmd_trim(args: argparse.Namespace) -> int:
    stage = staged_from_json(_load_json(args.file)).stage_at(args.stage)
    sigma = check_bits(args.sigma)
    if args.depth < len(sigma):
        raise ParseError("--depth must be at least the length of --sigma")
    table = [[n, str(partial_trim(stage, sigma, n))] for n in range(len(sigma), args.depth + 1)]
    result = derived_measure(stage, sigma, probe_depth=args.depth)
    payload = {
        "sigma": sigma,
        "header": ["depth", "value"],
        "rows": table,
        "derived": trim_result_to_json(result),
    }
    _emit(payload, args)
    return 0


def cmd_induce(args: argparse.Namespace) -> int:
    phi = functional_from_json(_load_json(args.file))
    stage = induced_semimeasure(phi, args.stage, args.depth)
    _emit(stage_to_json(stage), args)
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    rho = staged_from_json(_load_json(args.file))
    phi = from_semimeasure(rho, args.stage, args.depth, granularity_cap=_granularity_cap())
    _emit(functional_to_json(phi), args)
    return 0


def cmd_atom_decode(args: argparse.Namespace) -> int:
    rho = staged_from_json(_load_json(args.file))
    q = dyadic_from_text(args.q)
    seed = check_bits(args.seed)
    decoded = decode_atom(rho, q, seed, args.bits, max_stage=args.budget)
    payload = {"seed": seed, "q": str(q), "bits": decoded}
    _emit(payload, args)
    return 0


def cmd_mirror_pair(args: argparse.Namespace) -> int:
    if args.stages_file:
        raw = _load_json(args.stages_file)
        if not isinstance(raw, list):
            raise ParseError(f"{args.stages_file}: expected a JSON list of dyadic literals")
        texts = [str(v) for v in raw]
    else:
        texts = [t.strip() for t in args.stages.split(",") if t.strip()]
    if not texts:
        raise ParseError("no approximation stages given")
    approx = [dyadic_from_text(t) for t in texts]
    phi, psi = mirror_pair(approx)
    last = len(approx) - 1
    depth = args.depth if args.depth is not None else min(last, 8)
    agree = _mirror_gap(phi, psi, len(approx), depth).is_zero
    final = induced_semimeasure(phi, last, depth)
    payload = {
        "first": functional_to_json(phi),
        "second": functional_to_json(psi),
        "depth": depth,
        "stages": len(approx),
        "induced_agree": agree,
        "spine_values": [str(final.value("0" * k)) for k in range(depth + 1)],
    }
    _emit(payload, args)
    return 0 if agree else 1


def cmd_eval(args: argparse.Namespace) -> int:
    phi = functional_from_json(_load_json(args.file))
    try:
        output = eval_on_string(phi, args.sigma, args.stage)
    except CertificateError as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        return 1
    payload = {"input": check_bits(args.sigma), "stage": args.stage, "output": output}
    _emit(payload, args)
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimeasures",
        description="Exact computations on dyadic semi-measure presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("validate", help="check a semi-measure, functional, or test file")
    p.add_argument("file")
    p.add_argument("--stage", type=int, default=0)
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("worked-examples", help="recompute the frozen example table")
    common(p)
    p.set_defaults(handler=cmd_worked_examples)

    p = sub.add_parser("trim", help="level-mass convergence table and derived measure")
    p.add_argument("file")
    p.add_argument("--sigma", default=EPSILON)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--stage", type=int, default=0)
    common(p)
    p.set_defaults(handler=cmd_trim)

    p = sub.add_parser("induce", help="semi-measure induced by a functional")
    p.add_argument("file")
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--depth", type=int, default=4)
    common(p)
    p.set_defaults(handler=cmd_induce)

    p = sub.add_parser("invert", help="functional whose induced semi-measure matches a table")
    p.add_argument("file")
    p.add_argument("--stage", type=int, default=0)
    p.add_argument("--depth", type=int, default=4)
    common(p)
    p.set_defaults(handler=cmd_invert)

    p = sub.add_parser("atom-decode", help="follow the unique heavy path of a presentation")
    p.add_argument("file")
    p.add_argument("--q", required=True, help="threshold as an m/2^n literal")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--seed", default=EPSILON)
    p.add_argument("--budget", type=int, default=256, help="stage budget per bit")
    common(p)
    p.set_defaults(handler=cmd_atom_decode)

    p = sub.add_parser("mirror-pair", help="twin functionals from a dyadic approximation")
    p.add_argument("--stages", default=None, help="comma-separated m/2^n literals")
    p.add_argument("--stages-file", default=None, help="JSON list of m/2^n literals")
    p.add_argument("--depth", type=int, default=None)
    common(p)
    p.set_defaults(handler=cmd_mirror_pair)

    p = sub.add_parser("eval", help="run a functional on one input string")
    p.add_argument("file")
    p.add_argument("--sigma", required=True)
    p.add_argument("--stage", type=int, default=0)
    common(p)
    p.set_defaults(handler=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "mirror-pair" and not (args.stages or args.stages_file):
        sys.stderr.write("mirror-pair needs --stages or --stages-file\n")
        return 2
    try:
        return args.handler(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except BudgetExhaustedError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 3
    except PreconditionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
