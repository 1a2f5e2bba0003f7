"""JSON forms for every value the CLI reads or writes.

All numbers travel as exact ``m/2^n`` text literals; binary strings are 0/1
text with the empty string for the root.  Component tables are row-major:
one list per level, lexicographic within the level.  Emission is
deterministic (sorted keys, fixed field order) so equal values serialize to
identical bytes.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .dyadic import Dyadic, parse_literal
from .errors import ParseError
from .functional import MonotoneFunctional
from .mltest import LevelStatus, MLTest
from .semimeasure import (
    Component,
    LeftCeSemiMeasure,
    SemiMeasureStage,
    TableView,
    TailRule,
    infimum_semimeasure,
)
from .strings import all_strings, check_bits
from .trim import TrimResult


def dyadic_to_text(d: Dyadic) -> str:
    return str(d)


def dyadic_from_text(text: Any) -> Dyadic:
    if isinstance(text, Dyadic):
        return text
    return Dyadic(*_literal_ints(text))


def _literal_ints(text: Any) -> tuple[int, int]:
    """``(m, n)`` of a literal ``m/2^n``, or of a Dyadic."""
    if isinstance(text, Dyadic):
        return text.numerator, text.exponent
    if not isinstance(text, str):
        raise ParseError(f"dyadic literals must be strings, got {type(text).__name__}")
    return parse_literal(text)


def _is_int(value: Any) -> bool:
    """JSON integers only: booleans, floats and numeric strings are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def tail_to_json(rule: TailRule) -> dict:
    kind = rule.kind
    if kind == "geometric":
        return {"kind": "geometric", "beta": str(rule.zero)}
    if kind == "split":
        return {"kind": "split", "zero": str(rule.zero), "one": str(rule.one)}
    return {"kind": kind}


def tail_from_json(obj: Any) -> TailRule:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ParseError("tail rule must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "vanish":
        return TailRule.vanish()
    if kind == "uniform":
        return TailRule.uniform()
    if kind == "geometric":
        try:
            return TailRule.geometric(dyadic_from_text(obj["beta"]))
        except KeyError:
            raise ParseError("geometric tail needs a 'beta'") from None
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    if kind == "split":
        try:
            return TailRule.split(dyadic_from_text(obj["zero"]), dyadic_from_text(obj["one"]))
        except KeyError:
            raise ParseError("split tail needs 'zero' and 'one'") from None
    raise ParseError(f"unknown tail kind {kind!r}")


def component_to_json(comp: Component) -> dict:
    table = [[str(Dyadic(x, e)) for x in nums] for nums, e in comp.table.rows]
    rules = comp.tails.rules  # interned: one rule per distinct value
    out: dict[str, Any] = {
        "weight": str(comp.weight),
        "depth": comp.depth,
        "table": table,
    }
    if len(rules) == 1:
        out["tail"] = tail_to_json(rules[0])
    else:
        texts = [tail_to_json(r) for r in rules]
        out["tails"] = {node: dict(texts[i]) for node, i in zip(all_strings(comp.depth), comp.tails.index)}
    if comp.tilt:
        out["tilt"] = comp.tilt
    return out


def component_from_json(obj: Any) -> Component:
    if not isinstance(obj, Mapping):
        raise ParseError("component must be an object")
    try:
        weight = dyadic_from_text(obj["weight"])
        rows = obj["table"]
    except KeyError as exc:
        raise ParseError(f"component missing field {exc}") from None
    if not isinstance(rows, list) or not rows:
        raise ParseError("component table must be a non-empty list of rows")
    depth = obj.get("depth", len(rows) - 1)
    if not _is_int(depth):
        raise ParseError("component 'depth' must be an integer")
    if depth != len(rows) - 1:
        raise ParseError(f"component depth {depth} does not match {len(rows)} table rows")
    levels = []
    for level, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 1 << level:
            raise ParseError(f"table row {level} must list {1 << level} values")
        literals = [_literal_ints(text) for text in row]
        e = max(n for _m, n in literals)
        levels.append(([m << (e - n) for m, n in literals], e))
    table = TableView(levels)
    tails = None
    tail = None
    if "tails" in obj:
        if not isinstance(obj["tails"], Mapping):
            raise ParseError("'tails' must map frontier nodes to rules")
        tails = {check_bits(str(k)): tail_from_json(v) for k, v in obj["tails"].items()}
    if "tail" in obj:
        tail = tail_from_json(obj["tail"])
    if tail is None and tails is None:
        raise ParseError("component needs a 'tail' or a 'tails' field")
    tilt = obj.get("tilt", 0)
    if not _is_int(tilt) or tilt < 0:
        raise ParseError("'tilt' must be a non-negative integer")
    try:
        return Component.build(weight, table, tail=tail, tails=tails, tilt=tilt)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def stage_to_json(stage: SemiMeasureStage) -> dict:
    return {
        "strict": stage.strict,
        "components": [component_to_json(c) for c in stage.components],
    }


def stage_from_json(obj: Any) -> SemiMeasureStage:
    if not isinstance(obj, Mapping) or "components" not in obj:
        raise ParseError("semi-measure must be an object with 'components'")
    comps = obj["components"]
    if not isinstance(comps, list):
        raise ParseError("'components' must be a list")
    strict = obj.get("strict", True)
    if not isinstance(strict, bool):
        raise ParseError("'strict' must be a boolean")
    return SemiMeasureStage(tuple(component_from_json(c) for c in comps), strict=strict)


def staged_from_json(obj: Any) -> LeftCeSemiMeasure:
    """Stage-generator descriptors; a bare presentation means constant."""
    if isinstance(obj, Mapping) and "components" in obj:
        return LeftCeSemiMeasure.constant(stage_from_json(obj))
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise ParseError("staged semi-measure must be a descriptor or a presentation")
    kind = obj["kind"]
    if kind == "constant":
        try:
            return LeftCeSemiMeasure.constant(stage_from_json(obj["stage"]))
        except KeyError:
            raise ParseError("constant descriptor needs a 'stage'") from None
    if kind == "infimum":
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise ParseError("infimum descriptor needs non-empty 'rows'")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not row:
                raise ParseError(f"infimum row {i} must be a non-empty list of dyadic literals")
        parsed = [[dyadic_from_text(v) for v in row] for row in rows]
        depth = obj.get("depth", len(rows) - 1)
        if not _is_int(depth) or depth < 0:
            raise ParseError("'depth' must be a non-negative integer")
        return infimum_semimeasure(parsed, depth)
    raise ParseError(f"unknown staged kind {kind!r}")


def functional_to_json(phi: MonotoneFunctional) -> dict:
    if phi.last is None:
        raise ValueError("only finite functionals serialize")
    return {"stages": [[list(pair) for pair in sorted(phi.batch(t))] for t in range(phi.last + 1)]}


def functional_from_json(obj: Any) -> MonotoneFunctional:
    if isinstance(obj, Mapping) and obj.get("kind") == "identity":
        return MonotoneFunctional.identity()
    if not isinstance(obj, Mapping) or "stages" not in obj:
        raise ParseError("functional must be an object with 'stages'")
    stages = obj["stages"]
    if not isinstance(stages, list):
        raise ParseError("'stages' must be a list of pair lists")
    events = []
    for t, pairs in enumerate(stages):
        if not isinstance(pairs, list):
            raise ParseError(f"stage {t} must be a list of [input, output] pairs")
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"stage {t}: each pair must be [input, output]")
            events.append((t, *pair))
    return MonotoneFunctional.from_events(events)


def test_to_json(test: MLTest) -> dict:
    top = max(test.levels, default=-1)
    levels = [list(test.levels.get(i, ())) for i in range(top + 1)]
    out: dict[str, Any] = {
        "kind": "ml" if test.decay is None else "generalized",
        "base": stage_to_json(test.base),
        "levels": levels,
    }
    if test.decay is not None:
        out["decay"] = {str(k): v for k, v in sorted(test.decay.items())}
    return out


def test_from_json(obj: Any) -> MLTest:
    if not isinstance(obj, Mapping) or "levels" not in obj or "base" not in obj:
        raise ParseError("test must be an object with 'base' and 'levels'")
    rows = obj["levels"]
    if not isinstance(rows, list):
        raise ParseError("'levels' must be a list of string lists")
    levels = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError(f"level {i} must be a list of strings")
        levels[i] = tuple(check_bits(s) for s in row)
    base = stage_from_json(obj["base"])
    decay = None
    if obj.get("kind") == "generalized" or "decay" in obj:
        decay_obj = obj.get("decay", {})
        if not isinstance(decay_obj, Mapping):
            raise ParseError("'decay' must map accuracies to level indices")
        if not all(_is_int(v) for v in decay_obj.values()):
            raise ParseError("'decay' values must be integers")
        try:
            decay = {int(k): v for k, v in decay_obj.items()}
        except (TypeError, ValueError):
            raise ParseError("'decay' keys must be integers") from None
    return MLTest.build(levels, base, decay)


def trim_result_to_json(result: TrimResult) -> dict:
    return {"value": str(result.value), "depth": result.depth, "stabilized": result.stabilized}


def level_statuses_to_json(statuses: tuple[LevelStatus, ...]) -> list[dict]:
    return [
        {"level": st.level, "status": st.status, "mass": str(st.mass)} for st in statuses
    ]


def dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
