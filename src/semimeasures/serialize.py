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

from .dyadic import Dyadic
from .errors import ParseError
from .functional import MonotoneFunctional
from .mltest import LevelStatus, MLTest
from .semimeasure import (
    Component,
    LeftCeSemiMeasure,
    SemiMeasureStage,
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
    if not isinstance(text, str):
        raise ParseError(f"dyadic literals must be strings, got {type(text).__name__}")
    return Dyadic.from_text(text)


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
    table = [
        [str(comp.table[s]) for s in all_strings(level)] for level in range(comp.depth + 1)
    ]
    rules = {node: comp.tails[node] for node in all_strings(comp.depth)}
    out: dict[str, Any] = {
        "weight": str(comp.weight),
        "depth": comp.depth,
        "table": table,
    }
    if len(set(map(str, rules.values()))) == 1:
        out["tail"] = tail_to_json(next(iter(rules.values())))
    else:
        out["tails"] = {node: tail_to_json(r) for node, r in sorted(rules.items())}
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
    if depth != len(rows) - 1:
        raise ParseError(f"component depth {depth} does not match {len(rows)} table rows")
    table: dict[str, Dyadic] = {}
    for level, row in enumerate(rows):
        nodes = list(all_strings(level))
        if not isinstance(row, list) or len(row) != len(nodes):
            raise ParseError(f"table row {level} must list {len(nodes)} values")
        for node, text in zip(nodes, row):
            table[node] = dyadic_from_text(text)
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
        parsed = [[dyadic_from_text(v) for v in row] for row in rows]
        depth = obj.get("depth", len(rows) - 1)
        if not _is_int(depth) or depth < 0:
            raise ParseError("'depth' must be a non-negative integer")
        return infimum_semimeasure(parsed, depth)
    raise ParseError(f"unknown staged kind {kind!r}")


def functional_to_json(phi: MonotoneFunctional) -> dict:
    if phi.events is None:
        raise ValueError("only event-backed functionals serialize")
    last = max((t for t, _i, _o in phi.events), default=0)
    stages: list[list[list[str]]] = [[] for _ in range(last + 1)]
    for t, i, o in sorted(phi.events):
        stages[t].append([i, o])
    return {"stages": stages}


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
            events.append((t, check_bits(pair[0]), check_bits(pair[1])))
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
