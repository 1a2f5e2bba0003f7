"""JSON forms for every value the CLI reads or writes.

Parsing checks a document's JSON shape only.  Every value the library
constructs -- a count such as a component's tilt or depth, an infimum's
depth, a decay map, a tail rule's parameters -- is checked by the
constructor it feeds, with the same rule as an argument from Python, and
each ``*_from_json`` reads a ``ValueError`` raised there as a
:class:`~semimeasures.errors.ParseError` of the document.

All numbers travel as exact ``m/2^n`` text literals; binary strings are 0/1
text with the empty string for the root.  Component tables are row-major:
one list per level, lexicographic within the level.  Emission is
deterministic (sorted keys, fixed field order) so equal values serialize to
identical bytes, those of ``json.dumps(obj, indent=2, sort_keys=True)``.
Parsing reads each distinct literal text and tail rule of a document once,
and checks a functional's bit strings, a test's level members or a
``tails`` map's nodes in one pass; emission writes the text of each
distinct value of a table row once.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

from .dyadic import Dyadic, _text, parse_literal
from .errors import ParseError, PreconditionError, _index
from .functional import MonotoneFunctional
from .mltest import MLTest
from .semimeasure import (
    Component,
    LeftCeSemiMeasure,
    SemiMeasureStage,
    TableView,
    TailRule,
    infimum_semimeasure,
)
from .strings import all_bits, all_strings, check_all_bits, check_bits
from .trim import TrimResult


def dyadic_from_text(text: Any) -> Dyadic:
    return text if isinstance(text, Dyadic) else Dyadic(*parse_literal(text))


def _document(parse):
    """``parse`` with a ``ValueError`` from the library read as a
    ``ParseError``: a document that builds no value is malformed.  A
    ``PreconditionError`` is a caller's obligation, not a document error,
    and passes through."""

    @functools.wraps(parse)
    def read(obj: Any):
        try:
            return parse(obj)
        except (ParseError, PreconditionError):
            raise
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    return read


def tail_to_json(rule: TailRule) -> dict:
    kind = rule.kind
    if kind == "geometric":
        return {"kind": "geometric", "beta": str(rule.zero)}
    if kind == "split":
        return {"kind": "split", "zero": str(rule.zero), "one": str(rule.one)}
    return {"kind": kind}


@_document
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
            return TailRule.geometric(Dyadic(*parse_literal(obj["beta"])))
        except KeyError:
            raise ParseError("geometric tail needs a 'beta'") from None
    if kind == "split":
        try:
            return TailRule.split(Dyadic(*parse_literal(obj["zero"])), Dyadic(*parse_literal(obj["one"])))
        except KeyError:
            raise ParseError("split tail needs 'zero' and 'one'") from None
    raise ParseError(f"unknown tail kind {kind!r}")


def _row_texts(nums: list[int], e: int) -> list[str]:
    """The texts of one table row, each distinct value written once."""
    texts = {x: _text(x, e) for x in set(nums)}
    return list(map(texts.__getitem__, nums))


def component_to_json(comp: Component) -> dict:
    table = [_row_texts(nums, e) for nums, e in comp.table.rows]
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


def _rule(obj: Any, rules: dict) -> TailRule:
    """tail_from_json kept by raw fields: rules read only text, so equal fields read alike."""
    try:
        hit = rules.get(key := tuple(obj.items()))
    except (AttributeError, TypeError):  # not an object, or a field not hashable
        return tail_from_json(obj)
    return hit or rules.setdefault(key, tail_from_json(obj))


@_document
def component_from_json(obj: Any) -> Component:
    return _component(obj, {}, {})


def _component(obj: Any, literals: dict, rules: dict) -> Component:
    if not isinstance(obj, Mapping):
        raise ParseError("component must be an object")
    try:
        weight = Dyadic(*parse_literal(obj["weight"]))
        rows = obj["table"]
    except KeyError as exc:
        raise ParseError(f"component missing field {exc}") from None
    if not isinstance(rows, list) or not rows:
        raise ParseError("component table must be a non-empty list of rows")
    depth = _index(obj.get("depth", len(rows) - 1), "component 'depth'")
    if depth != len(rows) - 1:
        raise ParseError(f"component depth {depth} does not match {len(rows)} table rows")
    levels, read = [], literals.get
    for level, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 1 << level:
            raise ParseError(f"table row {level} must list {1 << level} values")
        try:
            lits = [read(t) or literals.setdefault(t, parse_literal(t)) for t in row]
        except TypeError:  # a value that is not hashable: read in order to name the first bad one
            lits = [parse_literal(t) for t in row]
        e = max(n for _m, n in lits)
        levels.append(([m << (e - n) for m, n in lits], e))
    table = TableView(levels)
    tail = tails = None
    if "tails" in obj:
        if not isinstance(obj["tails"], Mapping):
            raise ParseError("'tails' must map frontier nodes to rules")
        if all_bits(list(obj["tails"])):
            tails = {k: _rule(v, rules) for k, v in obj["tails"].items()}
        else:  # node by node, so a bad rule before the first bad node is still named first
            tails = {check_bits(str(k)): _rule(v, rules) for k, v in obj["tails"].items()}
    if "tail" in obj:
        tail = _rule(obj["tail"], rules)
    if tail is None and tails is None:
        raise ParseError("component needs a 'tail' or a 'tails' field")
    return Component.build(weight, table, tail=tail, tails=tails, tilt=obj.get("tilt", 0))


def stage_to_json(stage: SemiMeasureStage) -> dict:
    return {
        "strict": stage.strict,
        "components": [component_to_json(c) for c in stage.components],
    }


@_document
def stage_from_json(obj: Any) -> SemiMeasureStage:
    if not isinstance(obj, Mapping) or "components" not in obj:
        raise ParseError("semi-measure must be an object with 'components'")
    comps = obj["components"]
    if not isinstance(comps, list):
        raise ParseError("'components' must be a list")
    strict = obj.get("strict", True)
    if not isinstance(strict, bool):
        raise ParseError("'strict' must be a boolean")
    literals, rules = {}, {}  # one document's reads
    return SemiMeasureStage(tuple(_component(c, literals, rules) for c in comps), strict=strict)


@_document
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
        parsed = [[Dyadic(*parse_literal(v)) for v in row] for row in rows]
        return infimum_semimeasure(parsed, obj.get("depth", len(rows) - 1))
    raise ParseError(f"unknown staged kind {kind!r}")


def functional_to_json(phi: MonotoneFunctional) -> dict:
    if phi.last is None:
        raise ValueError("only finite functionals serialize")
    return {"stages": [[list(pair) for pair in sorted(phi.batch(t))] for t in range(phi.last + 1)]}


@_document
def functional_from_json(obj: Any) -> MonotoneFunctional:
    if isinstance(obj, Mapping) and obj.get("kind") == "identity":
        return MonotoneFunctional.identity()
    if not isinstance(obj, Mapping) or "stages" not in obj:
        raise ParseError("functional must be an object with 'stages'")
    stages = obj["stages"]
    if not isinstance(stages, list):
        raise ParseError("'stages' must be a list of pair lists")
    for t, pairs in enumerate(stages):
        if not isinstance(pairs, list):
            raise ParseError(f"stage {t} must be a list of [input, output] pairs")
        if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
            raise ParseError(f"stage {t}: each pair must be [input, output]")
    check_all_bits([x for pairs in stages for pair in pairs for x in pair])
    return MonotoneFunctional.from_batches({t: set(map(tuple, pairs)) for t, pairs in enumerate(stages)})


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


@_document
def test_from_json(obj: Any) -> MLTest:
    if not isinstance(obj, Mapping) or "levels" not in obj or "base" not in obj:
        raise ParseError("test must be an object with 'base' and 'levels'")
    rows = obj["levels"]
    if not isinstance(rows, list):
        raise ParseError("'levels' must be a list of string lists")
    # the members of the levels before the first that is not a list are
    # checked first, so the first error in level order is the one raised
    bad = next((i for i, row in enumerate(rows) if not isinstance(row, list)), len(rows))
    check_all_bits([s for row in rows[:bad] for s in row])
    if bad < len(rows):
        raise ParseError(f"level {bad} must be a list of strings")
    levels = dict(enumerate(map(tuple, rows)))
    base = stage_from_json(obj["base"])
    decay = None
    if obj.get("kind") == "generalized" or "decay" in obj:
        decay_obj = obj.get("decay", {})
        if not isinstance(decay_obj, Mapping):
            raise ParseError("'decay' must map accuracies to level indices")
        if not all(isinstance(k, str) and k.isascii() and k.isdigit() for k in decay_obj):  # [0-9]+
            raise ParseError("'decay' keys must be integers in ASCII digits")
        decay = {int(k): v for k, v in decay_obj.items()}
    return MLTest.build(levels, base, decay)


def trim_result_to_json(result: TrimResult) -> dict:
    return {"value": str(result.value), "depth": result.depth, "stabilized": result.stabilized}


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline."""
    return _emit(obj, "\n") + "\n"


def _emit(obj: Any, newline: str) -> str:
    """``obj`` as JSON indented after ``newline``.  With indent set, ``json.dumps``
    runs its pure-Python encoder; here lists of strings go through C quoting."""
    if isinstance(obj, str):
        return _quote(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):  # json.dumps converts or refuses other keys
            return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)
        body = [f"{_quote(k)}: {_emit(obj[k], inner)}" for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(body) + newline + "}" if body else "{}"
    if isinstance(obj, (list, tuple)):
        sep = "," + inner + "  "  # between the items of an inner list
        try:
            if all(isinstance(x, (list, tuple)) for x in obj):  # lists of strings: one join each
                body = ["[" + sep[1:] + sep.join(map(_quote, x)) + inner + "]" if x else "[]" for x in obj]
            else:
                body = list(map(_quote, obj))
        except TypeError:  # not all strings
            body = [_emit(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(body) + newline + "]" if body else "[]"
    return json.dumps(obj)

