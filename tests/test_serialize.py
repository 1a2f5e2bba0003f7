"""JSON forms: round trips, rejection of malformed input, byte determinism."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    QUARTER,
    random_bits,
    random_stage,
    random_tail,
    reference_component_from_json,
    reference_from_infimum_sequence,
    reference_functional_from_json,
    reference_test_levels_from_json,
)
from semimeasures import (
    HALF,
    ONE,
    ZERO,
    Component,
    Dyadic,
    GeneralizedTest,
    MLTest,
    MonotoneFunctional,
    ParseError,
    TailRule,
    TrimResult,
    all_strings,
    component_from_json,
    component_to_json,
    derived_measure,
    dumps,
    dyadic_from_text,
    from_infimum_sequence,
    functional_from_json,
    functional_to_json,
    pad_with_identity,
    stage_from_json,
    stage_to_json,
    staged_from_json,
    strings_up_to,
    tail_from_json,
    tail_to_json,
    test_from_json as mltest_from_json,
    test_to_json as mltest_to_json,
    tilt_by_ones,
    trim_result_to_json,
    uniform_measure,
    universal_functional,
)
from semimeasures.semimeasure import TableView
from semimeasures.serialize import _text


# ---------------------------------------------------------------------------
# Scalars and tails
# ---------------------------------------------------------------------------


class TestDyadicText:
    def test_round_trip(self):
        for d in (ZERO, ONE, HALF, Dyadic(13, 6)):
            assert dyadic_from_text(str(d)) == d

    def test_existing_dyadics_pass_through(self):
        assert dyadic_from_text(HALF) == HALF

    @pytest.mark.parametrize("bad", ["1/3", "0.5", "", 7, None, ["1/2^1"]])
    def test_malformed_literals_rejected(self, bad):
        with pytest.raises(ParseError):
            dyadic_from_text(bad)


class TestTailJson:
    @pytest.mark.parametrize(
        "rule",
        [
            TailRule.vanish(),
            TailRule.uniform(),
            TailRule.geometric(Dyadic(1, 3)),
            TailRule.split(Dyadic(1, 3), HALF),
        ],
    )
    def test_round_trip(self, rule):
        again = tail_from_json(tail_to_json(rule))
        assert again.zero == rule.zero
        assert again.one == rule.one

    def test_kind_tags(self):
        assert tail_to_json(TailRule.vanish()) == {"kind": "vanish"}
        assert tail_to_json(TailRule.uniform()) == {"kind": "uniform"}
        assert tail_to_json(TailRule.geometric(QUARTER))["beta"] == "1/2^2"

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "spiral"},
            {"kind": "geometric"},
            {"kind": "geometric", "beta": "1/3"},
            {"kind": "geometric", "beta": "1/2^0"},
            {"kind": "split", "zero": "1/2^0"},
            {"kind": "split", "zero": "1/3", "one": "1/2^1"},
            {},
            "uniform",
        ],
    )
    def test_malformed_tails_rejected(self, bad):
        with pytest.raises(ParseError):
            tail_from_json(bad)


# ---------------------------------------------------------------------------
# Components and stages
# ---------------------------------------------------------------------------


class TestComponentJson:
    def test_uniform_tail_collapses_to_one_field(self):
        comp = uniform_measure(2).components[0]
        obj = component_to_json(comp)
        assert obj["tail"] == {"kind": "uniform"}
        assert "tails" not in obj
        assert obj["table"] == [["1/2^0"], ["1/2^1", "1/2^1"], ["1/2^2"] * 4]

    def test_mixed_tails_are_listed_per_node(self):
        from semimeasures import Component

        comp = Component.build(
            ONE,
            {"": ONE, "0": HALF, "1": HALF},
            tails={"0": TailRule.uniform(), "1": TailRule.vanish()},
        )
        obj = component_to_json(comp)
        assert "tail" not in obj
        assert obj["tails"] == {"0": {"kind": "uniform"}, "1": {"kind": "vanish"}}

    def test_equal_rules_built_apart_collapse_to_one_field(self):
        from semimeasures import Component

        uniform, split = TailRule.uniform(), TailRule.split(Dyadic(2, 2), HALF)
        assert uniform is not split
        comp = Component.build(ONE, {"": ONE, "0": HALF, "1": HALF}, tails={"0": uniform, "1": split})
        assert component_to_json(comp)["tail"] == {"kind": "uniform"}

    @given(st.integers(0, 2**32 - 1))
    def test_one_field_exactly_when_the_rule_texts_agree(self, seed):
        rng = random.Random(seed)
        comp = random_stage(rng, depth=rng.randint(0, 2)).components[0]
        obj = component_to_json(comp)
        assert ("tail" in obj) == (len({str(r) for r in comp.tails.values()}) == 1)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 3, 12]), st.integers(0, 2))
    def test_table_texts_are_the_per_entry_literals(self, seed, depth, tilt):
        """Rows of zeros, of a few repeated values or of spread values, up to
        depth 12 (rows of 4,096 entries), tilted or not: each entry's text is
        the literal of its own Dyadic."""
        rng = random.Random(seed)
        pool = [rng.randrange(1 << 20) for _ in range(rng.randint(1, 4))]
        rows = []
        for n in range(depth + 1):
            values = rng.choice([[0], pool, range(1 << 21)])  # all zero, a few repeated, or spread
            rows.append(([rng.choice(values) for _ in range(1 << n)], rng.randint(0, 24)))
        comp = Component.build(Dyadic(rng.randint(1, 4), 2), TableView(rows), tail=random_tail(rng), tilt=tilt)
        assert component_to_json(comp)["table"] == [[str(Dyadic(x, e)) for x in nums] for nums, e in rows]

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_preserves_values(self, seed):
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2, tilt_allowed=True)
        for comp in stage.components:
            again = component_from_json(component_to_json(comp))
            assert again.table == comp.table
            assert again.tilt == comp.tilt
            assert again.weight == comp.weight
            for node in comp.tails:
                assert again.tails[node].zero == comp.tails[node].zero
                assert again.tails[node].one == comp.tails[node].one

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda o: o.update(depth=3),
            lambda o: o.update(table=[["1/2^0"], ["1/2^1"]]),
            lambda o: o.update(table=[["1/3"], ["1/2^1", "1/2^1"]]),
            lambda o: o.pop("tail"),
            lambda o: o.update(tilt=-1),
            lambda o: o.update(weight="1/3"),
        ],
    )
    def test_malformed_components_rejected(self, mutation):
        obj = component_to_json(uniform_measure(1).components[0])
        mutation(obj)
        with pytest.raises(ParseError):
            component_from_json(obj)


class TestStageJson:
    def test_round_trip_preserves_strict_flag(self):
        stage = uniform_measure(1).scaled(HALF)
        again = stage_from_json(stage_to_json(stage))
        assert not again.strict
        for s in strings_up_to(3):
            assert again.value(s) == stage.value(s)

    def test_tilt_survives(self):
        stage = tilt_by_ones(uniform_measure(1))
        again = stage_from_json(stage_to_json(stage))
        assert again.value("11") == stage.value("11")

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"components": "nope"},
            {"components": [], "strict": "yes"},
            [],
        ],
    )
    def test_malformed_stages_rejected(self, bad):
        with pytest.raises(ParseError):
            stage_from_json(bad)


class TestStagedJson:
    def test_bare_presentation_means_constant(self):
        rho = staged_from_json(stage_to_json(uniform_measure(1)))
        assert rho.value("0", 0) == rho.value("0", 7) == HALF

    def test_constant_descriptor(self):
        obj = {"kind": "constant", "stage": stage_to_json(uniform_measure(1))}
        assert staged_from_json(obj).value("1", 3) == HALF

    def test_infimum_descriptor(self):
        obj = {
            "kind": "infimum",
            "rows": [["1/2^0"], ["1/2^1", "1/2^0"]],
            "depth": 2,
        }
        rho = staged_from_json(obj)
        assert rho.value("0", 0) == Dyadic(1, 2)
        assert rho.value("0", 1) == HALF

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "mystery"},
            {"kind": "constant"},
            {"kind": "infimum", "rows": []},
            {"kind": "infimum", "rows": [["1/2^0"]], "depth": -1},
            {"rows": [["1/2^0"]]},
            "uniform",
        ],
    )
    def test_malformed_descriptors_rejected(self, bad):
        with pytest.raises(ParseError):
            staged_from_json(bad)


# ---------------------------------------------------------------------------
# Functionals and tests
# ---------------------------------------------------------------------------


class TestFunctionalJson:
    def test_events_round_trip(self):
        phi = MonotoneFunctional.from_events(
            ((0, "0", "0"), (2, "01", "00"), (2, "1", ""))
        )
        again = functional_from_json(functional_to_json(phi))
        assert again.events == phi.events

    def test_stage_lists_are_positional(self):
        phi = MonotoneFunctional.from_events(((1, "0", "0"),))
        assert functional_to_json(phi) == {"stages": [[], [["0", "0"]]]}

    def test_identity_descriptor(self):
        ident = functional_from_json({"kind": "identity"})
        assert ("01", "01") in ident.pairs_at(2)

    def test_only_event_backed_functionals_serialize(self):
        with pytest.raises(ValueError):
            functional_to_json(MonotoneFunctional.identity())
        with pytest.raises(ValueError):
            functional_to_json(pad_with_identity(MonotoneFunctional.constant([("0", "0")])))

    def test_universal_functional_of_constants_round_trips(self):
        phi = universal_functional(
            [MonotoneFunctional.constant([("0", "1"), ("1", "")]), MonotoneFunctional.from_events([(2, "", "0")])]
        )
        doc = functional_to_json(phi)
        assert doc == {"stages": [[["00", "1"], ["01", ""]], [], [["10", "0"]]]}
        again = functional_from_json(doc)
        assert again.events == phi.events
        assert again.pairs_at(2) == phi.pairs_at(2)

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"stages": "nope"},
            {"stages": [["01"]]},
            {"stages": [[["0", "2"]]]},
        ],
    )
    def test_malformed_functionals_rejected(self, bad):
        with pytest.raises(ParseError):
            functional_from_json(bad)


class TestTestJson:
    def test_ml_round_trip(self):
        test = MLTest.build({0: [], 1: ["0"], 2: ["01", "00"]}, uniform_measure())
        again = mltest_from_json(mltest_to_json(test))
        assert isinstance(again, MLTest)
        assert again.levels == test.levels

    def test_generalized_round_trip(self):
        test = GeneralizedTest.build(
            {0: ["0", "1"], 1: ["00"]}, uniform_measure(), decay={1: 1, 3: 1}
        )
        again = mltest_from_json(mltest_to_json(test))
        assert isinstance(again, GeneralizedTest)
        assert again.decay == {1: 1, 3: 1}
        assert again.levels == test.levels

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"base": None, "levels": "nope"},
            {"base": {"components": []}, "levels": [["2"]]},
            {"base": {"components": []}, "levels": [[]], "decay": {"a": "b"}},
        ],
    )
    def test_malformed_tests_rejected(self, bad):
        with pytest.raises(ParseError):
            mltest_from_json(bad)


# ---------------------------------------------------------------------------
# Reports and byte determinism
# ---------------------------------------------------------------------------


class TestReports:
    def test_trim_result_fields(self):
        result = TrimResult(value=HALF, depth=4, stabilized=True)
        assert trim_result_to_json(result) == {
            "value": "1/2^1",
            "depth": 4,
            "stabilized": True,
        }


class TestDumps:
    def test_keys_are_sorted_and_newline_terminated(self):
        text = dumps({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_equal_values_serialize_identically(self):
        derived = derived_measure(uniform_measure(), "")
        a = dumps(trim_result_to_json(derived))
        b = dumps(trim_result_to_json(derived_measure(uniform_measure(), "")))
        assert a == b

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_is_byte_stable(self, seed):
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2, tilt_allowed=True)
        first = dumps(stage_to_json(stage))
        again = stage_from_json(stage_to_json(stage))
        assert dumps(stage_to_json(again)) == first


# -- emission: the indented-JSON emitter and the row text --------------------

texts = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f é漢😀') | st.characters(), max_size=6)
key_types = (texts, st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda kids: st.lists(kids, max_size=4)
    | st.one_of(*(st.dictionaries(k, kids, max_size=4) for k in key_types)),  # one key type per object
    max_leaves=24,
)

scalars = st.none() | st.booleans() | st.integers() | texts
inner_lists = st.lists(texts, max_size=3) | st.tuples(texts, texts) | st.lists(scalars, max_size=3)


class TestEmitter:
    @given(json_values)
    def test_bytes_of_the_stdlib_encoder(self, value):
        assert dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @given(st.lists(inner_lists | st.dictionaries(texts, scalars, max_size=2) | scalars, max_size=5))
    def test_lists_of_lists(self, value):
        """Lists of string lists take one join per inner list; lists of other
        lists, and lists that also hold dicts or scalars, fall back."""
        for obj in (value, [v for v in value if isinstance(v, (list, tuple))], {"k": value}):
            assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "value",
        [[], {}, [[]], {"a": {}}, [{}, []], ["a", 1], [1, "a"], ['"\\\x01é'], {"": [None, True]}]
        + [["ab", ["c"]], [("a", "b"), [], ["c"]], [["a"], {"b": "c"}], [["a"], ["b", 1]]]  # lists of lists
        + [{1: "a", 2.5: "b"}, {True: 1, False: 2}, {None: []}, [{-3: {0: "x"}}]],  # keys json converts
    )
    def test_empty_containers_and_mixed_lists(self, value):
        assert dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [{(1, 2): "a"}, {1: "a", "b": 2}, [{None: 1, 0: 2}]])
    def test_keys_the_stdlib_refuses_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps(value)

    @given(st.integers(0, 2**70), st.integers(0, 70))
    def test_row_text_is_the_canonical_literal(self, x, e):
        d = Dyadic(x, e)
        assert _text(x, e) == str(d) == f"{d.numerator}/2^{d.exponent}"

    @pytest.mark.parametrize("x, e", [(0, 0), (0, 5), (6, 0), (1, 0), (8, 3), (12, 3), (16, 3), (5, 2)])
    def test_row_text_edges(self, x, e):
        d = Dyadic(x, e)
        assert _text(x, e) == str(d) == f"{d.numerator}/2^{d.exponent}"


# -- parsing: each distinct literal and rule read once, same objects ---------


def outcome(parse, doc):
    """The parsed value, or the ParseError message it raised."""
    try:
        return parse(doc)
    except ParseError as exc:
        return ("ParseError", str(exc))


def reference_stage(doc):
    return tuple(reference_component_from_json(c) for c in doc["components"])


def new_stage(doc):
    return stage_from_json(doc).components


def respelled(rng: random.Random, text: str) -> str:
    """An equal literal in another spelling: shifted, bare, or padded."""
    m, _, n = text.partition("/2^")
    m, n = int(m), int(n or 0)
    k = rng.choice([0, 0, 1, 3])
    spelled = f"{m << k}/2^{n + k}" if n + k or rng.random() < 0.5 else str(m)
    return rng.choice(["", " "]) + spelled + rng.choice(["", " "])


def rule_variant(rng: random.Random, rule: dict) -> dict:
    """The same rule with its fields in another order, maybe an extra one."""
    items = list(rule.items())
    rng.shuffle(items)
    if rng.random() < 0.3:
        items.append(("note", "ignored"))
    return dict(items)


def random_stage_doc(rng: random.Random) -> dict:
    """A stage document with per-node tails maps, tilts, and repeated and
    respelled literals."""
    doc = stage_to_json(random_stage(rng, depth=rng.randint(0, 3), tilt_allowed=True))
    for comp in doc["components"]:
        comp["table"] = [[respelled(rng, t) if rng.random() < 0.3 else t for t in row] for row in comp["table"]]
        if "tail" in comp and rng.random() < 0.5:
            rule = comp.pop("tail")
            comp["tails"] = {node: dict(rule) for node in all_strings(comp["depth"])}
        if "tails" in comp:
            comp["tails"] = {node: rule_variant(rng, r) for node, r in comp["tails"].items()}
    return doc


class TestParseEquivalence:
    @given(st.integers(0, 2**32 - 1))
    def test_components_equal_the_reference(self, seed):
        doc = random_stage_doc(random.Random(seed))
        assert new_stage(doc) == reference_stage(doc)
        for comp in doc["components"]:
            assert component_from_json(comp) == reference_component_from_json(comp)

    @given(st.lists(st.lists(st.tuples(st.text("01", max_size=4), st.text("01", max_size=4)), max_size=4), max_size=5))
    def test_functionals_equal_the_reference(self, stages):
        doc = {"stages": [[list(p) for p in pairs] for pairs in stages]}
        phi, ref = functional_from_json(doc), reference_functional_from_json(doc)
        assert phi.last == ref.last
        assert phi.events == ref.events
        for t in range(len(stages) + 2):
            assert set(phi.batch(t)) == set(ref.batch(t))
            assert phi.pairs_at(t) == ref.pairs_at(t)

    @given(st.lists(st.lists(st.integers(0, 16).map(lambda k: Dyadic(k, 4)), min_size=1, max_size=4), min_size=1, max_size=5),
           st.integers(0, 5))
    def test_infimum_stages_equal_the_reference(self, rows, depth):
        doc = {"kind": "infimum", "rows": [[str(v) for v in row] for row in rows], "depth": depth}
        rho = staged_from_json(doc)
        for s in range(5):
            assert rho.stage_at(s) == reference_from_infimum_sequence(rows, s, depth)
            assert from_infimum_sequence(rows, s, depth) == reference_from_infimum_sequence(rows, s, depth)


BAD_LITERALS = ["1/3", "-1/2^1", "0.5", "1/2^-1", "", 1, 0, None, 0.5, True, ["1/2^1"], {"m": 1}]


class TestParseErrors:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(BAD_LITERALS))
    def test_a_bad_literal_anywhere_in_a_row(self, seed, bad):
        rng = random.Random(seed)
        doc = random_stage_doc(rng)
        comp = rng.choice(doc["components"])
        row = rng.choice(comp["table"])
        row[rng.randrange(len(row))] = bad
        assert outcome(new_stage, doc) == outcome(reference_stage, doc)
        assert outcome(new_stage, doc)[0] == "ParseError"

    @pytest.mark.parametrize("bad", [1, True, ["1/2^1"], " 1/2^1 x", "1/2^1/2^1"])
    def test_a_bad_twin_of_a_literal_read_before(self, bad):
        # "1/2^1" reads fine first; its bad twin later in the document must still fail
        good = {"weight": "1/2^1", "table": [["1/2^0"], ["1/2^1", "1/2^1"]], "tail": {"kind": "uniform"}}
        twin = {"weight": "1/2^1", "table": [["1/2^0"], ["1/2^1", bad]], "tail": {"kind": "uniform"}}
        doc = {"components": [good, twin]}
        assert outcome(new_stage, doc) == outcome(reference_stage, doc)
        assert outcome(new_stage, doc)[0] == "ParseError"

    @pytest.mark.parametrize(
        "rule",
        [
            {"kind": "geometric"},
            {"kind": "geometric", "beta": 1},
            {"kind": "geometric", "beta": ["1/2^2"]},
            {"kind": "geometric", "beta": "3/2^2"},
            {"kind": "split", "zero": "1/2^1"},
            {"kind": "split", "one": "1/2^1"},
            {"kind": "split", "zero": "1/2^1", "one": "x"},
            {"zero": "1/2^1", "one": "1/2^1"},
            {"kind": "spiral"},
            {"kind": ["uniform"]},
            "uniform",
            ["kind", "uniform"],
        ],
    )
    def test_a_bad_tail_rule_after_a_good_twin(self, rule):
        good = {"kind": "split", "zero": "1/2^1", "one": "1/2^1"}
        geometric = {"kind": "geometric", "beta": "1/2^2"}
        comp = {"weight": "1/2^0", "table": [["1/2^0"], ["1/2^1", "1/2^1"]],
                "tails": {"0": good, "1": geometric}}
        doc = {"components": [comp, dict(comp, tails={"0": dict(good), "1": rule})]}
        assert outcome(new_stage, doc) == outcome(reference_stage, doc)
        assert outcome(new_stage, doc)[0] == "ParseError"

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda c: c.update(weight=1),
            lambda c: c.update(weight=["1/2^0"]),
            lambda c: c.update(table=[["1/2^0"], "1/2^1"]),
            lambda c: c.update(table=[["1/2^0"], ["1/2^1"]]),
            lambda c: c.update(tails={"0": {"kind": "uniform"}}),
            lambda c: c.update(tails={"0": {"kind": "uniform"}, "1": {"kind": "uniform"}, "2": {"kind": "uniform"}}),
            lambda c: c.update(tails="uniform"),
            lambda c: c.update(tail={"kind": "uniform"}),
            lambda c: c.update(tilt=True),
            lambda c: c.pop("weight"),
            lambda c: c.update(tilt=-1),
        ],
    )
    def test_malformed_components(self, mutation):
        comp = {"weight": "1/2^0", "table": [["1/2^0"], ["1/2^1", "1/2^1"]],
                "tails": {"0": {"kind": "uniform"}, "1": {"kind": "vanish"}}}
        mutation(comp)
        assert outcome(component_from_json, comp) == outcome(reference_component_from_json, comp)
        assert outcome(component_from_json, comp)[0] == "ParseError"

    @pytest.mark.parametrize(
        "stages",
        [
            [[["0", "2"]]],
            [[["3", "2"]]],
            [[["x", "0"]], [["0", "y"], ["x", "0"]]],
            [[["0", "1"]], [["01", "x"]]],
            [[["0", 1]]],
            [[["0", ["1"]]]],
            [[["01", "0"]], [["01", None]]],
            [[["0"]]],
            [[["0", "1", "1"]]],
            [[["0", "1"], "01"]],
            [[["0", "2"]], [["0"]]],
            ["nope"],
            [[["0", "1"]], {"0": "1"}],
            [[["2", "0"]], "nope"],
            [[["0", "1"]], [("0", "1")]],
            [[["0", "1"], {"0": "1", "1": "0"}]],
            [[["0", "1"], 5]],
        ],
    )
    def test_malformed_functionals(self, stages):
        doc = {"stages": stages}
        assert outcome(functional_from_json, doc) == outcome(reference_functional_from_json, doc)
        assert outcome(functional_from_json, doc)[0] == "ParseError"


# -- long documents: the bulk bit-string checks give the per-string errors ---

BAD_BITS = ["01x", "2", " 0", "0\n", "é", 1, 0, None, ["0"], []]
BAD_NODES = ["01x", "2", " 0", "é", 1, 0, None, ("0",)]


@st.composite
def long_functional_docs(draw):
    """50-500 pairs over 1-6 stages, 0-3 of their strings replaced by a bad entry."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stages = [[] for _ in range(rng.randint(1, 6))]
    for _ in range(draw(st.integers(50, 500))):
        rng.choice(stages).append([random_bits(rng), random_bits(rng)])
    slots = [(pair, side) for pairs in stages for pair in pairs for side in (0, 1)]
    for _ in range(draw(st.integers(0, 3))):
        pair, side = slots[draw(st.integers(0, len(slots) - 1))]
        pair[side] = draw(st.sampled_from(BAD_BITS))
    return {"stages": stages}


@st.composite
def long_test_docs(draw):
    """1-5 levels of 50-500 members over the empty base, 0-3 members replaced
    by a bad entry and, at times, one level by a non-list."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    levels = [[] for _ in range(rng.randint(1, 5))]
    for _ in range(draw(st.integers(50, 500))):
        rng.choice(levels).append(random_bits(rng))
    for _ in range(draw(st.integers(0, 3))):
        level = rng.choice([row for row in levels if row])
        level[rng.randrange(len(level))] = draw(st.sampled_from(BAD_BITS))
    if draw(st.booleans()):
        levels[rng.randrange(len(levels))] = draw(st.sampled_from(["nope", {"0": "1"}, None]))
    return {"base": {"components": []}, "levels": levels}


@st.composite
def long_tails_components(draw):
    """A depth 5-8 component with one rule per frontier node; 0-3 nodes get a
    bad key or an unknown rule."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(5, 8))
    items = [(node, tail_to_json(random_tail(rng))) for node in all_strings(depth)]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(items) - 1))
        node, rule = items[k]
        items[k] = (draw(st.sampled_from(BAD_NODES)), rule) if draw(st.booleans()) else (node, {"kind": "spiral"})
    table = [[f"1/2^{n}"] * (1 << n) for n in range(depth + 1)]
    return {"weight": "1/2^1", "table": table, "tails": dict(items)}


class TestLongDocuments:
    @given(long_functional_docs())
    def test_functionals_read_as_the_reference_reads_them(self, doc):
        assert outcome(lambda d: functional_from_json(d).events, doc) == outcome(
            lambda d: reference_functional_from_json(d).events, doc
        )

    @given(long_test_docs())
    def test_test_levels_read_as_the_reference_reads_them(self, doc):
        assert outcome(lambda d: mltest_from_json(d).levels, doc) == outcome(reference_test_levels_from_json, doc)

    @given(long_tails_components())
    def test_tails_maps_read_as_the_reference_reads_them(self, comp):
        assert outcome(component_from_json, comp) == outcome(reference_component_from_json, comp)
        doc = {"components": [comp]}
        assert outcome(new_stage, doc) == outcome(reference_stage, doc)


# -- mutated golden documents: every reader returns or raises ParseError -----

GOLDEN_DOCUMENTS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).resolve().parent / "golden" / "inputs").glob("*.json"))
]
READERS = [staged_from_json, stage_from_json, functional_from_json, mltest_from_json]
# values of every JSON type, counts that are bools, floats, strings or
# negative, literals above 1, and the shapes of the documents' own parts
REPLACEMENTS = [
    None, True, False, -1, 0, 1, 3, 1.0, 2.5, "", "0", "1", "2", "3/2^1", "1/2^1", "x", "-1",
    [], [[]], [["1"]], [["2"]], [["0", "1"]], {}, {"kind": "uniform"}, {"1": 1}, {"1": True}, {"-1": 0},
]
FIELDS = ["depth", "tilt", "decay", "kind", "strict", "tail", "tails", "rows", "stage", "levels", "base"]


def _paths(obj, path=()):
    """The path of every node of a JSON value below its root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutated_golden_documents(draw):
    """A golden input with one to three nodes removed, given a new field or
    else replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for part in parents:
            node = node[part]
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if action == "remove" and isinstance(node, dict):
            del node[key]
        elif action == "add" and isinstance(node[key], dict):
            node[key][draw(st.sampled_from(FIELDS))] = value
        else:
            node[key] = value
    return doc


class TestMutatedDocuments:
    @settings(max_examples=200)
    @given(mutated_golden_documents())
    @example({"kind": "infimum", "rows": [["1"], ["2"]]})
    @example({"components": [{"weight": "1" * 5000, "table": [["1"]], "tail": {"kind": "uniform"}}]})
    def test_every_reader_returns_or_raises_a_parse_error(self, doc):
        """A document that builds no value is a ParseError, whichever
        constructor refused it: never another exception, not even the
        ``int`` limit on the digits of a literal."""
        for read in READERS:
            try:
                read(doc)
            except ParseError:
                pass
