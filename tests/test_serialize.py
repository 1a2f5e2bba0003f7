"""JSON forms: round trips, rejection of malformed input, byte determinism."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from helpers import random_stage
from semimeasures import (
    HALF,
    ONE,
    ZERO,
    Dyadic,
    GeneralizedTest,
    MLTest,
    MonotoneFunctional,
    ParseError,
    TailRule,
    TrimResult,
    component_from_json,
    component_to_json,
    derived_measure,
    dumps,
    dyadic_from_text,
    dyadic_to_text,
    functional_from_json,
    functional_to_json,
    pad_with_identity,
    passes_at_depth,
    level_statuses_to_json,
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

QUARTER = Dyadic(1, 2)


# ---------------------------------------------------------------------------
# Scalars and tails
# ---------------------------------------------------------------------------


class TestDyadicText:
    def test_round_trip(self):
        for d in (ZERO, ONE, HALF, Dyadic(13, 6)):
            assert dyadic_from_text(dyadic_to_text(d)) == d

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

    def test_level_statuses_fields(self):
        test = MLTest.build({1: ["0"]}, uniform_measure())
        (status,) = passes_at_depth(test, "00")
        assert level_statuses_to_json((status,)) == [
            {"level": 1, "status": "captured", "mass": "1/2^1"}
        ]


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
