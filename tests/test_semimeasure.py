"""Presentations: evaluation, validation, mixtures, and staged constructions."""

from __future__ import annotations

import gc
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import messy_string_sets, seeds, unit_dyadics
from helpers import (
    QUARTER,
    as_fraction,
    half_blend,
    oracle_component_value,
    oracle_level_sum,
    oracle_stage_mass,
    oracle_stage_value,
    oracle_trim,
    random_bits,
    random_component,
    random_joint_stage,
    random_stage,
    random_table,
    random_tail,
    reference_canon,
    reference_pushdown,
    reference_validate,
    reference_validate_measure,
)
from semimeasures import (
    Component,
    Dyadic,
    EPSILON,
    HALF,
    ONE,
    ParseError,
    PreconditionError,
    SemiMeasureStage,
    TailRule,
    ZERO,
    all_strings,
    check_domination,
    complete_to_measure,
    derived_measure,
    dirac_spine,
    enumerate_limsup,
    from_infimum_sequence,
    geometric_semimeasure,
    infimum_semimeasure,
    mix_stages,
    mixture,
    partial_trim,
    stage_to_json,
    staged_from_json,
    strings_up_to,
    table_semimeasure,
    tilt_by_ones,
    uniform_measure,
    validate,
    validate_measure,
)
from semimeasures import test_defeating_semimeasure as defeating_semimeasure
from semimeasures.semimeasure import LeftCeSemiMeasure, TailsView, _canonical
from semimeasures.strings import CylinderSet, StagedFamily


def stock_family() -> list[LeftCeSemiMeasure]:
    """Eight staged semi-measures for the mixture tests: constant stock
    presentations, an infimum sequence and a stage-growing uniform measure."""

    def growing_uniform(s: int) -> SemiMeasureStage:
        return uniform_measure().scaled(Dyadic.pow2(-max(0, 3 - s)))

    return [
        LeftCeSemiMeasure.constant(uniform_measure()),
        LeftCeSemiMeasure.constant(dirac_spine("1")),
        LeftCeSemiMeasure.constant(dirac_spine("0")),
        LeftCeSemiMeasure.constant(geometric_semimeasure(QUARTER)),
        LeftCeSemiMeasure.constant(mix_stages([uniform_measure(), geometric_semimeasure(QUARTER)], [HALF, HALF])),
        infimum_semimeasure([[ONE], [HALF], [HALF]], depth=3),
        LeftCeSemiMeasure.constant(tilt_by_ones(uniform_measure())),
        LeftCeSemiMeasure(growing_uniform),
    ]


# The draws for the point-value and level-row properties: a plain or a
# tilted mixture of 1-3 components, or a mixture valid only jointly.
MIXED_KINDS = st.sampled_from(["plain", "tilted", "joint"])


def mixed_stage(rng: random.Random, kind: str) -> SemiMeasureStage:
    """Weights 1, 1/2, 1/4 and 3/8, depths 0-3, tilts 0-2 when tilted, and
    per-node tails."""
    if kind == "joint":
        return random_joint_stage(rng, depth=rng.randint(0, 3))
    comps = tuple(
        random_component(
            rng,
            weight=rng.choice((ONE, HALF, QUARTER, Dyadic(3, 3))),
            depth=rng.randint(0, 3),
            tilt=rng.choice([0, 1, 2]) if kind == "tilted" else 0,
        )
        for _ in range(rng.randint(1, 3))
    )
    return SemiMeasureStage(comps, strict=False)


def probe_strings(rng: random.Random, stage: SemiMeasureStage) -> list[str]:
    """Every string down to two levels below the deepest frontier, then
    strings above, at and below each component's frontier, some on the
    1-spine, with duplicates."""
    out = []
    for comp in stage.components:
        frontier = "".join(rng.choice("01") for _ in range(comp.depth))
        out += [
            frontier[: rng.randint(0, comp.depth)],
            frontier,
            frontier + random_bits(rng, 6),
            "1" * rng.randint(0, comp.depth + 3) + random_bits(rng, 3),
        ]
    out += rng.choices(out, k=rng.randint(0, 3))
    rng.shuffle(out)
    return list(strings_up_to(stage.max_depth + 2)) + out


def row_levels(stage: SemiMeasureStage) -> range:
    """The levels whose rows the row properties read: above, at and below
    every frontier."""
    return range(max(stage.max_depth + 3, 6))


# The draws for the validation properties, and what may be done to them.
VALIDATION_KINDS = st.sampled_from(["tilted", "joint", "mixed"])
CORRUPTIONS = ("raise", "halve", "tails")


def validation_stage(rng: random.Random, kind: str) -> SemiMeasureStage:
    """A tilted mixture, a mixture valid only jointly, or ("mixed") a
    mixture of additive and merely super-additive tables with roots 1 or
    1/2 under a strict claim that may be wrong; depths 0-3."""
    if kind == "tilted":
        return random_stage(rng, depth=rng.randint(0, 3), tilt_allowed=True)
    if kind == "joint":
        return random_joint_stage(rng, depth=rng.randint(0, 3))
    comps = []
    for w in rng.choice([[ONE], [HALF, HALF]]):
        depth = rng.randint(0, 3)
        table = random_table(rng, depth, root=rng.choice([ONE, ONE, ONE, HALF]), additive=rng.random() < 0.7)
        tails = {node: random_tail(rng, rng.choice([True, True, None])) for node in all_strings(depth)}
        comps.append(Component.build(w, table, tails=tails))
    return SemiMeasureStage(tuple(comps), strict=rng.random() < 0.9)


def corrupted(rng: random.Random, stage: SemiMeasureStage, corruptions) -> SemiMeasureStage:
    """``stage`` after each corruption in turn, on a random component:
    "raise" adds 1/4 or 1 to a table entry, "halve" halves a frontier entry
    (an additivity gap above it), "tails" gives some frontier nodes a rule
    whose fractions sum to more than 1."""
    bad_tails = (TailRule.split(ONE, HALF), TailRule.split(Dyadic(5, 3), Dyadic(5, 3)))
    comps = list(stage.components)
    for corruption in corruptions:
        k = rng.randrange(len(comps))
        comp = comps[k]
        table, tails = dict(comp.table), dict(comp.tails)
        if corruption == "raise":
            node = rng.choice(list(table))
            table[node] = table[node] + rng.choice([QUARTER, ONE])
        elif corruption == "halve":
            node = rng.choice(list(tails))
            table[node] = table[node] * HALF
        else:
            for node in rng.sample(list(tails), rng.randint(1, len(tails))):
                tails[node] = rng.choice(bad_tails)
        comps[k] = Component.build(comp.weight, table, tails=tails, tilt=comp.tilt)
    return SemiMeasureStage(tuple(comps), strict=stage.strict)


def level_table(*levels: list[Dyadic]) -> dict[str, Dyadic]:
    """The table whose level n holds ``levels[n]`` in lex order."""
    return {s: v for n, row in enumerate(levels) for s, v in zip(all_strings(n), row)}


def assert_reports_match_the_node_walk(stage: SemiMeasureStage) -> None:
    """``validate`` and ``validate_measure`` give the same (ok, node,
    message, children) as the walk that evaluates every node on its own."""
    for check, reference in ((validate, reference_validate), (validate_measure, reference_validate_measure)):
        got, want = check(stage), reference(stage)
        assert (got.ok, got.node, got.message, got.children) == (want.ok, want.node, want.message, want.children)


class TestTailRule:
    def test_vanish_is_geometric_zero(self):
        assert TailRule.vanish() == TailRule.geometric(ZERO)

    def test_uniform_is_geometric_half(self):
        assert TailRule.uniform() == TailRule.geometric(HALF)

    def test_geometric_rejects_large_ratio(self):
        with pytest.raises(ValueError):
            TailRule.geometric(Dyadic(5, 3))

    def test_conserving(self):
        assert TailRule.uniform().conserving
        assert TailRule.split(ONE, ZERO).conserving
        assert not TailRule.vanish().conserving
        assert not TailRule.geometric(QUARTER).conserving

    def test_kind_tags(self):
        assert TailRule.vanish().kind == "vanish"
        assert TailRule.uniform().kind == "uniform"
        assert TailRule.geometric(QUARTER).kind == "geometric"
        assert TailRule.split(ZERO, ONE).kind == "split"

    @given(seeds)
    def test_view_holds_each_rules_integers(self, seed):
        """``aligned`` over the larger exponent of the two fractions, ``totals``
        in lowest terms and (1, 0) exactly for a conserving rule."""
        rng = random.Random(seed)
        rules = tuple(random_tail(rng) for _ in range(4))
        view = TailsView(2, rules, [0, 1, 2, 3])
        for rule, (z, o, e), (t, x) in zip(rules, view.aligned, view.totals):
            assert (Fraction(z, 2**e), Fraction(o, 2**e)) == (as_fraction(rule.zero), as_fraction(rule.one))
            assert e == max(rule.zero.exponent, rule.one.exponent)
            assert Fraction(t, 2**x) == as_fraction(rule.total) and (t % 2 or x == 0)
            assert ((t, x) == (1, 0)) == rule.conserving


class TestComponentBuild:
    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            Component.build(ONE, {EPSILON: ONE, "0": HALF})

    def test_incomplete_table_message_names_the_missing_nodes(self):
        with pytest.raises(ValueError) as info:
            Component.build(ONE, {EPSILON: ONE, "1": HALF, "00": ZERO})
        assert str(info.value) == "table must cover every string of length <= 2; missing ['0', '01', '10']"

    @pytest.mark.parametrize(
        "table, bad",
        [
            ({EPSILON: ONE, "0": HALF, "x": HALF}, "'x'"),  # as many keys as a complete table
            ({EPSILON: ONE, "0": HALF, "2": HALF, "x": HALF}, "'2'"),  # first bad key in table order
            ({"x": ONE, EPSILON: ONE, "0": HALF, "1": HALF}, "'x'"),
            ({EPSILON: ONE, 0: HALF, "1": HALF}, "0"),
        ],
    )
    def test_first_key_that_is_not_a_bit_string_is_named(self, table, bad):
        with pytest.raises(ParseError) as info:
            Component.build(ONE, table)
        assert str(info.value) == f"not a binary string: {bad}"

    def test_non_frontier_tail_key_rejected(self):
        with pytest.raises(ValueError):
            Component.build(ONE, {EPSILON: ONE}, tails={"00": TailRule.uniform()})

    def test_tail_map_must_name_every_frontier_node(self):
        table = {s: ONE for s in strings_up_to(3)}
        with pytest.raises(ValueError) as info:
            Component.build(ONE, table, tails={"010": TailRule.uniform()})
        assert str(info.value) == "tails must cover the frontier; missing ['000', '001', '011']"

    def test_tail_and_tail_map_are_exclusive(self):
        with pytest.raises(ValueError):
            Component.build(ONE, {EPSILON: ONE}, tail=TailRule.uniform(), tails={EPSILON: TailRule.uniform()})

    def test_negative_tilt_rejected(self):
        """By ``build``, the direct constructor and ``dataclasses.replace`` alike."""
        message = "tilt power must be non-negative"
        with pytest.raises(ValueError, match=message):
            Component.build(ONE, {EPSILON: ONE}, tilt=-1)
        with pytest.raises(ValueError, match=message):
            Component(weight=ONE, depth=0, table={EPSILON: ONE}, tails={EPSILON: TailRule.uniform()}, tilt=-1)
        with pytest.raises(ValueError, match=message):
            replace(uniform_measure(1).components[0], tilt=-1)

    def test_constructor_takes_only_views_of_its_depth(self):
        table, tails = {EPSILON: ONE, "0": HALF, "1": HALF}, {"0": TailRule.uniform(), "1": TailRule.vanish()}
        built = Component.build(ONE, table, tails=tails)
        for given in ((table, built.tails), (built.table, tails), (table, tails)):
            with pytest.raises(TypeError, match="Component.build"):
                Component(ONE, 1, *given)
        assert Component(ONE, 1, built.table, built.tails) == built
        message = "table and tails must both have depth {}"
        with pytest.raises(ValueError, match=message.format(2)):
            Component(ONE, 2, built.table, built.tails)
        with pytest.raises(ValueError, match=message.format(0)):
            Component(ONE, 0, uniform_measure(0).components[0].table, built.tails)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dirac_spine("2"), "bit must be '0' or '1'"),
        (lambda: mix_stages([uniform_measure()], []), "one weight per stage"),
        (lambda: from_infimum_sequence([], 0, 0), "at least one generator row is required"),
        (lambda: uniform_measure().components[0].level_sum("01", 1), "level must not be above the string"),
        (lambda: uniform_measure().level_mass("01", 1), "level 1 is above the string (length 2)"),
        (lambda: from_infimum_sequence([[ONE]], 0, -1), "depth must be non-negative"),
        (lambda: from_infimum_sequence([], 0, -1), "at least one generator row is required"),
        (lambda: geometric_semimeasure(HALF, -1), "depth must be non-negative"),
        (lambda: geometric_semimeasure(ONE, -1), "geometric ratio must lie in [0, 1/2]"),
        (lambda: uniform_measure(-1), "depth must be non-negative"),
        (lambda: infimum_semimeasure([[ONE], []], 2), "generator value lists must be non-empty"),
        (lambda: infimum_semimeasure([[ONE]], -1), "depth must be non-negative"),
        (lambda: infimum_semimeasure([], 1), "at least one generator row is required"),
    ],
    ids=["dirac-bit", "mix-weights", "infimum-rows", "level-above-string", "mass-level-above-string",
         "infimum-depth", "infimum-rows-before-depth", "geometric-depth", "geometric-beta-before-depth",
         "uniform-depth", "staged-infimum-empty-row", "staged-infimum-depth", "staged-infimum-rows"],
)
def test_bad_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def _retained(make):
    """``make()`` and the bytes it allocated: (result, held afterwards, peak)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = make()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, held - base, peak - base


class TestStoredForm:
    """``table`` and ``tails`` are read-only views of one stored form: an
    ``int`` row per level and an interned rule index per frontier node."""

    @staticmethod
    def stage_with_inputs(seed: int, kind: str):
        """A tilted or a jointly valid stage, with the (table, tails)
        mappings each of its components was built from."""
        inputs = []
        build = Component.build

        def recording(weight, table, tail=None, tails=None, tilt=0):
            inputs.append((dict(table), dict(tails)))
            return build(weight, table, tail=tail, tails=tails, tilt=tilt)

        rng = random.Random(seed)
        with mock.patch.object(Component, "build", recording):
            if kind == "tilted":
                stage = random_stage(rng, depth=rng.randint(0, 3), tilt_allowed=True)
            else:
                stage = random_joint_stage(rng, depth=rng.randint(0, 3))
        return stage, inputs

    @given(seeds, st.sampled_from(["tilted", "joint"]))
    def test_views_read_back_the_mappings_they_were_built_from(self, seed, kind):
        stage, inputs = self.stage_with_inputs(seed, kind)
        for comp, (table, tails) in zip(stage.components, inputs):
            assert dict(comp.table) == table and dict(comp.tails) == tails
            assert comp.table == dict(comp.table) and comp.tails == dict(comp.tails)  # against a plain mapping
            assert comp.table != {}
            assert repr(comp.table) == f"TableView({dict(comp.table)!r})"
            assert repr(comp.tails) == f"TailsView({dict(comp.tails)!r})"
            assert list(comp.table) == list(strings_up_to(comp.depth))  # (length, lex) order
            assert list(comp.tails) == list(all_strings(comp.depth))
            assert len(comp.table) == (2 << comp.depth) - 1 and len(comp.tails) == 1 << comp.depth
            again = Component.build(comp.weight, dict(comp.table), tails=dict(comp.tails), tilt=comp.tilt)
            assert again == comp
            assert again.table.rows == comp.table.rows

    @given(seeds, st.sampled_from(["tilted", "joint"]))
    def test_keys_outside_a_view_are_absent(self, seed, kind):
        stage, _inputs = self.stage_with_inputs(seed, kind)
        for comp in stage.components:
            deeper = "0" * (comp.depth + 1)
            for view in (comp.table, comp.tails):
                for key in ("2", "0b1", " ", deeper, 0, None):
                    assert key not in view
                    with pytest.raises(KeyError):
                        view[key]
            assert EPSILON in comp.table and comp.table[EPSILON] == dict(comp.table)[EPSILON]
            assert (EPSILON in comp.tails) == (comp.depth == 0)
            if comp.depth:
                with pytest.raises(KeyError):
                    comp.tails[EPSILON]

    @given(seeds, MIXED_KINDS)
    def test_reads_agree_with_the_reference_evaluators(self, seed, kind):
        """``level_mass`` sums the stored rows at a random string, from its
        own level to two below it."""
        rng = random.Random(seed)
        stage = mixed_stage(rng, kind)
        sigma = random_bits(rng, stage.max_depth + 1)
        for n in range(len(sigma), len(sigma) + 3):
            assert as_fraction(Dyadic(*stage.level_mass(sigma, n))) == oracle_level_sum(stage, sigma, n)

    def test_rows_are_canonical_and_rules_interned(self):
        table = {EPSILON: ONE, "0": HALF, "1": Dyadic(2, 2)}
        comp = Component.build(ONE, table, tails={"0": TailRule.split(Dyadic(2, 2), HALF), "1": TailRule.uniform()})
        assert comp.table.rows == (([1], 0), ([1, 1], 1))
        assert comp.tails.rules == (TailRule.uniform(),) and comp.tails.index == [0, 0]
        assert comp == Component.build(ONE, table, tail=TailRule.uniform())

    @given(st.lists(st.integers(0, 2**40), max_size=6), st.integers(0, 50))
    def test_canonical_rows_stay_integral_and_minimal(self, nums, e):
        got, ge = _canonical(nums, e)
        assert 0 <= ge <= e and all(isinstance(x, int) for x in got)
        assert [Fraction(x, 2**ge) for x in got] == [Fraction(x, 2**e) for x in nums]
        assert ge == 0 or any(x % 2 for x in got)

    def test_replace_and_views_share_storage(self):
        spine = dirac_spine("1").components[0]
        head = Component(weight=HALF, depth=spine.depth, table=spine.table, tails=spine.tails)
        for comp in (head, replace(spine, weight=HALF), tilt_by_ones(SemiMeasureStage((spine,))).components[0]):
            assert comp.table is spine.table and comp.tails is spine.tails

    def test_a_table_node_costs_at_most_64_bytes(self):
        comp, held, _peak = _retained(lambda: random_component(random.Random(12), depth=12))
        assert comp.depth == 12
        assert held <= 64 * len(comp.table)

    def test_heads_over_one_spine_share_it(self):
        spine = random_component(random.Random(5), depth=12)
        weights = [Dyadic(k, 9) for k in range(500)]
        heads, _held, peak = _retained(
            lambda: [Component(weight=w, depth=spine.depth, table=spine.table, tails=spine.tails) for w in weights]
        )
        assert len(heads) == 500
        assert peak < 100_000


class TestEval:
    def test_uniform_known_value(self):
        assert uniform_measure().value("010") == Dyadic(1, 3)

    def test_geometric_quarter_powers(self):
        rho = geometric_semimeasure(QUARTER)
        for n in range(6):
            assert rho.value("0" * n) == Dyadic(1, 2 * n)
            assert rho.value("1" * n) == Dyadic(1, 2 * n)

    def test_blend_closed_form(self):
        """The two-component blend evaluates to 2^-n-1 + 2^-2n-1."""
        rho = half_blend()
        for n in range(6):
            sigma = ("01" * 3)[:n]
            assert rho.value(sigma) == Dyadic.pow2(-n - 1) + Dyadic.pow2(-2 * n - 1)

    def test_dirac_spines(self):
        zero_spine = dirac_spine("0")
        assert zero_spine.value("0000") == ONE
        assert zero_spine.value("0001") == ZERO
        assert dirac_spine("1").value("111") == ONE
        assert dirac_spine("1").value("10") == ZERO
        assert dirac_spine("1").value(EPSILON) == ONE

    @given(seeds, MIXED_KINDS)
    def test_matches_fraction_oracle(self, seed, kind):
        rng = random.Random(seed)
        stage = mixed_stage(rng, kind)
        strings = probe_strings(rng, stage)
        assert [as_fraction(stage.value(s)) for s in strings] == [oracle_stage_value(stage, s) for s in strings]

    @given(seeds, MIXED_KINDS)
    def test_tail_matches_per_bit_reference(self, seed, kind):
        """The closed-form tail equals the Fraction definition, which applies
        the tail one bit at a time, along a frontier path and up to 12 bits
        below it."""
        rng = random.Random(seed)
        for comp in mixed_stage(rng, kind).components:
            path = "".join(rng.choice("01") for _ in range(comp.depth)) + random_bits(rng, 12)
            prefixes = [path[:k] for k in range(len(path) + 1)]
            assert [as_fraction(comp.value(s)) for s in prefixes] == [oracle_component_value(comp, s) for s in prefixes]

    @pytest.mark.parametrize(
        "rule",
        [TailRule.vanish(), TailRule.split(ZERO, HALF), TailRule.split(QUARTER, ZERO), TailRule.uniform()],
    )
    def test_tail_with_zero_fractions(self, rule):
        comp = Component.build(Dyadic(3, 2), {EPSILON: ONE, "0": HALF, "1": Dyadic(1, 3)}, tail=rule, tilt=1)
        for below in ("", "0", "1", "01", "110", "0000000000", "111111111111"):
            for frontier in ("0", "1"):
                sigma = frontier + below
                assert as_fraction(comp.value(sigma)) == oracle_component_value(comp, sigma)
        assert comp.value("0" + "0" * 12) == (HALF * rule.zero**12)

    def test_set_mass_normalizes_first(self):
        lam = uniform_measure()
        assert lam.set_mass(["00", "1"]) == Dyadic(3, 2)
        assert lam.set_mass([]) == ZERO
        assert lam.set_mass(["0", "01"]) == HALF
        assert geometric_semimeasure(QUARTER).set_mass(["0", "1"]) == HALF


class TestValidate:
    def test_uniform_table_ok(self):
        assert validate(uniform_measure(depth=3)).ok

    def test_geometric_quarter_ok(self):
        assert validate(geometric_semimeasure(QUARTER)).ok

    def test_overfull_children_flagged_at_root(self):
        rho = table_semimeasure({EPSILON: ONE, "0": Dyadic(3, 2), "1": Dyadic(3, 2)}, tail=TailRule.vanish())
        report = validate(rho)
        assert (report.ok, report.node, report.children) == (False, EPSILON, (Dyadic(3, 2), Dyadic(3, 2)))

    def test_strict_root_below_one_flagged(self):
        rho = SemiMeasureStage((Component.build(HALF, {EPSILON: ONE}, tail=TailRule.uniform()),), strict=True)
        report = validate(rho)
        assert (report.ok, report.node, report.message) == (False, EPSILON, "strict presentation has root mass 1/2^1")

    def test_root_above_one_flagged(self):
        rho = SemiMeasureStage((Component.build(Dyadic(3, 1), {EPSILON: ONE}, tail=TailRule.uniform()),), strict=False)
        report = validate(rho)
        assert (report.ok, report.node, report.message) == (False, EPSILON, "root mass 3/2^1 exceeds 1")

    @given(seeds, st.sampled_from(["tilted", "joint"]))
    def test_generated_stages_validate(self, seed, kind):
        """The tilted and the joint generators only produce valid presentations."""
        assert validate(validation_stage(random.Random(seed), kind)).ok

    @given(seeds, VALIDATION_KINDS)
    def test_integer_rows_report_what_the_node_walk_reports(self, seed, kind):
        """Up to three table entries raised or frontier entries halved, so
        one level may hold several violations."""
        rng = random.Random(seed)
        stage = validation_stage(rng, kind)
        assert_reports_match_the_node_walk(corrupted(rng, stage, rng.choices(["raise", "halve"], k=rng.randint(1, 3))))

    @given(seeds, VALIDATION_KINDS)
    def test_bad_tail_fractions_are_reported_at_their_first_frontier_node(self, seed, kind):
        """Each distinct rule is checked once; the witness is the first
        frontier node, in lex order, that carries a bad one."""
        rng = random.Random(seed)
        stage = corrupted(rng, validation_stage(rng, kind), ["tails"])
        assert not validate(stage).ok
        assert_reports_match_the_node_walk(stage)

    @given(seeds, VALIDATION_KINDS)
    def test_brute_force_agreement(self, seed, kind):
        """Two or three corruptions of any sort at once."""
        rng = random.Random(seed)
        stage = validation_stage(rng, kind)
        assert_reports_match_the_node_walk(corrupted(rng, stage, rng.choices(CORRUPTIONS, k=rng.randint(2, 3))))


    def test_the_first_violation_of_a_level_is_reported_with_its_children(self):
        """Level 3 breaks super-additivity under '01' and '11', '00' is
        exactly additive and '10' has slack: the first violating node in
        lex order is the witness, with its own children."""
        e3, e4 = Dyadic(1, 3), Dyadic(1, 4)
        table = level_table([ONE], [HALF, HALF], [QUARTER] * 4, [e3, e3, QUARTER, e3, e4, e4, e3, QUARTER])
        rho = table_semimeasure(table)
        report = validate(rho)
        assert (report.ok, report.node, report.children) == (False, "01", (QUARTER, e3))
        assert report.message == "super-additivity fails at '01': 1/2^2 + 1/2^3 > 1/2^2"
        assert_reports_match_the_node_walk(rho)


class TestLevelRow:
    @given(seeds, MIXED_KINDS)
    def test_row_holds_the_values_of_the_level(self, seed, kind):
        """Weights and tilts folded in: numerator i over 2**e is the value
        of the i-th string of length n."""
        stage = mixed_stage(random.Random(seed), kind)
        for n in row_levels(stage):
            row, e = stage.level_row(n)
            assert [Fraction(x, 1 << e) for x in row] == [oracle_stage_value(stage, s) for s in all_strings(n)]

    @given(seeds, st.sampled_from(["plain", "joint"]))
    def test_limit_row_holds_the_trimmed_masses(self, seed, kind):
        stage = mixed_stage(random.Random(seed), kind)
        for n in row_levels(stage)[stage.max_depth :]:
            row, e = stage.level_row(n, limit=True)
            assert [Fraction(x, 1 << e) for x in row] == [oracle_trim(stage, s) for s in all_strings(n)]

    @given(seeds, MIXED_KINDS)
    def test_rows_above_at_and_below_each_frontier(self, seed, kind):
        """Every row is there; a limit row is there only at or below the
        deepest frontier of an untilted stage."""
        stage = mixed_stage(random.Random(seed), kind)
        tilted = any(c.tilt for c in stage.components)
        for n in row_levels(stage):
            assert len(stage.level_row(n)[0]) == 1 << n
            if n < stage.max_depth or tilted:
                with pytest.raises(ValueError):
                    stage.level_row(n, limit=True)
            else:
                assert len(stage.level_row(n, limit=True)[0]) == 1 << n

    def test_limit_rows_lie_below_every_frontier_and_need_no_tilt(self):
        with pytest.raises(ValueError):
            uniform_measure(depth=2).level_row(1, limit=True)
        with pytest.raises(ValueError):
            tilt_by_ones(uniform_measure()).level_row(1, limit=True)
        with pytest.raises(ValueError):
            uniform_measure().level_row(-1)


class TestRandomTail:
    def test_lossy_and_conserving_draws_keep_their_promise(self):
        for seed in range(1000):
            assert not random_tail(random.Random(seed), conserving=False).conserving
            assert random_tail(random.Random(seed), conserving=True).conserving


class TestValues:
    """``values`` is the one point-evaluation path, which ``value`` and the
    certificates read; ``set_mass`` sums each component's values over
    groups of members without building one value per member."""

    @given(seeds, MIXED_KINDS)
    def test_values_match_the_fraction_reference(self, seed, kind):
        rng = random.Random(seed)
        stage = mixed_stage(rng, kind)
        strings = probe_strings(rng, stage)
        nums, e = stage.values(strings)
        assert [Fraction(x, 1 << e) for x in nums] == [oracle_stage_value(stage, s) for s in strings]

    @given(seeds, MIXED_KINDS, messy_string_sets())
    def test_set_mass_is_the_sum_over_the_normalised_antichain(self, seed, kind, strings):
        """Sets of up to ~60 strings of length <= 10 with duplicates, prefixes
        and the root, so groups of one length hold several members below one
        frontier node."""
        stage = mixed_stage(random.Random(seed), kind)
        assert as_fraction(stage.set_mass(strings)) == oracle_stage_mass(stage, strings)

    @pytest.mark.parametrize("kind", ["plain", "tilted", "joint"])
    def test_set_mass_of_a_full_level_is_its_level_mass(self, kind):
        for seed in range(8):
            stage = mixed_stage(random.Random(seed), kind)
            for n in range(stage.max_depth + 5):
                assert stage.set_mass(all_strings(n)) == Dyadic(*stage.level_mass(EPSILON, n))

    @pytest.mark.parametrize("members, bad", [(["01", "2"], "2"), (["0x", "2", "01"], "2"), (["1", "0 1"], "0 1")])
    def test_set_mass_names_the_first_bad_member_in_canonical_order(self, members, bad):
        with pytest.raises(ParseError, match=f"^not a binary string: {bad!r}$"):
            uniform_measure().set_mass(members)

    def test_set_mass_checks_a_member_that_extends_another(self):
        """Normalisation would drop "0x" behind "0"; every member is checked."""
        with pytest.raises(ParseError, match="^not a binary string: '0x'$"):
            uniform_measure().set_mass(["0", "0x"])

    @pytest.mark.parametrize("k", [16, 4096])
    def test_set_mass_reads_each_component_once(self, k, monkeypatch):
        """Counted, not timed: the tier-1 form of CI's 16,384-member-level
        ``timeout`` line.  Until the library counts its own reads, test-side
        wrappers count the calls of ``Component._values`` and of the bit
        checks of :mod:`semimeasures.strings`, under every name they are
        bound to.  On an already-built antichain of k members, k/4 of them
        behind each of 0, 10, 110 and 1110, a 3-component tilted mixture
        reads the set's groups once per component, however large k is, and
        checks no member again."""
        import semimeasures.semimeasure as semimeasure_module
        import semimeasures.strings as strings_module

        rng = random.Random(k)
        comps = tuple(random_component(rng, weight=QUARTER, depth=3, tilt=tilt) for tilt in (0, 1, 2))
        stage = SemiMeasureStage(comps, strict=False)
        members = CylinderSet(
            "1" * j + "0" + format(r, f"0{10 + j}b") for j in range(4) for r in rng.sample(range(1 << (10 + j)), k // 4)
        )
        assert len(members) == k and members.minimal is members
        nums, e = stage.values(members)
        reads, checks = [], []
        values = Component._values
        monkeypatch.setattr(Component, "_values", lambda comp, groups: reads.append(groups) or values(comp, groups))
        for module in (strings_module, semimeasure_module):
            for name in ("check_bits", "check_all_bits"):
                check = getattr(module, name)
                monkeypatch.setattr(module, name, lambda arg, check=check: checks.append(arg) or check(arg))
        assert stage.set_mass(members) == Dyadic(sum(nums), e)
        assert len(reads) == len(comps) and all(groups is members.groups for groups in reads)
        assert checks == []

    @staticmethod
    def gate_component(tilt: int) -> Component:
        """Depth 2 under four rules: vanish, a split with zero = 0 (whose
        all-ones entry is 0**0 * o**below), a lossy geometric rule and the
        uniform rule, read over 2**(top * below) with top = 3."""
        table = {EPSILON: ONE, "0": HALF, "1": HALF, "00": QUARTER, "01": QUARTER, "10": QUARTER, "11": Dyadic(1, 3)}
        tails = {"00": TailRule.vanish(), "01": TailRule.split(ZERO, HALF),
                 "10": TailRule.geometric(Dyadic(3, 3)), "11": TailRule.uniform()}
        return Component.build(ONE, table, tails=tails, tilt=tilt)

    @pytest.mark.parametrize("tilt", [0, 1])
    @pytest.mark.parametrize("below", [1, 3, 4])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_reads_across_the_table_gate(self, tilt, below, extra):
        """A group of rules * below members at one length below the frontier
        takes one rule power per member; one more member takes the rule
        powers' table.  Both sides match the definition, the all-ones
        extension of every frontier node included."""
        comp = self.gate_component(tilt)
        stage = SemiMeasureStage((comp,), strict=False)
        size = len(comp.tails.rules) * below + extra
        ones = [(k << below) | ((1 << below) - 1) for k in range(4)]
        rest = [p for p in range(4 << below) if p not in ones]
        positions = sorted(ones + random.Random(below).sample(rest, size - len(ones)))
        members = [format(p, f"0{below + 2}b") for p in positions]
        nums, e = stage.values(members)
        assert [Fraction(x, 1 << e) for x in nums] == [oracle_stage_value(stage, s) for s in members]
        assert as_fraction(stage.set_mass(members)) == oracle_stage_mass(stage, members)
        assert (comp.tails.held is not None) == bool(extra)

    def test_a_long_lone_member_builds_no_table(self):
        """The gate is what bounds the table by the read: one member of
        10,000 bits reads one rule power, where a table would hold 10,001
        entries of up to 30,000 bits each."""
        stage = geometric_semimeasure(Dyadic(3, 3))
        member = format(random.Random(10_000).getrandbits(10_000) | 1 << 9_999, "b")
        mass, _held, peak = _retained(lambda: stage.set_mass([member]))
        assert mass == Dyadic(3**10_000, 30_000)
        assert peak < 1_000_000
        assert stage.components[0].tails.held is None

    def test_a_view_holds_one_table_whatever_lengths_it_reads(self):
        """What a view keeps is bounded by one read, not by the reads it has
        served: a set of gated groups at 34 lengths, under a rule whose
        fractions have 1,000-bit exponents beside the uniform rule, leaves
        the one table of the longest length, about 0.5 MB, where a table
        kept per length would hold about 6 MB."""
        big = TailRule.split(Dyadic((1 << 999) + 1, 1001), QUARTER)
        comp = Component.build(ONE, {EPSILON: ONE, "0": HALF, "1": HALF},
                               tails={"0": big, "1": TailRule.uniform()})
        stage = SemiMeasureStage((comp,), strict=False)
        rng = random.Random(34)
        # j leading ones, a zero, then 7 free bits: prefix-free across lengths,
        # with 2 * below + 1 members at each length, one past the gate
        members = CylinderSet("1" * j + "0" + format(w, "07b")
                              for j in range(34) for w in rng.sample(range(128), 2 * (j + 7) + 1))
        assert len(members.minimal) == len(members)
        mass, held, _peak = _retained(lambda: stage.set_mass(members))
        assert held < 1_000_000
        assert as_fraction(mass) == oracle_stage_mass(stage, members)
        assert comp.tails.held[0] == 40

    def test_a_view_keeps_the_rule_powers_of_the_depth_read_last(self):
        """The view's held table, by identity: two set masses at one length
        share one table, and so does ``scaled``, which shares the view; a
        new length replaces it, and going back builds a new, equal table.
        A view holding a table still equals a fresh one."""
        rng = random.Random(14)
        comp = random_component(rng, depth=2)
        stage = SemiMeasureStage((comp,), strict=False)
        members = CylinderSet(format(p, "010b") for p in rng.sample(range(1 << 10), 200))
        first = stage.set_mass(members)
        table = comp.tails.held[1]
        assert stage.set_mass(members) == first and comp.tails.held[1] is table
        assert stage.scaled(HALF).set_mass(members) == HALF * first and comp.tails.held[1] is table
        stage.set_mass(CylinderSet(format(p, "09b") for p in range(200)))
        assert comp.tails.held[0] == 7 and comp.tails.held[1] is not table
        assert stage.set_mass(members) == first and comp.tails.held[0] == 8
        assert comp.tails.held[1] is not table and comp.tails.held[1] == table
        fresh = TailsView.of(dict(comp.tails), comp.depth)
        assert fresh.held is None and fresh == comp.tails and comp.tails == fresh
        assert Component.build(comp.weight, dict(comp.table), tails=dict(comp.tails)) == comp

    def test_empty_list_gives_an_empty_row(self):
        assert geometric_semimeasure(QUARTER).values([])[0] == []
        assert SemiMeasureStage((), strict=False).values(["01"]) == ([0], 0)

    def test_tilted_weighted_mixture_below_the_frontier(self):
        split = Component.build(
            Dyadic(3, 2), {EPSILON: ONE, "0": HALF, "1": HALF}, tail=TailRule.split(QUARTER, HALF), tilt=2
        )
        point = Component.build(QUARTER, {EPSILON: ONE})  # vanishes below the root
        stage = SemiMeasureStage((split, point), strict=False)
        nums, e = stage.values(["110", "110", "0"])
        # "110": 3/4 * (1/2 * 1/2 * 1/4) * 2^-(2 * 2); "0": 3/4 * 1/2
        assert [Dyadic(x, e) for x in nums] == [Dyadic(3, 10), Dyadic(3, 10), Dyadic(3, 3)]

    @pytest.mark.parametrize("bad", ["012", "0 1", None])
    def test_every_string_is_checked(self, bad):
        with pytest.raises(ParseError):
            uniform_measure().values(["0", bad])

    @pytest.mark.parametrize("bad", [" 1", "1_0", "+1"])
    def test_level_mass_and_the_trims_check_the_string(self, bad):
        """``int(s, 2)`` would read these as "01", "010" and "01"."""
        for stage in (uniform_measure(), tilt_by_ones(uniform_measure())):
            for read in (lambda: stage.level_mass(bad, 3), lambda: partial_trim(stage, bad, 3), lambda: derived_measure(stage, bad)):
                pytest.raises(ParseError, read)


def on_the_spine(j: int, tail: str) -> str:
    return "1" * j + tail


class TestCylinderSetReads:
    """A :class:`CylinderSet` is read through its own groups; the reads must
    be those of the same strings given as a list, and the definition's."""

    @given(
        seeds,
        messy_string_sets(),
        st.lists(st.builds(on_the_spine, st.integers(0, 8), st.text(alphabet="01", max_size=3)), max_size=5),
    )
    def test_reads_match_the_list_reads_and_the_oracles(self, seed, strings, spine):
        """Tilts 0-3, one tail rule per frontier node, frontiers at depth 0-3
        and members of length 0-11, so above, at and below every frontier,
        unordered, with duplicates, prefixes and 1-spine strings."""
        rng = random.Random(seed)
        comps = tuple(
            random_component(rng, weight=rng.choice((ONE, HALF, Dyadic(3, 3))), depth=rng.randint(0, 3), tilt=rng.randint(0, 3))
            for _ in range(rng.randint(1, 3))
        )
        stage = SemiMeasureStage(comps, strict=False)
        x = strings + spine
        c = CylinderSet(x)
        assert c == reference_canon(x)
        assert CylinderSet(c) is c
        assert stage.set_mass(c) == stage.set_mass(list(x))
        assert as_fraction(stage.set_mass(c)) == oracle_stage_mass(stage, x)
        for read in (c, list(c), list(x)):
            nums, e = stage.values(read)
            assert [Fraction(v, 1 << e) for v in nums] == [oracle_stage_value(stage, s) for s in read]


class TestValidateMeasure:
    def test_uniform_is_a_measure(self):
        assert validate_measure(uniform_measure(depth=2)).ok

    def test_spine_is_a_measure(self):
        assert validate_measure(dirac_spine("0")).ok

    def test_leaky_geometric_is_not(self):
        assert not validate_measure(geometric_semimeasure(QUARTER, depth=1)).ok

    def test_superadditive_slack_is_not(self):
        rho = table_semimeasure(
            {EPSILON: ONE, "0": QUARTER, "1": QUARTER}, tail=TailRule.uniform()
        )
        report = validate_measure(rho)
        assert not report.ok and report.node == EPSILON

    @given(seeds)
    def test_one_walk_reports_what_the_passes_report(self, seed):
        """Untouched mixtures of additive and merely super-additive tables,
        lossy and conserving tails, and wrong root claims."""
        assert_reports_match_the_node_walk(validation_stage(random.Random(seed), "mixed"))

    def test_the_first_additivity_gap_of_a_level_is_reported(self):
        """Both nodes of level 1 have a gap; the first in lex order is the witness."""
        eighth = Dyadic(1, 3)
        table = {EPSILON: ONE, "0": HALF, "1": HALF, "00": eighth, "01": eighth, "10": eighth, "11": eighth}
        rho = table_semimeasure(table, tail=TailRule.uniform())
        assert validate(rho).ok
        report = validate_measure(rho)
        assert (report.ok, report.node, report.message) == (False, "0", "additivity fails at '0'")

    def test_the_first_unequal_node_of_a_deeper_level_is_reported(self):
        """Level 3 falls short under '01' and '11' and is exact under '00'
        and '10': the first gap in lex order is the witness."""
        e3, e4 = Dyadic(1, 3), Dyadic(1, 4)
        table = level_table([ONE], [HALF, HALF], [QUARTER] * 4, [e3, e3, e4, e4, e3, e3, e4, ZERO])
        rho = table_semimeasure(table, tail=TailRule.uniform())
        assert validate(rho).ok
        report = validate_measure(rho)
        assert (report.ok, report.node, report.message) == (False, "01", "additivity fails at '01'")
        assert_reports_match_the_node_walk(rho)


class TestTilt:
    def test_uniform_tilt_values(self):
        tilted = tilt_by_ones(uniform_measure())
        assert tilted.value("0") == HALF
        assert tilted.value("1") == QUARTER
        assert tilted.value("110") == Dyadic.pow2(-5)

    def test_tilt_factor_identity(self):
        """Off the all-ones spine the tilt is a constant 2^-j factor."""
        lam = uniform_measure()
        tilted = tilt_by_ones(lam)
        for j in range(4):
            for tau in ["", "0", "01"]:
                sigma = "1" * j + "0" + tau
                assert tilted.value(sigma) == Dyadic.pow2(-j) * lam.value(sigma)

    @given(seeds)
    def test_tilt_preserves_validity(self, seed):
        stage = random_stage(random.Random(seed), depth=3)
        assert validate(tilt_by_ones(stage)).ok

    def test_tilt_keeps_strictness(self):
        assert tilt_by_ones(uniform_measure()).strict

    def test_tilted_stage_has_no_closed_form_trim(self):
        stage = mix_stages([uniform_measure(), tilt_by_ones(uniform_measure())], [HALF, HALF])
        for sigma in (EPSILON, "0", "11"):
            with pytest.raises(ValueError, match="^no closed-form trim for tilted components$"):
                stage.level_mass(sigma, None)


class TestMixture:
    def test_single_component_scaling(self):
        lam = LeftCeSemiMeasure.constant(uniform_measure())
        mixed = mixture([lam], [HALF], stage=0)
        for n in range(4):
            assert mixed.value("0" * n) == Dyadic.pow2(-n - 1)
        assert check_domination(mixed, uniform_measure(), HALF, strings_up_to(4)) is None

    def test_two_component_value(self):
        fam = [
            LeftCeSemiMeasure.constant(uniform_measure()),
            LeftCeSemiMeasure.constant(dirac_spine("1")),
        ]
        mixed = mixture(fam, [HALF, HALF], stage=0)
        assert mixed.value("1") == Dyadic(3, 2)
        assert mixed.strict

    def test_tilted_blend_frozen_values(self):
        mixed = mix_stages([tilt_by_ones(uniform_measure()), dirac_spine("1")], [HALF, HALF])
        assert mixed.value("1") == Dyadic(5, 3)
        assert mixed.value("11") == Dyadic(17, 5)
        assert validate(mixed).ok

    def test_weight_overflow_rejected(self):
        with pytest.raises(PreconditionError):
            mix_stages([uniform_measure(), uniform_measure()], [ONE, HALF])

    def test_default_weights_halve(self):
        fam = stock_family()[:2]
        mixed = mixture(fam, None, stage=0)
        assert mixed.value(EPSILON) == Dyadic(3, 2)  # 1/2 + 1/4 roots

    def test_domination_certificate_for_registry(self):
        """Every registered member is dominated by the weighted mixture."""
        fam = stock_family()
        weights = [Dyadic.pow2(-(e + 1)) for e in range(len(fam))]
        for s in [0, 2, 5]:
            mixed = mixture(fam, weights, stage=s)
            for member, w in zip(fam, weights):
                witness = check_domination(mixed, member.stage_at(s), w, strings_up_to(4))
                assert witness is None

    def test_domination_witness_when_it_fails(self):
        witness = check_domination(uniform_measure(), dirac_spine("1"), ONE, strings_up_to(2))
        assert witness == "1"

    @given(seeds, st.sampled_from([Dyadic(3, 3), Dyadic(3, 1), ONE, Dyadic(5, 4)]))
    def test_domination_matches_the_fraction_oracle(self, seed, weight):
        """The witness is the first string, in input order, where
        weight * part exceeds the mixture, for weights that are not powers
        of two as well."""
        rng = random.Random(seed)
        mixed, part = random_stage(rng, depth=2), random_stage(rng, depth=2, tilt_allowed=True)
        items = rng.sample(list(strings_up_to(4)), 12)
        over = [s for s in items if as_fraction(weight) * oracle_stage_value(part, s) > oracle_stage_value(mixed, s)]
        assert check_domination(mixed, part, weight, items) == (over[0] if over else None)

    def test_stage_monotonicity_of_registry(self):
        """Registered staged semi-measures never decrease in the stage."""
        for member in stock_family():
            for sigma in strings_up_to(3):
                values = [member.value(sigma, s) for s in range(6)]
                assert all(a <= b for a, b in zip(values, values[1:]))


class TestCompleteToMeasure:
    def test_uniform_fixed_point(self):
        mu = complete_to_measure(uniform_measure(depth=2), depth=3)
        for sigma in strings_up_to(3):
            assert mu.value(sigma) == Dyadic.pow2(-len(sigma))

    def test_geometric_quarter_completes_to_uniform(self):
        mu = complete_to_measure(geometric_semimeasure(QUARTER, depth=2), depth=5)
        for sigma in strings_up_to(5):
            assert mu.value(sigma) == Dyadic.pow2(-len(sigma))
        assert validate_measure(mu).ok

    def test_zero_spine_completes_to_point_mass(self):
        mu = complete_to_measure(dirac_spine("0"), depth=3)
        for sigma in strings_up_to(3):
            assert mu.value(sigma) == (ONE if set(sigma) <= {"0"} else ZERO)

    def test_rejects_non_strict(self):
        with pytest.raises(PreconditionError):
            complete_to_measure(uniform_measure().scaled(HALF))

    def test_rejects_tilt(self):
        with pytest.raises(PreconditionError):
            complete_to_measure(tilt_by_ones(uniform_measure()))

    def test_depth_must_reach_frontier(self):
        with pytest.raises(ValueError):
            complete_to_measure(uniform_measure(depth=3), depth=2)

    @pytest.mark.parametrize("depth, target", [(8, 8), (2, 5), (0, 0)])
    def test_each_level_row_is_read_once(self, monkeypatch, depth, target):
        """The validation's rows serve the pushdown: target + 1 reads."""
        calls = []
        read = SemiMeasureStage.level_row

        def counting(self, n, limit=False):
            calls.append(n)
            return read(self, n, limit)

        monkeypatch.setattr(SemiMeasureStage, "level_row", counting)
        complete_to_measure(geometric_semimeasure(QUARTER, depth=depth), depth=target)
        assert sorted(calls) == list(range(target + 1))

    def test_precondition_messages(self):
        broken = table_semimeasure({EPSILON: ONE, "0": ONE, "1": HALF})
        with pytest.raises(PreconditionError) as exc:
            complete_to_measure(broken)
        assert str(exc.value) == (
            "completion requires a valid presentation: super-additivity fails at '': 1/2^0 + 1/2^1 > 1/2^0"
        )
        with pytest.raises(PreconditionError) as exc:
            complete_to_measure(uniform_measure().scaled(HALF))
        assert str(exc.value) == "completion requires a strict presentation"

    def test_mixture_valid_only_jointly_completes(self):
        """Two weight-1/2 depth-1 components (1; 1, 1) and (1; 0, 0): the
        first is not super-additive, the mixture is."""
        over = Component.build(HALF, {EPSILON: ONE, "0": ONE, "1": ONE})
        under = Component.build(HALF, {EPSILON: ONE, "0": ZERO, "1": ZERO})
        stage = SemiMeasureStage((over, under), strict=True)
        assert validate(stage).ok
        mu = complete_to_measure(stage)
        assert validate_measure(mu).ok
        assert len(mu.components) == 3  # one per component, plus the surplus
        assert [mu.value(s) for s in strings_up_to(1)] == [ONE, HALF, HALF]
        for sigma in strings_up_to(4):
            assert mu.value(sigma) >= stage.value(sigma)

    def test_the_surplus_goes_to_both_children_in_equal_halves(self):
        """'0' keeps 1/2 and '1' keeps 1/4 of the root's 1, so each gets an
        eighth more; one level down '00' and '10' hold all their parent's
        value, and each pair again splits its parent's surplus."""
        table = level_table([ONE], [HALF, QUARTER], [QUARTER, ZERO, Dyadic(1, 3), ZERO])
        stage = table_semimeasure(table)
        mu = complete_to_measure(stage)
        want = [ONE, Dyadic(5, 3), Dyadic(3, 3), Dyadic(7, 4), Dyadic(3, 4), QUARTER, Dyadic(1, 3)]
        assert [mu.value(s) for s in strings_up_to(2)] == want
        assert {s: as_fraction(mu.value(s)) for s in strings_up_to(2)} == reference_pushdown(stage, 2)

    PAD_RULES = [
        TailRule.vanish(),
        TailRule.uniform(),
        TailRule.geometric(QUARTER),
        TailRule.geometric(Dyadic(3, 3)),
        TailRule.split(ONE, ZERO),
        TailRule.split(QUARTER, HALF),
        TailRule.split(HALF, Dyadic(1, 4)),
        TailRule.split(ZERO, Dyadic(5, 4)),
    ]

    @staticmethod
    def padded(rule: TailRule) -> tuple[Fraction, Fraction]:
        """zero + (1 - zero - one) / 2 and one + (1 - zero - one) / 2."""
        zero, one = as_fraction(rule.zero), as_fraction(rule.one)
        pad = (1 - zero - one) / 2
        return zero + pad, one + pad

    @pytest.mark.parametrize("rule", PAD_RULES, ids=lambda rule: f"{rule.kind}-{rule.zero}-{rule.one}")
    def test_a_completed_tail_splits_the_lost_fraction_evenly(self, rule):
        mu = complete_to_measure(table_semimeasure({EPSILON: ONE}, tail=rule), depth=2)
        for node, got in mu.components[0].tails.items():
            assert (as_fraction(got.zero), as_fraction(got.one)) == self.padded(rule), node

    def test_each_target_node_pads_the_rule_of_its_frontier_node(self):
        """Eight rules on the eight frontier nodes of a depth-3 table,
        completed two levels further down."""
        tails = dict(zip(all_strings(3), self.PAD_RULES))
        stage = table_semimeasure({s: Dyadic.pow2(-len(s)) for s in strings_up_to(3)}, tails=tails)
        mu = complete_to_measure(stage, depth=5)
        completed = mu.components[0].tails
        assert len(completed) == 32
        for node, got in completed.items():
            assert (as_fraction(got.zero), as_fraction(got.one)) == self.padded(tails[node[:3]]), node
        assert validate_measure(mu).ok

    @given(seeds, st.integers(0, 3), st.integers(0, 2))
    def test_jointly_valid_mixtures_complete_to_the_pushdown(self, seed, depth, extra):
        """Up to the target the completion is the mixture's pushed-down
        table; below it, it stays additive and dominating."""
        stage = random_joint_stage(random.Random(seed), depth=depth)
        assert validate(stage).ok
        target = depth + extra
        mu = complete_to_measure(stage, depth=target)
        assert validate_measure(mu).ok
        assert {s: as_fraction(mu.value(s)) for s in strings_up_to(target)} == reference_pushdown(stage, target)
        for sigma in strings_up_to(target + 2):
            assert mu.value(sigma) >= stage.value(sigma)

    @given(seeds)
    def test_randomized_completion_dominates_and_is_additive(self, seed):
        """mu is exactly additive and sits above the presentation everywhere."""
        rng = random.Random(seed)
        stage = random_stage(rng, depth=3)
        depth = 5
        mu = complete_to_measure(stage, depth=depth)
        assert validate_measure(mu).ok
        for sigma in strings_up_to(depth + 2):
            assert mu.value(sigma) >= stage.value(sigma)
        for sigma in strings_up_to(depth + 1):
            assert mu.value(sigma) == mu.value(sigma + "0") + mu.value(sigma + "1")


class TestInfimumSequence:
    def test_all_ones_gives_uniform(self):
        rho = from_infimum_sequence([[ONE]], stage=0, depth=3)
        for sigma in strings_up_to(3):
            assert rho.value(sigma) == Dyadic.pow2(-len(sigma))

    def test_half_from_level_one(self):
        rho = from_infimum_sequence([[ONE], [HALF], [HALF]], stage=0, depth=4)
        assert rho.value(EPSILON) == ONE
        for n in range(1, 7):
            assert rho.value("0" * n) == Dyadic.pow2(-n - 1)

    def test_three_quarters_then_half(self):
        rho = from_infimum_sequence([[ONE], [Dyadic(3, 2)], [HALF]], stage=0, depth=4)
        assert rho.value("1") == Dyadic(3, 2) * HALF
        assert rho.value("11") == HALF * QUARTER

    def test_rows_may_be_callables(self):
        rising = lambda s: HALF if s < 2 else ONE
        rho = infimum_semimeasure([[ONE], rising], depth=2)
        assert rho.value("0", 0) == QUARTER
        assert rho.value("0", 5) == HALF

    def test_rejects_values_above_one(self):
        with pytest.raises(ValueError):
            from_infimum_sequence([[Dyadic(3, 1)]], stage=0, depth=1)

    def test_rejects_an_empty_value_list(self):
        with pytest.raises(ValueError, match="non-empty"):
            from_infimum_sequence([[ONE], []], stage=0, depth=1)

    @given(st.lists(unit_dyadics(), min_size=1, max_size=4), st.integers(1, 4))
    def test_output_always_validates(self, row_values, depth):
        rows = [[ONE]] + [[v] for v in row_values]
        rho = from_infimum_sequence(rows, stage=0, depth=depth)
        assert validate(rho).ok

    def test_stage_monotone_when_rows_rise(self):
        rows = [[ONE], [QUARTER, HALF, Dyadic(3, 2)]]
        rho = infimum_semimeasure(rows, depth=3)
        for sigma in strings_up_to(3):
            values = [rho.value(sigma, s) for s in range(4)]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestLastStage:
    def test_each_staged_kind_knows_its_last_stage(self):
        uniform = uniform_measure()
        assert LeftCeSemiMeasure.constant(uniform).last == 0
        assert staged_from_json(stage_to_json(uniform)).last == 0
        assert staged_from_json({"kind": "constant", "stage": stage_to_json(uniform)}).last == 0
        assert infimum_semimeasure([[ONE], [QUARTER, HALF, Dyadic(3, 2)], [HALF]], depth=3).last == 2
        assert staged_from_json({"kind": "infimum", "rows": [["1/2^0"], ["1/2^2", "1/2^1"]], "depth": 1}).last == 1
        assert infimum_semimeasure([[ONE], lambda s: HALF], depth=2).last is None
        assert LeftCeSemiMeasure(lambda s: uniform).last is None

    def test_a_stage_past_the_last_is_the_last(self):
        def stage_fn(s):
            assert s <= 2, f"stage {s} read past the last stage"
            return uniform_measure().scaled(Dyadic.pow2(s - 2))

        rho = LeftCeSemiMeasure(stage_fn, last=2)
        assert rho.value("0", 10**9) == rho.value("0", 2) == HALF
        with pytest.raises(ValueError, match="^stage must be non-negative$"):
            rho.stage_at(-1)
        rows = [[ONE], [QUARTER, HALF, Dyadic(3, 2)]]
        clipped = infimum_semimeasure(rows, depth=3)
        for sigma in strings_up_to(3):
            assert clipped.value(sigma, 10**9) == from_infimum_sequence(rows, 10**9, 3).value(sigma)


class TestEnumerateLimsup:
    def test_two_step_emission(self):
        f = [[Dyadic(3, 2)] * 4, [Dyadic(9, 4)] * 4]
        assert enumerate_limsup(f, (0, 1, 0, 1)) == (Dyadic(3, 2), Dyadic(9, 4))

    def test_duplicates_suppressed(self):
        f = [[HALF] * 3]
        assert enumerate_limsup(f, (0, 0, 0)) == (HALF,)

    def test_dominated_index_never_emits(self):
        f = [[HALF, HALF], [Dyadic(3, 2), Dyadic(3, 2)]]
        assert enumerate_limsup(f, (1, 1)) == ()
        assert enumerate_limsup(f, (0, 1)) == (HALF,)


class TestTestDefeating:
    def test_first_entrant_gets_charged(self):
        fam = StagedFamily.from_events([(3, 2, "01")])
        rho = defeating_semimeasure([fam], stage=3)
        assert rho.value(EPSILON) == ONE
        assert rho.value("0") == HALF
        assert rho.value("01") == HALF
        assert rho.set_mass(tuple(fam.first_stages(2, 3))) == HALF
        assert rho.set_mass(tuple(fam.first_stages(2, 3))) > Dyadic.pow2(-2)

    def test_before_entry_only_slack(self):
        fam = StagedFamily.from_events([(3, 2, "01")])
        rho = defeating_semimeasure([fam], stage=2)
        assert rho.value(EPSILON) == ONE
        assert rho.value("0") == ZERO

    def test_components_stack_on_shared_string(self):
        fams = [
            StagedFamily.from_events([(0, 2, "01")]),
            StagedFamily.from_events([(0, 3, "01")]),
        ]
        rho = defeating_semimeasure(fams, stage=0)
        assert rho.value("01") == HALF + QUARTER

    def test_tie_break_prefers_earlier_stage_then_order(self):
        fam = StagedFamily.from_events([(2, 2, "11"), (1, 2, "10")])
        rho = defeating_semimeasure([fam], stage=2)
        assert rho.value("10") == HALF
        assert rho.value("11") == ZERO

    def test_empty_families_slack_only(self):
        rho = defeating_semimeasure([], stage=5)
        assert rho.value(EPSILON) == ONE
        assert rho.value("0") == ZERO and rho.value("1") == ZERO

    @given(seeds)
    def test_charged_levels_beat_their_bound(self, seed):
        """Whenever level e+2 is non-empty its mass exceeds 2^-(e+2)."""
        rng = random.Random(seed)
        fams = []
        for _e in range(rng.randint(1, 4)):
            events = []
            for _ in range(rng.randint(0, 3)):
                level = rng.randint(0, 5)
                s = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
                events.append((rng.randint(0, 4), level, s))
            fams.append(StagedFamily.from_events(events))
        stage = rng.randint(0, 4)
        rho = defeating_semimeasure(fams, stage=stage)
        assert validate(rho).ok and rho.strict
        for e, fam in enumerate(fams):
            members = tuple(fam.first_stages(e + 2, stage))
            if members:
                assert rho.set_mass(members) > Dyadic.pow2(-(e + 2))


class TestStageTables:
    @given(seeds)
    def test_random_tables_are_superadditive_by_construction(self, seed):
        table = random_table(random.Random(seed), depth=3)
        rho = table_semimeasure(table, tail=TailRule.vanish())
        assert validate(rho).ok

    def test_scaled_loses_strictness(self):
        scaled = uniform_measure().scaled(HALF)
        assert not scaled.strict
        assert scaled.value(EPSILON) == HALF
