"""Cylinder-set algebra: normalization, refinement, measure, intersection."""

from __future__ import annotations

import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import messy_string_sets, string_sets
from helpers import (
    as_fraction,
    oracle_cylinder_leaves,
    oracle_intersection_leaves,
    reference_canon,
    reference_intersect_sets,
    reference_is_prefix_free,
    reference_prefix_free_normalize,
)
from semimeasures import (
    EPSILON,
    HALF,
    MLTest,
    MonotoneFunctional,
    ONE,
    ParseError,
    ZERO,
    check_domination,
    domain_clopen_approx,
    extend_set,
    intersect_sets,
    intersect_tests,
    is_prefix_free,
    lebesgue_of_set,
    leading_ones,
    preimage_set,
    prefix_free_normalize,
    reach_set,
    strings_up_to,
    uniform_measure,
)
from semimeasures.strings import CylinderSet, StagedFamily, all_strings, check_bits, comparable


class TestBasics:
    def test_check_bits_accepts_binary(self):
        assert check_bits("0101") == "0101"
        assert check_bits(EPSILON) == EPSILON

    @pytest.mark.parametrize("bad", ["012", "ab", "0 1", None, 7, "x01", "01\n", "2"])
    def test_check_bits_rejects_other(self, bad):
        with pytest.raises(ParseError):
            check_bits(bad)

    def test_all_strings_lex_order(self):
        assert list(all_strings(2)) == ["00", "01", "10", "11"]
        assert list(all_strings(0)) == [EPSILON]

    def test_strings_up_to_shortest_first(self):
        assert list(strings_up_to(1)) == [EPSILON, "0", "1"]

    @pytest.mark.parametrize(
        "strings, message",
        [
            (lambda: all_strings(1.5), "length must be an integer, got 1.5"),
            (lambda: all_strings(-1), "length must be non-negative"),
            (lambda: strings_up_to(True), "depth must be an integer, got True"),
        ],
        ids=["float-length", "negative-length", "bool-depth"],
    )
    def test_counts_are_checked(self, strings, message):
        with pytest.raises(ValueError) as info:
            list(strings())
        assert str(info.value) == message

    def test_strings_up_to_a_negative_depth_is_empty(self):
        assert list(strings_up_to(-1)) == []

    def test_leading_ones(self):
        assert leading_ones("110") == 2
        assert leading_ones("0") == 0
        assert leading_ones("1111") == 4
        assert leading_ones(EPSILON) == 0

    def test_comparable(self):
        assert comparable("0", "01")
        assert comparable("01", "0")
        assert not comparable("00", "01")


class TestNormalize:
    def test_minimal_members_kept(self):
        assert prefix_free_normalize(["0", "00", "1"]) == ("0", "1")

    def test_root_covers_everything(self):
        assert prefix_free_normalize([EPSILON, "0110"]) == (EPSILON,)

    def test_antichain_unchanged(self):
        assert prefix_free_normalize(["00", "01"]) == ("00", "01")

    @given(string_sets)
    def test_result_is_prefix_free(self, strings):
        assert is_prefix_free(prefix_free_normalize(strings))

    @given(string_sets)
    def test_idempotent(self, strings):
        once = prefix_free_normalize(strings)
        assert prefix_free_normalize(once) == once

    @given(string_sets)
    def test_same_open_set(self, strings):
        """Normalization preserves the denoted union of cylinders."""
        depth = max((len(s) for s in strings), default=0)
        assert oracle_cylinder_leaves(prefix_free_normalize(strings), depth) == (
            oracle_cylinder_leaves(strings, depth)
        )


class TestLebesgue:
    def test_partition_has_mass_one(self):
        assert lebesgue_of_set(["00", "01", "1"]) == ONE

    def test_absorbed_extension_not_counted(self):
        assert lebesgue_of_set(["0", "01"]) == HALF

    def test_empty_set(self):
        assert lebesgue_of_set([]) == ZERO

    @pytest.mark.parametrize("members, bad", [(["2"], "'2'"), (["1", "0 ", "x"], "'x'"), (["00", "2", "10"], "'2'")])
    def test_first_bad_member_is_named_in_canonical_order(self, members, bad):
        with pytest.raises(ParseError) as info:
            lebesgue_of_set(members)
        assert str(info.value) == f"not a binary string: {bad}"

    def test_a_member_extending_another_is_checked_too(self):
        """Normalisation would drop "0x" behind "0"; the check comes first."""
        with pytest.raises(ParseError) as info:
            lebesgue_of_set(["0", "0x"])
        assert str(info.value) == "not a binary string: '0x'"

    @given(string_sets)
    def test_matches_leaf_counting(self, strings):
        """lebesgue_of_set equals the fraction of deep leaves covered."""
        depth = max((len(s) for s in strings), default=0)
        leaves = oracle_cylinder_leaves(strings, depth)
        assert as_fraction(lebesgue_of_set(strings)) == Fraction(len(leaves), 1 << depth)

    @given(string_sets)
    def test_normalization_invariant(self, strings):
        assert lebesgue_of_set(strings) == lebesgue_of_set(prefix_free_normalize(strings))


class TestCylinderSet:
    def test_members_are_canonical_and_grouped_by_length(self):
        c = CylinderSet(["10", "0", "01", "0", "110", ""])
        assert c == (EPSILON, "0", "01", "10", "110")
        assert c.groups == [(0, [0]), (1, [0]), (2, [1, 2]), (3, [6])]
        assert c.minimal == (EPSILON,)
        assert c.minimal.minimal is c.minimal

    def test_a_prefix_free_set_is_its_own_minimal_set(self):
        c = CylinderSet(["1", "01", "00"])
        assert c.minimal is c
        assert CylinderSet(c) is c

    def test_the_empty_set(self):
        c = CylinderSet()
        assert c == () and c.groups == [] and c.minimal is c

    def test_a_dropped_set_is_freed_without_the_cycle_collector(self):
        """A set holds no reference to itself, so dropping it frees it: with
        the collector off, 200 dropped 500-member sets leave nothing held."""
        members = [format(k, "010b") for k in range(500)]
        started = not tracemalloc.is_tracing()
        gc.collect()
        gc.disable()
        try:
            if started:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                assert CylinderSet(members).minimal.groups
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            gc.enable()
            if started:
                tracemalloc.stop()
        assert held < 100_000

    @pytest.mark.parametrize("members, bad", [(["0", "0x"], "0x"), (["1", "2", "0 1"], "2"), (["01", "0 1", "1"], "0 1")])
    def test_every_member_is_checked_in_canonical_order(self, members, bad):
        with pytest.raises(ParseError, match=f"^not a binary string: {bad!r}$"):
            CylinderSet(members)

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: MLTest.build({0: [None]}, uniform_measure()), None),
            (lambda: uniform_measure().set_mass(["0", None]), None),
            (lambda: intersect_tests([["0", 1], ["1"]]), 1),
            (lambda: extend_set(["0", 1], 1), 1),
            (lambda: intersect_sets(["0", None], ["1"]), None),
        ],
        ids=["MLTest.build", "set_mass", "intersect_tests", "extend_set", "intersect_sets"],
    )
    def test_a_member_that_is_not_a_string_is_named(self, build, bad):
        with pytest.raises(ParseError, match=f"^not a binary string: {bad!r}$"):
            build()

    @pytest.mark.parametrize(
        "build, lone",
        [
            (lambda: CylinderSet("01"), "01"),
            (lambda: lebesgue_of_set("01"), "01"),
            (lambda: uniform_measure().set_mass("01"), "01"),
            (lambda: is_prefix_free("00"), "00"),
            (lambda: extend_set("1", 1), "1"),
            (lambda: MLTest.build({0: "01"}, uniform_measure()), "01"),
            (lambda: uniform_measure().values("01"), "01"),
            (lambda: check_domination(uniform_measure(), uniform_measure(), ONE, "01"), "01"),
        ],
        ids=["CylinderSet", "lebesgue_of_set", "set_mass", "is_prefix_free", "extend_set", "MLTest.build", "values",
             "check_domination"],
    )
    def test_a_lone_string_is_not_the_set_of_its_characters(self, build, lone):
        """Iterating "01" gives "0" and "1", a set of mass 1 under the fair
        coin; a lone ``str`` is refused, naming it."""
        with pytest.raises(ParseError, match=f"not the string {lone!r}$"):
            build()

    @given(messy_string_sets())
    def test_matches_the_references(self, strings):
        c = CylinderSet(strings)
        assert c == reference_canon(strings)
        assert c.minimal == reference_prefix_free_normalize(strings)
        assert [(n, p) for n, positions in c.groups for p in positions] == [(len(s), int(s or "0", 2)) for s in c]
        assert [n for n, _positions in c.groups] == sorted({len(s) for s in c})
        assert all(positions == sorted(set(positions)) for _n, positions in c.groups)


class TestExtendSet:
    def test_one_level_refinement(self):
        assert extend_set(["0"], 1) == ("00", "01")

    def test_identity_case(self):
        assert extend_set([EPSILON], 0) == (EPSILON,)

    def test_per_member_refinement(self):
        assert extend_set(["0", "11"], 1) == ("00", "01", "110", "111")

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            extend_set(["0", "00"], 1)

    def test_rejects_a_negative_depth(self):
        with pytest.raises(ValueError, match="^extension depth must be non-negative$"):
            extend_set(["0"], -1)

    @given(string_sets, st.integers(0, 3))
    def test_measure_preserved(self, strings, m):
        antichain = prefix_free_normalize(strings)
        assert lebesgue_of_set(extend_set(antichain, m)) == lebesgue_of_set(antichain)

    @given(string_sets, st.integers(0, 2), st.integers(0, 2))
    def test_composition_adds_depths(self, strings, m, k):
        antichain = prefix_free_normalize(strings)
        assert extend_set(extend_set(antichain, m), k) == extend_set(antichain, m + k)


class TestIntersectSubtract:
    def test_intersect_comparable_takes_longer(self):
        assert intersect_sets(["0"], ["00", "10"]) == ("00",)

    def test_intersect_disjoint(self):
        assert intersect_sets(["0"], ["1"]) == ()

    @given(string_sets, string_sets)
    def test_intersect_matches_leaf_oracle(self, a, b):
        a, b = prefix_free_normalize(a), prefix_free_normalize(b)
        got = intersect_sets(a, b)
        depth = max((len(s) for s in (*a, *b, *got)), default=0)
        assert oracle_cylinder_leaves(got, depth) == oracle_intersection_leaves([a, b], depth)

    @given(string_sets, string_sets)
    def test_results_are_antichains(self, a, b):
        a, b = prefix_free_normalize(a), prefix_free_normalize(b)
        assert is_prefix_free(intersect_sets(a, b))


class TestMatchesPairwiseReference:
    """The lex-pass antichain functions return exactly the pairwise results."""

    @given(messy_string_sets())
    def test_normalize(self, strings):
        assert prefix_free_normalize(strings) == reference_prefix_free_normalize(strings)

    @given(messy_string_sets())
    def test_is_prefix_free(self, strings):
        assert is_prefix_free(strings) == reference_is_prefix_free(strings)
        assert is_prefix_free(prefix_free_normalize(strings))

    @given(messy_string_sets(), messy_string_sets())
    def test_intersect(self, a, b):
        assert intersect_sets(a, b) == reference_intersect_sets(a, b)

    @given(messy_string_sets(), messy_string_sets())
    def test_intersect_of_antichains(self, a, b):
        a, b = prefix_free_normalize(a), prefix_free_normalize(b)
        assert intersect_sets(a, b) == reference_intersect_sets(a, b)

    def test_generators_are_read_once(self):
        members = ["0", "01", "1", "10", "0", EPSILON]
        assert prefix_free_normalize(iter(members)) == (EPSILON,)
        assert is_prefix_free(iter(["00", "01", "1"]))
        assert intersect_sets(iter(["0", "11"]), iter(["00", "1"])) == ("00", "11")

    @pytest.mark.parametrize(
        "strings, expected",
        [
            ([], True),
            ([EPSILON], True),
            ([EPSILON, EPSILON], True),
            (["01", "01"], True),
            ([EPSILON, "1"], False),
            (["1", "0110", "0"], False),
            (["00", "01", "10", "110"], True),
        ],
    )
    def test_is_prefix_free_cases(self, strings, expected):
        assert is_prefix_free(strings) is expected


def _unchecked_inputs(members):
    """A functional mapping each member, unchecked, onto "0" at stage 0."""
    return MonotoneFunctional(lambda t: [(x, "0") for x in members] if t == 0 else [], 0)


def _domain_sets(members):
    approx = domain_clopen_approx(_unchecked_inputs(members), 0, 1, lambda k, j: 0)
    return (*approx.levels, approx.clopen, approx.intersection)


SET_RETURNING = {
    "prefix_free_normalize": lambda xs: (prefix_free_normalize(xs),),
    "extend_set": lambda xs: (extend_set(xs, 1),),
    "intersect_sets": lambda xs: (intersect_sets(xs, ["0", "11"]), intersect_sets(["0", "11"], xs)),
    "intersect_tests": lambda xs: (intersect_tests([xs, ["0", "11"]]),),
    "preimage_set": lambda xs: (preimage_set(_unchecked_inputs(xs), "0", 0),),
    "reach_set": lambda xs: (reach_set(_unchecked_inputs(xs), 1, 0),),
    "DomainApprox": _domain_sets,
}


class TestEverySetIsACylinderSet:
    @pytest.mark.parametrize("name", SET_RETURNING)
    def test_the_result_is_a_cylinder_set(self, name):
        for result in SET_RETURNING[name](["01", "1", "000"]):
            assert type(result) is CylinderSet
            assert result.minimal is result

    @pytest.mark.parametrize("bad", ["2", "a"])
    @pytest.mark.parametrize("name", SET_RETURNING)
    def test_a_member_that_is_not_a_bit_string_is_a_parse_error(self, name, bad):
        """Each of these once returned a set holding the bad member, or
        dropped it behind a prefix, without a word."""
        with pytest.raises(ParseError, match=f"^not a binary string: {bad!r}$"):
            SET_RETURNING[name](["01", "1", bad])


class TestStagedFamily:
    def test_levels_are_cumulative(self):
        fam = StagedFamily.from_events([(0, 2, "01"), (3, 2, "11"), (1, 1, "0")])
        assert tuple(fam.first_stages(2, 0)) == ("01",)
        assert tuple(fam.first_stages(2, 2)) == ("01",)
        assert tuple(fam.first_stages(2, 3)) == ("01", "11")
        assert tuple(fam.first_stages(1, 5)) == ("0",)
        assert tuple(fam.first_stages(0, 5)) == ()

    def test_first_stages(self):
        fam = StagedFamily.from_events([(4, 0, "1"), (3, 0, "0"), (2, 0, "1"), (5, 0, "1")])
        assert fam.first_stages(0, 10) == {"1": 2, "0": 3}
        assert list(fam.first_stages(0, 10)) == ["1", "0"]
        assert fam.first_stages(0, 2) == {"1": 2}
        assert fam.first_stages(0, 1) == {}
        assert tuple(fam.first_stages(0, 10)) == ("1", "0")

    @pytest.mark.parametrize(
        "event, message",
        [
            ((1.9, 0, "0"), "stage must be an integer, got 1.9"),
            (("1", 0, "0"), "stage must be an integer, got '1'"),
            ((0, 2.0, "0"), "level must be an integer, got 2.0"),
            ((0, True, "0"), "level must be an integer, got True"),
            ((-1, 0.5, "0"), "level must be an integer, got 0.5"),
        ],
    )
    def test_event_indices_must_be_ints(self, event, message):
        with pytest.raises(ValueError) as info:
            StagedFamily.from_events([(0, 0, "1"), event])
        assert str(info.value) == message

    def test_rejects_bad_events(self):
        with pytest.raises(ValueError):
            StagedFamily.from_events([(-1, 0, "0")])
        with pytest.raises(ParseError):
            StagedFamily.from_events([(0, 0, "2")])
