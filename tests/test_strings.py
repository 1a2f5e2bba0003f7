"""Cylinder-set algebra: normalization, refinement, measure, intersection."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import string_sets
from helpers import (
    as_fraction,
    oracle_cylinder_leaves,
    oracle_intersection_leaves,
    reference_intersect_sets,
    reference_is_prefix_free,
    reference_prefix_free_normalize,
)
from semimeasures import (
    Dyadic,
    EPSILON,
    HALF,
    ONE,
    ParseError,
    ZERO,
    extend_set,
    intersect_sets,
    is_prefix_free,
    lebesgue_of_set,
    leading_ones,
    prefix_free_normalize,
    strings_up_to,
)
from semimeasures.strings import StagedFamily, all_strings, canon, check_bits, comparable


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

    @given(string_sets)
    def test_matches_leaf_counting(self, strings):
        """lebesgue_of_set equals the fraction of deep leaves covered."""
        depth = max((len(s) for s in strings), default=0)
        leaves = oracle_cylinder_leaves(strings, depth)
        assert as_fraction(lebesgue_of_set(strings)) == Fraction(len(leaves), 1 << depth)

    @given(string_sets)
    def test_normalization_invariant(self, strings):
        assert lebesgue_of_set(strings) == lebesgue_of_set(prefix_free_normalize(strings))


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


@st.composite
def messy_string_sets(draw) -> list[str]:
    """Up to ~60 strings of length <= 10, salted with duplicates and prefixes."""
    base = draw(st.lists(st.text(alphabet="01", max_size=10), max_size=40))
    cuts = draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 10)), max_size=20))
    salted = base + [base[k % len(base)][:cut] for k, cut in cuts if base]
    return draw(st.permutations(salted))


class TestMatchesPairwiseReference:
    """The indexed antichain functions return exactly the pairwise results."""

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


class TestStagedFamily:
    def test_levels_are_cumulative(self):
        fam = StagedFamily.from_events([(0, 2, "01"), (3, 2, "11"), (1, 1, "0")])
        assert fam.level_at(2, 0) == ("01",)
        assert fam.level_at(2, 2) == ("01",)
        assert fam.level_at(2, 3) == ("01", "11")
        assert fam.level_at(1, 5) == ("0",)
        assert fam.level_at(0, 5) == ()

    def test_first_stages(self):
        fam = StagedFamily.from_events([(4, 0, "1"), (3, 0, "0"), (2, 0, "1"), (5, 0, "1")])
        assert fam.first_stages(0, 10) == {"1": 2, "0": 3}
        assert list(fam.first_stages(0, 10)) == ["1", "0"]
        assert fam.first_stages(0, 2) == {"1": 2}
        assert fam.first_stages(0, 1) == {}
        assert fam.level_at(0, 10) == ("1", "0")

    def test_rejects_bad_events(self):
        with pytest.raises(ValueError):
            StagedFamily.from_events([(-1, 0, "0")])
        with pytest.raises(ParseError):
            StagedFamily.from_events([(0, 0, "2")])
