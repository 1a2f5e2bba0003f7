"""Null-cover tests over semi-measures and the transformations between them."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    QUARTER,
    oracle_intersection_leaves,
    random_antichain,
    random_bits,
    random_stage,
    reference_ones_prefix_filter,
    reference_pullback_test,
    reference_shift_for_domination,
)
from semimeasures import (
    HALF,
    ONE,
    CertificateError,
    Component,
    Dyadic,
    GeneralizedTest,
    MLTest,
    MonotoneFunctional,
    ParseError,
    PreconditionError,
    SemiMeasureStage,
    TailRule,
    geometric_semimeasure,
    induced_semimeasure,
    intersect_tests,
    lebesgue_of_set,
    ones_prefix_filter,
    passes_at_depth,
    pullback_test,
    shift_for_domination,
    table_semimeasure,
    tilt_by_ones,
    uniform_measure,
    validate_generalized_test,
    validate_ml_test,
)
from semimeasures.strings import CylinderSet


def spine_test(base, count=5):
    """Levels U_i = {0^i}: uniform mass exactly 2^-i per level."""

    return MLTest.build({i: ["0" * i] for i in range(1, count + 1)}, base)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class TestValidate:
    def test_exact_bounds_pass(self):
        assert validate_ml_test(spine_test(uniform_measure())) is None

    def test_overweight_level_reported(self):
        test = MLTest.build({1: ["0", "1"]}, uniform_measure())
        violation = validate_ml_test(test)
        assert violation is not None
        assert violation.level == 1
        assert violation.mass == ONE
        assert violation.bound == HALF

    def test_level_zero_admits_everything(self):
        assert validate_ml_test(MLTest.build({0: [""]}, uniform_measure())) is None

    def test_masses_are_taken_after_normalisation(self):
        test = MLTest.build({1: ["0", "00", "01"]}, uniform_measure())
        assert validate_ml_test(test) is None

    @pytest.mark.parametrize(
        "decay, message",
        [
            ({0: True}, "decay level must be an integer, got True"),
            ({1: 1.0}, "decay level must be an integer, got 1.0"),
            ({"1": 1}, "decay accuracy must be an integer, got '1'"),
            ({-1: 0}, "decay accuracy must be non-negative"),
            ({1: -1}, "decay level must be non-negative"),
        ],
    )
    def test_decay_is_read_as_counts(self, decay, message):
        with pytest.raises(ValueError) as info:
            MLTest.build({0: [""], 1: ["0"]}, uniform_measure(), decay)
        assert str(info.value) == message

    def test_negative_level_index_rejected(self):
        with pytest.raises(ValueError):
            MLTest.build({-1: []}, uniform_measure())

    @pytest.mark.parametrize("index", [1.5, 1.0, "1", True], ids=repr)
    def test_level_index_must_be_an_int(self, index):
        with pytest.raises(ValueError) as info:
            MLTest.build({0: [""], index: ["0"]}, uniform_measure())
        assert str(info.value) == f"level index must be an integer, got {index!r}"

    def test_generalized_modulus_checked(self):
        test = GeneralizedTest.build(
            {0: ["0", "1"], 5: ["0" * 5]},
            uniform_measure(),
            decay={1: 5},
        )
        assert validate_generalized_test(test) is None

    def test_generalized_violation_reported(self):
        test = GeneralizedTest.build({0: ["0"]}, uniform_measure(), decay={3: 0})
        violation = validate_generalized_test(test)
        assert violation is not None
        assert violation.level == 0
        assert violation.mass == HALF
        assert violation.bound == Dyadic(1, 3)

    def test_generalized_missing_level_rejected(self):
        test = GeneralizedTest.build({0: ["0"]}, uniform_measure(), decay={1: 7})
        with pytest.raises(ValueError):
            validate_generalized_test(test)

    def test_generalized_test_is_the_same_type(self):
        assert GeneralizedTest is MLTest
        assert validate_generalized_test is validate_ml_test
        assert MLTest.build({0: [""]}, uniform_measure()).decay is None

    @pytest.mark.parametrize("build", [
        lambda levels: MLTest.build(levels, uniform_measure()),
        lambda levels: GeneralizedTest.build(levels, uniform_measure(), decay={0: 0}),
    ], ids=["standard", "generalized"])
    @pytest.mark.parametrize("levels, bad", [({0: ["2"]}, "2"), ({0: ["0", "1"], 1: ["0", "0x"]}, "0x")])
    def test_build_checks_every_member(self, build, levels, bad):
        """A bad member fails when the test is built, not at its first mass read."""
        with pytest.raises(ParseError, match=f"^not a binary string: {bad!r}$"):
            build(levels)

    def test_levels_are_cylinder_sets(self):
        test = MLTest.build({1: ["1", "0", "00"]}, uniform_measure())
        assert isinstance(test.levels[1], CylinderSet)
        assert test.levels[1] == ("0", "1", "00")
        assert test.levels[1].minimal == ("0", "1")
        assert MLTest.build(test.levels, test.base).levels[1] is test.levels[1]

    @given(st.integers(0, 2**32 - 1))
    def test_standard_test_is_the_identity_modulus(self, seed):
        rng = random.Random(seed)
        base = random_stage(rng, depth=2, strict=rng.random() < 0.5, tilt_allowed=True)
        indices = rng.sample(range(6), rng.randint(1, 4))
        levels = {i: random_antichain(rng, max_len=4, draws=rng.randint(0, 6)) for i in indices}
        standard = MLTest.build(levels, base)
        explicit = MLTest.build(levels, base, decay={i: i for i in levels})
        assert explicit.decay is not None
        assert validate_ml_test(standard) == validate_ml_test(explicit)


# ---------------------------------------------------------------------------
# Pullback onto the fair coin
# ---------------------------------------------------------------------------


class TestPullback:
    def test_identity_pullback_is_the_same_test(self):
        test = MLTest.build({1: ["0"], 2: ["00"]}, uniform_measure())
        pulled = pullback_test(test, MonotoneFunctional.identity(), stage=4)
        assert pulled.levels[1] == ("0",)
        assert pulled.levels[2] == ("00",)
        assert validate_ml_test(pulled) is None

    def test_members_pull_back_to_their_preimages(self):
        phi = MonotoneFunctional.constant([("00", "01")])
        base = induced_semimeasure(phi, stage=0, depth=2)
        test = MLTest.build({2: ["01"]}, base)
        assert validate_ml_test(test) is None
        pulled = pullback_test(test, phi, stage=0)
        assert pulled.levels[2] == ("00",)
        assert validate_ml_test(pulled) is None

    def test_empty_levels_survive(self):
        test = MLTest.build({3: []}, uniform_measure())
        pulled = pullback_test(test, MonotoneFunctional.identity(), stage=2)
        assert pulled.levels[3] == ()

    def test_base_mismatch_rejected(self):
        phi = MonotoneFunctional.constant([("00", "01")])
        test = MLTest.build({1: ["0"]}, uniform_measure())
        with pytest.raises(CertificateError) as exc:
            pullback_test(test, phi, stage=0)
        assert exc.value.witness == "0"


# ---------------------------------------------------------------------------
# Re-indexing under domination
# ---------------------------------------------------------------------------


class TestShiftForDomination:
    def test_unit_constant_keeps_indices(self):
        test = spine_test(uniform_measure())
        shifted = shift_for_domination(test, ONE, uniform_measure())
        assert shifted.levels == test.levels
        assert validate_ml_test(shifted) is None

    def test_factor_two_shifts_by_one(self):
        doubled = table_semimeasure(
            {"": ONE, "0": ONE, "1": Dyadic(0)}, tail=TailRule.uniform()
        )
        test = spine_test(uniform_measure())
        shifted = shift_for_domination(test, Dyadic(2), doubled)
        assert sorted(shifted.levels) == [0, 1, 2, 3, 4]
        assert shifted.levels[1] == ("00",)
        assert validate_ml_test(shifted) is None

    def test_factor_four_drops_low_levels(self):
        test = spine_test(uniform_measure())
        shifted = shift_for_domination(test, Dyadic(4), uniform_measure())
        assert sorted(shifted.levels) == [0, 1, 2, 3]
        assert shifted.levels[0] == ("00",)

    def test_domination_certificate_checked_on_members(self):
        test = MLTest.build({1: ["0"]}, geometric_semimeasure(QUARTER))
        with pytest.raises(CertificateError) as exc:
            shift_for_domination(test, ONE, uniform_measure())
        assert exc.value.witness == "0"

    def test_constant_below_one_rejected(self):
        with pytest.raises(ValueError):
            shift_for_domination(spine_test(uniform_measure()), HALF, uniform_measure())

    def test_the_shift_is_computed_not_searched(self, monkeypatch):
        """Counted, not timed: a test-side wrapper counts the calls of
        ``Dyadic.pow2``.  At c = 2^1000 the shift k = 1000 comes from c's
        bit length, and each kept level takes at most one power, where a
        search over k = 0, 1, ... would build 1,001 powers first."""
        c = Dyadic.pow2(1000)
        test = MLTest.build({i: ["0" * i] for i in range(1000, 1004)}, uniform_measure())
        calls = []
        pow2 = Dyadic.pow2
        monkeypatch.setattr(Dyadic, "pow2", classmethod(lambda _cls, k: calls.append(k) or pow2(k)))
        shifted = shift_for_domination(test, c, uniform_measure())
        assert shifted.levels == {i - 1000: level for i, level in test.levels.items()}
        assert len(calls) <= len(test.levels)


# ---------------------------------------------------------------------------
# Filtering behind a ones prefix
# ---------------------------------------------------------------------------


class TestOnesPrefixFilter:
    def test_unit_spine_keeps_gated_members(self):
        tilted = tilt_by_ones(uniform_measure())
        test = MLTest.build({2: ["10"]}, tilted)
        assert validate_ml_test(test) is None
        filtered = ones_prefix_filter(test, 1, uniform_measure())
        assert filtered.levels[1] == ("10",)
        assert validate_ml_test(filtered) is None

    def test_zero_spine_gates_on_a_leading_zero(self):
        tilted = tilt_by_ones(uniform_measure())
        test = MLTest.build({1: ["00", "11"]}, tilted)
        filtered = ones_prefix_filter(test, 0, uniform_measure())
        assert filtered.levels[1] == ("00",)

    def test_levels_below_the_spine_are_dropped(self):
        tilted = tilt_by_ones(uniform_measure())
        test = MLTest.build({0: [""], 2: ["10"]}, tilted)
        filtered = ones_prefix_filter(test, 1, uniform_measure())
        assert sorted(filtered.levels) == [1]

    def test_factor_identity_checked_exactly(self):
        test = MLTest.build({2: ["10"]}, uniform_measure())
        with pytest.raises(CertificateError):
            ones_prefix_filter(test, 1, uniform_measure())

    def test_negative_spine_rejected(self):
        test = MLTest.build({1: ["0"]}, tilt_by_ones(uniform_measure()))
        with pytest.raises(ValueError):
            ones_prefix_filter(test, -1, uniform_measure())


# ---------------------------------------------------------------------------
# Certificates from int rows against the per-member references
# ---------------------------------------------------------------------------


def outcome(transform, *args):
    """Levels, base and decay of the result, or the error's message and witness."""
    try:
        out = transform(*args)
    except CertificateError as exc:
        return ("error", str(exc), exc.witness)
    return ("ok", dict(out.levels), out.base, out.decay)


def random_levels(rng: random.Random, count: int, max_len: int) -> dict[int, tuple[str, ...]]:
    return {i: random_antichain(rng, max_len=max_len, draws=rng.randint(0, 5)) for i in range(count)}


class TestTransformsMatchReferences:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["induced", "perturbed", "unrelated"]))
    def test_pullback(self, seed, kind):
        rng = random.Random(seed)
        depth = rng.randint(1, 4)
        pairs = [(random_bits(rng, 5), random_bits(rng, depth + 1)) for _ in range(rng.randint(0, 10))]
        phi = MonotoneFunctional.from_events((rng.randint(0, 2), i, o) for i, o in pairs)
        stage = rng.randint(0, 2)
        levels = random_levels(rng, 3, depth)
        members = MLTest.build(levels, uniform_measure()).members()
        probe = max((len(s) for s in members), default=0)
        if kind == "unrelated":
            base = random_stage(rng, depth=rng.randint(0, 3), strict=False, tilt_allowed=True)
        else:
            table = dict(induced_semimeasure(phi, stage, probe).components[0].table)
            if kind == "perturbed" and members:
                # disagree at the last member only, so earlier ones pass
                table[members[-1]] = table[members[-1]] + Dyadic(1, 7)
            base = SemiMeasureStage((Component.build(ONE, table, tail=TailRule.vanish()),), strict=False)
        test = MLTest.build(levels, base)
        got = outcome(pullback_test, test, phi, stage)
        assert got == outcome(reference_pullback_test, test, phi, stage)
        if kind == "perturbed" and members:
            assert got[0] == "error" and got[2] == members[-1]
        if kind == "induced":
            assert got[0] == "ok"

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([ONE, Dyadic(3, 1), Dyadic(5, 2), Dyadic(2), Dyadic(5, 1), Dyadic(4), Dyadic(2**40 + 1)]),
        st.booleans(),
    )
    def test_shift_for_domination(self, seed, c, scaled):
        rng = random.Random(seed)
        base = random_stage(rng, depth=rng.randint(0, 3), tilt_allowed=True)
        if scaled:
            dominated = base.scaled(Dyadic(rng.randint(1, 8), 2))
        else:
            dominated = random_stage(rng, depth=rng.randint(0, 3), strict=False, tilt_allowed=True)
        test = MLTest.build(random_levels(rng, 5, 5), base)
        assert outcome(shift_for_domination, test, c, dominated) == outcome(
            reference_shift_for_domination, test, c, dominated
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
    def test_ones_prefix_filter(self, seed, j, matching):
        rng = random.Random(seed)
        base = random_stage(rng, depth=rng.randint(0, 3))
        tilted = tilt_by_ones(base)
        gate = "1" * j + "0"
        levels = {
            i: tuple({gate + random_bits(rng, 3) if rng.random() < 0.6 else random_bits(rng, 5) for _ in range(4)})
            for i in range(j + 3)
        }
        target = base if matching else random_stage(rng, depth=rng.randint(0, 3), strict=False)
        test = MLTest.build(levels, tilted)
        assert outcome(ones_prefix_filter, test, j, target) == outcome(
            reference_ones_prefix_filter, test, j, target
        )

    def test_domination_failing_after_the_first_member(self):
        """Members "0" and "1": "0" is dominated, "1" is not."""
        dominated = table_semimeasure({"": ONE, "0": Dyadic(0), "1": ONE}, tail=TailRule.vanish())
        test = MLTest.build({1: ["0", "1"]}, uniform_measure())
        for transform in (shift_for_domination, reference_shift_for_domination):
            with pytest.raises(CertificateError) as exc:
                transform(test, ONE, dominated)
            assert exc.value.witness == "1"
            assert str(exc.value) == "domination fails at '1'"

    def test_overweight_shifted_level(self):
        test = MLTest.build({1: ["0", "1"]}, uniform_measure())
        for transform in (shift_for_domination, reference_shift_for_domination):
            with pytest.raises(CertificateError) as exc:
                transform(test, ONE, uniform_measure())
            assert (str(exc.value), exc.value.witness) == ("shifted level 1 has mass 1/2^0", None)

    def test_pullback_mismatch_after_the_first_member(self):
        phi = MonotoneFunctional.constant([("0", "01"), ("1", "1")])  # "01" gets 1/2, not 1/4
        test = MLTest.build({1: ["1"], 2: ["01"]}, uniform_measure())
        for transform in (pullback_test, reference_pullback_test):
            with pytest.raises(CertificateError) as exc:
                transform(test, phi, 0)
            assert exc.value.witness == "01"
            assert str(exc.value) == "test base disagrees with the induced semi-measure at '01'"


# ---------------------------------------------------------------------------
# Intersecting level families
# ---------------------------------------------------------------------------


class TestIntersectTests:
    def test_single_family_passes_through(self):
        assert intersect_tests([["0"]], n=0) == ("0",)

    def test_two_families_refine_and_extend(self):
        result = intersect_tests([["0"], ["00", "01"]], n=1)
        assert result == ("000", "001", "010", "011")
        assert lebesgue_of_set(result) == HALF

    def test_disjoint_families_intersect_to_nothing(self):
        assert intersect_tests([["0"], ["1"]], n=1) == ()

    def test_default_depth_uses_every_family(self):
        assert intersect_tests([["0"], ["01"]]) == ("010", "011")

    def test_non_prefix_free_family_rejected(self):
        with pytest.raises(PreconditionError):
            intersect_tests([["0", "01"]], n=0)

    @pytest.mark.parametrize("families, error, message", [
        ([["0", "2"], ["00"]], ParseError, "not a binary string: '2'"),
        ([["00", "01"], ["0", "01", "2"]], ParseError, "not a binary string: '2'"),
        ([["0", "01"], ["2"]], PreconditionError, "family 0 is not prefix-free"),
        ([["0"], ["0", "01", "2"]], ParseError, "not a binary string: '2'"),
    ])
    def test_each_family_is_bit_checked_then_prefix_checked_in_order(self, families, error, message):
        with pytest.raises(error) as info:
            intersect_tests(families, 1)
        assert str(info.value) == message

    def test_depth_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            intersect_tests([["0"]], n=1)
        with pytest.raises(ValueError):
            intersect_tests([["0"]], n=-1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_matches_leaf_oracle(self, seed, count):
        rng = random.Random(seed)
        families = [random_antichain(rng, max_len=4, draws=3) for _ in range(count)]
        n = count - 1
        result = intersect_tests(families, n=n)
        depth = 4 + n
        got = {
            leaf
            for member in result
            for leaf in (member + tail for tail in _all_tails(depth - len(member)))
        }
        assert got == oracle_intersection_leaves(families, depth)

    @given(st.integers(0, 2**32 - 1))
    def test_mass_never_grows_with_more_families(self, seed):
        rng = random.Random(seed)
        families = [random_antichain(rng, max_len=4, draws=3) for _ in range(3)]
        masses = [
            lebesgue_of_set(intersect_tests(families, n=n)) for n in range(3)
        ]
        assert masses == sorted(masses, reverse=True)


def _all_tails(length: int):
    return ["".join(bits) for bits in __import__("itertools").product("01", repeat=length)]


# ---------------------------------------------------------------------------
# Three-valued membership
# ---------------------------------------------------------------------------


class TestPassesAtDepth:
    def test_deep_zero_prefix_is_captured_then_open(self):
        test = spine_test(uniform_measure(), count=6)
        statuses = {s.level: s.status for s in passes_at_depth(test, "0000")}
        assert all(statuses[i] == "captured" for i in range(1, 5))
        assert all(statuses[i] == "undetermined" for i in range(5, 7))

    def test_leading_one_escapes_every_level(self):
        test = spine_test(uniform_measure(), count=6)
        assert all(s.status == "escaped" for s in passes_at_depth(test, "1"))

    def test_empty_prefix_is_undetermined(self):
        test = spine_test(uniform_measure(), count=3)
        assert all(s.status == "undetermined" for s in passes_at_depth(test, ""))

    def test_reports_level_masses(self):
        test = spine_test(uniform_measure(), count=3)
        statuses = passes_at_depth(test, "0")
        assert [s.mass for s in statuses] == [Dyadic.pow2(-i) for i in (1, 2, 3)]

    def test_generalized_tests_supported(self):
        test = GeneralizedTest.build({2: ["00"]}, uniform_measure(), decay={2: 2})
        (status,) = passes_at_depth(test, "001")
        assert status.status == "captured"

    @pytest.mark.parametrize("prefix", ["2", " 0", None])
    def test_prefix_must_be_a_bit_string(self, prefix):
        test = MLTest.build({0: ["0"], 1: ["00", "01"]}, uniform_measure())
        with pytest.raises(ParseError, match="not a binary string"):
            passes_at_depth(test, prefix)

    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="01", max_size=4),
        st.text(alphabet="01", max_size=3),
    )
    def test_verdicts_are_stable_under_extension(self, seed, prefix, extra):
        rng = random.Random(seed)
        test = MLTest.build(
            {i: random_antichain(rng, max_len=3, draws=2) for i in range(2, 5)},
            uniform_measure(),
        )
        before = {s.level: s.status for s in passes_at_depth(test, prefix)}
        after = {s.level: s.status for s in passes_at_depth(test, prefix + extra)}
        for level, status in before.items():
            if status == "captured":
                assert after[level] == "captured"
            if status == "escaped":
                assert after[level] == "escaped"
