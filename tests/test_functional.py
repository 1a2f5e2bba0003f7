"""Monotone functionals: evaluation, induced measures, inversion, twins."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    as_fraction,
    oracle_functional_eval,
    oracle_induced_mass,
    random_stage,
    reference_consistency_check,
    reference_from_semimeasure,
)
from semimeasures import (
    EPSILON,
    HALF,
    ONE,
    ZERO,
    Dyadic,
    LeftCeSemiMeasure,
    MonotoneFunctional,
    PreconditionError,
    consistency_check,
    dirac_spine,
    domain_clopen_approx,
    eval_on_string,
    expansion_bits,
    from_semimeasure,
    geometric_semimeasure,
    induced_semimeasure,
    infimum_semimeasure,
    lebesgue_of_set,
    mirror_pair,
    mix_stages,
    pad_with_identity,
    preimage_set,
    reach_set,
    strings_up_to,
    table_semimeasure,
    tilt_by_ones,
    uniform_measure,
    universal_functional,
    validate,
)
from semimeasures.strings import comparable

QUARTER = Dyadic(1, 2)

pair_lists = st.lists(
    st.tuples(st.text(alphabet="01", max_size=4), st.text(alphabet="01", max_size=4)),
    max_size=6,
)

# short strings, so most prefix chains hold several conflicts
crowded_pair_lists = st.lists(
    st.tuples(st.text(alphabet="01", max_size=2), st.text(alphabet="01", max_size=2)),
    min_size=3,
    max_size=8,
)


@st.composite
def consistent_pair_lists(draw) -> list[tuple[str, str]]:
    """Pairs of a monotone map: flip the bits under a fixed mask, then drop
    a fixed number of trailing bits, so comparable inputs map to comparable
    outputs."""
    mask = draw(st.text(alphabet="01", min_size=8, max_size=8))
    cut = draw(st.integers(0, 2))
    inputs = draw(st.lists(st.text(alphabet="01", max_size=8), max_size=12))
    flip = lambda i: "".join("1" if a != b else "0" for a, b in zip(i, mask))
    return [(i, flip(i)[: max(0, len(i) - cut)]) for i in inputs]


# ---------------------------------------------------------------------------
# Consistency checking
# ---------------------------------------------------------------------------


class TestConsistency:
    def test_comparable_inputs_need_comparable_outputs(self):
        phi = MonotoneFunctional.constant([("0", "0"), ("00", "1")])
        report = consistency_check(phi, stage=0)
        assert not report.ok
        assert {report.pair_a, report.pair_b} == {("0", "0"), ("00", "1")}

    def test_equal_inputs_with_diverging_outputs_flagged(self):
        phi = MonotoneFunctional.constant([("0", "00"), ("0", "11")])
        assert not consistency_check(phi, stage=0).ok

    def test_chain_of_refinements_is_consistent(self):
        phi = MonotoneFunctional.constant([("0", "0"), ("00", "01"), ("000", "011")])
        assert consistency_check(phi, stage=0).ok

    def test_incomparable_inputs_are_unconstrained(self):
        phi = MonotoneFunctional.constant([("0", "000"), ("1", "111")])
        assert consistency_check(phi, stage=0).ok

    @given(pair_lists)
    def test_matches_pairwise_oracle(self, pairs):
        phi = MonotoneFunctional.constant(pairs)
        brute_ok = all(
            comparable(oa, ob)
            for ia, oa in pairs
            for ib, ob in pairs
            if comparable(ia, ib)
        )
        assert consistency_check(phi, stage=0).ok == brute_ok

    @given(st.one_of(pair_lists, crowded_pair_lists, consistent_pair_lists()))
    @example([("", "0"), ("0", "1"), ("0", "11")])  # two conflicts on one chain
    def test_report_matches_the_pairwise_reference(self, pairs):
        phi = MonotoneFunctional.constant(pairs)
        assert consistency_check(phi, stage=0) == reference_consistency_check(phi, stage=0)

    @given(consistent_pair_lists())
    def test_monotone_maps_are_consistent(self, pairs):
        assert consistency_check(MonotoneFunctional.constant(pairs), stage=0).ok


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class TestEval:
    def test_longest_applicable_pair_wins(self):
        phi = MonotoneFunctional.constant([("0", "0"), ("01", "00")])
        assert eval_on_string(phi, "011", stage=0) == "00"

    def test_no_applicable_pair_yields_empty_output(self):
        phi = MonotoneFunctional.constant([("0", "0"), ("01", "00")])
        assert eval_on_string(phi, "1", stage=0) == EPSILON

    def test_identity_truncates_to_stage(self):
        ident = MonotoneFunctional.identity()
        assert eval_on_string(ident, "0110", stage=2) == "01"
        assert eval_on_string(ident, "0110", stage=6) == "0110"

    @given(st.text(alphabet="01", max_size=6), st.integers(0, 5), st.integers(0, 6))
    def test_monotone_in_input_and_stage(self, sigma, stage, cut):
        ident = MonotoneFunctional.identity()
        prefix = sigma[: min(cut, len(sigma))]
        assert eval_on_string(ident, sigma, stage).startswith(
            eval_on_string(ident, prefix, stage)
        )
        assert eval_on_string(ident, sigma, stage + 1).startswith(
            eval_on_string(ident, sigma, stage)
        )

    @given(pair_lists, st.text(alphabet="01", max_size=5))
    def test_matches_oracle_when_consistent(self, pairs, sigma):
        phi = MonotoneFunctional.constant(pairs)
        if not consistency_check(phi, stage=0).ok:
            return
        assert eval_on_string(phi, sigma, stage=0) == oracle_functional_eval(pairs, sigma)


# ---------------------------------------------------------------------------
# Preimages and induced semi-measures
# ---------------------------------------------------------------------------


class TestPreimage:
    def test_union_of_witnessing_inputs(self):
        phi = MonotoneFunctional.constant([("00", "01"), ("01", "0")])
        assert preimage_set(phi, "0", stage=0) == ("00", "01")

    def test_only_outputs_extending_target_count(self):
        phi = MonotoneFunctional.constant([("00", "01"), ("01", "0")])
        assert preimage_set(phi, "01", stage=0) == ("00",)

    def test_unreached_target_has_empty_preimage(self):
        phi = MonotoneFunctional.constant([("00", "01"), ("01", "0")])
        assert preimage_set(phi, "1", stage=0) == ()

    def test_preimage_of_root_collects_all_mapped_inputs(self):
        phi = MonotoneFunctional.constant([("00", "01"), ("01", "0")])
        assert lebesgue_of_set(preimage_set(phi, "", stage=0)) == HALF


class TestInduced:
    def test_single_pair_pushes_quarter(self):
        phi = MonotoneFunctional.constant([("00", "01")])
        rho = induced_semimeasure(phi, stage=0, depth=2)
        assert rho.value("0") == QUARTER
        assert rho.value("01") == QUARTER
        assert rho.value("1") == ZERO
        assert rho.value("00") == ZERO

    def test_two_disjoint_inputs_merge_mass(self):
        phi = MonotoneFunctional.constant([("0", "0"), ("1", "0")])
        rho = induced_semimeasure(phi, stage=0, depth=1)
        assert rho.value("0") == ONE
        assert rho.value("1") == ZERO

    def test_identity_induces_uniform(self):
        rho = induced_semimeasure(MonotoneFunctional.identity(), stage=3, depth=3)
        lam = uniform_measure(3)
        for s in strings_up_to(3):
            assert rho.value(s) == lam.value(s)

    def test_strict_iff_every_input_is_mapped(self):
        total = MonotoneFunctional.constant([("0", "0"), ("1", "1")])
        assert induced_semimeasure(total, stage=0, depth=1).strict
        partial = MonotoneFunctional.constant([("0", "0")])
        assert not induced_semimeasure(partial, stage=0, depth=1).strict

    def test_values_never_decrease_with_stage(self):
        phi = MonotoneFunctional.from_events(
            ((0, "0", "0"), (2, "1", "1"), (4, "00", "00"))
        )
        for s in strings_up_to(2):
            values = [
                induced_semimeasure(phi, stage=t, depth=2).value(s) for t in range(5)
            ]
            assert values == sorted(values)

    @given(pair_lists)
    def test_matches_counting_oracle_and_validates(self, pairs):
        phi = MonotoneFunctional.constant(pairs)
        if not consistency_check(phi, stage=0).ok:
            return
        rho = induced_semimeasure(phi, stage=0, depth=2)
        assert validate(rho).ok
        for s in strings_up_to(2):
            assert as_fraction(rho.value(s)) == oracle_induced_mass(pairs, s, resolution=6)


# ---------------------------------------------------------------------------
# Reach sets and clopen domain approximations
# ---------------------------------------------------------------------------


class TestReach:
    def test_identity_reaches_everything(self):
        ident = MonotoneFunctional.identity()
        assert lebesgue_of_set(reach_set(ident, ell=2, stage=3)) == ONE

    def test_reach_lists_inputs_with_long_outputs(self):
        phi = MonotoneFunctional.constant([("00", "01")])
        assert reach_set(phi, ell=1, stage=0) == ("00",)

    def test_zero_length_reach_is_the_root(self):
        phi = MonotoneFunctional.constant([("00", "01")])
        assert reach_set(phi, ell=0, stage=0) == ("",)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            reach_set(MonotoneFunctional.identity(), ell=-1, stage=0)


class TestDomainApprox:
    def test_identity_domain_is_full(self):
        ident = MonotoneFunctional.identity()
        approx = domain_clopen_approx(ident, e=3, ell=2, modulus=lambda k, j: k + j)
        assert lebesgue_of_set(approx.clopen) == ONE
        assert lebesgue_of_set(approx.intersection) == ONE

    def test_empty_functional_has_empty_domain(self):
        empty = MonotoneFunctional.empty()
        approx = domain_clopen_approx(empty, e=2, ell=1, modulus=lambda k, j: 0)
        assert approx.clopen == ()
        assert approx.intersection == ()
        assert approx.levels[0] == ("",)

    def test_halved_domain_with_constant_modulus(self):
        phi = MonotoneFunctional.from_events(((2, "0", "0"),))
        approx = domain_clopen_approx(phi, e=1, ell=1, modulus=lambda k, j: 2)
        assert approx.clopen == ("0",)
        assert lebesgue_of_set(approx.intersection) == HALF

    def test_bad_modulus_certificate_rejected(self):
        ident = MonotoneFunctional.identity()
        with pytest.raises(PreconditionError):
            domain_clopen_approx(ident, e=1, ell=1, modulus=lambda k, j: -1)


# ---------------------------------------------------------------------------
# Inverting semi-measures into functionals
# ---------------------------------------------------------------------------


class TestFromSemimeasure:
    def test_uniform_round_trips(self):
        lam = LeftCeSemiMeasure.constant(uniform_measure(3))
        phi = from_semimeasure(lam, stage=0, depth=3)
        rho = induced_semimeasure(phi, stage=0, depth=3)
        for s in strings_up_to(3):
            assert rho.value(s) == lam.value(s, 0)

    def test_leftmost_cylinders_are_allocated_first(self):
        target = LeftCeSemiMeasure.constant(
            table_semimeasure({"": ONE, "0": HALF, "1": ZERO})
        )
        phi = from_semimeasure(target, stage=0, depth=1)
        assert preimage_set(phi, "0", stage=0) == ("0",)
        rho = induced_semimeasure(phi, stage=0, depth=1)
        assert rho.value("0") == HALF
        assert rho.value("1") == ZERO

    def test_point_mass_maps_every_input_to_the_spine(self):
        spine = LeftCeSemiMeasure.constant(dirac_spine("0"))
        phi = from_semimeasure(spine, stage=0, depth=3)
        for sigma in ("", "0", "1", "01", "111"):
            assert eval_on_string(phi, sigma, stage=0) == "000"
        assert induced_semimeasure(phi, stage=0, depth=3).value("000") == ONE

    def test_staged_target_round_trips_stagewise(self):
        target = infimum_semimeasure([[HALF, ONE], [HALF, ONE]], depth=2)
        phi = from_semimeasure(target, stage=1, depth=2)
        for t in range(2):
            rho = induced_semimeasure(phi, stage=t, depth=2)
            for s in strings_up_to(2):
                assert rho.value(s) == target.value(s, t)

    def test_non_strict_final_stage_rejected(self):
        leaky = LeftCeSemiMeasure.constant(uniform_measure(2).scaled(HALF))
        with pytest.raises(PreconditionError):
            from_semimeasure(leaky, stage=0, depth=2)

    def test_granularity_cap_rejected(self):
        fine = Dyadic(1, 20)
        target = LeftCeSemiMeasure.constant(
            table_semimeasure({"": ONE, "0": fine, "1": ONE - fine})
        )
        with pytest.raises(PreconditionError):
            from_semimeasure(target, stage=0, depth=1, granularity_cap=16)

    @given(st.integers(0, 2**32 - 1))
    def test_random_strict_stages_round_trip(self, seed):
        rng = random.Random(seed)
        target = LeftCeSemiMeasure.constant(random_stage(rng, depth=2, strict=True))
        phi = from_semimeasure(target, stage=0, depth=2)
        rho = induced_semimeasure(phi, stage=0, depth=2)
        for s in strings_up_to(2):
            assert rho.value(s) == target.value(s, 0)


@st.composite
def infimum_targets(draw) -> tuple[LeftCeSemiMeasure, int]:
    """Multi-stage infimum descriptors whose final stage is strict."""
    stages = draw(st.integers(1, 4))
    rows = []
    for r in range(draw(st.integers(1, 4))):
        steps = sorted(draw(st.lists(st.integers(0, 16), min_size=stages, max_size=stages)))
        if r == 0:
            steps[-1] = 16
        rows.append([Dyadic(k, 4) for k in steps])
    return infimum_semimeasure(rows, depth=len(rows) - 1), stages - 1


STOCK = (
    uniform_measure,
    lambda d: geometric_semimeasure(QUARTER, d),
    lambda d: geometric_semimeasure(HALF, d),
    lambda d: dirac_spine("0"),
    lambda d: dirac_spine("1"),
    lambda d: tilt_by_ones(uniform_measure(d)),
)


@st.composite
def stock_mixtures(draw) -> LeftCeSemiMeasure:
    """Strict mixtures: two to four stock presentations, weights in eighths summing to 1."""
    picks = draw(st.lists(st.sampled_from(STOCK), min_size=2, max_size=4))
    cuts = sorted(draw(st.sets(st.integers(1, 7), min_size=len(picks) - 1, max_size=len(picks) - 1)))
    units = [b - a for a, b in zip([0, *cuts], [*cuts, 8])]
    depth = draw(st.integers(0, 2))
    stage = mix_stages([make(depth) for make in picks], [Dyadic(u, 3) for u in units])
    assert stage.strict
    return LeftCeSemiMeasure.constant(stage)


def _inversion(invert, rho, stage, depth):
    try:
        return invert(rho, stage, depth).events
    except PreconditionError as exc:
        return f"precondition: {exc}"


class TestSpareCylinders:
    """Drawing on spare cylinders emits exactly the events of the allocator
    that derived each node's pool by subtraction."""

    @given(infimum_targets(), st.integers(1, 5))
    def test_multi_stage_infimum_descriptors(self, target, depth):
        rho, stage = target
        got = _inversion(from_semimeasure, rho, stage, depth)
        assert got == _inversion(reference_from_semimeasure, rho, stage, depth)

    @given(stock_mixtures(), st.integers(1, 5))
    def test_strict_mixtures_of_stock_presentations(self, rho, depth):
        got = _inversion(from_semimeasure, rho, 0, depth)
        assert not isinstance(got, str)
        assert got == _inversion(reference_from_semimeasure, rho, 0, depth)


# ---------------------------------------------------------------------------
# Mirror pairs
# ---------------------------------------------------------------------------


class TestMirrorPair:
    def test_three_stage_approximation_pools_two_prefixes(self):
        phi, psi = mirror_pair([ZERO, QUARTER, HALF])
        assert induced_semimeasure(phi, stage=2, depth=1).value("0") == ONE
        assert induced_semimeasure(psi, stage=2, depth=1).value("0") == ONE

    def test_twins_agree_at_every_stage(self):
        phi, psi = mirror_pair([ZERO, QUARTER, HALF, HALF, Dyadic(5, 3)])
        for t in range(5):
            rho = induced_semimeasure(phi, stage=t, depth=4)
            tau = induced_semimeasure(psi, stage=t, depth=4)
            for s in strings_up_to(4):
                assert rho.value(s) == tau.value(s)

    def test_supports_differ_while_measures_agree(self):
        phi, psi = mirror_pair([ZERO, QUARTER, HALF])
        assert phi.pairs_at(2) != psi.pairs_at(2)

    def test_all_mass_rides_the_zero_spine(self):
        phi, _ = mirror_pair([ZERO, QUARTER, HALF])
        rho = induced_semimeasure(phi, stage=2, depth=3)
        for s in strings_up_to(3):
            if s and set(s) != {"0"}:
                assert rho.value(s) == ZERO

    @given(
        st.lists(st.integers(0, 15), min_size=1, max_size=6).map(sorted),
        st.integers(1, 4),
    )
    def test_spine_value_counts_distinct_expansion_prefixes(self, sixteenths, n):
        approx = [Dyadic(k, 4) for k in sixteenths]
        phi, _ = mirror_pair(approx)
        final = len(approx) - 1
        rho = induced_semimeasure(phi, stage=final, depth=n)
        distinct = {expansion_bits(approx[s], n) for s in range(n, final + 1)}
        assert rho.value("0" * n) == Dyadic(len(distinct), n)

    def test_rejects_decreasing_and_overflowing_approximations(self):
        with pytest.raises(PreconditionError):
            mirror_pair([HALF, QUARTER])
        with pytest.raises(PreconditionError):
            mirror_pair([ZERO, ONE])


# ---------------------------------------------------------------------------
# Identity padding and the universal functional
# ---------------------------------------------------------------------------


class TestPadWithIdentity:
    def test_empty_functional_pads_to_half_uniform(self):
        padded = pad_with_identity(MonotoneFunctional.empty())
        rho = induced_semimeasure(padded, stage=3, depth=2)
        lam = uniform_measure(2)
        for s in strings_up_to(2):
            assert as_fraction(rho.value(s)) == as_fraction(lam.value(s)) / 2

    def test_identity_pads_to_uniform(self):
        padded = pad_with_identity(MonotoneFunctional.identity())
        rho = induced_semimeasure(padded, stage=4, depth=2)
        lam = uniform_measure(2)
        for s in strings_up_to(2):
            assert rho.value(s) == lam.value(s)

    def test_padding_averages_with_uniform(self):
        phi = MonotoneFunctional.constant([("00", "01")])
        base = induced_semimeasure(phi, stage=4, depth=2)
        mixed = induced_semimeasure(pad_with_identity(phi), stage=4, depth=2)
        lam = uniform_measure(2)
        for s in strings_up_to(2):
            expected = (as_fraction(base.value(s)) + as_fraction(lam.value(s))) / 2
            assert as_fraction(mixed.value(s)) == expected


class TestUniversalFunctional:
    def test_single_member_family_gets_half_of_uniform(self):
        universal = universal_functional([MonotoneFunctional.identity()])
        rho = induced_semimeasure(universal, stage=6, depth=2)
        lam = uniform_measure(2)
        for s in strings_up_to(2):
            assert as_fraction(rho.value(s)) == as_fraction(lam.value(s)) / 2

    def test_empty_family_maps_nothing(self):
        universal = universal_functional([])
        assert universal.pairs_at(5) == frozenset()

    def test_family_members_are_dominated(self):
        family = [
            MonotoneFunctional.identity(),
            MonotoneFunctional.constant([("0", "00")]),
        ]
        universal = universal_functional(family)
        rho = induced_semimeasure(universal, stage=8, depth=3)
        for index, member in enumerate(family):
            member_rho = induced_semimeasure(member, stage=8, depth=3)
            scale = as_fraction(Dyadic(1, index + 1))
            for s in strings_up_to(3):
                assert as_fraction(member_rho.value(s)) * scale <= as_fraction(rho.value(s))
