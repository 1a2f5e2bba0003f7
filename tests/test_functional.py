"""Monotone functionals: evaluation, induced measures, inversion, twins."""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

from helpers import (
    QUARTER,
    as_fraction,
    oracle_functional_eval,
    oracle_induced_mass,
    random_component,
    random_stage,
    reference_consistency_check,
    reference_from_events,
    reference_from_semimeasure,
    reference_identity,
    reference_induced_semimeasure,
    reference_pad_with_identity,
    reference_preimage_set,
    reference_universal_functional,
)
from semimeasures import (
    EPSILON,
    HALF,
    ONE,
    ZERO,
    Dyadic,
    LeftCeSemiMeasure,
    MonotoneFunctional,
    ParseError,
    PreconditionError,
    SemiMeasureStage,
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

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            # the 0-subtree is left before the 1-subtree; its outputs must
            # not stay on the chain of 1 and 10
            ([("0", "1"), ("00", "10"), ("01", "11"), ("1", "0"), ("10", "1")], (("1", "0"), ("10", "1"))),
            ([("0", "1"), ("00", "10"), ("01", "11"), ("1", "0"), ("10", "00")], None),
            ([("", ""), ("00", "0"), ("01", "1"), ("1", "11")], None),
            # siblings' outputs differ, a nephew's conflicts with its uncle only
            ([("00", "0"), ("01", "1"), ("010", "10"), ("011", "0")], (("01", "1"), ("011", "0"))),
        ],
    )
    def test_conflicts_after_a_left_subtree(self, pairs, expected):
        phi = MonotoneFunctional.constant(pairs)
        report = consistency_check(phi, stage=0)
        assert report == reference_consistency_check(phi, stage=0)
        assert (None if report.ok else (report.pair_a, report.pair_b)) == expected

    @pytest.mark.parametrize("length", [1, 5, 12])
    def test_conflict_at_the_deepest_input_of_a_long_chain(self, length):
        chain = [("0" * k, "0" * (k + 1)) for k in range(length)]
        phi = MonotoneFunctional.constant(chain + [("0" * length, "0" * (length - 1) + "1")])
        report = consistency_check(phi, stage=0)
        assert report == reference_consistency_check(phi, stage=0)
        assert (report.pair_a, report.pair_b) == (chain[-1], ("0" * length, "0" * (length - 1) + "1"))
        assert consistency_check(MonotoneFunctional.constant(chain), stage=0).ok

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            ([("0", "00"), ("0", "0"), ("0", "001"), ("01", "0010")], None),
            ([("0", "00"), ("0", "0"), ("0", "001"), ("01", "01")], (("0", "00"), ("01", "01"))),
            ([("1", "10"), ("1", "11"), ("1", "1")], (("1", "10"), ("1", "11"))),
            # the longest output comes from above, and one of the input's own conflicts with it
            ([("", "0000"), ("1", "00"), ("1", "01")], (("", "0000"), ("1", "01"))),
            ([("", "0"), ("1", "00"), ("1", "000"), ("11", "01"), ("11", "0")], (("1", "00"), ("11", "01"))),
        ],
    )
    def test_several_outputs_under_one_input(self, pairs, expected):
        phi = MonotoneFunctional.constant(pairs)
        report = consistency_check(phi, stage=0)
        assert report == reference_consistency_check(phi, stage=0)
        assert (None if report.ok else (report.pair_a, report.pair_b)) == expected


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

    def test_identity_has_no_finite_event_list(self):
        assert MonotoneFunctional.identity().events is None

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

    @given(pair_lists)
    def test_matches_a_scan_of_every_pair(self, pairs):
        """Every target of length <= 3, the root and unreached ones included."""
        phi = MonotoneFunctional.constant(pairs)
        for tau in strings_up_to(3):
            assert preimage_set(phi, tau, stage=0) == reference_preimage_set(phi, tau, 0)


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
            assert as_fraction(rho.value(s)) == oracle_induced_mass(pairs, s)


@st.composite
def closure_functionals(draw) -> MonotoneFunctional:
    """The functionals given by a rule rather than by events."""
    inner = MonotoneFunctional.constant(draw(pair_lists))
    return draw(
        st.sampled_from(
            [
                MonotoneFunctional.identity(),
                pad_with_identity(inner),
                pad_with_identity(MonotoneFunctional.identity()),
                universal_functional([inner, MonotoneFunctional.identity()]),
                universal_functional([MonotoneFunctional.identity(), inner, inner]),
            ]
        )
    )


class TestInducedMatchesReference:
    """The interval walk gives the same presentation as measuring every
    node's preimage bucket on its own."""

    @given(st.one_of(pair_lists, crowded_pair_lists, consistent_pair_lists()), st.integers(0, 6))
    @example([], 0)
    @example([], 3)
    @example([("", "01")], 1)
    @example([("", "")], 2)
    @example([("", "1"), ("0", "0")], 2)  # inconsistent: the root input under both children
    @example([("0", "1"), ("01", "1")], 1)  # an input and its extension in one bucket
    @example([("0", "10"), ("011", "11"), ("0", "1")], 1)
    @example([("01", "0"), ("00", "0"), ("1", "01")], 3)  # touching intervals
    def test_event_functionals(self, pairs, depth):
        phi = MonotoneFunctional.constant(pairs)
        assert induced_semimeasure(phi, 0, depth) == reference_induced_semimeasure(phi, 0, depth)

    staged_events = st.lists(
        st.tuples(st.integers(0, 3), st.text(alphabet="01", max_size=5), st.text(alphabet="01", max_size=5)),
        max_size=8,
    )

    @given(staged_events, st.integers(0, 4), st.integers(0, 5))
    def test_staged_events(self, events, stage, depth):
        phi = MonotoneFunctional.from_events(events)
        assert induced_semimeasure(phi, stage, depth) == reference_induced_semimeasure(phi, stage, depth)

    @given(closure_functionals(), st.integers(0, 4), st.integers(0, 4))
    def test_closure_functionals(self, phi, stage, depth):
        assert induced_semimeasure(phi, stage, depth) == reference_induced_semimeasure(phi, stage, depth)


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
        empty = MonotoneFunctional.from_events(())
        approx = domain_clopen_approx(empty, e=2, ell=1, modulus=lambda k, j: 0)
        assert approx.clopen == ()
        assert approx.intersection == ()
        assert approx.levels[0] == ("",)

    def test_halved_domain_with_constant_modulus(self):
        phi = MonotoneFunctional.from_events(((2, "0", "0"),))
        approx = domain_clopen_approx(phi, e=1, ell=1, modulus=lambda k, j: 2)
        assert approx.clopen == ("0",)
        assert lebesgue_of_set(approx.intersection) == HALF

    @pytest.mark.parametrize("stage", [-1, 1.5, True], ids=repr)
    def test_bad_modulus_certificate_rejected(self, stage):
        ident = MonotoneFunctional.identity()
        with pytest.raises(PreconditionError, match=f"^modulus returned a bad stage for k=0: {stage!r}$"):
            domain_clopen_approx(ident, e=1, ell=1, modulus=lambda k, j: stage)

    def test_negative_index_rejected(self):
        ident = MonotoneFunctional.identity()
        with pytest.raises(ValueError, match="^index and length must be non-negative$"):
            domain_clopen_approx(ident, e=-1, ell=0, modulus=lambda k, j: 0)


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

    def test_each_stage_is_built_once(self):
        """The final stage, built first for the strictness check, is reused
        when the replay reaches it."""
        built = []
        target = infimum_semimeasure([[HALF, ONE], [HALF, ONE]], depth=2)
        counted = LeftCeSemiMeasure(lambda s: built.append(s) or target.stage_at(s))
        from_semimeasure(counted, stage=2, depth=2)
        assert built == [2, 0, 1]

    def test_no_stage_past_the_last_is_replayed(self):
        built = []
        target = infimum_semimeasure([[HALF, ONE], [HALF, ONE]], depth=2)
        assert target.last == 1

        def stage_fn(s):
            built.append(s)
            assert len(built) <= 2, f"stage {s} read again: the replay ran past the last stage"
            return target.stage_at(s)

        phi = from_semimeasure(LeftCeSemiMeasure(stage_fn, target.last), stage=10**9, depth=2)
        assert built == [1, 0]
        assert phi.events == from_semimeasure(target, stage=1, depth=2).events

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
def infimum_targets(draw, exponent: int = 4) -> tuple[LeftCeSemiMeasure, int]:
    """Multi-stage infimum descriptors whose final stage is strict, with
    row values on the grid of 2^-exponent."""
    stages = draw(st.integers(1, 4))
    rows = []
    for r in range(draw(st.integers(1, 4))):
        steps = sorted(draw(st.lists(st.integers(0, 1 << exponent), min_size=stages, max_size=stages)))
        if r == 0:
            steps[-1] = 1 << exponent
        rows.append([Dyadic(k, exponent) for k in steps])
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

    @given(infimum_targets(exponent=30), st.integers(1, 4))
    def test_fine_infimum_values_under_a_wide_cap(self, target, depth):
        rho, stage = target
        got = _inversion(partial(from_semimeasure, granularity_cap=40), rho, stage, depth)
        assert not isinstance(got, str)
        assert got == _inversion(partial(reference_from_semimeasure, granularity_cap=40), rho, stage, depth)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_fine_random_mixtures_under_a_wide_cap(self, seed, depth):
        """Tables refined by 10 bits a level: values down to 2^-31, and
        finer below the frontier."""
        rng = random.Random(seed)
        weights = rng.choice([[ONE], [HALF, HALF]])
        comps = tuple(random_component(rng, w, depth=rng.randint(0, 3), extra_exponent=10) for w in weights)
        rho = LeftCeSemiMeasure.constant(SemiMeasureStage(comps, strict=True))
        got = _inversion(partial(from_semimeasure, granularity_cap=40), rho, 0, depth)
        assert not isinstance(got, str)
        assert got == _inversion(partial(reference_from_semimeasure, granularity_cap=40), rho, 0, depth)


FINE = Dyadic(1, 20)


class TestInversionErrors:
    """Errors come in the order of the stage-by-stage, node-by-node walk,
    with the same text as the reference."""

    @pytest.mark.parametrize(
        "tables, message",
        [
            # a decrease at stage 1 wins over a too-fine value at stage 2
            (
                [
                    {"": ONE, "0": HALF, "1": HALF},
                    {"": ONE, "0": QUARTER, "1": HALF},
                    {"": ONE, "0": QUARTER, "1": FINE},
                ],
                "stage values decreased at '0' (stage 1)",
            ),
            # and a too-fine value at stage 1 over a decrease at stage 2
            (
                [
                    {"": ONE, "0": QUARTER, "1": HALF},
                    {"": ONE, "0": FINE, "1": HALF},
                    {"": ONE, "0": ZERO, "1": HALF},
                ],
                "stage value 1/2^20 at '0' finer than 2^-16",
            ),
            # within one level the node order decides
            (
                [{"": ONE, "0": QUARTER, "1": HALF}, {"": ONE, "0": ZERO, "1": FINE}],
                "stage values decreased at '0' (stage 1)",
            ),
            (
                [{"": ONE, "0": QUARTER, "1": HALF}, {"": ONE, "0": FINE, "1": ZERO}],
                "stage value 1/2^20 at '0' finer than 2^-16",
            ),
            # the pool of '1' holds the quarter that '0' left over
            ([{"": ONE, "0": Dyadic(3, 2), "1": HALF}], "allocation pool too small by 1/2^2"),
            (
                [{"": ONE, "0": QUARTER, "1": QUARTER}, {"": ONE, "0": QUARTER, "1": ONE}],
                "allocation pool too small by 1/2^2",
            ),
        ],
    )
    def test_first_error_and_its_text(self, tables, message):
        rho = LeftCeSemiMeasure(lambda s: table_semimeasure(tables[s]))
        last = len(tables) - 1
        assert _inversion(from_semimeasure, rho, last, 1) == f"precondition: {message}"
        assert _inversion(reference_from_semimeasure, rho, last, 1) == f"precondition: {message}"

    def test_reads_level_rows_not_point_values(self, monkeypatch):
        targets = [
            (infimum_semimeasure([[HALF, ONE], [QUARTER, HALF], [ZERO, QUARTER]], depth=2), 1),
            (LeftCeSemiMeasure.constant(mix_stages([uniform_measure(2), dirac_spine("1")], [HALF, HALF])), 0),
        ]
        calls = []
        real = SemiMeasureStage.value

        def counted(self, sigma):
            calls.append(sigma)
            return real(self, sigma)

        monkeypatch.setattr(SemiMeasureStage, "value", counted)
        for rho, stage in targets:
            assert from_semimeasure(rho, stage, 3).events
        assert calls == []


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
        padded = pad_with_identity(MonotoneFunctional.from_events(()))
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


# ---------------------------------------------------------------------------
# Stage batches: one enumeration rule for every functional
# ---------------------------------------------------------------------------

event_lists = st.lists(
    st.tuples(st.integers(0, 5), st.text(alphabet="01", max_size=3), st.text(alphabet="01", max_size=3)),
    max_size=8,
)

CONSTANT = ("events", ((0, "0", "1"), (0, "11", "")))

# a functional as a tree: ("identity",), ("events", evs), ("pad", tree) or
# ("universal", [tree, ...])
functional_trees = st.recursive(
    st.one_of(st.just(("identity",)), event_lists.map(lambda evs: ("events", tuple(evs)))),
    lambda inner: st.one_of(
        inner.map(lambda t: ("pad", t)),
        st.lists(inner, max_size=3).map(lambda ts: ("universal", ts)),
    ),
    max_leaves=4,
)


def build_both(tree):
    """The package's functional for a tree and the reference pairs function."""
    kind = tree[0]
    if kind == "identity":
        return MonotoneFunctional.identity(), reference_identity()
    if kind == "events":
        return MonotoneFunctional.from_events(tree[1]), reference_from_events(tree[1])
    if kind == "pad":
        phi, ref = build_both(tree[1])
        return pad_with_identity(phi), reference_pad_with_identity(ref)
    built = [build_both(t) for t in tree[1]]
    return (
        universal_functional([phi for phi, _ref in built]),
        reference_universal_functional([ref for _phi, ref in built]),
    )


def has_identity(tree) -> bool:
    kind = tree[0]
    if kind in ("identity", "pad"):
        return True
    return kind == "universal" and any(has_identity(t) for t in tree[1])


class TestStageBatches:
    @given(functional_trees)
    @example(("pad", ("universal", [("identity",), CONSTANT])))
    @example(("universal", [("identity",), CONSTANT, ("events", ((2, "", "0"),))]))
    @example(("pad", ("pad", ("identity",))))
    def test_pairs_match_the_closure_references(self, tree):
        phi, ref = build_both(tree)
        for s in range(7):
            assert phi.pairs_at(s) == ref(s)
        assert (phi.last is None) == has_identity(tree)

    @given(event_lists)
    @example([(1, "0", "0"), (1, "0", "0"), (3, "0", "0"), (5, "1", "")])
    def test_event_functionals_are_their_events(self, events):
        phi = MonotoneFunctional.from_events(events)
        for s in range(8):
            assert phi.pairs_at(s) == {(i, o) for t, i, o in events if t <= s}
        assert phi.events == tuple(sorted(set(events)))
        assert phi.last == max((t for t, _i, _o in events), default=0)

    def test_stages_past_the_last_share_one_set(self):
        def batch(t):
            assert t <= 2, f"batch({t}) read past the last stage"
            return [(str(t), "")]

        clipped = MonotoneFunctional(batch, last=2)
        assert clipped.pairs_at(10**9) == clipped.pairs_at(2)
        phi = MonotoneFunctional.from_events([(0, "0", "0"), (2, "1", "1")])
        assert phi.pairs_at(10**9) == phi.pairs_at(phi.last)
        assert phi.pairs_at(3) == phi.pairs_at(2)

    def test_negative_event_stage_is_rejected(self):
        with pytest.raises(ValueError, match="stage must be non-negative"):
            MonotoneFunctional.from_events([(0, "0", "0"), (-1, "1", "1")])

    @pytest.mark.parametrize("stage", [2.7, 1.0, "1", True, None], ids=repr)
    def test_event_stage_must_be_an_int(self, stage):
        with pytest.raises(ValueError) as info:
            MonotoneFunctional.from_events([(0, "0", "0"), (stage, "1", "1")])
        assert str(info.value) == f"stage must be an integer, got {stage!r}"

    @pytest.mark.parametrize("stage", [1.5, True, "1"], ids=repr)
    @pytest.mark.parametrize(
        "read",
        [
            MonotoneFunctional.identity().pairs_at,
            MonotoneFunctional.constant([("0", "1")]).pairs_at,
            LeftCeSemiMeasure(lambda s: uniform_measure()).stage_at,
            LeftCeSemiMeasure.constant(uniform_measure()).stage_at,
        ],
        ids=["identity.pairs_at", "constant.pairs_at", "unbounded.stage_at", "constant.stage_at"],
    )
    def test_a_stage_read_must_be_an_int(self, read, stage):
        """Finite (``last`` set) or not, a stage read takes an int only."""
        with pytest.raises(ValueError) as info:
            read(stage)
        assert str(info.value) == f"stage must be an integer, got {stage!r}"
        with pytest.raises(ValueError, match="^stage must be non-negative$"):
            read(-1)

    def test_event_bits_are_checked(self):
        with pytest.raises(ParseError):
            MonotoneFunctional.from_events([(0, "0", "2")])

    def test_universal_of_finite_members_is_finite(self):
        family = [MonotoneFunctional.constant([("0", "0")]), MonotoneFunctional.from_events([(3, "", "1")])]
        assert universal_functional(family).last == 3
        assert universal_functional(family + [MonotoneFunctional.identity()]).last is None
        assert pad_with_identity(family[0]).last is None
