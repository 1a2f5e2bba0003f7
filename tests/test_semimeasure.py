"""Presentations: evaluation, validation, mixtures, and staged constructions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import seeds, string_sets, unit_dyadics
from helpers import (
    as_fraction,
    oracle_level_sum,
    oracle_stage_mass,
    oracle_stage_value,
    random_bits,
    random_component,
    random_joint_stage,
    random_stage,
    random_table,
    random_tail,
    reference_component_value,
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
    default_family,
    dirac_spine,
    enumerate_limsup,
    from_infimum_sequence,
    geometric_semimeasure,
    infimum_semimeasure,
    mix_stages,
    mixture,
    strings_up_to,
    table_semimeasure,
    tilt_by_ones,
    uniform_measure,
    validate,
    validate_measure,
)
from semimeasures import test_defeating_semimeasure as defeating_semimeasure
from semimeasures.semimeasure import LeftCeSemiMeasure
from semimeasures.strings import StagedFamily

QUARTER = Dyadic(1, 2)


def example_two() -> SemiMeasureStage:
    """Half the fair coin plus half a leaky geometric decay."""
    return mix_stages(
        [uniform_measure(), geometric_semimeasure(QUARTER)], [HALF, HALF]
    )


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

    def test_factor_selects_child(self):
        rule = TailRule.split(QUARTER, HALF)
        assert rule.factor("0") == QUARTER
        assert rule.factor("1") == HALF


class TestComponentBuild:
    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            Component.build(ONE, {EPSILON: ONE, "0": HALF})

    def test_non_frontier_tail_key_rejected(self):
        with pytest.raises(ValueError):
            Component.build(ONE, {EPSILON: ONE}, tails={"00": TailRule.uniform()})

    def test_negative_tilt_rejected(self):
        with pytest.raises(ValueError):
            Component.build(ONE, {EPSILON: ONE}, tilt=-1)


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
        rho = example_two()
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

    @given(seeds, st.integers(0, 3))
    def test_matches_fraction_oracle(self, seed, extra_len):
        """Mixture evaluation agrees with a Fraction re-computation."""
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2, tilt_allowed=True)
        probe = "".join(rng.choice("01") for _ in range(rng.randint(0, 2 + extra_len)))
        assert as_fraction(stage.value(probe)) == oracle_stage_value(stage, probe)

    @given(seeds)
    def test_level_sum_matches_brute_force(self, seed):
        """Closed-form level masses equal the exhaustive sums."""
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2, tilt_allowed=True)
        sigma = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        for n in range(len(sigma), len(sigma) + 5):
            assert as_fraction(stage.level_mass(sigma, n)) == oracle_level_sum(
                stage.value, sigma, n
            )

    @given(seeds, st.integers(0, 3), st.integers(0, 2), st.text(alphabet="01", max_size=12))
    def test_tail_matches_per_bit_reference(self, seed, depth, tilt, below):
        """The closed-form tail equals the tail applied one bit at a time."""
        rng = random.Random(seed)
        comp = random_component(rng, depth=depth, tilt=tilt)
        frontier = "".join(rng.choice("01") for _ in range(depth))
        for cut in range(len(frontier + below) + 1):
            sigma = (frontier + below)[:cut]
            assert comp.value(sigma) == reference_component_value(comp, sigma)

    @pytest.mark.parametrize(
        "rule",
        [TailRule.vanish(), TailRule.split(ZERO, HALF), TailRule.split(QUARTER, ZERO), TailRule.uniform()],
    )
    def test_tail_with_zero_fractions(self, rule):
        comp = Component.build(Dyadic(3, 2), {EPSILON: ONE, "0": HALF, "1": Dyadic(1, 3)}, tail=rule, tilt=1)
        for below in ("", "0", "1", "01", "110", "0000000000", "111111111111"):
            for frontier in ("0", "1"):
                sigma = frontier + below
                assert comp.value(sigma) == reference_component_value(comp, sigma)
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
        rho = table_semimeasure(
            {EPSILON: ONE, "0": Dyadic(3, 2), "1": Dyadic(3, 2)}, tail=TailRule.vanish()
        )
        report = validate(rho)
        assert not report.ok
        assert report.node == EPSILON
        assert report.children == (Dyadic(3, 2), Dyadic(3, 2))

    def test_strict_root_below_one_flagged(self):
        rho = SemiMeasureStage(
            (Component.build(HALF, {EPSILON: ONE}, tail=TailRule.uniform()),), strict=True
        )
        report = validate(rho)
        assert not report.ok and report.node == EPSILON

    def test_root_above_one_flagged(self):
        rho = SemiMeasureStage(
            (Component.build(Dyadic(3, 1), {EPSILON: ONE}, tail=TailRule.uniform()),),
            strict=False,
        )
        assert not validate(rho).ok

    @given(seeds)
    def test_generated_stages_validate(self, seed):
        """The random generator only produces valid presentations."""
        stage = random_stage(random.Random(seed), depth=3, tilt_allowed=True)
        assert validate(stage).ok

    @given(seeds)
    def test_brute_force_agreement(self, seed):
        """validate() agrees with a node-by-node Fraction checker."""
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2, tilt_allowed=True)
        # corrupt half the time by inflating one deep child
        corrupt = rng.random() < 0.5
        if corrupt:
            comp = stage.components[0]
            node = rng.choice(["0", "1"])
            table = dict(comp.table)
            table[node] = table[EPSILON] + ONE
            bad = Component(comp.weight, comp.depth, table, comp.tails, comp.tilt)
            stage = SemiMeasureStage((bad,) + stage.components[1:], strict=stage.strict)
        ok = True
        root = oracle_stage_value(stage, EPSILON)
        if stage.strict and root != 1:
            ok = False
        if root > 1:
            ok = False
        if ok:
            for node in strings_up_to(stage.max_depth - 1):
                parent = oracle_stage_value(stage, node)
                if oracle_stage_value(stage, node + "0") + oracle_stage_value(
                    stage, node + "1"
                ) > parent:
                    ok = False
                    break
        assert validate(stage).ok == ok


    @given(seeds)
    def test_integer_rows_report_what_the_node_walk_reports(self, seed):
        """Tilted mixtures and mixtures valid only jointly, with up to three
        table entries raised (so one level may hold several violations):
        the same (ok, node, message, children) as a walk that evaluates
        every node on its own."""
        rng = random.Random(seed)
        depth = rng.randint(0, 3)
        if rng.random() < 0.4:
            stage = random_stage(rng, depth=depth, tilt_allowed=True)
        else:
            stage = random_joint_stage(rng, depth=depth)
        comps = list(stage.components)
        for _ in range(rng.choice([0, 1, 2, 3])):
            k = rng.randrange(len(comps))
            comp = comps[k]
            table = dict(comp.table)
            node = rng.choice(list(table))
            table[node] = table[node] + QUARTER
            comps[k] = Component(comp.weight, comp.depth, table, comp.tails, comp.tilt)
        stage = SemiMeasureStage(tuple(comps), strict=stage.strict)
        got, want = validate(stage), reference_validate(stage)
        assert (got.ok, got.node, got.message, got.children) == (want.ok, want.node, want.message, want.children)


class TestLevelRow:
    @staticmethod
    def two_part_stage(rng: random.Random, tilts: bool) -> SemiMeasureStage:
        comps = tuple(
            random_component(rng, weight=HALF, depth=rng.randint(0, 3), tilt=rng.choice([0, 0, 1, 2]) * tilts)
            for _ in range(2)
        )
        return SemiMeasureStage(comps, strict=True)

    @given(seeds, st.integers(0, 5))
    def test_row_holds_the_values_of_the_level(self, seed, n):
        """Weights and tilts folded in: numerator i over 2**e is the value
        of the i-th string of length n."""
        stage = self.two_part_stage(random.Random(seed), tilts=True)
        row, e = stage.level_row(n)
        assert [Dyadic(x, e) for x in row] == [stage.value(s) for s in all_strings(n)]

    @given(seeds, st.integers(0, 2))
    def test_limit_row_holds_the_trimmed_masses(self, seed, extra):
        stage = self.two_part_stage(random.Random(seed), tilts=False)
        n = stage.max_depth + extra
        row, e = stage.level_row(n, limit=True)
        assert [Dyadic(x, e) for x in row] == [stage.limit_mass(s) for s in all_strings(n)]

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
    """``values`` is the one point-evaluation path: ``value``, ``set_mass``
    and the certificates all read it."""

    WEIGHTS = (ONE, HALF, QUARTER, Dyadic(3, 3))

    def mixed_stage(self, rng: random.Random, kind: str) -> SemiMeasureStage:
        if kind == "joint":
            return random_joint_stage(rng, depth=rng.randint(0, 3))
        comps = tuple(
            random_component(
                rng,
                weight=rng.choice(self.WEIGHTS),
                depth=rng.randint(0, 3),
                tilt=rng.choice([0, 1, 2]) if kind == "tilted" else 0,
            )
            for _ in range(rng.randint(1, 3))
        )
        return SemiMeasureStage(comps, strict=False)

    @staticmethod
    def probe_strings(rng: random.Random, stage: SemiMeasureStage) -> list[str]:
        """Strings above, at and below each component's frontier, some on
        the 1-spine, with duplicates."""
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
        return out

    @given(seeds, st.sampled_from(["plain", "tilted", "joint"]))
    def test_values_match_the_fraction_reference(self, seed, kind):
        rng = random.Random(seed)
        stage = self.mixed_stage(rng, kind)
        strings = self.probe_strings(rng, stage)
        nums, e = stage.values(strings)
        assert len(nums) == len(strings)
        assert [Fraction(x, 1 << e) for x in nums] == [oracle_stage_value(stage, s) for s in strings]
        assert [stage.value(s) for s in strings] == [Dyadic(x, e) for x in nums]

    @given(seeds, st.sampled_from(["plain", "tilted", "joint"]), string_sets)
    def test_set_mass_is_the_sum_over_the_normalised_antichain(self, seed, kind, strings):
        stage = self.mixed_stage(random.Random(seed), kind)
        assert as_fraction(stage.set_mass(strings)) == oracle_stage_mass(stage, strings)

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
        """Mixtures of additive and merely super-additive tables, lossy and
        conserving tails, broken super-additivity and wrong root claims:
        both checks give the same (ok, node, message) as separate passes."""
        rng = random.Random(seed)
        weights = rng.choice([[ONE], [HALF, HALF]])
        comps = []
        for w in weights:
            depth = rng.randint(0, 3)
            root = rng.choice([ONE, ONE, ONE, HALF])
            table = random_table(rng, depth, root=root, additive=rng.random() < 0.7)
            if depth and rng.random() < 0.2:
                node = rng.choice(list(table)[1:])
                table[node] = table[node] + QUARTER
            conserving = rng.choice([True, True, None])
            tails = {node: random_tail(rng, conserving) for node in all_strings(depth)}
            comps.append(Component.build(w, table, tails=tails))
        stage = SemiMeasureStage(tuple(comps), strict=rng.random() < 0.9)
        for check, reference in ((validate, reference_validate), (validate_measure, reference_validate_measure)):
            got, want = check(stage), reference(stage)
            assert (got.ok, got.node, got.message, got.children) == (
                want.ok,
                want.node,
                want.message,
                want.children,
            )


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
        fam = default_family(2)
        mixed = mixture(fam, None, stage=0)
        assert mixed.value(EPSILON) == Dyadic(3, 2)  # 1/2 + 1/4 roots

    def test_domination_certificate_for_registry(self):
        """Every registered member is dominated by the weighted mixture."""
        fam = default_family(8)
        weights = [Dyadic.pow2(-(e + 1)) for e in range(len(fam))]
        for s in [0, 2, 5]:
            mixed = mixture(fam, weights, stage=s)
            for member, w in zip(fam, weights):
                witness = check_domination(mixed, member.stage_at(s), w, strings_up_to(4))
                assert witness is None

    def test_domination_witness_when_it_fails(self):
        witness = check_domination(uniform_measure(), dirac_spine("1"), ONE, strings_up_to(2))
        assert witness == "1"

    def test_stage_monotonicity_of_registry(self):
        """Registered staged semi-measures never decrease in the stage."""
        for member in default_family(8):
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
        assert rho.set_mass(fam.level_at(2, 3)) == HALF
        assert rho.set_mass(fam.level_at(2, 3)) > Dyadic.pow2(-2)

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
            members = fam.level_at(e + 2, stage)
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
