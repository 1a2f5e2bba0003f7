"""Trimming to the derived measure and decoding atoms from stage values."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import (
    QUARTER,
    as_fraction,
    half_blend,
    oracle_level_sum,
    oracle_stage_mass,
    oracle_trim,
    random_component,
    random_joint_stage,
    random_stage,
    random_table,
    reference_lebesgue_like_check,
    reference_plain_level_sum,
    reference_spine_level_sum,
    reference_decode_atom,
)
from semimeasures.dyadic import add
from semimeasures.serialize import stage_from_json
from semimeasures import (
    EPSILON,
    HALF,
    ONE,
    ZERO,
    AmbiguityError,
    BudgetExhaustedError,
    Component,
    Dyadic,
    LeftCeSemiMeasure,
    ParseError,
    PreconditionError,
    SemiMeasureStage,
    TailRule,
    all_strings,
    decode_atom,
    derived_measure,
    dirac_spine,
    geometric_semimeasure,
    leading_ones,
    lebesgue_like_check,
    mix_stages,
    open_set_derived,
    partial_trim,
    strings_up_to,
    table_semimeasure,
    tilt_by_ones,
    uniform_measure,
)

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


# ---------------------------------------------------------------------------
# Level masses
# ---------------------------------------------------------------------------


class TestPartialTrim:
    def test_quarter_geometric_halves_per_level(self):
        geo = geometric_semimeasure(QUARTER)
        for n in range(9):
            assert partial_trim(geo, "", n) == Dyadic.pow2(-n)

    def test_blend_splits_into_constant_and_decaying_parts(self):
        blend = half_blend()
        assert partial_trim(blend, "0", 1) == Dyadic(3, 3)
        assert partial_trim(blend, "0", 3) == Dyadic(9, 5)
        assert partial_trim(blend, "", 4) == Dyadic(17, 5)

    def test_uniform_levels_are_constant(self):
        lam = uniform_measure()
        for sigma in ("", "0", "10"):
            for n in range(len(sigma), 6):
                assert partial_trim(lam, sigma, n) == Dyadic.pow2(-len(sigma))

    def test_level_above_the_string_rejected(self):
        with pytest.raises(ValueError):
            partial_trim(uniform_measure(), "010", 2)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_levels_never_increase(self, seed, n):
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2, tilt_allowed=True)
        assert partial_trim(stage, "", n) >= partial_trim(stage, "", n + 1)


# ---------------------------------------------------------------------------
# The derived measure
# ---------------------------------------------------------------------------


class TestDerivedMeasure:
    def test_quarter_geometric_trims_to_nothing(self):
        geo = geometric_semimeasure(QUARTER)
        for sigma in ("", "0", "1", "011", "111111"):
            result = derived_measure(geo, sigma)
            assert result.stabilized
            assert result.value == ZERO

    def test_blend_trims_to_half_uniform(self):
        blend = half_blend()
        for sigma in ("", "0", "01", "110"):
            result = derived_measure(blend, sigma)
            assert result.stabilized
            assert result.value == HALF * Dyadic.pow2(-len(sigma))

    def test_uniform_is_already_a_measure(self):
        lam = uniform_measure()
        for sigma in ("", "0", "0101"):
            assert derived_measure(lam, sigma).value == Dyadic.pow2(-len(sigma))

    def test_point_mass_survives_whole(self):
        spine = dirac_spine("0")
        assert derived_measure(spine, "000").value == ONE
        assert derived_measure(spine, "1").value == ZERO

    def test_vanish_tail_trims_to_zero(self):
        stage = table_semimeasure({EPSILON: ONE}, tail=TailRule.vanish())
        assert derived_measure(stage, "").value == ZERO

    def test_tilted_presentation_gets_an_upper_bound(self):
        tilted = tilt_by_ones(uniform_measure())
        result = derived_measure(tilted, "")
        assert not result.stabilized
        assert result.value == partial_trim(tilted, "", result.depth)
        deeper = derived_measure(tilted, "", probe_depth=24)
        assert deeper.value <= result.value

    @pytest.mark.parametrize("sigma", [None, 0, 1, ["0"], "01x", " 1"])
    @pytest.mark.parametrize("stage", [uniform_measure(), tilt_by_ones(uniform_measure())], ids=["untilted", "tilted"])
    def test_a_sigma_that_is_not_a_bit_string_is_a_parse_error(self, stage, sigma):
        with pytest.raises(ParseError, match="not a binary string"):
            derived_measure(stage, sigma)

    @given(st.integers(0, 2**32 - 1))
    def test_untilted_trim_is_a_lower_bound_and_additive(self, seed):
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2)
        for sigma in strings_up_to(2):
            result = derived_measure(stage, sigma)
            assert result.stabilized
            assert result.value <= stage.value(sigma)
            assert result.value <= partial_trim(stage, sigma, len(sigma) + 3)
            children = derived_measure(stage, sigma + "0").value + derived_measure(
                stage, sigma + "1"
            ).value
            assert result.value == children


# ---------------------------------------------------------------------------
# Open sets
# ---------------------------------------------------------------------------


class TestOpenSetDerived:
    def test_uniform_cylinder_mass_is_constant(self):
        result = open_set_derived(uniform_measure(), ["0"], m_max=4)
        assert result.masses == (HALF,) * 5
        assert result.limit.value == HALF
        assert result.limit.stabilized

    def test_quarter_geometric_refinements_halve(self):
        result = open_set_derived(geometric_semimeasure(QUARTER), ["0"], m_max=4)
        assert result.masses == tuple(Dyadic.pow2(-m - 2) for m in range(5))
        assert result.limit.value == ZERO

    def test_blend_on_the_full_space(self):
        result = open_set_derived(half_blend(), ["0", "1"], m_max=3)
        assert result.masses == (
            Dyadic(3, 2),
            Dyadic(5, 3),
            Dyadic(9, 4),
            Dyadic(17, 5),
        )
        assert result.limit.value == HALF

    def test_members_must_form_an_antichain(self):
        with pytest.raises(PreconditionError):
            open_set_derived(uniform_measure(), ["0", "01"], m_max=2)

    def test_negative_refinement_rejected(self):
        with pytest.raises(ValueError):
            open_set_derived(uniform_measure(), ["0"], m_max=-1)

    @given(st.integers(0, 2**32 - 1))
    def test_masses_descend_to_the_limit(self, seed):
        rng = random.Random(seed)
        stage = random_stage(rng, depth=2)
        result = open_set_derived(stage, ["0", "10"], m_max=4)
        for a, b in zip(result.masses, result.masses[1:]):
            assert a >= b
        assert result.masses[-1] >= result.limit.value

    def test_tilted_limit_lies_below_the_deepest_refinement(self):
        """Refinements past the default probe depth of 16 levels still bound
        the tilted limit from above."""
        result = open_set_derived(tilt_by_ones(uniform_measure()), ["1"], m_max=20)
        assert not result.limit.stabilized
        assert result.limit.depth == 21
        assert result.limit.value <= result.masses[-1]


# ---------------------------------------------------------------------------
# Integer level sums against the Fraction definitions
# ---------------------------------------------------------------------------


class TestIntegerLevelSums:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(ONE,), (HALF, HALF), (HALF, Dyadic(3, 3))]),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(*[st.sampled_from([0, 0, 1, 2])] * 2),
    )
    def test_masses_trims_and_open_sets(self, seed, weights, depths, tilts):
        """One or two components with mixed vanish, uniform, geometric and
        split tails, conserving and lossy, under weights of equal and of
        different exponents, tilted or not; sigma above, at and below each
        frontier, on the 1-spine and off it; n from |sigma| to two levels
        below the deepest frontier, to four levels below a sigma of length
        <= 3 (and to 5 at the root), and the limit n = None.  Each
        component's level sum against its Fraction reference, and the
        stage's level masses, partial trims, derived measures and open-set
        masses against the oracles."""
        rng = random.Random(seed)
        comps = tuple(
            random_component(rng, weight=w, depth=d, tilt=t) for w, d, t in zip(weights, depths, tilts)
        )
        stage = SemiMeasureStage(comps, strict=False)
        top = stage.max_depth
        tilted = any(c.tilt for c in comps)
        levels = {(s, n) for s in strings_up_to(top + 1) for n in range(len(s), top + 3)}
        levels |= {(s, n) for s in strings_up_to(3) for n in range(len(s), max(len(s) + 4, 5) + 1)}
        for sigma, n in sorted(levels):
            for c in comps:
                if c.tilt and "0" not in sigma:
                    want = reference_spine_level_sum(c, sigma, n)
                else:
                    want = reference_plain_level_sum(c, sigma, n) / 2 ** (c.tilt * leading_ones(sigma))
                assert as_fraction(Dyadic(*c.level_sum(sigma, n))) == want
            expected = oracle_level_sum(stage, sigma, n)
            assert as_fraction(Dyadic(*stage.level_mass(sigma, n))) == expected
            assert as_fraction(partial_trim(stage, sigma, n)) == expected
        for sigma in strings_up_to(top + 2):
            for c in comps:
                if not c.tilt:
                    assert as_fraction(Dyadic(*c.level_sum(sigma, None))) == reference_plain_level_sum(c, sigma, None)
            if tilted:
                with pytest.raises(ValueError):
                    stage.level_mass(sigma, None)
                probe = len(sigma) + 2
                result = derived_measure(stage, sigma, probe_depth=probe)
                assert not result.stabilized and result.depth == probe
                assert as_fraction(result.value) == oracle_level_sum(stage, sigma, probe)
            else:
                assert as_fraction(Dyadic(*stage.level_mass(sigma, None))) == oracle_trim(stage, sigma)
                result = derived_measure(stage, sigma)
                assert result.stabilized and result.depth == max(len(sigma), top)
                assert as_fraction(result.value) == oracle_trim(stage, sigma)
        members = sorted({"".join(rng.choice("01") for _ in range(k)) for k in (1, 2, 3)}, key=len)
        members = [m for i, m in enumerate(members) if not any(m.startswith(p) for p in members[:i])]
        got = open_set_derived(stage, members, m_max=2)
        for m, mass in enumerate(got.masses):
            assert as_fraction(mass) == sum(oracle_level_sum(stage, s, len(s) + m) for s in members)
        assert got.limit.value <= got.masses[-1]
        if not tilted:
            assert as_fraction(got.limit.value) == sum(oracle_trim(stage, s) for s in members)

    @pytest.mark.parametrize(
        "rule",
        [
            TailRule.vanish(),
            TailRule.uniform(),
            TailRule.geometric(Dyadic(3, 3)),
            TailRule.split(Dyadic(3, 2), Dyadic(1, 2)),
            TailRule.split(Dyadic(1, 3), Dyadic(3, 3)),
        ],
    )
    def test_kept_fraction_of_each_rule(self, rule):
        """The lowest-terms total, and level sums zero, one and more levels
        below the frontier and in the limit, against the Fraction reference."""
        comp = Component.build(ONE, {"": HALF, "0": QUARTER, "1": QUARTER}, tail=rule)
        t, x = comp.tails.totals[0]
        assert Fraction(t, 2**x) == as_fraction(rule.total) and (t % 2 or x == 0)
        for sigma in ("", "1", "01", "110"):
            for levels in (0, 1, 2, 5, None):
                n = None if levels is None else max(len(sigma), 1) + levels
                expected = reference_plain_level_sum(comp, sigma, n)
                assert as_fraction(Dyadic(*comp.level_sum(sigma, n))) == expected

    @pytest.mark.parametrize("rule", [TailRule.uniform(), TailRule.split(HALF, HALF)])
    def test_conserving_rules_stay_small_far_down(self, rule):
        """A conserving rule's factor is 1 at any level, not 2**n / 2**n."""
        table = {"": ONE, "0": Dyadic(3, 2), "1": QUARTER}
        tails = {"0": rule, "1": TailRule.vanish()}
        stage = SemiMeasureStage((Component.build(HALF, table, tails=tails),), strict=True)
        comp = stage.components[0]
        start = time.perf_counter()
        for sigma, mass in (("", Dyadic(3, 3)), ("0", Dyadic(3, 3)), ("01", Dyadic(3, 4))):
            num, e = comp.level_sum(sigma, 10**6)
            assert num.bit_length() <= 4 and e <= 4
            assert partial_trim(stage, sigma, 10**6) == mass
        assert time.perf_counter() - start < 0.5


def reference_level_mass(stage: SemiMeasureStage, sigma: str, n: int) -> Fraction:
    """The stage's level mass from the per-component references: a tilted
    component with sigma on its 1-spine sums its spine exits, any other
    scales its plain level sum by the tilt of sigma's leading ones."""
    total = Fraction(0)
    for c in stage.components:
        if c.tilt and "0" not in sigma:
            part = reference_spine_level_sum(c, sigma, n)
        else:
            part = reference_plain_level_sum(c, sigma, n) / 2 ** (c.tilt * leading_ones(sigma))
        total += as_fraction(c.weight) * part
    return total


PASS_TABLE = {"": ONE, "0": QUARTER, "1": Dyadic(3, 2), "00": Dyadic(1, 3), "01": Dyadic(1, 3), "10": QUARTER, "11": HALF}
PASS_RULES = {
    "uniform": TailRule.uniform(),
    "split": TailRule.split(QUARTER, Dyadic(5, 3)),
    "geometric": TailRule.geometric(Dyadic(3, 3)),
    # per node: two lossy rules, so one sum per rule, and a conserving one on the spine
    "per-node": {
        "00": TailRule.uniform(),
        "01": TailRule.geometric(QUARTER),
        "10": TailRule.split(QUARTER, HALF),
        "11": TailRule.split(QUARTER, Dyadic(3, 2)),
    },
    # per node with one lossy rule: the lossy mass is the frontier's less the kept
    "per-node-one-lossy": {
        "00": TailRule.uniform(),
        "01": TailRule.geometric(QUARTER),
        "10": TailRule.uniform(),
        "11": TailRule.split(QUARTER, Dyadic(3, 2)),
    },
}


class TestLevelMassPasses:
    """``level_masses`` (one frontier read, then the closed form level by
    level) and ``level_mass`` (one frontier read and the closed form at the
    level asked) against the Fraction references on every level to 40, the
    enumerating oracle on the first levels, and the trim oracle in the
    limit."""

    @pytest.mark.parametrize("tilt", [0, 1, 2])
    @pytest.mark.parametrize("rules", sorted(PASS_RULES))
    def test_every_level_to_forty_and_the_limit(self, tilt, rules):
        rule = PASS_RULES[rules]
        tails = dict(tails=rule) if isinstance(rule, dict) else dict(tail=rule)
        comp = Component.build(HALF, PASS_TABLE, tilt=tilt, **tails)
        plain = Component.build(HALF, PASS_TABLE, tails=PASS_RULES["per-node"])
        stage = SemiMeasureStage((comp, plain), strict=True)
        for sigma in ("", "1", "111", "0", "10", "0110"):
            levels = list(stage.level_masses(sigma, 40))
            assert len(levels) == 41 - len(sigma)
            for n, level in enumerate(levels, len(sigma)):
                want = reference_level_mass(stage, sigma, n)
                assert as_fraction(Dyadic(*level)) == want
                assert as_fraction(Dyadic(*stage.level_mass(sigma, n))) == want
                if n <= len(sigma) + 6:
                    assert want == oracle_level_sum(stage, sigma, n)
            if not tilt:
                assert as_fraction(Dyadic(*stage.level_mass(sigma, None))) == oracle_trim(stage, sigma)

    @given(st.integers(0, 2**32 - 1))
    def test_drawn_stages_and_open_sets(self, seed):
        """Drawn one- and two-component stages, tilted or not: every level of
        a pass equals the single-level read, and the open-set masses are the
        members' summed level masses."""
        rng = random.Random(seed)
        stage = random_stage(rng, depth=rng.randint(0, 3), strict=False, tilt_allowed=True)
        for sigma in strings_up_to(3):
            levels = stage.level_masses(sigma, len(sigma) + 5)
            singles = [stage.level_mass(sigma, n) for n in range(len(sigma), len(sigma) + 6)]
            assert [Dyadic(*level) for level in levels] == [Dyadic(*level) for level in singles]
        members = ("00", "010", "1")
        got = open_set_derived(stage, members, m_max=5)
        for m, mass in enumerate(got.masses):
            assert mass == Dyadic(*add(stage.level_mass(s, len(s) + m) for s in members))

    def test_more_rules_than_a_byte_holds(self):
        """512 frontier nodes under 512 distinct rules, conserving and lossy
        in turn with many totals: the keeps mask, level sums, limits and the
        set masses of a length-12 antichain, untilted and tilted, against the
        references."""
        rng = random.Random(7)
        table = random_table(rng, 9, extra_exponent=4, additive=True)  # mass on 508 of the 512 nodes
        tails = {}
        for k, node in enumerate(all_strings(9)):
            zero = Dyadic(k, 10)
            tails[node] = TailRule.split(zero, ONE - zero) if k % 2 else TailRule.split(zero, Dyadic(k % 7, 3))
        comp = Component.build(ONE, table, tails=tails)
        assert len(comp.tails.rules) == 512
        assert list(comp.tails.keeps) == [k % 2 for k in range(512)]
        stage = SemiMeasureStage((comp,), strict=False)
        for sigma in ("", "0", "1011"):
            for n, level in enumerate(stage.level_masses(sigma, 12), len(sigma)):
                assert as_fraction(Dyadic(*level)) == reference_level_mass(stage, sigma, n)
            assert as_fraction(Dyadic(*stage.level_mass(sigma, None))) == oracle_trim(stage, sigma)
        # set masses take one power per (rule, ones below the frontier) met
        antichain = [format(p, "012b") for p in rng.sample(range(1 << 12), 300)]
        for read in (stage, tilt_by_ones(stage)):
            assert as_fraction(read.set_mass(antichain)) == oracle_stage_mass(read, antichain)

    def test_a_pass_checks_its_arguments(self):
        stage = uniform_measure()
        with pytest.raises(ValueError, match=r"level 1 is above the string \(length 2\)"):
            list(stage.level_masses("01", 1))
        with pytest.raises(ParseError):
            list(stage.level_masses("0a", 3))


class TestSpineLevelSums:
    """A level sum at a sigma on a tilted 1-spine is the closed form of the
    spine recurrence, read at each level of a pass too: neither walks the
    spine exits one by one."""

    @pytest.mark.parametrize("tilt", [1, 2])
    def test_three_thousand_levels_down(self, tilt):
        """Mass on and off the spine, under conserving and lossy rules."""
        table = {"": ONE, "0": QUARTER, "1": Dyadic(3, 2), "00": Dyadic(1, 3), "01": Dyadic(1, 3), "10": QUARTER, "11": HALF}
        tails = {
            "00": TailRule.uniform(),
            "01": TailRule.geometric(QUARTER),
            "10": TailRule.split(QUARTER, HALF),
            "11": TailRule.split(QUARTER, Dyadic(3, 2)),
        }
        comp = Component.build(ONE, table, tails=tails, tilt=tilt)
        for sigma in ("1", ""):
            num, e = comp.level_sum(sigma, 3000)
            assert num and Fraction(num, 2**e) == reference_spine_level_sum(comp, sigma, 3000)
            *_, last = comp.level_sums(sigma, 3000)
            assert last == (num, e)

    @pytest.mark.parametrize("depth, belows", [(100, 396), (4000, 15_996)])
    def test_a_pass_reads_each_frontier_once(self, depth, belows, monkeypatch):
        """Counted, not timed: the tier-1 form of CI's two ``trim --depth
        4000`` lines on the golden tilted document (two depth-1 components,
        tilts 1 and 2).  Until the library counts its own reads, test-side
        wrappers count the calls of ``Component._frontier`` and
        ``Component._below``.  A ``level_masses`` pass at sigma = "" and "1"
        reads each component's frontier once per sigma, and takes one closed
        form per component and level below it: 2 * 2 * (depth - 1)."""
        document = json.loads((GOLDEN_INPUTS / "tilted.json").read_text(encoding="utf-8"))
        stage = stage_from_json(document)
        assert [comp.tilt for comp in stage.components] == [1, 2]
        frontiers, closed_forms = [], []
        frontier, below = Component._frontier, Component._below
        monkeypatch.setattr(Component, "_frontier", lambda comp, *a, **k: frontiers.append(a) or frontier(comp, *a, **k))
        monkeypatch.setattr(Component, "_below", lambda comp, *a: closed_forms.append(a[-1]) or below(comp, *a))
        for sigma in ("", "1"):
            assert sum(1 for _ in stage.level_masses(sigma, depth)) == depth + 1 - len(sigma)
        assert len(frontiers) == 4
        assert len(closed_forms) == belows


# ---------------------------------------------------------------------------
# Proportionality to the fair coin
# ---------------------------------------------------------------------------


class TestLebesgueLikeCheck:
    def test_blend_is_half_uniform(self):
        report = lebesgue_like_check(half_blend(), depth=4)
        assert report.alpha is not None
        assert report.alpha == HALF
        assert report.witness is None

    def test_uniform_has_full_factor(self):
        assert lebesgue_like_check(uniform_measure(), depth=3).alpha == ONE

    def test_vanishing_trim_witnessed_at_the_root(self):
        report = lebesgue_like_check(geometric_semimeasure(QUARTER), depth=3)
        assert report.alpha is None
        assert report.witness == EPSILON

    def test_lopsided_measure_witnessed_off_root(self):
        report = lebesgue_like_check(dirac_spine("0"), depth=2)
        assert report.alpha is None
        assert report.witness == "0"

    def test_tilted_presentation_rejected(self):
        with pytest.raises(PreconditionError):
            lebesgue_like_check(tilt_by_ones(uniform_measure()), depth=2)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            lebesgue_like_check(uniform_measure(), depth=-1)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(-2, 2))
    def test_one_sweep_matches_one_trim_per_node(self, seed, depth, offset):
        """Lebesgue-like mixtures (a fair-coin part and a lossy part), random
        and jointly valid mixtures, and vanishing trims, checked at depths
        below, at and above the deepest frontier: the same (alpha, witness)
        as one derived measure per node."""
        rng = random.Random(seed)
        lossy = (TailRule.vanish(), TailRule.geometric(QUARTER), TailRule.split(QUARTER, HALF))

        def lossy_part(weight: Dyadic, d: int) -> Component:
            tails = {f: rng.choice(lossy) for f in all_strings(d)}
            return Component.build(weight, random_table(rng, d), tails=tails)

        kind = rng.choice(["lebesgue", "random", "joint", "vanishing"])
        if kind == "lebesgue":
            fair = {s: Dyadic.pow2(-len(s)) for s in strings_up_to(depth)}
            coin = Component.build(HALF, fair, tail=TailRule.uniform())
            stage = SemiMeasureStage((coin, lossy_part(HALF, rng.randint(0, 3))), strict=True)
        elif kind == "random":
            stage = random_stage(rng, depth=depth)
        elif kind == "joint":
            stage = random_joint_stage(rng, depth=depth)
        else:
            stage = SemiMeasureStage((lossy_part(HALF, depth), lossy_part(HALF, rng.randint(0, 3))), strict=True)
        check_depth = max(0, stage.max_depth + offset)
        got = lebesgue_like_check(stage, check_depth)
        want = reference_lebesgue_like_check(stage, check_depth)
        assert (got.alpha, got.witness) == (want.alpha, want.witness)
        if kind == "lebesgue":
            assert got.alpha == HALF
        if kind == "vanishing":
            assert got.witness == EPSILON

    @pytest.mark.parametrize(
        "table, tails, depth, witness",
        [
            # alpha = 1 over 2^0: no integer trim over 2^0 is 1/2, so the first node
            ({EPSILON: ONE, "0": ONE, "1": ZERO}, {"0": TailRule.uniform(), "1": TailRule.uniform()}, 1, "0"),
            # the same below the frontier of a spine
            ({EPSILON: ONE}, {EPSILON: TailRule.split(ZERO, ONE)}, 2, "0"),
            # level 3 holds 2, 2, 1, 3, 2, 2, 3 and 1 sixteenths where alpha / 8 is 2
            (
                {
                    **{s: Dyadic.pow2(-len(s)) for s in strings_up_to(2)},
                    **dict(zip(all_strings(3), (Dyadic(x, 4) for x in (2, 2, 1, 3, 2, 2, 3, 1)))),
                },
                {f: TailRule.uniform() for f in all_strings(3)},
                3,
                "010",
            ),
            # below the frontier, level 2 holds a quarter, a quarter, an eighth and 3/8
            (
                {EPSILON: ONE, "0": HALF, "1": HALF},
                {"0": TailRule.uniform(), "1": TailRule.split(QUARTER, Dyadic(3, 2))},
                3,
                "10",
            ),
        ],
        ids=["inexact-at-the-frontier", "inexact-below", "exact-at-the-frontier", "exact-below"],
    )
    def test_the_witness_is_the_first_node_off_the_fair_share(self, table, tails, depth, witness):
        """When alpha * 2**-n has no numerator over the level's power of two
        every node is off it and the first is the witness; otherwise the
        first node in lex order whose trim differs."""
        stage = table_semimeasure(table, tails=tails)
        got, want = lebesgue_like_check(stage, depth), reference_lebesgue_like_check(stage, depth)
        assert (got.alpha, got.witness) == (None, witness) == (want.alpha, want.witness)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_tilted_component_rejected_like_the_reference(self, seed, depth):
        stage = random_stage(random.Random(seed), depth=depth, parts=2)
        tilted = SemiMeasureStage(stage.components[:1] + tilt_by_ones(stage).components[1:], strict=True)
        for check in (lebesgue_like_check, reference_lebesgue_like_check):
            with pytest.raises(PreconditionError):
                check(tilted, depth)


# ---------------------------------------------------------------------------
# Atom decoding
# ---------------------------------------------------------------------------


class TestDecodeAtom:
    def test_zero_spine_decodes_zeros(self):
        rho = LeftCeSemiMeasure.constant(dirac_spine("0"))
        assert decode_atom(rho, q=Dyadic(3, 2), seed="", bits=16) == "0" * 16

    @pytest.mark.parametrize("bit", ["0", "1"])
    def test_either_spine_direction(self, bit):
        rho = LeftCeSemiMeasure.constant(dirac_spine(bit))
        assert decode_atom(rho, q=Dyadic(3, 2), seed=bit, bits=10) == bit * 10

    def test_half_atom_under_uniform_noise(self):
        stage = mix_stages([dirac_spine("0"), uniform_measure()], [HALF, HALF])
        rho = LeftCeSemiMeasure.constant(stage)
        assert decode_atom(rho, q=Dyadic(3, 3), seed="00", bits=8) == "0" * 8

    def test_threshold_at_half_the_atom_is_ambiguous(self):
        stage = mix_stages([dirac_spine("0"), uniform_measure()], [HALF, HALF])
        rho = LeftCeSemiMeasure.constant(stage)
        with pytest.raises(AmbiguityError) as exc:
            decode_atom(rho, q=QUARTER, seed="", bits=4)
        assert exc.value.node == ""
        assert exc.value.stage == 0

    def test_unreachable_threshold_exhausts_the_budget(self):
        rho = LeftCeSemiMeasure.constant(uniform_measure())
        with pytest.raises(BudgetExhaustedError) as exc:
            decode_atom(rho, q=Dyadic(3, 2), seed="", bits=4, max_stage=5)
        assert exc.value.position == 0
        assert exc.value.max_stage == 5

    def test_waits_for_the_mass_to_be_enumerated(self):
        spine = dirac_spine("0")

        def stage_fn(s: int):
            return spine if s >= 3 else spine.scaled(QUARTER)

        rho = LeftCeSemiMeasure(stage_fn)
        assert decode_atom(rho, q=Dyadic(3, 2), seed="", bits=5) == "0" * 5

    def test_bad_threshold_and_budget_rejected(self):
        rho = LeftCeSemiMeasure.constant(dirac_spine("0"))
        with pytest.raises(ValueError):
            decode_atom(rho, q=ZERO, seed="", bits=4)
        with pytest.raises(ValueError):
            decode_atom(rho, q=HALF, seed="", bits=-1)


# ---------------------------------------------------------------------------
# Atom decoding resumes at the deciding stage: same outcome as a scan from 0
# ---------------------------------------------------------------------------


def decode_outcome(decode, rho, q, seed, bits, max_stage):
    try:
        return decode(rho, q, seed, bits, max_stage=max_stage)
    except AmbiguityError as exc:
        return ("ambiguous", exc.node, exc.stage, str(exc))
    except BudgetExhaustedError as exc:
        return ("budget", exc.position, exc.max_stage, str(exc))


def ramp(path: str, reveal: list[int]) -> LeftCeSemiMeasure:
    """Stage s puts mass 1 on the first reveal[s] nodes below the root of
    ``path`` (reveal frozen at its last entry) and on nothing else: the
    values fall along the path, so every stage is super-additive, and the
    node of length n reaches any q <= 1 at the first s with reveal[s] >= n."""

    def stage_fn(s: int) -> SemiMeasureStage:
        shown = path[: reveal[min(s, len(reveal) - 1)]]
        table = {x: ONE if shown.startswith(x) else ZERO for x in strings_up_to(len(path))}
        return table_semimeasure(table, tail=TailRule.vanish())

    return LeftCeSemiMeasure(stage_fn)


class TestDecodeResumes:
    @given(st.integers(0, 2**32 - 1))
    def test_random_stages_match_the_linear_scan(self, seed):
        rng = random.Random(seed)
        stages = [random_stage(rng, depth=rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        last = rng.choice((None, len(stages) - 1))
        rho = LeftCeSemiMeasure(lambda s: stages[min(s, len(stages) - 1)], last)
        q = Dyadic(rng.randint(1, 16), 5)
        start = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
        bits, budget = rng.randint(0, 5), rng.randint(0, 8)
        assert decode_outcome(decode_atom, rho, q, start, bits, budget) == decode_outcome(
            reference_decode_atom, rho, q, start, bits, budget
        )

    @given(st.integers(0, 2**32 - 1))
    def test_ramps_decide_bits_at_different_stages(self, seed):
        rng = random.Random(seed)
        path = "".join(rng.choice("01") for _ in range(rng.randint(1, 7)))
        reveal = sorted(rng.randint(0, len(path)) for _ in range(rng.randint(1, 9)))
        noise = random_stage(rng, depth=2)
        plain = ramp(path, reveal)
        noisy = LeftCeSemiMeasure(lambda s: mix_stages([plain.stage_at(s), noise], [HALF, HALF]))
        q = Dyadic(rng.randint(1, 8), 3)
        bits, budget = rng.randint(0, len(path) + 1), rng.randint(0, 12)
        for rho in (plain, noisy):
            assert decode_outcome(decode_atom, rho, q, "", bits, budget) == decode_outcome(
                reference_decode_atom, rho, q, "", bits, budget
            )

    def test_the_scan_stops_at_the_last_stage(self):
        """No stage past ``last`` differs, so a huge budget reads stages
        0..last and names the budget it was given."""
        reads = []

        def stage_fn(s):
            reads.append(s)
            assert len(reads) <= 4, f"stage {s} read again: the scan ran past the last stage"
            return uniform_measure()

        rho = LeftCeSemiMeasure(stage_fn, last=3)
        with pytest.raises(BudgetExhaustedError, match="within 1000000000 stages$"):
            decode_atom(rho, Dyadic(3, 2), "", 4, max_stage=10**9)
        assert reads == [0, 1, 2, 3]

    def test_a_ramp_emits_each_bit_at_its_own_stage(self):
        rho = ramp("0110", [0, 1, 1, 2, 2, 2, 3, 4])
        assert decode_outcome(decode_atom, rho, HALF, "", 4, 7) == "0110"
        assert decode_outcome(decode_atom, rho, HALF, "", 4, 6) == decode_outcome(
            reference_decode_atom, rho, HALF, "", 4, 6
        )
        assert decode_outcome(decode_atom, rho, HALF, "", 4, 6)[:3] == ("budget", 3, 6)
