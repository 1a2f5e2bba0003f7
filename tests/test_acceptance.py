"""End-to-end acceptance checks, one per headline behaviour, with time budgets.

Every check works on exact dyadic instances and prints a single verdict line
(``ACCEPTANCE n: PASS (...)``); run ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear.  Budgets are wall-clock seconds and generous
on purpose: blowing one signals an algorithmic regression, not jitter.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

from helpers import QUARTER, half_blend, random_antichain, random_stage, random_table
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
    MLTest,
    MonotoneFunctional,
    SemiMeasureStage,
    StagedFamily,
    TailRule,
    all_strings,
    complete_to_measure,
    decode_atom,
    derived_measure,
    from_semimeasure,
    geometric_semimeasure,
    induced_semimeasure,
    intersect_tests,
    is_prefix_free,
    lebesgue_like_check,
    lebesgue_of_set,
    mirror_pair,
    mix_stages,
    ones_prefix_filter,
    open_set_derived,
    partial_trim,
    preimage_set,
    pullback_test,
    shift_for_domination,
    strings_up_to,
    table_semimeasure,
    test_defeating_semimeasure as defeating_semimeasure,
    tilt_by_ones,
    uniform_measure,
    validate,
    validate_measure,
    validate_ml_test,
)

import pytest


@contextmanager
def criterion(number: int, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


# -- 1: the quarter-geometric presentation trims to nothing ---------------------


def test_criterion_01_quarter_geometric_trims_to_zero():
    """Level sums at the root halve with each level, yet the trim vanishes."""
    with criterion(1, 1.0):
        geo = geometric_semimeasure(QUARTER)
        for n in range(21):
            assert partial_trim(geo, EPSILON, n) == Dyadic.pow2(-n)
        for sigma in strings_up_to(6):
            result = derived_measure(geo, sigma)
            assert result.stabilized
            assert result.value == ZERO
        report = lebesgue_like_check(geo, 6)
        assert report.alpha is None and report.witness == EPSILON


# -- 2: the half fair-coin / half quarter-geometric blend -----------------------


def test_criterion_02_blend_trims_to_half_lebesgue():
    with criterion(2, 1.0):
        blend = half_blend()
        for sigma in strings_up_to(6):
            result = derived_measure(blend, sigma)
            assert result.stabilized
            assert result.value == Dyadic(1, len(sigma) + 1)
        report = lebesgue_like_check(blend, 6)
        assert report.alpha == HALF and report.witness is None


# -- 3: completion to an additive measure ---------------------------------------


def test_criterion_03_completion_is_additive_and_dominates():
    with criterion(3, 5.0):
        rng = random.Random(30)
        for _ in range(200):
            stage = random_stage(rng, depth=5, strict=True)
            completed = complete_to_measure(stage)
            assert validate_measure(completed).ok
            for node in strings_up_to(5):
                parent = completed.value(node)
                assert parent == completed.value(node + "0") + completed.value(node + "1")
            for sigma in strings_up_to(6):
                assert completed.value(sigma) >= stage.value(sigma)
        # the quarter-geometric semi-measure completes to the fair coin exactly
        completed = complete_to_measure(geometric_semimeasure(QUARTER))
        assert validate_measure(completed).ok
        for sigma in strings_up_to(6):
            assert completed.value(sigma) == Dyadic.pow2(-len(sigma))
            assert completed.value(sigma) == uniform_measure().value(sigma)


# -- 4: twin functionals from one approximation sequence ------------------------


def test_criterion_04_twin_functionals_agree_at_every_stage():
    """Both twins push all mass onto the zero spine and agree exactly there."""
    with criterion(4, 10.0):
        rng = random.Random(40)
        for case in range(50):
            length = rng.randint(1, 12)
            approx = sorted(Dyadic(rng.randint(0, 63), 6) for _ in range(length))
            left, right = mirror_pair(approx)
            # outputs are all-zero strings, so neither twin ever charges a
            # string that leaves the spine, at any stage
            for twin in (left, right):
                assert all(out == "0" * len(out) for _, _, out in twin.events)
            for stage in range(length):
                for n in range(9):
                    spine = "0" * n
                    mass_left = lebesgue_of_set(preimage_set(left, spine, stage))
                    mass_right = lebesgue_of_set(preimage_set(right, spine, stage))
                    assert mass_left == mass_right
            induced_left = induced_semimeasure(left, length - 1, 6)
            induced_right = induced_semimeasure(right, length - 1, 6)
            for sigma in strings_up_to(6):
                assert induced_left.value(sigma) == induced_right.value(sigma)
                if sigma != "0" * len(sigma):
                    assert induced_left.value(sigma) == ZERO
        # one deep pair: full tables to depth 10 at the final stage
        approx = sorted(Dyadic(rng.randint(0, 63), 6) for _ in range(12))
        left, right = mirror_pair(approx)
        induced_left = induced_semimeasure(left, 11, 10)
        induced_right = induced_semimeasure(right, 11, 10)
        for sigma in strings_up_to(10):
            assert induced_left.value(sigma) == induced_right.value(sigma)


# -- 5: semi-measure -> functional -> semi-measure round trip -------------------


def random_strict_table(rng: random.Random, depth: int, exponent: int) -> dict[str, Dyadic]:
    """Strict super-additive table with all values on the 2^-exponent grid."""
    table = {EPSILON: ONE}
    for node in strings_up_to(depth - 1) if depth > 0 else ():
        cap = table[node].numerator << (exponent - table[node].exponent)
        a = rng.randint(0, cap)
        b = rng.randint(0, cap - a)
        table[node + "0"] = Dyadic(a, exponent)
        table[node + "1"] = Dyadic(b, exponent)
    return table


def test_criterion_05_inversion_round_trip():
    with criterion(5, 30.0):
        rng = random.Random(50)
        for case in range(100):
            depth = rng.randint(1, 5)
            table = random_strict_table(rng, depth, exponent=8)
            stage = table_semimeasure(table, tail=TailRule.vanish())
            if case % 10 == 0:
                # a genuinely two-stage presentation: half the mass, then all
                rho = LeftCeSemiMeasure(
                    lambda s, final=stage: final if s >= 1 else final.scaled(HALF)
                )
                phi = from_semimeasure(rho, 1, depth)
                stages = (0, 1)
            else:
                rho = LeftCeSemiMeasure.constant(stage)
                phi = from_semimeasure(rho, 0, depth)
                stages = (0,)
            for t in stages:
                induced = induced_semimeasure(phi, t, depth)
                expected = rho.stage_at(t)
                for sigma in strings_up_to(depth):
                    assert induced.value(sigma) == expected.value(sigma)


# -- 6: the derived measure is the largest additive flow under the presentation --


def thirty_seconds(value: Dyadic) -> int:
    """The value as an integer count of 1/32 units (requires exponent <= 5)."""
    assert value.exponent <= 5, f"{value} is off the 1/32 grid"
    return value.numerator << (5 - value.exponent)


def conserving_leaf_caps(stage: SemiMeasureStage, depth: int) -> dict[str, Dyadic]:
    """Mass through each depth-``depth`` leaf that its tails can conserve.

    Any additive measure below the presentation pushes at most this much
    through the leaf: past the frontier the per-level retention factor of a
    non-conserving tail is strictly below one, so nothing survives, while a
    conserving tail passes the full table value along.
    """
    caps = {}
    for leaf in all_strings(depth):
        total = ZERO
        for comp in stage.components:
            if comp.tails[leaf[: comp.depth]].conserving:
                total = total + comp.weight * comp.value(leaf)
        caps[leaf] = total
    return caps


def achievable_flows(stage: SemiMeasureStage, depth: int) -> dict[str, set[int]]:
    """All node values (in 1/32 units) attained by additive flows under stage.

    Leaves range over the grid up to their conserving cap; an internal node
    attains exactly the children sums that respect its own presentation value.
    Every additive measure below the presentation restricts to one such
    assignment, and each assignment extends back to a measure by splitting
    leaf mass along the conserving tails, so these sets enumerate the
    candidates exhaustively value-by-value.
    """
    caps = conserving_leaf_caps(stage, depth)
    flows: dict[str, set[int]] = {
        leaf: set(range(thirty_seconds(caps[leaf]) + 1)) for leaf in all_strings(depth)
    }
    for level in reversed(range(depth)):
        for node in all_strings(level):
            bound = thirty_seconds(stage.value(node))
            flows[node] = {
                a + b
                for a in flows[node + "0"]
                for b in flows[node + "1"]
                if a + b <= bound
            }
    return flows


def assert_flows_bounded_by_trim(stage: SemiMeasureStage, depth: int) -> None:
    flows = achievable_flows(stage, depth)
    for node in strings_up_to(depth):
        trimmed = derived_measure(stage, node)
        assert trimmed.stabilized
        ceiling = thirty_seconds(trimmed.value)
        values = flows[node]
        assert all(v <= ceiling for v in values)
        # the trim itself is attained, so the bound is tight
        assert max(values) == ceiling and min(values) == 0


def enumerate_leaf_candidates(stage: SemiMeasureStage, depth: int) -> int:
    """Literal candidate-by-candidate enumeration; returns how many passed."""
    leaves = list(all_strings(depth))
    caps = conserving_leaf_caps(stage, depth)
    ranges = [range(thirty_seconds(caps[leaf]) + 1) for leaf in leaves]
    trims = {node: derived_measure(stage, node).value for node in strings_up_to(depth)}
    count = 0
    for assignment in itertools.product(*ranges):
        mu = {leaf: Dyadic(m, 5) for leaf, m in zip(leaves, assignment)}
        for level in reversed(range(depth)):
            for node in all_strings(level):
                mu[node] = mu[node + "0"] + mu[node + "1"]
        if any(mu[node] > stage.value(node) for node in strings_up_to(depth)):
            continue  # not an additive flow below the presentation
        count += 1
        for node in strings_up_to(depth):
            assert mu[node] <= trims[node]
    return count


def test_criterion_06_trim_maximal_over_enumerated_flows():
    with criterion(6, 60.0):
        rng = random.Random(60)
        # exact additivity of the derived measure, plus domination by the stage
        for _ in range(30):
            stage = random_stage(rng, depth=rng.randint(1, 4))
            for node in strings_up_to(3):
                here = derived_measure(stage, node).value
                zero = derived_measure(stage, node + "0").value
                one = derived_measure(stage, node + "1").value
                assert here == zero + one
                assert here <= stage.value(node)

        fair = table_semimeasure(
            {s: Dyadic.pow2(-len(s)) for s in strings_up_to(2)}, tail=TailRule.uniform()
        )
        quarter_table = table_semimeasure(
            {s: Dyadic.pow2(-2 * len(s)) for s in strings_up_to(2)}, tail=TailRule.vanish()
        )
        blend = mix_stages([fair, quarter_table], [HALF, HALF])
        leaky_spine = table_semimeasure({EPSILON: ONE, "0": ONE, "1": ZERO}, tail=TailRule.vanish())
        kept_spine = SemiMeasureStage(
            (
                Component.build(
                    ONE,
                    {EPSILON: ONE, "0": ONE, "1": ZERO},
                    tails={"0": TailRule.split(ONE, ZERO), "1": TailRule.vanish()},
                ),
            ),
            strict=True,
        )
        for stage, depth in ((fair, 2), (blend, 2), (leaky_spine, 1), (kept_spine, 1)):
            assert_flows_bounded_by_trim(stage, depth)
        assert enumerate_leaf_candidates(fair, 2) > 0
        assert enumerate_leaf_candidates(blend, 2) > 0
        assert enumerate_leaf_candidates(leaky_spine, 1) == 1  # only the zero flow fits
        assert derived_measure(leaky_spine, EPSILON).value == ZERO
        assert derived_measure(blend, EPSILON).value == HALF

        for _ in range(14):
            depth = rng.randint(1, 4)
            stage = random_stage(rng, depth=depth)
            assert_flows_bounded_by_trim(stage, depth)
        # one random instance re-checked by the literal enumeration
        while True:
            stage = random_stage(rng, depth=2)
            caps = conserving_leaf_caps(stage, 2)
            combos = 1
            for leaf in all_strings(2):
                combos *= thirty_seconds(caps[leaf]) + 1
            if combos <= 20_000:
                break
        assert enumerate_leaf_candidates(stage, 2) > 0


# -- 7: refinement masses of an open set descend to the trim limit --------------


def test_criterion_07_open_set_masses_descend_to_limit():
    with criterion(7, 10.0):
        rng = random.Random(70)
        for case in range(100):
            depth = rng.randint(1, 3)
            members = random_antichain(rng, max_len=3, draws=4) or (EPSILON,)
            if case % 7 == 0:
                members = (EPSILON,)
            kind = case % 3
            if kind == 0:
                stage = random_stage(rng, depth=depth)
            elif kind == 1:
                stage = random_stage(rng, depth=depth, conserving=True)
            else:
                stage = table_semimeasure(random_table(rng, depth), tail=TailRule.vanish())
            m_max = depth + 6
            result = open_set_derived(stage, members, m_max)
            masses = result.masses
            assert len(masses) == m_max + 1
            assert result.limit.stabilized
            limit = result.limit.value
            for earlier, later in zip(masses, masses[1:]):
                assert earlier >= later
            assert all(mass >= limit for mass in masses)
            # past every frontier the leaky part contracts strictly, so a
            # repeated mass means the sequence has already reached its limit
            settled_from = max(0, depth - min(len(m) for m in members))
            for m in range(settled_from, m_max):
                if masses[m] == masses[m + 1]:
                    assert masses[m] == limit
            if kind == 1:
                assert all(mass == limit for mass in masses[settled_from:])
            if kind == 2:
                assert limit == ZERO and masses[-1] == ZERO


# -- 8: test-algebra transforms preserve validity --------------------------------


def greedy_level(
    rng: random.Random, base: SemiMeasureStage, pool: list[str], bound: Dyadic
) -> tuple[str, ...]:
    rng.shuffle(pool)
    members: list[str] = []
    for candidate in pool:
        extended = members + [candidate]
        if base.set_mass(extended) <= bound:
            members = extended
        if len(members) == 3:
            break
    return tuple(members)


def test_criterion_08_test_algebra_preserves_validity():
    with criterion(8, 30.0):
        rng = random.Random(80)

        for _ in range(50):  # pullback onto the fair coin
            inputs = random_antichain(rng, max_len=4, draws=4)
            pairs = [(i, "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))) for i in inputs]
            phi = MonotoneFunctional.constant(pairs)
            base = induced_semimeasure(phi, 0, 6)
            pool = [s for s in strings_up_to(4) if s]
            levels = {i: greedy_level(rng, base, pool, Dyadic.pow2(-i)) for i in range(4)}
            test = MLTest.build(levels, base)
            assert validate_ml_test(test) is None
            pulled = pullback_test(test, phi, 0)
            assert validate_ml_test(pulled) is None

        for case in range(50):  # re-indexing under a domination certificate
            depth = rng.randint(1, 2)
            scale_bits = case % 3  # domination constants 1, 2, 4
            weight = Dyadic.pow2(-scale_bits)
            leaky = table_semimeasure(random_table(rng, depth), tail=TailRule.vanish())
            dominated = mix_stages(
                [leaky, uniform_measure()], [weight * HALF, ONE - weight * HALF]
            )
            member_len = depth + 4
            levels = {}
            for i in range(1, 5):
                chosen = rng.sample(sorted(all_strings(member_len)), 1 << (member_len - i))
                levels[i] = tuple(chosen)
            test = MLTest.build(levels, uniform_measure())
            assert validate_ml_test(test) is None
            c = Dyadic.pow2(scale_bits) if scale_bits else ONE
            shifted = shift_for_domination(test, c, dominated)
            assert validate_ml_test(shifted) is None
            assert sorted(shifted.levels) == [i - scale_bits for i in range(1, 5) if i >= scale_bits]

        for _ in range(50):  # filtering behind a ones-prefix gate
            j = rng.randint(0, 2)
            base = random_stage(rng, depth=rng.randint(1, 3))
            tilted = tilt_by_ones(base)
            gate = "1" * j + "0"
            suffix_len = rng.randint(1, 3)
            suffixes = rng.sample(
                sorted(all_strings(suffix_len)), rng.randint(1, min(3, 1 << suffix_len))
            )
            members = tuple(gate + suffix for suffix in suffixes)
            mass = tilted.set_mass(members)
            level = j
            while level < j + 5 and mass <= Dyadic.pow2(-(level + 1)):
                level += 1
            levels = {level: members}
            if j > 0:
                levels[0] = (gate,)  # dropped by the filter: its index is below j
            test = MLTest.build(levels, tilted)
            assert validate_ml_test(test) is None
            filtered = ones_prefix_filter(test, j, base)
            assert validate_ml_test(filtered) is None
            assert sorted(filtered.levels) == [level - j]

        for _ in range(50):  # intersection against brute-forced cylinders
            families = [random_antichain(rng, max_len=4, draws=4) for _ in range(rng.randint(2, 3))]
            combined = intersect_tests(families)
            assert is_prefix_free(combined)
            covered = {x for x in all_strings(10) if any(x.startswith(m) for m in combined)}
            expected = None
            for family in families:
                leaves = {x for x in all_strings(10) if any(x.startswith(m) for m in family)}
                expected = leaves if expected is None else (expected & leaves)
            assert covered == expected


# -- 9: decoding a planted atom bit by bit ---------------------------------------


def planted_atom(rng: random.Random) -> tuple[SemiMeasureStage, str, str, str, int]:
    """A presentation holding one atom, one lighter decoy, and inert slack.

    Returns (stage, path, direction, divergence node, alpha exponent): the
    atom keeps mass 2^-alpha_exp along path then forever in ``direction``;
    the decoy branches off at the divergence node with half that mass.
    """
    path = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
    direction = rng.choice("01")
    alpha_exp = rng.randint(2, 4)
    spine_tail = TailRule.split(ONE, ZERO) if direction == "0" else TailRule.split(ZERO, ONE)

    def spine_component(weight: Dyadic, spine: str, tail: TailRule) -> Component:
        table = {s: (ONE if spine.startswith(s) else ZERO) for s in strings_up_to(len(spine))}
        tails = {node: (tail if node == spine else TailRule.vanish()) for node in all_strings(len(spine))}
        return Component.build(weight, table, tails=tails)

    fork = rng.randint(0, len(path) - 1)
    decoy_path = path[:fork] + ("1" if path[fork] == "0" else "0")
    decoy_tail = rng.choice([TailRule.split(ONE, ZERO), TailRule.split(ZERO, ONE)])
    alpha = Dyadic.pow2(-alpha_exp)
    slack = ONE - alpha - alpha * HALF
    components = (
        spine_component(alpha, path, spine_tail),
        spine_component(alpha * HALF, decoy_path, decoy_tail),
        Component.build(slack, {EPSILON: ONE}, tail=TailRule.vanish()),
    )
    stage = SemiMeasureStage(components, strict=True)
    assert validate(stage).ok
    return stage, path, direction, path[:fork], alpha_exp


def test_criterion_09_atom_decoding():
    with criterion(9, 5.0):
        rng = random.Random(90)
        for case in range(20):
            stage, path, direction, fork_node, alpha_exp = planted_atom(rng)
            q = Dyadic(3, alpha_exp + 2)  # strictly between alpha/2 and alpha
            expected = (path + direction * 32)[:32]
            if case % 10 < 7:
                rho = LeftCeSemiMeasure.constant(stage)
                assert decode_atom(rho, q, EPSILON, 32, max_stage=8) == expected
                # at or below half the atom's mass the decoy child qualifies
                # too, so the walk must report the fork instead of guessing
                for weak in (Dyadic.pow2(-(alpha_exp + 1)), Dyadic.pow2(-(alpha_exp + 2))):
                    with pytest.raises(AmbiguityError) as caught:
                        decode_atom(rho, weak, EPSILON, 32, max_stage=8)
                    assert caught.value.node == fork_node
                    assert caught.value.stage == 0
            else:
                ramp = rng.randint(1, 4)
                rho = LeftCeSemiMeasure(
                    lambda s, st=stage, r=ramp: st if s >= r else st.scaled(Dyadic.pow2(-(r - s)))
                )
                assert decode_atom(rho, q, EPSILON, 32, max_stage=ramp) == expected
                # one stage short of full scale: the shared atom-plus-decoy
                # prefix still decodes, but the pure-atom child past the fork
                # never reaches q, so the budget dies exactly there
                with pytest.raises(BudgetExhaustedError) as caught:
                    decode_atom(rho, q, EPSILON, 32, max_stage=ramp - 1)
                assert caught.value.position == len(fork_node)
                assert caught.value.max_stage == ramp - 1


# -- 10: one semi-measure defeating a finite battery of staged tests -------------


def test_criterion_10_defeating_semimeasure_charges_every_family():
    with criterion(10, 5.0):
        rng = random.Random(100)
        families = []
        for e in range(6):
            events: list[tuple[int, int, str]] = [(0, e, "1")]  # noise on another level
            if e != 4:  # leave one charged level empty on purpose
                first = "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
                later = "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
                events.append((1 + (e % 3), e + 2, first))
                events.append((5, e + 2, later))
                events.append((9, e + 2, "000000"))  # beyond the build stage
            families.append(StagedFamily.from_events(events))
        rho = defeating_semimeasure(families, stage=8)
        assert validate(rho).ok
        assert rho.strict and rho.value(EPSILON) == ONE
        charged = 0
        for e, family in enumerate(families):
            members = tuple(family.first_stages(e + 2, 8))
            assert "000000" not in members
            if members:
                charged += 1
                assert rho.set_mass(members) > Dyadic.pow2(-(e + 2))
        assert charged == 5
        assert not tuple(families[4].first_stages(6, 8))
