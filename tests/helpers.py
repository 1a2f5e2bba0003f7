"""Shared instance generators, one Fraction oracle per quantity, and the
references that pin exact outputs.

The oracles recompute values, level sums and trims from their definitions,
in Fractions and by enumeration over fixed-length strings, and share no
code with the package.  A reference copy of a package path stays only
where an oracle value is not enough: it pins exact tuples, events,
messages or error order, and it reads every value and trim it needs from
the oracles, never from the package's evaluators.  Point values with
level rows, and validation, each have one property test against these
(``test_semimeasure.py``).  Generators are driven by ``random.Random`` so
both the property tests and the seeded acceptance batches can use them
deterministically.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from semimeasures import (
    AmbiguityError,
    BudgetExhaustedError,
    CertificateError,
    Component,
    ConsistencyReport,
    Dyadic,
    EPSILON,
    HALF,
    LebesgueLikeReport,
    LeftCeSemiMeasure,
    MLTest,
    MonotoneFunctional,
    ONE,
    ParseError,
    PreconditionError,
    SemiMeasureStage,
    TailRule,
    ValidationReport,
    ZERO,
    all_strings,
    dyadic_from_text,
    geometric_semimeasure,
    leading_ones,
    mix_stages,
    strings_up_to,
    table_semimeasure,
    tail_from_json,
    uniform_measure,
)
from semimeasures.dyadic import parse_literal
from semimeasures.errors import _index
from semimeasures.semimeasure import TableView
from semimeasures.strings import check_bits, comparable

Pair = tuple[str, str]

QUARTER = Dyadic(1, 2)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.numerator, 2**d.exponent)


def from_fraction(fr: Fraction) -> Dyadic:
    exp = fr.denominator.bit_length() - 1
    if (1 << exp) != fr.denominator:
        raise ValueError(f"not dyadic: {fr}")
    return Dyadic(fr.numerator, exp)


# -- randomized instances -------------------------------------------------------


def random_dyadic(rng: random.Random, at_most: Dyadic, extra_exponent: int = 2) -> Dyadic:
    """Uniform draw from the dyadic grid refining ``at_most`` by extra bits."""
    cap = at_most.numerator << extra_exponent
    return Dyadic(rng.randint(0, cap), at_most.exponent + extra_exponent)


def random_table(
    rng: random.Random,
    depth: int,
    root: Dyadic = ONE,
    extra_exponent: int = 1,
    additive: bool = False,
) -> dict[str, Dyadic]:
    """Random super-additive (or exactly additive) table of the given depth."""
    table = {EPSILON: root}
    for node in strings_up_to(depth - 1) if depth > 0 else ():
        v = table[node]
        cap = v.numerator << extra_exponent
        exp = v.exponent + extra_exponent
        a = rng.randint(0, cap)
        b = (cap - a) if additive else rng.randint(0, cap - a)
        table[node + "0"] = Dyadic(a, exp)
        table[node + "1"] = Dyadic(b, exp)
    return table


def random_tail(rng: random.Random, conserving: bool | None = None) -> TailRule:
    """A random tail rule; ``conserving`` True or False restricts the draw to
    rules that keep, or lose, mass below the frontier."""
    if conserving is True:
        choices = ["uniform", "split-conserving"]
    elif conserving is False:
        choices = ["vanish", "geometric", "split"]
    else:
        choices = ["vanish", "uniform", "geometric", "split", "split-conserving"]
    # a lossy draw keeps its fractions summing to at most 7/8: geometric(1/2)
    # is the uniform rule, and a split may not reach one = 1 - zero
    lossy = 1 if conserving is False else 0
    kind = rng.choice(choices)
    if kind == "vanish":
        return TailRule.vanish()
    if kind == "uniform":
        return TailRule.uniform()
    if kind == "geometric":
        return TailRule.geometric(Dyadic(rng.randint(0, 4 - lossy), 3))
    zero = Dyadic(rng.randint(0, 8 - lossy), 3)
    if kind == "split-conserving":
        return TailRule.split(zero, ONE - zero)
    used = zero.numerator << (3 - zero.exponent)  # zero in eighths (exponent <= 3 after canonicalisation)
    one = Dyadic(rng.randint(0, 8 - used - lossy), 3)
    return TailRule.split(zero, one)


def random_component(
    rng: random.Random,
    weight: Dyadic = ONE,
    depth: int = 2,
    extra_exponent: int = 1,
    tilt: int = 0,
    conserving: bool | None = None,
) -> Component:
    table = random_table(rng, depth, extra_exponent=extra_exponent)
    tails = {node: random_tail(rng, conserving) for node in all_strings(depth)}
    return Component.build(weight, table, tails=tails, tilt=tilt)


def random_stage(
    rng: random.Random,
    depth: int = 2,
    strict: bool = True,
    parts: int | None = None,
    tilt_allowed: bool = False,
    conserving: bool | None = None,
) -> SemiMeasureStage:
    parts = parts if parts is not None else rng.choice([1, 2])
    weights = [ONE] if parts == 1 else [HALF, HALF]
    comps = []
    for w in weights:
        tilt = rng.choice([0, 0, 1]) if tilt_allowed else 0
        comps.append(
            random_component(rng, weight=w, depth=depth, tilt=tilt, conserving=conserving)
        )
    return SemiMeasureStage(tuple(comps), strict=strict)


def random_joint_stage(rng: random.Random, depth: int = 2, parts: int | None = None) -> SemiMeasureStage:
    """Strict mixture that is super-additive as a whole while its components,
    in general, are not: a random super-additive table with root 1 is split
    node by node into weighted shares, one per component, and each component
    gets its own random tails."""
    parts = parts if parts is not None else rng.choice([2, 3])
    weights = [HALF, HALF] if parts == 2 else [HALF, Dyadic(1, 2), Dyadic(1, 2)]
    tables: list[dict[str, Dyadic]] = [{} for _ in weights]
    for node, v in random_table(rng, depth).items():
        left = v
        for k, w in enumerate(weights):
            share = left if k == len(weights) - 1 else random_dyadic(rng, left)
            left = left - share
            tables[k][node] = share * Dyadic.pow2(w.exponent)  # the component value is share / w
    comps = tuple(
        Component.build(w, table, tails={node: random_tail(rng) for node in all_strings(depth)})
        for w, table in zip(weights, tables)
    )
    return SemiMeasureStage(comps, strict=True)


def half_blend() -> SemiMeasureStage:
    """Half the fair coin plus half the quarter-geometric decay, which leaks mass."""
    return mix_stages([uniform_measure(), geometric_semimeasure(Dyadic(1, 2))], [HALF, HALF])


def random_antichain(rng: random.Random, max_len: int = 5, draws: int = 5) -> tuple[str, ...]:
    kept: list[str] = []
    for _ in range(draws):
        n = rng.randint(1, max_len)
        s = "".join(rng.choice("01") for _ in range(n))
        if not any(s.startswith(k) or k.startswith(s) for k in kept):
            kept.append(s)
    return tuple(sorted(kept, key=lambda s: (len(s), s)))


def random_bits(rng: random.Random, max_len: int = 8) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


# -- oracles ---------------------------------------------------------------------


def oracle_component_value(comp: Component, sigma: str) -> Fraction:
    """Component value from the raw definition, in Fractions: the table
    entry, below the frontier times the rule's fraction one bit at a time,
    over 2**(tilt * leading ones)."""
    node, below = sigma[: comp.depth], sigma[comp.depth :]
    base = as_fraction(comp.table[node])
    if below:
        rule = comp.tails[node]
        zero, one = as_fraction(rule.zero), as_fraction(rule.one)
        for b in below:
            base *= zero if b == "0" else one
    return base / 2 ** (comp.tilt * leading_ones(sigma))


def oracle_stage_value(stage: SemiMeasureStage, sigma: str) -> Fraction:
    return sum(
        (as_fraction(c.weight) * oracle_component_value(c, sigma) for c in stage.components),
        Fraction(0),
    )


def oracle_level_sum(stage: SemiMeasureStage, sigma: str, n: int) -> Fraction:
    """Sum of the stage's values over all length-n extensions of sigma."""
    return sum((oracle_stage_value(stage, sigma + tail) for tail in all_strings(n - len(sigma))), Fraction(0))


def reference_plain_level_sum(comp: Component, sigma: str, n: int | None) -> Fraction:
    """Untilted level sum (n = None: the trim limit), one table or frontier
    node at a time: levels below it a frontier node keeps (zero + one)**levels
    of its mass, in the limit all of it under a conserving rule and none
    under any other."""
    if n is not None and n <= comp.depth:
        return sum((as_fraction(comp.table[sigma + tail]) for tail in all_strings(n - len(sigma))), Fraction(0))
    levels = None if n is None else n - max(len(sigma), comp.depth)

    def kept(rule: TailRule) -> Fraction:
        total = as_fraction(rule.zero) + as_fraction(rule.one)
        return Fraction(int(total == 1)) if levels is None else total**levels

    if len(sigma) >= comp.depth:
        node, below = sigma[: comp.depth], sigma[comp.depth :]
        rule = comp.tails[node]
        v = as_fraction(comp.table[node])
        v *= as_fraction(rule.zero) ** below.count("0") * as_fraction(rule.one) ** below.count("1")
        return v * kept(rule)
    total = Fraction(0)
    for tail in all_strings(comp.depth - len(sigma)):
        frontier = sigma + tail
        total += as_fraction(comp.table[frontier]) * kept(comp.tails[frontier])
    return total


def reference_spine_level_sum(comp: Component, sigma: str, n: int) -> Fraction:
    """Level sum at a sigma on the 1-spine, tilt included, in Fractions: an
    extension of sigma leaves the spine at 1^j 0 for |sigma| <= j < n or is
    1^n, and each exit adds its untilted level sum times 2**(-tilt * j)."""
    assert "0" not in sigma
    exits = [("1" * j + "0", j) for j in range(len(sigma), n)] + [("1" * n, n)]
    return sum((reference_plain_level_sum(comp, tau, n) / 2 ** (comp.tilt * j) for tau, j in exits), Fraction(0))


def oracle_trim(stage: SemiMeasureStage, sigma: str) -> Fraction:
    """Trimmed mass of an untilted stage at sigma: the weighted sum of each
    component's limit."""
    assert all(c.tilt == 0 for c in stage.components), "tilted components have no closed-form trim"
    return sum(
        (as_fraction(c.weight) * reference_plain_level_sum(c, sigma, None) for c in stage.components),
        Fraction(0),
    )


def oracle_functional_eval(pairs: Iterable[Pair], x: str) -> str:
    """Longest output among pairs whose input is a prefix of x."""
    best = EPSILON
    for i, o in pairs:
        if x.startswith(i) and len(o) > len(best):
            best = o
    return best


def oracle_induced_mass(pairs: Iterable[Pair], tau: str) -> Fraction:
    """Measure of the inputs whose pair's output extends tau: 2^-|i| for
    each such input i that extends no other one, found by a pairwise scan."""
    inputs = {i for i, o in pairs if o.startswith(tau)}
    return sum((Fraction(1, 2 ** len(i)) for i in inputs if not any(i != j and i.startswith(j) for j in inputs)),
               Fraction(0))


def oracle_cylinder_leaves(members: Iterable[str], depth: int) -> set[str]:
    """All length-``depth`` strings whose cylinder lies in the member union."""
    pool = list(members)
    assert all(len(m) <= depth for m in pool), "resolution must cover every member"
    return {x for x in all_strings(depth) if any(x.startswith(m) for m in pool)}


def oracle_intersection_leaves(sets: Sequence[Iterable[str]], depth: int) -> set[str]:
    common = None
    for members in sets:
        leaves = oracle_cylinder_leaves(members, depth)
        common = leaves if common is None else (common & leaves)
    return common if common is not None else set()


def oracle_stage_mass(stage: SemiMeasureStage, members: Iterable[str]) -> Fraction:
    """Mass of the normalised set, each member's value from the definition."""
    return sum((oracle_stage_value(stage, m) for m in reference_prefix_free_normalize(members)), Fraction(0))


# -- references that pin exact outputs ----------------------------------------------
#
# Pairwise scans in a (length, lex) order of their own, the direct forms of
# the package's antichain functions: its one-lex-pass versions must return
# exactly these tuples.  The
# Lebesgue-likeness check as one trim per node, which pins the witness node
# and the error; the mixture's pushdown in Fractions, which pins every
# entry of the completed table; and validation node by node in separate
# passes, which pins the first failing node, its message and its children
# against the package's sweeps over integer level rows.


def reference_canon(strings: Iterable[str]) -> tuple[str, ...]:
    """Deduplicated, in (length, lex) order, by a key of its own."""
    return tuple(sorted(set(strings), key=lambda s: (len(s), s)))


def reference_prefix_free_normalize(strings: Iterable[str]) -> tuple[str, ...]:
    kept: list[str] = []
    for s in reference_canon(strings):
        if not any(s.startswith(k) for k in kept):
            kept.append(s)
    return tuple(kept)


def reference_is_prefix_free(strings: Iterable[str]) -> bool:
    items = reference_canon(strings)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if b.startswith(a):
                return False
    return True


def reference_intersect_sets(a: Iterable[str], b: Iterable[str]) -> tuple[str, ...]:
    out = []
    items_b = reference_canon(b)
    for x in reference_canon(a):
        for y in items_b:
            if y.startswith(x):
                out.append(y)
            elif x.startswith(y):
                out.append(x)
    return reference_prefix_free_normalize(out)


def reference_lebesgue_like_check(stage: SemiMeasureStage, depth: int) -> LebesgueLikeReport:
    """One trim per node of length <= depth, top-down."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if any(c.tilt for c in stage.components):
        raise PreconditionError("exact trimming unavailable for this presentation")
    alpha = oracle_trim(stage, EPSILON)
    if not alpha:
        return LebesgueLikeReport(alpha=None, witness=EPSILON)
    for s in strings_up_to(depth):
        if oracle_trim(stage, s) != alpha / 2 ** len(s):
            return LebesgueLikeReport(alpha=None, witness=s)
    return LebesgueLikeReport(alpha=from_fraction(alpha), witness=None)


def reference_pushdown(stage: SemiMeasureStage, depth: int) -> dict[str, Fraction]:
    """The mixture's completed table in Fractions: each node's surplus goes
    to its children in equal halves, from mu(root) = value(root)."""
    mu = {EPSILON: oracle_stage_value(stage, EPSILON)}
    for node in strings_up_to(depth - 1) if depth > 0 else ():
        a, b = oracle_stage_value(stage, node + "0"), oracle_stage_value(stage, node + "1")
        surplus = mu[node] - a - b
        mu[node + "0"] = a + surplus / 2
        mu[node + "1"] = b + surplus / 2
    return mu


def reference_validate(stage: SemiMeasureStage) -> ValidationReport:
    """Tail totals, root, then super-additivity node by node, each node's
    value recomputed as parent and again as child."""
    for idx, comp in enumerate(stage.components):
        for node, rule in comp.tails.items():
            if rule.total > ONE:
                return ValidationReport(
                    False, node=node, message=f"component {idx}: tail fractions must be >= 0 and sum to <= 1"
                )
    root = from_fraction(oracle_stage_value(stage, EPSILON))
    if stage.strict and root != ONE:
        return ValidationReport(False, node=EPSILON, message=f"strict presentation has root mass {root}")
    if root > ONE:
        return ValidationReport(False, node=EPSILON, message=f"root mass {root} exceeds 1")
    for node in strings_up_to(stage.max_depth - 1):
        parent, left, right = (from_fraction(oracle_stage_value(stage, s)) for s in (node, node + "0", node + "1"))
        if left + right > parent:
            return ValidationReport(
                False,
                node=node,
                message=f"super-additivity fails at {node!r}: {left} + {right} > {parent}",
                children=(left, right),
            )
    return ValidationReport(ok=True)


def reference_validate_measure(stage: SemiMeasureStage) -> ValidationReport:
    """Two passes: a full :func:`reference_validate`, then the tail check,
    then a second walk for the first additivity gap."""
    rep = reference_validate(stage)
    if not rep.ok:
        return rep
    for comp in stage.components:
        for node, rule in comp.tails.items():
            if not rule.conserving and comp.table[node] != ZERO:
                return ValidationReport(False, node=node, message="tail loses mass at a charged frontier node")
    for node in strings_up_to(stage.max_depth - 1):
        if oracle_stage_value(stage, node + "0") + oracle_stage_value(stage, node + "1") != oracle_stage_value(stage, node):
            return ValidationReport(False, node=node, message=f"additivity fails at {node!r}")
    return ValidationReport(ok=True)


# Inversion, induction and consistency as first written, on strings and
# Dyadics: every node's pool derived by subtracting its parent's and
# sibling's allocations and carved by recursive halving, every node's
# induced mass measured from its own preimage bucket, and a pairwise scan
# of each input's prefix chain.  The package works on integer intervals, a
# walk over the live nodes and a stack of prefix chains instead, and must
# give exactly these results.


def reference_subtract_sets(a: Iterable[str], b: Iterable[str]) -> tuple[str, ...]:
    """Antichain denoting (union of a) minus (union of b), carved cylinder by cylinder."""
    removed = reference_canon(b)

    def carve(cyl: str, blockers: Sequence[str]) -> list[str]:
        if any(cyl.startswith(q) for q in blockers):
            return []
        inner = [q for q in blockers if q.startswith(cyl) and q != cyl]
        if not inner:
            return [cyl]
        return carve(cyl + "0", inner) + carve(cyl + "1", inner)

    out: list[str] = []
    for cyl in reference_canon(a):
        out.extend(carve(cyl, removed))
    return reference_canon(out)


def _reference_take_leftmost(free: Sequence[str], need: Dyadic) -> list[str]:
    taken: list[str] = []

    def carve(cyl: str, want: Dyadic) -> Dyadic:
        if not want:
            return want
        m = Dyadic.pow2(-len(cyl))
        if m <= want:
            taken.append(cyl)
            return want - m
        want = carve(cyl + "0", want)
        if want:
            want = carve(cyl + "1", want)
        return want

    remaining = need
    for cyl in sorted(free):
        if not remaining:
            break
        remaining = carve(cyl, remaining)
    if remaining:
        raise PreconditionError(f"allocation pool too small by {remaining}")
    return taken


def reference_from_semimeasure(
    rho: LeftCeSemiMeasure, stage: int, depth: int, granularity_cap: int = 16
) -> MonotoneFunctional:
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if not rho.stage_at(stage).strict:
        raise PreconditionError("inversion requires a strict final stage")
    alloc: dict[str, list[str]] = {s: [] for s in strings_up_to(depth)}
    held: dict[str, Dyadic] = {s: ZERO for s in strings_up_to(depth)}
    events: list[tuple[int, str, str]] = []
    for t in range(stage + 1):
        st = rho.stage_at(t)
        for node in strings_up_to(depth):
            target = from_fraction(oracle_stage_value(st, node))
            if target.exponent > granularity_cap:
                raise PreconditionError(f"stage value {target} at {node!r} finer than 2^-{granularity_cap}")
            have = held[node]
            if target == have:
                continue
            if target < have:
                raise PreconditionError(f"stage values decreased at {node!r} (stage {t})")
            if node == EPSILON:
                pool = reference_subtract_sets((EPSILON,), alloc[node])
            else:
                parent, sibling = node[:-1], node[:-1] + ("1" if node[-1] == "0" else "0")
                pool = reference_subtract_sets(alloc[parent], alloc[sibling] + alloc[node])
            fresh = _reference_take_leftmost(pool, target - have)
            alloc[node].extend(fresh)
            held[node] = target
            events.extend((t, cyl, node) for cyl in fresh)
    return MonotoneFunctional.from_events(events)


def reference_induced_semimeasure(phi: MonotoneFunctional, stage: int, depth: int) -> SemiMeasureStage:
    """The induced table node by node, each value from the oracle."""
    pairs = phi.pairs_at(stage)
    return table_semimeasure({s: from_fraction(oracle_induced_mass(pairs, s)) for s in strings_up_to(depth)})


def reference_consistency_check(phi: MonotoneFunctional, stage: int) -> ConsistencyReport:
    by_input: dict[str, list[str]] = {}
    for i, o in sorted(phi.pairs_at(stage)):
        by_input.setdefault(i, []).append(o)
    for i in by_input:
        chain = [(i[:k], o) for k in range(len(i) + 1) for o in by_input.get(i[:k], ())]
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                if not comparable(chain[a][1], chain[b][1]):
                    return ConsistencyReport(False, chain[a], chain[b])
    return ConsistencyReport(True)


# The test transforms member by member: each member's preimage, and from it
# the pullback certificate, found by its own scan of the pairs, the
# domination certificate and the filter's masses from one point value at a
# time (here in Fractions).  The package reads both from int rows and
# buckets the pairs in one pass, and must return the same levels and raise
# the same errors.


def reference_preimage_set(phi: MonotoneFunctional, tau: str, stage: int) -> tuple[str, ...]:
    """Preimage of tau by its own scan of every pair."""
    return reference_prefix_free_normalize(i for i, o in phi.pairs_at(stage) if o.startswith(tau))


def reference_pullback_test(test: MLTest, phi: MonotoneFunctional, stage: int) -> MLTest:
    pairs = phi.pairs_at(stage)
    for s in test.members():
        if oracle_stage_value(test.base, s) != oracle_induced_mass(pairs, s):
            raise CertificateError(f"test base disagrees with the induced semi-measure at {s!r}", witness=s)
    new_levels = {}
    for i, level in test.levels.items():
        new_levels[i] = reference_prefix_free_normalize(x for s in level for x in reference_preimage_set(phi, s, stage))
    return MLTest.build(new_levels, uniform_measure())


def reference_shift_for_domination(test: MLTest, c: Dyadic, dominated: SemiMeasureStage) -> MLTest:
    if c < ONE:
        raise ValueError("domination constant must be at least 1")
    k = 0
    while Dyadic.pow2(k) < c:
        k += 1
    for s in test.members():
        if oracle_stage_value(dominated, s) > as_fraction(c) * oracle_stage_value(test.base, s):
            raise CertificateError(f"domination fails at {s!r}", witness=s)
    new_levels = {}
    for i in sorted(test.levels):
        if i - k < 0:
            continue
        level = test.levels[i]
        mass = oracle_stage_mass(dominated, level)
        if mass > as_fraction(c) / 2**i:
            raise CertificateError(f"shifted level {i} has mass {from_fraction(mass)}", witness=None)
        new_levels[i - k] = level
    return MLTest.build(new_levels, dominated)


def reference_ones_prefix_filter(test: MLTest, j: int, base: SemiMeasureStage) -> MLTest:
    if j < 0:
        raise ValueError("spine length must be non-negative")
    gate = "1" * j + "0"
    new_levels = {}
    for i in sorted(test.levels):
        if i - j < 0:
            continue
        kept = tuple(s for s in test.levels[i] if s.startswith(gate))
        mass, tilted = oracle_stage_mass(base, kept), oracle_stage_mass(test.base, kept)
        if mass != 2**j * tilted:
            raise CertificateError(
                f"level {i}: base mass {from_fraction(mass)} is not 2^{j} times the tilted mass {from_fraction(tilted)}"
            )
        if mass > Fraction(1, 2 ** (i - j)):
            raise CertificateError(f"filtered level {i} has mass {from_fraction(mass)} over the base")
        new_levels[i - j] = kept
    return MLTest.build(new_levels, base)


# Functionals as the cumulative pair set of each stage, every combinator
# taking the union for itself.  The package builds each functional from the
# batches that enter at each stage and takes the union in one place, and
# must give the same pairs at every stage.

PairsFn = Callable[[int], frozenset[Pair]]


def reference_from_events(events: Iterable[tuple[int, str, str]]) -> PairsFn:
    evs = tuple(events)
    return lambda s: frozenset((i, o) for t, i, o in evs if t <= s)


def reference_identity() -> PairsFn:
    def fn(s: int) -> frozenset[Pair]:
        return frozenset((x, x) for x in strings_up_to(s))

    return fn


def reference_pad_with_identity(phi: PairsFn) -> PairsFn:
    def fn(s: int) -> frozenset[Pair]:
        shifted = {("0" + i, o) for i, o in phi(s)}
        copies = {("1" + x, x) for x in strings_up_to(s)}
        return frozenset(shifted | copies)

    return fn


def reference_universal_functional(family: Sequence[PairsFn]) -> PairsFn:
    members = list(family)

    def fn(s: int) -> frozenset[Pair]:
        pairs = set()
        for e, phi in enumerate(members):
            prefix = "1" * e + "0"
            pairs.update((prefix + i, o) for i, o in phi(s))
        return frozenset(pairs)

    return fn


# -- document boundary and atom decoding: the straightforward paths ---------
#
# One Dyadic per literal, one tail rule read per frontier node, events
# checked string by string, one row per key while flattening, and a stage
# scan from 0 for every bit.  The package's paths read each distinct
# literal and rule once, build integer rows and stage batches directly,
# and resume each scan at the deciding stage; they must give equal objects,
# equal text and the same errors.


def reference_component_from_json(obj: Any) -> Component:
    if not isinstance(obj, Mapping):
        raise ParseError("component must be an object")
    try:
        weight = dyadic_from_text(obj["weight"])
        rows = obj["table"]
    except KeyError as exc:
        raise ParseError(f"component missing field {exc}") from None
    if not isinstance(rows, list) or not rows:
        raise ParseError("component table must be a non-empty list of rows")
    depth = obj.get("depth", len(rows) - 1)
    try:
        _index(depth, "component 'depth'")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if depth != len(rows) - 1:
        raise ParseError(f"component depth {depth} does not match {len(rows)} table rows")
    table = {}
    for level, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 1 << level:
            raise ParseError(f"table row {level} must list {1 << level} values")
        for node, text in zip(all_strings(level), row):
            table[node] = Dyadic(*parse_literal(text))
    tails = None
    tail = None
    if "tails" in obj:
        if not isinstance(obj["tails"], Mapping):
            raise ParseError("'tails' must map frontier nodes to rules")
        tails = {check_bits(str(k)): tail_from_json(v) for k, v in obj["tails"].items()}
    if "tail" in obj:
        tail = tail_from_json(obj["tail"])
    if tail is None and tails is None:
        raise ParseError("component needs a 'tail' or a 'tails' field")
    try:
        return Component.build(weight, TableView.of(table), tail=tail, tails=tails, tilt=obj.get("tilt", 0))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def reference_functional_from_json(obj: Any) -> MonotoneFunctional:
    if isinstance(obj, Mapping) and obj.get("kind") == "identity":
        return MonotoneFunctional.identity()
    if not isinstance(obj, Mapping) or "stages" not in obj:
        raise ParseError("functional must be an object with 'stages'")
    stages = obj["stages"]
    if not isinstance(stages, list):
        raise ParseError("'stages' must be a list of pair lists")
    events = []
    for t, pairs in enumerate(stages):
        if not isinstance(pairs, list):
            raise ParseError(f"stage {t} must be a list of [input, output] pairs")
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"stage {t}: each pair must be [input, output]")
            events.append((t, *pair))
    return MonotoneFunctional.from_events(events)


def reference_test_levels_from_json(obj: Any) -> dict[int, tuple[str, ...]]:
    """The canonical levels of a test document, read level by level and
    member by member."""
    levels = {}
    for i, row in enumerate(obj["levels"]):
        if not isinstance(row, list):
            raise ParseError(f"level {i} must be a list of strings")
        levels[i] = reference_canon(check_bits(s) for s in row)
    return levels


def reference_from_infimum_sequence(rows: Sequence, stage: int, depth: int) -> SemiMeasureStage:
    """sigma -> 2^-|sigma| * min_{i <= |sigma|} r_i(stage), one Dyadic product per node."""
    if not rows:
        raise ValueError("at least one generator row is required")
    vals = []
    for i, row in enumerate(rows):
        if callable(row):
            v = row(stage)
        elif row:
            v = row[min(stage, len(row) - 1)]
        else:
            raise ValueError("generator value lists must be non-empty")
        if not isinstance(v, Dyadic) or v > ONE:
            raise ValueError(f"generator {i} must yield dyadics in [0, 1], got {v}")
        vals.append(v)
    table = {s: Dyadic.pow2(-len(s)) * min(vals[: len(s) + 1]) for s in strings_up_to(depth)}
    comp = Component.build(ONE, table, tail=TailRule.uniform())
    return SemiMeasureStage((comp,), strict=vals[0] == ONE)


def reference_flatten(prefix: str, obj: Any, rows: list[tuple[str, str]]) -> None:
    """Key/value rows of the CSV form, one recursive call per value."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            reference_flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, list):
        for idx, item in enumerate(obj):
            reference_flatten(f"{prefix}[{idx}]", item, rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def reference_decode_atom(
    rho: LeftCeSemiMeasure, q: Dyadic, seed: str, bits: int, max_stage: int = 256
) -> str:
    """decode_atom with every bit's stage scan starting at stage 0."""
    current = seed
    for _ in range(bits):
        emitted = None
        for s in range(max_stage + 1):
            low, high = (from_fraction(oracle_stage_value(rho.stage_at(s), current + b)) for b in "01")
            if low >= q and high >= q:
                raise AmbiguityError(
                    f"both children of {current!r} reached {q} at stage {s}", node=current, stage=s
                )
            if low >= q or high >= q:
                emitted = "0" if low >= q else "1"
                break
        if emitted is None:
            raise BudgetExhaustedError(
                f"no child of {current!r} reached {q} within {max_stage} stages",
                position=len(current),
                max_stage=max_stage,
            )
        current += emitted
    return current[len(seed):]
