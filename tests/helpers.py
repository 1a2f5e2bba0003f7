"""Shared instance generators and independent brute-force oracles.

The oracles recompute quantities straight from the definitions — Fractions
plus exhaustive enumeration over fixed-length strings — so they share no
code with the package's closed-form or incremental paths.  Generators are
driven by ``random.Random`` so both the property tests and the seeded
acceptance batches can use them deterministically.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from semimeasures import (
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
    PreconditionError,
    SemiMeasureStage,
    TailRule,
    ValidationReport,
    ZERO,
    all_strings,
    derived_measure,
    induced_semimeasure,
    leading_ones,
    preimage_set,
    prefix_free_normalize,
    strings_up_to,
    uniform_measure,
)
from semimeasures.strings import canon, comparable

Pair = tuple[str, str]


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
    """Component value from the raw definition, in Fractions."""
    if len(sigma) <= comp.depth:
        base = as_fraction(comp.table[sigma])
    else:
        node = sigma[: comp.depth]
        rule = comp.tails[node]
        base = as_fraction(comp.table[node])
        for b in sigma[comp.depth :]:
            base *= as_fraction(rule.zero if b == "0" else rule.one)
    return base / 2 ** (comp.tilt * leading_ones(sigma))


def oracle_stage_value(stage: SemiMeasureStage, sigma: str) -> Fraction:
    return sum(
        (as_fraction(c.weight) * oracle_component_value(c, sigma) for c in stage.components),
        Fraction(0),
    )


def oracle_level_sum(value: Callable[[str], Dyadic], sigma: str, n: int) -> Fraction:
    """Brute-force sum of values over all length-n extensions of sigma."""
    return sum(
        (as_fraction(value(sigma + tail)) for tail in all_strings(n - len(sigma))),
        Fraction(0),
    )


def oracle_functional_eval(pairs: Iterable[Pair], x: str) -> str:
    """Longest output among pairs whose input is a prefix of x."""
    best = EPSILON
    for i, o in pairs:
        if x.startswith(i) and len(o) > len(best):
            best = o
    return best


def oracle_induced_mass(pairs: Sequence[Pair], tau: str, resolution: int | None = None) -> Fraction:
    """Counting-measure version of the induced semi-measure.

    Counts the strings of a fixed length lying in some input cylinder whose
    pair's output extends tau; dividing by the count of all such strings
    gives the measure of the preimage union.
    """
    length = resolution
    if length is None:
        length = max((len(i) for i, _o in pairs), default=0)
    length = max(length, 1)
    hits = sum(
        1
        for x in all_strings(length)
        if any(x.startswith(i) and o.startswith(tau) for i, o in pairs)
    )
    return Fraction(hits, 1 << length)


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
    return sum((oracle_stage_value(stage, m) for m in prefix_free_normalize(members)), Fraction(0))


# -- pairwise references -----------------------------------------------------------
#
# Pairwise scans and a per-bit loop: the direct forms of the package's
# antichain functions and component tails.  The length-indexed and
# closed-form versions in the package must return exactly what these do.
# Likewise the trim limit taken frontier node by frontier node, level sums
# added one Dyadic at a time, the Lebesgue-likeness check as one trim per
# node, the mixture's pushdown in Fractions, and validation node by node in
# separate passes, against the package's sweeps over integer level rows.


def reference_prefix_free_normalize(strings: Iterable[str]) -> tuple[str, ...]:
    kept: list[str] = []
    for s in canon(strings):
        if not any(s.startswith(k) for k in kept):
            kept.append(s)
    return tuple(kept)


def reference_is_prefix_free(strings: Iterable[str]) -> bool:
    items = canon(strings)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if b.startswith(a):
                return False
    return True


def reference_intersect_sets(a: Iterable[str], b: Iterable[str]) -> tuple[str, ...]:
    out = []
    items_b = canon(b)
    for x in canon(a):
        for y in items_b:
            if y.startswith(x):
                out.append(y)
            elif x.startswith(y):
                out.append(x)
    return reference_prefix_free_normalize(out)


def reference_component_value(comp: Component, sigma: str) -> Dyadic:
    """Component value with the tail applied one bit at a time."""
    if len(sigma) <= comp.depth:
        v = comp.table[sigma]
    else:
        frontier = sigma[: comp.depth]
        v = comp.table[frontier]
        rule = comp.tails[frontier]
        for bit in sigma[comp.depth :]:
            if v.is_zero:
                v = ZERO
                break
            v = v * rule.factor(bit)
    return v * Dyadic.pow2(-comp.tilt * leading_ones(sigma))


def reference_trim(comp: Component, sigma: str) -> Fraction:
    """Trim limit of an untilted component at sigma, in Fractions.

    A frontier subtree whose tail conserves mass keeps its value and every
    other subtree goes to 0: at or below the frontier that is the value of
    sigma or nothing, above it the sum over the conserving frontier nodes
    extending sigma.
    """
    assert comp.tilt == 0, "tilted components have no closed-form trim"
    if len(sigma) >= comp.depth:
        if comp.tails[sigma[: comp.depth]].conserving:
            return oracle_component_value(comp, sigma)
        return Fraction(0)
    frontier = (sigma + tail for tail in all_strings(comp.depth - len(sigma)))
    return sum((as_fraction(comp.table[f]) for f in frontier if comp.tails[f].conserving), Fraction(0))


def reference_plain_level_sum(comp: Component, sigma: str, n: int | None) -> Dyadic:
    """Untilted level sum (n = None: the trim limit) added up one table or
    frontier node at a time, each frontier node times its own kept factor."""
    if n is not None and n <= comp.depth:
        total = ZERO
        for tail in all_strings(n - len(sigma)):
            total = total + comp.table[sigma + tail]
        return total
    levels = None if n is None else n - max(len(sigma), comp.depth)
    if len(sigma) >= comp.depth:
        rule = comp.tails[sigma[: comp.depth]]
        v = comp.table[sigma[: comp.depth]]
        for bit in sigma[comp.depth :]:
            v = v * rule.factor(bit)
        return v * rule.kept(levels)
    total = ZERO
    for tail in all_strings(comp.depth - len(sigma)):
        frontier = sigma + tail
        total = total + comp.table[frontier] * comp.tails[frontier].kept(levels)
    return total


def reference_lebesgue_like_check(stage: SemiMeasureStage, depth: int) -> LebesgueLikeReport:
    """One derived measure per node of length <= depth, top-down."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    root = derived_measure(stage, EPSILON)
    if not root.stabilized:
        raise PreconditionError("exact trimming unavailable for this presentation")
    alpha = root.value
    if alpha.is_zero:
        return LebesgueLikeReport(alpha=None, witness=EPSILON)
    for s in strings_up_to(depth):
        if derived_measure(stage, s).value != alpha * Dyadic.pow2(-len(s)):
            return LebesgueLikeReport(alpha=None, witness=s)
    return LebesgueLikeReport(alpha=alpha, witness=None)


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
    """Structure, root, then super-additivity node by node, each node's
    value recomputed as parent and again as child."""
    for idx, comp in enumerate(stage.components):
        if comp.weight < ZERO:
            return ValidationReport(False, message=f"component {idx}: negative weight")
        if set(comp.table) != set(strings_up_to(comp.depth)):
            return ValidationReport(False, message=f"component {idx}: incomplete table")
        for node, v in comp.table.items():
            if v < ZERO:
                return ValidationReport(False, node=node, message=f"component {idx}: negative value")
        if set(comp.tails) != set(all_strings(comp.depth)):
            return ValidationReport(False, message=f"component {idx}: tail map must cover the frontier")
        for node, rule in comp.tails.items():
            if rule.zero < ZERO or rule.one < ZERO or rule.total > ONE:
                return ValidationReport(
                    False, node=node, message=f"component {idx}: tail fractions must be >= 0 and sum to <= 1"
                )
        if comp.tilt < 0:
            return ValidationReport(False, message=f"component {idx}: negative tilt")
    root = stage.value(EPSILON)
    if stage.strict and root != ONE:
        return ValidationReport(False, node=EPSILON, message=f"strict presentation has root mass {root}")
    if root > ONE:
        return ValidationReport(False, node=EPSILON, message=f"root mass {root} exceeds 1")
    for node in strings_up_to(stage.max_depth - 1):
        parent = stage.value(node)
        left = stage.value(node + "0")
        right = stage.value(node + "1")
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
        if stage.value(node + "0") + stage.value(node + "1") != stage.value(node):
            return ValidationReport(False, node=node, message=f"additivity fails at {node!r}")
    return ValidationReport(ok=True)


# Inversion and consistency as first written: every node's pool derived by
# subtracting its parent's and sibling's allocations, and a pairwise scan of
# each prefix chain.  The package keeps spare cylinders per node and one
# linear conflict search instead, and must give exactly these results.


def reference_subtract_sets(a: Iterable[str], b: Iterable[str]) -> tuple[str, ...]:
    """Antichain denoting (union of a) minus (union of b), carved cylinder by cylinder."""
    removed = canon(b)

    def carve(cyl: str, blockers: Sequence[str]) -> list[str]:
        if any(cyl.startswith(q) for q in blockers):
            return []
        inner = [q for q in blockers if q.startswith(cyl) and q != cyl]
        if not inner:
            return [cyl]
        return carve(cyl + "0", inner) + carve(cyl + "1", inner)

    out: list[str] = []
    for cyl in canon(a):
        out.extend(carve(cyl, removed))
    return canon(out)


def _reference_take_leftmost(free: Sequence[str], need: Dyadic) -> list[str]:
    taken: list[str] = []

    def carve(cyl: str, want: Dyadic) -> Dyadic:
        if want.is_zero:
            return want
        m = Dyadic.pow2(-len(cyl))
        if m <= want:
            taken.append(cyl)
            return want - m
        want = carve(cyl + "0", want)
        if not want.is_zero:
            want = carve(cyl + "1", want)
        return want

    remaining = need
    for cyl in sorted(free):
        if remaining.is_zero:
            break
        remaining = carve(cyl, remaining)
    if not remaining.is_zero:
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
            target = st.value(node)
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


# The test transforms member by member, as first written: the pullback
# certificate read from a whole induced table and each member's preimage
# found by its own scan of the pairs, the domination certificate and the
# filter's masses from one point value at a time (here in Fractions).  The
# package reads both from int rows and buckets the pairs in one pass, and
# must return the same levels and raise the same errors.


def reference_pullback_test(test: MLTest, phi: MonotoneFunctional, stage: int) -> MLTest:
    members = test.members()
    probe = max((len(s) for s in members), default=0)
    induced = induced_semimeasure(phi, stage, probe)
    for s in members:
        if oracle_stage_value(test.base, s) != as_fraction(induced.value(s)):
            raise CertificateError(f"test base disagrees with the induced semi-measure at {s!r}", witness=s)
    new_levels = {}
    for i, level in test.levels.items():
        new_levels[i] = prefix_free_normalize(x for s in level for x in preimage_set(phi, s, stage))
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
