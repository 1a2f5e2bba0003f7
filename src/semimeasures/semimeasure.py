"""Finitely presented semi-measures on the binary tree, and staged families.

A presentation is a finite mixture of components.  Each component is a
complete table of values on all strings of length <= depth together with a
tail rule per frontier node; the tail rule fixes the values everywhere below
the frontier, so evaluation is total.  A tail rule sends the fractions
``zero`` and ``one`` of a node's mass to its two children, uniformly on the
whole subtree; ``zero + one <= 1`` keeps super-additivity automatic below
the frontier.  The named special cases:

    vanish        (0, 0)      all mass dies at the frontier
    uniform       (1/2, 1/2)  Lebesgue splitting
    geometric(b)  (b, b)      symmetric decay, 0 <= b <= 1/2
    split(z, o)   (z, o)      directional, e.g. (0, 1) is a point mass spine

A component may additionally carry a "ones tilt": its value at sigma is
multiplied by 2**(-tilt * j) where j is the length of the maximal all-ones
prefix of sigma.  The factor only shrinks along the 1-spine, so validity is
preserved; exact trimming is not available for tilted components.

Super-additivity -- value(s) >= value(s0) + value(s1) at every node -- is
asserted by :func:`validate`, never assumed.  A presentation is *strict*
when it claims root mass exactly 1.

Whole-table sweeps (validation, completion, the Lebesgue-likeness check in
:mod:`trim`) read the presentation one level at a time through
:meth:`SemiMeasureStage.level_row`: the values of all strings of one length
as ``int`` numerators over a single power of two.  Point evaluation has
the same form: :meth:`SemiMeasureStage.values` returns the values of any
list of strings as ``int`` numerators over one power of two, and
``value``, ``set_mass``, the certificates of :mod:`mltest` and atom
decoding all read it.  ``Dyadic`` values are built only for what a sweep
or a point read returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from .dyadic import Dyadic, HALF, ONE, ZERO, dyadic_sum
from .errors import PreconditionError
from .strings import (
    EPSILON,
    StagedFamily,
    all_strings,
    check_bits,
    extensions,
    leading_ones,
    prefix_free_normalize,
    sort_key,
    string_at,
    strings_up_to,
)

Row = tuple[list[int], int]  # (numerators, e): the i-th value is numerators[i] / 2**e


@dataclass(frozen=True)
class TailRule:
    """Per-child mass fractions applied uniformly below a frontier node."""

    zero: Dyadic
    one: Dyadic

    @classmethod
    def vanish(cls) -> "TailRule":
        return cls(ZERO, ZERO)

    @classmethod
    def uniform(cls) -> "TailRule":
        return cls(HALF, HALF)

    @classmethod
    def geometric(cls, beta: Dyadic) -> "TailRule":
        if not ZERO <= beta <= HALF:
            raise ValueError("geometric ratio must lie in [0, 1/2]")
        return cls(beta, beta)

    @classmethod
    def split(cls, zero: Dyadic, one: Dyadic) -> "TailRule":
        return cls(zero, one)

    @property
    def total(self) -> Dyadic:
        return self.zero + self.one

    @property
    def aligned(self) -> tuple[int, int, int]:
        """(z, o, e) with zero = z / 2**e and one = o / 2**e; equal rules
        give equal triples."""
        e = max(self.zero.exponent, self.one.exponent)
        return self.zero.numerator << (e - self.zero.exponent), self.one.numerator << (e - self.one.exponent), e

    @property
    def conserving(self) -> bool:
        """True when no mass is lost below the frontier (total == 1)."""
        z, o, e = self.aligned
        return z + o == 1 << e

    def factor(self, bit: str) -> Dyadic:
        return self.zero if bit == "0" else self.one

    def padded(self) -> "TailRule":
        """The conserving rule that splits the lost fraction evenly."""
        pad = HALF * (ONE - self.total)
        return TailRule(self.zero + pad, self.one + pad)

    def pattern(self, levels: int) -> Row:
        """zero**a * one**b for every string of the given length below a
        node (a zeros, b ones), in lex order."""
        z, o, e = self.aligned
        row = [1]
        for _ in range(levels):
            row = [x * f for x in row for f in (z, o)]
        return row, e * levels

    def kept(self, levels: int | None) -> Dyadic:
        """Fraction of a node's mass left ``levels`` levels below it.

        ``None`` is the limit: total**k tends to 1 when the rule conserves
        mass and to 0 otherwise, since total <= 1.
        """
        if levels is None:
            return ONE if self.conserving else ZERO
        return self.total**levels

    @property
    def kind(self) -> str:
        if self.zero == self.one:
            if self.zero == ZERO:
                return "vanish"
            if self.zero == HALF:
                return "uniform"
            return "geometric"
        return "split"


@dataclass(frozen=True)
class Component:
    """One summand of a presentation: weight * (table + tails [+ tilt])."""

    weight: Dyadic
    depth: int
    table: Mapping[str, Dyadic]
    tails: Mapping[str, TailRule]
    tilt: int = 0

    @classmethod
    def build(
        cls,
        weight: Dyadic,
        table: Mapping[str, Dyadic],
        tail: TailRule | None = None,
        tails: Mapping[str, TailRule] | None = None,
        tilt: int = 0,
    ) -> "Component":
        """Structural constructor: checks table completeness and fills tails.

        ``tail`` applies one rule to every frontier node; ``tails`` gives a
        per-node map (missing nodes fall back to ``tail`` or vanish).
        """
        keys = {check_bits(k) for k in table}
        depth = max((len(k) for k in keys), default=0)
        expected = set(strings_up_to(depth))
        if keys != expected:
            missing = sorted(expected - keys, key=sort_key)[:3]
            raise ValueError(f"table must cover every string of length <= {depth}; missing {missing}")
        default = tail if tail is not None else TailRule.vanish()
        tail_map = {}
        for node in all_strings(depth):
            rule = tails.get(node, default) if tails is not None else default
            tail_map[node] = rule
        if tails is not None:
            extra = set(tails) - set(tail_map)
            if extra:
                raise ValueError(f"tail rules for non-frontier nodes: {sorted(extra)}")
        if tilt < 0:
            raise ValueError("tilt power must be non-negative")
        return cls(weight=weight, depth=depth, table=dict(table), tails=tail_map, tilt=tilt)

    # -- evaluation (weight NOT included) --------------------------------

    def _plain_value(self, sigma: str) -> Dyadic:
        (num,), e = self._values((sigma,), tilted=False)
        return Dyadic(num, e)

    def _tilt_factor(self, sigma: str) -> Dyadic:
        if self.tilt == 0:
            return ONE
        return Dyadic.pow2(-self.tilt * leading_ones(sigma))

    def value(self, sigma: str) -> Dyadic:
        (num,), e = self._values((sigma,))
        return Dyadic(num, e)

    def _values(self, strings: Sequence[str], tilted: bool = True) -> Row:
        # values (weight not included) at the given strings: a table lookup
        # above the frontier, below it the frontier numerator times
        # z**a * o**b, with each frontier node's value and its rule's
        # aligned ints read once
        depth, table = self.depth, self.table
        frontiers: dict[str, tuple[int, int, int, int, int]] = {}
        nums, exps = [], []
        for s in strings:
            if len(s) <= depth:
                v = table[s]
                nums.append(v.numerator)
                exps.append(v.exponent)
                continue
            frontier = s[:depth]
            ints = frontiers.get(frontier)
            if ints is None:
                v = table[frontier]
                ints = frontiers[frontier] = (v.numerator, v.exponent, *self.tails[frontier].aligned)
            num, ve, z, o, e = ints
            below = len(s) - depth
            ones = s.count("1", depth)
            nums.append(num * z ** (below - ones) * o**ones)
            exps.append(ve + e * below)
        if tilted and self.tilt:
            # 2**(-tilt * j) for j leading ones is an exponent shift
            exps = [x + self.tilt * leading_ones(s) for x, s in zip(exps, strings)]
        e = max(exps, default=0)
        return [m << (e - x) for m, x in zip(nums, exps)], e

    def _plain_level_sum(self, sigma: str, n: int | None) -> Dyadic:
        # sum of untilted values over all length-n extensions of sigma;
        # n = None takes the limit n -> infinity, the trimmed mass of sigma
        if n is not None and n <= self.depth:
            return dyadic_sum(self.table[s] for s in extensions(sigma, n - len(sigma)))
        levels = None if n is None else n - max(len(sigma), self.depth)
        if len(sigma) >= self.depth:
            return self._plain_value(sigma) * self.tails[sigma[: self.depth]].kept(levels)
        # frontier values summed per tail rule, so each rule's factor is taken once
        by_rule: dict[tuple, tuple[TailRule, list[Dyadic]]] = {}
        for frontier in extensions(sigma, self.depth - len(sigma)):
            rule = self.tails[frontier]
            by_rule.setdefault(rule.aligned, (rule, []))[1].append(self.table[frontier])
        return dyadic_sum(rule.kept(levels) * dyadic_sum(vals) for rule, vals in by_rule.values())

    def _row(self, n: int, limit: bool = False) -> Row:
        # values (tilt included, weight not) of all length-n strings in lex
        # order; limit keeps only conserving frontier subtrees (n >= depth)
        if n < self.depth:
            vals = list(map(self.table.__getitem__, all_strings(n)))
            e = max(v.exponent for v in vals)
            row = [v.numerator << (e - v.exponent) for v in vals]
        else:
            # below each frontier node: its value times its rule's pattern
            patterns: dict[tuple, Row] = {}
            blocks = []
            frontier = list(all_strings(self.depth))
            for v, rule in zip(map(self.table.__getitem__, frontier), map(self.tails.__getitem__, frontier)):
                key = rule.aligned
                if key not in patterns:
                    patterns[key] = rule.pattern(n - self.depth)
                num = v.numerator if not limit or rule.conserving else 0
                blocks.append((num, v.exponent, patterns[key]))
            e = max(ve + pe for _num, ve, (_pattern, pe) in blocks)
            row = []
            for num, ve, (pattern, pe) in blocks:
                m = num << (e - ve - pe)
                row.extend([m * p for p in pattern])
        if self.tilt and n:
            # the strings with j leading ones form one slice; scaled by
            # 2**(-tilt * j) over the common 2**(tilt * n)
            lo = 0
            for j in range(n + 1):
                hi = (1 << n) - (1 << (n - j - 1)) if j < n else 1 << n
                shift = self.tilt * (n - j)
                row[lo:hi] = [x << shift for x in row[lo:hi]]
                lo = hi
            e += self.tilt * n
        return row, e

    def level_sum(self, sigma: str, n: int) -> Dyadic:
        """Sum of values over all extensions of sigma at length exactly n."""
        if n < len(sigma):
            raise ValueError("level must not be above the string")
        if self.tilt == 0:
            return self._plain_level_sum(sigma, n)
        if "0" in sigma:
            # the all-ones prefix is frozen below sigma
            return self._tilt_factor(sigma) * self._plain_level_sum(sigma, n)
        # sigma lies on the 1-spine: split off the spine step by step
        if n == len(sigma):
            return self.value(sigma)
        return self.level_sum(sigma + "0", n) + self.level_sum(sigma + "1", n)


@dataclass(frozen=True)
class SemiMeasureStage:
    """A finite mixture of components; ``strict`` claims root mass 1."""

    components: tuple[Component, ...]
    strict: bool = True

    def value(self, sigma: str) -> Dyadic:
        (num,), e = self.values((sigma,))
        return Dyadic(num, e)

    def values(self, strings: Iterable[str]) -> Row:
        """Values at the given strings, in order, as ``(numerators, e)`` with
        the i-th value ``numerators[i] / 2**e``; weights and tilts are folded
        in.  Every string is checked to be a 0/1 literal."""
        items = list(strings)
        for s in items:
            check_bits(s)
        return self._fold([(comp._values(items), comp.weight) for comp in self.components], len(items))

    @staticmethod
    def _fold(rows: Sequence[tuple[Row, Dyadic]], size: int) -> Row:
        """Weighted sum of component rows over one power of two."""
        e = max((ce + w.exponent for (_row, ce), w in rows), default=0)
        total = [0] * size
        for (row, ce), w in rows:
            factor = w.numerator << (e - ce - w.exponent)
            if factor:
                total = [t + factor * x for t, x in zip(total, row)]
        return total, e

    def level_mass(self, sigma: str, n: int) -> Dyadic:
        return dyadic_sum(comp.weight * comp.level_sum(sigma, n) for comp in self.components)

    def limit_mass(self, sigma: str) -> Dyadic:
        """Limit of ``level_mass(sigma, n)`` as n grows: the trimmed mass.

        Conserving frontier subtrees keep their mass and every other subtree
        trims to zero.  Tilted components have no closed-form limit.
        """
        if any(comp.tilt for comp in self.components):
            raise ValueError("no closed-form trim for tilted components")
        return dyadic_sum(comp.weight * comp._plain_level_sum(sigma, None) for comp in self.components)

    def level_row(self, n: int, limit: bool = False) -> Row:
        """Values of all length-n strings in lex order, as ``(numerators, e)``
        with the i-th value ``numerators[i] / 2**e``; weights and tilts are
        folded in.

        With ``limit`` the row holds the trimmed masses instead (the limits
        of :meth:`limit_mass`), which needs n at or below every frontier:
        a conserving frontier node's subtree keeps its values and every
        other subtree is 0.  Tilted components have no such limit.
        """
        if n < 0:
            raise ValueError("level must be non-negative")
        if limit and any(comp.tilt for comp in self.components):
            raise ValueError("no closed-form trim for tilted components")
        if limit and n < self.max_depth:
            raise ValueError("trimmed rows lie at or below every frontier")
        return self._fold([(comp._row(n, limit), comp.weight) for comp in self.components], 1 << n)

    def set_mass(self, strings: Iterable[str]) -> Dyadic:
        """Mass of a string set: normalise to an antichain, then sum values."""
        nums, e = self.values(prefix_free_normalize(strings))
        return Dyadic(sum(nums), e)

    @property
    def max_depth(self) -> int:
        return max((c.depth for c in self.components), default=0)

    def scaled(self, factor: Dyadic) -> "SemiMeasureStage":
        comps = tuple(replace(c, weight=factor * c.weight) for c in self.components)
        return SemiMeasureStage(comps, strict=False)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    node: str | None = None
    message: str = ""
    children: tuple[Dyadic, Dyadic] | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


_OK = ValidationReport(ok=True)


def validate(stage: SemiMeasureStage) -> ValidationReport:
    """Check the semi-measure axioms on the whole presentation.

    Structure first (complete tables, admissible tail fractions), then the
    root constraint, then super-additivity of the mixture at every table
    node.  Below the deepest frontier the per-component bound
    zero + one <= 1 makes the inequality automatic, so finite checking
    suffices.  Returns the first violation found, in (length, lex) order.
    """
    return _validate(stage, additive=False)


def validate_measure(stage: SemiMeasureStage) -> ValidationReport:
    """Like :func:`validate` but demanding exact additivity and conserving tails.

    The same single walk: a super-additivity failure anywhere is reported
    before a lossy tail at a charged frontier node, which is reported before
    the first additivity gap.
    """
    return _validate(stage, additive=True)


def _validate(stage: SemiMeasureStage, additive: bool, rows: list[Row] | None = None) -> ValidationReport:
    # ``rows``, when given, receives the level rows 0..max_depth as read
    for idx, comp in enumerate(stage.components):
        if comp.weight < ZERO:
            return ValidationReport(False, message=f"component {idx}: negative weight")
        keys = set(comp.table)
        if keys != set(strings_up_to(comp.depth)):
            return ValidationReport(False, message=f"component {idx}: incomplete table")
        for node, v in comp.table.items():
            if v.numerator < 0:
                return ValidationReport(False, node=node, message=f"component {idx}: negative value")
        if set(comp.tails) != set(all_strings(comp.depth)):
            return ValidationReport(False, message=f"component {idx}: tail map must cover the frontier")
        for node, rule in comp.tails.items():
            z, o, e = rule.aligned
            if z < 0 or o < 0 or z + o > 1 << e:
                return ValidationReport(
                    False, node=node, message=f"component {idx}: tail fractions must be >= 0 and sum to <= 1"
                )
        if comp.tilt < 0:
            return ValidationReport(False, message=f"component {idx}: negative tilt")

    parents, pe = stage.level_row(0)
    if rows is not None:
        rows.append((parents, pe))
    root = Dyadic(parents[0], pe)
    if stage.strict and root != ONE:
        return ValidationReport(False, node=EPSILON, message=f"strict presentation has root mass {root}")
    if root > ONE:
        return ValidationReport(False, node=EPSILON, message=f"root mass {root} exceeds 1")

    # level by level on integer rows: the children of the i-th node of one
    # level are the (2i)-th and (2i+1)-th of the next
    gap = None
    for n in range(1, stage.max_depth + 1):
        children, ce = stage.level_row(n)
        if rows is not None:
            rows.append((children, ce))
        e = max(pe, ce)
        above = [p << (e - pe) for p in parents]
        both = [(a + b) << (e - ce) for a, b in zip(children[0::2], children[1::2])]
        bad = next((i for i, (b, p) in enumerate(zip(both, above)) if b > p), None)
        if bad is not None:
            node = string_at(n - 1, bad)
            left, right = Dyadic(children[2 * bad], ce), Dyadic(children[2 * bad + 1], ce)
            parent = Dyadic(parents[bad], pe)
            return ValidationReport(
                False,
                node=node,
                message=f"super-additivity fails at {node!r}: {left} + {right} > {parent}",
                children=(left, right),
            )
        if additive and gap is None and both != above:
            gap = string_at(n - 1, next(i for i, (b, p) in enumerate(zip(both, above)) if b != p))
        parents, pe = children, ce
    if not additive:
        return _OK
    for comp in stage.components:
        for node, rule in comp.tails.items():
            if not rule.conserving and comp.table[node] != ZERO:
                return ValidationReport(False, node=node, message="tail loses mass at a charged frontier node")
    if gap is not None:
        return ValidationReport(False, node=gap, message=f"additivity fails at {gap!r}")
    return _OK


# -- stock presentations ----------------------------------------------------


def uniform_measure(depth: int = 0) -> SemiMeasureStage:
    """The fair-coin measure: value 2^-|sigma| everywhere."""
    table = {s: Dyadic.pow2(-len(s)) for s in strings_up_to(depth)}
    comp = Component.build(ONE, table, tail=TailRule.uniform())
    return SemiMeasureStage((comp,), strict=True)


def geometric_semimeasure(beta: Dyadic, depth: int = 0) -> SemiMeasureStage:
    """Root mass 1 decaying by ``beta`` per child: value beta^|sigma|."""
    rule = TailRule.geometric(beta)
    table = {s: beta ** len(s) for s in strings_up_to(depth)}
    comp = Component.build(ONE, table, tail=rule)
    return SemiMeasureStage((comp,), strict=True)


def dirac_spine(bit: str) -> SemiMeasureStage:
    """Point mass on the constant sequence bit^infinity."""
    if bit not in ("0", "1"):
        raise ValueError("bit must be '0' or '1'")
    rule = TailRule.split(ONE, ZERO) if bit == "0" else TailRule.split(ZERO, ONE)
    comp = Component.build(ONE, {EPSILON: ONE}, tail=rule)
    return SemiMeasureStage((comp,), strict=True)


def table_semimeasure(table: Mapping[str, Dyadic], tail: TailRule | None = None,
                      tails: Mapping[str, TailRule] | None = None) -> SemiMeasureStage:
    """Single-component presentation from an explicit table."""
    comp = Component.build(ONE, table, tail=tail, tails=tails)
    stage = SemiMeasureStage((comp,), strict=table[EPSILON] == ONE)
    return stage


def tilt_by_ones(stage: SemiMeasureStage) -> SemiMeasureStage:
    """Multiply pointwise by 2^-j(sigma), j = length of the all-ones prefix.

    The factor never grows along any path, so validity is preserved; the
    strict flag is kept because the root factor is 1.
    """
    comps = tuple(replace(c, tilt=c.tilt + 1) for c in stage.components)
    return SemiMeasureStage(comps, strict=stage.strict)


def mix_stages(stages: Sequence[SemiMeasureStage], weights: Sequence[Dyadic]) -> SemiMeasureStage:
    """Weighted sum of presentations.  Weights must total at most 1."""
    if len(stages) != len(weights):
        raise ValueError("one weight per stage")
    total = ZERO
    for w in weights:
        if w < ZERO:
            raise ValueError("weights must be non-negative")
        total = total + w
    if total > ONE:
        raise PreconditionError(f"mixture weights total {total} > 1")
    comps: list[Component] = []
    for st, w in zip(stages, weights):
        comps.extend(st.scaled(w).components)
    mixed = SemiMeasureStage(tuple(comps), strict=False)
    if mixed.value(EPSILON) == ONE:
        mixed = SemiMeasureStage(mixed.components, strict=True)
    return mixed


# -- staged (left-c.e.) semi-measures ---------------------------------------


class LeftCeSemiMeasure:
    """Deterministic stage generator: stage_at(s) is a presentation and the
    values are pointwise non-decreasing in s (the caller's obligation,
    spot-checked in the test suite, never assumed silently elsewhere)."""

    def __init__(self, stage_fn: Callable[[int], SemiMeasureStage]):
        self._fn = stage_fn
        self._cache: dict[int, SemiMeasureStage] = {}

    def stage_at(self, s: int) -> SemiMeasureStage:
        if s < 0:
            raise ValueError("stage must be non-negative")
        if s not in self._cache:
            self._cache[s] = self._fn(s)
        return self._cache[s]

    def value(self, sigma: str, s: int) -> Dyadic:
        return self.stage_at(s).value(sigma)

    @classmethod
    def constant(cls, stage: SemiMeasureStage) -> "LeftCeSemiMeasure":
        return cls(lambda _s: stage)


def mixture(
    family: Sequence[LeftCeSemiMeasure],
    weights: Sequence[Dyadic] | None,
    stage: int,
) -> SemiMeasureStage:
    """Stage-s presentation of sum_e w_e * rho_e.

    Default weights are 2^-(e+1).  The result is generally non-strict.
    Component e is dominated: w_e * rho_e(sigma) <= mixture(sigma) pointwise,
    which :func:`check_domination` verifies on concrete strings.
    """
    if weights is None:
        weights = [Dyadic.pow2(-(e + 1)) for e in range(len(family))]
    return mix_stages([f.stage_at(stage) for f in family], list(weights))


def check_domination(
    mixed: SemiMeasureStage,
    part: SemiMeasureStage,
    weight: Dyadic,
    strings: Iterable[str],
) -> str | None:
    """Return a witness string where weight * part > mixed, or None."""
    items = list(strings)
    (parts, pe), (mixes, me) = part.values(items), mixed.values(items)
    # weight * p / 2**pe against m / 2**me, both over 2**e
    e = max(weight.exponent + pe, me)
    scale, shift = weight.numerator << (e - weight.exponent - pe), e - me
    return next((s for s, p, m in zip(items, parts, mixes) if scale * p > m << shift), None)


# -- completion to a measure -------------------------------------------------


def complete_to_measure(stage: SemiMeasureStage, depth: int | None = None) -> SemiMeasureStage:
    """Smallest additive extension dominating the presentation.

    The mixture's surplus at each node, mu(s) - v(s0) - v(s1), is pushed
    down to the children in equal halves, starting from mu(root) = v(root):
    mu(si) = v(si) + surplus / 2.  That makes the completed table additive
    while never falling below the original values, and since ``validate``
    checks super-additivity of the mixture, no surplus is negative even when
    a single component is not super-additive on its own.

    The result has one component per original component and one surplus
    component.  Each original component keeps its weight; its table is its
    own row at the target level summed up the tree, and below the target
    the lost tail fraction 1 - (zero + one) of its rule is split evenly
    between the children, a conserving tail that dominates the original
    one.  The surplus component (weight 1, uniform tail) holds
    mu - sum of weight * value at the target level, summed up the tree, so
    every table value up to the target is exactly mu.  For symmetric tails
    this reproduces the pushed-down values below the target too
    (geometric(1/4) from the root completes to the fair coin, a spine
    completes to the point mass).
    """
    rows: list[Row] = []  # validation's level rows, reused by the pushdown
    rep = _validate(stage, additive=False, rows=rows)
    if not rep.ok:
        raise PreconditionError(f"completion requires a valid presentation: {rep.message}")
    if not stage.strict or stage.value(EPSILON) != ONE:
        raise PreconditionError("completion requires a strict presentation")
    if any(c.tilt for c in stage.components):
        raise PreconditionError("completion is not defined for tilted components")
    target = stage.max_depth if depth is None else depth
    if target < stage.max_depth:
        raise ValueError("completion depth must reach every component frontier")

    # mu(s0), mu(s1) = a + g/2, b + g/2 with g = mu(s) - a - b, computed as
    # 2a + g, 2b + g over one more power of two so that halving stays exact
    mu, me = rows[0]
    values, ve = mu, me
    for n in range(1, target + 1):
        values, ve = rows[n] if n < len(rows) else stage.level_row(n)
        e = max(me, ve)
        mu = [m << (e - me) for m in mu]
        values, ve = [v << (e - ve) for v in values], e
        pushed = []
        for m, a, b in zip(mu, values[0::2], values[1::2]):
            g = m - a - b
            pushed += (2 * a + g, 2 * b + g)
        mu, me = pushed, e + 1
    surplus = [m - (v << (me - ve)) for m, v in zip(mu, values)]

    new_comps = []
    for comp in stage.components:
        row, e = comp._row(target)
        distinct = {rule.aligned: rule for rule in comp.tails.values()}
        padded = {key: rule.padded() for key, rule in distinct.items()}
        tails = {node: padded[comp.tails[node[: comp.depth]].aligned] for node in all_strings(target)}
        table = _summed_up(row, e, target)
        new_comps.append(Component(weight=comp.weight, depth=target, table=table, tails=tails))
    uniform = TailRule.uniform()
    new_comps.append(Component(
        weight=ONE, depth=target, table=_summed_up(surplus, me, target),
        tails={node: uniform for node in all_strings(target)},
    ))
    return SemiMeasureStage(tuple(new_comps), strict=True)


def _summed_up(row: list[int], e: int, depth: int) -> dict[str, Dyadic]:
    """Additive table whose length-``depth`` values are the row (over 2**e)."""
    levels = [row]
    for _ in range(depth):
        row = [a + b for a, b in zip(row[0::2], row[1::2])]
        levels.append(row)
    return {s: Dyadic(x, e) for n in range(depth + 1) for s, x in zip(all_strings(n), levels[depth - n])}


# -- infimum-scaled stages ---------------------------------------------------


Generator = Callable[[int], Dyadic]


def _as_generator(row) -> Generator:
    if callable(row):
        return row
    values = [v for v in row]

    def gen(s: int) -> Dyadic:
        return values[min(s, len(values) - 1)]

    return gen


def from_infimum_sequence(rows: Sequence, stage: int, depth: int) -> SemiMeasureStage:
    """Stage presentation of sigma -> 2^-|sigma| * min_{i <= |sigma|} r_i(stage).

    ``rows`` is a finite list of stage generators (callables or value lists,
    lists freezing at their last entry).  Indices past the end of ``rows``
    contribute nothing, so below depth len(rows) - 1 the minimum is frozen
    and the uniform tail reproduces the formula exactly; choose
    ``depth >= len(rows) - 1`` to get the exact presentation.
    """
    if not rows:
        raise ValueError("at least one generator row is required")
    gens = [_as_generator(r) for r in rows]
    vals = []
    for i, g in enumerate(gens):
        v = g(stage)
        if not isinstance(v, Dyadic) or v > ONE:
            raise ValueError(f"generator {i} must yield dyadics in [0, 1], got {v}")
        vals.append(v)
    table: dict[str, Dyadic] = {}
    running = vals[0]
    level_min = {0: running}
    for n in range(1, depth + 1):
        if n < len(vals):
            running = min(running, vals[n])
        level_min[n] = running
    for s in strings_up_to(depth):
        table[s] = Dyadic.pow2(-len(s)) * level_min[len(s)]
    comp = Component.build(ONE, table, tail=TailRule.uniform())
    return SemiMeasureStage((comp,), strict=vals[0] == ONE)


def infimum_semimeasure(rows: Sequence, depth: int) -> LeftCeSemiMeasure:
    frozen = [r if callable(r) else list(r) for r in rows]
    return LeftCeSemiMeasure(lambda s: from_infimum_sequence(frozen, s, depth))


# -- enumeration helpers ------------------------------------------------------


def enumerate_limsup(f, schedule: Sequence[int]) -> tuple[Dyadic, ...]:
    """Run the emission rule over a finite schedule of indices.

    At step s with index i = schedule[s], the value f(i, s) is emitted iff it
    has not been emitted before and f(i, s) < f(k, s) for every k < i.  ``f``
    may be a callable or an indexed table f[i][s].
    """
    call = f if callable(f) else (lambda i, s: f[i][s])
    emitted: list[Dyadic] = []
    seen: set[Dyadic] = set()
    for s, i in enumerate(schedule):
        v = call(i, s)
        if v in seen:
            continue
        if all(v < call(k, s) for k in range(i)):
            emitted.append(v)
            seen.add(v)
    return tuple(emitted)


# -- a semi-measure charging enumerated test levels --------------------------


def test_defeating_semimeasure(families: Sequence[StagedFamily], stage: int) -> SemiMeasureStage:
    """Charge level e+2 of each enumerated family with mass 2^-(e+1).

    For family e, if any string has entered level e+2 by ``stage``, the first
    entrant (earliest stage, ties by (length, lex)) gets value 2^-(e+1) on
    every prefix of itself and 0 elsewhere.  Leftover root mass goes into a
    slack component, so the result is strict.  Whenever the charged level is
    non-empty its mass under the result strictly exceeds 2^-(e+2).
    """
    comps: list[Component] = []
    used = ZERO
    for e, fam in enumerate(families):
        entries = fam.first_stages(e + 2, stage)
        if not entries:
            continue
        chosen = min(entries, key=lambda s: (entries[s], sort_key(s)))
        table = {s: (ONE if chosen.startswith(s) else ZERO) for s in strings_up_to(len(chosen))}
        comps.append(Component.build(Dyadic.pow2(-(e + 1)), table, tail=TailRule.vanish()))
        used = used + Dyadic.pow2(-(e + 1))
    slack = ONE - used
    if slack > ZERO:
        comps.append(Component.build(slack, {EPSILON: ONE}, tail=TailRule.vanish()))
    return SemiMeasureStage(tuple(comps), strict=True)


# -- a small registry used by demos and mixture tests -------------------------


def default_family(count: int = 8) -> tuple[LeftCeSemiMeasure, ...]:
    """Stock staged semi-measures for mixture demos; size is configurable."""
    quarter = Dyadic(1, 2)

    def growing_uniform(s: int) -> SemiMeasureStage:
        return uniform_measure().scaled(Dyadic.pow2(-max(0, 3 - s)))

    pool = [
        LeftCeSemiMeasure.constant(uniform_measure()),
        LeftCeSemiMeasure.constant(dirac_spine("1")),
        LeftCeSemiMeasure.constant(dirac_spine("0")),
        LeftCeSemiMeasure.constant(geometric_semimeasure(quarter)),
        LeftCeSemiMeasure.constant(
            mix_stages([uniform_measure(), geometric_semimeasure(quarter)], [HALF, HALF])
        ),
        infimum_semimeasure([[ONE], [HALF], [HALF]], depth=3),
        LeftCeSemiMeasure.constant(tilt_by_ones(uniform_measure())),
        LeftCeSemiMeasure(growing_uniform),
    ]
    if not 1 <= count <= len(pool):
        raise ValueError(f"registry size must be between 1 and {len(pool)}")
    return tuple(pool[:count])
