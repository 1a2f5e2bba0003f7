"""Stage-enumerated monotone functionals on binary strings.

A functional is a growing set of (input, output) string pairs indexed by a
stage.  Consistency means: whenever two pairs have comparable inputs, their
outputs are comparable too.  The value on an input sigma at stage s is the
longest output among pairs whose input is a prefix of sigma (the empty
string when no pair applies); consistency makes that maximum unique.

The induced semi-measure of a functional assigns to tau the uniform measure
of the union of input cylinders of pairs whose output extends tau.  The
inverse direction, :func:`from_semimeasure`, allocates input cylinders
leftmost-first so that the induced semi-measure reproduces a given stage
table exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .dyadic import Dyadic, ONE, ZERO, expansion_bits
from .errors import CertificateError, PreconditionError
from .semimeasure import Component, LeftCeSemiMeasure, SemiMeasureStage, TailRule
from .strings import (
    EPSILON,
    StringSet,
    check_bits,
    comparable,
    intersect_sets,
    lebesgue_of_set,
    prefix_free_normalize,
    strings_up_to,
)

Pair = tuple[str, str]


class MonotoneFunctional:
    """pairs_at(s) is cumulative in s; construction fixes the growth rule."""

    def __init__(self, pairs_fn: Callable[[int], frozenset[Pair]], events: tuple[tuple[int, str, str], ...] | None = None):
        self._fn = pairs_fn
        self._cache: dict[int, frozenset[Pair]] = {}
        self.events = events  # set for event-backed functionals, else None

    def pairs_at(self, s: int) -> frozenset[Pair]:
        if s < 0:
            raise ValueError("stage must be non-negative")
        if s not in self._cache:
            self._cache[s] = frozenset(self._fn(s))
        return self._cache[s]

    @classmethod
    def from_events(cls, events: Iterable[tuple[int, str, str]]) -> "MonotoneFunctional":
        evs = tuple(sorted((int(t), check_bits(i), check_bits(o)) for t, i, o in events))

        def fn(s: int) -> frozenset[Pair]:
            return frozenset((i, o) for t, i, o in evs if t <= s)

        return cls(fn, events=evs)

    @classmethod
    def constant(cls, pairs: Iterable[Pair]) -> "MonotoneFunctional":
        return cls.from_events((0, i, o) for i, o in pairs)

    @classmethod
    def empty(cls) -> "MonotoneFunctional":
        return cls.from_events(())

    @classmethod
    def identity(cls) -> "MonotoneFunctional":
        """Copies its input; stage s covers all strings of length <= s."""

        def fn(s: int) -> frozenset[Pair]:
            return frozenset((x, x) for x in strings_up_to(s))

        return cls(fn)


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    pair_a: Pair | None = None
    pair_b: Pair | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _first_conflict(pairs: Sequence[Pair]) -> tuple[Pair, Pair] | None:
    """None when every output is a prefix of the longest one; otherwise the
    first two pairs, in the given order, whose outputs are incomparable."""
    longest = max((o for _i, o in pairs), key=len, default=EPSILON)
    if all(longest.startswith(o) for _i, o in pairs):
        return None
    return next(
        (p, q) for n, p in enumerate(pairs) for q in pairs[n + 1 :] if not comparable(p[1], q[1])
    )


def consistency_check(phi: MonotoneFunctional, stage: int) -> ConsistencyReport:
    """First pair of pairs with comparable inputs but incomparable outputs.

    Pairs are grouped under the input-prefix order, so each pair is compared
    exactly against the pairs sitting on its input's prefix chain.
    """
    by_input: dict[str, list[str]] = {}
    for i, o in sorted(phi.pairs_at(stage)):
        by_input.setdefault(i, []).append(o)
    for i in by_input:
        # includes i itself at k == len(i)
        chain = [(i[:k], o) for k in range(len(i) + 1) for o in by_input.get(i[:k], ())]
        conflict = _first_conflict(chain)
        if conflict is not None:
            return ConsistencyReport(False, *conflict)
    return ConsistencyReport(True)


def eval_on_string(phi: MonotoneFunctional, sigma: str, stage: int) -> str:
    """Longest output among pairs whose input is a prefix of sigma.

    Those pairs' outputs must form a chain; if two are incomparable the
    value is not defined and CertificateError names the first such two
    pairs in sorted order.
    """
    check_bits(sigma)
    hits = sorted((i, o) for i, o in phi.pairs_at(stage) if sigma.startswith(i))
    conflict = _first_conflict(hits)
    if conflict is not None:
        a, b = conflict
        raise CertificateError(
            f"inconsistent functional at stage {stage}: pairs {list(a)} and {list(b)} "
            f"both apply to {sigma!r} with incomparable outputs",
            witness=sigma,
        )
    return max((o for _i, o in hits), key=len, default=EPSILON)


def preimage_set(phi: MonotoneFunctional, tau: str, stage: int) -> StringSet:
    """Antichain of inputs mapped onto an extension of tau."""
    check_bits(tau)
    hits = [i for i, o in phi.pairs_at(stage) if o.startswith(tau)]
    return prefix_free_normalize(hits)


def induced_semimeasure(phi: MonotoneFunctional, stage: int, depth: int) -> SemiMeasureStage:
    """Table of preimage masses on all strings of length <= depth.

    The presentation's tail is vanish: the table is a stage snapshot, not a
    claim about values below its frontier.  Super-additivity holds because
    the preimages of the two children are disjoint sub-cylinder-sets of the
    parent's preimage; it is still asserted by the validate tests rather
    than assumed.  Strict only when the preimage of the root has full
    measure.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    buckets: dict[str, list[str]] = {s: [] for s in strings_up_to(depth)}
    for i, o in phi.pairs_at(stage):
        for k in range(min(len(o), depth) + 1):
            buckets[o[:k]].append(i)
    table = {s: lebesgue_of_set(b) for s, b in buckets.items()}
    comp = Component.build(ONE, table, tail=TailRule.vanish())
    return SemiMeasureStage((comp,), strict=table[EPSILON] == ONE)


def reach_set(phi: MonotoneFunctional, ell: int, stage: int) -> StringSet:
    """Minimal inputs whose value has length at least ell.

    Every sequence reaches length 0, so ell = 0 gives the root.
    """
    if ell < 0:
        raise ValueError("output length must be non-negative")
    if ell == 0:
        return (EPSILON,)
    hits = [i for i, o in phi.pairs_at(stage) if len(o) >= ell]
    return prefix_free_normalize(hits)


@dataclass(frozen=True)
class DomainApprox:
    levels: tuple[StringSet, ...]  # clopen approximation per output length 0..ell
    clopen: StringSet              # the level at ell itself
    intersection: StringSet        # common refinement of all levels


def domain_clopen_approx(
    phi: MonotoneFunctional,
    e: int,
    ell: int,
    modulus: Callable[[int, int], int],
) -> DomainApprox:
    """Clopen under-approximations of the reach sets, one per length k <= ell.

    ``modulus(k, j)`` must return a stage whose reach set at length k is
    within 2^-j of the limit in measure; it is a caller-supplied certificate
    and only sanity-checked here (stage non-negative, mass at most 1).  The
    k-th level is taken at stage modulus(k, k + e + 1).
    """
    if e < 0 or ell < 0:
        raise ValueError("index and length must be non-negative")
    levels = []
    for k in range(ell + 1):
        s = modulus(k, k + e + 1)
        if not isinstance(s, int) or s < 0:
            raise PreconditionError(f"modulus returned a bad stage for k={k}: {s!r}")
        level = reach_set(phi, k, s)
        if lebesgue_of_set(level) > ONE:
            raise PreconditionError("reach set mass exceeded 1")  # unreachable for antichains
        levels.append(level)
    inter = levels[0]
    for level in levels[1:]:
        inter = intersect_sets(inter, level)
    return DomainApprox(levels=tuple(levels), clopen=levels[ell], intersection=inter)


# -- inverse construction: allocate input cylinders for a stage table --------


def _take_leftmost(free: Sequence[str], need: Dyadic) -> tuple[list[str], list[str]]:
    """Carve cylinders of total measure ``need`` from the left edge of ``free``.

    Greedy on aligned dyadic intervals: a cylinder is taken whole when it
    fits, otherwise split and recurse left-first.  ``need`` being dyadic
    makes the recursion terminate at its exponent.  Returns the cylinders
    taken and the maximal cylinders of ``free`` left over, left to right.
    """
    taken: list[str] = []
    left: list[str] = []

    def carve(cyl: str, want: Dyadic) -> Dyadic:
        if want.is_zero:
            left.append(cyl)
            return want
        m = Dyadic.pow2(-len(cyl))
        if m <= want:
            taken.append(cyl)
            return want - m
        return carve(cyl + "1", carve(cyl + "0", want))

    remaining = need
    for cyl in sorted(free):  # plain string order = left-to-right for antichains
        remaining = carve(cyl, remaining)
    if not remaining.is_zero:
        raise PreconditionError(f"allocation pool too small by {remaining}")
    return taken, left


def from_semimeasure(
    rho: LeftCeSemiMeasure,
    stage: int,
    depth: int,
    granularity_cap: int = 16,
) -> MonotoneFunctional:
    """Build a functional whose induced semi-measure matches rho's stage tables.

    Stages are replayed in order; at each one, every output node (breadth
    first) grows its allocated input region to the current value by taking
    the leftmost of its parent's spare cylinders: those allocated to the
    parent that neither child has taken yet.  Values may only grow, so
    allocations never retract, and pairs are emitted at the stage their
    cylinder is first taken: the functional is monotone and consistent by
    construction, and induced_semimeasure at any stage t <= stage reproduces
    rho's stage-t table on strings of length <= depth.

    Values whose exponent exceeds ``granularity_cap`` are rejected, keeping
    the cylinder count bounded.  The final stage must be strict.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    final = rho.stage_at(stage)
    if not final.strict:
        raise PreconditionError("inversion requires a strict final stage")
    held: dict[str, Dyadic] = {s: ZERO for s in strings_up_to(depth)}
    # the root's parent, None, holds the whole space
    spare: dict[str | None, list[str]] = {s: [] for s in strings_up_to(depth)}
    spare[None] = [EPSILON]
    events: list[tuple[int, str, str]] = []
    for t in range(stage + 1):
        st = rho.stage_at(t)
        for node in strings_up_to(depth):
            target = st.value(node)
            if target.exponent > granularity_cap:
                raise PreconditionError(
                    f"stage value {target} at {node!r} finer than 2^-{granularity_cap}"
                )
            have = held[node]
            if target == have:
                continue
            if target < have:
                raise PreconditionError(f"stage values decreased at {node!r} (stage {t})")
            parent = node[:-1] if node else None
            fresh, spare[parent] = _take_leftmost(spare[parent], target - have)
            spare[node].extend(fresh)
            held[node] = target
            events.extend((t, cyl, node) for cyl in fresh)
    return MonotoneFunctional.from_events(events)


# -- worked constructions ------------------------------------------------------


def mirror_pair(
    approximations: Sequence[Dyadic],
) -> tuple[MonotoneFunctional, MonotoneFunctional]:
    """Two functionals with identical induced semi-measures, different domains.

    The first tracks a non-decreasing dyadic approximation: at stage s it
    maps every expansion prefix seen so far onto the all-zeros string of the
    same length.  The second mirrors each new pair with the leftmost
    unused input of that length.  Both send all mass to the 0-spine and
    count the same number of distinct inputs per length, so their induced
    semi-measures agree at every stage; only the supports differ.
    """
    previous = None
    for v in approximations:
        if not isinstance(v, Dyadic) or not v < ONE:
            raise PreconditionError("approximations must be dyadics in [0, 1)")
        if previous is not None and v < previous:
            raise PreconditionError("approximations must be non-decreasing")
        previous = v
    events_a: list[tuple[int, str, str]] = []
    events_b: list[tuple[int, str, str]] = []
    seen: set[Pair] = set()
    used_count: dict[int, int] = {}
    for s, value in enumerate(approximations):
        for n in range(s + 1):
            pair = (expansion_bits(value, n), "0" * n)
            if pair in seen:
                continue
            seen.add(pair)
            events_a.append((s, pair[0], pair[1]))
            k = used_count.get(n, 0)
            if k >= (1 << n):  # cannot happen: at most 2^n distinct prefixes
                raise PreconditionError(f"input pool at length {n} exhausted")
            mirror = format(k, f"0{n}b") if n else EPSILON
            used_count[n] = k + 1
            events_b.append((s, mirror, pair[1]))
    return MonotoneFunctional.from_events(events_a), MonotoneFunctional.from_events(events_b)


def pad_with_identity(phi: MonotoneFunctional) -> MonotoneFunctional:
    """Run phi after a leading 0; copy the input after a leading 1.

    The induced semi-measure is the average of phi's and the fair coin: each
    branch contributes half its measure.  The identity branch grows with the
    stage like :meth:`MonotoneFunctional.identity`.
    """

    def fn(s: int) -> frozenset[Pair]:
        shifted = {("0" + i, o) for i, o in phi.pairs_at(s)}
        copies = {("1" + x, x) for x in strings_up_to(s)}
        return frozenset(shifted | copies)

    return MonotoneFunctional(fn)


def universal_functional(family: Sequence[MonotoneFunctional]) -> MonotoneFunctional:
    """Dispatch on a unary index: input 1^e 0 sigma runs family[e] on sigma.

    Member e's induced semi-measure is reproduced scaled by 2^-(e+1), so the
    combined functional dominates every member up to that factor.
    """
    members = list(family)

    def fn(s: int) -> frozenset[Pair]:
        pairs = set()
        for e, phi in enumerate(members):
            prefix = "1" * e + "0"
            pairs.update((prefix + i, o) for i, o in phi.pairs_at(s))
        return frozenset(pairs)

    return MonotoneFunctional(fn)
