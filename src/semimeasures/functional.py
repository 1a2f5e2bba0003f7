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

Both directions work on integer cylinders: at one common exponent L the
cylinder of a string s is the interval ``[k * 2^(L-|s|), (k+1) * 2^(L-|s|))``
of ``range(2^L)``, k being s read as a binary number, and a measure is a
count of units ``2^-L``.  ``Dyadic`` values are built only for what a
function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .dyadic import Dyadic, ONE, expansion_bits, lowest, row_lowest
from .errors import CertificateError, PreconditionError, _count, _index, _stage
from .semimeasure import LeftCeSemiMeasure, SemiMeasureStage, TableView, TailRule, table_semimeasure
from .strings import EPSILON, CylinderSet, all_strings, check_bits, comparable, intersect_sets, string_at

Pair = tuple[str, str]


class MonotoneFunctional:
    """Enumerated in stages: ``batch(t)`` gives the pairs that enter at stage
    t, and ``last`` is the final stage of a finite enumeration (None while
    pairs keep entering; every batch after ``last`` is empty).  The batches
    are the one stored form: pairs_at(s) is the union of the batches up to
    s, computed on each call, with s clipped to ``last`` so that a stage past
    it costs what ``last`` costs."""

    def __init__(self, batch: Callable[[int], Iterable[Pair]], last: int | None = None):
        self.batch = batch
        self.last = last

    def pairs_at(self, s: int) -> frozenset[Pair]:
        return frozenset().union(*map(self.batch, range(_stage(s, self.last) + 1)))

    @property
    def events(self) -> tuple[tuple[int, str, str], ...] | None:
        """Each distinct (stage, input, output) of a finite enumeration, sorted."""
        if self.last is None:
            return None
        return tuple(sorted((t, i, o) for t in range(self.last + 1) for i, o in self.batch(t)))

    @classmethod
    def from_events(cls, events: Iterable[tuple[int, str, str]]) -> "MonotoneFunctional":
        batches: dict[int, set[Pair]] = {}
        for t, i, o in events:
            batches.setdefault(_count(t, "stage"), set()).add((check_bits(i), check_bits(o)))
        return cls.from_batches(batches)

    @classmethod
    def from_batches(cls, batches: Mapping[int, set[Pair]]) -> "MonotoneFunctional":
        """Checked pairs ``batches[t]`` enter at t; ``last`` is the last t with any."""
        return cls(lambda t: batches.get(t, ()), max((t for t, b in batches.items() if b), default=0))

    @classmethod
    def constant(cls, pairs: Iterable[Pair]) -> "MonotoneFunctional":
        return cls.from_events((0, i, o) for i, o in pairs)

    @classmethod
    def identity(cls) -> "MonotoneFunctional":
        """Copies its input; stage s covers all strings of length <= s."""
        return cls(lambda t: ((x, x) for x in all_strings(t)))


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

    The pairs are walked in sorted order, where every input comes after its
    prefixes and the pairs of one input sit together, with a stack of
    (input, longest output on its chain) over a root entry: the entries are
    the pairs already walked whose inputs are prefixes of the current one.
    The chain so far is consistent, so a pair keeps it consistent exactly
    when its output compares with the longest output on the top entry.  At
    the first pair that does not, the report names the first two
    incomparable pairs of its input's chain -- every pair on a prefix of
    that input or on the input itself -- in sorted order, which is (input
    length, output).
    """
    pairs = sorted(phi.pairs_at(stage))
    stack = [(EPSILON, EPSILON)]  # the empty input is a prefix of every input
    for i, o in pairs:
        while not i.startswith(stack[-1][0]):
            stack.pop()
        above = stack[-1][1]
        if not comparable(o, above):
            return ConsistencyReport(False, *_first_conflict([(j, p) for j, p in pairs if i.startswith(j)]))
        stack.append((i, o if len(o) > len(above) else above))
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


def preimage_buckets(phi: MonotoneFunctional, stage: int, targets: Iterable[str]) -> dict[str, list[str]]:
    """For each target, the inputs of the pairs whose output extends it.

    One pass over phi's pairs at ``stage``, with one dict lookup per
    distinct target length.
    """
    buckets: dict[str, list[str]] = {t: [] for t in targets}
    lengths = sorted({len(t) for t in buckets})
    for i, o in phi.pairs_at(stage):
        for n in lengths:
            if n > len(o):
                break
            bucket = buckets.get(o[:n])
            if bucket is not None:
                bucket.append(i)
    return buckets


def preimage_set(phi: MonotoneFunctional, tau: str, stage: int) -> CylinderSet:
    """Antichain of inputs mapped onto an extension of tau."""
    check_bits(tau)
    return CylinderSet(preimage_buckets(phi, stage, (tau,))[tau]).minimal


def _union(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted disjoint intervals covering the same points, touching ones merged."""
    out: list[tuple[int, int]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def induced_semimeasure(phi: MonotoneFunctional, stage: int, depth: int) -> SemiMeasureStage:
    """Table of preimage masses on all strings of length <= depth.

    Each pair's input is an integer interval at L, the longest input
    length, filed under its output cut to ``depth``.  Only the live nodes
    -- prefixes of those outputs -- are visited, deepest first: a node's
    preimage is the union of its own intervals and its two children's, and
    its mass the summed lengths over 2^L.  Every other node is zero.  The
    union is exact whether or not phi is consistent.

    The presentation's tail is vanish: the table is a stage snapshot, not a
    claim about values below its frontier.  Super-additivity holds because
    the preimages of the two children are disjoint sub-cylinder-sets of the
    parent's preimage; it is still asserted by the validate tests rather
    than assumed.  Strict only when the preimage of the root has full
    measure.
    """
    _count(depth, "depth")
    pairs = phi.pairs_at(stage)
    L = max((len(i) for i, _o in pairs), default=0)
    own: dict[str, list[tuple[int, int]]] = {}
    for i, o in pairs:
        size = 1 << (L - len(i))
        start = int(i, 2) * size if i else 0
        own.setdefault(o[:depth], []).append((start, start + size))
    rows = [[0] * (1 << n) for n in range(depth + 1)]  # masses over 2^L, by level
    live: list[set[str]] = [set() for _ in range(depth + 1)]  # live nodes by length
    for node in own:
        live[len(node)].add(node)
    merged: dict[str, list[tuple[int, int]]] = {}
    for n in range(depth, -1, -1):
        for node in live[n]:
            union = _union([*own.get(node, ()), *merged.pop(node + "0", ()), *merged.pop(node + "1", ())])
            merged[node] = union
            rows[n][int(node, 2) if node else 0] = sum(b - a for a, b in union)
            if n:
                live[n - 1].add(node[:-1])
    return table_semimeasure(TableView((row, L) for row in rows), tail=TailRule.vanish())


def reach_set(phi: MonotoneFunctional, ell: int, stage: int) -> CylinderSet:
    """Minimal inputs whose value has length at least ell.

    Every sequence reaches length 0, so ell = 0 gives the root.
    """
    if _count(ell, "output length") == 0:
        return CylinderSet((EPSILON,))
    return CylinderSet(i for i, o in phi.pairs_at(stage) if len(o) >= ell).minimal


@dataclass(frozen=True)
class DomainApprox:
    levels: tuple[CylinderSet, ...]  # clopen approximation per output length 0..ell
    clopen: CylinderSet              # the level at ell itself
    intersection: CylinderSet        # common refinement of all levels


def domain_clopen_approx(
    phi: MonotoneFunctional,
    e: int,
    ell: int,
    modulus: Callable[[int, int], int],
) -> DomainApprox:
    """Clopen under-approximations of the reach sets, one per length k <= ell.

    ``modulus(k, j)`` must return a stage whose reach set at length k is
    within 2^-j of the limit in measure; it is a caller-supplied certificate
    and only its stage is checked here (a non-negative int, not a bool).  A
    reach set is an antichain, so its mass is at most 1.  The k-th level is
    taken at stage modulus(k, k + e + 1).
    """
    if min(_index(e, "index"), _index(ell, "length")) < 0:
        raise ValueError("index and length must be non-negative")
    levels = []
    for k in range(ell + 1):
        s = modulus(k, k + e + 1)
        if not isinstance(s, int) or isinstance(s, bool) or s < 0:
            raise PreconditionError(f"modulus returned a bad stage for k={k}: {s!r}")
        levels.append(reach_set(phi, k, s))
    inter = levels[0]
    for level in levels[1:]:
        inter = intersect_sets(inter, level)
    return DomainApprox(levels=tuple(levels), clopen=levels[ell], intersection=inter)


# -- inverse construction: allocate input cylinders for a stage table --------


Block = tuple[int, int]  # (start, k): the interval [start, start + 2^k) at the common exponent


def _take_leftmost(free: Sequence[Block], need: int, exponent: int) -> tuple[list[Block], list[Block]]:
    """Carve ``need`` units from the left edge of ``free``.

    ``free`` holds disjoint blocks ``(start, k)``: integer cylinders
    ``[start, start + 2^k)`` at the common ``exponent``, so that ``need``
    counts units ``2^-exponent``.  Left to right, a block is taken whole
    while it fits.  The block in which ``need`` runs out splits into the
    maximal aligned blocks of ``[start, start + need)``, taken, and of
    ``[start + need, start + 2^k)``, left over: the cylinders that halving
    it left-first gives.  Later blocks are left whole.  Returns the blocks
    taken and the blocks left over, left to right.
    """
    taken: list[Block] = []
    left: list[Block] = []
    for start, k in sorted(free):  # disjoint blocks: start order is left to right
        size = 1 << k
        if need >= size:
            taken.append((start, k))
            need -= size
        elif not need:
            left.append((start, k))
        else:
            # need's bits high to low are taken, then the rest of the block
            # leaves in blocks that grow with the lowest bit of the offset
            offset = 0
            for b in range(k - 1, -1, -1):
                if need >> b & 1:
                    taken.append((start + offset, b))
                    offset += 1 << b
            while offset < size:
                b = lowest(offset, k)
                left.append((start + offset, b))
                offset += 1 << b
            need = 0
    if need:
        raise PreconditionError(f"allocation pool too small by {Dyadic(need, exponent)}")
    return taken, left


def from_semimeasure(
    rho: LeftCeSemiMeasure,
    stage: int,
    depth: int,
    granularity_cap: int = 16,
) -> MonotoneFunctional:
    """Build a functional whose induced semi-measure matches rho's stage tables.

    Stages are replayed in order, up to rho's ``last`` if that comes first,
    since no later stage differs.  At each one, every output node (breadth
    first) grows its allocated input region to the current value by taking
    the leftmost of its parent's spare cylinders: those allocated to the
    parent that neither child has taken yet.  Values may only grow, so
    allocations never retract, and pairs are emitted at the stage their
    cylinder is first taken: the functional is monotone and consistent by
    construction, and induced_semimeasure at any stage t <= stage reproduces
    rho's stage-t table on strings of length <= depth.

    Each stage is read as one ``level_row`` per level.  Values, holdings
    and cylinders are integers at one exponent L: the finest exponent among
    the values read so far, never above the cap.  When a stage brings a
    finer value, every holding and spare cylinder is rescaled to it.

    Values whose exponent exceeds ``granularity_cap`` are rejected, keeping
    the cylinder count bounded.  The final stage must be strict.
    """
    _count(depth, "depth")
    _count(granularity_cap, "granularity cap")
    final = rho.stage_at(stage)
    if not final.strict:
        raise PreconditionError("inversion requires a strict final stage")
    L = 0
    held = [[0] * (1 << n) for n in range(depth + 1)]  # per level, in units 2^-L
    # pools[n][j]: spare blocks of node j of level n - 1, drawn on by its
    # children; pools[0][0], the root's pool, is the whole space
    pools: list[list[list[Block]]] = [[[(0, 0)]]]
    pools += [[[] for _ in range(1 << (n - 1))] for n in range(1, depth + 1)]
    batches: dict[int, set[Pair]] = {}
    top = _stage(stage, rho.last)
    for t in range(top + 1):
        st = final if t == top else rho.stage_at(t)
        rows = [st.level_row(n) for n in range(depth + 1)]
        # finest value per level: the exponent of its row in lowest terms
        fine = [e - row_lowest(nums, e) for nums, e in rows]
        finest = min(granularity_cap, max(fine))
        if finest > L:
            up, L = finest - L, finest
            held = [[h << up for h in row] for row in held]
            pools = [[[(a << up, k + up) for a, k in pool] for pool in level] for level in pools]
        for n, (nums, e) in enumerate(rows):
            bad = None
            if fine[n] > granularity_cap:
                bad = next(i for i, x in enumerate(nums) if e - lowest(x, e) > granularity_cap)
            # every value before ``bad`` is at most as fine as L
            kept = nums[:bad]
            targets = [x >> (e - L) for x in kept] if e >= L else [x << (L - e) for x in kept]
            have = held[n]
            for i in [i for i, (x, h) in enumerate(zip(targets, have)) if x != h]:
                node = string_at(n, i)
                if targets[i] < have[i]:
                    raise PreconditionError(f"stage values decreased at {node!r} (stage {t})")
                pool = pools[n]
                fresh, pool[i >> 1] = _take_leftmost(pool[i >> 1], targets[i] - have[i], L)
                if n < depth:
                    pools[n + 1][i].extend(fresh)
                have[i] = targets[i]
                batches.setdefault(t, set()).update((string_at(L - k, a >> k), node) for a, k in fresh)
            if bad is not None:
                value, node = Dyadic(nums[bad], e), string_at(n, bad)
                raise PreconditionError(f"stage value {value} at {node!r} finer than 2^-{granularity_cap}")
    return MonotoneFunctional.from_batches(batches)


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
            used_count[n] = k + 1
            events_b.append((s, string_at(n, k), pair[1]))
    return MonotoneFunctional.from_events(events_a), MonotoneFunctional.from_events(events_b)


def _dispatch(branches: Sequence[tuple[str, MonotoneFunctional]]) -> MonotoneFunctional:
    """Input prefix + sigma runs the branch's functional on sigma; finite when
    every branch is."""
    lasts = [phi.last for _prefix, phi in branches]
    last = None if None in lasts else max(lasts, default=0)
    return MonotoneFunctional(lambda t: [(p + i, o) for p, phi in branches for i, o in phi.batch(t)], last)


def pad_with_identity(phi: MonotoneFunctional) -> MonotoneFunctional:
    """Run phi after a leading 0; copy the input after a leading 1.

    The induced semi-measure is the average of phi's and the fair coin: each
    branch contributes half its measure.  The identity branch grows with the
    stage like :meth:`MonotoneFunctional.identity`.
    """
    return _dispatch([("0", phi), ("1", MonotoneFunctional.identity())])


def universal_functional(family: Sequence[MonotoneFunctional]) -> MonotoneFunctional:
    """Dispatch on a unary index: input 1^e 0 sigma runs family[e] on sigma.

    Member e's induced semi-measure is reproduced scaled by 2^-(e+1), so the
    combined functional dominates every member up to that factor.
    """
    return _dispatch([("1" * e + "0", phi) for e, phi in enumerate(family)])
