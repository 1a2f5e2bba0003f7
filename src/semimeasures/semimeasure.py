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

A component stores its table as one ``(numerators, e)`` row per level: the
values of all strings of that length in lex order as ``int`` numerators over
one power of two, ``e`` the least exponent that keeps every entry an
integer, so equal tables have equal rows.  Its tail rules are stored as the
distinct rules, in order of first use, plus one rule index per frontier
node in lex order.  ``Component.table`` and ``Component.tails`` are
read-only ``Mapping`` views of that storage (:class:`TableView`,
:class:`TailsView`).  :meth:`Component.build` is the one converter from
plain mappings; the constructor takes views only, and passing a view on
shares its storage.

Whole-table sweeps (validation, completion, the Lebesgue-likeness check in
:mod:`trim`) read the presentation one level at a time through
:meth:`SemiMeasureStage.level_row`, which folds the stored rows of the
components (and, below a frontier, rows built per tail rule): the weighted
sum starts from a scaled copy of the first row of non-zero weight, so no
stored row is handed out.  A sweep's witness, the first entry of a row at
which a comparison holds, is found by one C-level pass (``_first`` over a
``map`` of an ``operator`` comparison); arithmetic on rows stays in list
comprehensions.  Point
evaluation has the same form: :meth:`SemiMeasureStage.values` returns the
values of any strings as ``int`` numerators over one power of two, and
``value``, the certificates of :mod:`mltest` and atom decoding all read it.
Components read strings as ``(length, lex positions)`` groups, never as
text: a :class:`~semimeasures.strings.CylinderSet` carries its groups,
computed on first read from members bit-checked when the set is built,
and ``values`` of any other strings checks them and groups each run of
one length.  A value below a frontier takes its ones below the frontier
and its leading ones from its position, and its rule's power for that
count of ones from :meth:`TailsView.power`, the one formula of a rule's
powers: looked up in the view's held table of them
(:meth:`TailsView.powers`) for a group of more members than rules times
levels below the frontier, and for every row built below a frontier.
``set_mass`` is the sum of the point values of a set's minimal members:
each component reads the groups of a ``CylinderSet``'s minimal members
(any other iterable is built into one first) through the same reader as
``values`` and sums that row once, and the weighted sums are added.
Level sums and trims are integers too, as ``(numerator, e)``.  Among the
strings of one length, those with j leading ones are one lex run, which
the tilt scales by 2**(-tilt * j); ``Component._tilt_runs`` owns that rule
for ranges, cutting a range of lex positions into such runs, and level
sums and rows read their runs from it (a point value, and so a set mass,
reads j from its own position).  At or above a frontier a level sum is a
slice of a stored row per run.  Below it a component reads the frontier
under sigma once, for one level (``Component.level_sum``) or for a whole
pass of levels (``Component.level_sums``): one sum per tail rule in each
run, merged per rule total, and a total keeps ((zero + one) in lowest terms)**levels of its
mass, one power per level asked; the limit is the mass under conserving
rules, one ``compress`` over a per-node mask.  On a tilted 1-spine the
all-ones node's subtree follows the recurrence
S(L+1) = T (S(L) - sp(L)) + sp(L) (z + o 2**-tilt), taken in closed form at
each level asked, so no level sum walks the spine's exits.
``level_mass`` and ``level_masses`` add the weighted component sums.
``Dyadic`` values are built only for what a sweep, a point read,
a set mass or a trim returns.  A tail rule's integer form lives in
:class:`TailsView` alone; lowest terms and common exponents live in
:mod:`dyadic` (``lowest``, ``row_lowest``, ``add``, ``common``, and
``_align`` for a pair of values such as a rule's two fractions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, count
from operator import gt, ne
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .dyadic import Dyadic, HALF, ONE, ZERO, _align, add, common, row_lowest
from .errors import PreconditionError, _count, _index, _stage
from .strings import (
    EPSILON,
    CylinderSet,
    StagedFamily,
    _length_groups,
    _listed,
    all_strings,
    check_all_bits,
    check_bits,
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
        if not beta <= HALF:
            raise ValueError("geometric ratio must lie in [0, 1/2]")
        return cls(beta, beta)

    @classmethod
    def split(cls, zero: Dyadic, one: Dyadic) -> "TailRule":
        return cls(zero, one)

    @property
    def total(self) -> Dyadic:
        return self.zero + self.one

    @property
    def conserving(self) -> bool:
        """True when no mass is lost below the frontier (total == 1)."""
        return self.total == ONE

    @property
    def kind(self) -> str:
        if self.zero == self.one:
            if self.zero == ZERO:
                return "vanish"
            if self.zero == HALF:
                return "uniform"
            return "geometric"
        return "split"


def _lex(s: str) -> int:
    """Position of a bit string among the strings of its length, in lex order."""
    return int(s, 2) if s else 0


def _canonical(nums: list[int], e: int) -> Row:
    """The same values over the least exponent that keeps them integers."""
    shift = row_lowest(nums, e)
    return ([x >> shift for x in nums] if shift else nums), e - shift


def _intern(rules: Iterable[TailRule]) -> tuple[tuple[TailRule, ...], list[int]]:
    """The distinct rules in order of first use, equal rules found by their
    integer fields, and the position of each given rule among them."""
    distinct: list[TailRule] = []
    seen: dict[tuple[int, int, int, int], int] = {}
    index = []
    for rule in rules:
        key = (rule.zero.numerator, rule.zero.exponent, rule.one.numerator, rule.one.exponent)
        i = seen.get(key)
        if i is None:
            i = seen[key] = len(distinct)
            distinct.append(rule)
        index.append(i)
    return tuple(distinct), index


class TableView(Mapping[str, Dyadic]):
    """A component's table, read-only: ``rows[n]`` holds the values of the
    length-n strings in lex order as ``(numerators, e)`` over the least
    ``e`` that keeps them integers.  Stored rows are never mutated."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Row]):
        self.rows = tuple(_canonical(nums, e) for nums, e in rows)

    @classmethod
    def of(cls, table: Mapping[str, Dyadic]) -> "TableView":
        """The rows of a complete table, whose depth is read from its size.
        A table of 2^(d+1) - 1 nodes in which every string up to d is found
        is complete; any other fails, on its first key that is not a bit
        string or else on the strings it misses up to its longest key."""
        depth = (len(table) + 1).bit_length() - 2
        if depth >= 0 and len(table) == (2 << depth) - 1:
            try:
                rows = []
                for n in range(depth + 1):
                    vals = [table[s] for s in all_strings(n)]
                    e = max(v.exponent for v in vals)
                    rows.append(([v.numerator << (e - v.exponent) for v in vals], e))
            except KeyError:
                pass
            else:
                return cls(rows)
        keys = {check_bits(k) for k in table}
        top = max((len(k) for k in keys), default=0)
        missing = sorted(set(strings_up_to(top)) - keys, key=sort_key)[:3]
        raise ValueError(f"table must cover every string of length <= {top}; missing {missing}")

    def __getitem__(self, key: str) -> Dyadic:
        if isinstance(key, str) and len(key) < len(self.rows) and not key.strip("01"):
            nums, e = self.rows[len(key)]
            return Dyadic(nums[_lex(key)], e)
        raise KeyError(key)

    def __len__(self) -> int:
        return (1 << len(self.rows)) - 1

    def __iter__(self):
        return strings_up_to(len(self.rows) - 1)

    def __eq__(self, other):
        if isinstance(other, TableView):
            return self.rows == other.rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"TableView({dict(self)!r})"


class TailsView(Mapping[str, TailRule]):
    """A component's tail rules, read-only: ``rules`` are the distinct rules
    in order of first use and ``index[k]`` is the rule of the k-th frontier
    node in lex order, so equal maps have equal fields.  The integer form of
    each rule lives here: ``aligned[i]`` is ``(z, o, e)`` with zero = z / 2**e
    and one = o / 2**e, ``top`` is the largest such e (every rule's
    z**a * o**b is read over 2**(top * (a + b))), and ``totals[i]`` is
    ``(t, x)`` with zero + one = t / 2**x in lowest terms, ``(1, 0)``
    exactly when the rule conserves mass.
    With two or more rules, ``keeps`` holds one byte per frontier node, 1
    where its rule conserves mass, so the limit mass below a string is one
    ``compress`` over a slice; a one-rule view leaves it empty.  How the
    tilt cuts the frontier into runs is :meth:`Component._tilt_runs`'
    alone.
    :meth:`power` is the one formula of a rule's powers below the frontier.
    ``held`` is the one table of them that rows built below the frontier and
    large point reads look up (:meth:`powers`), with its depth below the
    frontier: ``None`` until a read first needs one, then the table of the
    depth read last, so copies of a component that share the view
    (``replace``, ``scaled``) share it.  One slot, not one table per depth:
    each table is no larger than the read that built it, and the view keeps
    at most one.  It is a cache, not a field: equal views stay equal
    whatever table they hold."""

    __slots__ = ("depth", "rules", "index", "aligned", "top", "totals", "keeps", "held")

    def __init__(self, depth: int, rules: tuple[TailRule, ...], index: list[int]):
        self.depth, self.rules, self.index = depth, rules, index
        self.aligned = tuple(_align(rule.zero, rule.one) for rule in rules)
        self.top = max(e for _z, _o, e in self.aligned)
        self.totals = tuple((t.numerator, t.exponent) for t in (rule.total for rule in rules))
        self.keeps = b""  # unread for one rule: Component._frontier sums its frontier whole
        if len(rules) > 1:
            keep = [total == (1, 0) for total in self.totals]
            self.keeps = bytes(map(keep.__getitem__, index))
        self.held: tuple[int, list[list[int]]] | None = None

    def power(self, i: int, below: int, b: int) -> int:
        """Rule i's factor for a string with b ones ``below`` levels under
        its frontier node: z**(below - b) * o**b << ((top - e) * below) for
        the rule's aligned ``(z, o, e)``, over 2**(top * below).  The one
        place a rule's power is computed."""
        z, o, e = self.aligned[i]
        return z ** (below - b) * o**b << ((self.top - e) * below)

    def powers(self, below: int) -> list[list[int]]:
        """The table of rule powers ``below`` levels under the frontier:
        entry b of row i is ``power(i, below, b)``.  Kept in ``held`` until
        a read asks for another depth."""
        if self.held is not None and self.held[0] == below:
            return self.held[1]
        table = [[self.power(i, below, b) for b in range(below + 1)] for i in range(len(self.rules))]
        self.held = (below, table)
        return table

    @classmethod
    def single(cls, rule: TailRule, depth: int) -> "TailsView":
        """One rule on every frontier node."""
        return cls(depth, (rule,), [0] * (1 << depth))

    @classmethod
    def of(cls, tails: Mapping[str, TailRule], depth: int) -> "TailsView":
        """The rules of a map that names exactly the frontier nodes of ``depth``."""
        if len(tails) == 1 << depth:
            try:
                rules = [tails[node] for node in all_strings(depth)]
            except KeyError:
                pass
            else:
                return cls(depth, *_intern(rules))
        extra = set(tails) - set(all_strings(depth))
        if extra:
            raise ValueError(f"tail rules for non-frontier nodes: {sorted(extra)}")
        missing = [node for node in all_strings(depth) if node not in tails][:3]
        raise ValueError(f"tails must cover the frontier; missing {missing}")

    def __getitem__(self, key: str) -> TailRule:
        if isinstance(key, str) and len(key) == self.depth and not key.strip("01"):
            return self.rules[self.index[_lex(key)]]
        raise KeyError(key)

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return all_strings(self.depth)

    def __eq__(self, other):
        if isinstance(other, TailsView):
            return (self.depth, self.rules, self.index) == (other.depth, other.rules, other.index)
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"TailsView({dict(self)!r})"


@dataclass(frozen=True)
class Component:
    """One summand of a presentation: weight * (table + tails [+ tilt]).

    ``table`` and ``tails`` are read-only views (:class:`TableView`,
    :class:`TailsView`) of the component's one stored form: an ``int`` row
    per level and a rule index per frontier node.  The constructor takes
    views of depth ``depth`` only, and shares them, as ``dataclasses.replace``
    does; :meth:`build` alone converts plain mappings.
    """

    weight: Dyadic
    depth: int
    table: Mapping[str, Dyadic]
    tails: Mapping[str, TailRule]
    tilt: int = 0

    def __post_init__(self):
        _count(self.tilt, "tilt power")
        if not isinstance(self.table, TableView) or not isinstance(self.tails, TailsView):
            raise TypeError("table and tails must be a TableView and a TailsView; Component.build converts mappings")
        if len(self.table.rows) != self.depth + 1 or self.tails.depth != self.depth:
            raise ValueError(f"table and tails must both have depth {self.depth}")

    @classmethod
    def build(
        cls,
        weight: Dyadic,
        table: Mapping[str, Dyadic],
        tail: TailRule | None = None,
        tails: Mapping[str, TailRule] | None = None,
        tilt: int = 0,
    ) -> "Component":
        """Structural constructor: reads the depth from the table and fills tails.

        ``tail`` applies one rule to every frontier node and ``tails`` gives
        one rule per frontier node; at most one of the two is given, and
        with neither every frontier node vanishes.
        """
        view = table if isinstance(table, TableView) else TableView.of(table)
        depth = len(view.rows) - 1
        if tails is None:
            tail_view = TailsView.single(tail if tail is not None else TailRule.vanish(), depth)
        elif tail is not None:
            raise ValueError("give a 'tail' or a 'tails' map, not both")
        else:
            tail_view = TailsView.of(tails, depth)
        return cls(weight=weight, depth=depth, table=view, tails=tail_view, tilt=tilt)

    # -- evaluation (weight NOT included) --------------------------------

    def value(self, sigma: str) -> Dyadic:
        check_bits(sigma)
        (num,), e = self._values([(len(sigma), [_lex(sigma)])])
        return Dyadic(num, e)

    def _values(self, groups: Iterable[tuple[int, Sequence[int]]]) -> Row:
        # values (weight not included) at the strings given as (length, lex
        # positions) groups, in order: entries of a stored row at or above
        # the frontier; below it the frontier numerator times its rule's
        # power (TailsView.power).  Only a group of more members than rules
        # times below reads the view's held table (TailsView.powers): that
        # table, rules times (below + 1) entries, is then no larger than the
        # row the read builds, where one member of 10,000 bits would build
        # and keep 10,001 entries of about 10,000 bits each.  The tilt's
        # 2**(-tilt * j) over 2**(tilt * n) is a shift by tilt * (n - j), and
        # n - j, the length after the leading ones, is the bit length of the
        # position's complement
        depth, rows, tilt, tails = self.depth, self.table.rows, self.tilt, self.tails
        fnums, fe = rows[depth]
        index, top, power = tails.index, tails.top, tails.power
        parts = []
        for n, positions in groups:
            below = n - depth
            if below <= 0:
                row, e = rows[n]
                nums = [row[p] for p in positions]
            else:
                mask, e = (1 << below) - 1, fe + top * below
                if len(positions) > len(tails.rules) * below:
                    table = tails.powers(below)
                    nums = [fnums[p >> below] * table[index[p >> below]][(p & mask).bit_count()] for p in positions]
                else:
                    nums = [fnums[p >> below] * power(index[p >> below], below, (p & mask).bit_count()) for p in positions]
            if tilt:
                full = (1 << n) - 1
                nums = [x << tilt * (full ^ p).bit_length() for x, p in zip(nums, positions)]
                e += tilt * n
            parts.append((nums, e))
        if len(parts) == 1:
            return parts[0]
        e = max((e for _nums, e in parts), default=0)
        return [x << (e - pe) for nums, pe in parts for x in nums], e

    def _tilt_runs(self, n: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
        # the one owner of the tilt's rule: the lex positions [lo, hi) of the
        # length-n strings as (lo, hi, s) runs, the tilt scaling a run's
        # values by 2**(s - tilt * n).  The strings with j leading ones are
        # the run [2^n - 2^(n-j), 2^n - 2^(n-j-1)), with s = tilt * (n - j),
        # and j = n is the all-ones string alone; a range off the 1-spine
        # lies in one run, and an untilted component has one run
        if not self.tilt:
            return [(lo, hi, 0)]
        full = 1 << n
        j = n - (full - 1 - lo).bit_length()  # the leading ones of the string at lo
        runs = []
        while lo < hi:
            end = min(hi, full - (full >> (j + 1)))
            runs.append((lo, end, self.tilt * (n - j)))
            lo, j = end, j + 1
        return runs

    def _row_sum(self, sigma: str, n: int) -> tuple[int, int]:
        # the level sum at |sigma| <= n <= depth, from slices of the stored row
        nums, e = self.table.rows[n]
        lo = _lex(sigma) << (n - len(sigma))
        runs = self._tilt_runs(n, lo, lo + (1 << (n - len(sigma))))
        return sum(sum(nums[lo:hi]) << s for lo, hi, s in runs), e + self.tilt * n

    def _frontier(self, sigma: str, split: bool) -> tuple[list[tuple[int, tuple[int, int]]], tuple | None, int]:
        # the extensions of sigma at level k0 = max(|sigma|, depth) as
        # (x, (t, y)) terms over 2**e: x of their mass lies under tail rules
        # that keep t / 2**y of a node's mass per level further down.  One
        # pass over the frontier under sigma, run by run of the tilt: one sum
        # for a single rule; else, with split, one sum per rule in a loop,
        # merged per total.  Without split only the conserving mass is
        # wanted, the limit: one compress over the keeps mask.  On a tilted
        # 1-spine the all-ones extension, the last run, is left out of the
        # terms and returned as spine = (v, z, o, ez): its numerator over
        # 2**e and the aligned fields of its rule
        k, d = len(sigma), self.depth
        index, totals = self.tails.index, self.tails.totals
        on_spine = self.tilt and "0" not in sigma
        if k >= d:  # a single extension, under a single frontier node
            (v,), e = self._values([(k, [_lex(sigma)])])
            i = index[_lex(sigma) >> (k - d)]
            return ([], (v, *self.tails.aligned[i]), e) if on_spine else ([(v, totals[i])], None, e)
        fnums, fe = self.table.rows[d]
        lo = _lex(sigma) << (d - k)
        runs, e = self._tilt_runs(d, lo, lo + (1 << (d - k))), fe + self.tilt * d
        spine = None
        if on_spine:
            pos = runs.pop()[0]
            spine = (fnums[pos], *self.tails.aligned[index[pos]])
        if len(totals) == 1:  # one rule, so one sum, which a limit needs only if the rule conserves
            if not split and totals[0] != (1, 0):
                return [], spine, e
            return [(sum(sum(fnums[lo:hi]) << s for lo, hi, s in runs), totals[0])], spine, e
        if not split:
            keeps = self.tails.keeps
            return [(sum(sum(compress(fnums[lo:hi], keeps[lo:hi])) << s for lo, hi, s in runs), (1, 0))], spine, e
        merged: dict[tuple[int, int], int] = {}
        for lo, hi, s in runs:
            sums = [0] * len(totals)
            for i, v in zip(index[lo:hi], fnums[lo:hi]):
                sums[i] += v
            for v, total in zip(sums, totals):
                if v:
                    merged[total] = merged.get(total, 0) + (v << s)
        return [(v, total) for total, v in merged.items()], spine, e

    def _below(self, terms: list[tuple[int, tuple[int, int]]], spine: tuple | None, e: int, levels: int) -> tuple[int, int]:
        # the level sum ``levels`` below the level of a _frontier, in closed
        # form: a term keeps t**levels / 2**(y * levels) of its mass.  On the
        # spine, sp(L) = sp(0) (o 2**-tilt)**L, and the mass S(L) of the spine
        # node's subtree follows S(L+1) = T (S(L) - sp(L)) + sp(L) (z + o 2**-tilt)
        # with T = z + o, since mass off the spine keeps T per level; over
        # 2**((ez + tilt) L) it is sp(0) times z 2**tilt (X**L - o**L) / (X - o)
        # + o**L with X = (z + o) 2**tilt, and X == o only when z = o = 0
        parts = [(x * t**levels, e + y * levels) for x, (t, y) in terms if x]
        if spine is not None:
            v, z, o, ez = spine
            big = (z + o) << self.tilt
            geometric = (big**levels - o**levels) // (big - o) if big != o else 0
            parts.append((v * ((z << self.tilt) * geometric + o**levels), e + (ez + self.tilt) * levels))
        return add(parts)

    def _row(self, n: int, limit: bool = False) -> Row:
        # values (tilt included, weight not) of all length-n strings in lex
        # order; limit keeps only conserving frontier subtrees (n >= depth)
        if n <= self.depth and not limit:
            row, e = self.table.rows[n]
        else:
            # below each frontier node: its value times its rule's block, the
            # rule's power for the ones of each position below the node in lex
            # order, looked up in the view's held table
            fnums, fe = self.table.rows[self.depth]
            below = n - self.depth
            ones = [j.bit_count() for j in range(1 << below)]
            blocks = [[*map(powers.__getitem__, ones)] for powers in self.tails.powers(below)]
            if limit:  # a rule that loses mass keeps none of it
                blocks = [block if total == (1, 0) else [0] * len(ones) for block, total in zip(blocks, self.tails.totals)]
            row = [num * p for num, i in zip(fnums, self.tails.index) for p in blocks[i]]
            e = fe + self.tails.top * below
        if self.tilt:
            # each of the tilt's runs scaled over the common 2**(tilt * n), on a copy
            row = [x << s for lo, hi, s in self._tilt_runs(n, 0, 1 << n) for x in row[lo:hi]]
            e += self.tilt * n
        return row, e

    def level_sum(self, sigma: str, n: int | None) -> tuple[int, int]:
        """Sum of values over all extensions of sigma at length exactly n, as
        ``(numerator, e)`` with the sum ``numerator / 2**e``; n = None is the
        limit n -> infinity, the trimmed mass of sigma, which tilted
        components do not have in closed form.  At or above the frontier it
        sums slices of the stored row; below it, it reads the frontier under
        sigma once and takes each rule's powers, and the tilted 1-spine's
        closed form, for the n asked, never walking the levels between."""
        if n is None:
            if self.tilt:
                raise ValueError("no closed-form trim for tilted components")
            terms, _spine, e = self._frontier(sigma, split=False)
            return sum(x for x, total in terms if total == (1, 0)), e
        if n < len(sigma):
            raise ValueError("level must not be above the string")
        if n <= self.depth:
            return self._row_sum(sigma, n)
        return self._below(*self._frontier(sigma, split=True), n - max(len(sigma), self.depth))

    def level_sums(self, sigma: str, n_max: int) -> Iterator[tuple[int, int]]:
        """``level_sum(sigma, n)`` for n = |sigma|..n_max, reading the
        frontier under sigma once: each level below it is ``_below``'s closed
        form at that level, a constant number of powers per term."""
        k, d = len(sigma), self.depth
        for n in range(k, min(n_max, d) + 1):
            yield self._row_sum(sigma, n)
        first = max(k, d + 1)  # the first level below the frontier
        if n_max >= first:
            terms, spine, e = self._frontier(sigma, split=True)
            for n in range(first, n_max + 1):
                yield self._below(terms, spine, e, n - max(k, d))


@dataclass(frozen=True)
class SemiMeasureStage:
    """A finite mixture of components; ``strict`` claims root mass 1."""

    components: tuple[Component, ...]
    strict: bool = True

    def value(self, sigma: str) -> Dyadic:
        check_bits(sigma)
        (num,), e = self._read([(len(sigma), [_lex(sigma)])], 1)
        return Dyadic(num, e)

    def values(self, strings: Iterable[str]) -> Row:
        """Values at the given strings, in order, as ``(numerators, e)`` with
        the i-th value ``numerators[i] / 2**e``; weights and tilts are folded
        in.  Each component reads ``(length, lex positions)`` groups: a
        :class:`CylinderSet`'s own, read in its order, or else one per run of
        consecutive strings of one length, after every string is checked to
        be a 0/1 literal.  A lone ``str`` is not a set of strings and raises
        ``ParseError``."""
        if isinstance(strings, CylinderSet):
            return self._read(strings.groups, len(strings))
        items = _listed(strings)
        check_all_bits(items)
        return self._read(_length_groups(items), len(items))

    def _read(self, groups: Sequence[tuple[int, Sequence[int]]], size: int) -> Row:
        """The weighted values of ``size`` strings given as checked groups."""
        return self._fold([(comp._values(groups), comp.weight) for comp in self.components], size)

    @staticmethod
    def _fold(rows: Sequence[tuple[Row, Dyadic]], size: int) -> Row:
        """Weighted sum of component rows over one power of two."""
        e = max((ce + w.exponent for (_row, ce), w in rows), default=0)
        total = None  # a new list from the first row of non-zero weight on
        for (row, ce), w in rows:
            factor = w.numerator << (e - ce - w.exponent)
            if factor:
                total = [factor * x for x in row] if total is None else [t + factor * x for t, x in zip(total, row)]
        return (total if total is not None else [0] * size), e

    def level_mass(self, sigma: str, n: int | None) -> tuple[int, int]:
        """Mass at level n above sigma, as ``(numerator, e)``: the weighted
        component sums added.  n = None is the limit n -> infinity, the
        trimmed mass: conserving frontier subtrees keep their mass and every
        other subtree trims to zero.  Tilted components have no closed-form
        limit.  sigma must be a 0/1 literal and n, unless None, at least
        its length."""
        check_bits(sigma)
        if n is not None and _index(n, "level") < len(sigma):
            raise ValueError(f"level {n} is above the string (length {len(sigma)})")
        sums = [(comp.weight, comp.level_sum(sigma, n)) for comp in self.components]
        return add((w.numerator * x, w.exponent + y) for w, (x, y) in sums)

    def level_masses(self, sigma: str, n_max: int) -> Iterator[tuple[int, int]]:
        """``level_mass(sigma, n)`` for n = |sigma|..n_max.  Each component
        reads the frontier under sigma once (:meth:`Component.level_sums`),
        so each level below every frontier costs a constant number of integer
        powers per tail rule and component, the tilted 1-spine included.
        The limit is ``level_mass(sigma, None)``, one more frontier read.
        sigma must be a 0/1 literal and n_max at least its length."""
        check_bits(sigma)
        if _index(n_max, "level") < len(sigma):
            raise ValueError(f"level {n_max} is above the string (length {len(sigma)})")
        weights = [comp.weight for comp in self.components]
        passes = [comp.level_sums(sigma, n_max) for comp in self.components]
        for _ in range(len(sigma), n_max + 1):
            yield add((w.numerator * x, w.exponent + y) for w, (x, y) in zip(weights, map(next, passes)))

    def level_row(self, n: int, limit: bool = False) -> Row:
        """Values of all length-n strings in lex order, as ``(numerators, e)``
        with the i-th value ``numerators[i] / 2**e``; weights and tilts are
        folded in.

        With ``limit`` the row holds the trimmed masses instead (the values
        of ``level_mass(s, None)``), which needs n at or below every frontier:
        a conserving frontier node's subtree keeps its values and every
        other subtree is 0.  Tilted components have no such limit.
        """
        _count(n, "level")
        if limit and any(comp.tilt for comp in self.components):
            raise ValueError("no closed-form trim for tilted components")
        if limit and n < self.max_depth:
            raise ValueError("trimmed rows lie at or below every frontier")
        return self._fold([(comp._row(n, limit), comp.weight) for comp in self.components], 1 << n)

    def set_mass(self, strings: Iterable[str]) -> Dyadic:
        """Mass of a string set: the sum of the values of its minimal members.

        The set is read as a :class:`CylinderSet` (any other iterable is
        built into one first, which checks every member to be a 0/1 literal
        in (length, lex) order).  Each component reads the point values of
        the minimal members' ``(length, lex positions)`` groups as
        :meth:`values` does and sums them once, and the weighted sums are
        added; no ``Dyadic`` is built per member."""
        groups = CylinderSet(strings).minimal.groups
        rows = [(comp.weight, comp._values(groups)) for comp in self.components]
        return Dyadic(*add((w.numerator * sum(nums), w.exponent + e) for w, (nums, e) in rows))

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


def _first(flags: Iterable) -> int | None:
    """The index of the first true flag, or None: one C-level pass, for a
    ``map`` of an ``operator`` comparison over rows of numerators."""
    return next(compress(count(), flags), None)


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
    # tables and tail maps are complete by construction; each distinct rule
    # is checked once, and reported at its first frontier node in lex order
    for idx, comp in enumerate(stage.components):
        for i, (z, o, e) in enumerate(comp.tails.aligned):
            if z + o > 1 << e:
                node = string_at(comp.depth, comp.tails.index.index(i))
                return ValidationReport(
                    False, node=node, message=f"component {idx}: tail fractions must be >= 0 and sum to <= 1"
                )

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
        pairs = [a + b for a, b in zip(children[0::2], children[1::2])]
        (above, both), _e = common((parents, pe), (pairs, ce))
        bad = _first(map(gt, both, above))
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
            gap = string_at(n - 1, _first(map(ne, both, above)))
        parents, pe = children, ce
    if not additive:
        return _OK
    for comp in stage.components:
        lossy = [total != (1, 0) for total in comp.tails.totals]
        charged = zip(comp.table.rows[comp.depth][0], comp.tails.index)
        k = next((k for k, (num, i) in enumerate(charged) if num and lossy[i]), None)
        if k is not None:
            node = string_at(comp.depth, k)
            return ValidationReport(False, node=node, message="tail loses mass at a charged frontier node")
    if gap is not None:
        return ValidationReport(False, node=gap, message=f"additivity fails at {gap!r}")
    return _OK


# -- stock presentations ----------------------------------------------------


def uniform_measure(depth: int = 0) -> SemiMeasureStage:
    """The fair-coin measure: value 2^-|sigma| everywhere, the geometric
    semi-measure of ratio 1/2 (its rule's kind is "uniform")."""
    return geometric_semimeasure(HALF, depth)


def geometric_semimeasure(beta: Dyadic, depth: int = 0) -> SemiMeasureStage:
    """Root mass 1 decaying by ``beta`` per child: value beta^|sigma|."""
    rule = TailRule.geometric(beta)
    _count(depth, "depth")
    return table_semimeasure({s: beta ** len(s) for s in strings_up_to(depth)}, tail=rule)


def dirac_spine(bit: str) -> SemiMeasureStage:
    """Point mass on the constant sequence bit^infinity."""
    if bit not in ("0", "1"):
        raise ValueError("bit must be '0' or '1'")
    rule = TailRule.split(ONE, ZERO) if bit == "0" else TailRule.split(ZERO, ONE)
    return table_semimeasure({EPSILON: ONE}, tail=rule)


def table_semimeasure(table: Mapping[str, Dyadic], tail: TailRule | None = None,
                      tails: Mapping[str, TailRule] | None = None) -> SemiMeasureStage:
    """Single-component presentation from an explicit table: the one
    constructor of every one-component presentation.  ``table`` is a
    complete mapping or a :class:`TableView`, ``tail``/``tails`` are as in
    :meth:`Component.build`, and the stage is strict exactly when its root
    value is 1."""
    comp = Component.build(ONE, table, tail=tail, tails=tails)
    return SemiMeasureStage((comp,), strict=table[EPSILON] == ONE)


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
    total = sum(weights, ZERO)
    if total > ONE:
        raise PreconditionError(f"mixture weights total {total} > 1")
    comps: list[Component] = []
    for st, w in zip(stages, weights):
        comps.extend(st.scaled(w).components)
    mixed = SemiMeasureStage(tuple(comps), strict=False)
    if Dyadic(*mixed.level_mass(EPSILON, 0)) == ONE:
        mixed = SemiMeasureStage(mixed.components, strict=True)
    return mixed


# -- staged (left-c.e.) semi-measures ---------------------------------------


class LeftCeSemiMeasure:
    """Stage generator: stage_at(s) is a presentation and the values are
    pointwise non-decreasing in s (the caller's obligation, spot-checked in
    the test suite, never assumed silently elsewhere).  Nothing is stored:
    every read calls the stage function, which must be deterministic.
    ``last`` is the final stage of a family that stops changing (None while
    stages may keep growing): stage_at(s) clips s to it, as
    ``MonotoneFunctional.pairs_at`` does, so that a stage past it costs what
    ``last`` costs."""

    def __init__(self, stage_fn: Callable[[int], SemiMeasureStage], last: int | None = None):
        self._fn = stage_fn
        self.last = last

    def stage_at(self, s: int) -> SemiMeasureStage:
        return self._fn(_stage(s, self.last))

    def value(self, sigma: str, s: int) -> Dyadic:
        return self.stage_at(s).value(sigma)

    @classmethod
    def constant(cls, stage: SemiMeasureStage) -> "LeftCeSemiMeasure":
        return cls(lambda _s: stage, 0)


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
    items = strings if isinstance(strings, CylinderSet) else _listed(strings)
    (parts, mixes), _e = common(part.scaled(weight).values(items), mixed.values(items))
    return next((s for s, p, m in zip(items, parts, mixes) if p > m), None)


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
    if not stage.strict:  # validation has rejected a strict stage whose root is not 1
        raise PreconditionError("completion requires a strict presentation")
    if any(c.tilt for c in stage.components):
        raise PreconditionError("completion is not defined for tilted components")
    target = stage.max_depth if depth is None else depth
    if target < stage.max_depth:
        raise ValueError("completion depth must reach every component frontier")

    mu, me = rows[0]  # the root's value, mu[0] / 2^me
    # mu(s0), mu(s1) = a + g/2, b + g/2 with g = mu(s) - a - b, computed as
    # 2a + g = m + a - b and 2b + g = m - a + b over one more power of two so
    # that halving stays exact, each half of the next level in one pass
    values, ve = mu, me
    for n in range(1, target + 1):
        (mu, values), ve = common((mu, me), rows[n] if n < len(rows) else stage.level_row(n))
        lefts, rights = values[0::2], values[1::2]
        pushed = [0] * len(values)
        pushed[0::2] = [m + a - b for m, a, b in zip(mu, lefts, rights)]
        pushed[1::2] = [m - a + b for m, a, b in zip(mu, lefts, rights)]
        mu, me = pushed, ve + 1
    (mu, values), me = common((mu, me), (values, ve))
    surplus = [m - v for m, v in zip(mu, values)]

    parts = []  # (weight, target-level row, tails) of each completed component
    for comp in stage.components:
        # the padded rules of the frontier node above each target node: the
        # lost 1 - (z + o) / 2**e split evenly, zero = (z - o + 2**e) / 2**(e + 1)
        # and one = (o - z + 2**e) / 2**(e + 1), which validation keeps >= 0
        padded = (TailRule(Dyadic(z - o + (1 << e), e + 1), Dyadic(o - z + (1 << e), e + 1))
                  for z, o, e in comp.tails.aligned)
        rules, remap = _intern(padded)
        index, shift = comp.tails.index, target - comp.depth
        tails = TailsView(target, rules, [remap[index[k >> shift]] for k in range(1 << target)])
        parts.append((comp.weight, comp._row(target), tails))
    parts.append((ONE, (surplus, me), TailsView.single(TailRule.uniform(), target)))
    new_comps = []
    for weight, (row, e), tails in parts:
        table = TableView((nums, e) for nums in summed_rows(row, target))
        new_comps.append(Component(weight=weight, depth=target, table=table, tails=tails))
    return SemiMeasureStage(tuple(new_comps), strict=True)


def summed_rows(row: list[int], depth: int) -> list[list[int]]:
    """Rows of levels 0..depth, indexed by level, whose level-``depth`` row
    is ``row`` and whose every other entry is the sum of its two children."""
    levels = [row]
    for _ in range(depth):
        row = [a + b for a, b in zip(row[0::2], row[1::2])]
        levels.append(row)
    levels.reverse()
    return levels


# -- infimum-scaled stages ---------------------------------------------------


def from_infimum_sequence(rows: Sequence, stage: int, depth: int) -> SemiMeasureStage:
    """Stage presentation of sigma -> 2^-|sigma| * min_{i <= |sigma|} r_i(stage).

    ``rows`` is a finite list of stage generators: a callable row is called
    with the stage, and a sequence of values is read by index, freezing at
    its last entry.  Indices past the end of ``rows`` contribute nothing, so
    below depth len(rows) - 1 the minimum is frozen and the uniform tail
    reproduces the formula exactly; choose ``depth >= len(rows) - 1`` to get
    the exact presentation.  The stage and the depth are counts: non-negative
    ``int`` values, not ``bool``.
    """
    if not rows:
        raise ValueError("at least one generator row is required")
    _count(depth, "depth")
    _count(stage, "stage")  # a negative stage would read a row from its end
    vals = []
    for i, row in enumerate(rows):
        if not callable(row) and not row:
            raise ValueError("generator value lists must be non-empty")
        v = row(stage) if callable(row) else row[min(stage, len(row) - 1)]
        if not isinstance(v, Dyadic) or v > ONE:
            raise ValueError(f"generator {i} must yield dyadics in [0, 1], got {v}")
        vals.append(v)
    levels, low = [], vals[0]
    for n in range(depth + 1):
        if n < len(vals):  # frozen past the last generator
            low = min(low, vals[n])
        levels.append(([low.numerator] * (1 << n), low.exponent + n))  # low / 2^n at every node
    return table_semimeasure(TableView(levels), tail=TailRule.uniform())


def infimum_semimeasure(rows: Sequence, depth: int) -> LeftCeSemiMeasure:
    """The staged family of :func:`from_infimum_sequence`, its arguments
    checked once here by reading stage 0 as a one-node table.  Its last
    stage is the last index of the longest row, past which every row is
    frozen, unless some row is callable."""
    frozen = [r if callable(r) else list(r) for r in rows]
    from_infimum_sequence(frozen, 0, min(_index(depth, "depth"), 0))
    last = None if any(map(callable, frozen)) else max(map(len, frozen)) - 1
    return LeftCeSemiMeasure(lambda s: from_infimum_sequence(frozen, s, depth), last)


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
    _count(stage, "stage")
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
