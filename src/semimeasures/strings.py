"""Finite binary strings and the cylinder-set algebra over them.

Strings are plain Python ``str`` over the alphabet {0, 1}; the empty string
is the root of the binary tree.  A finite set of strings denotes the clopen
union of its cylinders, and its minimal members -- those with no proper
prefix in it, an antichain -- denote the same union.

Every normalised set is a :class:`CylinderSet`, and its constructor is the
one normaliser: it keeps the members in the canonical (length, lex) order
without duplicates, checks each to be a 0/1 literal once, and finds the
minimal members.  Every set operation here (``prefix_free_normalize``,
``extend_set``, ``intersect_sets``) takes any iterable and returns a
``CylinderSet``; a ``CylinderSet`` argument is not rebuilt, because
``CylinderSet(c) is c``, and ``c.minimal is c`` says it is prefix-free.

Prefix tests never compare members pairwise.  In plain lex order the
extensions of a string come directly after it, so a member with a proper
prefix in a set follows a member it extends: a set is prefix-free exactly
when no member is a prefix of its lex successor, and its minimal members
are the strings that do not extend the last minimal member before them.
So building a set costs one C-level lex sort (about one linear pass on
input already in order, since duplicates are dropped after it), a linear
pass and one stable sort by length; ``intersect_sets`` adds one lex sort
of each side's minimal members and one binary search per member.  For
antichains plain string sorting agrees with left-to-right order of the
cylinders on the unit interval, which the interval-allocation code relies
on.

A set's ``(length, ascending lex positions)`` groups are computed when
they are first read, and set masses and point values read them, so no read
re-sorts, re-checks or re-parses a member.  What a set holds lives and
dies with it: nothing is cached elsewhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .dyadic import Dyadic
from .errors import ParseError, _count, _index

EPSILON = ""


def check_bits(s: str) -> str:
    """Validate a 0/1 literal and return it unchanged."""
    if not isinstance(s, str) or s.strip("01"):
        raise ParseError(f"not a binary string: {s!r}")
    return s


def all_bits(strings: Sequence[str]) -> bool:
    """Whether every item is a 0/1 string: one join, and the UTF-8 bytes of
    the join left empty once the bytes of 0 and 1 are deleted (no other
    character's encoding holds either byte).  Callers that get False run
    ``check_bits`` item by item to name the first bad one."""
    try:
        return not "".join(strings).encode().translate(None, b"01")
    except (TypeError, UnicodeEncodeError):  # an item that is not a string, or a lone surrogate
        return False


def check_all_bits(strings: Sequence[str]) -> None:
    """``check_bits`` on every item: one :func:`all_bits` pass, and item by
    item only when it fails, so the first bad item is the one named."""
    if not all_bits(strings):
        for s in strings:
            check_bits(s)


def comparable(a: str, b: str) -> bool:
    return a.startswith(b) or b.startswith(a)


def sort_key(s: str):
    return (len(s), s)


def string_at(length: int, k: int) -> str:
    """The k-th binary string of the given length in lex order."""
    return format(k, f"0{length}b") if length else EPSILON


def all_strings(length: int) -> Iterator[str]:
    """All binary strings of exactly the given length, a count, in lex order."""
    if _count(length, "length") == 0:
        yield EPSILON
        return
    yield from map(format, range(1 << length), repeat(f"0{length}b"))


def strings_up_to(depth: int) -> Iterator[str]:
    """All binary strings of length <= depth, shortest first: none when the
    depth, an integer, is negative."""
    for n in range(_index(depth, "depth") + 1):
        yield from all_strings(n)


def leading_ones(s: str) -> int:
    """Length of the maximal all-ones prefix."""
    return len(s) - len(s.lstrip("1"))


def _minimal(items: list[str]) -> list[str]:
    """The members of a lex-sorted list of distinct strings with no proper
    prefix in it, in lex order: a string is one exactly when it does not
    extend the last one kept.  The list is prefix-free, and returned as it
    is, when no item is a prefix of the next."""
    if not any(map(str.startswith, items[1:], items)):
        return items
    kept = items[:1]
    for s in items:  # the first item extends itself, so it is not kept twice
        if not str.startswith(s, kept[-1]):
            kept.append(s)
    return kept


def _listed(strings: Iterable[str]) -> list[str]:
    """The members of a string set, as a list.  A lone ``str`` is one
    string, not the set of its characters, so it raises ``ParseError``
    naming it."""
    if isinstance(strings, str):
        raise ParseError(f"a string set must be an iterable of strings, not the string {strings!r}")
    return list(strings)


def _length_groups(items: Iterable[str]) -> list[tuple[int, list[int]]]:
    """The strings as ``(length, lex positions)`` groups, one per run of
    consecutive strings of one length, in order.  A loop, not ``groupby``:
    on the one string of a point read it costs under half as much."""
    groups: list[tuple[int, list[int]]] = []
    last = -1
    for s in items:
        n = len(s)
        if n != last:
            positions: list[int] = []
            groups.append((n, positions))
            last = n
        positions.append(int(s, 2) if n else 0)
    return groups


class CylinderSet(tuple):
    """A finite set of bit strings as a checked value: its members in the
    canonical (length, lex) order without duplicates, each checked to be a
    0/1 literal, in that order, when the set is built.  A member that is
    not a string raises ``ParseError`` too, naming it, and so does a lone
    ``str`` given as the set.

    ``groups`` holds the members as ``(length, ascending lex positions)``
    groups, one per length, computed when first read, and ``minimal`` the
    members with no proper prefix in the set, the antichain denoting the
    same open set: the set itself when it is prefix-free.  Building a set
    from a ``CylinderSet`` returns it unchanged.
    """

    def __new__(cls, strings: Iterable[str] = ()) -> "CylinderSet":
        if type(strings) is cls:
            return strings
        members = _listed(strings)
        try:
            # sorted before deduplicated, so members already in order, or in
            # a few ordered runs, sort in about one linear pass
            members.sort()
            lex = list(dict.fromkeys(members))
            items = sorted(lex, key=len)
        except TypeError:  # only a member that is not a string fails to sort, hash or take a length
            bad = next(s for s in members if not isinstance(s, str))
            raise ParseError(f"not a binary string: {bad!r}") from None
        check_all_bits(items)
        # members of one length are prefix-free
        kept = lex if not items or len(items[0]) == len(items[-1]) else _minimal(lex)
        return cls._of(items, None if len(kept) == len(lex) else cls._of(sorted(kept, key=len)))

    @classmethod
    def _of(cls, items: Iterable[str], antichain: "CylinderSet | None" = None) -> "CylinderSet":
        # canonical, checked members; no antichain given means prefix-free
        self = tuple.__new__(cls, items)
        self._antichain = antichain
        return self

    @property
    def minimal(self) -> "CylinderSet":
        # stored only when it is another set, so that no set refers to
        # itself and a dead one is freed at once, not by the cycle collector
        return self if self._antichain is None else self._antichain

    @cached_property
    def groups(self) -> list[tuple[int, list[int]]]:
        return _length_groups(self)


def is_prefix_free(strings: Iterable[str]) -> bool:
    """Whether the set of 0/1 literals is an antichain: its own minimal set."""
    items = CylinderSet(strings)
    return items.minimal is items


def prefix_free_normalize(strings: Iterable[str]) -> CylinderSet:
    """Minimal members of the set: drop every proper extension of a member.

    The result denotes the same open set of infinite sequences and is an
    antichain.  Normalising twice is the same as normalising once.
    """
    return CylinderSet(strings).minimal


def lebesgue_of_set(strings: Iterable[str]) -> Dyadic:
    """Uniform measure of the union of cylinders: the set is built as a
    :class:`CylinderSet`, so every member is checked to be a 0/1 literal in
    (length, lex) order, and 2^-|s| is summed over its minimal members as
    integers over the longest of their lengths and built as one Dyadic.
    """
    minimal = CylinderSet(strings).minimal
    longest = len(minimal[-1]) if minimal else 0
    return Dyadic(sum(1 << (longest - len(s)) for s in minimal), longest)


def extend_set(strings: Iterable[str], m: int) -> CylinderSet:
    """Replace each member of an antichain by all its length +m extensions.

    Measure is preserved and the result is again an antichain.
    """
    _count(m, "extension depth")
    items = CylinderSet(strings)
    if items.minimal is not items:
        raise ValueError("extend_set requires a prefix-free set")
    # members of an antichain have disjoint extensions, and extending each
    # member of a canonical set in turn keeps the (length, lex) order
    tails = list(all_strings(m))
    return CylinderSet._of(s + t for s in items for t in tails)


def intersect_sets(a: Iterable[str], b: Iterable[str]) -> CylinderSet:
    """Antichain denoting the intersection of the two cylinder unions.

    For comparable members the longer one carves out the overlap: a member
    of b with a prefix in a, or a member of a with a proper prefix in b.
    The result is prefix-free.
    """
    # the intersection is that of the minimal members.  In a lex-sorted
    # antichain the one member that can be a prefix of a string is the last
    # one not after it (strictly before it, for a proper prefix), and the
    # strings kept are pairwise incomparable and distinct
    items_a, items_b = sorted(CylinderSet(a).minimal), sorted(CylinderSet(b).minimal)
    out = [y for y in items_b if (i := bisect_right(items_a, y)) and y.startswith(items_a[i - 1])]
    out += [x for x in items_a if (i := bisect_left(items_b, x)) and x.startswith(items_b[i - 1])]
    return CylinderSet(out)


@dataclass(frozen=True)
class StagedFamily:
    """Stagewise enumeration of an indexed family of string sets.

    ``events`` lists (stage, level, string) entries; the set at a level is
    cumulative in the stage.  Enumeration order within the event tuple is
    meaningful and ties are broken by it.
    """

    events: tuple[tuple[int, int, str], ...]

    @classmethod
    def from_events(cls, events: Iterable[tuple[int, int, str]]) -> "StagedFamily":
        evs = []
        for stage, level, s in events:
            if min(_index(stage, "stage"), _index(level, "level")) < 0:
                raise ValueError("stage and level must be non-negative")
            evs.append((stage, level, check_bits(s)))
        return cls(tuple(evs))

    def first_stages(self, level: int, stage: int) -> dict[str, int]:
        """Members of ``level`` by ``stage``, each mapped to the first stage
        at which it appears, in order of first appearance in ``events``."""
        first: dict[str, int] = {}
        for t, lv, s in self.events:
            if lv == level and t <= stage and (s not in first or t < first[s]):
                first[s] = t
        return first
