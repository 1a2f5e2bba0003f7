"""Finite binary strings and the cylinder-set algebra over them.

Strings are plain Python ``str`` over the alphabet {0, 1}; the empty string
is the root of the binary tree.  A finite set of pairwise prefix-incomparable
strings (an antichain) denotes the clopen union of its cylinders, and all set
operations here keep that representation canonical: sorted by (length,
lexicographic), duplicates removed.

For antichains plain string sorting agrees with left-to-right order of the
cylinders on the unit interval, which the interval-allocation code relies on.

Prefix tests never compare members pairwise.  A set is indexed by its
members and the distinct lengths they have, and a string has a prefix in
the set exactly when one of its prefixes at those lengths is a member.  So
``prefix_free_normalize``, ``is_prefix_free`` and ``intersect_sets`` cost
one set lookup per member per distinct length (plus a sort where the
result is ordered), not one comparison per pair of members.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .dyadic import Dyadic, ZERO
from .errors import ParseError

EPSILON = ""

StringSet = tuple[str, ...]


def check_bits(s: str) -> str:
    """Validate a 0/1 literal and return it unchanged."""
    if not isinstance(s, str) or s.strip("01"):
        raise ParseError(f"not a binary string: {s!r}")
    return s


def comparable(a: str, b: str) -> bool:
    return a.startswith(b) or b.startswith(a)


def sort_key(s: str):
    return (len(s), s)


def canon(strings: Iterable[str]) -> StringSet:
    """Deduplicate and sort into the canonical (length, lex) order."""
    return tuple(sorted(set(strings), key=sort_key))


def string_at(length: int, k: int) -> str:
    """The k-th binary string of the given length in lex order."""
    return format(k, f"0{length}b") if length else EPSILON


def all_strings(length: int) -> Iterator[str]:
    """All binary strings of exactly the given length, in lex order."""
    if length == 0:
        yield EPSILON
        return
    yield from map(format, range(1 << length), repeat(f"0{length}b"))


def strings_up_to(depth: int) -> Iterator[str]:
    """All binary strings of length <= depth, shortest first."""
    for n in range(depth + 1):
        yield from all_strings(n)


def extensions(s: str, m: int) -> Iterator[str]:
    for tail in all_strings(m):
        yield s + tail


def leading_ones(s: str) -> int:
    """Length of the maximal all-ones prefix."""
    return len(s) - len(s.lstrip("1"))


def _has_prefix_in(s: str, members: set[str], lengths: Sequence[int], longest: int) -> bool:
    """True when s[:n] is a member for some n in ``lengths`` (ascending) up to ``longest``."""
    for n in lengths:
        if n > longest:
            return False
        if s[:n] in members:
            return True
    return False


def _lengths(items: Iterable[str]) -> list[int]:
    return sorted({len(s) for s in items})


def is_prefix_free(strings: Iterable[str]) -> bool:
    members = set(strings)
    lengths = _lengths(members)
    return not any(_has_prefix_in(s, members, lengths, len(s) - 1) for s in members)


def prefix_free_normalize(strings: Iterable[str]) -> StringSet:
    """Minimal members of the set: drop every proper extension of a member.

    The result denotes the same open set of infinite sequences and is an
    antichain.  Normalising twice is the same as normalising once.
    """
    kept: list[str] = []
    members: set[str] = set()
    lengths: list[int] = []  # distinct lengths of the kept members, ascending
    for s in canon(strings):  # shortest first, so minimal members survive
        if not _has_prefix_in(s, members, lengths, len(s) - 1):
            kept.append(s)
            members.add(s)
            if not lengths or lengths[-1] < len(s):
                lengths.append(len(s))
    return tuple(kept)


def lebesgue_of_set(strings: Iterable[str]) -> Dyadic:
    """Uniform measure of the union of cylinders, normalising first.

    Summed as integers over the longest member length (the last member in
    canonical order) and built as one Dyadic.
    """
    items = prefix_free_normalize(strings)
    if not items:
        return ZERO
    longest = len(items[-1])
    return Dyadic(sum(1 << (longest - len(s)) for s in items), longest)


def extend_set(strings: Iterable[str], m: int) -> StringSet:
    """Replace each member of an antichain by all its length +m extensions.

    Measure is preserved and the result is again an antichain.
    """
    if m < 0:
        raise ValueError("extension depth must be non-negative")
    items = canon(strings)
    if not is_prefix_free(items):
        raise ValueError("extend_set requires a prefix-free set")
    # members of an antichain have disjoint extensions, and extending each
    # member of a canonical tuple in turn keeps the (length, lex) order
    return tuple(e for s in items for e in extensions(s, m))


def intersect_sets(a: Iterable[str], b: Iterable[str]) -> StringSet:
    """Antichain denoting the intersection of the two cylinder unions.

    For comparable members the longer one carves out the overlap: a member
    of b with a prefix in a, or a member of a with a proper prefix in b.
    For prefix-free inputs the result is prefix-free.
    """
    items_b = canon(b)
    items_a = canon(a)
    set_a, lengths_a = set(items_a), _lengths(items_a)
    set_b, lengths_b = set(items_b), _lengths(items_b)
    out = [y for y in items_b if _has_prefix_in(y, set_a, lengths_a, len(y))]
    out += [x for x in items_a if _has_prefix_in(x, set_b, lengths_b, len(x) - 1)]
    return prefix_free_normalize(out)


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
            if stage < 0 or level < 0:
                raise ValueError("stage and level must be non-negative")
            evs.append((int(stage), int(level), check_bits(s)))
        return cls(tuple(evs))

    def first_stages(self, level: int, stage: int) -> dict[str, int]:
        """Members of ``level`` by ``stage``, each mapped to the first stage
        at which it appears, in order of first appearance in ``events``."""
        first: dict[str, int] = {}
        for t, lv, s in self.events:
            if lv == level and t <= stage and (s not in first or t < first[s]):
                first[s] = t
        return first

    def level_at(self, level: int, stage: int) -> StringSet:
        return tuple(self.first_stages(level, stage))
