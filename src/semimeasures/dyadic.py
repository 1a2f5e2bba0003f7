"""Exact non-negative dyadic rationals of the form m / 2**n.

Every quantity in this package (masses of cylinder sets, stage values of
semi-measures, thresholds) is a non-negative dyadic rational, and every
operation on them is exact.  Floats never appear, and a ``Dyadic`` declines
them: ``ONE == 1`` but ``ONE != 1.0``, ``ONE < 1.0`` raises ``TypeError``,
and a float key finds no ``Dyadic`` in a dict, although an integral
``Dyadic`` hashes like its integer and so like that float.  Equality with
floats is left out because it would stay transitive only with Fraction
equality and a numeric hash as well.

Canonical form: the numerator is odd unless the exponent is zero, and zero
is stored as ``0/2^0``.  Because construction always canonicalises,
structural equality coincides with numeric equality and instances are safe
to hash and to use as dict keys.  Lowest terms have one rule, :func:`lowest`
(:func:`row_lowest` for a row of numerators over one power of two), and so
does putting terms over their largest power of two: :func:`add` sums
``(numerator, e)`` terms, :func:`common` aligns ``(numerators, e)`` rows and
the private ``_align`` puts two ``Dyadic`` values over the larger of their
powers of two (for ``+``, ``-``, ``<`` and a tail rule's integer form).

The text form is ``m/2^n`` (for example ``3/2^2`` for 3/4).  Bare integer
literals are accepted on input and rendered with exponent zero on output.
"""

from __future__ import annotations

import re
import sys
from functools import reduce, total_ordering
from operator import or_
from typing import Iterable

from .errors import ParseError, PreconditionError, _count

_LITERAL = re.compile(r"\A([0-9]+)(?:/2\^([0-9]+))?\Z")  # ASCII digits only


@total_ordering
class Dyadic:
    __slots__ = ("numerator", "exponent")

    numerator: int
    exponent: int

    def __init__(self, numerator: int, exponent: int = 0):
        if not isinstance(numerator, int) or not isinstance(exponent, int):
            raise TypeError("numerator and exponent must be int")
        if numerator < 0:
            raise ValueError("dyadic values are non-negative")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        shift = lowest(numerator, exponent)
        object.__setattr__(self, "numerator", numerator >> shift)
        object.__setattr__(self, "exponent", exponent - shift)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Dyadic is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2**k for any integer k (negative k gives 1/2^|k|)."""
        if k >= 0:
            return cls(1 << k, 0)
        return cls(1, -k)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Dyadic | None":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y, e = _align(self, other)
        return Dyadic(x + y, e)

    __radd__ = __add__

    def __sub__(self, other):
        """Partial: the result must stay non-negative."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y, e = _align(self, other)
        if x < y:
            raise ValueError(f"dyadic subtraction went negative: {self} - {other}")
        return Dyadic(x - y, e)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dyadic(self.numerator * other.numerator, self.exponent + other.exponent)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        return Dyadic(self.numerator**k, self.exponent * k)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.numerator == other.numerator and self.exponent == other.exponent

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        x, y, _e = _align(self, other)
        return x < y

    def __hash__(self):
        # integers compare equal to their Dyadic, so they must hash alike
        if self.exponent == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.exponent))

    def __bool__(self):
        return self.numerator != 0

    # -- text ------------------------------------------------------------

    def __str__(self):
        return _text(self.numerator, self.exponent)

    def __repr__(self):
        return f"Dyadic('{self}')"


def lowest(x: int, e: int) -> int:
    """The number of factors of two that x and 2**e share, e when x is 0:
    x / 2**e in lowest terms is (x >> k) / 2**(e - k) for k = lowest(x, e)."""
    return min(e, (x & -x).bit_length() - 1) if x else e


def row_lowest(nums: Iterable[int], e: int) -> int:
    """:func:`lowest` for a whole row: the largest k with every x in nums a
    multiple of 2**k, at most e (e for an all-zero or empty row)."""
    return lowest(reduce(or_, nums, 0), e)


def add(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the values x / 2**e of ``(x, e)`` terms, as ``(numerator, e)``
    over their largest exponent; ``(0, 0)`` for no terms."""
    terms = list(terms)
    e = max((y for _x, y in terms), default=0)
    return sum(x << (e - y) for x, y in terms), e


def common(*rows: tuple[list[int], int]) -> tuple[list[list[int]], int]:
    """The numerators of ``(numerators, e)`` rows over their largest exponent,
    and that exponent.  A row already over it is returned as it is, not
    copied."""
    e = max(y for _nums, y in rows)
    return [nums if y == e else [x << (e - y) for x in nums] for nums, y in rows], e


def _align(a: Dyadic, b: Dyadic) -> tuple[int, int, int]:
    """The numerators of a and b over their larger power of two, and its
    exponent: a = x / 2**e and b = y / 2**e for ``(x, y, e)``."""
    if a.exponent >= b.exponent:
        return a.numerator, b.numerator << (a.exponent - b.exponent), a.exponent
    return a.numerator << (b.exponent - a.exponent), b.numerator, b.exponent


def _text(x: int, e: int) -> str:
    """Canonical ``m/2^n`` text of x / 2**e, with no Dyadic built; PreconditionError
    when the numerator passes the interpreter's int-to-text digit limit."""
    shift = lowest(x, e)
    try:
        return f"{x >> shift}/2^{e - shift}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(f"an exact value's numerator has more than {limit} digits, too many to write") from None


def parse_literal(text: str) -> tuple[int, int]:
    """``(m, n)`` of an ``m/2^n`` or bare integer literal string, as written
    (not canonicalised); anything else raises ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"dyadic literals must be strings, got {type(text).__name__}")
    m = _LITERAL.match(text.strip())
    if m is None:
        raise ParseError(f"not a dyadic literal: {text!r}")
    return int(m.group(1)), int(m.group(2)) if m.group(2) is not None else 0


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)


def expansion_bits(value: Dyadic, n: int) -> str:
    """First n digits of the binary expansion of ``value`` in [0, 1).

    Dyadics have a finite expansion; past it the digits are zero.  (The
    all-ones alternative expansion is never used.)
    """
    if not value < ONE:
        raise ValueError("expansion requires a value in [0, 1)")
    _count(n, "digit count")
    # floor(value * 2**n) in n binary digits: a 1 put in front keeps its
    # leading zeros, and [3:] drops the "0b1"
    return bin((value.numerator << n) >> value.exponent | 1 << n)[3:]
