"""Exact dyadic arithmetic: canonical form, parsing, and field laws."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import dyadics, unit_dyadics
from helpers import as_fraction
from semimeasures import Dyadic, HALF, ONE, ParseError, ZERO, dyadic_from_text
from semimeasures.dyadic import _align, add, common, lowest, parse_literal, row_lowest


class TestCanonicalForm:
    def test_trailing_twos_are_stripped(self):
        assert Dyadic(4, 3) == Dyadic(1, 1)
        assert Dyadic(4, 3).numerator == 1
        assert Dyadic(4, 3).exponent == 1

    def test_zero_normalizes_exponent(self):
        assert Dyadic(0, 7).exponent == 0
        assert Dyadic(0, 7) == ZERO

    def test_even_integers_keep_exponent_zero(self):
        d = Dyadic(6, 0)
        assert (d.numerator, d.exponent) == (6, 0)

    def test_numerator_odd_or_exponent_zero(self):
        for num in range(0, 33):
            for exp in range(0, 6):
                d = Dyadic(num, exp)
                assert d.numerator % 2 == 1 or d.exponent == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Dyadic(-1, 0)
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_rejects_non_int_parts(self):
        with pytest.raises(TypeError, match="^numerator and exponent must be int$"):
            Dyadic(1.5)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.numerator = 2


class TestLowestTerms:
    @given(st.integers(1, 2**80), st.integers(0, 90))
    def test_lowest_matches_the_fraction(self, x, e):
        k = lowest(x, e)
        assert 0 <= k <= e
        assert Fraction(x, 2**e) == Fraction(x >> k, 2 ** (e - k))
        assert Fraction(x, 2**e).denominator == 2 ** (e - k)

    def test_zero_reduces_to_exponent_zero(self):
        assert [lowest(0, e) for e in (0, 1, 7)] == [0, 1, 7]
        assert (lowest(12, 1), lowest(12, 5), lowest(3, 4)) == (1, 2, 0)

    @given(st.lists(st.integers(0, 2**40), max_size=6), st.integers(0, 50))
    def test_row_lowest_is_the_least_exponent_of_the_row(self, nums, e):
        k = row_lowest(nums, e)
        assert 0 <= k <= e and all(x % 2**k == 0 for x in nums)
        assert k == e or any((x >> k) % 2 for x in nums)

    def test_row_lowest_known_values(self):
        assert [row_lowest([], 3), row_lowest([0, 0], 2), row_lowest([4, 12], 5), row_lowest([4, 12], 1)] == [3, 2, 2, 1]
        assert row_lowest([6, 3], 4) == 0


term_lists = st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 50)), max_size=5)


class TestCommonExponents:
    @given(term_lists)
    def test_add_matches_the_fraction_sum(self, terms):
        x, e = add(iter(terms))
        assert e == max((k for _m, k in terms), default=0)
        assert Fraction(x, 2**e) == sum((Fraction(m, 2**k) for m, k in terms), Fraction(0))

    def test_add_known_values(self):
        assert add([]) == (0, 0)
        assert add([(3, 2), (1, 0), (5, 4)]) == (12 + 16 + 5, 4)

    @given(st.lists(st.tuples(st.lists(st.integers(0, 2**40), max_size=4), st.integers(0, 50)), min_size=1, max_size=3))
    def test_common_keeps_every_value(self, rows):
        got, e = common(*rows)
        assert e == max(k for _nums, k in rows)
        assert [[Fraction(x, 2**e) for x in nums] for nums in got] == [
            [Fraction(x, 2**k) for x in nums] for nums, k in rows
        ]

    @given(dyadics(max_exponent=40), dyadics(max_exponent=40))
    def test_align_puts_a_pair_over_the_larger_exponent(self, a, b):
        x, y, e = _align(a, b)
        assert e == max(a.exponent, b.exponent)
        assert (Fraction(x, 2**e), Fraction(y, 2**e)) == (as_fraction(a), as_fraction(b))

    def test_common_known_values(self):
        low, high = [1, 3], [5]
        (a, b, c), e = common((low, 1), (high, 3), ([], 0))
        assert ((a, b, c), e) == (([4, 12], [5], []), 3)
        assert b is high and low == [1, 3]


class TestParsing:
    def test_round_trip_literals(self):
        for text in ["0/2^0", "1/2^0", "3/2^2", "7/2^5", "13/2^6"]:
            assert str(dyadic_from_text(text)) == text

    def test_bare_integers_accepted(self):
        assert dyadic_from_text("3") == Dyadic(3)
        assert str(dyadic_from_text("3")) == "3/2^0"

    def test_non_canonical_input_canonicalized(self):
        assert str(dyadic_from_text("4/2^3")) == "1/2^1"

    @pytest.mark.parametrize("bad", ["1/3", "-1/2^1", "0.5", "1/2^-1", "", "2^3", "a/2^b"])
    def test_rejects_non_dyadic(self, bad):
        with pytest.raises(ParseError):
            dyadic_from_text(bad)

    @pytest.mark.parametrize("bad", ["\u0661/2^\u0662", "\uff13/2^1", "1/2^\u0662", "\u0661", "\u00b2", "1/2^\u00b9"])
    def test_rejects_non_ascii_digits(self, bad):
        with pytest.raises(ParseError, match="^not a dyadic literal"):
            parse_literal(bad)
        with pytest.raises(ParseError):
            dyadic_from_text(bad)


class TestArithmetic:
    def test_known_values(self):
        assert HALF + HALF == ONE
        assert Dyadic(3, 2) + Dyadic(1, 2) == ONE
        assert Dyadic(3, 2) - Dyadic(1, 2) == HALF
        assert Dyadic(3, 2) * Dyadic(1, 1) == Dyadic(3, 3)
        assert Dyadic(3, 2) ** 2 == Dyadic(9, 4)
        assert Dyadic.pow2(-3) == Dyadic(1, 3)
        assert Dyadic.pow2(3) == Dyadic(8)

    def test_subtraction_is_partial(self):
        """Dyadics are non-negative, so subtraction below zero is an error."""
        with pytest.raises(ValueError):
            ZERO - ONE

    def test_int_coercion_for_sum(self):
        assert sum([HALF, HALF, ONE]) == Dyadic(2)

    @pytest.mark.parametrize(
        "op, message",
        [
            (lambda a, b: a + b, "unsupported operand type(s) for +: 'Dyadic' and 'float'"),
            (lambda a, b: a - b, "unsupported operand type(s) for -: 'Dyadic' and 'float'"),
            (lambda a, b: a * b, "unsupported operand type(s) for *: 'Dyadic' and 'float'"),
            (lambda a, b: a < b, "'<' not supported between instances of 'Dyadic' and 'float'"),
        ],
    )
    def test_float_operands_are_type_errors(self, op, message):
        with pytest.raises(TypeError) as info:
            op(Dyadic(1), 0.5)
        assert str(info.value) == message

    def test_power_requires_non_negative_int(self):
        with pytest.raises(ValueError):
            ONE ** -1

    @given(dyadics(), dyadics())
    def test_addition_matches_fractions(self, a, b):
        """The Fraction oracle agrees with exact dyadic addition."""
        assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)

    @given(dyadics(), dyadics())
    def test_multiplication_matches_fractions(self, a, b):
        assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)

    @given(dyadics(), dyadics(), dyadics())
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(dyadics(), dyadics(), dyadics())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(dyadics(), dyadics())
    def test_ordering_matches_fractions(self, a, b):
        assert (a < b) == (as_fraction(a) < as_fraction(b))
        assert (a == b) == (as_fraction(a) == as_fraction(b))

    @given(dyadics(), dyadics())
    def test_subtraction_inverts_addition(self, a, b):
        assert (a + b) - b == a

    @given(dyadics())
    def test_canonical_equality_is_structural(self, a):
        """Equal values have identical numerator/exponent and equal hashes."""
        twin = Dyadic(a.numerator << 3, a.exponent + 3)
        assert twin == a
        assert (twin.numerator, twin.exponent) == (a.numerator, a.exponent)
        assert hash(twin) == hash(a)


class TestExpansionBits:
    def test_known_expansions(self):
        from semimeasures import expansion_bits

        assert expansion_bits(ZERO, 3) == "000"
        assert expansion_bits(Dyadic(1, 2), 2) == "01"
        assert expansion_bits(Dyadic(1, 2), 4) == "0100"
        assert expansion_bits(Dyadic(3, 2), 1) == "1"
        assert expansion_bits(Dyadic(5, 3), 3) == "101"
        assert expansion_bits(HALF, 0) == ""

    def test_rejects_one_or_more(self):
        from semimeasures import expansion_bits

        with pytest.raises(ValueError):
            expansion_bits(ONE, 2)

    def test_rejects_a_negative_digit_count(self):
        from semimeasures import expansion_bits

        with pytest.raises(ValueError, match="^digit count must be non-negative$"):
            expansion_bits(HALF, -1)


def test_expansion_bits_truncation_matches_fractions():
    """The first n digits encode floor(value * 2^n)."""
    from semimeasures import expansion_bits

    for num in range(0, 16):
        value = Dyadic(num, 4)
        for n in range(0, 7):
            bits = expansion_bits(value, n)
            encoded = int(bits, 2) if bits else 0
            assert encoded == (as_fraction(value) * 2**n).__floor__()


@given(unit_dyadics(max_exponent=12).filter(lambda v: v < ONE), st.integers(0, 16))
def test_expansion_bits_is_the_floor_in_n_digits(value, n):
    """expansion_bits(v, n) is floor(v * 2^n) written in exactly n binary digits."""
    from semimeasures import expansion_bits

    floor = (as_fraction(value) * 2**n).__floor__()
    assert expansion_bits(value, n) == (format(floor, f"0{n}b") if n else "")


class TestHashing:
    def test_integers_hash_like_their_dyadic(self):
        assert hash(Dyadic(1)) == hash(1)
        assert hash(ZERO) == hash(0)
        assert len({Dyadic(1), 1}) == 1
        assert {Dyadic(6): "six"}[6] == "six"

    def test_floats_are_declined_even_when_integral(self):
        """An integral Dyadic hashes like its int, and so like the float, yet no float equals it."""
        assert ONE != 1.0 and hash(ONE) == hash(1.0) and {ONE: 0}.get(1.0) is None
        with pytest.raises(TypeError):
            ONE < 1.0

    @given(dyadics())
    def test_equal_values_hash_equal(self, a):
        same = Dyadic(a.numerator << 3, a.exponent + 3)  # a non-canonical spelling
        assert a == same and hash(a) == hash(same)
        if a.exponent == 0:
            assert a == a.numerator and hash(a) == hash(a.numerator)

    @given(st.integers(0, 1 << 70))
    def test_integer_values(self, n):
        assert Dyadic(n) == n
        assert hash(Dyadic(n)) == hash(n)
