"""Arithmetic of the signed infinities against finite weights, the
exact integer scaling of rationals, and weights as text."""

import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from watl.errors import ParseError
from watl.weights import (INF, NEG_INF, common_denominator, delay_ticks, format_weight,
                          parse_weight, scaled)

LIMIT = sys.get_int_max_str_digits()


def test_finite_minus_an_infinity_is_the_opposite_infinity():
    for x in (Fraction(3, 2), Fraction(0), -7, mpmath.mpf("2.5")):
        assert x - INF == NEG_INF
        assert x - NEG_INF == INF


def test_rationals_scale_to_ints_over_their_common_denominator():
    values = (Fraction(3, 4), Fraction(-5, 6), 2, Fraction(0))
    scale = common_denominator(values)
    assert scale == 12 and common_denominator(values, 5) == 60
    assert [scaled(v, scale) for v in values] == [9, -10, 24, 0]
    assert [scaled(v, 60) for v in values] == [45, -50, 120, 0]
    assert common_denominator(()) == 1
    assert delay_ticks((Fraction(1, 2), Fraction(0), Fraction(2, 3))) == (6, (3, 0, 4))


def test_weights_print_and_parse_back():
    assert parse_weight(" -inf ") is NEG_INF and parse_weight("inf") is INF
    assert parse_weight("-3/6") == Fraction(-1, 2)
    assert format_weight(3) == "3" and format_weight(-7) == "-7"
    assert [format_weight(w) for w in (Fraction(4, 2), Fraction(-1, 3), NEG_INF)] == \
        ["2", "-1/3", "-inf"]


@pytest.mark.parametrize("text", ["1e10000000", "1e100000000", f"1e{LIMIT}", f"1e-{LIMIT}",
                                  "1." + "9" * LIMIT])
def test_weights_of_more_digits_than_str_converts_are_refused(text):
    # 10 ** 10000000 alone took seconds: the exponent is refused first
    with pytest.raises(ParseError) as info:
        parse_weight(text)
    assert str(info.value) == f"rational {text!r} needs more than {LIMIT} digits"


def test_weights_up_to_the_digit_limit_are_read():
    assert parse_weight(f"1e{LIMIT - 1}") == 10 ** (LIMIT - 1)
    assert parse_weight(f"-1e-{LIMIT - 1}") == Fraction(-1, 10 ** (LIMIT - 1))
    assert parse_weight("-1.5e2") == -150 and parse_weight("0.25") == Fraction(1, 4)


def test_values_past_the_digit_limit_print_exactly():
    big = 3 ** 10000
    numerator, denominator = format_weight(Fraction(-big, 7)).split("/")
    assert Decimal(numerator) == -big and len(numerator) == 4773 and denominator == "7"
    assert Decimal(format_weight(big)) == big and format_weight(Fraction(big)).isdigit()
