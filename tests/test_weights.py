"""Arithmetic of the signed infinities against finite weights, and the
exact integer scaling of rationals."""

from fractions import Fraction

import mpmath

from watl.weights import INF, NEG_INF, common_denominator, delay_ticks, scaled


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
