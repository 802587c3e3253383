"""Arithmetic of the signed infinities against finite weights."""

from fractions import Fraction

import mpmath

from watl.weights import INF, NEG_INF


def test_finite_minus_an_infinity_is_the_opposite_infinity():
    for x in (Fraction(3, 2), Fraction(0), -7, mpmath.mpf("2.5")):
        assert x - INF == NEG_INF
        assert x - NEG_INF == INF
