"""Weight values: exact rationals extended with infinities.

Weights on automata and in formulas are exact ``fractions.Fraction``
values.  Valuation results may additionally be ``INF`` (the absorbing
zero of the min-plus style monoids), ``NEG_INF`` (only produced by
optimal-cost computations), or an ``mpmath.mpf`` high-precision float
(only produced by the discounting valuation).  mpmath is imported by the
first conversion to mpf, so only discounting loads it.

Arithmetic follows the absorption convention of the ambient monoids:
``x + INF = INF`` and ``x * INF = INF`` for every ``x``, including 0.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

from .errors import ParseError

_REAL_TYPES = (int, float, Fraction)


def _is_mpf(x) -> bool:
    """Whether x is an mpmath float; none exists before mpmath is loaded."""
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and isinstance(x, mpmath.mpf)


class Infinity:
    """Signed infinity with total-order comparisons against reals."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"

    def __hash__(self):
        return hash(("watl.Infinity", self.sign))

    def __eq__(self, other):
        return isinstance(other, Infinity) and other.sign == self.sign

    def __lt__(self, other):
        if isinstance(other, Infinity):
            return self.sign < other.sign
        if isinstance(other, _REAL_TYPES) or _is_mpf(other):
            return self.sign < 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Infinity):
            return self.sign > other.sign
        if isinstance(other, _REAL_TYPES) or _is_mpf(other):
            return self.sign > 0
        return NotImplemented

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __neg__(self):
        return NEG_INF if self.sign > 0 else INF

    # Addition absorbs reals; INF + NEG_INF is undefined and must never
    # arise in a valid valuation, so it fails loudly.
    def __add__(self, other):
        if isinstance(other, Infinity) and other.sign != self.sign:
            raise ArithmeticError("inf + -inf is undefined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Infinity) and other.sign == self.sign:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __rsub__(self, other):
        return (-self).__add__(other)

    # The monoid convention makes positive infinity absorbing for
    # multiplication regardless of the other factor's sign or zeroness.
    def __mul__(self, other):
        if self.sign < 0:
            raise ArithmeticError("multiplication with -inf is undefined")
        return INF

    __rmul__ = __mul__


INF = Infinity(1)
NEG_INF = Infinity(-1)

Weight = Union[Fraction, Infinity]


def is_finite(x) -> bool:
    return not isinstance(x, Infinity)


def common_denominator(values, scale: int = 1) -> int:
    """The least common multiple of ``scale`` and the denominators of the
    given rationals (ints or Fractions)."""
    return math.lcm(scale, *{value.denominator for value in values})


def scaled(value, scale: int) -> int:
    """A rational times a multiple of its denominator, as an int.

    Rationals scaled by one common denominator add, multiply and compare
    exactly as ints, which is much faster than Fraction arithmetic."""
    return value.numerator * (scale // value.denominator)


def delay_ticks(delays) -> tuple:
    """(unit, steps): the common denominator of the delays and each delay
    as an int number of 1/unit time units."""
    unit = common_denominator(delays)
    return unit, tuple(scaled(delay, unit) for delay in delays)


def to_mpf(x):
    """Convert a finite rational (or mpf) to an mpmath float."""
    import mpmath
    if isinstance(x, mpmath.mpf):
        return x
    if isinstance(x, int):
        return mpmath.mpf(x)
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    raise TypeError(f"cannot convert {x!r} to mpf")


def parse_weight(text: str) -> Weight:
    """Parse 'p/q', integer, or 'inf'/'-inf' notation.

    Raises ParseError on anything else, including a zero denominator.
    """
    text = text.strip()
    if text == "inf":
        return INF
    if text == "-inf":
        return NEG_INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational {text!r}") from None


def format_weight(x, significant: int = 12) -> str:
    """Render a weight for serialization.

    Rationals print as 'p/q' (or a bare integer), infinities as
    'inf'/'-inf', and high-precision floats with the given number of
    significant digits.
    """
    if isinstance(x, Infinity):
        return repr(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if _is_mpf(x):
        return sys.modules["mpmath"].nstr(x, significant, strip_zeros=False)
    raise TypeError(f"not a weight: {x!r}")
