"""Weight algebras: frozen valuation oracles and the axiom harness."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import disc_quadrature
from watl.errors import DomainError
from watl.monoids import (
    WeightPairWord,
    check_axioms,
    monoid_from_id,
    register_monoid,
    sum_over,
    valuate,
)
from watl.weights import INF, NEG_INF, Infinity, is_finite

weights = st.fractions(min_value=-10, max_value=10, max_denominator=4)
delays = st.fractions(min_value=0, max_value=10, max_denominator=4)


def pairs(*entries):
    return WeightPairWord(tuple(
        ((Fraction(m), Fraction(mp)), Fraction(t)) for m, mp, t in entries))


# --- valuations against hand oracles --------------------------------------


def test_sum_valuation_is_rate_times_delay_plus_cost():
    # 2*(3/2) + 1 + 3*(1/2) + 0 = 11/2
    value = valuate(monoid_from_id("sum"), pairs((2, 1, "3/2"), (3, 0, "1/2")))
    assert value == Fraction(11, 2)


def test_avg_valuation_divides_by_duration():
    # (1*2 + 0 + 3*2 + 4) / 4 = 3
    assert valuate(monoid_from_id("avg"), pairs((1, 0, 2), (3, 4, 2))) == 3


def test_avg_zero_duration_with_cost_is_infinite():
    assert valuate(monoid_from_id("avg"), pairs((5, 1, 0))) is INF


def test_avg_zero_duration_with_equal_rates_keeps_the_rate():
    assert valuate(monoid_from_id("avg"), pairs((5, 0, 0))) == 5
    assert valuate(monoid_from_id("avg"), pairs((5, 0, 0), (5, 0, 0))) == 5
    assert valuate(monoid_from_id("avg"), pairs((5, 0, 0), (4, 0, 0))) is INF


def test_disc_half_matches_the_quadrature_oracle():
    disc = monoid_from_id("disc:1/2")
    value = valuate(disc, pairs((1, 0, 1)))
    # The integral of (1/2)^tau over [0,1] is 1/(2 ln 2).
    assert abs(value - 0.721347520444482) <= 1e-9
    oracle = disc_quadrature(pairs((1, 0, 1)).entries, Fraction(1, 2))
    assert abs(value - oracle) <= 1e-9


def test_disc_half_discounts_discrete_costs():
    value = valuate(monoid_from_id("disc:1/2"), pairs((0, 4, 1)))
    assert abs(value - 2) <= 1e-9


@pytest.mark.parametrize("identifier", ["disc:1/2", "disc0:3/4"])
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("component", [0, 1])
def test_an_infinite_component_discounts_to_inf(identifier, at, component):
    # The rate or the weight of the first, middle or last entry is inf;
    # every other entry waits 10^6 time units.
    entries = [((Fraction(1), Fraction(2)), Fraction(10 ** 6)) for _ in range(3)]
    charge = list(entries[at][0])
    charge[component] = INF
    entries[at] = (tuple(charge), Fraction(1))
    assert valuate(monoid_from_id(identifier), WeightPairWord(tuple(entries))) is INF


def test_disc_random_words_match_quadrature():
    rng = random.Random(17)
    disc = monoid_from_id("disc:1/2")
    for _ in range(40):
        entries = tuple(
            ((Fraction(rng.randrange(-10, 11)), Fraction(rng.randrange(-10, 11))),
             Fraction(rng.randrange(0, 21), 2))
            for _ in range(rng.randrange(1, 5)))
        word = WeightPairWord(entries)
        oracle = disc_quadrature(entries, Fraction(1, 2))
        assert abs(valuate(disc, word) - oracle) <= 1e-9


def test_prod_valuation_multiplies_costs_only():
    prod = monoid_from_id("prod")
    assert valuate(prod, pairs((9, 2, 1), (7, 3, 0))) == 6
    # first components and delays are ignored
    assert valuate(prod, pairs((1, 2, 4), (0, 3, 2))) == 6


def test_prod_rejects_values_outside_the_naturals():
    with pytest.raises(DomainError):
        valuate(monoid_from_id("prod"), pairs((0, "1/2", 1)))


@pytest.mark.parametrize("identifier", [
    "sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2",
])
def test_booleans_are_not_weights(identifier):
    # Python counts True and False as the ints 1 and 0.
    monoid = monoid_from_id(identifier)
    for flag in (True, False):
        assert not monoid.contains(flag)
        with pytest.raises(DomainError):
            monoid.require(flag)
    assert monoid.contains(1) and monoid.contains(Fraction(0))


@given(st.lists(st.tuples(weights, weights, delays), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_avg_equals_sum_divided_by_duration(triples):
    word = WeightPairWord(tuple(((m, mp), t) for m, mp, t in triples))
    duration = sum(t for _, _, t in triples)
    total = valuate(monoid_from_id("sum"), word)
    if duration > 0:
        assert valuate(monoid_from_id("avg"), word) == total / duration


# --- the monoid operation -------------------------------------------------


def test_sum_over_takes_the_minimum():
    assert sum_over(monoid_from_id("sum"), [Fraction(3), Fraction(5)]) == 3


def test_empty_sum_is_the_neutral_element():
    assert sum_over(monoid_from_id("sum"), []) is INF
    assert sum_over(monoid_from_id("avg"), []) is INF
    assert sum_over(monoid_from_id("prod"), []) == 0


def test_min_is_idempotent():
    assert sum_over(monoid_from_id("sum"), [Fraction(4), Fraction(4)]) == 4


@given(weights, weights, weights)
@settings(max_examples=100, deadline=None)
def test_plus_is_a_commutative_monoid_operation(x, y, z):
    monoid = monoid_from_id("sum")
    assert monoid.plus(x, y) == monoid.plus(y, x)
    assert monoid.plus(monoid.plus(x, y), z) == monoid.plus(x, monoid.plus(y, z))
    assert monoid.plus(x, monoid.zero) == x


# --- product valuation monoids --------------------------------------------


def test_diamond_is_addition_with_unit_zero():
    sum0 = monoid_from_id("sum0")
    assert sum0.diamond(Fraction(2), Fraction(3)) == 5
    assert sum0.diamond(Fraction(2), sum0.one) == 2
    assert sum0.diamond(sum0.one, Fraction(2)) == 2
    assert sum0.diamond(Fraction(2), INF) is INF


@pytest.mark.parametrize("identifier", ["sum0", "avg0", "disc0:1/2"])
def test_unit_weight_words_valuate_to_the_unit(identifier):
    monoid = monoid_from_id(identifier)
    word = WeightPairWord((((monoid.one, monoid.one), Fraction(3, 2)),
                           ((monoid.one, monoid.one), Fraction(2)),
                           ((monoid.one, monoid.one), Fraction(0))))
    assert monoid.eq(monoid.val(word), monoid.one)


@pytest.mark.parametrize("identifier", ["sum0", "avg0", "disc0:1/2"])
def test_a_zero_cost_component_forces_the_valuation_to_zero(identifier):
    monoid = monoid_from_id(identifier)
    word = WeightPairWord((((Fraction(1), Fraction(2)), Fraction(1)),
                           ((Fraction(3), monoid.zero), Fraction(2))))
    assert monoid.eq(monoid.val(word), monoid.zero)


# --- the axiom harness ----------------------------------------------------


@pytest.mark.parametrize("identifier", [
    "sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2",
])
def test_shipped_monoids_pass_their_axioms(identifier):
    report = check_axioms(monoid_from_id(identifier), samples=1000, seed=20260814)
    assert report.failures == []
    assert report.samples == 1000


def test_flagging_prod_idempotent_is_caught_with_a_witness():
    monoid = monoid_from_id("prod")
    monoid.idempotent = True
    report = check_axioms(monoid, samples=200, seed=1)
    laws = {law for law, _ in report.failures}
    assert laws == {"plus-idempotent"}
    # natural addition doubles every non-zero witness
    law, witness = report.failures[0]
    assert witness


def test_flagging_sum_location_independent_is_caught():
    monoid = monoid_from_id("sum")
    monoid.location_independent = True
    report = check_axioms(monoid, samples=200, seed=1)
    assert {law for law, _ in report.failures} == {"location-independent"}


def test_monoid_ids_round_trip_and_validate():
    assert monoid_from_id("sum").id == "sum"
    assert monoid_from_id("disc:1/2").id == "disc:1/2"
    with pytest.raises(DomainError):
        monoid_from_id("disc:2")
    with pytest.raises(DomainError):
        monoid_from_id("disc")
    with pytest.raises(DomainError):
        monoid_from_id("nosuch")


def test_registered_monoids_are_retrievable():
    register_monoid("sum-alias", lambda arg=None: monoid_from_id("sum"))
    alias = monoid_from_id("sum-alias")
    assert alias.plus(Fraction(3), Fraction(5)) == 3


def test_min_plus_compares_mpf_and_fractions_exactly():
    disc0 = monoid_from_id("disc0:1/2")
    third = mpmath.mpf(1) / 3  # just below 1/3 in binary
    assert disc0.plus(Fraction(1, 3), third) is third
    assert disc0.plus(third, Fraction(1, 3)) is third
    low = Fraction(-3)
    assert disc0.plus(low, mpmath.mpf(-2)) is low
    assert disc0.plus(mpmath.mpf(-2), low) is low
    assert disc0.plus(INF, third) is third


def old_min_plus(x, y):
    """The single min-plus of every min monoid before sum and avg got their
    own: INF is neutral, and an mpf meets a Fraction by exact value."""
    if isinstance(x, Infinity) and x.sign > 0:
        return y
    if isinstance(y, Infinity) and y.sign > 0:
        return x
    if isinstance(x, mpmath.mpf) != isinstance(y, mpmath.mpf):
        exact = [Fraction(*mpmath.libmp.to_rational(v._mpf_))
                 if isinstance(v, mpmath.mpf) else v for v in (x, y)]
        return x if exact[0] <= exact[1] else y
    return x if x <= y else y


def random_operand(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return INF
    if kind == 1:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-20, 20), rng.randint(1, 6))


@pytest.mark.parametrize("monoid_id", ["sum", "avg", "sum0", "avg0"])
def test_sum_and_avg_plus_match_the_old_min_plus(monoid_id):
    plus = monoid_from_id(monoid_id).plus
    rng = random.Random(41)
    for _ in range(2000):
        x, y = random_operand(rng), random_operand(rng)
        got, want = plus(x, y), old_min_plus(x, y)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("monoid_id", ["disc:1/2", "disc0:1/3"])
def test_discount_plus_returns_the_exactly_smaller_operand(monoid_id):
    plus = monoid_from_id(monoid_id).plus
    rng = random.Random(43)
    for _ in range(2000):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        # the nearest mpf to x, or one just above or below it
        y = mpmath.mpf(x.numerator) / x.denominator
        y += rng.choice((-2, 0, 2)) * mpmath.eps * max(1, abs(y))
        exact_y = Fraction(*mpmath.libmp.to_rational(y._mpf_))
        for left, right in ((x, y), (y, x)):
            got = plus(left, right)
            assert got is old_min_plus(left, right)
            assert got is x and x <= exact_y or got is y and exact_y <= x
        assert plus(x, INF) is x and plus(INF, y) is y
        assert plus(y, NEG_INF) is NEG_INF and plus(NEG_INF, y) is NEG_INF


def test_infinities_order_against_mpf_both_ways():
    for value in (mpmath.mpf(0), mpmath.mpf("-1e30"), mpmath.mpf(1) / 3):
        assert NEG_INF < value < INF and INF > value > NEG_INF
        assert not (INF < value or value > INF or NEG_INF > value or value < NEG_INF)
        assert NEG_INF <= value <= INF and INF >= value >= NEG_INF
