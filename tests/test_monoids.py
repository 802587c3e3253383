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
from watl.weights import INF, is_finite

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
