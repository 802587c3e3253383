"""The configuration folds behind behavior and nivat_eval, checked
against the brute-force run and preimage oracles on seeded random inputs."""

import random
from fractions import Fraction

import pytest

from conftest import brute_behavior, brute_nivat_eval, wd
from watl import fixtures, sampling, transform, wta
from watl.core import ClockConstraint, Edge, TimedAutomaton, TimedWord, enumerate_runs
from watl.errors import DomainError
from watl.monoids import TimedValuationMonoid, monoid_from_id, register_monoid
from watl.transform import NivatTriple, nivat_decompose, nivat_eval
from watl.weights import INF, is_finite
from watl.wta import WeightedTimedAutomaton, behavior

MONOIDS = ("sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2")


def agree(monoid, value, expected):
    """Exact equality; discounted values within the monoid's tolerance."""
    if monoid.tolerance is None:
        return value == expected
    return monoid.eq(value, expected)


def weight_pool(monoid):
    # Few distinct values, mostly 0, so that runs tie, rates repeat and
    # zero-weight runs are common; inf only where the domain has it.
    if monoid.id == "prod":
        return (Fraction(0), Fraction(1), Fraction(2))
    return (Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2), INF)


def random_instance(rng, monoid, base=None):
    base = base or sampling.random_automaton(rng)
    pool = weight_pool(monoid)
    return WeightedTimedAutomaton(base, monoid,
                                  {loc: rng.choice(pool) for loc in base.locations},
                                  {e.id: rng.choice(pool) for e in base.edges})


def random_word(rng, alphabet):
    """A word of at most 3 letters; about a third have zero duration and
    a third some zero delays."""
    word = sampling.random_word(rng, alphabet, max_len=3)
    roll = rng.random()
    if roll < 0.35:
        return TimedWord(tuple((a, 0) for a, _ in word))
    if roll < 0.7:
        return TimedWord(tuple((a, t if rng.random() < 0.5 else 0) for a, t in word))
    return word


@pytest.mark.parametrize("monoid_id", MONOIDS)
def test_behavior_fold_matches_the_run_oracle(monoid_id):
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(f"behavior/{monoid_id}")
    ambiguous = finite_at_zero_duration = 0
    for _ in range(200):
        automaton = random_instance(rng, monoid)
        word = random_word(rng, automaton.base.alphabet)
        expected = brute_behavior(automaton, word)
        assert agree(monoid, behavior(automaton, word), expected), (automaton, word)
        ambiguous += len(enumerate_runs(automaton.base, word)) > 1
        finite_at_zero_duration += word.duration == 0 and is_finite(expected)
    assert ambiguous >= 25
    assert finite_at_zero_duration >= 10


def test_average_at_zero_duration_keeps_every_uniform_rate():
    # Runs charging rates 1 and 2 meet in one configuration before a step
    # charging 2: only the rate-2 run stays uniform, so the value is 2.
    edges = (("s1", "p", "m"), ("s2", "q", "m"), ("go", "m", "f"))
    base = TimedAutomaton(("a",), ("p", "q", "m", "f"), (), ("p", "q"), ("f",),
                          tuple(Edge(eid, src, "a", ClockConstraint.true(), (), dst)
                                for eid, src, dst in edges))
    automaton = WeightedTimedAutomaton(
        base, monoid_from_id("avg"),
        {"p": Fraction(1), "q": Fraction(2), "m": Fraction(2), "f": Fraction(0)},
        {eid: Fraction(0) for eid, _, _ in edges})
    word = wd(("a", 0), ("a", 0))
    assert behavior(automaton, word) == brute_behavior(automaton, word) == 2


def test_prod_fold_refuses_weights_outside_the_domain():
    # The fold refuses a weight outside the naturals as soon as a run
    # prefix takes its edge, so it refuses whenever the oracle does.
    prod = monoid_from_id("prod")
    rng = random.Random(404)
    pool = (Fraction(1), Fraction(2), Fraction(1, 2))
    refused = 0
    for _ in range(120):
        base = sampling.random_automaton(rng)
        automaton = WeightedTimedAutomaton(
            base, prod, {loc: Fraction(0) for loc in base.locations},
            {e.id: rng.choice(pool) for e in base.edges})
        word = random_word(rng, base.alphabet)
        try:
            expected = brute_behavior(automaton, word)
        except DomainError:
            refused += 1
            with pytest.raises(DomainError):
                behavior(automaton, word)
            continue
        try:
            assert behavior(automaton, word) == expected
        except DomainError:
            pass
    assert refused >= 5


@pytest.mark.parametrize("monoid_id", MONOIDS)
def test_nivat_fold_matches_preimage_enumeration(monoid_id):
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(f"nivat/{monoid_id}")
    for _ in range(40):
        automaton = random_instance(rng, monoid)
        triple = nivat_decompose(automaton)
        word = random_word(rng, automaton.base.alphabet)
        assert agree(monoid, nivat_eval(triple, word, monoid),
                     brute_nivat_eval(triple, word, monoid))
        # Relabeling through a random h keeps the sequential language but
        # gives each letter several preimages.
        relabeled = NivatTriple(triple.gamma, {c: rng.choice("ab") for c in triple.gamma},
                                triple.g, triple.language, triple.language_class)
        word = random_word(rng, ("a", "b"))
        assert agree(monoid, nivat_eval(relabeled, word, monoid),
                     brute_nivat_eval(relabeled, word, monoid))


@pytest.mark.parametrize("monoid_id", MONOIDS)
def test_nivat_eval_on_ambiguous_languages_matches_preimage_enumeration(monoid_id):
    # Recognizable languages fold only over idempotent monoids; prod
    # enumerates preimages and tests each by configuration reachability.
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(f"ambiguous/{monoid_id}")
    gamma = ("c0", "c1", "c2")
    pool = weight_pool(monoid)
    for _ in range(40):
        language = sampling.random_automaton(rng, alphabet=gamma)
        triple = NivatTriple(gamma, {c: rng.choice("ab") for c in gamma},
                             {c: (rng.choice(pool), rng.choice(pool)) for c in gamma},
                             language, "recognizable")
        word = random_word(rng, ("a", "b"))
        assert agree(monoid, nivat_eval(triple, word, monoid),
                     brute_nivat_eval(triple, word, monoid))


def test_the_nivat_fold_tests_no_preimage(monkeypatch):
    def refuse(triple, word):
        raise AssertionError("a preimage was enumerated")

    monkeypatch.setattr(transform, "_accepts", refuse)
    triple = nivat_decompose(fixtures.first_letter_rates())
    assert nivat_eval(triple, wd(("b", 3), ("a", 1)), monoid_from_id("sum")) == 6
    language = fixtures.all_words_ambiguous(("a",))
    ambiguous = NivatTriple(("a",), {"a": "a"}, {"a": (Fraction(1), Fraction(0))},
                            language, "recognizable")
    assert nivat_eval(ambiguous, wd(("a", 2)), monoid_from_id("avg")) == 1


class PlainSum(TimedValuationMonoid):
    """The min-plus sum written out per run, with no step-wise valuation."""

    id = "plain-sum"
    idempotent = True
    zero = INF

    def plus(self, x, y):
        if x is INF:
            return y
        if y is INF:
            return x
        return min(x, y)

    def contains(self, x):
        return x is INF or isinstance(x, Fraction)

    def val(self, word):
        total = Fraction(0)
        for (m, mp), t in word:
            total = total + m * t + mp
        return total


def test_monoids_without_a_fold_are_enumerated(monkeypatch):
    try:
        register_monoid("plain-sum", lambda arg=None: PlainSum())
    except ValueError:
        pass
    plain = monoid_from_id("plain-sum")
    assert plain.step_fold((Fraction(1),)) is None
    calls = []

    def counted(automaton, word):
        calls.append(word)
        return enumerate_runs(automaton, word)

    monkeypatch.setattr(wta, "enumerate_runs", counted)
    rng = random.Random(77)
    sum_monoid = monoid_from_id("sum")
    for _ in range(40):
        automaton = random_instance(rng, plain)
        word = random_word(rng, automaton.base.alphabet)
        expected = brute_behavior(automaton, word)
        assert behavior(automaton, word) == expected
        folded = WeightedTimedAutomaton(automaton.base, sum_monoid,
                                        automaton.location_weights, automaton.edge_weights)
        assert behavior(folded, word) == expected
        triple = nivat_decompose(automaton)
        assert nivat_eval(triple, word, plain) == brute_nivat_eval(triple, word, plain)
    assert len(calls) == 40
