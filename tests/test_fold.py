"""The configuration folds behind behavior and nivat_eval, checked
against the brute-force run and preimage oracles on seeded random inputs."""

import random
from fractions import Fraction

import mpmath
import pytest

from conftest import brute_behavior, brute_nivat_eval, wd
from watl import fixtures, sampling, transform, wta
from watl.core import (ClockConstraint, Edge, TimedAutomaton, TimedWord, accepts,
                       enumerate_runs)
from watl.errors import DomainError
from watl.monoids import StepFold, TimedValuationMonoid, monoid_from_id, register_monoid
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


# The sum, avg and prod folds run on ints over one common denominator per
# call.  These tests check them, and ``val`` on the same kernel, against
# the runs' values computed from the definitions in plain Fraction
# arithmetic.

def fraction_value(monoid_id, pairs):
    """The value of one run's weight-pair word ((m, m'), t), straight from
    the definitions in Fraction arithmetic."""
    if monoid_id == "prod":
        value = Fraction(1)
        for (_, mp), _ in pairs:
            value *= mp
        return value
    if any(not is_finite(x) for pair, _ in pairs for x in pair):
        return INF
    total = sum((m * t + mp for (m, mp), t in pairs), Fraction(0))
    if monoid_id == "sum":
        return total
    duration = sum((t for _, t in pairs), Fraction(0))
    if duration > 0:
        return total / duration
    first = pairs[0][0][0]
    uniform = all(m == first and mp == 0 for (m, mp), _ in pairs)
    return first if uniform else INF


def fraction_behavior(automaton, word):
    """min (sum, avg) or + (prod) of the runs' Fraction values."""
    values = [fraction_value(automaton.monoid.id, wta.wt_sharp(automaton, run).entries)
              for run in enumerate_runs(automaton.base, word)]
    if automaton.monoid.id == "prod":
        return sum(values, Fraction(0))
    return min(values, default=INF)


def exact_weight(rng, monoid_id):
    """Denominators 1 to 6 and some INF; naturals for prod."""
    if monoid_id == "prod":
        return Fraction(rng.randrange(0, 4))
    if rng.random() < 0.1:
        return INF
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def mixed_word(rng, alphabet, zero_duration=False):
    """Up to 5 letters; delays of denominators 1 to 7, some of them 0."""
    n = rng.randint(1, 5)
    delays = [Fraction(0) if zero_duration or rng.random() < 0.25
              else Fraction(rng.randint(0, 14), rng.randint(1, 7)) for _ in range(n)]
    return TimedWord(tuple((rng.choice(alphabet), t) for t in delays))


def assert_exact(value, expected):
    assert value == expected
    if is_finite(expected):
        assert type(value) is Fraction


@pytest.mark.parametrize("monoid_id,zero_duration",
                         [("sum", False), ("avg", False), ("avg", True), ("prod", False)])
def test_int_kernel_matches_fraction_arithmetic(monoid_id, zero_duration):
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(f"int-kernel/{monoid_id}/{zero_duration}")
    finite = infinite = ambiguous = 0
    for _ in range(150):
        drawn = sampling.random_wta(rng, monoid)
        if zero_duration:
            # Finite only where a run's rates agree and its discrete weights are 0.
            rates = {loc: rng.choice((Fraction(1, 6), Fraction(-5, 4), INF))
                     for loc in drawn.base.locations}
            weights = {e.id: rng.choice((Fraction(0),) * 3 + (Fraction(1, 5),))
                       for e in drawn.base.edges}
        else:
            rates = {loc: exact_weight(rng, monoid_id) for loc in drawn.base.locations}
            weights = {e.id: exact_weight(rng, monoid_id) for e in drawn.base.edges}
        automaton = WeightedTimedAutomaton(drawn.base, monoid, rates, weights)
        word = mixed_word(rng, drawn.base.alphabet, zero_duration)
        if not zero_duration and word.duration == 0:
            continue
        expected = fraction_behavior(automaton, word)
        assert_exact(behavior(automaton, word), expected)
        assert_exact(nivat_eval(nivat_decompose(automaton), word, monoid), expected)
        runs = enumerate_runs(automaton.base, word)
        for run in runs:
            pairs = wta.wt_sharp(automaton, run)
            assert_exact(monoid.val(pairs), fraction_value(monoid_id, pairs.entries))
        finite += is_finite(expected) and bool(runs)
        infinite += not is_finite(expected) and bool(runs)
        ambiguous += len(runs) > 1
    assert finite >= 15 and ambiguous >= 10
    assert monoid_id == "prod" or infinite >= 5


@pytest.mark.parametrize("rel,accepted", [("<", False), ("<=", True), ("=", True),
                                          (">=", True), (">", False)])
def test_guards_compare_exactly_at_a_scaled_tick(rel, accepted):
    # The delays 1/2, 1/3 and 1/6 are 3, 2 and 1 ticks of 1/6; the last
    # event falls at 6 ticks, exactly on the bound 1 scaled by 6.
    base = TimedAutomaton(
        ("a", "b"), ("p", "q"), ("x",), ("p",), ("q",),
        (Edge("wait", "p", "a", ClockConstraint.true(), (), "p"),
         Edge("go", "p", "b", ClockConstraint.parse(f"x{rel}1"), (), "q")))
    word = wd(("a", Fraction(1, 2)), ("a", Fraction(1, 3)), ("b", Fraction(1, 6)))
    assert word.ticks() == (6, (3, 2, 1))
    for monoid_id in ("sum", "avg", "prod"):
        automaton = WeightedTimedAutomaton(
            base, monoid_from_id(monoid_id), {"p": Fraction(5, 4), "q": Fraction(0)},
            {"wait": Fraction(1), "go": Fraction(2)})
        expected = fraction_behavior(automaton, word)
        assert_exact(behavior(automaton, word), expected)
        assert (expected != automaton.monoid.zero) == accepted
    assert accepts(base, word) == accepted


def test_a_long_single_run_matches_its_closed_form():
    rng = random.Random(1000)
    delays = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(1500)]
    word = TimedWord(tuple(("a", t) for t in delays))
    base = TimedAutomaton(("a",), ("hub",), (), ("hub",), ("hub",),
                          (Edge("tick", "hub", "a", ClockConstraint.true(), (), "hub"),))
    rate, weight = Fraction(5, 6), Fraction(-1, 4)
    duration = sum(delays, Fraction(0))
    total = rate * duration + len(delays) * weight
    for monoid_id, expected in (("sum", total), ("avg", total / duration)):
        automaton = WeightedTimedAutomaton(base, monoid_from_id(monoid_id),
                                           {"hub": rate}, {"tick": weight})
        assert_exact(behavior(automaton, word), expected)
    automaton = WeightedTimedAutomaton(base, monoid_from_id("prod"),
                                       {"hub": Fraction(0)}, {"tick": Fraction(3)})
    assert_exact(behavior(automaton, word), Fraction(3) ** len(delays))


class _IdentityCheckedSum(StepFold):
    """The Fraction min-plus sum as a custom fold that keeps the default
    hook, and checks that each step is charged the very weights given."""

    start = Fraction(0)
    pool = (Fraction(0), Fraction(1), Fraction(-1, 2), INF)

    def step(self, partial, i, charge):
        assert all(any(x is w for w in self.pool) for x in charge)
        m, mp = charge
        return partial + m * self.delays[i] + mp

    def plus(self, x, y):
        return y if x is INF else x if y is INF else min(x, y)


class CustomFoldSum(PlainSum):
    id = "custom-fold-sum"

    def step_fold(self, delays):
        return _IdentityCheckedSum(delays)


def test_the_discounting_and_custom_folds_keep_their_own_values():
    try:
        register_monoid("custom-fold-sum", lambda arg=None: CustomFoldSum())
    except ValueError:
        pass
    custom, disc = monoid_from_id("custom-fold-sum"), monoid_from_id("disc:2/3")
    pool = _IdentityCheckedSum.pool
    rng = random.Random(55)
    finite = 0
    for _ in range(60):
        base = sampling.random_wta(rng, custom).base
        word = mixed_word(rng, base.alphabet)
        rates = {loc: rng.choice(pool) for loc in base.locations}
        weights = {e.id: rng.choice(pool) for e in base.edges}
        automaton = WeightedTimedAutomaton(base, custom, rates, weights)
        expected = brute_behavior(automaton, word)
        assert behavior(automaton, word) == expected
        assert expected == fraction_behavior(
            WeightedTimedAutomaton(base, monoid_from_id("sum"), rates, weights), word)
        # The discounting fold steps on mpf, as val does run by run.
        discounted = WeightedTimedAutomaton(base, disc, rates, weights)
        value = behavior(discounted, word)
        assert value == brute_behavior(discounted, word)
        assert not is_finite(value) or isinstance(value, mpmath.mpf)
        finite += is_finite(value)
    assert finite >= 10


def test_words_cache_their_letters_delays_and_ticks():
    word = wd(("a", Fraction(3, 4)), ("b", 0), ("a", Fraction(5, 6)))
    assert word.letters is word.letters == ("a", "b", "a")
    assert word.delays is word.delays == (Fraction(3, 4), 0, Fraction(5, 6))
    assert word.ticks() is word.ticks() == (12, (9, 0, 10))


def test_no_event_time_is_computed_without_a_guarded_clock(monkeypatch):
    def refuse(word):
        raise AssertionError("event times were computed")

    def loop(guard):
        edge = Edge("e", "p", "a", ClockConstraint.parse(guard), ("x",), "p")
        return TimedAutomaton(("a",), ("p",), ("x",), ("p",), ("p",), (edge,))

    word = wd(("a", Fraction(1, 3)), ("a", 2))
    monkeypatch.setattr(TimedWord, "ticks", refuse)
    assert accepts(loop("true"), word)
    with pytest.raises(AssertionError, match="event times"):
        accepts(loop("x<3"), word)
