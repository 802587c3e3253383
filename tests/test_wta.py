"""Weighted automata: run weighing and exact behavior values."""

import random
from fractions import Fraction

from conftest import disc_quadrature, wd
from watl import fixtures, sampling
from watl.core import ClockConstraint, Edge, TimedAutomaton, TimedWord, enumerate_runs
from watl.monoids import monoid_from_id
from watl.weights import INF, is_finite
from watl.wta import WeightedTimedAutomaton, behavior, run_weight, wt_sharp


def single_loop(rate, cost, monoid_id="sum"):
    edge = Edge("loop", "hub", "a", ClockConstraint.true(), frozenset(), "hub")
    base = TimedAutomaton(("a",), ("hub",), (), ("hub",), ("hub",), (edge,))
    return WeightedTimedAutomaton(base, monoid_from_id(monoid_id),
                                  {"hub": Fraction(rate)}, {"loop": Fraction(cost)})


# --- weight words ----------------------------------------------------------


def test_wt_sharp_pairs_location_and_edge_weights():
    automaton = single_loop(2, 1)
    run = enumerate_runs(automaton.base, wd(("a", 3)))[0]
    assert wt_sharp(automaton, run).entries == (((Fraction(2), Fraction(1)), Fraction(3)),)


def test_wt_sharp_tracks_the_location_sequence():
    chain = fixtures.two_step_chain()
    run = enumerate_runs(chain.base, wd(("a", 1), ("a", 2)))[0]
    assert wt_sharp(chain, run).entries == (
        ((Fraction(1), Fraction(0)), Fraction(1)),
        ((Fraction(5), Fraction(7)), Fraction(2)),
    )


def test_run_weight_folds_the_valuation():
    chain = fixtures.two_step_chain()
    run = enumerate_runs(chain.base, wd(("a", 1), ("a", 2)))[0]
    # 1*1 + 0 + 5*2 + 7 = 18
    assert run_weight(chain, run) == 18


# --- behavior --------------------------------------------------------------


def test_first_letter_selects_the_rate():
    automaton = fixtures.first_letter_rates()
    assert behavior(automaton, wd(("b", 3), ("a", 1))) == 6
    assert behavior(automaton, wd(("b", "11/4"))) == Fraction(11, 2)


def test_first_letter_rates_realize_the_closed_form():
    automaton = fixtures.first_letter_rates()
    rng = random.Random(5)
    for _ in range(50):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        first_letter, first_delay = word.entries[0]
        expected = first_delay if first_letter == "a" else 2 * first_delay
        assert behavior(automaton, word) == expected


def test_words_without_runs_cost_the_monoid_zero():
    edge = Edge("only_a", "hub", "a", ClockConstraint.true(), frozenset(), "hub")
    base = TimedAutomaton(("a", "b"), ("hub",), (), ("hub",), ("hub",), (edge,))
    automaton = WeightedTimedAutomaton(base, monoid_from_id("sum"),
                                       {"hub": Fraction(0)}, {"only_a": Fraction(0)})
    assert behavior(automaton, wd(("b", 1))) is INF


def test_parallel_edges_fold_with_min():
    assert behavior(fixtures.parallel_edge_weights(), wd(("a", 1))) == 1


def test_behavior_matches_an_independent_fold():
    rng = random.Random(23)
    monoid = monoid_from_id("sum")
    for _ in range(40):
        automaton = sampling.random_wta(rng, monoid)
        word = sampling.random_word(rng, automaton.base.alphabet, max_len=4)
        runs = enumerate_runs(automaton.base, word)
        costs = []
        for run in runs:
            total = Fraction(0)
            for location, edge, (_, delay) in zip(run.locations, run.edges, word.entries):
                total += automaton.location_weights[location] * delay
                total += automaton.edge_weights[edge.id]
            costs.append(total)
        expected = min(costs) if costs else INF
        assert behavior(automaton, word) == expected


def test_duplicated_edges_do_not_change_idempotent_behavior():
    original = fixtures.first_letter_rates()
    copied = next(e for e in original.base.edges if e.id == "first_b")
    clone = Edge("first_b_copy", copied.source, copied.label, copied.guard,
                 copied.resets, copied.target)
    base = TimedAutomaton(original.base.alphabet, original.base.locations,
                          original.base.clocks, original.base.initial,
                          original.base.final, original.base.edges + (clone,))
    weights = dict(original.edge_weights)
    weights["first_b_copy"] = weights["first_b"]
    doubled = WeightedTimedAutomaton(base, original.monoid,
                                     dict(original.location_weights), weights)
    rng = random.Random(31)
    for _ in range(30):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        assert behavior(doubled, word) == behavior(original, word)


def test_disc_behavior_matches_quadrature():
    rng = random.Random(12)
    disc = monoid_from_id("disc:1/2")
    lam = Fraction(1, 2)
    checked = 0
    for _ in range(60):
        automaton = sampling.random_wta(rng, disc)
        word = sampling.random_word(rng, automaton.base.alphabet, max_len=3)
        value = behavior(automaton, word)
        runs = enumerate_runs(automaton.base, word)
        if not runs:
            assert value is INF
            continue
        oracle = min(disc_quadrature(wt_sharp(automaton, run).entries, lam) for run in runs)
        assert abs(value - oracle) <= 1e-9
        checked += 1
    assert checked >= 10


def test_prod_behavior_counts_multiplicatively():
    automaton = fixtures.constant_one_product()
    assert behavior(automaton, wd(("a", 1), ("a", 0), ("a", 2))) == 1
    rng = random.Random(2)
    # duplicating the loop doubles the run count, and prod sees it
    base = automaton.base
    clone = Edge("loop_a_copy", "hub", "a", ClockConstraint.true(), frozenset(), "hub")
    doubled_base = TimedAutomaton(base.alphabet, base.locations, base.clocks,
                                  base.initial, base.final, base.edges + (clone,))
    weights = dict(automaton.edge_weights)
    weights["loop_a_copy"] = Fraction(1)
    doubled = WeightedTimedAutomaton(doubled_base, automaton.monoid,
                                     dict(automaton.location_weights), weights)
    word = sampling.random_word(rng, ("a",), max_len=3)
    assert behavior(doubled, word) == 2 ** len(word.entries)


def test_long_words_fold_without_recursion():
    word = TimedWord(tuple(("a", Fraction(1, 2)) for _ in range(1500)))
    assert behavior(fixtures.duration_meter(), word) == 750
