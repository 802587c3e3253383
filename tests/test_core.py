"""Clock constraints, valuations, run enumeration, and classification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import wd
from watl import sampling
from watl.core import (
    ClockAtom,
    ClockConstraint,
    Edge,
    TimedAutomaton,
    TimedWord,
    ambiguity_probe,
    classify_automaton,
    clock_step,
    constraint_satisfiable,
    enumerate_runs,
    feasible_valuation,
)
from watl.errors import ModelValidationError, ParseError

delays = st.fractions(min_value=0, max_value=4, max_denominator=8)


def loop_automaton(alphabet=("a",), guard="true", unambiguous=False):
    edges = tuple(
        Edge(f"loop_{letter}", "hub", letter, ClockConstraint.parse(guard), frozenset(), "hub")
        for letter in alphabet
    )
    return TimedAutomaton(alphabet, ("hub",), ("x",), ("hub",), ("hub",), edges,
                          unambiguous=unambiguous)


def split_automaton(left_guard, right_guard):
    """One a-edge per guard from the initial location into the final one."""
    edges = (
        Edge("lo", "start", "a", ClockConstraint.parse(left_guard), frozenset(), "goal"),
        Edge("hi", "start", "a", ClockConstraint.parse(right_guard), frozenset(), "goal"),
    )
    return TimedAutomaton(("a",), ("start", "goal"), ("x",), ("start",), ("goal",), edges)


# --- guards ---------------------------------------------------------------


def test_disjoint_guards_are_unsatisfiable():
    assert not constraint_satisfiable(ClockConstraint.parse("x<1"), ClockConstraint.parse("x>=1"))


def test_trivial_guards_are_satisfiable():
    assert constraint_satisfiable(ClockConstraint.parse("true"), ClockConstraint.parse("true"))


def test_interval_intersection_produces_a_witness():
    left = ClockConstraint.parse("x>=1 & x<=2 & y>3")
    right = ClockConstraint.parse("x=2")
    assert constraint_satisfiable(left, right)
    witness = feasible_valuation(left, right)
    assert witness["x"] == 2
    assert witness["y"] > 3
    assert left.satisfied_by(witness)
    assert right.satisfied_by(witness)


def test_fractional_guard_bound_is_rejected():
    with pytest.raises(ParseError, match="natural"):
        ClockConstraint.parse("x>=1/2")


@pytest.mark.parametrize("bound", [True, False, -1, 1.0])
def test_guard_bounds_must_be_naturals(bound):
    # True would be written as the guard x<True, which does not read back
    with pytest.raises(ValueError) as info:
        ClockAtom("x", "<", bound)
    assert str(info.value) == f"guard bounds must be naturals, got {bound!r}"


def test_malformed_guard_atom_is_rejected():
    with pytest.raises(ParseError):
        ClockConstraint.parse("x ~ 3")


@given(delays, delays)
@settings(max_examples=100, deadline=None)
def test_satisfiability_is_symmetric(lo, hi):
    left = ClockConstraint.parse("x>=1 & x<3")
    right = ClockConstraint.parse(f"x>={int(lo)} & x<={int(hi) + 1}")
    assert constraint_satisfiable(left, right) == constraint_satisfiable(right, left)


# --- valuations -----------------------------------------------------------


def test_clock_step_advances_clocks():
    assert clock_step({"x": Fraction(0)}, Fraction(3, 2), ()) == {"x": Fraction(3, 2)}


def test_clock_step_resets_after_advancing():
    stepped = clock_step({"x": Fraction(2), "y": Fraction(1)}, Fraction(1), ("x",))
    assert stepped == {"x": Fraction(0), "y": Fraction(2)}


def test_clock_step_zero_delay_is_identity():
    assert clock_step({"x": Fraction(5)}, Fraction(0), ()) == {"x": Fraction(5)}


def test_clock_step_rejects_negative_delay():
    with pytest.raises(ValueError):
        clock_step({"x": Fraction(0)}, Fraction(-1), ())


@given(delays, delays)
@settings(max_examples=100, deadline=None)
def test_clock_step_delays_compose(first, second):
    valuation = {"x": Fraction(1, 2), "y": Fraction(0)}
    twice = clock_step(clock_step(valuation, first, ()), second, ())
    assert twice == clock_step(valuation, first + second, ())


def test_timed_words_are_validated():
    with pytest.raises(ValueError):
        TimedWord(())
    with pytest.raises(ValueError):
        TimedWord((("a", Fraction(-1)),))
    word = wd(("a", 0), ("a", "3/2"))
    assert word.duration == Fraction(3, 2)


# --- run enumeration ------------------------------------------------------


def test_single_loop_has_one_run():
    automaton = loop_automaton()
    runs = enumerate_runs(automaton, wd(("a", 1), ("a", 2)))
    assert len(runs) == 1
    assert runs[0].edge_ids == ("loop_a", "loop_a")


def test_violated_guard_kills_the_run():
    edge = Edge("gate", "start", "a", ClockConstraint.parse("x<=1"), frozenset({"x"}), "goal")
    automaton = TimedAutomaton(("a",), ("start", "goal"), ("x",), ("start",), ("goal",), (edge,))
    assert enumerate_runs(automaton, wd(("a", 2))) == ()


def test_guard_split_selects_one_edge():
    automaton = split_automaton("x<1", "x>=1")
    runs = enumerate_runs(automaton, wd(("a", 1)))
    assert [run.edge_ids for run in runs] == [("hi",)]


def test_runs_replay_their_valuations():
    rng = random.Random(41)
    for _ in range(40):
        automaton = sampling.random_automaton(rng)
        word = sampling.random_word(rng, automaton.alphabet, max_len=4)
        for run in enumerate_runs(automaton, word):
            valuation = {clock: Fraction(0) for clock in automaton.clocks}
            assert run.valuations[0] == valuation
            for i, edge in enumerate(run.edges):
                delay = word.entries[i][1]
                aged = clock_step(valuation, delay, ())
                assert edge.guard.satisfied_by(aged)
                valuation = clock_step(valuation, delay, edge.resets)
                assert run.valuations[i + 1] == valuation


def brute_force_runs(automaton, word):
    """Try every edge sequence of the right length and replay it."""
    accepted = []
    for sequence in itertools.product(automaton.edges, repeat=len(word.entries)):
        if any(edge.label != letter for edge, (letter, _) in zip(sequence, word.entries)):
            continue
        if sequence[0].source not in automaton.initial:
            continue
        if sequence[-1].target not in automaton.final:
            continue
        if any(sequence[i].target != sequence[i + 1].source for i in range(len(sequence) - 1)):
            continue
        valuation = {clock: Fraction(0) for clock in automaton.clocks}
        feasible = True
        for edge, (_, delay) in zip(sequence, word.entries):
            aged = {clock: value + delay for clock, value in valuation.items()}
            if not edge.guard.satisfied_by(aged):
                feasible = False
                break
            valuation = {clock: Fraction(0) if clock in edge.resets else value
                         for clock, value in aged.items()}
        if feasible:
            accepted.append(tuple(edge.id for edge in sequence))
    return sorted(accepted)


def test_enumeration_matches_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        automaton = sampling.random_automaton(rng, max_edges=5)
        word = sampling.random_word(rng, automaton.alphabet, max_len=3)
        found = sorted(run.edge_ids for run in enumerate_runs(automaton, word))
        assert found == brute_force_runs(automaton, word)


# --- classification -------------------------------------------------------


def test_loops_classify_sequential_and_deterministic():
    report = classify_automaton(loop_automaton(("a", "b")))
    assert report == {"sequential": True, "deterministic": True}


def test_disjoint_guards_classify_deterministic_only():
    report = classify_automaton(split_automaton("x<1", "x>=1"))
    assert report == {"sequential": False, "deterministic": True}


def test_overlapping_guards_classify_neither():
    report = classify_automaton(split_automaton("true", "true"))
    assert report == {"sequential": False, "deterministic": False}


def test_sequential_automata_have_at_most_one_run():
    rng = random.Random(3)
    automaton = loop_automaton(("a", "b"))
    for _ in range(50):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        assert len(enumerate_runs(automaton, word)) <= 1


def test_ambiguity_probe_counts_runs():
    rng = random.Random(11)
    words = [sampling.random_word(rng, ("a",), max_len=3) for _ in range(10)]
    doubled = split_automaton("true", "true")
    probe = ambiguity_probe(doubled, [wd(("a", 1))])
    assert probe["max_runs"] == 2
    assert probe["witness"] is not None
    single = loop_automaton()
    assert ambiguity_probe(single, words)["max_runs"] == 1


# --- model validation -----------------------------------------------------


def test_undeclared_clock_is_reported_with_the_edge_id():
    edge = Edge("e1", "p", "a", ClockConstraint.parse("q>=1"), frozenset(), "p")
    automaton = TimedAutomaton(("a",), ("p",), ("x",), ("p",), ("p",), (edge,))
    with pytest.raises(ModelValidationError, match="e1"):
        automaton.validate()


def test_unknown_locations_are_reported():
    edge = Edge("e1", "p", "a", ClockConstraint.true(), frozenset(), "ghost")
    automaton = TimedAutomaton(("a",), ("p",), (), ("p",), ("p",), (edge,))
    with pytest.raises(ModelValidationError, match="ghost"):
        automaton.validate()


def test_long_words_enumerate_without_recursion():
    word = TimedWord(tuple(("a", Fraction(1, 2)) for _ in range(1500)))
    runs = enumerate_runs(loop_automaton(), word)
    assert len(runs) == 1
    assert len(runs[0].edges) == 1500
    assert len(runs[0].locations) == len(runs[0].valuations) == 1501
