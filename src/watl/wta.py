"""Weighted timed automata: behavior as a plus-sum of valuated runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (Run, TimedAutomaton, TimedWord, check_word_alphabet,
                   enumerate_runs, fold_runs)
from .errors import ModelValidationError
from .monoids import TimedValuationMonoid, WeightPairWord, sum_over
from .weights import Weight


@dataclass(frozen=True)
class WeightedTimedAutomaton:
    """A timed automaton with a weight for every location and edge.

    Location weights are the rates charged while time passes in the
    location; edge weights are discrete step costs.  Both must lie in the
    monoid's domain.
    """

    base: TimedAutomaton
    monoid: TimedValuationMonoid
    location_weights: Mapping[str, Weight]
    edge_weights: Mapping[str, Weight]

    def __post_init__(self):
        object.__setattr__(self, "location_weights", dict(self.location_weights))
        object.__setattr__(self, "edge_weights", dict(self.edge_weights))

    def validate(self) -> None:
        self.base.validate()
        problems = []
        for loc in self.base.locations:
            if loc not in self.location_weights:
                problems.append(f"missing weight for location {loc!r}")
            elif not self.monoid.contains(self.location_weights[loc]):
                problems.append(f"location weight of {loc!r} outside monoid domain")
        for edge in self.base.edges:
            if edge.id not in self.edge_weights:
                problems.append(f"missing weight for edge {edge.id!r}")
            elif not self.monoid.contains(self.edge_weights[edge.id]):
                problems.append(f"edge weight of {edge.id!r} outside monoid domain")
        if problems:
            raise ModelValidationError(problems)

    def wt_location(self, name: str) -> Weight:
        return self.location_weights[name]

    def wt_edge(self, edge_id: str) -> Weight:
        return self.edge_weights[edge_id]


def wt_sharp(automaton: WeightedTimedAutomaton, run: Run) -> WeightPairWord:
    """The weight-pair word of a run.

    Step i contributes ((wt(source location before step i), wt(edge i)),
    delay i): the rate of the location the run waited in, paired with the
    discrete weight of the edge taken.
    """
    entries = []
    for i, edge in enumerate(run.edges):
        rate = automaton.location_weights[run.locations[i]]
        entries.append(((rate, automaton.edge_weights[edge.id]), run.word.delays[i]))
    return WeightPairWord(tuple(entries))


def run_weight(automaton: WeightedTimedAutomaton, run: Run) -> Weight:
    return automaton.monoid.val(wt_sharp(automaton, run))


def fold_charges(automaton: TimedAutomaton, word: TimedWord, moves,
                 monoid: TimedValuationMonoid):
    """The plus-sum, over the accepting runs of the automaton on the word,
    of the valuated charges of the moves taken, or None when the monoid
    has no step-wise valuation.

    ``moves`` lists (edge, letter, (rate, discrete weight)) triples, as
    for ``core.fold_runs``; the monoid's step fold prepares the charges
    once, against the word's cached ``ticks``, and is folded over the
    configurations in one pass over the word.  For sum, avg and prod the
    steps, merges and clock comparisons are exact int arithmetic over
    the call's common denominator, and only the final values become
    Fractions; discounting keeps mpf, and other folds their own values.
    """
    fold = monoid.step_fold(word.delays)
    if fold is None:
        return None
    with fold:
        charges = fold.prepare([charge for _, _, charge in moves], word.ticks())
        moves = [(edge, letter, charge) for (edge, letter, _), charge in zip(moves, charges)]
        finals = fold_runs(automaton, word, moves, fold.start, fold.step, fold.plus)
        return sum_over(monoid, (fold.finish(partial) for partial in finals))


def behavior(automaton: WeightedTimedAutomaton, word: TimedWord) -> Weight:
    """The plus-sum over all runs of the valuated run weight.

    Evaluated in one forward pass over the word: each edge charges
    (wt(source), wt(edge)), and the monoid's step-wise valuation is
    folded over (location, clock valuation) configurations, merging the
    runs that meet in one configuration with the monoid's plus.  The work
    grows with the number of configurations, at most |L|·(n+1)^|X| for
    n letters, not with the number of runs.  Monoids without a step-wise
    valuation (custom ones added through register_monoid) are evaluated
    by enumerating the runs.  Words with no run evaluate to the monoid's
    zero.
    """
    base = automaton.base
    check_word_alphabet(base, word)
    moves = [(edge, edge.label, (automaton.location_weights[edge.source],
                                 automaton.edge_weights[edge.id]))
             for edge in base.edges]
    value = fold_charges(base, word, moves, automaton.monoid)
    if value is not None:
        return value
    runs = enumerate_runs(base, word)
    return sum_over(automaton.monoid, (run_weight(automaton, r) for r in runs))
