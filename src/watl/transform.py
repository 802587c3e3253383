"""Closure constructions and Nivat-style decompositions.

A Nivat triple (gamma, h, g, language) presents a weighted behavior as:
relabel each word over the auxiliary alphabet gamma through h, weigh it
through g and the monoid's valuation, and restrict to the language
component.  ``nivat_decompose`` extracts such a triple from a weighted
automaton with a sequential language component; ``nivat_compose`` folds a
triple back into a single weighted automaton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .core import (ClockConstraint, Edge, TimedAutomaton, TimedWord, accepts,
                   classify_automaton)
from .errors import (DEFAULT_PREIMAGE_CAP, ModelValidationError, PreimageCapError,
                     UnsoundCompositionError, WatlError)
from .monoids import TimedValuationMonoid, WeightPairWord, sum_over
from .wta import WeightedTimedAutomaton, behavior, fold_charges


LANGUAGE_CLASSES = ("sequential", "deterministic", "unambiguous", "recognizable", "sentence")

# Language classes that guarantee at most one accepting run per word.
_UNAMBIGUOUS_CLASSES = ("sequential", "deterministic", "unambiguous")


def relabel(automaton: WeightedTimedAutomaton, mapping: Mapping[str, str],
            alphabet: Optional[tuple] = None) -> WeightedTimedAutomaton:
    """Replace every edge label a by mapping[a], keeping weights.

    The behavior of the result at w is the plus-sum of the behaviors of
    the original at every preimage word of w.  Unambiguity is not
    preserved unless the mapping is injective, so the trusted flag is
    only carried over in that case.
    """
    base = automaton.base
    missing = [a for a in base.alphabet if a not in mapping]
    if missing:
        raise ModelValidationError([f"relabeling undefined on {a!r}" for a in missing])
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(mapping[a] for a in base.alphabet))
    injective = len(set(mapping[a] for a in base.alphabet)) == len(base.alphabet)
    new_base = TimedAutomaton(
        alphabet=alphabet,
        locations=base.locations,
        clocks=base.clocks,
        initial=base.initial,
        final=base.final,
        edges=tuple(Edge(e.id, e.source, mapping[e.label], e.guard, e.resets, e.target)
                    for e in base.edges),
        unambiguous=base.unambiguous and injective,
    )
    return WeightedTimedAutomaton(new_base, automaton.monoid,
                                  automaton.location_weights, automaton.edge_weights)


def comp_automaton(alphabet: tuple, g: Mapping[str, tuple],
                   monoid: TimedValuationMonoid) -> WeightedTimedAutomaton:
    """A weighted automaton whose behavior at w is val(g(w)).

    g maps each letter to a (rate, discrete weight) pair.  For location
    independent monoids a single location with TRUE self-loops suffices
    and the result is sequential.  Otherwise the automaton guesses the
    next letter so that the rate charged before reading a is g1(a): one
    initial location per letter plus a final sink, which leaves exactly
    one run per word.
    """
    for a in alphabet:
        if a not in g:
            raise ModelValidationError([f"g undefined on letter {a!r}"])
        monoid.require(g[a][0], f"g1({a})")
        monoid.require(g[a][1], f"g2({a})")

    if monoid.location_independent:
        loc = "c"
        edges = tuple(
            Edge(f"e_{a}", loc, a, ClockConstraint.true(), frozenset(), loc)
            for a in alphabet
        )
        base = TimedAutomaton((*alphabet,), (loc,), (), (loc,), (loc,), edges,
                              unambiguous=True)
        weights = {f"e_{a}": g[a][1] for a in alphabet}
        return WeightedTimedAutomaton(base, monoid, {loc: Fraction(0)}, weights)

    sink = "end"
    locations = tuple(f"at_{a}" for a in alphabet) + (sink,)
    edges = []
    weights = {}
    for a in alphabet:
        for b in alphabet:
            eid = f"{a}>{b}"
            edges.append(Edge(eid, f"at_{a}", a, ClockConstraint.true(), frozenset(), f"at_{b}"))
            weights[eid] = g[a][1]
        eid = f"{a}>."
        edges.append(Edge(eid, f"at_{a}", a, ClockConstraint.true(), frozenset(), sink))
        weights[eid] = g[a][1]
    base = TimedAutomaton((*alphabet,), locations, (),
                          tuple(f"at_{a}" for a in alphabet), (sink,),
                          tuple(edges), unambiguous=True)
    location_weights = {f"at_{a}": g[a][0] for a in alphabet}
    location_weights[sink] = Fraction(0)
    return WeightedTimedAutomaton(base, monoid, location_weights, weights)


def product_intersect(weighted: WeightedTimedAutomaton,
                      language: TimedAutomaton) -> WeightedTimedAutomaton:
    """Restrict a weighted automaton to the language of an acceptor.

    Sound only when the monoid is idempotent or the acceptor has at most
    one run per word: otherwise each weighted run is duplicated once per
    accepting run of the language component and the plus-sum changes.
    The clocks of the two sides are kept disjoint by prefixing.
    """
    monoid = weighted.monoid
    if not monoid.idempotent and not language.unambiguous:
        raise UnsoundCompositionError(
            "unsound composition: intersecting with a possibly ambiguous "
            "language component over the non-idempotent monoid "
            f"{monoid.id!r} would multiply run weights (constant-one series "
            "times an ambiguous acceptor of all words is the standard "
            "counterexample)")

    a_base = weighted.base
    left_clock = {c: f"l.{c}" for c in a_base.clocks}
    right_clock = {c: f"r.{c}" for c in language.clocks}
    alphabet = tuple(a for a in a_base.alphabet if a in set(language.alphabet))

    def loc(la, lb):
        return f"({la},{lb})"

    locations = tuple(loc(la, lb) for la in a_base.locations for lb in language.locations)
    # The acceptor's edges by label, in edge order, each guard and reset
    # set renamed once.
    by_label = {}
    for eb in language.edges:
        by_label.setdefault(eb.label, []).append(
            (eb, eb.guard.rename_clocks(right_clock),
             frozenset(right_clock[c] for c in eb.resets)))
    edges = []
    edge_weights = {}
    for ea in a_base.edges:
        guard = ea.guard.rename_clocks(left_clock)
        resets = frozenset(left_clock[c] for c in ea.resets)
        for eb, right_guard, right_resets in by_label.get(ea.label, ()):
            eid = f"({ea.id},{eb.id})"
            edges.append(Edge(eid, loc(ea.source, eb.source), ea.label,
                              guard.conjoin(right_guard), resets | right_resets,
                              loc(ea.target, eb.target)))
            edge_weights[eid] = weighted.edge_weights[ea.id]
    base = TimedAutomaton(
        alphabet=alphabet,
        locations=locations,
        clocks=tuple(left_clock.values()) + tuple(right_clock.values()),
        initial=tuple(loc(la, lb) for la in a_base.initial for lb in language.initial),
        final=tuple(loc(la, lb) for la in a_base.final for lb in language.final),
        edges=tuple(edges),
        unambiguous=a_base.unambiguous and language.unambiguous,
    )
    location_weights = {loc(la, lb): weighted.location_weights[la]
                        for la in a_base.locations for lb in language.locations}
    return WeightedTimedAutomaton(base, monoid, location_weights, edge_weights)


@dataclass(frozen=True)
class NivatTriple:
    """(gamma, h, g, language) with a declared language class.

    ``language`` is either a timed automaton over gamma or a logic
    sentence over gamma.  The declared class is re-checked against the
    structure where that is decidable syntactically.
    """

    gamma: tuple
    h: Mapping[str, str]
    g: Mapping[str, tuple]
    language: Union[TimedAutomaton, object]
    language_class: str

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "h", dict(self.h))
        object.__setattr__(self, "g", dict(self.g))
        problems = []
        if self.language_class not in LANGUAGE_CLASSES:
            problems.append(f"unknown language class {self.language_class!r}")
        if len(set(self.gamma)) != len(self.gamma):
            problems.append("duplicate gamma letters")
        for letter in self.gamma:
            if letter not in self.h:
                problems.append(f"h undefined on {letter!r}")
            if letter not in self.g:
                problems.append(f"g undefined on {letter!r}")
        if isinstance(self.language, TimedAutomaton):
            if self.language_class == "sentence":
                problems.append("language class 'sentence' with an automaton language")
            if set(self.language.alphabet) != set(self.gamma):
                problems.append("language alphabet differs from gamma")
            if self.language_class in ("sequential", "deterministic"):
                flags = classify_automaton(self.language)
                if not flags[self.language_class]:
                    problems.append(
                        f"language automaton is not {self.language_class} as declared")
        else:
            if self.language_class != "sentence":
                problems.append("formula language requires class 'sentence'")
        if problems:
            raise ModelValidationError(problems)

    def target_alphabet(self) -> tuple:
        return tuple(dict.fromkeys(self.h[letter] for letter in self.gamma))


def nivat_decompose(automaton: WeightedTimedAutomaton) -> NivatTriple:
    """Extract a Nivat triple with a sequential language component.

    gamma is the edge-id alphabet; h recovers the original label and g
    the (source rate, edge weight) pair.  The language automaton is the
    input relabeled by edge id.  Multiple initial locations would break
    sequentiality, so a fresh initial location inheriting copies of all
    edges leaving initial locations, under edge ids not in use, is added
    in that case; this preserves the language because runs are non-empty.
    """
    base = automaton.base
    gamma = tuple(e.id for e in base.edges)
    h = {e.id: e.label for e in base.edges}
    g = {e.id: (automaton.location_weights[e.source], automaton.edge_weights[e.id])
         for e in base.edges}

    edges = [Edge(e.id, e.source, e.id, e.guard, e.resets, e.target) for e in base.edges]
    locations = base.locations
    initial = base.initial
    if len(base.initial) != 1:
        fresh = "init"
        while fresh in base.locations:
            fresh = "_" + fresh
        starts = set(base.initial)
        used = set(gamma)
        for e in base.edges:
            if e.source in starts:
                eid = f"{e.id}@start"
                while eid in used:
                    eid = "_" + eid
                used.add(eid)
                edges.append(Edge(eid, fresh, e.id, e.guard, e.resets, e.target))
        locations = (fresh,) + base.locations
        initial = (fresh,)
    language = TimedAutomaton(
        alphabet=gamma,
        locations=locations,
        clocks=base.clocks,
        initial=initial,
        final=base.final,
        edges=tuple(edges),
        unambiguous=True,
    )
    return NivatTriple(gamma, h, g, language, "sequential")


def _accepts(triple: NivatTriple, word: TimedWord) -> bool:
    if isinstance(triple.language, TimedAutomaton):
        return accepts(triple.language, word)
    from . import rdl
    return rdl.model_check(triple.language, word)


def nivat_eval(triple: NivatTriple, word: TimedWord, monoid: TimedValuationMonoid,
               cap: int = DEFAULT_PREIMAGE_CAP):
    """Evaluate a triple at a word.

    Sums val(g(v)) over every word v over gamma with h(v) = w that lies
    in the language component.

    When the language is an automaton and the monoid is idempotent or
    the language class allows at most one run per word (sequential,
    deterministic, unambiguous), counting runs is counting preimages, so
    the sum is folded in one pass over w as in ``wta.behavior``: at step
    i the language automaton takes every edge whose letter c has
    h(c) = a_i and charges g(c).  Its cost does not depend on the
    preimage count.  Otherwise (sentence languages, recognizable ones
    over a non-idempotent monoid, and monoids without a step-wise
    valuation) every preimage is enumerated and tested for membership,
    and the preimage count, the product of the per-letter preimage
    sizes, is checked against the cap first.
    """
    for letter in triple.gamma:
        monoid.require(triple.g[letter][0], f"g1({letter})")
        monoid.require(triple.g[letter][1], f"g2({letter})")
    language = triple.language
    if isinstance(language, TimedAutomaton) and (
            monoid.idempotent or triple.language_class in _UNAMBIGUOUS_CLASSES):
        moves = [(e, triple.h[e.label], triple.g[e.label])
                 for e in language.edges if e.label in triple.h]
        value = fold_charges(language, word, moves, monoid)
        if value is not None:
            return value
    preimages = []
    count = 1
    for a, _ in word:
        options = tuple(c for c in triple.gamma if triple.h[c] == a)
        preimages.append(options)
        count *= len(options)
        if count > cap:
            raise PreimageCapError(
                f"preimage enumeration needs {count}+ words, cap is {cap}")

    def values():
        for choice in itertools.product(*preimages):
            v = TimedWord(tuple((c, t) for c, (_, t) in zip(choice, word)))
            if _accepts(triple, v):
                yield monoid.val(WeightPairWord(tuple(
                    (triple.g[c], t) for c, (_, t) in zip(choice, word))))

    return sum_over(monoid, values())


def nivat_compose(triple: NivatTriple, monoid: TimedValuationMonoid,
                  alphabet: Optional[tuple] = None) -> WeightedTimedAutomaton:
    """Fold a triple with an automaton language into one weighted automaton.

    Builds the valuation automaton for (gamma, g), intersects it with the
    language component and relabels through h.  Requires an idempotent
    monoid or a language class that guarantees at most one run per word.
    The target alphabet defaults to the image of h; pass a larger one to
    keep letters that no auxiliary letter projects to.
    """
    if not isinstance(triple.language, TimedAutomaton):
        raise WatlError("nivat_compose needs an automaton language component")
    if not monoid.idempotent and triple.language_class not in _UNAMBIGUOUS_CLASSES:
        raise UnsoundCompositionError(
            f"composing a {triple.language_class!r} language over the "
            f"non-idempotent monoid {monoid.id!r} is unsound")
    language = triple.language
    if triple.language_class in _UNAMBIGUOUS_CLASSES and not language.unambiguous:
        language = TimedAutomaton(language.alphabet, language.locations, language.clocks,
                                  language.initial, language.final, language.edges,
                                  unambiguous=True)
    weigher = comp_automaton(triple.gamma, triple.g, monoid)
    product = product_intersect(weigher, language)
    target = tuple(alphabet) if alphabet is not None else triple.target_alphabet()
    return relabel(product, dict(triple.h), target)
