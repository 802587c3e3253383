"""Timed words, clock constraints, timed automata and their runs.

A timed word is a non-empty sequence of (letter, delay) pairs where each
delay is the time elapsed since the previous event (not an absolute
timestamp).  Zero delays are allowed.  Clock constraints are conjunctions
of comparisons of single clocks against natural-number constants; there
are no diagonal constraints.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from . import weights
from .errors import ModelValidationError, ParseError

RELATIONS = ("<", "<=", "=", ">=", ">")

_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            ">=": operator.ge, ">": operator.gt}


def is_natural(value) -> bool:
    """A non-negative int; True and False, which Python counts as ints,
    are not naturals here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class TimedWord:
    """Non-empty sequence of (letter, delay) pairs with rational delays."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("timed words are non-empty")
        fixed = []
        for item in self.entries:
            letter, delay = item
            delay = _as_fraction(delay)
            if delay < 0:
                raise ValueError(f"negative delay {delay} in timed word")
            fixed.append((str(letter), delay))
        object.__setattr__(self, "entries", tuple(fixed))

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "TimedWord":
        return cls(tuple(pairs))

    @classmethod
    def from_timestamps(cls, pairs: Iterable) -> "TimedWord":
        """Build from (letter, absolute time) pairs with non-decreasing times."""
        entries = []
        previous = Fraction(0)
        for letter, stamp in pairs:
            stamp = _as_fraction(stamp)
            if stamp < previous:
                raise ValueError("timestamps must be non-decreasing")
            entries.append((letter, stamp - previous))
            previous = stamp
        return cls(tuple(entries))

    @functools.cached_property
    def letters(self) -> tuple:
        return tuple(letter for letter, _ in self.entries)

    @functools.cached_property
    def delays(self) -> tuple:
        return tuple(delay for _, delay in self.entries)

    @property
    def duration(self) -> Fraction:
        return sum(self.delays, Fraction(0))

    def prefix_sums(self) -> tuple:
        """Absolute event times <w>_1, ..., <w>_n (cached)."""
        cached = getattr(self, "_sums", None)
        if cached is None:
            total = Fraction(0)
            sums = []
            for _, delay in self.entries:
                total += delay
                sums.append(total)
            cached = tuple(sums)
            object.__setattr__(self, "_sums", cached)
        return cached

    def ticks(self) -> tuple:
        """(unit, steps): the least common multiple of the delays'
        denominators and each delay as an int number of 1/unit time units,
        so that sums and comparisons of times are exact on ints (cached)."""
        cached = getattr(self, "_ticks", None)
        if cached is None:
            cached = weights.delay_ticks(self.delays)
            object.__setattr__(self, "_ticks", cached)
        return cached

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return " ".join(f"({letter},{delay})" for letter, delay in self.entries)


@dataclass(frozen=True)
class ClockAtom:
    """A single comparison ``clock rel bound`` with a natural bound."""

    clock: str
    rel: str
    bound: int

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")
        if not is_natural(self.bound):
            raise ValueError(f"guard bounds must be naturals, got {self.bound!r}")

    def holds(self, value: Fraction) -> bool:
        return _COMPARE[self.rel](value, self.bound)

    def __str__(self):
        return f"{self.clock}{self.rel}{self.bound}"


_ATOM_RE = re.compile(r"^\s*([A-Za-z_][\w.]*)\s*(<=|>=|<|>|=)\s*(\d+)\s*$")


@dataclass(frozen=True)
class ClockConstraint:
    """Conjunction of clock atoms; the empty conjunction is TRUE."""

    atoms: tuple = ()

    @classmethod
    def true(cls) -> "ClockConstraint":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "ClockConstraint":
        text = text.strip()
        if text in ("", "true", "TRUE", "True"):
            return cls.true()
        atoms = []
        for part in text.split("&"):
            match = _ATOM_RE.match(part)
            if not match:
                loose = re.match(r"^\s*([A-Za-z_][\w.]*)\s*(<=|>=|<|>|=)\s*(\S+)\s*$", part)
                if loose:
                    raise ParseError(
                        f"guard bounds must be natural numbers, got {loose.group(3)!r}")
                raise ParseError(f"bad guard atom {part.strip()!r}")
            clock, rel, bound = match.groups()
            atoms.append(ClockAtom(clock, rel, int(bound)))
        return cls(tuple(atoms))

    def conjoin(self, other: "ClockConstraint") -> "ClockConstraint":
        return ClockConstraint(self.atoms + other.atoms)

    def rename_clocks(self, mapping: Mapping[str, str]) -> "ClockConstraint":
        return ClockConstraint(
            tuple(ClockAtom(mapping.get(a.clock, a.clock), a.rel, a.bound) for a in self.atoms)
        )

    @property
    def clocks(self) -> frozenset:
        return frozenset(a.clock for a in self.atoms)

    def satisfied_by(self, valuation: Mapping[str, Fraction]) -> bool:
        return all(atom.holds(valuation[atom.clock]) for atom in self.atoms)

    def __str__(self):
        if not self.atoms:
            return "true"
        return " & ".join(str(a) for a in self.atoms)


def _interval_of(atoms: Iterable[ClockAtom]):
    """Intersect atoms on one clock into (lo, lo_closed, hi, hi_closed).

    ``hi is None`` means unbounded above.  Clock values are nonnegative,
    so the interval starts at a closed 0.
    """
    lo, lo_closed = Fraction(0), True
    hi, hi_closed = None, False
    for atom in atoms:
        bound = Fraction(atom.bound)
        if atom.rel in (">", ">=", "="):
            closed = atom.rel != ">"
            if bound > lo or (bound == lo and lo_closed and not closed):
                lo, lo_closed = bound, closed
        if atom.rel in ("<", "<=", "="):
            closed = atom.rel != "<"
            if hi is None or bound < hi or (bound == hi and hi_closed and not closed):
                hi, hi_closed = bound, closed
    return lo, lo_closed, hi, hi_closed


def _interval_point(lo, lo_closed, hi, hi_closed) -> Optional[Fraction]:
    """A rational inside the interval, or None when it is empty."""
    if hi is None:
        return lo if lo_closed else lo + 1
    if lo > hi:
        return None
    if lo == hi:
        return lo if (lo_closed and hi_closed) else None
    if lo_closed:
        return lo
    return (lo + hi) / 2


def feasible_valuation(*constraints: ClockConstraint) -> Optional[dict]:
    """A clock valuation satisfying every constraint, or None.

    Constraints are per-clock intervals, so the conjunction is satisfiable
    iff each clock's interval intersection is non-empty.
    """
    merged = ClockConstraint.true()
    for c in constraints:
        merged = merged.conjoin(c)
    witness = {}
    for clock in sorted(merged.clocks):
        atoms = [a for a in merged.atoms if a.clock == clock]
        point = _interval_point(*_interval_of(atoms))
        if point is None:
            return None
        witness[clock] = point
    return witness


def constraint_satisfiable(*constraints: ClockConstraint) -> bool:
    """Whether the conjunction of the given constraints has a solution."""
    return feasible_valuation(*constraints) is not None


def clock_step(valuation: Mapping[str, Fraction], delay, resets: Iterable[str]) -> dict:
    """Advance all clocks by ``delay`` then zero the ``resets``."""
    delay = _as_fraction(delay)
    if delay < 0:
        raise ValueError("delays are nonnegative")
    resets = set(resets)
    return {c: (Fraction(0) if c in resets else v + delay) for c, v in valuation.items()}


@dataclass(frozen=True)
class Edge:
    """A transition with a stable identifier."""

    id: str
    source: str
    label: str
    guard: ClockConstraint
    resets: frozenset
    target: str

    def __post_init__(self):
        object.__setattr__(self, "resets", frozenset(self.resets))


@dataclass(frozen=True)
class TimedAutomaton:
    """A timed automaton with named locations, clocks and edges.

    Locations and edges are kept in declaration order so run enumeration
    is reproducible.  ``unambiguous`` is a trusted flag: it is set by
    constructions that guarantee at most one run per word and is never
    decided from the transition structure.
    """

    alphabet: tuple
    locations: tuple
    clocks: tuple
    initial: tuple
    final: tuple
    edges: tuple
    unambiguous: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "clocks", tuple(self.clocks))
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "final", tuple(self.final))
        object.__setattr__(self, "edges", tuple(self.edges))

    def validate(self) -> None:
        problems = []
        locs = set(self.locations)
        letters = set(self.alphabet)
        clocks = set(self.clocks)
        if len(locs) != len(self.locations):
            problems.append("duplicate location names")
        if len(letters) != len(self.alphabet):
            problems.append("duplicate alphabet letters")
        if len(clocks) != len(self.clocks):
            problems.append("duplicate clock names")
        for loc in self.initial:
            if loc not in locs:
                problems.append(f"initial location {loc!r} not declared")
        for loc in self.final:
            if loc not in locs:
                problems.append(f"final location {loc!r} not declared")
        seen_ids = set()
        for edge in self.edges:
            if edge.id in seen_ids:
                problems.append(f"duplicate edge id {edge.id!r}")
            seen_ids.add(edge.id)
            if edge.source not in locs:
                problems.append(f"edge {edge.id!r}: unknown source {edge.source!r}")
            if edge.target not in locs:
                problems.append(f"edge {edge.id!r}: unknown target {edge.target!r}")
            if edge.label not in letters:
                problems.append(f"edge {edge.id!r}: label {edge.label!r} not in alphabet")
            for clock in edge.guard.clocks:
                if clock not in clocks:
                    problems.append(f"edge {edge.id!r}: guard uses undeclared clock {clock!r}")
            for clock in edge.resets:
                if clock not in clocks:
                    problems.append(f"edge {edge.id!r}: resets undeclared clock {clock!r}")
        if problems:
            raise ModelValidationError(problems)

    def edges_from(self, source: str, label: str) -> tuple:
        return tuple(e for e in self.edges if e.source == source and e.label == label)

    def zero_valuation(self) -> dict:
        return {c: Fraction(0) for c in self.clocks}

    def max_constants(self) -> dict:
        """Per-clock maximum guard constant (0 for unconstrained clocks)."""
        out = {c: 0 for c in self.clocks}
        for edge in self.edges:
            for atom in edge.guard.atoms:
                out[atom.clock] = max(out[atom.clock], atom.bound)
        return out


@dataclass(frozen=True)
class Run:
    """A successful run: the edge sequence plus the induced state sequence."""

    word: TimedWord
    edges: tuple
    locations: tuple
    valuations: tuple

    @property
    def edge_ids(self) -> tuple:
        return tuple(e.id for e in self.edges)


def check_word_alphabet(automaton: TimedAutomaton, word: TimedWord) -> None:
    """Refuse a word with letters outside the automaton's alphabet."""
    unknown = set(word.letters) - set(automaton.alphabet)
    if unknown:
        raise ModelValidationError([f"word letter {u!r} not in automaton alphabet" for u in sorted(unknown)])


def enumerate_runs(automaton: TimedAutomaton, word: TimedWord) -> tuple:
    """All runs of the automaton on the word, sorted by edge-id sequence.

    A run starts in an initial location with all clocks zero; step i
    checks the guard at the pre-reset valuation (after the delay) and
    then applies the resets; the run must end in a final location.  The
    search is depth-first over an explicit stack; each stack entry links
    back to its predecessor, so a run is copied out only once it accepts.
    """
    check_word_alphabet(automaton, word)
    entries = word.entries
    final = set(automaton.final)
    by_key = {}
    for edge in automaton.edges:
        by_key.setdefault((edge.source, edge.label), []).append(edge)
    results = []
    zero = automaton.zero_valuation()
    # A trail is (edge taken, location reached, valuation there, previous trail).
    stack = [(0, (None, start, zero, None)) for start in automaton.initial]
    while stack:
        index, trail = stack.pop()
        _, location, valuation, _ = trail
        if index == len(entries):
            if location in final:
                results.append(_run_of(word, trail))
            continue
        letter, delay = entries[index]
        aged = {c: v + delay for c, v in valuation.items()}
        for edge in by_key.get((location, letter), ()):
            if edge.guard.satisfied_by(aged):
                landed = {c: (Fraction(0) if c in edge.resets else v) for c, v in aged.items()}
                stack.append((index + 1, (edge, edge.target, landed, trail)))
    results.sort(key=lambda run: run.edge_ids)
    return tuple(results)


def _run_of(word: TimedWord, trail) -> Run:
    edges, locations, valuations = [], [], []
    while trail is not None:
        edge, location, valuation, trail = trail
        if edge is not None:
            edges.append(edge)
        locations.append(location)
        valuations.append(valuation)
    return Run(word, tuple(reversed(edges)), tuple(reversed(locations)),
               tuple(reversed(valuations)))


_ABSENT = object()


def fold_runs(automaton: TimedAutomaton, word: TimedWord, moves: Iterable,
              start, step: Callable, plus: Callable) -> list:
    """Fold a step function over the runs of the automaton on the word,
    merging runs per configuration; returns the partial values of the
    final configurations.

    ``moves`` lists (edge, letter, charge) triples: the edge may be taken
    to read ``letter`` and then charges ``charge``.  Each initial
    configuration holds ``start``; taking a move at step i turns a
    partial value p into ``step(p, i, charge)``, and the values of run
    prefixes that reach the same configuration are merged with ``plus``.
    Whenever step distributes over plus, the merged value of a final
    configuration equals the plus-sum over the runs ending there.

    A configuration is a location with the position of each clock's last
    reset (0 for none), which fixes the clock's value on a given word.
    Clocks that no guard reads cannot change which runs exist, so they are
    left out.  For a word of n letters there are thus at most
    |L|·(n+1)^|X| configurations, X the guarded clocks.  Guards compare
    exactly on ints: event times and guard bounds are both counted in
    units of the word's ``ticks``, and with no guarded clock no event
    time is computed at all.
    """
    letters = {letter for letter, _ in word.entries}
    moves = [move for move in moves if move[1] in letters]
    guarded = {a.clock for edge, _, _ in moves for a in edge.guard.atoms}
    clocks = [c for c in automaton.clocks if c in guarded]
    position = {c: k for k, c in enumerate(clocks)}
    if clocks:
        unit, steps = word.ticks()
        # times[k] is the absolute time of the k-th event in units, times[0] = 0.
        times = tuple(itertools.accumulate(steps, initial=0))
    else:
        unit, times = 1, ()
    table = {}
    for edge, letter, charge in moves:
        atoms = tuple((position[a.clock], _COMPARE[a.rel], a.bound * unit)
                      for a in edge.guard.atoms)
        resets = tuple(c in edge.resets for c in clocks) if edge.resets else ()
        table.setdefault((edge.source, letter), []).append(
            (atoms, resets if any(resets) else None, edge.target, charge))
    configurations = {}
    for location in automaton.initial:
        key = (location, (0,) * len(clocks))
        known = configurations.get(key, _ABSENT)
        configurations[key] = start if known is _ABSENT else plus(known, start)
    for i, letter in enumerate(word.letters):
        now = times[i + 1] if times else 0
        reached = {}
        for (location, resets_at), partial in configurations.items():
            for atoms, resets, target, charge in table.get((location, letter), ()):
                if atoms and not all(compare(now - times[resets_at[k]], bound)
                                     for k, compare, bound in atoms):
                    continue
                landed = resets_at if resets is None else tuple(
                    i + 1 if reset else r for r, reset in zip(resets_at, resets))
                key = (target, landed)
                value = step(partial, i, charge)
                known = reached.get(key, _ABSENT)
                reached[key] = value if known is _ABSENT else plus(known, value)
        if not reached:
            return []
        configurations = reached
    final = set(automaton.final)
    return [partial for (location, _), partial in configurations.items() if location in final]


def accepts(automaton: TimedAutomaton, word: TimedWord) -> bool:
    """Whether the automaton has an accepting run on the word, decided by
    reachability over configurations."""
    check_word_alphabet(automaton, word)
    moves = [(edge, edge.label, None) for edge in automaton.edges]
    return bool(fold_runs(automaton, word, moves, True, _reached, _reached))


def _reached(*_):
    return True


def classify_automaton(automaton: TimedAutomaton) -> dict:
    """Syntactic run-uniqueness classes.

    sequential: one initial location and at most one edge per
    (source, label) pair.  deterministic: one initial location and
    pairwise-unsatisfiable guards among edges sharing (source, label).
    """
    single_initial = len(automaton.initial) == 1
    sequential = single_initial
    deterministic = single_initial
    by_key = {}
    for edge in automaton.edges:
        by_key.setdefault((edge.source, edge.label), []).append(edge)
    for edges in by_key.values():
        if len(edges) > 1:
            sequential = False
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    if constraint_satisfiable(edges[i].guard, edges[j].guard):
                        deterministic = False
    return {"sequential": sequential, "deterministic": deterministic}


def ambiguity_probe(automaton: TimedAutomaton, words: Iterable[TimedWord]) -> dict:
    """Count runs on sample words; a count above 1 witnesses ambiguity.

    This is only a sampling probe: it can refute unambiguity but never
    establish it.
    """
    max_runs = 0
    witness = None
    for word in words:
        count = len(enumerate_runs(automaton, word))
        if count > max_runs:
            max_runs = count
            if count > 1 and witness is None:
                witness = word
    return {"max_runs": max_runs, "witness": witness}
