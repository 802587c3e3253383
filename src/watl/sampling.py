"""Seeded random generators for the property and fuzz suites.

Every generator takes an explicit ``random.Random`` so that a single
seed reproduces a whole suite.  Sizes follow the desk scale the tests
run at: small alphabets, short words, a handful of locations and clocks,
guard constants at most 4.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (ClockConstraint, Edge, TimedAutomaton, TimedWord,
                   constraint_satisfiable)
from .wta import WeightedTimedAutomaton

_CLOCK_NAMES = ("x", "y", "z")
_RELS = ("<", "<=", ">", ">=")


def random_delay(rng: random.Random, max_whole: int = 4) -> Fraction:
    """A rational delay in [0, max_whole] with denominator 1, 2 or 4."""
    den = rng.choice((1, 2, 4))
    return Fraction(rng.randrange(0, max_whole * den + 1), den)


def random_word(rng: random.Random, alphabet, max_len: int = 6,
                min_len: int = 1) -> TimedWord:
    length = rng.randint(min_len, max_len)
    return TimedWord.from_pairs(
        [(rng.choice(tuple(alphabet)), random_delay(rng))
         for _ in range(length)])


def random_weight(rng: random.Random, natural: bool = False) -> Fraction:
    if natural:
        return Fraction(rng.randrange(0, 4))
    return Fraction(rng.randrange(-3, 4), rng.choice((1, 2)))


def random_guard(rng: random.Random, clocks) -> ClockConstraint:
    """A satisfiable conjunction of at most two comparisons."""
    clocks = tuple(clocks)
    if not clocks or rng.random() < 0.4:
        return ClockConstraint.true()
    for _ in range(6):
        atoms = []
        for _ in range(rng.randint(1, 2)):
            clock = rng.choice(clocks)
            rel = rng.choice(_RELS)
            bound = rng.randint(0, 4)
            if rel == "<" and bound == 0:
                bound = 1
            atoms.append(f"{clock}{rel}{bound}")
        guard = ClockConstraint.parse(" & ".join(atoms))
        if constraint_satisfiable(guard):
            return guard
    return ClockConstraint.true()


def random_automaton(rng: random.Random, alphabet=("a", "b"),
                     max_locations: int = 4, max_clocks: int = 2,
                     max_edges: int = 8) -> TimedAutomaton:
    alphabet = tuple(alphabet)
    locations = tuple(f"l{i}" for i in range(rng.randint(1, max_locations)))
    clocks = _CLOCK_NAMES[:rng.randint(0, max_clocks)]
    edges = []
    for src in locations:
        for letter in alphabet:
            for _ in range(rng.randint(0, 2)):
                if len(edges) >= max_edges:
                    break
                resets = frozenset(c for c in clocks if rng.random() < 0.3)
                edges.append(Edge(f"e{len(edges)}", src, letter,
                                  random_guard(rng, clocks), resets,
                                  rng.choice(locations)))
    if not edges:
        edges.append(Edge("e0", locations[0], alphabet[0],
                          ClockConstraint.true(), frozenset(),
                          rng.choice(locations)))
    initial = tuple(sorted(rng.sample(locations, rng.randint(1, len(locations)))))
    final = tuple(sorted(rng.sample(locations, rng.randint(1, len(locations)))))
    automaton = TimedAutomaton(alphabet=alphabet, locations=locations,
                               clocks=clocks, initial=initial, final=final,
                               edges=tuple(edges))
    automaton.validate()
    return automaton


def random_wta(rng: random.Random, monoid, alphabet=("a", "b"),
               **kwargs) -> WeightedTimedAutomaton:
    base = random_automaton(rng, alphabet, **kwargs)
    natural = monoid.id == "prod"
    rates = {loc: random_weight(rng, natural) for loc in base.locations}
    weights = {e.id: random_weight(rng, natural) for e in base.edges}
    return WeightedTimedAutomaton(base, monoid, rates, weights)


def random_assignment(rng: random.Random, word: TimedWord, fo_vars=(),
                      so_vars=()) -> rdl.Assignment:
    from . import rdl
    n = len(word)
    sigma = rdl.Assignment()
    for v in fo_vars:
        sigma = sigma.with_fo(v, rng.randint(1, n))
    for v in so_vars:
        subset = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        sigma = sigma.with_so(v, subset)
    return sigma


# ---------------------------------------------------------------------------
# Restricted weighted sentences
#
# The sampler keeps the constant pools tiny on purpose: the auxiliary
# alphabet of the Nivat translation is alphabet x left-values x
# right-values, and evaluating the translated-back sentence enumerates
# subsets per auxiliary letter, so everything downstream stays feasible
# only if at most one side of the value family varies per sentence.


def _leaf_guard(rng: random.Random, alphabet, var: str, setvar):
    from . import rdl
    kinds = ["letter", "letter", "first", "last", "closed"]
    if setvar is not None:
        kinds += ["dist", "dist"]
    kind = rng.choice(kinds)
    if kind == "letter":
        return rdl.Letter(rng.choice(tuple(alphabet)), var)
    if kind == "first":
        return rdl.rdl_first(var)
    if kind == "last":
        return rdl.rdl_last(var)
    if kind == "dist":
        return rdl.Dist(rng.choice(_RELS), rng.randint(0, 3), setvar, var)
    return rdl.ExistsFO("w0", rdl.Letter(rng.choice(tuple(alphabet)), "w0"))


def _almost_boolean(rng: random.Random, alphabet, var: str, setvar,
                    pool, depth: int):
    from .wrdl import And, Bool, Const, Or
    if depth > 0 and rng.random() < 0.5:
        op = Or if rng.random() < 0.5 else And
        return op(_almost_boolean(rng, alphabet, var, setvar, pool, depth - 1),
                  _almost_boolean(rng, alphabet, var, setvar, pool, depth - 1))
    if rng.random() < 0.45:
        return Const(Fraction(rng.choice(pool)))
    return Bool(_leaf_guard(rng, alphabet, var, setvar))


def random_restricted_sentence(rng: random.Random, alphabet=("a", "b")):
    """A random syntactically restricted sentence over small value pools.

    When the alphabet has two letters, only one of the two value
    families is allowed to vary, keeping the Nivat alphabet at four
    letters or fewer.
    """
    from . import rdl
    from .wrdl import And, Bool, ExistsSO, Forall, Or, wrdl_classify
    alphabet = tuple(alphabet)
    if len(alphabet) == 1:
        pools = ([0, 1], [0, 1])
    elif rng.random() < 0.5:
        pools = ([0, 1], [0])
    else:
        pools = ([0], [0, 1])

    setvar = "Y" if rng.random() < 0.5 else None

    def forall_block():
        return Forall("x",
                      _almost_boolean(rng, alphabet, "x", setvar, pools[0], 1),
                      _almost_boolean(rng, alphabet, "x", setvar, pools[1], 1))

    body = forall_block()
    roll = rng.random()
    if roll < 0.25:
        body = Or(body, forall_block())
    elif roll < 0.5:
        closed = rdl.ExistsFO("w1", _leaf_guard(rng, alphabet, "w1", None))
        body = And(Bool(closed), body)
    if setvar is not None:
        body = ExistsSO(setvar, body)

    decision = wrdl_classify(body)
    if not (decision.is_sentence and decision.syntactically_restricted):
        raise AssertionError("sampler produced a non-restricted sentence")
    return body
