"""Shared helpers plus the acceptance summary printed after each run."""

import dataclasses
import itertools
import math
from collections import deque
from fractions import Fraction
from operator import attrgetter, itemgetter

import mpmath

from watl import fixtures, optcost, rdl, wrdl
from watl.core import (_COMPARE, RELATIONS, ClockAtom, ClockConstraint, Edge, TimedAutomaton,
                       TimedWord, constraint_satisfiable, enumerate_runs)
from watl.errors import DomainError, UnsupportedGuardError
from watl.monoids import WeightPairWord, monoid_from_id, sum_over
from watl.optcost import Region
from watl.transform import NivatTriple, comp_automaton, product_intersect, relabel
from watl.weights import INF, NEG_INF, format_weight, is_finite
from watl.wta import WeightedTimedAutomaton, behavior, run_weight


def wd(*entries):
    """Build a timed word from (letter, delay) pairs with exact delays."""
    return TimedWord(tuple((letter, Fraction(delay)) for letter, delay in entries))


# Nine tested summands under one universal: its canonical form has 2^9
# guards, and the language sentence of its triple one clause per guard.
WIDE_UNIVERSAL = "all x. (" + " | ".join(f"(B(P[a](x)) & {k})" for k in range(9)) + ", 0)"


def outcome(evaluate, *args, **kwargs):
    """The value, or the type and message of the error raised."""
    try:
        return evaluate(*args, **kwargs)
    except Exception as exc:  # the comparison is the test
        return type(exc), str(exc)


def disc_quadrature(entries, lam):
    """Numerically integrate a discounted valuation, step by step.

    Independent oracle for the closed-form evaluator: the rate part of
    each step is integrated with adaptive quadrature instead of the
    antiderivative.  ``entries`` is a sequence of ((m, mp), t) triples.
    """
    def to_mpf(q):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

    with mpmath.workdps(50):
        lam_ = to_mpf(lam)
        total = mpmath.mpf(0)
        elapsed = mpmath.mpf(0)
        for (m, mp_), t in entries:
            t_ = to_mpf(t)
            factor = lam_ ** elapsed
            rate_part = mpmath.quad(lambda tau: lam_ ** tau, [0, t_]) * to_mpf(m)
            disc_part = lam_ ** t_ * to_mpf(mp_)
            total += factor * (rate_part + disc_part)
            elapsed += t_
        return total


_FO_NAMES = ("x", "y", "z")
_SO_NAMES = ("X", "Y")
_DELAYS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def random_rdl_formula(rng, depth=3):
    """A random formula of at most the given depth over the letters a, b
    and the variables x, y, z, X, Y, with distance bounds 0..3.  The name
    pools are small, so binders often rebind a name bound outside them
    and most formulas keep some variables free."""
    if depth == 0 or rng.random() < 0.25:
        var = rng.choice(_FO_NAMES)
        kind = rng.randrange(4)
        if kind == 0:
            return rdl.Letter(rng.choice("ab"), var)
        if kind == 1:
            return rdl.Leq(var, rng.choice(_FO_NAMES))
        if kind == 2:
            return rdl.InSet(rng.choice(_SO_NAMES), var)
        return rdl.Dist(rng.choice(RELATIONS), rng.randint(0, 3), rng.choice(_SO_NAMES), var)
    kind = rng.randrange(5)
    if kind == 0:
        return rdl.Not(random_rdl_formula(rng, depth - 1))
    if kind == 1:
        return rdl.Or(random_rdl_formula(rng, depth - 1), random_rdl_formula(rng, depth - 1))
    if kind == 2:
        return rdl.ExistsFO(rng.choice(_FO_NAMES), random_rdl_formula(rng, depth - 1))
    if kind == 3:
        return rdl.ExistsSO(rng.choice(_SO_NAMES), random_rdl_formula(rng, depth - 1))
    return rdl.rdl_and(random_rdl_formula(rng, depth - 1), random_rdl_formula(rng, depth - 1))


def random_weighted_formula(rng, depth):
    """A random weighted formula over x, y, z, X, Y whose payloads stay in
    the past fragment; binders may rebind names bound outside them."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return wrdl.Const(Fraction(rng.randint(0, 2)))
        payload = random_rdl_formula(rng, depth=2)
        while not rdl.classify(payload).in_rdl_past:
            payload = random_rdl_formula(rng, depth=2)
        return wrdl.Bool(payload)
    kind = rng.randrange(5)
    if kind == 0:
        return wrdl.Or(random_weighted_formula(rng, depth - 1),
                       random_weighted_formula(rng, depth - 1))
    if kind == 1:
        return wrdl.And(random_weighted_formula(rng, depth - 1),
                        random_weighted_formula(rng, depth - 1))
    if kind == 2:
        return wrdl.ExistsFO(rng.choice("xyz"), random_weighted_formula(rng, depth - 1))
    if kind == 3:
        return wrdl.Forall(rng.choice("xyz"), random_weighted_formula(rng, depth - 1),
                           random_weighted_formula(rng, depth - 1))
    return wrdl.ExistsSO(rng.choice("XY"), random_weighted_formula(rng, depth - 1))


def random_comparing_payload(rng, alphabet, var, setvar, names=("z", "u")):
    """A random test at position var that compares positions: a letter
    test, a membership or distance test on setvar, or an existential over
    a position strictly before var, strictly after it, or at or before
    it, whose body is such a test at that position (bound to the next of
    names, so no binder shadows another); negated a third of the time."""
    kinds = ["letter", "letter"]
    if setvar is not None:
        kinds += ["member", "dist"]
    if names:
        kinds += ["earlier", "later", "upto"]
    kind = rng.choice(kinds)
    if kind == "letter":
        test = rdl.Letter(rng.choice(alphabet), var)
    elif kind == "member":
        test = rdl.InSet(setvar, var)
    elif kind == "dist":
        test = rdl.Dist(rng.choice(("<", "<=", "=", ">", ">=")), rng.randint(0, 2), setvar, var)
    else:
        z = names[0]
        order = {"earlier": rdl.rdl_and(rdl.Leq(z, var), rdl.Not(rdl.Leq(var, z))),
                 "later": rdl.rdl_and(rdl.Leq(var, z), rdl.Not(rdl.Leq(z, var))),
                 "upto": rdl.Leq(z, var)}[kind]
        body = random_comparing_payload(rng, alphabet, z, setvar, names[1:])
        test = rdl.ExistsFO(z, rdl.rdl_and(order, body))
    return rdl.Not(test) if rng.random() < 1 / 3 else test


def random_comparing_sentence(rng, alphabet=("a", "b")):
    """A random restricted sentence all x. (L, R) whose payloads are drawn
    by ``random_comparing_payload``, under EX X half the time.  Half the
    time it sits under a weighted existential, ex y. (B(test at y) &
    all x. (L, R)), whose canonical form tests that the witness set of y
    is a singleton; L and R then compare x with y instead, the only
    mention of x that the guard compiler accepts inside ex y."""
    alphabet = tuple(alphabet)
    setvar = "X" if rng.random() < 0.5 else None
    weighted = rng.random() < 0.5

    def payload():
        if weighted:
            left, right = rng.sample(("x", "y"), 2)
            test = rdl.Leq(left, right)
            return rdl.Not(test) if rng.random() < 0.5 else test
        return random_comparing_payload(rng, alphabet, "x", setvar)

    def operand(pool):
        parts = [wrdl.Bool(payload()) if rng.random() < 0.6 else
                 wrdl.Const(Fraction(rng.choice(pool))) for _ in range(rng.randint(1, 2))]
        if len(parts) == 1:
            return parts[0]
        return (wrdl.Or if rng.random() < 0.5 else wrdl.And)(*parts)

    body = wrdl.Forall("x", operand((0, 1)), operand((0, 2)))
    if weighted:
        test = random_comparing_payload(rng, alphabet, "y", setvar)
        body = wrdl.ExistsFO("y", wrdl.And(wrdl.Bool(test), body))
    if setvar is not None:
        body = wrdl.ExistsSO(setvar, body)
    assert wrdl.wrdl_classify(body).syntactically_restricted
    return body


def brute_free_vars(formula):
    """The structural-recursion oracle for ``rdl.free_vars``."""
    if isinstance(formula, rdl.Letter):
        return frozenset([formula.var]), frozenset()
    if isinstance(formula, rdl.Leq):
        return frozenset([formula.left, formula.right]), frozenset()
    if isinstance(formula, (rdl.InSet, rdl.Dist)):
        return frozenset([formula.var]), frozenset([formula.setvar])
    if isinstance(formula, rdl.Not):
        return brute_free_vars(formula.sub)
    if isinstance(formula, rdl.Or):
        lf, ls = brute_free_vars(formula.left)
        rf, rs = brute_free_vars(formula.right)
        return lf | rf, ls | rs
    if isinstance(formula, rdl.ExistsFO):
        fo, so = brute_free_vars(formula.sub)
        return fo - {formula.var}, so
    if isinstance(formula, rdl.ExistsSO):
        fo, so = brute_free_vars(formula.sub)
        return fo, so - {formula.setvar}
    raise TypeError(f"not a formula: {formula!r}")


def brute_dist_vars(formula):
    """The structural-recursion oracle for ``rdl.dist_vars``."""
    if isinstance(formula, rdl.Dist):
        return frozenset([formula.setvar])
    if isinstance(formula, (rdl.Letter, rdl.Leq, rdl.InSet)):
        return frozenset()
    if isinstance(formula, (rdl.Not, rdl.ExistsFO, rdl.ExistsSO)):
        return brute_dist_vars(formula.sub)
    if isinstance(formula, rdl.Or):
        return brute_dist_vars(formula.left) | brute_dist_vars(formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def brute_so_quantified_vars(formula):
    """The structural-recursion oracle for ``rdl.so_quantified_vars``."""
    if isinstance(formula, rdl.ExistsSO):
        return brute_so_quantified_vars(formula.sub) | {formula.setvar}
    if isinstance(formula, (rdl.Letter, rdl.Leq, rdl.InSet, rdl.Dist)):
        return frozenset()
    if isinstance(formula, (rdl.Not, rdl.ExistsFO)):
        return brute_so_quantified_vars(formula.sub)
    if isinstance(formula, rdl.Or):
        return brute_so_quantified_vars(formula.left) | brute_so_quantified_vars(formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def brute_variable_names(formula):
    """The structural-recursion oracle for ``rdl.variable_names``."""
    if isinstance(formula, rdl.Letter):
        return {formula.var}
    if isinstance(formula, rdl.Leq):
        return {formula.left, formula.right}
    if isinstance(formula, (rdl.InSet, rdl.Dist)):
        return {formula.setvar, formula.var}
    if isinstance(formula, rdl.Not):
        return brute_variable_names(formula.sub)
    if isinstance(formula, rdl.Or):
        return brute_variable_names(formula.left) | brute_variable_names(formula.right)
    if isinstance(formula, rdl.ExistsFO):
        return brute_variable_names(formula.sub) | {formula.var}
    if isinstance(formula, rdl.ExistsSO):
        return brute_variable_names(formula.sub) | {formula.setvar}
    raise TypeError(f"not a formula: {formula!r}")


def brute_classify(formula):
    """The oracle for ``rdl.classify``, read off its docstring: strip the
    EX prefix, then compare the oracles' facts of the formula and of the
    body under the prefix."""
    fo, so = brute_free_vars(formula)
    dist = brute_dist_vars(formula)
    prefix, body = [], formula
    while isinstance(body, rdl.ExistsSO):
        prefix.append(body.setvar)
        body = body.sub
    sentence = not fo and not so
    body_dist = brute_dist_vars(body)
    return rdl.RdlClassification(
        dist, fo, so, sentence,
        in_rdl_past=not brute_so_quantified_vars(formula) & dist,
        exists_rdl_past_sentence=(sentence and len(set(prefix)) == len(prefix)
                                  and set(prefix) == body_dist
                                  and not brute_so_quantified_vars(body) & body_dist))


def brute_wrdl_free_vars(formula):
    """The structural-recursion oracle for ``wrdl.free_vars``."""
    if isinstance(formula, wrdl.Bool):
        return brute_free_vars(formula.payload)
    if isinstance(formula, wrdl.Const):
        return frozenset(), frozenset()
    if isinstance(formula, (wrdl.Or, wrdl.And, wrdl.Forall)):
        lf, ls = brute_wrdl_free_vars(formula.left)
        rf, rs = brute_wrdl_free_vars(formula.right)
        bound = {formula.var} if isinstance(formula, wrdl.Forall) else set()
        return (lf | rf) - bound, ls | rs
    if isinstance(formula, wrdl.ExistsFO):
        fo, so = brute_wrdl_free_vars(formula.sub)
        return fo - {formula.var}, so
    if isinstance(formula, wrdl.ExistsSO):
        fo, so = brute_wrdl_free_vars(formula.sub)
        return fo, so - {formula.setvar}
    raise TypeError(f"not a weighted formula: {formula!r}")


def brute_to_text(formula):
    """The structural-recursion oracle for ``rdl.to_text``."""
    if isinstance(formula, rdl.Letter):
        return f"P[{formula.letter}]({formula.var})"
    if isinstance(formula, rdl.Leq):
        return f"{formula.left} <= {formula.right}"
    if isinstance(formula, rdl.InSet):
        return f"{formula.setvar}({formula.var})"
    if isinstance(formula, rdl.Dist):
        return f"dpast[{formula.rel}{formula.bound}]({formula.setvar},{formula.var})"
    if isinstance(formula, rdl.Not):
        return f"!({brute_to_text(formula.sub)})"
    if isinstance(formula, rdl.Or):
        return f"({brute_to_text(formula.left)} | {brute_to_text(formula.right)})"
    if isinstance(formula, rdl.ExistsFO):
        return f"(ex {formula.var}. {brute_to_text(formula.sub)})"
    if isinstance(formula, rdl.ExistsSO):
        return f"(EX {formula.setvar}. {brute_to_text(formula.sub)})"
    raise TypeError(f"not a formula: {formula!r}")


def brute_wrdl_to_text(formula):
    """The structural-recursion oracle for ``wrdl.to_text``."""
    text = brute_wrdl_to_text
    if isinstance(formula, wrdl.Bool):
        return f"B({brute_to_text(formula.payload)})"
    if isinstance(formula, wrdl.Const):
        return format_weight(formula.value)
    if isinstance(formula, wrdl.Or):
        return f"({text(formula.left)} | {text(formula.right)})"
    if isinstance(formula, wrdl.And):
        return f"({text(formula.left)} & {text(formula.right)})"
    if isinstance(formula, wrdl.ExistsFO):
        return f"(ex {formula.var}. {text(formula.sub)})"
    if isinstance(formula, wrdl.Forall):
        return f"(all {formula.var}. ({text(formula.left)}, {text(formula.right)}))"
    if isinstance(formula, wrdl.ExistsSO):
        return f"(EX {formula.setvar}. {text(formula.sub)})"
    raise TypeError(f"not a weighted formula: {formula!r}")


def random_short_word(rng, max_len=6):
    """A word over a, b of 1..max_len letters whose delays come from
    {0, 1/2, 1, 2}, so zero delays and distances equal to a bound occur."""
    return TimedWord(tuple((rng.choice("ab"), rng.choice(_DELAYS))
                           for _ in range(rng.randint(1, max_len))))


def dist_holds(word: TimedWord, positions: frozenset, position: int, rel: str, bound: int) -> bool:
    """Truth of the past distance predicate at a position.

    Positions in the set at or after ``position`` are ignored; without an
    earlier set position the absolute event time is compared.
    """
    sums = word.prefix_sums()
    earlier = [z for z in positions if z < position]
    if earlier:
        delta = sums[position - 1] - sums[max(earlier) - 1]
    else:
        delta = sums[position - 1]
    return _COMPARE[rel](delta, bound)


def _brute_check(node, word, sigma):
    """Structural recursion over the formula with frozenset position
    sets and one copied assignment per binding."""
    if isinstance(node, rdl.Letter):
        return word.entries[sigma.fo[node.var] - 1][0] == node.letter
    if isinstance(node, rdl.Leq):
        return sigma.fo[node.left] <= sigma.fo[node.right]
    if isinstance(node, rdl.InSet):
        return sigma.fo[node.var] in sigma.so[node.setvar]
    if isinstance(node, rdl.Dist):
        return dist_holds(word, sigma.so[node.setvar], sigma.fo[node.var],
                          node.rel, node.bound)
    if isinstance(node, rdl.Not):
        return not _brute_check(node.sub, word, sigma)
    if isinstance(node, rdl.Or):
        return _brute_check(node.left, word, sigma) or _brute_check(node.right, word, sigma)
    if isinstance(node, rdl.ExistsFO):
        return any(_brute_check(node.sub, word, sigma.with_fo(node.var, i))
                   for i in range(1, len(word) + 1))
    if isinstance(node, rdl.ExistsSO):
        n = len(word)
        for mask in range(2 ** n):
            subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            if _brute_check(node.sub, word, sigma.with_so(node.setvar, subset)):
                return True
        return False
    raise TypeError(f"not a formula: {node!r}")


def brute_model_check(formula, word, assignment=None):
    """The structural-recursion oracle for the compiled ``rdl.model_check``,
    with the same validation and errors."""
    sigma = assignment or rdl.Assignment()
    rdl.validate_assignment(rdl.free_vars(formula), word, sigma, "model check")
    return _brute_check(formula, word, sigma)


def brute_wrdl_eval(formula, word, monoid, assignment=None):
    """The structural-recursion oracle for the compiled ``wrdl.wrdl_eval``:
    every subformula is evaluated afresh at every binding, with the same
    validation, errors and order of monoid operations."""
    monoid = wrdl._require_pv(monoid)
    wrdl.validate_formula(formula, monoid)
    sigma = assignment or rdl.Assignment()
    rdl.validate_assignment(wrdl.free_vars(formula), word, sigma, "evaluation")
    n = len(word)

    def ev(node, sigma):
        if isinstance(node, wrdl.Bool):
            return monoid.one if _brute_check(node.payload, word, sigma) else monoid.zero
        if isinstance(node, wrdl.Const):
            return node.value
        if isinstance(node, wrdl.Or):
            return monoid.plus(ev(node.left, sigma), ev(node.right, sigma))
        if isinstance(node, wrdl.And):
            return monoid.diamond(ev(node.left, sigma), ev(node.right, sigma))
        if isinstance(node, wrdl.ExistsFO):
            return sum_over(monoid, (ev(node.sub, sigma.with_fo(node.var, i))
                                     for i in range(1, n + 1)))
        if isinstance(node, wrdl.Forall):
            entries = []
            for i in range(1, n + 1):
                inner = sigma.with_fo(node.var, i)
                entries.append(((ev(node.left, inner), ev(node.right, inner)),
                                word.delays[i - 1]))
            return monoid.val(WeightPairWord(tuple(entries)))
        if isinstance(node, wrdl.ExistsSO):
            def values():
                for mask in range(2 ** n):
                    subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                    yield ev(node.sub, sigma.with_so(node.setvar, subset))
            return sum_over(monoid, values())
        raise TypeError(f"not a weighted formula: {node!r}")

    return ev(formula, sigma)


def brute_behavior(automaton, word):
    """Plus-sum of the valuated weight of every enumerated run: the
    run-by-run oracle for the configuration fold in ``behavior``."""
    runs = enumerate_runs(automaton.base, word)
    return sum_over(automaton.monoid, (run_weight(automaton, run) for run in runs))


def brute_nivat_eval(triple, word, monoid):
    """Plus-sum of val(g(v)) over every h-preimage v of the word that the
    language accepts, membership decided by enumerating runs."""
    options = [[c for c in triple.gamma if triple.h[c] == letter] for letter, _ in word]
    values = []
    for choice in itertools.product(*options):
        preimage = TimedWord(tuple((c, t) for c, (_, t) in zip(choice, word)))
        if isinstance(triple.language, TimedAutomaton):
            accepted = bool(enumerate_runs(triple.language, preimage))
        else:
            accepted = brute_model_check(triple.language, preimage)
        if accepted:
            values.append(monoid.val(WeightPairWord(tuple(
                (triple.g[c], t) for c, (_, t) in zip(choice, word)))))
    return sum_over(monoid, values)


def brute_product_intersect(weighted, language):
    """The weighted automaton restricted to the acceptor by testing every
    pair of edges for a shared label: the nested-loop oracle for the
    by-label pairing in ``product_intersect`` (which also refuses the
    unsound configurations; this does not)."""
    a_base = weighted.base
    left_clock = {c: f"l.{c}" for c in a_base.clocks}
    right_clock = {c: f"r.{c}" for c in language.clocks}

    def loc(la, lb):
        return f"({la},{lb})"

    edges = []
    edge_weights = {}
    for ea in a_base.edges:
        for eb in language.edges:
            if ea.label != eb.label:
                continue
            guard = ea.guard.rename_clocks(left_clock).conjoin(eb.guard.rename_clocks(right_clock))
            resets = frozenset(left_clock[c] for c in ea.resets) | frozenset(
                right_clock[c] for c in eb.resets)
            eid = f"({ea.id},{eb.id})"
            edges.append(Edge(eid, loc(ea.source, eb.source), ea.label, guard, resets,
                              loc(ea.target, eb.target)))
            edge_weights[eid] = weighted.edge_weights[ea.id]
    base = TimedAutomaton(
        alphabet=tuple(a for a in a_base.alphabet if a in set(language.alphabet)),
        locations=tuple(loc(la, lb) for la in a_base.locations for lb in language.locations),
        clocks=tuple(left_clock.values()) + tuple(right_clock.values()),
        initial=tuple(loc(la, lb) for la in a_base.initial for lb in language.initial),
        final=tuple(loc(la, lb) for la in a_base.final for lb in language.final),
        edges=tuple(edges),
        unambiguous=a_base.unambiguous and language.unambiguous,
    )
    location_weights = {loc(la, lb): weighted.location_weights[la]
                        for la in a_base.locations for lb in language.locations}
    return WeightedTimedAutomaton(base, weighted.monoid, location_weights, edge_weights)


def collapsed_triple(triple):
    """The triple with every auxiliary letter projected to 'a'."""
    return NivatTriple(triple.gamma, {c: "a" for c in triple.gamma},
                       triple.g, triple.language, triple.language_class)


def ambiguous_counting_triple():
    """Two auxiliary letters over 'a', a language accepting every word by
    two runs, and weights for the non-idempotent counting monoid: a
    triple that nivat_eval evaluates by enumerating the preimages."""
    gamma = ("g1", "g2")
    g = {"g1": (Fraction(0), Fraction(1)), "g2": (Fraction(0), Fraction(2))}
    return collapsed_triple(NivatTriple(gamma, {c: c for c in gamma}, g,
                                        fixtures.all_words_ambiguous(gamma),
                                        "recognizable"))


def pred_cycle(nodes, pred, source):
    """The first cycle of pred arcs that a scan from the nodes in order
    closes, as arcs in forward order from the node where it closes, or
    None: pred(n) is the arc into node n or None, source(arc) its source.
    Each node is marked by the first scan that reaches it."""
    mark = {}
    for start in nodes:
        node = start
        while node not in mark and (arc := pred(node)) is not None:
            mark[node] = start
            node = source(arc)
        if mark.get(node) == start:
            cycle = [pred(node)]
            while source(cycle[-1]) != node:
                cycle.append(pred(source(cycle[-1])))
            cycle.reverse()
            return cycle
    return None


def brute_bellman_ford(nodes, arcs, inits):
    """Bellman-Ford over Fraction costs and node-keyed dicts, relaxing the
    arcs in their given order until a round lowers no cost or its pred
    arcs close a cycle (``pred_cycle``): the plain oracle for the integer
    ``optcost._bellman_ford``, returning the same (dist, cycle, pred)."""
    dist = {n: None for n in nodes}
    pred = {}
    for n in inits:
        dist[n] = Fraction(0)
    cycle = None
    changed = True
    while changed and cycle is None:
        changed = False
        for arc in arcs:
            ds = dist[arc.src]
            if ds is None:
                continue
            candidate = ds + arc.cost
            dd = dist[arc.dst]
            if dd is None or candidate < dd:
                dist[arc.dst] = candidate
                pred[arc.dst] = arc
                changed = True
        if changed:
            cycle = pred_cycle(nodes, pred.get, lambda arc: arc.src)
    return dist, cycle, pred


def grid_minimum(automaton, grid, max_len):
    """Exhaustive forward simulation over all grid-delay words.

    Keeps, per (location, valuation) configuration, the least cost of a
    grid word prefix reaching it: the cost of any continuation depends
    only on the configuration, so this is the minimum over all grid words
    of at most max_len letters.  A prefix with no surviving configuration
    cannot be extended into a run, so it drops out.
    """
    clocks = automaton.base.clocks
    frontier = {}
    for loc in automaton.base.initial:
        frontier[(loc, (Fraction(0),) * len(clocks))] = Fraction(0)
    best = None
    for _ in range(max_len):
        reached = {}
        for (loc, values), cost in frontier.items():
            for delay in grid:
                aged = dict(zip(clocks, (v + delay for v in values)))
                rate_cost = cost + automaton.location_weights[loc] * delay
                for letter in automaton.base.alphabet:
                    for edge in automaton.base.edges_from(loc, letter):
                        if not edge.guard.satisfied_by(aged):
                            continue
                        landed = tuple(Fraction(0) if c in edge.resets else aged[c]
                                       for c in clocks)
                        key = (edge.target, landed)
                        step_cost = rate_cost + automaton.edge_weights[edge.id]
                        if key not in reached or step_cost < reached[key]:
                            reached[key] = step_cost
        for (loc, _), cost in reached.items():
            if loc in automaton.base.final:
                if best is None or cost < best:
                    best = cost
        frontier = reached
        if not frontier:
            break
    return INF if best is None else best


# --- the Region-object corner graph: oracle for optcost's integer codes -----


def region_zero(max_consts) -> Region:
    return Region(tuple((c, ("eq", 0)) for c in sorted(max_consts)), (),
                  tuple(sorted(max_consts.items())))


def region_of(valuation, max_consts) -> Region:
    statuses = []
    buckets = {}
    for clock in sorted(max_consts):
        value = Fraction(valuation[clock])
        cap = max_consts[clock]
        if value > cap:
            statuses.append((clock, ("gt",)))
            continue
        whole = value.numerator // value.denominator
        frac = value - whole
        if frac == 0:
            statuses.append((clock, ("eq", whole)))
        else:
            statuses.append((clock, ("in", whole)))
            buckets.setdefault(frac, []).append(clock)
    fracs = tuple(frozenset(buckets[f]) for f in sorted(buckets))
    return Region(tuple(statuses), fracs, tuple(sorted(max_consts.items())))


def time_successor(region: Region) -> Region:
    """The region entered next under time elapse (self once all clocks
    are above their maximum constants)."""
    stats = dict(region.statuses)
    caps = dict(region.max_consts)
    if all(s[0] == "gt" for s in stats.values()):
        return region
    at_integer = [c for c, s in stats.items() if s[0] == "eq"]
    if at_integer:
        new = dict(stats)
        group = []
        for c in at_integer:
            k = stats[c][1]
            if k < caps[c]:
                new[c] = ("in", k)
                group.append(c)
            else:
                new[c] = ("gt",)
        fracs = ((frozenset(group),) + region.fracs) if group else region.fracs
        return Region(tuple(sorted(new.items())), fracs, region.max_consts)
    new = dict(stats)
    for c in region.fracs[-1]:
        new[c] = ("eq", stats[c][1] + 1)
    return Region(tuple(sorted(new.items())), region.fracs[:-1], region.max_consts)


def region_reset(region: Region, resets) -> Region:
    new = dict(region.statuses)
    for c in resets:
        new[c] = ("eq", 0)
    fracs = []
    for group in region.fracs:
        trimmed = group - frozenset(resets)
        if trimmed:
            fracs.append(trimmed)
    return Region(tuple(sorted(new.items())), tuple(fracs), region.max_consts)


def region_satisfies(region: Region, constraint: ClockConstraint) -> bool:
    """Whether the (uniform) points of the region satisfy the guard, by
    one representative value per status: k for ("eq", k), k + 1/2 for
    ("in", k), and the maximum constant plus one above it."""
    stats = dict(region.statuses)

    def representative(clock):
        status = stats[clock]
        if status[0] == "eq":
            return status[1]
        if status[0] == "in":
            return Fraction(2 * status[1] + 1, 2)
        return dict(region.max_consts)[clock] + 1

    return all(a.holds(representative(a.clock)) for a in constraint.atoms)


def region_corners(region: Region) -> tuple:
    """The integer vertices of the region's closure, indexed by how many
    of the largest fractional groups are rounded up; clocks above their
    maximum constant sit at M+1."""
    stats = dict(region.statuses)
    caps = dict(region.max_consts)
    base = {}
    for c, s in stats.items():
        base[c] = caps[c] + 1 if s[0] == "gt" else s[1]
    groups = region.fracs
    corners = []
    for up in range(len(groups) + 1):
        corner = dict(base)
        for gi in range(len(groups) - up, len(groups)):
            for c in groups[gi]:
                corner[c] = stats[c][1] + 1
        item = tuple(sorted(corner.items()))
        if item not in corners:
            corners.append(item)
    return tuple(corners)


def reachable_regions(max_consts) -> frozenset:
    """Regions reachable from the all-zero valuation by time elapse and
    single-clock resets."""
    start = region_zero(max_consts)
    seen = {start}
    queue = [start]
    while queue:
        region = queue.pop()
        steps = [time_successor(region)]
        steps.extend(region_reset(region, {c}) for c in max_consts)
        for nxt in steps:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def brute_corner_graph(wta):
    """The corner-point graph walked over ``Region`` objects, with the
    same checks, last-in first-out exploration, arc order and node sort
    key as ``optcost.build_corner_points``: the oracle for its integer
    codes."""
    wta.validate()
    if wta.monoid.id != "sum":
        raise DomainError(
            f"corner-point graphs need the sum monoid, got {wta.monoid.id!r}")
    optcost._require_finite_weights(wta)
    base = wta.base
    caps = base.max_constants()
    clocks = sorted(base.clocks)
    start_region = region_zero(caps)
    start_corner = tuple((c, 0) for c in clocks)
    inits = tuple((l, start_region, start_corner) for l in base.initial)
    nodes = set(inits)
    queue = list(inits)
    arcs = []
    corners_cache = {}
    edges_by_source = {}
    for e in base.edges:
        edges_by_source.setdefault(e.source, []).append(e)

    def push(node):
        if node not in nodes:
            nodes.add(node)
            queue.append(node)

    while queue:
        node = queue.pop()
        loc, region, corner = node
        rate = Fraction(wta.wt_location(loc))
        stats = dict(region.statuses)
        corner_map = dict(corner)
        tracked = any(s[0] != "gt" for s in stats.values())
        if not tracked:
            arcs.append(optcost.CornerArc(node, node, rate, 1, None))
        else:
            succ = time_successor(region)
            succ_corners = corners_cache.setdefault(succ, set(region_corners(succ)))
            succ_stats = dict(succ.statuses)

            def lift(bump):
                out = {}
                for c in clocks:
                    if succ_stats[c][0] == "gt":
                        out[c] = caps[c] + 1
                    else:
                        out[c] = corner_map[c] + bump
                return tuple(sorted(out.items()))

            slide = lift(0)
            if slide in succ_corners:
                target = (loc, succ, slide)
                arcs.append(optcost.CornerArc(node, target, Fraction(0), 0, None))
                push(target)
            unit = lift(1)
            if unit in succ_corners:
                target = (loc, succ, unit)
                arcs.append(optcost.CornerArc(node, target, rate, 1, None))
                push(target)
        for e in edges_by_source.get(loc, ()):
            if not region_satisfies(region, e.guard):
                continue
            reset_region = region_reset(region, e.resets)
            reset_corner = tuple(
                (c, 0 if c in e.resets else corner_map[c]) for c in clocks)
            target = (e.target, reset_region, reset_corner)
            arcs.append(optcost.CornerArc(node, target, Fraction(wta.wt_edge(e.id)), 0, e))
            push(target)
    final = set(base.final)
    ordered = tuple(sorted(nodes, key=corner_node_key))
    accepting = tuple(n for n in ordered if n[0] in final)
    return optcost.CornerPointGraph(ordered, tuple(arcs), inits, accepting)


def corner_node_key(node):
    """The documented sort key of corner nodes, read off a ``Region``:
    location, clock codes (2k at k, 2k+1 inside (k, k+1), 2*cap+2 above
    the cap), fractional groups as sorted clock-index tuples, corner."""
    loc, region, corner = node
    caps = dict(region.max_consts)
    index = {c: i for i, (c, _) in enumerate(region.statuses)}
    codes = tuple(2 * caps[c] + 2 if s[0] == "gt" else 2 * s[1] + (s[0] == "in")
                  for c, s in region.statuses)
    groups = tuple(tuple(sorted(index[c] for c in group)) for group in region.fracs)
    return loc, codes, groups, tuple(value for _, value in corner)


# --- the Region-node cost search: oracle for optcost's search on node numbers
#
# optcost's earlier search over the nodes and arcs of ``build_corner_points``,
# kept as it was: the reach and co-reach searches over node-keyed dicts,
# Bellman-Ford over node keys, the negative-cycle walk and witness pumping.


_SRC, _DST = attrgetter("src"), attrgetter("dst")


def keyed_bellman_ford(nodes, arcs, inits):
    """``brute_bellman_ford`` on exact integers over indexed nodes: every
    cost times the least common multiple of the cost denominators, the
    arcs relaxed in the same order and the same stop, the results
    Fractions and node keys again at the end (equal to the Fraction
    oracle's, only faster)."""
    order = list(nodes)
    index = {n: i for i, n in enumerate(order)}
    scale = math.lcm(*{a.cost.denominator for a in arcs})
    rows = [(index[a.src], index[a.dst],
             a.cost.numerator * (scale // a.cost.denominator), a) for a in arcs]
    dist = [None] * len(order)
    pred = [None] * len(order)
    for n in inits:
        dist[index[n]] = 0
    cycle = None
    changed = True
    while changed and cycle is None:
        changed = False
        for s, d, cost, arc in rows:
            ds = dist[s]
            if ds is None:
                continue
            candidate = ds + cost
            dd = dist[d]
            if dd is None or candidate < dd:
                dist[d] = candidate
                pred[d] = arc
                changed = True
        if changed:
            cycle = pred_cycle(range(len(order)), pred.__getitem__, lambda a: index[a.src])
    return ({n: None if v is None else Fraction(v, scale) for n, v in zip(order, dist)},
            cycle,
            {n: arc for n, arc in zip(order, pred) if arc is not None})


def _adjacency(arcs, end=_SRC) -> dict:
    """The arcs grouped by the node at the given end, in arc order."""
    out = {}
    for arc in arcs:
        out.setdefault(end(arc), []).append(arc)
    return out


def _bfs(sources, adjacency, ahead=_DST, targets=()):
    """Breadth-first search from the sources along the arcs of the
    adjacency map: (parent, first node found in targets or None)."""
    parent = dict.fromkeys(sources)
    for node in parent:
        if node in targets:
            return parent, node
    queue = deque(parent)
    while queue:
        for arc in adjacency.get(queue.popleft(), ()):
            node = ahead(arc)
            if node not in parent:
                parent[node] = arc
                if node in targets:
                    return parent, node
                queue.append(node)
    return parent, None


def _path_to(parent, node) -> list:
    path = []
    while (arc := parent[node]) is not None:
        path.append(arc)
        node = arc.src
    path.reverse()
    return path


def _useful_subgraph(graph):
    acc_nodes = set(graph.accepting)
    acc_arcs = [a for a in graph.arcs
                if a.edge is not None and a.dst in acc_nodes]
    reach, _ = _bfs(graph.initial, _adjacency(graph.arcs))
    co, _ = _bfs({a.src for a in acc_arcs}, _adjacency(graph.arcs, _DST), _SRC)
    useful = reach.keys() & co.keys()
    arcs = [a for a in graph.arcs if a.src in useful and a.dst in useful]
    inits = tuple(n for n in graph.initial if n in useful)
    acc_arcs = [a for a in acc_arcs if a.src in useful]
    return useful, arcs, inits, acc_arcs


def _word_of_path(path):
    letters = []
    delays = []
    pending = Fraction(0)
    for arc in path:
        if arc.edge is None:
            pending += arc.time
        else:
            letters.append(arc.edge.label)
            delays.append(pending)
            pending = Fraction(0)
    if not letters:
        return None
    return TimedWord.from_pairs(zip(letters, delays))


def brute_attained(graph, value, length) -> bool:
    """Whether some accepting region path of at most ``length`` arcs has
    all its corner paths at ``value``: the corner paths of a public corner
    graph from each initial node, grouped by the region path they follow.

    A group is the set of (node, least cost, greatest cost) over the last
    nodes its corner paths reach; a step (the delay, or one edge) extends
    every path of the group, and every node of a group has an arc for
    every step that one of them has (checked).  A group already seen is
    not explored again."""
    out = _adjacency(graph.arcs)
    accepting = set(graph.accepting)
    layer = [frozenset({(node, Fraction(0), Fraction(0))}) for node in graph.initial]
    seen = set(layer)
    for _ in range(length):
        following = []
        for group in layer:
            steps = {}
            for node, _, _ in group:
                for arc in out.get(node, ()):
                    steps.setdefault(arc.edge, {}).setdefault(node, []).append(arc)
            for edge, by_node in steps.items():
                assert len(by_node) == len(group), "a corner misses a step of its region"
                costs = {}
                for node, low, high in group:
                    for arc in by_node[node]:
                        was = costs.get(arc.dst, (low + arc.cost, high + arc.cost))
                        costs[arc.dst] = (min(was[0], low + arc.cost),
                                          max(was[1], high + arc.cost))
                if (edge is not None and all(dst in accepting for dst in costs)
                        and all(low == high == value for low, high in costs.values())):
                    return True
                nxt = frozenset((dst, low, high) for dst, (low, high) in costs.items())
                if nxt not in seen:
                    seen.add(nxt)
                    following.append(nxt)
        layer = following
    return False


def brute_inf_cost(wta, corner_graph=optcost.build_corner_points):
    """``optcost.inf_cost`` without its witness: the value and corner word
    searched over the ``Region`` nodes and ``CornerArc``s of a public
    corner graph (``build_corner_points`` or ``brute_corner_graph``), and
    attainment by ``brute_attained`` up to twice the optimal corner path's
    length: an optimal corner path may end in an open region whose
    corners cost differently, where an attaining region path goes on
    delaying to the face that holds the optimal corner."""
    graph = corner_graph(wta)
    useful, arcs, inits, acc_arcs = _useful_subgraph(graph)
    if not acc_arcs or not inits:
        return optcost.InfCostResult(INF, False, None, None)
    dist, cycle, _ = keyed_bellman_ford(useful, arcs, inits)
    if cycle:
        return optcost.InfCostResult(NEG_INF, False, None, None)
    best = None
    best_arc = None
    for arc in acc_arcs:
        ds = dist[arc.src]
        if ds is None:
            continue
        value = ds + arc.cost
        if best is None or value < best:
            best = value
            best_arc = arc
    if best is None:
        return optcost.InfCostResult(INF, False, None, None)
    tight = _adjacency(a for a in arcs if dist[a.src] is not None and dist[a.dst] is not None
                       and dist[a.src] + a.cost == dist[a.dst])
    parent, _ = _bfs([n for n in inits if dist[n] == 0], tight)
    path = _path_to(parent, best_arc.src) + [best_arc]
    return optcost.InfCostResult(best, brute_attained(graph, best, 2 * len(path)), None,
                                 _word_of_path(path))


def check_inf_cost(wta, result, corner_graph=optcost.build_corner_points) -> None:
    """Assert that ``result`` is ``inf_cost(wta)`` as the Region-node oracle
    has it, and that an attaining witness is valued the infimum."""
    want = brute_inf_cost(wta, corner_graph)
    assert dataclasses.replace(result, witness=None) == want
    assert (result.witness is not None) == result.attained
    if result.attained:
        assert behavior(wta, result.witness) == result.value


def check_witness_below(wta, result, bound, strict, found) -> None:
    """Assert that ``witness_below`` found a word exactly when one exists,
    and that the word is valued as claimed and below the bound."""
    value = result.value
    exists = value is NEG_INF or (is_finite(value) and (
        value < bound or (not strict and value == bound and result.attained)))
    assert (found is not None) == exists
    if found is not None:
        word, claimed = found
        assert behavior(wta, word) == claimed
        assert optcost._below(claimed, bound, strict)


_FROM, _TO = itemgetter(0), itemgetter(1)


def check_certificate(wta, search) -> None:
    """Assert that a finished ``optcost._Search`` of the automaton proves
    its infimum, by one pass over the arcs of ``optcost._useful_subgraph``
    and no Bellman-Ford.

    A finite value: the potentials ``dist`` (costs times ``scale``) hold at
    most 0 at every initial node, no useful arc s -> d of cost c has dist[d]
    above dist[s] + c * scale, and every accepting arc from a reached node
    costs at least the value.  Summed along any corner path, these prove
    that no accepting corner path costs less than the value; the search's
    optimal corner path, an accepting path from an initial node, costs
    exactly it.  An initial node need not hold 0: one initial node may
    reach another at a negative cost.

    Minus infinity: the cycle that stopped the search is closed and
    negative, is reached from an initial node and reaches an accepting arc,
    so pumping it goes below every bound.  An infinite value is not
    certified here."""
    _, _, arcs, inits, acc_arcs, _ = optcost._useful_subgraph(wta)
    forward = _adjacency(arcs, _FROM)
    if search.value is NEG_INF:
        cycle = search.cycle
        assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        assert sum(arc[2] for arc in cycle) < 0
        entry = cycle[0][0]
        assert _bfs(inits, forward, _TO, {entry})[1] == entry
        assert _bfs([entry], forward, _TO, {arc[0] for arc in acc_arcs})[1] is not None
        return
    if search.value is INF:
        return
    dist, scale, value = search.dist, search.scale, search.value
    assert all(dist[n] <= 0 for n in inits)
    for s, d, cost, _, _ in arcs:
        if dist[s] is not None:
            assert dist[d] is not None and dist[d] <= dist[s] + cost * scale
    assert all(Fraction(dist[s], scale) + cost >= value
               for s, _, cost, _, _ in acc_arcs if dist[s] is not None)
    path = search.corner_path
    assert path[0][0] in inits and set(path[:-1]) <= set(arcs) and path[-1] in acc_arcs
    assert all(a[1] == b[0] for a, b in zip(path, path[1:]))
    assert sum(arc[2] for arc in path) == value


class BruteSearch:
    """``optcost._Search`` answered by ``brute_inf_cost`` over the
    Region-object corner graph: the infimum and whether it is attained,
    but no witness."""

    def __init__(self, wta):
        result = brute_inf_cost(wta, brute_corner_graph)
        self.value = result.value
        self.attaining = result.attained or None

    def below(self, bound, strict):
        return None


# The oracle guard analysis for ``optcost._GuardCompiler``: guards become tuple
# trees, read by ``_eval_tree``; quantifier bodies go through a second,
# per-position recognizer that refuses nested existentials.


def _match_and(formula):
    """Recognize the derived conjunction Not(Or(Not(a), Not(b)))."""
    if not (isinstance(formula, rdl.Not) and isinstance(formula.sub, rdl.Or)):
        return None
    left, right = formula.sub.left, formula.sub.right
    if isinstance(left, rdl.Not) and isinstance(right, rdl.Not):
        return left.sub, right.sub
    return None


def _match_first(formula):
    """Recognize 'no position strictly precedes v'; returns v."""
    if isinstance(formula, rdl.Not) and isinstance(formula.sub, rdl.ExistsFO):
        w = formula.sub.var
        pair = _match_and(formula.sub.sub)
        if pair:
            p, q = pair
            if (isinstance(p, rdl.Leq) and isinstance(q, rdl.Not)
                    and isinstance(q.sub, rdl.Leq)):
                if (p.left == w and q.sub.right == w and p.right == q.sub.left
                        and p.right != w):
                    return p.right
    return None


def _match_last(formula):
    """Recognize 'no position strictly follows v'; returns v."""
    if isinstance(formula, rdl.Not) and isinstance(formula.sub, rdl.ExistsFO):
        w = formula.sub.var
        pair = _match_and(formula.sub.sub)
        if pair:
            p, q = pair
            if (isinstance(p, rdl.Leq) and isinstance(q, rdl.Not)
                    and isinstance(q.sub, rdl.Leq)):
                if (p.right == w and q.sub.left == w and p.left == q.sub.right
                        and p.left != w):
                    return p.left
    return None


def _match_singleton(formula):
    """Recognize 'X contains exactly one position' written as
    ex z. (X(z) & !(ex u. (X(u) & !(u <= z & z <= u)))) with u other
    than z; returns X."""
    if not isinstance(formula, rdl.ExistsFO):
        return None
    z = formula.var
    pair = _match_and(formula.sub)
    if not pair:
        return None
    member, rest = pair
    if not (isinstance(member, rdl.InSet) and member.var == z
            and isinstance(rest, rdl.Not) and isinstance(rest.sub, rdl.ExistsFO)):
        return None
    u = rest.sub.var
    pair = _match_and(rest.sub.sub)
    if u == z or not pair:
        return None
    member2, diff = pair
    if not (isinstance(member2, rdl.InSet) and member2.setvar == member.setvar
            and member2.var == u and isinstance(diff, rdl.Not)):
        return None
    pair = _match_and(diff.sub)
    if pair == (rdl.Leq(u, z), rdl.Leq(z, u)):
        return member.setvar
    return None


class _Analyzer:
    """Decomposes guards into per-position tests and global parts.

    Supported per-position leaves: a concrete letter test, membership of
    the position in a prefix set variable, a past-distance test (realized
    as a clock comparison), first/last position, and trivial
    reflexive orderings; a test of a letter outside the alphabet is a
    letter test wherever it looks.  Global parts are closed formulas of
    the shape 'some position satisfies a per-position test' or 'X is a
    singleton'.  Anything else raises UnsupportedGuardError.
    """

    def __init__(self, so_vars, letters):
        self.so = set(so_vars)
        self.letters = set(letters)
        self.parts = []
        self._keys = {}

    def _part(self, key, make):
        if key not in self._keys:
            self._keys[key] = len(self.parts)
            self.parts.append(make())
        return ("global", self._keys[key])

    def analyze(self, formula, pos):
        v = _match_first(formula)
        if v is not None:
            if v == pos:
                return ("first",)
            raise UnsupportedGuardError(
                f"first-position test on foreign variable {v!r}")
        v = _match_last(formula)
        if v is not None:
            if v == pos:
                return ("last",)
            raise UnsupportedGuardError(
                f"last-position test on foreign variable {v!r}")
        v = _match_singleton(formula)
        if v is not None and v in self.so:
            return self._part(("sing", v), lambda: ("singleton", v))
        if isinstance(formula, rdl.Letter):
            if formula.var == pos or formula.letter not in self.letters:
                return ("letter", formula.letter)
        elif isinstance(formula, rdl.Leq):
            if formula.left == formula.right:
                return ("true",)
        elif isinstance(formula, rdl.InSet):
            if formula.var == pos and formula.setvar in self.so:
                return ("bit", formula.setvar)
        elif isinstance(formula, rdl.Dist):
            if formula.var == pos and formula.setvar in self.so:
                if formula.rel == "=":
                    raise UnsupportedGuardError(
                        "exact-distance tests are outside the compiled fragment")
                return ("clock", formula.rel, formula.bound, formula.setvar)
        elif isinstance(formula, rdl.Not):
            return ("not", self.analyze(formula.sub, pos))
        elif isinstance(formula, rdl.Or):
            return ("or", self.analyze(formula.left, pos),
                    self.analyze(formula.right, pos))
        elif isinstance(formula, rdl.ExistsFO):
            tree = self._local(formula.sub, formula.var)
            return self._part(("exists", formula),
                              lambda: ("exists", formula.var, tree))
        raise UnsupportedGuardError(
            f"guard outside the compiled fragment: {rdl.to_text(formula)}")

    def _local(self, formula, pos):
        v = _match_first(formula)
        if v == pos:
            return ("first",)
        v = _match_last(formula)
        if v == pos:
            return ("last",)
        if isinstance(formula, rdl.Letter) and formula.var == pos:
            return ("letter", formula.letter)
        if isinstance(formula, rdl.Leq) and formula.left == formula.right:
            return ("true",)
        if isinstance(formula, rdl.InSet) and formula.var == pos \
                and formula.setvar in self.so:
            return ("bit", formula.setvar)
        if isinstance(formula, rdl.Dist) and formula.var == pos \
                and formula.setvar in self.so and formula.rel != "=":
            return ("clock", formula.rel, formula.bound, formula.setvar)
        if isinstance(formula, rdl.Not):
            return ("not", self._local(formula.sub, pos))
        if isinstance(formula, rdl.Or):
            return ("or", self._local(formula.left, pos),
                    self._local(formula.right, pos))
        raise UnsupportedGuardError(
            f"quantified body outside the per-position fragment: {rdl.to_text(formula)}")


def _eval_tree(tree, ctx):
    kind = tree[0]
    if kind == "true":
        return True
    if kind == "letter":
        return ctx["letter"] == tree[1]
    if kind == "bit":
        return tree[1] in ctx["bits"]
    if kind == "clock":
        return ctx["delta"][(tree[1], tree[2], tree[3])]
    if kind == "first":
        return ctx["first"]
    if kind == "last":
        return ctx["last"]
    if kind == "global":
        return ctx["tau"][tree[1]]
    if kind == "not":
        return not _eval_tree(tree[1], ctx)
    return _eval_tree(tree[1], ctx) or _eval_tree(tree[2], ctx)


def _clock_atoms_of(tree, acc):
    kind = tree[0]
    if kind == "clock":
        acc.add((tree[1], tree[2], tree[3]))
    elif kind == "not":
        _clock_atoms_of(tree[1], acc)
    elif kind == "or":
        _clock_atoms_of(tree[1], acc)
        _clock_atoms_of(tree[2], acc)


def _brute_moves(guards, so_vars, posvar, letters, fires):
    """Every consistent position context of a guard family, through the
    tuple-tree analysis, with the clock guard of every guessed delta
    built and checked for satisfiability inside the state loop.

    A context whose selected branch fails ``fires(letter, branch)``
    makes no move and reaches no state.  Returns (clock_of, starts,
    states, moves): moves are (state, letter, guard, resets, branch,
    next state, or None at the last position) in the order found, and
    states are the compiler states reached, the starts included."""
    analyzer = _Analyzer(so_vars, letters)
    trees = [analyzer.analyze(guard, posvar) for guard in guards]
    parts = analyzer.parts
    atoms = set()
    for tree in trees:
        _clock_atoms_of(tree, atoms)
    for part in parts:
        if part[0] == "exists":
            _clock_atoms_of(part[2], atoms)
    atoms = sorted(atoms)
    clock_vars = sorted({a[2] for a in atoms})
    if len(so_vars) > 4 or len(parts) > 4 or len(atoms) > 4:
        raise UnsupportedGuardError(
            "guard family too large for the compiled fragment "
            f"({len(so_vars)} set variables, {len(parts)} global parts, "
            f"{len(atoms)} distance atoms)")
    clock_of = {x: f"k_{x}" for x in clock_vars}
    exists_idx = [i for i, p in enumerate(parts) if p[0] == "exists"]
    sing_vars = [p[1] for p in parts if p[0] == "singleton"]
    sing_idx = [i for i, p in enumerate(parts) if p[0] == "singleton"]
    bit_choices = [frozenset(s) for r in range(len(so_vars) + 1)
                   for s in itertools.combinations(so_vars, r)]
    deltas = [dict(zip(atoms, bits))
              for bits in itertools.product((False, True), repeat=len(atoms))]
    taus = list(itertools.product((False, True), repeat=len(parts)))

    starts = [(0, tau, (False,) * len(parts), (0,) * len(sing_vars)) for tau in taus]
    seen = set(starts)
    queue = list(starts)
    moves = []
    while queue:
        state = queue.pop()
        phase, tau, wit, counts = state
        for letter in letters:
            for bits in bit_choices:
                resets = frozenset(clock_of[x] for x in bits if x in clock_of)
                for delta in deltas:
                    guard_atoms = tuple(
                        ClockAtom(clock_of[x], rel if truth else optcost._COMPLEMENT[rel], bound)
                        for (rel, bound, x), truth in delta.items())
                    guard = ClockConstraint(guard_atoms)
                    if guard_atoms and not constraint_satisfiable(guard):
                        continue
                    for last in (False, True):
                        ctx = {"letter": letter, "bits": bits, "delta": delta,
                               "first": phase == 0, "last": last, "tau": tau}
                        new_wit = list(wit)
                        rejected = False
                        for i in exists_idx:
                            if _eval_tree(parts[i][2], ctx):
                                if not tau[i]:
                                    rejected = True
                                    break
                                new_wit[i] = True
                        if rejected:
                            continue
                        truths = [_eval_tree(t, ctx) for t in trees]
                        if sum(truths) != 1 or not fires(letter, truths.index(True)):
                            continue
                        new_counts = tuple(min(2, counts[k] + (1 if x in bits else 0))
                                           for k, x in enumerate(sing_vars))
                        if last:
                            ok = all(new_wit[i] for i in exists_idx if tau[i])
                            for k, i in enumerate(sing_idx):
                                if tau[i] != (new_counts[k] == 1):
                                    ok = False
                            if not ok:
                                continue
                            nxt = None
                        else:
                            nxt = (1, tau, tuple(new_wit), new_counts)
                            if nxt not in seen:
                                seen.add(nxt)
                                queue.append(nxt)
                        moves.append((state, letter, guard, resets, truths.index(True), nxt))
    return clock_of, starts, seen, moves


def _brute_loc_name(state):
    phase, tau, wit, counts = state
    tau_s = "".join("1" if b else "0" for b in tau)
    wit_s = "".join("1" if b else "0" for b in wit)
    cnt_s = "".join(str(k) for k in counts)
    return f"q{phase}.{tau_s}.{wit_s}.{cnt_s}"


def brute_compile_guard_family(guards, values, alphabet, so_vars, posvar):
    """``optcost.compile_guard_family`` through ``_brute_moves``: the
    oracle for the closure compiler and for the construction that builds
    the guards once.  It refuses existentials nested in a quantifier body
    ("quantified body outside the per-position fragment"), which the
    compiler decides."""
    rates = []
    for m, mp in values:
        if is_finite(m) and is_finite(mp) and m not in rates:
            rates.append(m)
    clock_of, starts, seen, moves = _brute_moves(
        guards, so_vars, posvar, alphabet,
        lambda letter, branch: all(is_finite(v) for v in values[branch]))

    def name(state, m):
        return f"{_brute_loc_name(state)}@{rates.index(m)}"

    edges = []
    weights = {}
    for state, letter, guard, resets, branch, nxt in moves:
        m, mp = values[branch]
        for target in ["acc"] if nxt is None else [name(nxt, r) for r in rates]:
            eid = f"e{len(edges)}"
            edges.append(Edge(eid, name(state, m), letter, guard, resets, target))
            weights[eid] = mp
    location_rates = {name(s, m): m for s in sorted(seen) for m in rates}
    location_rates["acc"] = Fraction(0)
    automaton = TimedAutomaton(
        alphabet=tuple(alphabet),
        locations=tuple(location_rates),
        clocks=tuple(clock_of[x] for x in sorted(clock_of)),
        initial=tuple(name(s, m) for s in starts for m in rates),
        final=("acc",),
        edges=tuple(edges),
        unambiguous=False,
    )
    return optcost.CompiledFamily(automaton, location_rates, weights)


def nivat_compile_guard_family(guards, values, alphabet, so_vars, posvar):
    """``optcost.compile_guard_family`` through the whole Nivat
    translation: the public ``sentence_to_nivat`` (language sentence and
    self-check included), the guards relabelled onto its auxiliary
    alphabet and compiled there by ``_brute_moves`` into an acceptor of
    the gamma words whose letters carry their positions' branch values,
    the product of the comp automaton of g with that acceptor, and the
    product relabelled by h.  The values must lie in the sum0 monoid."""
    canonical = wrdl.CanonicalSentence(so_vars, posvar, guards, *zip(*values))
    triple = wrdl.sentence_to_nivat(canonical, tuple(alphabet), monoid_from_id("sum0"))
    clock_of, starts, seen, moves = _brute_moves(
        wrdl.relabeled_guards(canonical, triple.gamma, triple.h), so_vars, posvar,
        triple.gamma, lambda letter, branch: values[branch] == triple.g[letter])
    edges = tuple(
        Edge(f"e{k}", _brute_loc_name(state), letter, guard, resets,
             "acc" if nxt is None else _brute_loc_name(nxt))
        for k, (state, letter, guard, resets, _, nxt) in enumerate(moves))
    acceptor = TimedAutomaton(
        alphabet=triple.gamma,
        locations=tuple(_brute_loc_name(s) for s in sorted(seen)) + ("acc",),
        clocks=tuple(clock_of[x] for x in sorted(clock_of)),
        initial=tuple(_brute_loc_name(s) for s in starts),
        final=("acc",),
        edges=edges,
        unambiguous=False,
    )
    comp = comp_automaton(triple.gamma, triple.g, monoid_from_id("sum"))
    product = relabel(product_intersect(comp, acceptor), triple.h, tuple(alphabet))
    return optcost.CompiledFamily(product.base, product.location_weights,
                                  product.edge_weights)


_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance.py" not in report.nodeid or not name.startswith("test_criterion_"):
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _ACCEPTANCE[name] = report.outcome


def _criterion_number(name):
    return int(name.split("_")[2])


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE, key=_criterion_number):
        number = _criterion_number(name)
        label = name.split(f"test_criterion_{number}_", 1)[-1].replace("_", " ")
        status = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({label}): {status}")
