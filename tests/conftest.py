"""Shared helpers plus the acceptance summary printed after each run."""

import itertools
from fractions import Fraction

import mpmath

from watl import fixtures, rdl, wrdl
from watl.core import RELATIONS, TimedAutomaton, TimedWord, enumerate_runs
from watl.monoids import WeightPairWord, sum_over
from watl.transform import NivatTriple
from watl.weights import INF
from watl.wta import run_weight


def wd(*entries):
    """Build a timed word from (letter, delay) pairs with exact delays."""
    return TimedWord(tuple((letter, Fraction(delay)) for letter, delay in entries))


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


def random_short_word(rng, max_len=6):
    """A word over a, b of 1..max_len letters whose delays come from
    {0, 1/2, 1, 2}, so zero delays and distances equal to a bound occur."""
    return TimedWord(tuple((rng.choice("ab"), rng.choice(_DELAYS))
                           for _ in range(rng.randint(1, max_len))))


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
        return rdl.dist_holds(word, sigma.so[node.setvar], sigma.fo[node.var],
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


def brute_bellman_ford(nodes, arcs, inits):
    """Bellman-Ford over Fraction costs and node-keyed dicts, relaxing the
    arcs in their given order: the plain oracle for the integer
    ``optcost._bellman_ford``, returning the same (dist, unstable, pred)."""
    dist = {n: None for n in nodes}
    pred = {}
    for n in inits:
        dist[n] = Fraction(0)
    converged = False
    for _ in range(len(nodes)):
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
        if not changed:
            converged = True
            break
    unstable = []
    if not converged:
        for arc in arcs:
            ds = dist[arc.src]
            if ds is None:
                continue
            dd = dist[arc.dst]
            if (dd is None or ds + arc.cost < dd) and arc.dst not in unstable:
                unstable.append(arc.dst)
    return dist, unstable, pred


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
