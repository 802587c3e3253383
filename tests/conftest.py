"""Shared helpers plus the acceptance summary printed after each run."""

import itertools
from fractions import Fraction

import mpmath

from watl import rdl
from watl.core import TimedAutomaton, TimedWord, enumerate_runs
from watl.monoids import WeightPairWord, sum_over
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
            accepted = rdl.model_check(triple.language, preimage)
        if accepted:
            values.append(monoid.val(WeightPairWord(tuple(
                (triple.g[c], t) for c, (_, t) in zip(choice, word)))))
    return sum_over(monoid, values)


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
    unstable = set()
    if not converged:
        for arc in arcs:
            ds = dist[arc.src]
            if ds is None:
                continue
            dd = dist[arc.dst]
            if dd is None or ds + arc.cost < dd:
                unstable.add(arc.dst)
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
