"""Corner-point graphs, infimum costs, and the threshold deciders."""

import copy
import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (BruteSearch, brute_bellman_ford, brute_compile_guard_family,
                      brute_corner_graph, check_certificate, check_inf_cost, check_witness_below,
                      grid_minimum, keyed_bellman_ford, nivat_compile_guard_family, outcome,
                      random_comparing_sentence, reachable_regions, region_of, region_reset,
                      region_satisfies, region_zero, time_successor, wd)
from watl import fixtures, optcost, rdl, sampling, wrdl
from watl.core import RELATIONS, ClockAtom, ClockConstraint, Edge, TimedAutomaton, TimedWord
from watl.errors import DomainError, UnsupportedGuardError
from watl.monoids import monoid_from_id
from watl.optcost import (
    build_corner_points,
    compile_guard_family,
    decide_avg_threshold,
    decide_sum_threshold,
    inf_cost,
    witness_below,
)
from watl.weights import INF, NEG_INF, is_finite
from watl.wta import WeightedTimedAutomaton, behavior

SUM0 = monoid_from_id("sum0")
AVG0 = monoid_from_id("avg0")


# --- regions ----------------------------------------------------------------


def test_one_clock_with_max_constant_two_has_six_regions():
    regions = reachable_regions({"x": 2})
    assert len(regions) == 6
    samples = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
               Fraction(2), Fraction(3)]
    hit = {region_of({"x": value}, {"x": 2}) for value in samples}
    assert hit == regions


def test_zero_clocks_collapse_to_one_region():
    assert len(reachable_regions({})) == 1


def test_time_successors_walk_the_region_chain():
    region = region_zero({"x": 2})
    seen = {region}
    for _ in range(5):
        region = time_successor(region)
        seen.add(region)
    assert seen == reachable_regions({"x": 2})
    assert time_successor(region) == region  # unbounded region absorbs


def test_resetting_returns_to_the_zero_region():
    region = time_successor(time_successor(region_zero({"x": 2})))
    assert region_reset(region, ("x",)) == region_zero({"x": 2})


def test_region_guard_checks_agree_with_the_valuations_inside():
    rng = random.Random(31)
    for _ in range(300):
        caps = {c: rng.randint(0, 3) for c in ("x", "y")}
        valuation = {}
        for c, cap in caps.items():
            den = rng.choice((1, 2, 3, 7))
            valuation[c] = Fraction(rng.randint(0, (cap + 2) * den), den)
        region = region_of(valuation, caps)
        atoms = [ClockAtom(c, rel, bound) for c, cap in caps.items()
                 for rel in RELATIONS for bound in range(cap + 1)]
        for atom in atoms:
            guard = ClockConstraint((atom,))
            assert region_satisfies(region, guard) == guard.satisfied_by(valuation)
        guard = ClockConstraint(tuple(rng.sample(atoms, 2)))
        assert region_satisfies(region, guard) == guard.satisfied_by(valuation)


# --- corner-point graphs ----------------------------------------------------


def test_corner_graphs_need_the_sum_monoid():
    with pytest.raises(DomainError, match="sum"):
        build_corner_points(fixtures.constant_one_product())


def test_corner_graphs_need_finite_weights():
    edge = Edge("e", "p", "a", ClockConstraint.true(), frozenset(), "p")
    base = TimedAutomaton(("a",), ("p",), (), ("p",), ("p",), (edge,))
    automaton = WeightedTimedAutomaton(base, monoid_from_id("sum"),
                                       {"p": Fraction(1)}, {"e": INF})
    with pytest.raises(DomainError, match="finite"):
        build_corner_points(automaton)


def test_late_guards_need_two_unit_delays():
    graph = build_corner_points(fixtures.priced_min_wait())
    outgoing = {}
    for arc in graph.arcs:
        outgoing.setdefault(arc.src, []).append(arc)
    # Dijkstra on accumulated delay-arc time, stopping at nodes that fire "go"
    import heapq
    queue = [(0, i, node) for i, node in enumerate(graph.initial)]
    seen = {}
    best = None
    while queue:
        elapsed, _, node = heapq.heappop(queue)
        if node in seen and seen[node] <= elapsed:
            continue
        seen[node] = elapsed
        if any(arc.edge is not None and arc.edge.id == "go"
               for arc in outgoing.get(node, ())):
            best = elapsed if best is None else min(best, elapsed)
            continue
        for arc in outgoing.get(node, ()):
            heapq.heappush(queue, (elapsed + arc.time, len(seen), arc.dst))
    assert best == 2


def _random_corner_automaton(rng):
    """A random sum automaton with up to 3 clocks (sometimes none), guards
    of up to two atoms over every relation with constants up to 8, and
    resets of any subset of the clocks."""
    locations = tuple(f"l{i}" for i in range(rng.randint(1, 3)))
    clocks = ("x", "y", "z")[:rng.randint(0, 3)]
    edges = []
    for i in range(rng.randint(1, 5)):
        atoms = tuple(ClockAtom(rng.choice(clocks), rng.choice(RELATIONS), rng.randint(0, 8))
                      for _ in range(rng.randint(0, 2) if clocks else 0))
        resets = frozenset(c for c in clocks if rng.random() < 0.4)
        edges.append(Edge(f"e{i}", rng.choice(locations), rng.choice("ab"),
                          ClockConstraint(atoms), resets, rng.choice(locations)))

    def some_locations():
        return tuple(sorted(rng.sample(locations, rng.randint(1, len(locations)))))

    base = TimedAutomaton(("a", "b"), locations, clocks, some_locations(),
                          some_locations(), tuple(edges))

    def weight():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))

    return WeightedTimedAutomaton(base, monoid_from_id("sum"),
                                  {loc: weight() for loc in locations},
                                  {e.id: weight() for e in edges})


def test_corner_graphs_match_the_region_walk():
    rng = random.Random(406)
    seen = {"clockless": 0, "three clocks": 0, "=": 0, "bound >= 7": 0,
            "multi-clock reset": 0}
    nodes = 0
    for _ in range(300):
        automaton = _random_corner_automaton(rng)
        graph = build_corner_points(automaton)
        want = brute_corner_graph(automaton)
        assert graph.nodes == want.nodes  # same members, same key order
        assert graph.arcs == want.arcs    # same arcs, same order
        assert graph.initial == want.initial
        assert graph.accepting == want.accepting
        nodes += len(graph.nodes)
        base = automaton.base
        atoms = [a for e in base.edges for a in e.guard.atoms]
        seen["clockless"] += not base.clocks
        seen["three clocks"] += len(base.clocks) == 3
        seen["="] += any(a.rel == "=" for a in atoms)
        seen["bound >= 7"] += any(a.bound >= 7 for a in atoms)
        seen["multi-clock reset"] += any(len(e.resets) > 1 for e in base.edges)
    assert min(seen.values()) >= 50
    assert nodes >= 20000


_NODE_ORDER_SCRIPT = """
import random
from test_optcost import _random_corner_automaton
from watl.optcost import build_corner_points
rng = random.Random(406)
for _ in range(30):
    for loc, region, corner in build_corner_points(_random_corner_automaton(rng)).nodes:
        print(loc, region.statuses, [sorted(group) for group in region.fracs], corner)
"""


def test_corner_node_order_does_not_depend_on_the_hash_seed():
    # Fractional groups are frozensets of clock names, whose repr follows
    # string hashes; the node order must not.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outputs.append(subprocess.run([sys.executable, "-c", _NODE_ORDER_SCRIPT], env=env,
                                      capture_output=True, check=True, timeout=300).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") >= 1000


# --- infimum costs ----------------------------------------------------------


def test_waiting_cost_is_minimized_at_the_guard_corner():
    result = inf_cost(fixtures.priced_min_wait())
    assert result.value == 7
    assert result.attained
    assert result.witness.entries == (("a", Fraction(2)),)
    assert behavior(fixtures.priced_min_wait(), result.witness) == 7


def test_unreachable_goals_cost_infinity():
    result = inf_cost(fixtures.priced_unreachable())
    assert result.value is INF
    assert not result.attained
    assert result.witness is None


def test_strict_guards_leave_the_infimum_unattained():
    result = inf_cost(fixtures.priced_strict_guard())
    assert result.value == -1
    assert not result.attained
    assert result.witness is None
    assert result.corner_word is not None


def test_negative_cycles_drive_the_cost_to_minus_infinity():
    result = inf_cost(fixtures.priced_negative_cycle())
    assert result.value is NEG_INF
    assert not result.attained


def test_witnesses_below_a_bound_are_real_words(monkeypatch):
    evaluated = []
    evaluate = optcost.behavior

    def recording_behavior(wta, word):
        evaluated.append(len(word))
        return evaluate(wta, word)

    monkeypatch.setattr(optcost, "behavior", recording_behavior)

    automaton = fixtures.priced_strict_guard()
    result = inf_cost(automaton)
    witness, value = witness_below(automaton, result, Fraction(-1, 2), strict=True)
    # the corner word (a,1) is valued inf; (a,3/4) lies halfway to the bound
    assert witness == wd(("a", Fraction(3, 4))) and value == Fraction(-3, 4)
    assert behavior(automaton, witness) == value

    pumped = fixtures.priced_negative_cycle()
    result = inf_cost(pumped)
    # one lap costs -1 and reads two letters, after a one-letter path of
    # cost -1: the least number of laps below the bound, however long
    for bound in (-50, -1000, -3000):
        witness, value = witness_below(pumped, result, Fraction(bound), strict=True)
        assert value == bound - 1 and len(witness) == -2 * bound + 1
        assert behavior(pumped, witness) == value

    bounded = fixtures.priced_min_wait()
    result = inf_cost(bounded)
    assert witness_below(bounded, result, Fraction(7), strict=True) is None
    witness, value = witness_below(bounded, result, Fraction(7), strict=False)
    assert witness == result.witness and value == 7
    # one behavior call per word built, none for an attaining witness
    # (valued the infimum) nor in inf_cost
    assert evaluated == [1, 101, 2001, 6001]


@pytest.mark.parametrize("automaton, bound, want", [
    (fixtures.priced_negative_cycle, NEG_INF, None),
    (fixtures.priced_negative_cycle, -2.5, Fraction(-3)),
    (fixtures.priced_negative_cycle, "-5/2", Fraction(-3)),
    (fixtures.priced_negative_cycle, -3, Fraction(-4)),
    (fixtures.priced_negative_cycle, INF, Fraction(-1)),
    (fixtures.priced_strict_guard, -0.5, Fraction(-3, 4)),
    (fixtures.priced_strict_guard, NEG_INF, None),
    (fixtures.priced_strict_guard, INF, Fraction(-1, 2)),
], ids=["cycle_neg_inf", "cycle_float", "cycle_text", "cycle_int", "cycle_inf",
        "strict_float", "strict_neg_inf", "strict_inf"])
def test_witness_bounds_are_read_exactly(automaton, bound, want):
    # No word is valued -inf; a float bound is the rational it denotes.
    wta = automaton()
    result = inf_cost(wta)
    found = witness_below(wta, result, bound)
    if want is None:
        assert found is None
    else:
        word, value = found
        assert value == want and behavior(wta, word) == want
        if is_finite(bound):
            assert found == witness_below(wta, result, Fraction(bound))


@pytest.mark.parametrize("bound", ["abc", float("nan"), float("inf"), None, "1/0"])
def test_malformed_witness_bounds_are_domain_errors(bound):
    wta = fixtures.priced_negative_cycle()
    with pytest.raises(DomainError, match="bound must be a finite rational"):
        witness_below(wta, inf_cost(wta), bound)


def test_infimum_is_a_lower_bound_on_sampled_behaviors():
    rng = random.Random(13)
    monoid = monoid_from_id("sum")
    checked = 0
    for _ in range(25):
        automaton = sampling.random_wta(rng, monoid)
        result = inf_cost(automaton)
        for _ in range(8):
            word = sampling.random_word(rng, automaton.base.alphabet, max_len=4)
            value = behavior(automaton, word)
            if value is INF:
                continue
            checked += 1
            assert result.value is NEG_INF or result.value <= value
    assert checked >= 40


def test_grid_search_never_beats_the_infimum():
    grid = [Fraction(i, 8) for i in range(0, 33)]
    for automaton in (fixtures.priced_min_wait(), fixtures.priced_strict_guard()):
        result = inf_cost(automaton)
        minimum = grid_minimum(automaton, grid, max_len=4)
        assert is_finite(minimum)
        assert minimum >= result.value
        assert minimum - result.value <= Fraction(1, 4)


def _zero_weights(base):
    return WeightedTimedAutomaton(base, monoid_from_id("sum"),
                                  {loc: Fraction(0) for loc in base.locations},
                                  {e.id: Fraction(0) for e in base.edges})


def test_a_corner_word_on_a_strict_guard_does_not_hide_attainment():
    base = sampling.random_automaton(random.Random(1671), alphabet=("a",), max_locations=4,
                                     max_clocks=3, max_edges=8)
    automaton = _zero_weights(base)
    result = inf_cost(automaton)
    # the corner word (a,1)(a,3) has no run, but (a,1)(a,7/2) is valued 0
    assert result.corner_word == wd(("a", 1), ("a", 3))
    assert behavior(automaton, result.corner_word) is INF
    assert behavior(automaton, wd(("a", 1), ("a", Fraction(7, 2)))) == 0
    assert result.value == 0 and result.attained
    assert behavior(automaton, result.witness) == 0
    assert witness_below(automaton, result, Fraction(0), strict=False) == (result.witness, 0)


def test_zero_weight_automata_attain_every_finite_infimum():
    # Every corner path costs 0, so every accepting region path attains.
    reached = 0
    rng = random.Random(1671)
    for k in range(200):
        if k % 2:
            automaton = _zero_weights(_random_corner_automaton(rng).base)
        else:
            automaton = _zero_weights(sampling.random_automaton(
                rng, alphabet=("a",), max_locations=4, max_clocks=3, max_edges=8))
        result = inf_cost(automaton)
        assert result.attained == (result.value != INF)
        if result.attained:
            assert result.value == 0
            assert behavior(automaton, result.witness) == 0
            reached += 1
    assert reached >= 100


# --- Bellman-Ford -------------------------------------------------------------


def _rational_sum_automaton(rng, **kwargs):
    """A random sum automaton whose rates and edge weights have
    denominators 1, 2, 3 and 7."""
    base = sampling.random_automaton(rng, **kwargs)

    def weight(low):
        return Fraction(rng.randint(low, 6), rng.choice((1, 2, 3, 7)))

    # Rates lean positive: a reachable negative rate alone makes the
    # infimum minus infinity.
    return WeightedTimedAutomaton(
        base, monoid_from_id("sum"),
        {loc: weight(-2) for loc in base.locations},
        {e.id: weight(-6) for e in base.edges})


def _classical_bellman_ford(nodes, arcs, inits):
    """The textbook run over Fraction costs: at most len(nodes) rounds of
    relaxing the arcs in order; (dist, pred) as ``brute_bellman_ford``
    has them when a round lowers no cost, else None (a negative cycle)."""
    dist = {n: None for n in nodes}
    pred = {}
    for n in inits:
        dist[n] = Fraction(0)
    changed = False
    for _ in range(len(nodes)):
        changed = False
        for arc in arcs:
            ds, dd = dist[arc.src], dist[arc.dst]
            if ds is not None and (dd is None or ds + arc.cost < dd):
                dist[arc.dst] = ds + arc.cost
                pred[arc.dst] = arc
                changed = True
        if not changed:
            break
    return None if changed else (dist, pred)


def test_integer_bellman_ford_matches_the_fraction_oracle():
    rng = random.Random(404)
    negative = fractional = 0
    # 150 automata, 300 graphs: the whole corner graph and the useful one
    for _ in range(150):
        automaton = _rational_sum_automaton(rng, max_locations=3, max_clocks=2,
                                            max_edges=4)
        whole, arcs, inits = optcost._build_graph(automaton)
        built, useful, useful_arcs, useful_inits, _, _ = optcost._useful_subgraph(automaton)
        # each graph is labelled by the nodes of its own numbering
        for nodes, graph in ((whole, (range(len(whole)), arcs, inits)),
                             (built, (useful, useful_arcs, useful_inits))):

            def named(arc):
                return optcost.CornerArc(nodes[arc[0]], nodes[arc[1]], *arc[2:])

            members, numbered, starts = graph
            dist, cycle, pred, scale = optcost._bellman_ford(*graph, len(nodes))
            keyed = ([nodes[n] for n in members], [named(a) for a in numbered],
                     [nodes[n] for n in starts])
            want_dist, want_cycle, want_pred = want = brute_bellman_ford(*keyed)
            # the Region-node search of the oracle relaxes node keys on ints
            assert keyed_bellman_ford(*keyed) == want
            assert {nodes[n]: None if dist[n] is None else Fraction(dist[n], scale)
                    for n in members} == want_dist
            assert {nodes[n]: named(pred[n]) for n in members
                    if pred[n] is not None} == want_pred
            assert all(dist[n] is None and pred[n] is None
                       for n in range(len(nodes)) if n not in members)
            # the same cycle, so the search pumps the same witness
            assert (None if cycle is None else [named(a) for a in cycle]) == want_cycle
            # The verdict, checked without the early stop: a cycle exactly
            # when len(nodes) rounds do not converge, and then one that is
            # closed, made of pred arcs and negative.
            classical = _classical_bellman_ford(*keyed)
            assert (cycle is None) == (classical is not None)
            if cycle is None:
                assert classical == (want_dist, want_pred)
            else:
                assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                assert all(pred[arc[1]] == arc for arc in cycle)
                assert sum(arc[2] for arc in cycle) < 0
                negative += 1
            fractional += any(a[2].denominator > 1 for a in numbered)
    assert 150 <= negative <= 250
    assert fractional >= 200


def _fraction_bellman_ford(calls):
    """``optcost._bellman_ford`` answered by the Fraction oracle over the
    same node numbers, counting its calls."""

    def bellman_ford(nodes, arcs, inits, size):
        calls.append(len(arcs))
        views = [optcost.CornerArc(*arc) for arc in arcs]
        numbered = {id(view): arc for view, arc in zip(views, arcs)}
        dist, cycle, pred = brute_bellman_ford(nodes, views, inits)
        scale = math.lcm(*{arc[2].denominator for arc in arcs})
        scaled = [None] * size
        for n, value in dist.items():
            if value is not None:
                assert (value * scale).denominator == 1
                scaled[n] = int(value * scale)
        arcs_to = [None] * size
        for n, view in pred.items():
            arcs_to[n] = numbered[id(view)]
        if cycle is not None:
            cycle = [numbered[id(view)] for view in cycle]
        return scaled, cycle, arcs_to, scale
    return bellman_ford


def test_infima_and_witnesses_match_the_fraction_oracle(monkeypatch):
    rng = random.Random(405)
    cases = []
    for _ in range(40):
        automaton = _rational_sum_automaton(rng, max_locations=3, max_clocks=2,
                                            max_edges=6)
        result = inf_cost(automaton)
        if result.value is NEG_INF:
            bounds = [(Fraction(-20), True)]
        elif is_finite(result.value):
            bounds = [(result.value + 1, True), (result.value, False),
                      (result.value, True)]
        else:
            bounds = []
        found = [witness_below(automaton, result, b, strict) for b, strict in bounds]
        cases.append((automaton, result, bounds, found))
    assert sum(r.value is NEG_INF for _, r, _, _ in cases) >= 5
    assert sum(bool(f and f[0]) for _, _, _, f in cases) >= 15
    calls = []
    monkeypatch.setattr(optcost, "_bellman_ford", _fraction_bellman_ford(calls))
    for automaton, result, bounds, found in cases:
        assert inf_cost(automaton) == result
        assert [witness_below(automaton, result, b, strict)
                for b, strict in bounds] == found
    # every infimum below inf went through the oracle, and so did every
    # minus-infinity witness search
    assert len(calls) >= sum((r.value is not INF) + (r.value is NEG_INF)
                             for _, r, _, _ in cases)


def test_the_search_matches_the_region_node_oracle():
    # The cost search runs on node numbers; the oracle runs the search
    # for the value and corner word over the Region nodes and CornerArcs
    # of build_corner_points, and groups their corner paths by region
    # path for attainment.  Every witness is checked on its behavior.
    draws = minus_infinity = witnesses = 0
    attained = {True: 0, False: 0}
    for seed in (404, 405, 406, 1671):
        rng = random.Random(seed)
        for _ in range(150):
            automaton = _rational_sum_automaton(rng, max_locations=3, max_clocks=2,
                                                max_edges=6)
            result = inf_cost(automaton)
            check_inf_cost(automaton, result)
            if result.value is NEG_INF:
                bounds = [(Fraction(-20), True)]
                minus_infinity += 1
            elif is_finite(result.value):
                bounds = [(result.value + 1, True), (result.value, False),
                          (result.value, True)]
                attained[result.attained] += 1
            else:
                bounds = []
            for bound, strict in bounds:
                found = witness_below(automaton, result, bound, strict)
                check_witness_below(automaton, result, bound, strict, found)
                witnesses += found is not None
            draws += 1
    assert draws >= 600
    assert minus_infinity >= 100
    assert attained[True] >= 100 and attained[False] >= 5
    assert witnesses >= 300


def test_weighted_corner_automata_match_the_region_node_oracle():
    # The corner-graph sampler with its weights: up to three clocks and
    # constants up to 8.  Draw 56 has 5,444 useful nodes and an infimum
    # of minus infinity, which a few Bellman-Ford rounds already show.
    rng = random.Random(406)
    minus_infinity = witnesses = 0
    for _ in range(60):
        automaton = _random_corner_automaton(rng)
        result = inf_cost(automaton)
        check_inf_cost(automaton, result)
        bound = Fraction(-20) if result.value is NEG_INF else result.value + 1
        found = witness_below(automaton, result, bound)
        check_witness_below(automaton, result, bound, True, found)
        minus_infinity += result.value is NEG_INF
        witnesses += found is not None
    assert minus_infinity >= 30
    assert witnesses >= 45


def _sampled_sum_automata():
    """The draws of the two region-node oracle tests above."""
    for seed in (404, 405, 406, 1671):
        rng = random.Random(seed)
        for _ in range(150):
            yield _rational_sum_automaton(rng, max_locations=3, max_clocks=2, max_edges=6)
    rng = random.Random(406)
    for _ in range(60):
        yield _random_corner_automaton(rng)


def test_every_sampled_infimum_holds_its_certificate():
    finite = minus_infinity = 0
    for automaton in _sampled_sum_automata():
        search = optcost._Search(automaton)
        check_certificate(automaton, search)
        finite += is_finite(search.value)
        minus_infinity += search.value is NEG_INF
    assert finite >= 120 and minus_infinity >= 400


def test_a_lowered_potential_or_an_open_cycle_breaks_the_certificate():
    # The potential of every node of an optimal corner path binds: the
    # path's arc out of it is tight, or is the accepting arc that costs
    # exactly the value.
    automata = [fixtures.priced_min_wait(), fixtures.priced_strict_guard()]
    automata += itertools.islice((a for a in _sampled_sum_automata()
                                  if is_finite(inf_cost(a).value)), 5)
    lowered = 0
    for automaton in automata:
        search = optcost._Search(automaton)
        check_certificate(automaton, search)
        for node in {arc[0] for arc in search.corner_path}:
            broken = copy.copy(search)
            broken.dist = list(search.dist)
            broken.dist[node] -= 1
            with pytest.raises(AssertionError):
                check_certificate(automaton, broken)
            lowered += 1
    assert lowered >= 20
    automaton = fixtures.priced_negative_cycle()
    search = optcost._Search(automaton)
    check_certificate(automaton, search)
    broken = copy.copy(search)
    broken.cycle = search.cycle[:-1]
    with pytest.raises(AssertionError):
        check_certificate(automaton, broken)


_HASH_SEED_SCRIPT = """
import random
from fractions import Fraction
from test_optcost import _rational_sum_automaton
from watl.optcost import inf_cost, witness_below
from watl.weights import NEG_INF
rng = random.Random(405)
for _ in range(40):
    automaton = _rational_sum_automaton(rng, max_locations=3, max_clocks=2, max_edges=6)
    result = inf_cost(automaton)
    if result.value is NEG_INF:
        print(result)
        print(witness_below(automaton, result, Fraction(-20), True))
"""


def test_minus_infinity_witnesses_do_not_depend_on_the_hash_seed():
    # The corner nodes hold strings, so a set of them iterates in an order
    # that changes with PYTHONHASHSEED; the pumped witness must not.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outputs.append(subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
                                      capture_output=True, check=True, timeout=300).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"value=-inf") >= 20


_DECIDE_SCRIPT = """
import random
from fractions import Fraction
from watl import sampling
from watl.optcost import decide_avg_threshold, decide_sum_threshold
rng = random.Random(5)
for i in range(50):
    sentence = sampling.random_restricted_sentence(rng)
    strict = i % 2 == 0
    print(decide_sum_threshold(sentence, ("a", "b"), Fraction(i % 3), strict=strict))
    print(decide_avg_threshold(sentence, ("a", "b"), Fraction(1 + i % 3, 2), strict=strict))
"""


def test_decisions_do_not_depend_on_the_hash_seed():
    # Sentences, locations and corner nodes hold strings; the verdicts
    # and witnesses must not follow their hashes.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outputs.append(subprocess.run([sys.executable, "-c", _DECIDE_SCRIPT], env=env,
                                      capture_output=True, check=True, timeout=300).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"DecisionResult(") == 100
    assert outputs[0].count(b"witness=TimedWord(") >= 60


_RUNAWAY_SCRIPT = """
import random
from fractions import Fraction
from test_optcost import _rational_sum_automaton
from watl.optcost import inf_cost, witness_below
from watl.wta import behavior
rng = random.Random(401)
for _ in range(103):
    automaton = _rational_sum_automaton(rng, max_locations=3, max_clocks=2, max_edges=6)
result = inf_cost(automaton)
word, value = witness_below(automaton, result, Fraction(-20), True)
assert behavior(automaton, word) == value
print(result.value, value < -20)
"""


def test_pumping_a_cycle_on_a_strict_guard_ends():
    # Draw 102: the negative cycle fires two edges in zero time, one
    # behind a strict guard, so every pumped corner word has no run.  A
    # hang fails at the timeout instead of stalling the suite.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    out = subprocess.run([sys.executable, "-c", _RUNAWAY_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, check=True, timeout=10).stdout
    assert out == b"-inf True\n"


def _two_branch_automaton(extra_locations=(), extra_edges=(), extra_rates=None):
    """From l0, an a-edge of weight 2 into the final l1, plus whatever
    extra locations and edges are given."""
    edges = (Edge("win", "l0", "a", ClockConstraint.parse("x>=1"), frozenset(), "l1"),)
    base = TimedAutomaton(
        alphabet=("a", "b"), locations=("l0", "l1") + tuple(extra_locations),
        clocks=("x",), initial=("l0",), final=("l1",),
        edges=edges + tuple(extra_edges))
    rates = {"l0": Fraction(1, 3), "l1": Fraction(0)}
    rates.update(extra_rates or {})
    weights = {e.id: Fraction(-5) for e in extra_edges}
    weights["win"] = Fraction(2)
    return WeightedTimedAutomaton(base, monoid_from_id("sum"), rates, weights)


_TRAP_LOOP = Edge("spin", "trap", "b", ClockConstraint.true(), frozenset({"x"}), "trap")


@pytest.mark.parametrize("edges, trap_explored", [
    # l0 enters a trap whose b-loop can never reach the final location
    ((Edge("enter", "l0", "b", ClockConstraint.true(), frozenset(), "trap"), _TRAP_LOOP),
     True),
    # the trap loops and reaches l1, but no run from l0 gets into it
    ((_TRAP_LOOP, Edge("leave", "trap", "a", ClockConstraint.true(), frozenset(), "l1")),
     False),
], ids=["cycle_not_coreachable", "cycle_not_reachable"])
def test_negative_cycles_off_the_useful_subgraph_are_ignored(edges, trap_explored):
    with_cycle = _two_branch_automaton(("trap",), edges, {"trap": Fraction(-1)})
    result = inf_cost(with_cycle)
    assert result == inf_cost(_two_branch_automaton())
    assert result.value == Fraction(7, 3) and result.attained
    nodes, arcs, inits = optcost._build_graph(with_cycle)
    assert any(n[0] == "trap" for n in nodes) == trap_explored
    assert any(n[0] == "trap" for n in build_corner_points(with_cycle).nodes) == trap_explored
    # the search builds no trap node: unreachable, or unable to reach l1
    assert not any(n[0] == "trap" for n in optcost._useful_subgraph(with_cycle)[0])
    _, cycle, _, _ = optcost._bellman_ford(range(len(nodes)), arcs, inits, len(nodes))
    # where the corner graph reaches the trap, its loop is a negative cycle
    assert (cycle is not None) == trap_explored
    assert all(nodes[arc[0]][0] == "trap" for arc in cycle or ())


def test_building_only_live_locations_changes_no_result(monkeypatch):
    # With every location live the search builds the whole corner graph;
    # leaving out the nodes that cannot reach a final location must not
    # change any value, attainment, word or verdict.
    def results():
        out = []
        for seed in (404, 405, 406):
            rng = random.Random(seed)
            for _ in range(60):
                automaton = _rational_sum_automaton(rng, max_locations=3, max_clocks=2,
                                                    max_edges=6)
                result = inf_cost(automaton)
                if result.value is NEG_INF:
                    bounds = [(Fraction(-20), True)]
                elif is_finite(result.value):
                    bounds = [(result.value + 1, True), (result.value, False),
                              (result.value, True)]
                else:
                    bounds = []
                out.append((result, [witness_below(automaton, result, b, strict)
                                     for b, strict in bounds]))
        start = len(built)
        rng = random.Random(5)
        for i in range(200):
            alphabet = ("a",) if rng.random() < 0.5 else ("a", "b")
            sentence = sampling.random_restricted_sentence(rng, alphabet)
            out.append(outcome(decide_sum_threshold, sentence, alphabet,
                               Fraction(i % 3), strict=i % 2 == 0))
            out.append(outcome(decide_avg_threshold, sentence, alphabet,
                               Fraction(1 + i % 3, 2), strict=i % 4 < 2))
        decided.append(sum(built[start:]))
        return out

    built = []
    decided = []
    build_graph = optcost._build_graph

    def counted(wta, live=None):
        graph = build_graph(wta, live)
        built.append(len(graph[0]))
        return graph

    monkeypatch.setattr(optcost, "_build_graph", counted)
    trimmed = results()
    monkeypatch.setattr(optcost, "_live_locations", lambda base: set(base.locations))
    assert results() == trimmed
    # the compiled guard families hold many locations that cannot reach
    # the final one (4,000 of the 9,171 nodes of the decisions' whole
    # corner graphs are built): more than half of those nodes are left out
    assert 2 * decided[0] < decided[1]
    assert sum(isinstance(r, optcost.DecisionResult) and r.witness is not None
               for r in trimmed) >= 150
    assert sum(r.value is NEG_INF for r, _ in trimmed[:180]) >= 20


# --- threshold decisions ----------------------------------------------------


def test_sum_threshold_matches_the_frozen_fixture():
    sentence = fixtures.min_wait_sentence()
    at_inf = decide_sum_threshold(sentence, ("a",), Fraction(7))
    assert not at_inf.holds
    assert at_inf.infimum == 7
    above = decide_sum_threshold(sentence, ("a",), Fraction(15, 2))
    assert above.holds
    assert above.witness is not None
    value = wrdl.wrdl_eval(sentence, above.witness, SUM0)
    assert value == above.witness_value
    assert value < Fraction(15, 2)


def test_sum_threshold_weak_variant_accepts_the_attained_infimum():
    sentence = fixtures.min_wait_sentence()
    weak = decide_sum_threshold(sentence, ("a",), Fraction(7), strict=False)
    assert weak.holds
    assert wrdl.wrdl_eval(sentence, weak.witness, SUM0) == 7


@pytest.mark.parametrize("threshold", [INF, NEG_INF, "abc", float("nan"), "1/0", None])
@pytest.mark.parametrize("decide", [decide_sum_threshold, decide_avg_threshold],
                         ids=["sum", "avg"])
def test_thresholds_must_be_finite_rationals(decide, threshold):
    sentence = wrdl.parse_wrdl("all x.(3, 1)")
    with pytest.raises(DomainError, match="threshold must be a finite rational"):
        decide(sentence, ("a",), threshold)


def test_constantly_infinite_sentences_never_pass():
    sentence = wrdl.Bool(rdl.parse_rdl("ex x. !(x <= x)"))
    for theta in (Fraction(0), Fraction(100)):
        assert not decide_sum_threshold(sentence, ("a",), theta).holds


def test_a_sentence_with_no_finite_left_value_is_decided_without_a_search(monkeypatch):
    monkeypatch.setattr(optcost, "compile_guard_family", None)
    result = decide_sum_threshold(wrdl.parse_wrdl("all x.(inf, 1)"), ("a",), Fraction(5))
    assert (result.holds, result.infimum, result.witness) == (False, INF, None)


def test_avg_threshold_handles_unbounded_durations():
    sentence = fixtures.min_wait_sentence()
    # values (3t+1)/t for t >= 2: infimum 3, never attained
    at_limit = decide_avg_threshold(sentence, ("a",), Fraction(3))
    assert not at_limit.holds
    assert at_limit.shifted_infimum == 1
    above = decide_avg_threshold(sentence, ("a",), Fraction(31, 10))
    assert above.holds
    assert above.shifted_infimum is NEG_INF
    value = wrdl.wrdl_eval(sentence, above.witness, AVG0)
    assert value == above.witness_value
    assert value < Fraction(31, 10)
    assert above.witness.duration > 0


def test_avg_threshold_with_a_bounded_duration_fixture():
    sentence = fixtures.bounded_average_sentence()
    generous = decide_avg_threshold(sentence, ("a",), Fraction(7))
    assert generous.holds
    assert is_finite(generous.shifted_infimum)
    assert generous.shifted_infimum < 0
    assert wrdl.wrdl_eval(sentence, generous.witness, AVG0) < 7
    tight = decide_avg_threshold(sentence, ("a",), Fraction(7, 2))
    assert not tight.holds
    weak = decide_avg_threshold(sentence, ("a",), Fraction(7, 2), strict=False)
    assert weak.holds
    assert wrdl.wrdl_eval(sentence, weak.witness, AVG0) == Fraction(7, 2)


def test_deeply_nested_guards_compile_and_decide():
    # 900 negations: compiling and evaluating take one frame per level.
    sentence = wrdl.parse_wrdl("all x. (B(" + "!" * 900 + "P[a](x)), 0)")
    result = decide_sum_threshold(sentence, ("a", "b"), Fraction(1))
    assert result.holds
    assert wrdl.wrdl_eval(sentence, result.witness, SUM0) == 0


@pytest.mark.parametrize("text, alphabet, message", [
    # inside the cases y < x and y > x, P[a](x) tests the other position
    ("all x. (B(ex y. (y <= x & P[a](x))), 1)", ("a",),
     "guard outside the compiled fragment: P[a](x)"),
    # the refusal names the sentence's own letters and set variables
    ("all x. (B(ex y. (P[a](y) & ex z. (P[b](y) & P[a](z)))), 0)", ("a", "b"),
     "guard outside the compiled fragment: P[b](y)"),
    ("EX X. all x. (B(EX Y. Y(x)), 0)", ("a", "b"),
     "guard outside the compiled fragment: (EX Y. Y(x))"),
])
def test_unsupported_guards_are_refused_in_the_sentence_terms(text, alphabet, message):
    with pytest.raises(UnsupportedGuardError) as refusal:
        decide_sum_threshold(wrdl.parse_wrdl(text), alphabet, Fraction(1))
    assert str(refusal.value) == message


def test_an_exact_distance_test_decides_as_two_bounds():
    # dpast[=1] holds where dpast[<=1] and dpast[>=1] both do: on (a, 1)
    # with X empty, or X holding a position one time unit back.
    sentence = wrdl.parse_wrdl("EX X. all x. (B(dpast[=1](X, x)), 0)")
    assert wrdl.wrdl_eval(sentence, wd(("a", 1), ("a", 1), ("a", 1)), SUM0) == 0
    assert wrdl.wrdl_eval(sentence, wd(("a", 1), ("a", Fraction(1, 2))), SUM0) is INF
    result = decide_sum_threshold(sentence, ("a",), Fraction(1))
    assert result.holds and result.infimum == 0
    assert wrdl.wrdl_eval(sentence, result.witness, SUM0) == result.witness_value == 0
    assert not decide_sum_threshold(sentence, ("a",), Fraction(0)).holds
    assert decide_sum_threshold(sentence, ("a",), Fraction(0), strict=False).holds


def test_sampled_exact_distance_tests_compile_to_the_sentence_values():
    # The comparing sampler's draws that test a distance with =, each
    # checked by behavior against the sentence value and decided.
    rng = random.Random(20)
    drawn = []
    while len(drawn) < 8:
        sentence = random_comparing_sentence(rng)
        if "dpast[=" in wrdl.to_text(sentence):
            drawn.append(sentence)
    thetas = (Fraction(0), Fraction(1), Fraction(2), Fraction(7, 2))
    for k, sentence in enumerate(drawn):
        canonical = wrdl.canonicalize(sentence, SUM0)
        summed = compile_guard_family(
            canonical.guards, tuple(zip(canonical.left, canonical.right)), ("a", "b"),
            canonical.so_vars, canonical.var).weighted(monoid_from_id("sum"))
        words = random.Random(k)
        for _ in range(20):
            word = sampling.random_word(words, ("a", "b"), max_len=4)
            assert behavior(summed, word) == wrdl.wrdl_eval(sentence, word, SUM0)
        result = decide_sum_threshold(sentence, ("a", "b"), thetas[k % 4])
        _check_by_probing(result, sentence, SUM0)


def test_a_letter_outside_the_alphabet_is_false_wherever_it_is_tested():
    # P[b](y) inside the body of the inner existential tests a foreign
    # position, which the compiler refuses for letters of the alphabet.
    sentence = wrdl.parse_wrdl("all x. (B(ex y. (P[a](y) & ex z. (P[b](y) & P[a](z)))), 0)"
                               " | all x. (B(P[a](x)), 2)")
    assert not decide_sum_threshold(sentence, ("a",), Fraction(2)).holds
    result = decide_sum_threshold(sentence, ("a",), Fraction(3))
    assert result.holds and result.infimum == 2
    assert wrdl.wrdl_eval(sentence, result.witness, SUM0) == result.witness_value == 2


_LONG_WITNESS_SCRIPT = """
from watl import wrdl
from watl.optcost import decide_sum_threshold
result = decide_sum_threshold(wrdl.parse_wrdl("EX X. all z. (0, -1)"), ("a",), -40)
print(result.holds, len(result.witness), result.witness_value)
"""


def test_valuing_a_long_witness_ends():
    # Every letter costs -1, so the witness has 41 letters.  Valuing it by
    # enumerating the subsets of X takes twice as long per letter; a
    # regression fails at the timeout instead of stalling the suite.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    out = subprocess.run([sys.executable, "-c", _LONG_WITNESS_SCRIPT],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, check=True, timeout=10).stdout
    assert out == b"True 41 -41\n"


def test_decisions_are_monotone_under_bisection():
    sentence = fixtures.min_wait_sentence()
    lo, hi = Fraction(0), Fraction(16)
    for _ in range(8):
        mid = (lo + hi) / 2
        if decide_sum_threshold(sentence, ("a",), mid).holds:
            hi = mid
        else:
            lo = mid
    assert lo <= 7 <= hi
    assert hi - lo == Fraction(16, 2 ** 8)


def _decide_pool():
    """The 200 (alphabet, sentence) pairs drawn from Random(5), as the
    benchmark's decide workload draws them."""
    rng = random.Random(5)
    pool = []
    for _ in range(200):
        alphabet = ("a",) if rng.random() < 0.5 else ("a", "b")
        pool.append((alphabet, sampling.random_restricted_sentence(rng, alphabet)))
    return pool


def test_every_yes_on_the_pool_carries_a_witness():
    # Sentence 171 (over a, b) answers yes on averages at 2 and 5 with
    # shifted infimum -inf.
    pool = _decide_pool()
    yes = 0
    for alphabet, sentence in pool:
        for theta in (Fraction(0), Fraction(2), Fraction(5)):
            for decide, pv in ((decide_sum_threshold, SUM0), (decide_avg_threshold, AVG0)):
                result = decide(sentence, alphabet, theta)
                if not result.holds:
                    continue
                yes += 1
                assert result.witness is not None
                value = wrdl.wrdl_eval(sentence, result.witness, pv)
                assert value == result.witness_value
                assert is_finite(value) and value < theta
                assert pv is SUM0 or result.witness.duration > 0
    alphabet, sentence = pool[171]
    for theta in (Fraction(2), Fraction(5)):
        result = decide_avg_threshold(sentence, alphabet, theta)
        assert result.shifted_infimum is NEG_INF and result.witness is not None
    assert yes >= 600


def test_every_infimum_on_the_pool_holds_its_certificate(monkeypatch):
    searches = []

    class Recorded(optcost._Search):
        def __init__(self, wta):
            super().__init__(wta)
            searches.append((wta, self))

    monkeypatch.setattr(optcost, "_Search", Recorded)
    for alphabet, sentence in _decide_pool():
        decide_sum_threshold(sentence, alphabet, Fraction(0))
        decide_avg_threshold(sentence, alphabet, Fraction(2))
    for wta, search in searches:
        check_certificate(wta, search)
    values = [search.value for _, search in searches]
    assert sum(map(is_finite, values)) >= 190 and values.count(NEG_INF) >= 180


# Pool draws below 30 whose back-translations (nivat_to_sentence of
# sentence_to_nivat) have guard families of more than 4 set variables,
# global parts or distance atoms, which a former size cap refused; draw
# 6, whose family has six set variables, is left out for time.
_WIDE_BACK_TRANSLATIONS = (0, 1, 2, 3, 5, 8, 10, 11, 13, 14, 15, 16, 18, 19, 20, 21, 24,
                           25, 26, 29)


def test_back_translations_decide_like_their_originals():
    pool = _decide_pool()
    holds = 0
    for k in _WIDE_BACK_TRANSLATIONS:
        alphabet, sentence = pool[k]
        triple = wrdl.sentence_to_nivat(wrdl.canonicalize(sentence, SUM0), alphabet, SUM0)
        back = wrdl.nivat_to_sentence(triple, SUM0)
        for theta in (Fraction(0), Fraction(2), Fraction(5)):
            want = decide_sum_threshold(sentence, alphabet, theta)
            got = decide_sum_threshold(back, alphabet, theta)
            assert (got.holds, got.infimum) == (want.holds, want.infimum)
            if got.holds:
                holds += 1
                value = wrdl.wrdl_eval(back, got.witness, SUM0)
                assert value == got.witness_value and value < theta
    assert holds >= 30


# The message of the oracle's refusal of existentials nested in a
# quantifier body, which the closure compiler turns into global parts.
_NESTED = "quantified body outside the per-position fragment"

# The message of the oracle's refusal of families over its size cap.
_TOO_LARGE = "guard family too large"

# Every word over ("a", "b") of one to three letters with delays 0, 1 and
# 5/2: the probes behind each "no" that the oracle cannot decide.
_PROBES = tuple(TimedWord.from_pairs(zip(letters, delays))
                for n in (1, 2, 3)
                for letters in itertools.product("ab", repeat=n)
                for delays in itertools.product((Fraction(0), Fraction(1), Fraction(5, 2)),
                                                repeat=n))


def _check_by_probing(result, sentence, pv, probes=_PROBES):
    """A yes carries a witness that the sentence values below the
    threshold; after a no, no probe is valued below it.  On averages the
    witness and the probes must last a positive time."""
    positive = pv is AVG0
    if result.holds:
        assert result.witness is not None
        assert wrdl.wrdl_eval(sentence, result.witness, pv) == result.witness_value
        assert optcost._below(result.witness_value, result.threshold, result.strict)
        assert result.witness.duration > 0 or not positive
        return
    for word in probes:
        if word.duration > 0 or not positive:
            value = wrdl.wrdl_eval(sentence, word, pv)
            assert not optcost._below(value, result.threshold, result.strict)


def test_decisions_match_the_full_translation_path(monkeypatch):
    rng = random.Random(5)
    sentences = [sampling.random_restricted_sentence(rng) for _ in range(200)]
    sum_thetas = (Fraction(0), Fraction(1), Fraction(2))
    avg_thetas = (Fraction(1, 2), Fraction(1), Fraction(3, 2))

    def decide_all():
        out = []
        for i, sentence in enumerate(sentences):
            out.append(outcome(decide_sum_threshold, sentence, ("a", "b"),
                                sum_thetas[i % 3], strict=i % 2 == 0))
            out.append(outcome(decide_avg_threshold, sentence, ("a", "b"),
                                avg_thetas[i % 3], strict=i % 4 < 2))
        return out

    got = decide_all()
    assert not [r for r in got if isinstance(r, tuple)]  # no draw raises
    # the oracle path: the full Nivat translation relabelled by h, and
    # the Region-node search, which reports no witness
    monkeypatch.setattr(optcost, "compile_guard_family", nivat_compile_guard_family)
    monkeypatch.setattr(optcost, "_Search", BruteSearch)
    want = decide_all()
    nested = []
    for k, (result, oracle) in enumerate(zip(got, want)):
        sentence = sentences[k // 2]
        pv = SUM0 if k % 2 == 0 else AVG0
        if not (isinstance(oracle, tuple) and oracle[0] is UnsupportedGuardError
                and oracle[1].startswith(_NESTED)):
            _check_by_probing(result, sentence, pv, probes=())
            assert dataclasses.replace(result, witness=None, witness_value=None) == oracle
            continue
        nested.append(result)
        _check_by_probing(result, sentence, pv)
    assert len(nested) >= 20
    assert {r.holds for r in nested} == {False, True}
    assert sum(r.holds for r in got) >= 100
    assert sum(not r.holds for r in got) >= 50
    assert sum(r.witness is not None for r in got) >= 100


# "X is nonempty", written as a singleton test whose inner binder shadows
# the outer one: no rdl_singleton(X, z, u) with u other than z.  The sum
# is -(number of positions) when X holds every position, so the value of
# (a,1)(a,1)(a,1) is -3; read as "X is a singleton", the payload would
# leave only one-letter words and an infimum of -1.
_SHADOWED = ("EX X. (B(ex z. (X(z) & !(ex z. (X(z) & !(z <= z & z <= z))))) & "
             "(B(!(ex y. !(X(y)))) & all y. (0, -1)))")


def test_a_shadowed_binder_is_not_read_as_a_singleton_test():
    sentence = wrdl.parse_wrdl(_SHADOWED)
    assert wrdl.wrdl_eval(sentence, wd(("a", 1), ("a", 1), ("a", 1)), SUM0) == -3
    result = decide_sum_threshold(sentence, ("a",), Fraction(-2))
    assert result.holds and result.infimum is NEG_INF
    assert result.witness_value < -2
    assert result.witness_value == wrdl.wrdl_eval(sentence, result.witness, SUM0)


# Existentials over an earlier, a later or any position: each compiles
# as the disjunction of z = x, z < x (a past fact) and z > x (a future
# fact), where a case may fold to a flag or drop out.
_COMPARING = (
    "all x. (B(ex y. x <= y), 1)",
    "all x. (B(ex z. (z <= x & !(x <= z) & P[a](z))), 1)",
    "all x. (B(ex z. (x <= z & !(z <= x) & P[b](z))) | B(P[a](x)), 2)",
    "all x. (B(!(ex z. (x <= z & !(z <= x) & P[b](z)))), 1)",
    "EX X. all x. (B(ex z. (z <= x & X(z) & !(ex u. (u <= z & !(z <= u) & X(u))))), 1"
    " | B(X(x)))",
    "all x. (B(ex z. (z <= x & !(x <= z) & ex u. (u <= z & !(z <= u) & P[b](u)))), 1)",
    # a weighted existential whose guard does not mention its variable
    "ex y. all x. (B(P[a](x)), 1)",
)


def test_existentials_that_compare_positions_decide():
    words = random.Random(18)
    for text in _COMPARING:
        sentence = wrdl.parse_wrdl(text)
        canonical = wrdl.canonicalize(sentence, SUM0)
        summed = compile_guard_family(
            canonical.guards, tuple(zip(canonical.left, canonical.right)), ("a", "b"),
            canonical.so_vars, canonical.var).weighted(monoid_from_id("sum"))
        for _ in range(150):
            word = sampling.random_word(words, ("a", "b"), max_len=4)
            assert behavior(summed, word) == wrdl.wrdl_eval(sentence, word, SUM0)
        for theta in (Fraction(0), Fraction(1), Fraction(2), Fraction(7, 2)):
            _check_by_probing(decide_sum_threshold(sentence, ("a", "b"), theta), sentence, SUM0)
            _check_by_probing(decide_avg_threshold(sentence, ("a", "b"), theta), sentence, AVG0)


def test_comparing_payloads_compile_to_the_sentence_values():
    rng = random.Random(7)
    thetas = (Fraction(0), Fraction(1), Fraction(2), Fraction(7, 2))
    facts = holds = weighted = 0
    for k in range(40):
        sentence = random_comparing_sentence(rng)
        weighted += "ex y." in wrdl.to_text(sentence)  # a singleton part
        canonical = wrdl.canonicalize(sentence, SUM0)
        family = compile_guard_family(
            canonical.guards, tuple(zip(canonical.left, canonical.right)), ("a", "b"),
            canonical.so_vars, canonical.var)
        # a location q<phase>.<tau>.<wit>.<facts>@<slot> names the facts held
        facts += any(name.split("@")[0].split(".")[3] for name in family.automaton.initial)
        summed = family.weighted(monoid_from_id("sum"))
        words = random.Random(k)
        for _ in range(10):
            word = sampling.random_word(words, ("a", "b"), max_len=4)
            assert behavior(summed, word) == wrdl.wrdl_eval(sentence, word, SUM0)
        decide, pv = ((decide_sum_threshold, SUM0), (decide_avg_threshold, AVG0))[k % 2]
        result = decide(sentence, ("a", "b"), thetas[k % 4])
        _check_by_probing(result, sentence, pv)
        holds += result.holds
    assert facts >= 20 and weighted >= 10
    assert 10 <= holds <= 30


def test_guard_families_match_the_per_state_guard_construction():
    rng = random.Random(5)
    sentences = [sampling.random_restricted_sentence(rng) for _ in range(200)]
    # The sampler draws no weighted existential, so no pool family has a
    # singleton test.  The first of these has one, which the compiler
    # reads through a past and a future fact and the oracle through a
    # counter, so their automata differ by design; the second has a
    # lookalike; the third has five distance atoms, over the oracle's size
    # cap.  All three are checked by behavior.
    sentences += [wrdl.parse_wrdl("ex x. B(P[a](x))"), wrdl.parse_wrdl(_SHADOWED),
                  wrdl.parse_wrdl("EX X. all x. (B(dpast[<1](X, x) & !dpast[>=3](X, x))"
                                  " | B(dpast[>2](X, x) & P[a](x))"
                                  " | B(dpast[<=0](X, x) | dpast[<2](X, x)), 1)")]
    compiled = nested = 0
    values = []
    for k, sentence in enumerate(sentences):
        canonical = wrdl.canonicalize(sentence, SUM0)
        args = (canonical.guards, tuple(zip(canonical.left, canonical.right)), ("a", "b"),
                canonical.so_vars, canonical.var)
        try:
            want = brute_compile_guard_family(*args)
        except UnsupportedGuardError as exc:
            if not str(exc).startswith((_NESTED, _TOO_LARGE)):
                with pytest.raises(UnsupportedGuardError, match=re.escape(str(exc))):
                    compile_guard_family(*args)
                continue
            want = None
        got = compile_guard_family(*args)
        if want is not None and k < 200:
            assert got == want
            compiled += bool(got.automaton.clocks)
            continue
        # The oracle refuses a nested existential or a family over its
        # cap, or builds a singleton test its own way: check the compiled
        # family's behavior against the sentence value.
        summed = got.weighted(monoid_from_id("sum"))
        words = random.Random(k)
        for _ in range(60):
            word = sampling.random_word(words, ("a", "b"), max_len=4)
            values.append(behavior(summed, word))
            assert values[-1] == wrdl.wrdl_eval(sentence, word, SUM0)
        nested += 1
    assert compiled >= 40
    assert nested >= 10
    finite = sum(map(is_finite, values))
    assert finite >= 100 and len(values) - finite >= 100


def test_avg_reduction_identity_on_sampled_words():
    rng = random.Random(83)
    sentence = fixtures.average_cost_sentence()
    thetas = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
    for _ in range(30):
        word = sampling.random_word(rng, ("a", "b"), max_len=3)
        if word.duration == 0:
            continue
        avg_value = wrdl.wrdl_eval(sentence, word, AVG0)
        sum_value = wrdl.wrdl_eval(sentence, word, SUM0)
        for theta in thetas:
            shifted = sum_value - theta * word.duration if is_finite(sum_value) else INF
            assert (is_finite(avg_value) and avg_value < theta) == \
                (is_finite(shifted) and shifted < 0)
