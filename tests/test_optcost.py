"""Corner-point graphs, infimum costs, and the threshold deciders."""

import random
from fractions import Fraction

import pytest

from conftest import grid_minimum, wd
from watl import fixtures, rdl, sampling, wrdl
from watl.core import RELATIONS, ClockAtom, ClockConstraint, Edge, TimedAutomaton, TimedWord
from watl.errors import DomainError
from watl.monoids import monoid_from_id
from watl.optcost import (
    build_corner_points,
    decide_avg_threshold,
    decide_sum_threshold,
    inf_cost,
    reachable_regions,
    region_of,
    region_reset,
    region_satisfies,
    region_zero,
    time_successor,
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


def test_witnesses_below_a_bound_are_real_words():
    automaton = fixtures.priced_strict_guard()
    result = inf_cost(automaton)
    witness, value = witness_below(automaton, result, Fraction(-1, 2), strict=True)
    assert value < Fraction(-1, 2)
    assert behavior(automaton, witness) == value

    pumped = fixtures.priced_negative_cycle()
    result = inf_cost(pumped)
    witness, value = witness_below(pumped, result, Fraction(-50), strict=True)
    assert value < -50
    assert behavior(pumped, witness) == value

    bounded = fixtures.priced_min_wait()
    result = inf_cost(bounded)
    assert witness_below(bounded, result, Fraction(7), strict=True) is None
    witness, value = witness_below(bounded, result, Fraction(7), strict=False)
    assert value == 7


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


def test_constantly_infinite_sentences_never_pass():
    sentence = wrdl.Bool(rdl.parse_rdl("ex x. !(x <= x)"))
    for theta in (Fraction(0), Fraction(100)):
        assert not decide_sum_threshold(sentence, ("a",), theta).holds


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
