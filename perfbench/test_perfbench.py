"""Self-tests of the benchmark: span arithmetic, patching, and agreement
of the reference answers with the library at small sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import watl  # noqa: E402
import worker  # noqa: E402
from watl import fixtures, optcost, rdl, sampling, serialize, wrdl  # noqa: E402
from watl.core import TimedWord  # noqa: E402

MONOIDS = ("sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(recorder, clock, name, start, end, inner=()):
    """Open name at start, run the inner spans, close it at end."""
    clock.now = start
    frame = recorder.enter(name, name.split(".")[0])
    for child in inner:
        _span(recorder, clock, *child)
    clock.now = end
    recorder.exit(frame)


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    _span(rec, clock, "m.a", 0, 10, [("m.b", 2, 5), ("n.c", 6, 9, [("m.b", 7, 8)])])
    assert rec.self_s["m.a"] == 4
    assert rec.self_s["n.c"] == 2
    assert rec.self_s["m.b"] == 4
    assert rec.calls["m.b"] == 2
    assert rec.busy_s["m.b"] == 4
    assert rec.busy_s["m.a"] == 10
    # Group busy time counts only the outermost span of the group.
    assert rec.busy_s["m"] == 10
    assert rec.busy_s["n"] == 3


def test_recursive_spans_count_busy_time_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    _span(rec, clock, "m.f", 0, 10, [("m.f", 2, 6)])
    assert rec.calls["m.f"] == 2
    assert rec.busy_s["m.f"] == 10
    assert rec.self_s["m.f"] == 10


def test_tagged_busy_time_and_growth():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    for rung, seconds in ((1, 0.01), (2, 0.02), (3, 0.04)):
        rec.tag = ("ladder", rung)
        _span(rec, clock, "m.f", 0, seconds)
    assert spans.growth(rec.tagged_busy_s, "m.f", ["ladder"]) == pytest.approx(2.0)
    doubling = {("m.f", ("k", 1)): 0.01, ("m.f", ("k", 2)): 0.04, ("m.f", ("k", 4)): 0.16}
    assert spans.growth(doubling, "m.f", ["k"], per=spans.per_doubling) == pytest.approx(4.0)
    too_short = {("m.f", ("k", 1)): 0.001, ("m.f", ("k", 2)): 0.002}
    assert spans.growth(too_short, "m.f", ["k"]) == 0.0


def test_install_patches_every_binding_and_remove_restores():
    original = watl.wta.behavior
    rec = spans.Recorder()
    done = spans.install(rec, functions=[("wta", "behavior", {}, {}),
                                         ("wta", "no_such_function", {}, {})],
                         methods=[("monoids", "no_such_method")])
    try:
        wrapped = watl.wta.behavior
        assert wrapped is not original
        for module in (watl, watl.transform, watl.optcost):
            assert module.behavior is wrapped
        assert done.absent == ["wta.no_such_function", "monoids.no_such_method"]
        word = TimedWord.from_pairs([("a", 3)])
        assert optcost.behavior(fixtures.priced_min_wait(), word) == 10
        assert rec.calls["wta.behavior"] == 1
    finally:
        done.remove()
    assert watl.wta.behavior is original and watl.optcost.behavior is original


def test_counters_read_results_and_probe_parents():
    rec = spans.Recorder()
    done = spans.install(rec)
    try:
        result = optcost.inf_cost(fixtures.priced_min_wait())
    finally:
        done.remove()
    graph = optcost.build_corner_points(fixtures.priced_min_wait())
    assert rec.counts["optcost.corner_nodes"] == len(graph.nodes)
    assert rec.counts["optcost.witness_probes"] == rec.calls["wta.behavior"] >= 1
    assert result.value == 7


def test_tail_is_highest_percentile_with_ten_beyond():
    assert worker.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    pct, _ = worker.tail([float(i) for i in range(228)])
    assert pct == 95
    assert worker.tail([1.0, 2.0, 3.0]) == (100, 3.0)


def test_times_are_scaled_by_the_probes_around_them():
    tally = worker.Tally()
    # Kernel bursts of 1, 3 and 2 ms taken at t = 0, 1 and 2 s: the host
    # runs at 1, 1/3 and 1/2 of the reference speed (1 ms).
    tally.calibration.times = [0.0, 1.0, 2.0]
    tally.calibration.values = [0.001, 0.003, 0.002]
    q = {"op": "behavior"}
    tally.passes.append([])
    tally.add(q, 0.004, (0.1, 0.2), True, "ok")     # between probes 0 and 1: 1/2
    tally.add(q, 0.006, (1.1, 1.2), False, "fail")  # between probes 1 and 2: 2/5
    tally.passes.append([])
    tally.add(q, 0.010, (1.3, 1.4), True, "ok")
    tally.add(q, 0.008, (2.1, 2.2), False, "fail")  # after the last probe: 1/2
    result = worker.summary(tally)
    # Each query is timed as its median over the passes.
    assert result["latency_p50_ms"] == pytest.approx(3.0)
    assert result["queries_per_s"] == pytest.approx(1 / (0.003 + 0.0032))
    assert result["pass_qps"] == pytest.approx([1 / 0.0044, 1 / 0.008])
    assert result["completed_per_pass"] == 1
    assert result["raw"]["latency_p50_ms"] == pytest.approx(7.0)
    assert result["raw"]["host_speed"] == pytest.approx(0.5)
    # A long query is scaled by every probe taken while it ran.
    assert tally.calibration.factor(0.5, 2.5) == pytest.approx(0.5)
    assert tally.calibration.factor(1.5, 2.5) == pytest.approx(0.4)
    assert tally.calibration.factor(-1.0, -0.5) == pytest.approx(1.0)


def test_timer_probes_inside_a_long_call_and_reports_their_time():
    with hostspeed.Calibration(slice_s=0.02) as calibration:
        began = time.perf_counter()
        while time.perf_counter() - began < 0.2:
            sum(range(1000))
        inside = [t for t in calibration.times if began < t]
    assert len(inside) >= 3
    assert 0 < calibration.stolen_s < 0.2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}


def _word(pairs):
    return TimedWord.from_pairs(pairs)


@pytest.mark.parametrize("monoid", ("sum", "avg", "disc:1/2", "prod"))
def test_branching_closed_form_matches_behavior(monoid):
    rng = random.Random(monoid)
    for n in range(1, 6):
        edges = ("pp", "pq", "qp", "qq")
        if monoid == "prod":
            rates, weights = {"p": 0, "q": 0}, {e: rng.randint(1, 3) for e in edges}
        else:
            rates = {l: Fraction(rng.randint(0, 4), 2) for l in "pq"}
            weights = {e: Fraction(rng.randint(-3, 3), 2) for e in edges}
        delays = [Fraction(rng.randint(1, 4), 2) for _ in range(n)]
        wta = serialize.wta_from_dict(reference.branching_model(monoid, rates, weights))
        got = watl.behavior(wta, _word([("a", d) for d in delays]))
        want = reference.branching_value(monoid, rates, weights, delays)
        assert worker.matches(got, gen.enc(want))
        assert len(watl.enumerate_runs(wta.base, _word([("a", d) for d in delays]))) \
            == 2 ** (n - 1)


def test_meter_closed_form_matches_behavior():
    delays = [Fraction(k % 3 + 1, 2) for k in range(50)]
    wta = serialize.wta_from_dict(reference.meter_model(2, 1))
    assert watl.behavior(wta, _word([("a", d) for d in delays])) == \
        reference.meter_value(2, 1, delays)


@pytest.mark.parametrize("clocks", (2, 3))
def test_priced_closed_form_matches_inf_cost(clocks):
    cases = [(2, -1, 3, 1, 1), (1, 0, 2, 0, 0), (3, 1, 0, 2, 1), (1, -2, 3, 1, 1),
             (2, 0, 1, 1, -1)]
    for k in (1, 2, 3):
        for rs, w1, w2, rt, w3 in cases:
            wta = serialize.wta_from_dict(reference.priced_model(k, clocks, rs, w1, w2, rt, w3))
            result = optcost.inf_cost(wta)
            want = reference.priced_value(k, clocks, rs, w1, w2, w3)
            assert worker.matches(result.value, gen.enc(want))
            assert result.attained == (want != reference.NEG_INF)


def test_sentence_closed_forms_match_wrdl_eval():
    rng = random.Random(3)
    cases = ((fixtures.min_wait_sentence, "sum0", reference.min_wait_value, ("a",)),
             (fixtures.bounded_average_sentence, "avg0", reference.bounded_average_value,
              ("a",)),
             (fixtures.average_cost_sentence, "avg0", reference.average_cost_value, ("a", "b")),
             (fixtures.squared_length_sentence, "sum0", reference.squared_length_value,
              ("a",)))
    for make, monoid, value, letters in cases:
        for _ in range(12):
            word = sampling.random_word(rng, letters, max_len=4)
            got = wrdl.wrdl_eval(make(), word, watl.monoid_from_id(monoid))
            assert worker.matches(got, gen.enc(value(list(word.entries))))


def test_dpast_truth_matches_model_check():
    rng = random.Random(4)
    for _ in range(40):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        for rel in (">=", "<="):
            for bound in range(4):
                formula = rdl.parse_rdl(reference.dpast_sentence(rel, bound))
                assert rdl.model_check(formula, word) == \
                    reference.dpast_truth(rel, bound, list(word.entries))


def test_reference_evaluators_match_the_library_on_sampled_automata():
    rng = random.Random(5)
    for k in range(70):
        monoid = watl.monoid_from_id(MONOIDS[k % len(MONOIDS)])
        model = serialize.wta_to_dict(sampling.random_wta(rng, monoid))
        word = sampling.random_word(rng, model["alphabet"], max_len=5)
        pairs = list(word.entries)
        got = watl.behavior(serialize.wta_from_dict(model), word)
        assert worker.matches(got, gen.enc(reference.behavior(model, pairs)))
        if reference.monoid_kind(monoid.id)[0] == "sum":
            assert worker.matches(got, gen.enc(reference.min_cost(model, pairs)))
        wta = serialize.wta_from_dict(model)
        assert watl.classify_automaton(wta.base) == reference.classify(model)


def test_known_defects_are_recognised():
    meter = serialize.wta_from_dict(reference.meter_model(1, 0))
    word = _word([("a", 1)] * 1200)
    with pytest.raises(RecursionError) as info:
        watl.behavior(meter, word)
    assert worker.known_defect({"op": "behavior"}, info.value) == "recursion"
    error = watl.UnsupportedGuardError("too large")
    assert worker.known_defect({"op": "decide_sum"}, error) == "unsupported"
    assert worker.known_defect({"op": "inf_cost"}, error) is None
