"""Generate one workload's inputs and expected answers from a seed.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out FILE

The output is JSON: ``objects`` holds the inputs in the library's
interchange forms (automaton dicts, ``[letter, "p/q"]`` words, formula
text), which the workload process loads through the library's own
parsers; ``queries`` is the fixed list the closed loop runs, each with
the answer it must check against.  Expected answers come from
``reference`` (closed forms and an independent run enumerator), from
pinned values, or, for sampled sentences, from a second library path.
The library is imported here only to sample and serialize inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
from watl import (fixtures, optcost, rdl, sampling, serialize,  # noqa: E402
                  transform, wrdl)
from watl.core import TimedWord  # noqa: E402
from watl.monoids import monoid_from_id  # noqa: E402
from watl.weights import Infinity  # noqa: E402

BRANCH_MONOIDS = ("sum", "avg", "disc:1/2", "prod")
BRANCH_RUNGS = (7, 8, 9, 10)
NIVAT_RUNGS = (4, 5, 6)
WRDL_RUNGS = (6, 7, 8, 9)
CHECK_RUNGS = (8, 9, 10, 11)
# behavior recurses once per letter; 1,000 letters and up hit the
# interpreter's recursion limit (a known defect kept in the list).
LONG_RUNGS = (100, 200, 400, 800, 1000, 1500, 2000)
PRICED_RUNGS = (1, 2, 4, 8)
ALL_MONOIDS = ("sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2")
# The sentence pool of decide and construct is pinned: 200 draws from
# Random(5), of which 15 make decide_sum_threshold raise
# UnsupportedGuardError.  Pinning also fixes the cost of these queries,
# whose spread across samples is wide.
POOL_SEED, POOL_SIZE, AVG_POOL, CONSTRUCT_POOL = 5, 200, 24, 40
WTAS_PER_MONOID = 16
PROBE_DELAYS = (Fraction(0), Fraction(1), Fraction(2))
MAX_CORNER_NODES = 40


def enc(value):
    """Expected value -> JSON: "p/q", "inf", "-inf", {"float": x} or bool."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Infinity):
        return repr(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return {"float": value}
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return str(value.numerator) if value.denominator == 1 else str(value)
    return {"float": float(value)}


def word_list(pairs) -> list:
    return [[a, str(Fraction(t))] for a, t in pairs]


class Inputs:
    def __init__(self, workload: str, seed: int):
        self.data = {"workload": workload, "seed": seed, "objects": {}, "queries": []}

    def obj(self, kind: str, data, name: str = None) -> str:
        objects = self.data["objects"]
        name = name or f"{kind}{len(objects)}"
        objects[name] = {"kind": kind, "data": data}
        return name

    def word(self, pairs) -> str:
        return self.obj("word", word_list(pairs))

    def query(self, op: str, **fields) -> None:
        self.data["queries"].append({"op": op, **fields})


def _pairs(word: TimedWord) -> list:
    return list(word.entries)


def _alphabet(rng: random.Random) -> tuple:
    return ("a",) if rng.random() < 0.5 else ("a", "b")


def _pool(size: int):
    """(alphabet, sentence) pairs drawn as the fuzz suite draws them."""
    rng = random.Random(POOL_SEED)
    for _ in range(size):
        alphabet = _alphabet(rng)
        yield alphabet, sampling.random_restricted_sentence(rng, alphabet)


def _branch_weights(rng: random.Random, monoid: str) -> tuple:
    edges = ("pp", "pq", "qp", "qq")
    if monoid == "prod":
        return {"p": 0, "q": 0}, {e: rng.randint(1, 3) for e in edges}
    rates = {l: Fraction(rng.randint(0, 4), rng.choice((1, 2))) for l in "pq"}
    return rates, {e: Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for e in edges}


def _delays(rng: random.Random, n: int) -> list:
    """Odd halves: the discounting valuation's cost depends on whether a
    delay is integral, so every seed gets the same kind of delay."""
    return [Fraction(2 * rng.randint(0, 3) + 1, 2) for _ in range(n)]


# ---------------------------------------------------------------------------
# eval: word evaluation along scaling ladders


def gen_eval(seed: int) -> dict:
    rng = random.Random(seed)
    out = Inputs("eval", seed)
    for monoid in BRANCH_MONOIDS:
        rates, weights = _branch_weights(rng, monoid)
        model = out.obj("wta", reference.branching_model(monoid, rates, weights))
        for n in BRANCH_RUNGS:
            delays = _delays(rng, n)
            out.query("behavior", model=model, word=out.word(("a", d) for d in delays),
                      expect=enc(reference.branching_value(monoid, rates, weights, delays)),
                      ladder=f"branching/{monoid}", rung=n)

    rates, weights = _branch_weights(rng, "sum")
    branch = serialize.wta_from_dict(reference.branching_model("sum", rates, weights))
    triple = out.obj("triple", serialize.triple_to_dict(transform.nivat_decompose(branch)))
    for n in NIVAT_RUNGS:
        delays = _delays(rng, n)
        out.query("nivat_eval", triple=triple, monoid="sum",
                  word=out.word(("a", d) for d in delays),
                  expect=enc(reference.branching_value("sum", rates, weights, delays)),
                  ladder="nivat/branching", rung=n)

    min_wait = out.obj("wrdl", wrdl.to_text(fixtures.min_wait_sentence()))
    for n in WRDL_RUNGS:
        pairs = [("a", d) for d in _delays(rng, n)]
        out.query("wrdl_eval", sentence=min_wait, monoid="sum0", word=out.word(pairs),
                  expect=enc(reference.min_wait_value(pairs)),
                  ladder="wrdl/min_wait", rung=n)
    fixture_cases = (
        (fixtures.min_wait_sentence, "sum0", reference.min_wait_value, 1, ("a",)),
        (fixtures.bounded_average_sentence, "avg0", reference.bounded_average_value, 1, ("a",)),
        (fixtures.average_cost_sentence, "avg0", reference.average_cost_value, 6, ("a", "b")),
        (fixtures.squared_length_sentence, "sum0", reference.squared_length_value, 8, ("a",)),
    )
    for make, monoid, value, max_len, letters in fixture_cases:
        sentence = out.obj("wrdl", wrdl.to_text(make()))
        for _ in range(2):
            pairs = _pairs(sampling.random_word(rng, letters, max_len=max_len))
            out.query("wrdl_eval", sentence=sentence, monoid=monoid, word=out.word(pairs),
                      expect=enc(value(pairs)))

    pv = monoid_from_id("sum0")
    for _ in range(8):
        alphabet = _alphabet(rng)
        sentence = sampling.random_restricted_sentence(rng, alphabet)
        word = sampling.random_word(rng, alphabet, max_len=3)
        via_canonical = wrdl.wrdl_eval(wrdl.canonicalize(sentence, pv).to_formula(), word, pv)
        out.query("wrdl_eval", sentence=out.obj("wrdl", wrdl.to_text(sentence)), monoid="sum0",
                  word=out.word(_pairs(word)), expect=enc(via_canonical))

    for n in CHECK_RUNGS:
        pairs = [("a", d) for d in _delays(rng, n - 1)] + [("b", _delays(rng, 1)[0])]
        total = sum((t for _, t in pairs), Fraction(0))
        word = out.word(pairs)
        for bound in (math.floor(total), math.floor(total) + 1):
            out.query("model_check", formula=out.obj("rdl", reference.dpast_sentence(">=", bound)),
                      word=word, expect=reference.dpast_truth(">=", bound, pairs),
                      ladder=f"model_check/{'holds' if bound <= total else 'fails'}", rung=n)

    rate, weight = rng.randint(1, 3), rng.randint(0, 2)
    meter = out.obj("wta", reference.meter_model(rate, weight))
    for n in LONG_RUNGS:
        delays = [Fraction(rng.randint(1, 2), 2) for _ in range(n)]
        out.query("behavior", model=meter, word=out.word(("a", d) for d in delays),
                  expect=enc(reference.meter_value(rate, weight, delays)),
                  ladder="one_run", rung=n)

    for k in range(8):
        monoid = monoid_from_id(BRANCH_MONOIDS[k % len(BRANCH_MONOIDS)])
        model = serialize.wta_to_dict(sampling.random_wta(rng, monoid))
        pairs = _pairs(sampling.random_word(rng, model["alphabet"], max_len=6))
        out.query("behavior", model=out.obj("wta", model), word=out.word(pairs),
                  expect=enc(reference.behavior(model, pairs)))
    rng.shuffle(out.data["queries"])
    return out.data


# ---------------------------------------------------------------------------
# decide: threshold and optimal-cost queries


def _probe_words(alphabet, delays=PROBE_DELAYS):
    steps = [(a, d) for a in alphabet for d in delays]
    for n in (1, 2):
        yield from itertools.product(steps, repeat=n)


def _probe_min(sentence, alphabet, pv, positive: bool):
    best = None
    for pairs in _probe_words(alphabet):
        word = TimedWord.from_pairs(pairs)
        if positive and word.duration == 0:
            continue
        value = wrdl.wrdl_eval(sentence, word, pv)
        if best is None or value < best:
            best = value
    return best


def _threshold(probe_min, k: int, above: bool) -> Fraction:
    """Threshold for the k-th query on a pool sentence.  Above the probe
    minimum the verdict must be yes; at or below it either verdict is
    possible and is checked against the probes.  Thresholds are pinned
    with the pool: the witness search behind a yes verdict costs more
    than a no, and pumping takes a number of laps set by the margin."""
    if isinstance(probe_min, Infinity):
        return Fraction(k % 3)
    if above:
        return probe_min + Fraction(1, 2)
    return probe_min - Fraction(k % 2, 2)


def _scaled_automaton(rng: random.Random, clocks: int, scale: int) -> dict:
    while True:
        base = sampling.random_automaton(rng, alphabet=("a", "b"), max_locations=3,
                                         max_clocks=clocks, max_edges=6)
        if base.clocks:
            break
    data = serialize.automaton_to_dict(base)
    for edge in data["edges"]:
        edge["guard"] = re.sub(r"\d+", lambda m: str(int(m.group()) * scale), edge["guard"])
    data["monoid"] = "sum"
    data["weights"] = {
        "locations": {l: str(sampling.random_weight(rng)) for l in base.locations},
        "edges": {e.id: str(sampling.random_weight(rng)) for e in base.edges},
    }
    return data


def _cost_probe_min(model: dict, extra=()):
    """Least reference value over short words and the extra words."""
    delays = sorted({Fraction(d) for d in (0, 1, 2, 4, 8)}
                    | {Fraction(d, 2) for d in (1, 7)})
    words = itertools.chain(_probe_words(model["alphabet"], delays), extra)
    return min((reference.min_cost(model, pairs) for pairs in words), default=reference.INF)


def gen_decide(seed: int) -> dict:
    rng = random.Random(seed)
    out = Inputs("decide", seed)
    sum0, avg0 = monoid_from_id("sum0"), monoid_from_id("avg0")
    for k, (alphabet, sentence) in enumerate(_pool(POOL_SIZE)):
        name = out.obj("wrdl", wrdl.to_text(sentence))
        low = _probe_min(sentence, alphabet, sum0, positive=False)
        out.query("decide_sum", sentence=name, alphabet=list(alphabet),
                  theta=str(_threshold(low, k, k % 2 == 0)), probe_min=enc(low))
        if k < AVG_POOL:
            low = _probe_min(sentence, alphabet, avg0, positive=True)
            for above in (True, False):
                out.query("decide_avg", sentence=name, alphabet=list(alphabet),
                          theta=str(_threshold(low, k, above)), probe_min=enc(low))

    for clocks in (2, 3):
        for variant in ("finite", "negative"):
            for k in PRICED_RUNGS:
                rs = rng.randint(1, 3)
                w1 = rng.randint(-rs, 1) if variant == "finite" else -rs - rng.randint(1, 2)
                w2, rt, w3 = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 1)
                model = reference.priced_model(k, clocks, rs, w1, w2, rt, w3)
                value = reference.priced_value(k, clocks, rs, w1, w2, w3)
                out.query("inf_cost", model=out.obj("wta", model), expect=enc(value),
                          attained=value != reference.NEG_INF,
                          ladder=f"priced/{clocks}/{variant}", rung=k)

    pinned = ((fixtures.priced_min_wait, "7", True), (fixtures.priced_strict_guard, "-1", False),
              (fixtures.priced_negative_cycle, "-inf", False),
              (fixtures.priced_unreachable, "inf", False))
    for make, value, attained in pinned:
        out.query("inf_cost", model=out.obj("wta", serialize.wta_to_dict(make())),
                  expect=value, attained=attained)

    # All weights 0 on the Random(1671) automaton: (a,1)(a,7/2) has value 0,
    # so the infimum 0 is attained (the library reports it is not).
    zero = serialize.automaton_to_dict(sampling.random_automaton(
        random.Random(1671), alphabet=("a",), max_locations=4, max_clocks=3, max_edges=8))
    zero["monoid"] = "sum"
    zero["weights"] = {"locations": {l: "0" for l in zero["locations"]},
                       "edges": {e["id"]: "0" for e in zero["edges"]}}
    witness = [("a", Fraction(1)), ("a", Fraction(7, 2))]
    out.query("inf_cost", model=out.obj("wta", zero),
              probe_min=enc(_cost_probe_min(zero, [witness])))

    # Sampled instances are kept deterministic (one run per word) and
    # small: witness search evaluates pumped words of up to 4,000 letters,
    # which on an ambiguous automaton enumerates exponentially many runs,
    # and a large corner graph would put a seed-dependent query among the
    # slowest ones, where the tail percentile is read; the K ladder
    # covers large graphs.
    for k in range(12):
        while True:
            model = _scaled_automaton(rng, 1 + k % 3, 1 + k % 2)
            if not reference.classify(model)["deterministic"]:
                continue
            graph = optcost.build_corner_points(serialize.wta_from_dict(model))
            if len(graph.nodes) <= MAX_CORNER_NODES:
                break
        out.query("inf_cost", model=out.obj("wta", model),
                  probe_min=enc(_cost_probe_min(model)))
    rng.shuffle(out.data["queries"])
    return out.data


# ---------------------------------------------------------------------------
# construct: building objects, each with one cheap check


def _first_letter_a() -> dict:
    """Deterministic acceptor over {a, b} of the words starting with a."""
    edges = [{"id": "start", "source": "s", "label": "a", "guard": "true",
              "resets": [], "target": "in"}]
    edges += [{"id": f"in_{x}", "source": "in", "label": x, "guard": "true",
               "resets": [], "target": "in"} for x in ("a", "b")]
    return {"alphabet": ["a", "b"], "locations": ["s", "in"], "clocks": [],
            "initial": ["s"], "final": ["in"], "edges": edges, "unambiguous": True}


def gen_construct(seed: int) -> dict:
    rng = random.Random(seed)
    out = Inputs("construct", seed)
    acceptor = out.obj("automaton", _first_letter_a())
    for k in range(WTAS_PER_MONOID * len(ALL_MONOIDS)):
        monoid_id = ALL_MONOIDS[k % len(ALL_MONOIDS)]
        model = serialize.wta_to_dict(sampling.random_wta(rng, monoid_from_id(monoid_id)))
        name = out.obj("wta", model)
        pairs = _pairs(sampling.random_word(rng, ("a", "b"), max_len=3))
        word = out.word(pairs)
        out.query("decompose_compose", model=name, monoid=monoid_id, word=word,
                  expect=enc(reference.behavior(model, pairs)))
        merged = [("a", t) for _, t in pairs]
        preimages = [list(zip(letters, (t for _, t in pairs)))
                     for letters in itertools.product("ab", repeat=len(pairs))]
        out.query("relabel", model=name, word=out.word(merged),
                  expect=enc(reference.plus_all(
                      monoid_id, (reference.behavior(model, p) for p in preimages))))
        outside = Fraction(0) if monoid_id == "prod" else reference.INF
        out.query("product", model=name, acceptor=acceptor, word=word,
                  expect=enc(reference.behavior(model, pairs) if pairs[0][0] == "a"
                             else outside))
        out.query("serialize_wta", data=model)
        out.query("classify", automaton=out.obj("automaton", {
            key: value for key, value in model.items() if key not in ("monoid", "weights")}),
            expect=reference.classify(model))
        if k % 2 == 0:
            out.query("serialize_triple", data=serialize.triple_to_dict(
                transform.nivat_decompose(serialize.wta_from_dict(model))))

    pv = monoid_from_id("sum0")
    for alphabet, sentence in _pool(CONSTRUCT_POOL):
        text = wrdl.to_text(sentence)
        pairs = _pairs(sampling.random_word(rng, alphabet, max_len=1))
        out.query("sentence_roundtrip", sentence=out.obj("wrdl", text), alphabet=list(alphabet),
                  word=out.word(pairs),
                  expect=enc(wrdl.wrdl_eval(sentence, TimedWord.from_pairs(pairs), pv)))
        out.query("parse_wrdl", text=text)
        language = wrdl.sentence_to_nivat(wrdl.canonicalize(sentence, pv), alphabet, pv).language
        out.query("parse_rdl", text=rdl.to_text(language))

    # check_axioms samples are pinned like the sentences: together they are
    # the slowest queries, where the tail percentile is read.
    for k, monoid_id in enumerate(ALL_MONOIDS):
        out.query("check_axioms", monoid=monoid_id, samples=100, seed=k)
    rng.shuffle(out.data["queries"])
    return out.data


# ---------------------------------------------------------------------------
# cli: the README worked examples as fresh processes

README_MODEL = {
    "alphabet": ["a"], "locations": ["wait", "done"], "clocks": ["x"],
    "initial": ["wait"], "final": ["done"],
    "edges": [{"id": "go", "source": "wait", "label": "a", "guard": "x>=2",
               "resets": [], "target": "done"}],
    "unambiguous": True, "monoid": "sum",
    "weights": {"locations": {"wait": "3", "done": "0"}, "edges": {"go": "1"}},
}
README_FILES = {
    "m.json": json.dumps(README_MODEL, indent=2) + "\n",
    "w.json": '[["a", "3"]]\n',
    "f.txt": "ex x. P[a](x)\n",
    "sq.txt": "all x.(0, all y.(0, 1))\n",
    "b.txt": "B(ex x. P[a](x))\n",
    "lin.txt": "all z. (3, 1)\n",
}
# Chains of README commands: (argv, file stdout is saved to, expected stdout).
# An expected stdout of None means README prints nothing for the command;
# its output must then be one JSON object.
README_CHAINS = (
    ((["behavior", "--model", "m.json", "--word", "w.json"], None, '{"value":"10"}'),),
    ((["infcost", "--model", "m.json"], None,
      '{"value":"7","attained":true,"witness":[["a","2"]]}'),),
    ((["runs", "--model", "m.json", "--word", "w.json"], None,
      '{"count":1,"runs":[{"edges":["go"],"locations":["wait","done"],"value":"10"}]}'),),
    ((["decompose", "--model", "m.json"], "t.json", None),
     (["nivat-eval", "--triple", "t.json", "--word", "w.json", "--monoid", "sum"], None,
      '{"value":"10"}'),
     (["compose", "--triple", "t.json", "--monoid", "sum", "--alphabet", "a"], "back.json",
      None)),
    ((["rdl-check", "--formula", "f.txt", "--word", "w.json"], None, '{"holds":true}'),),
    ((["wrdl-eval", "--formula", "sq.txt", "--word", "w.json", "--monoid", "sum0"], None,
      '{"value":"1"}'),
     (["wrdl-classify", "--formula", "sq.txt"], None,
      '{"sentence":true,"almost_boolean":false,"syntactically_restricted":false}')),
    ((["canonicalize", "--formula", "b.txt", "--monoid", "sum0"], None, None),
     (["to-nivat", "--formula", "b.txt", "--monoid", "sum0", "--alphabet", "a,b"], "bt.json",
      None),
     (["from-nivat", "--triple", "bt.json", "--monoid", "sum0"], None, None)),
    ((["decide", "--formula", "lin.txt", "--monoid", "sum0", "--theta", "2"], None,
      '{"exists":true,"witness":[["a","0"]]}'),
     (["decide", "--formula", "lin.txt", "--monoid", "sum0", "--theta", "1"], None,
      '{"exists":false}'),
     (["decide", "--formula", "lin.txt", "--monoid", "sum0", "--theta", "1", "--non-strict"],
      None, '{"exists":true,"witness":[["a","0"]]}')),
    ((["check-axioms", "--monoid", "prod", "--samples", "1000"], None,
      '{"ok":true,"failures":[]}'),),
    ((["--seed", "7", "fuzz", "--suite", "nivat", "--count", "100"], None,
      '{"pass":100,"fail":0}'),),
    ((["--seed", "7", "fuzz", "--suite", "wrdl", "--count", "50"], None,
      '{"pass":50,"fail":0}'),),
)


def gen_cli(seed: int) -> dict:
    """The README chains plus seeded behavior, rdl-check and infcost
    invocations with closed-form answers, in seeded order; the extras
    make a pass long enough for a tail percentile above the median."""
    rng = random.Random(seed)
    out = Inputs("cli", seed)
    files = dict(README_FILES)
    chains = [list(chain) for chain in README_CHAINS]
    for k in range(5):
        rates, weights = _branch_weights(rng, "sum")
        delays = _delays(rng, 6 + k % 3)
        files[f"branch{k}.json"] = json.dumps(reference.branching_model("sum", rates, weights))
        files[f"branch{k}_word.json"] = json.dumps(word_list(("a", d) for d in delays))
        chains.append([(["behavior", "--model", f"branch{k}.json", "--word",
                         f"branch{k}_word.json"], None,
                        {"value": enc(reference.branching_value("sum", rates, weights, delays))})])
        pairs = _pairs(sampling.random_word(rng, ("a", "b"), min_len=4, max_len=6))
        bound = rng.randint(0, 4)
        files[f"dpast{k}.txt"] = reference.dpast_sentence(">=", bound) + "\n"
        files[f"dpast{k}_word.json"] = json.dumps(word_list(pairs))
        chains.append([(["rdl-check", "--formula", f"dpast{k}.txt", "--word",
                         f"dpast{k}_word.json"], None,
                        {"holds": reference.dpast_truth(">=", bound, pairs)})])
    rs, w1, w2 = rng.randint(1, 3), rng.randint(-1, 1), rng.randint(0, 3)
    files["priced.json"] = json.dumps(reference.priced_model(4, 2, rs, w1, w2, 1, 1))
    chains.append([(["infcost", "--model", "priced.json"], None,
                    {"value": enc(reference.priced_value(4, 2, rs, w1, w2, 1))})])
    rng.shuffle(chains)
    for name, text in files.items():
        out.obj("file", text, name=name)
    for chain in chains:
        for argv, save_to, expect in chain:
            out.query("cli", argv=argv, save_to=save_to, expect=expect)
    return out.data


GENERATORS = {"eval": gen_eval, "decide": gen_decide, "construct": gen_construct,
              "cli": gen_cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    data = GENERATORS[args.workload](args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
