"""Load one workload's inputs and run its query list as a closed loop.

Usage: python3 perfbench/worker.py --inputs FILE --work DIR --seconds S
           [--trace] [--setup-only]

One client, no threads: each query is sent when the previous one has
returned, and the whole list is repeated until ``--seconds`` have passed
(always whole passes, so every run measures the same mix).  Only the
library call is timed; its answer is checked afterwards.  Every time is
scaled to a reference host by ``hostspeed`` probes taken while the
queries run (the raw times are reported too).  The process prints one JSON
object with the measurements.

Set-up time runs from the first line of this file, in a fresh
interpreter, to the first query being ready: ``import watl`` plus
loading every input through the library's own loaders and parsers,
scaled by a ``hostspeed`` burst taken right after it.

With ``--trace`` the listed public functions are wrapped by
``spans.Recorder`` while the inputs load and during the traced passes;
a third of the time runs untraced first so that the tracing overhead
can be reported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import watl  # noqa: E402
from watl import optcost, rdl, serialize, transform, wrdl  # noqa: E402

CLI_TIMEOUT_S = 120
# Kernel runs in the burst that scales set-up time to the reference host.
SETUP_BURST = 9


class Defect(Exception):
    """A known library defect, counted in the error rate but not as a
    failed check."""


class Mismatch(Exception):
    """An answer that failed its check."""


def matches(value, expect) -> bool:
    """Compare a library value with an encoded expected value."""
    if isinstance(expect, dict):
        if not watl.is_finite(value):
            return False
        return abs(float(value) - expect["float"]) <= 1e-9 * max(1.0, abs(expect["float"]))
    if expect in ("inf", "-inf"):
        return not watl.is_finite(value) and repr(value) == expect
    return watl.is_finite(value) and Fraction(value) == Fraction(expect)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _pairs(word) -> list:
    return list(word.entries)


# ---------------------------------------------------------------------------
# Queries: each op is (call, check).  ``call`` is the timed library call;
# ``check`` raises Mismatch or Defect.


def call_behavior(ctx, q):
    return watl.behavior(ctx.obj[q["model"]], ctx.obj[q["word"]])


def check_value(ctx, q, result):
    require(matches(result, q["expect"]), f"value {result} != {q['expect']}")


def call_nivat_eval(ctx, q):
    return transform.nivat_eval(ctx.obj[q["triple"]], ctx.obj[q["word"]],
                                watl.monoid_from_id(q["monoid"]))


def call_wrdl_eval(ctx, q):
    return wrdl.wrdl_eval(ctx.obj[q["sentence"]], ctx.obj[q["word"]],
                          watl.monoid_from_id(q["monoid"]))


def call_model_check(ctx, q):
    return rdl.model_check(ctx.obj[q["formula"]], ctx.obj[q["word"]])


def check_equal(ctx, q, result):
    require(result == q["expect"], f"{result!r} != {q['expect']!r}")


def call_decide_sum(ctx, q):
    return optcost.decide_sum_threshold(ctx.obj[q["sentence"]], tuple(q["alphabet"]),
                                        Fraction(q["theta"]))


def call_decide_avg(ctx, q):
    return optcost.decide_avg_threshold(ctx.obj[q["sentence"]], tuple(q["alphabet"]),
                                        Fraction(q["theta"]))


def _check_decision(pv_id: str):
    def check(ctx, q, result):
        theta = Fraction(q["theta"])
        probe_min = Fraction(q["probe_min"]) if q["probe_min"] != "inf" else reference.INF
        if not result.holds:
            require(probe_min >= theta, f"no, yet a probe word is valued {probe_min} < {theta}")
            return
        if result.witness is None:
            raise Defect("witness")
        value = wrdl.wrdl_eval(ctx.obj[q["sentence"]], result.witness, watl.monoid_from_id(pv_id))
        require(watl.is_finite(value) and value < theta,
                f"witness valued {value}, not below {theta}")
        if pv_id == "avg0":
            require(result.witness.duration > 0, "average witness of zero duration")
    return check


def call_inf_cost(ctx, q):
    wta = ctx.obj[q["model"]]
    result = optcost.inf_cost(wta)
    if result.value is watl.INF:
        return result, None, None
    bound = result.value + 1 if watl.is_finite(result.value) else Fraction(-3)
    return result, optcost.witness_below(wta, result, bound), bound


def check_inf_cost(ctx, q, outcome):
    result, below, bound = outcome
    model = ctx.raw[q["model"]]
    value = result.value
    if "expect" in q:
        require(matches(value, q["expect"]), f"infimum {value} != {q['expect']}")
        require(result.attained == q["attained"], f"attained={result.attained}")
    else:
        probe_min = reference.INF if q["probe_min"] == "inf" else Fraction(q["probe_min"])
        require(value is watl.NEG_INF or (watl.is_finite(value) and value <= probe_min)
                or probe_min == reference.INF, f"infimum {value} above probe {probe_min}")
        if watl.is_finite(value) and value == probe_min and not result.attained:
            raise Defect("attained")
    if result.attained:
        require(reference.min_cost(model, _pairs(result.witness)) == value,
                "attaining witness has another value")
    if bound is not None:
        if below is None:
            raise Defect("witness")
        word, claimed = below
        exact = reference.min_cost(model, _pairs(word))
        require(exact == claimed and exact < bound, f"word below {bound} is valued {exact}")


def call_decompose_compose(ctx, q):
    wta = ctx.obj[q["model"]]
    triple = transform.nivat_decompose(wta)
    return transform.nivat_compose(triple, watl.monoid_from_id(q["monoid"]), wta.base.alphabet)


def check_behavior_of_result(ctx, q, result):
    check_value(ctx, q, watl.behavior(result, ctx.obj[q["word"]]))


def call_relabel(ctx, q):
    return transform.relabel(ctx.obj[q["model"]], {"a": "a", "b": "a"})


def call_product(ctx, q):
    return transform.product_intersect(ctx.obj[q["model"]], ctx.obj[q["acceptor"]])


def call_serialize_wta(ctx, q):
    return serialize.wta_to_dict(serialize.wta_from_dict(q["data"]))


def call_serialize_triple(ctx, q):
    return serialize.triple_to_dict(serialize.triple_from_dict(q["data"]))


def check_same_data(ctx, q, result):
    require(result == q["data"], "round trip changed the data")


def call_classify(ctx, q):
    return watl.classify_automaton(ctx.obj[q["automaton"]])


def call_sentence_roundtrip(ctx, q):
    pv = watl.monoid_from_id("sum0")
    canonical = wrdl.canonicalize(ctx.obj[q["sentence"]], pv)
    triple = wrdl.sentence_to_nivat(canonical, tuple(q["alphabet"]), pv)
    return wrdl.nivat_to_sentence(triple, pv)


def check_sentence_roundtrip(ctx, q, result):
    check_value(ctx, q, wrdl.wrdl_eval(result, ctx.obj[q["word"]], watl.monoid_from_id("sum0")))


def call_parse_wrdl(ctx, q):
    return wrdl.to_text(wrdl.parse_wrdl(q["text"]))


def call_parse_rdl(ctx, q):
    return rdl.to_text(rdl.parse_rdl(q["text"]))


def check_same_text(ctx, q, result):
    require(result == q["text"], f"{result!r} != {q['text']!r}")


def call_check_axioms(ctx, q):
    return watl.check_axioms(watl.monoid_from_id(q["monoid"]), samples=q["samples"],
                             seed=q["seed"])


def check_axioms_pass(ctx, q, result):
    require(result.passed, f"declared laws failed: {result.failures[:2]}")


def cli_command(argv) -> str:
    """The subcommand name in a CLI argument list (after global options)."""
    args = list(argv)
    while args and args[0].startswith("--"):
        args = args[2:]
    return args[0]


def call_cli(ctx, q):
    if ctx.recorder is not None:
        trace_file = os.path.join(ctx.work, "spans.json")
        argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_file, *q["argv"]]
    else:
        trace_file = None
        argv = [sys.executable, "-m", "watl.cli", *q["argv"]]
    done = subprocess.run(argv, cwd=ctx.work, capture_output=True, timeout=CLI_TIMEOUT_S)
    if trace_file is not None and os.path.exists(trace_file):
        with open(trace_file, encoding="utf-8") as handle:
            ctx.recorder.merge(json.load(handle))
        os.remove(trace_file)
    if q["save_to"]:
        with open(os.path.join(ctx.work, q["save_to"]), "wb") as handle:
            handle.write(done.stdout)
    return done


def check_cli(ctx, q, done):
    require(done.returncode == 0, f"exit {done.returncode}: {done.stderr[-300:]!r}")
    expect = q["expect"]
    if isinstance(expect, str):
        require(done.stdout == (expect + "\n").encode(), f"stdout {done.stdout[:200]!r}")
        return
    payload = json.loads(done.stdout)
    require(isinstance(payload, dict), "stdout is not one JSON object")
    for key, value in (expect or {}).items():
        got = payload[key] if isinstance(value, bool) else watl.parse_weight(payload[key])
        require(got == value if isinstance(value, bool) else matches(got, value),
                f"{key}={payload[key]}")


OPS = {
    "behavior": (call_behavior, check_value),
    "nivat_eval": (call_nivat_eval, check_value),
    "wrdl_eval": (call_wrdl_eval, check_value),
    "model_check": (call_model_check, check_equal),
    "decide_sum": (call_decide_sum, _check_decision("sum0")),
    "decide_avg": (call_decide_avg, _check_decision("avg0")),
    "inf_cost": (call_inf_cost, check_inf_cost),
    "decompose_compose": (call_decompose_compose, check_behavior_of_result),
    "relabel": (call_relabel, check_behavior_of_result),
    "product": (call_product, check_behavior_of_result),
    "serialize_wta": (call_serialize_wta, check_same_data),
    "serialize_triple": (call_serialize_triple, check_same_data),
    "classify": (call_classify, check_equal),
    "sentence_roundtrip": (call_sentence_roundtrip, check_sentence_roundtrip),
    "parse_wrdl": (call_parse_wrdl, check_same_text),
    "parse_rdl": (call_parse_rdl, check_same_text),
    "check_axioms": (call_check_axioms, check_axioms_pass),
    "cli": (call_cli, check_cli),
}


def known_defect(q, exc) -> str:
    """The known defect an exception shows, or None (``check_*`` raise
    Defect for the ones that show in answers).

    - UnsupportedGuardError from the threshold deciders;
    - RecursionError out of the recursive run enumeration (words of
      about 1,000 letters and more, including pumped witness words).
    """
    if isinstance(exc, watl.UnsupportedGuardError) and q["op"] in ("decide_sum", "decide_avg"):
        return "unsupported"
    if isinstance(exc, RecursionError):
        names = {frame.name for frame in traceback.extract_tb(exc.__traceback__)}
        if "enumerate_runs" in names:
            return "recursion"
    return None


# ---------------------------------------------------------------------------
# Loading


class Context:
    """The loaded inputs (``obj``), their interchange forms (``raw``), the
    work directory and, during traced passes, the span recorder."""

    def __init__(self, work: str):
        self.work = work
        self.recorder = None
        self.obj = {}
        self.raw = {}

    def load(self, objects: dict) -> None:
        loaders = {
            "wta": serialize.wta_from_dict,
            "automaton": serialize.automaton_from_dict,
            "triple": serialize.triple_from_dict,
            "word": serialize.word_from_list,
            "wrdl": wrdl.parse_wrdl,
            "rdl": rdl.parse_rdl,
        }
        for name, entry in objects.items():
            kind, data = entry["kind"], entry["data"]
            self.raw[name] = data
            if kind == "file":
                with open(os.path.join(self.work, name), "w", encoding="utf-8") as handle:
                    handle.write(data)
            else:
                self.obj[name] = loaders[kind](data)


# ---------------------------------------------------------------------------
# The closed loop


class Tally:
    """Outcomes of the queries run so far, and their raw times by pass
    with the interval each ran in, for the calibration."""

    def __init__(self, calibration=None):
        self.attempted = 0
        self.passes = []
        self.outcomes = Counter()
        self.failures = []
        self.calibration = calibration or hostspeed.Calibration()

    def add(self, q, seconds: float, span: tuple, completed: bool, outcome: str) -> None:
        self.attempted += 1
        self.outcomes[outcome] += 1
        command = cli_command(q["argv"]) if q["op"] == "cli" else None
        self.passes[-1].append((seconds, span, completed, command))


def run_query(ctx, q, tally: Tally) -> None:
    call, check = OPS[q["op"]]
    calibration = tally.calibration
    calibration.tick()
    recorder = ctx.recorder
    if recorder is not None:
        recorder.tag = (q["ladder"], q["rung"]) if "ladder" in q else None
        recorder.enabled = True
    stolen = calibration.stolen_s
    start = time.perf_counter()
    try:
        result = call(ctx, q)
        error = None
    except Exception as exc:  # the loop must go on; the error is classified here
        end = time.perf_counter()
        # Classify now and keep no reference: the traceback holds every
        # frame of a deep recursion until the cyclic collector runs.
        kind = known_defect(q, exc)
        error = f"{q['op']}: {type(exc).__name__}: {exc}"[:300]
    else:
        end = time.perf_counter()
    # Leave out the time the calibration's probes took during the call.
    seconds = end - start - (calibration.stolen_s - stolen)
    if recorder is not None:
        recorder.enabled = False
        recorder.tag = None
    if error is not None:
        if not kind:
            tally.failures.append(error)
        tally.add(q, seconds, (start, end), False, f"defect:{kind}" if kind else "fail")
        return
    try:
        check(ctx, q, result)
        outcome = "ok"
    except Defect as defect:
        outcome = f"defect:{defect}"
    except Mismatch as bad:
        outcome = "fail"
        tally.failures.append(f"{q['op']}: {bad}"[:300])
    except Exception as exc:  # a check that crashes is a failed check
        outcome = "fail"
        tally.failures.append(f"{q['op']} check: {type(exc).__name__}: {exc}"[:300])
    # Only a correct answer completes a query: one that fails its check or
    # shows a known defect counts in the error rate, not in the latencies.
    tally.add(q, seconds, (start, end), outcome == "ok", outcome)


def run_passes(ctx, queries, seconds: float, tally: Tally) -> None:
    with tally.calibration:
        start = time.perf_counter()
        while not tally.passes or time.perf_counter() - start < seconds:
            tally.passes.append([])
            for q in queries:
                run_query(ctx, q, tally)


def tail(latencies) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    completed queries beyond its nearest-rank value."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _per_query(passes, pick) -> tuple:
    """(latencies, seconds): for each query of the list, the median over
    the passes of its time, for the queries that completed and for all."""
    latencies, seconds = [], []
    for runs in zip(*passes):
        seconds.append(statistics.median(pick(r) for r in runs))
        done = [pick(r) for r in runs if r[2]]
        if done:
            latencies.append(statistics.median(done))
    return sorted(latencies), seconds


def summary(tally: Tally) -> dict:
    """Each query's time is the median of its times over the passes of the
    list, so one query slowed by the host, a collection or a slow pass
    does not move the figures.  Throughput is the queries completed in a
    pass over the sum of these times, and the percentiles are taken over
    the queries of one pass, so their rank does not shift with the
    number of passes that fit in a run.  Every time is scaled to the
    reference host (``hostspeed``); the raw figures are reported beside
    them."""
    factor = tally.calibration.factor
    scaled = [[(s * factor(*span), s, done, command) for s, span, done, command in p]
              for p in tally.passes]
    latencies, seconds = _per_query(scaled, lambda r: r[0])
    raw_latencies, raw_seconds = _per_query(scaled, lambda r: r[1])
    pct, tail_s = tail(latencies)
    by_command = defaultdict(list)
    for p in scaled:
        for t, _, done, command in p:
            if done and command:
                by_command[command].append(t)
    errors = tally.attempted - tally.outcomes["ok"]
    return {
        "attempted": tally.attempted,
        "failed": tally.outcomes["fail"],
        "failures": tally.failures[:10],
        "outcomes": dict(tally.outcomes),
        "passes": len(scaled),
        "completed": sum(done for p in scaled for _, _, done, _ in p),
        "queries_per_s": len(latencies) / sum(seconds),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "tail_percentile": pct,
        "completed_per_pass": len(latencies),
        "pass_qps": [sum(done for _, _, done, _ in p) / sum(t for t, _, _, _ in p)
                     for p in scaled],
        "raw": {
            "queries_per_s": len(raw_latencies) / sum(raw_seconds),
            "latency_p50_ms": 1000 * statistics.median(raw_latencies),
            "latency_tail_ms": 1000 * tail(raw_latencies)[1],
            "host_speed": tally.calibration.median_factor(),
        },
        "error_rate": errors / tally.attempted if tally.attempted else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "by_command_p50_ms": {k: 1000 * statistics.median(v) for k, v in by_command.items()},
    }


def cli_import_seconds(samples: int = 5) -> float:
    code = ("import time; t = time.perf_counter(); import watl.cli; "
            "print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 check=True, text=True, timeout=CLI_TIMEOUT_S).stdout)
            for _ in range(samples)]
    return statistics.median(runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_recorder = spans.Recorder() if args.trace else None
    installed = spans.install(setup_recorder) if args.trace else None
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    ctx = Context(args.work)
    ctx.load(inputs["objects"])
    setup_raw_s = time.perf_counter() - T0
    setup_s = setup_raw_s * hostspeed.KERNEL_REFERENCE_S / hostspeed.burst(SETUP_BURST)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0
    queries = inputs["queries"]
    # cli queries each start a process; the others run in this one.
    calibration = (hostspeed.Calibration.for_processes if inputs["workload"] == "cli"
                   else hostspeed.Calibration)

    if not args.trace:
        tally = Tally(calibration())
        run_passes(ctx, queries, args.seconds, tally)
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s, **summary(tally)}))
        return 0

    installed.remove()
    plain = Tally(calibration())
    run_passes(ctx, queries, args.seconds / 3, plain)
    traced = Tally(calibration())
    # Span times leave out the time the calibration's probes took.
    recorder = spans.Recorder(lambda: time.perf_counter() - traced.calibration.stolen_s)
    ctx.recorder = recorder
    installed = spans.install(recorder)
    recorder.enabled = False
    run_passes(ctx, queries, args.seconds * 2 / 3, traced)
    installed.remove()
    plain_summary, traced_summary = summary(plain), summary(traced)
    report = {
        "setup_s": setup_s,
        **traced_summary,
        "untraced": plain_summary,
        "absent": installed.absent,
        "setup_spans": setup_recorder.snapshot(),
        "pass_spans": recorder.snapshot(),
        "tagged_busy_s": [[name, list(tag), t]
                          for (name, tag), t in recorder.tagged_busy_s.items()],
        "qps_ratio": (traced_summary["queries_per_s"] / plain_summary["queries_per_s"]
                      if plain_summary["queries_per_s"] else 0.0),
    }
    if inputs["workload"] == "cli":
        report["cli_import_s"] = cli_import_seconds()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
