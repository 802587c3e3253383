"""The watl benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {eval,decide,construct,cli}
                             --seed N --seconds S --trace {0,1}

Each run generates the workload's inputs from the seed (``gen.py``),
times set-up in several fresh interpreters, and runs the query list as
a closed loop with one client in its own process (``worker.py``).  The
library comes from ``src/`` of the checkout; the benchmark only calls
its public functions.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a run with the span recorder installed.  Earlier
lines print every metric with its unit, the error rate, the tail
percentile and its sample count.

``failed`` counts answers that are wrong or raise unexpectedly.  Known
library defects (see ``design.json``) are counted in ``error_rate``
only, so a later fix shows as a lower error rate.  The design and the
layer-to-metric map are recorded in ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("eval", "decide", "construct", "cli")
SETUP_SAMPLES = 10
# A run must end within 180 s; every step gets what is left of this.
DEADLINE_S = 170

sys.path.insert(0, HERE)

import spans  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("behavior", "infcost", "runs", "decompose", "nivat-eval", "compose",
                "rdl-check", "wrdl-eval", "wrdl-classify", "canonicalize", "to-nivat",
                "from-nivat", "decide", "check-axioms", "fuzz")

GROWTH = {
    "wta.behavior.growth": ("wta.behavior", [f"branching/{m}" for m in
                                             ("sum", "avg", "disc:1/2", "prod")]),
    "transform.nivat_eval.growth": ("transform.nivat_eval", ["nivat/branching"]),
    "rdl.model_check.growth": ("rdl.model_check", ["model_check/holds", "model_check/fails"]),
    "wrdl.wrdl_eval.growth": ("wrdl.wrdl_eval", ["wrdl/min_wait"]),
    "optcost.inf_cost.growth_k": ("optcost.inf_cost", [f"priced/{c}/{v}" for c in (2, 3)
                                                       for v in ("finite", "negative")]),
}

# name -> (unit, source).  Span sources are ("calls"|"self_s"|"busy_s",
# span name) or ("counts", counter); they are reported per pass of the
# query list, plus what loading the inputs took.
PER_LAYER = {
    "core.enumerate_runs.calls": ("count", ("calls", "core.enumerate_runs")),
    "core.enumerate_runs.self_s": ("s", ("self_s", "core.enumerate_runs")),
    "core.runs_enumerated": ("count", ("counts", "core.runs_enumerated")),
    "monoids.val.calls": ("count", ("calls", "monoids.val")),
    "monoids.val.self_s": ("s", ("self_s", "monoids.val")),
    "monoids.sum_over.self_s": ("s", ("self_s", "monoids.sum_over")),
    "monoids.check_axioms.busy_s": ("s", ("busy_s", "monoids.check_axioms")),
    "wta.behavior.calls": ("count", ("calls", "wta.behavior")),
    "wta.behavior.busy_s": ("s", ("busy_s", "wta.behavior")),
    "wta.behavior.growth": ("ratio", "growth"),
    "transform.nivat_eval.busy_s": ("s", ("busy_s", "transform.nivat_eval")),
    "transform.nivat_eval.growth": ("ratio", "growth"),
    "transform.preimages_enumerated": ("count", ("counts", "transform.preimages_enumerated")),
    "transform.nivat_decompose.busy_s": ("s", ("busy_s", "transform.nivat_decompose")),
    "transform.nivat_compose.busy_s": ("s", ("busy_s", "transform.nivat_compose")),
    "transform.product_intersect.busy_s": ("s", ("busy_s", "transform.product_intersect")),
    "transform.product_edges": ("count", ("counts", "transform.product_edges")),
    "rdl.model_check.busy_s": ("s", ("busy_s", "rdl.model_check")),
    "rdl.model_check.growth": ("ratio", "growth"),
    "rdl.parse_rdl.busy_s": ("s", ("busy_s", "rdl.parse_rdl")),
    "wrdl.wrdl_eval.busy_s": ("s", ("busy_s", "wrdl.wrdl_eval")),
    "wrdl.wrdl_eval.growth": ("ratio", "growth"),
    "wrdl.validate_formula.self_s": ("s", ("self_s", "wrdl.validate_formula")),
    "wrdl.canonicalize.busy_s": ("s", ("busy_s", "wrdl.canonicalize")),
    "wrdl.sentence_to_nivat.busy_s": ("s", ("busy_s", "wrdl.sentence_to_nivat")),
    "wrdl.nivat_to_sentence.busy_s": ("s", ("busy_s", "wrdl.nivat_to_sentence")),
    "wrdl.gamma_size": ("count", ("counts", "wrdl.gamma_size")),
    "wrdl.parse_wrdl.busy_s": ("s", ("busy_s", "wrdl.parse_wrdl")),
    "optcost.compile_guard_family.busy_s": ("s", ("busy_s", "optcost.compile_guard_family")),
    "optcost.compiled_edges": ("count", ("counts", "optcost.compiled_edges")),
    "optcost.build_corner_points.busy_s": ("s", ("busy_s", "optcost.build_corner_points")),
    "optcost.corner_nodes": ("count", ("counts", "optcost.corner_nodes")),
    "optcost.corner_arcs": ("count", ("counts", "optcost.corner_arcs")),
    "optcost.inf_cost.self_s": ("s", ("self_s", "optcost.inf_cost")),
    "optcost.inf_cost.growth_k": ("ratio", "growth"),
    "optcost.witness_below.busy_s": ("s", ("busy_s", "optcost.witness_below")),
    "optcost.witness_probes": ("count", ("counts", "optcost.witness_probes")),
    "optcost.unsupported": ("count", ("counts", "optcost.unsupported")),
    "serialize.busy_s": ("s", ("busy_s", "serialize")),
    "cli.import_s": ("s", "cli_import"),
    **{f"cli.{c}.p50_ms": ("ms", "cli_command") for c in CLI_COMMANDS},
    "error_rate": ("ratio", "error_rate"),
    "defects.unsupported": ("count", "defect"),
    "defects.attained": ("count", "defect"),
    "defects.recursion": ("count", "defect"),
    "defects.witness": ("count", "defect"),
    "trace.qps_ratio": ("ratio", "qps_ratio"),
}


class BenchError(Exception):
    """A step of the benchmark itself failed; no result is printed."""


def _python(script: str, args, env, deadline: float) -> str:
    done = subprocess.run([sys.executable, os.path.join(HERE, script), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise BenchError(f"{script} exited {done.returncode}:\n{done.stderr[-3000:]}")
    return done.stdout


def _error_rate(report: dict) -> tuple:
    outcomes = dict(report["outcomes"])
    for key, value in report.get("untraced", {}).get("outcomes", {}).items():
        outcomes[key] = outcomes.get(key, 0) + value
    attempted = sum(outcomes.values())
    return (attempted - outcomes.get("ok", 0)) / attempted, outcomes


def per_layer(report: dict) -> tuple:
    """Per-layer metrics from a traced worker report, and the names of
    those whose function the library no longer has."""
    setup, passes = report["setup_spans"], report["pass_spans"]
    n = report["passes"]
    tagged = {(name, tuple(tag)): t for name, tag, t in report["tagged_busy_s"]}
    rate, outcomes = _error_rate(report)
    absent = set(report["absent"])
    values, missing = {}, []
    for name, (unit, source) in PER_LAYER.items():
        if source == "growth":
            span, ladders = GROWTH[name]
            per = spans.per_doubling if name.endswith("_k") else (lambda a, b: b - a)
            value = spans.growth(tagged, span, ladders, per=per)
            span_names = [span]
        elif source == "cli_import":
            value, span_names = report.get("cli_import_s", 0.0), []
        elif source == "cli_command":
            command = name.split(".")[1]
            value = report["untraced"]["by_command_p50_ms"].get(command, 0.0)
            span_names = []
        elif source == "error_rate":
            value, span_names = rate, []
        elif source == "defect":
            total = outcomes.get(f"defect:{name.split('.')[1]}", 0)
            value, span_names = total / (n + report["untraced"]["passes"]), []
        elif source == "qps_ratio":
            value, span_names = report["qps_ratio"], []
        else:
            table, key = source
            value = setup[table].get(key, 0) + passes[table].get(key, 0) / n
            span_names = [key] if table != "counts" else []
        if any(s in absent for s in span_names):
            missing.append(name)
        values[name] = {"value": value, "unit": unit}
    return values, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The watl benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "watl", "__init__.py")):
        print(f"perfbench: no library at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONSTARTUP", None)
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs = os.path.join(work, "inputs.json")
        _python("gen.py", ["--workload", args.workload, "--seed", str(args.seed),
                           "--out", inputs], env, deadline)
        worker = ["--inputs", inputs, "--work", work, "--seconds", str(args.seconds)]
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(json.loads(_python("worker.py", worker + ["--setup-only"],
                                                 env, deadline)))
        report = json.loads(_python("worker.py", worker + (["--trace"] if args.trace else []),
                                    env, deadline))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    error_rate, outcomes = _error_rate(report)
    untraced = report.get("untraced", {})
    attempted = report["attempted"] + untraced.get("attempted", 0)
    failed = report["failed"] + untraced.get("failed", 0)
    print(f"workload {args.workload} seed {args.seed}: {attempted} queries, "
          f"outcomes {json.dumps(outcomes, sort_keys=True)}")
    for failure in untraced.get("failures", []) + report["failures"]:
        print(f"  failed: {failure}")
    if args.trace:
        metrics, missing = per_layer(report)
        print(f"  absent (function no longer in the library): {missing}")
    else:
        setups.append(report)
        metrics = {"setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                               "unit": "s"}}
        for name, unit in END_TO_END[1:]:
            metrics[name] = {"value": report[name], "unit": unit}
        print(f"  latency_tail_ms is p{report['tail_percentile']} of the "
              f"{report['completed_per_pass']} queries completed in a pass, each timed as "
              f"the median of {report['passes']} passes ({report['completed']} samples); "
              f"setup_s is the median of {len(setups)} fresh interpreters")
        print(f"  error_rate = {error_rate:.6g} ratio")
        raw = dict(report["raw"], setup_s=statistics.median(s["setup_raw_s"] for s in setups))
        print("  times below are scaled to the reference host; as measured on this host: "
              + json.dumps(raw))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("  queries_per_s of each pass: " + json.dumps([round(v, 4) for v in report["pass_qps"]]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
