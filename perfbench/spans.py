"""Span recorder that wraps the library's public functions from outside.

``install`` replaces each listed function with a wrapper in every loaded
``watl.*`` module that holds a binding to it, so ``from .wta import
behavior`` copies in ``transform``, ``optcost`` and ``cli`` are traced as
well.  A listed function the library no longer has is reported absent.

Each call opens a span (name, start, parent) and closes it at its end.
Spans are folded into per-name totals as they close: the self time of a
span is its duration minus the durations of its direct children, and a
name's busy time adds only spans with no open ancestor of the same name
or module group, so nested and recursive calls are not counted twice.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _len_of(attr):
    def count(result):
        return len(getattr(result, attr))
    return count


def _preimages(args, kwargs):
    triple, word = args[0], args[1]
    total = 1
    for letter, _ in word:
        total *= sum(1 for c in triple.gamma if triple.h[c] == letter)
    return total


# (module, attribute, {counter: fn(result)}, {counter: fn(args, kwargs)})
FUNCTIONS = (
    ("core", "enumerate_runs", {"core.runs_enumerated": len}, {}),
    ("core", "classify_automaton", {}, {}),
    ("monoids", "sum_over", {}, {}),
    ("monoids", "check_axioms", {}, {}),
    ("wta", "behavior", {}, {}),
    ("transform", "nivat_eval", {}, {"transform.preimages_enumerated": _preimages}),
    ("transform", "nivat_decompose", {}, {}),
    ("transform", "nivat_compose", {}, {}),
    ("transform", "relabel", {}, {}),
    ("transform", "product_intersect",
     {"transform.product_edges": lambda r: len(r.base.edges)}, {}),
    ("rdl", "parse_rdl", {}, {}),
    ("rdl", "model_check", {}, {}),
    ("rdl", "to_text", {}, {}),
    ("wrdl", "parse_wrdl", {}, {}),
    ("wrdl", "to_text", {}, {}),
    ("wrdl", "wrdl_eval", {}, {}),
    ("wrdl", "validate_formula", {}, {}),
    ("wrdl", "canonicalize", {}, {}),
    ("wrdl", "sentence_to_nivat", {"wrdl.gamma_size": _len_of("gamma")}, {}),
    ("wrdl", "nivat_to_sentence", {}, {}),
    ("optcost", "compile_guard_family",
     {"optcost.compiled_edges": lambda r: len(r.automaton.edges)}, {}),
    ("optcost", "build_corner_points",
     {"optcost.corner_nodes": _len_of("nodes"), "optcost.corner_arcs": _len_of("arcs")}, {}),
    ("optcost", "inf_cost", {}, {}),
    ("optcost", "witness_below", {}, {}),
    ("optcost", "decide_sum_threshold", {}, {}),
    ("optcost", "decide_avg_threshold", {}, {}),
    ("serialize", "word_from_list", {}, {}),
    ("serialize", "word_to_list", {}, {}),
    ("serialize", "automaton_from_dict", {}, {}),
    ("serialize", "automaton_to_dict", {}, {}),
    ("serialize", "wta_from_dict", {}, {}),
    ("serialize", "wta_to_dict", {}, {}),
    ("serialize", "triple_from_dict", {}, {}),
    ("serialize", "triple_to_dict", {}, {}),
    ("serialize", "dump_json", {}, {}),
)

# (module, method name): wrapped on every class of the module defining it.
METHODS = (("monoids", "val"),)

# behavior calls made under these spans are witness probes.
PROBE_PARENTS = ("optcost.inf_cost", "optcost.witness_below")
DECIDERS = ("optcost.decide_sum_threshold", "optcost.decide_avg_threshold")


class Recorder:
    """Folds closing spans into per-name calls, self time and busy time.

    ``tag`` labels the spans that close while it is set (the benchmark
    sets it to the ladder rung being run) so busy time can be split by
    rung.  The clock is injectable for tests.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.tag = None
        self.stack = []
        self.open = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.tagged_busy_s = defaultdict(float)
        self.counts = defaultdict(int)

    def enter(self, name: str, group: str) -> list:
        frame = [name, group, self.clock(), 0.0]
        self.stack.append(frame)
        self.open[name] += 1
        self.open[group] += 1
        return frame

    def exit(self, frame: list, error: str = None) -> None:
        end = self.clock()
        while self.stack and self.stack[-1] is not frame:
            self.stack.pop()
        self.stack.pop()
        name, group, start, child = frame
        duration = end - start
        self.open[name] -= 1
        self.open[group] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.open[name] == 0:
            self.busy_s[name] += duration
            if self.tag is not None:
                self.tagged_busy_s[(name, self.tag)] += duration
        if self.open[group] == 0:
            self.busy_s[group] += duration
        if self.stack:
            self.stack[-1][3] += duration
        if error == "UnsupportedGuardError" and name in DECIDERS:
            self.counts["optcost.unsupported"] += 1

    def probing(self) -> bool:
        return any(self.open[p] for p in PROBE_PARENTS)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "busy_s": dict(self.busy_s), "counts": dict(self.counts)}

    def merge(self, other: dict) -> None:
        """Add a snapshot taken in another process."""
        for key, table in (("calls", self.calls), ("self_s", self.self_s),
                           ("busy_s", self.busy_s), ("counts", self.counts)):
            for name, value in other.get(key, {}).items():
                table[name] += value


def _wrap(recorder: Recorder, name: str, group: str, fn, result_counters, arg_counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        if name == "wta.behavior" and recorder.probing():
            recorder.counts["optcost.witness_probes"] += 1
        frame = recorder.enter(name, group)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.exit(frame, type(exc).__name__)
            raise
        recorder.exit(frame)
        for counter, count in result_counters.items():
            recorder.counts[counter] += count(result)
        for counter, count in arg_counters.items():
            recorder.counts[counter] += count(args, kwargs)
        return result
    return wrapper


class Installation:
    """The bindings replaced by ``install``; ``remove`` puts them back."""

    def __init__(self):
        self.replaced = []
        self.absent = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _watl_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "watl" or n.startswith("watl."))]


def install(recorder: Recorder, functions=FUNCTIONS, methods=METHODS) -> Installation:
    """Wrap every listed function and method in all loaded watl modules."""
    done = Installation()
    modules = _watl_modules()
    for module_name, attr, result_counters, arg_counters in functions:
        home = sys.modules.get(f"watl.{module_name}")
        original = getattr(home, attr, None) if home is not None else None
        if not callable(original):
            done.absent.append(f"{module_name}.{attr}")
            continue
        wrapper = _wrap(recorder, f"{module_name}.{attr}", module_name, original,
                        result_counters, arg_counters)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    done.replaced.append((module, key, original))
                    setattr(module, key, wrapper)
    for module_name, attr in methods:
        home = sys.modules.get(f"watl.{module_name}")
        classes = [c for c in vars(home).values()
                   if isinstance(c, type) and callable(c.__dict__.get(attr))] if home else []
        if not classes:
            done.absent.append(f"{module_name}.{attr}")
            continue
        for cls in classes:
            original = cls.__dict__[attr]
            done.replaced.append((cls, attr, original))
            setattr(cls, attr, _wrap(recorder, f"{module_name}.{attr}", module_name,
                                     original, {}, {}))
    return done


def growth(tagged: dict, name: str, ladders, min_seconds: float = 0.005,
           per=lambda a, b: b - a) -> float:
    """Median over ladders and consecutive rungs of the per-step time ratio.

    ``tagged`` maps (name, (ladder, rung)) to busy seconds.  A step from
    rung a to rung b with times ta, tb gives (tb/ta) ** (1/per(a, b)):
    per added letter by default.  Rungs faster than ``min_seconds`` are
    too short to time steadily and are skipped.  Returns 0 when no pair
    of rungs qualifies.
    """
    ratios = []
    for ladder in ladders:
        rungs = sorted((rung, t) for (n, (lad, rung)), t in tagged.items()
                       if n == name and lad == ladder and t >= min_seconds)
        for (a, ta), (b, tb) in zip(rungs, rungs[1:]):
            ratios.append((tb / ta) ** (1.0 / per(a, b)))
    if not ratios:
        return 0.0
    ratios.sort()
    mid = len(ratios) // 2
    return ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2


def per_doubling(a, b) -> float:
    return math.log2(b / a)
