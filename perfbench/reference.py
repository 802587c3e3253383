"""Reference answers that the benchmark computes without the library.

Everything here works on the JSON forms the benchmark hands to the
library (automaton dicts with guard strings and "p/q" weights, words as
(letter, Fraction) pairs), so a defect in the library's parsers or
evaluators cannot leak into the expected answers.  Weights are finite
rationals.  Exact values are Fractions; discounted values are floats;
an infinite value is ``INF`` or ``NEG_INF``.

Closed forms cover the crafted families the workloads scale; ``behavior``
is an independent run enumerator for small sampled automata.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

INF = math.inf
NEG_INF = -math.inf

_ATOM = re.compile(r"^\s*([A-Za-z_][\w.]*)\s*(<=|>=|<|>|=)\s*(\d+)\s*$")


def parse_guard(text: str) -> tuple:
    """Guard string -> tuple of (clock, relation, bound)."""
    text = text.strip()
    if text in ("", "true", "TRUE", "True"):
        return ()
    atoms = []
    for part in text.split("&"):
        match = _ATOM.match(part)
        if not match:
            raise ValueError(f"bad guard atom {part!r}")
        clock, rel, bound = match.groups()
        atoms.append((clock, rel, int(bound)))
    return tuple(atoms)


def _compare(value, rel: str, bound) -> bool:
    if rel == "<":
        return value < bound
    if rel == "<=":
        return value <= bound
    if rel == "=":
        return value == bound
    if rel == ">=":
        return value >= bound
    return value > bound


def _edges(model: dict) -> list:
    return [(e["id"], e["source"], e["label"], parse_guard(e["guard"]),
             frozenset(e["resets"]), e["target"]) for e in model["edges"]]


def runs(model: dict, word) -> list:
    """Every accepting run as (locations, edge ids), by explicit-stack search."""
    clocks = list(model["clocks"])
    edges = _edges(model)
    final = set(model["final"])
    zero = tuple(Fraction(0) for _ in clocks)
    found = []
    stack = [(0, loc, zero, (loc,), ()) for loc in model["initial"]]
    while stack:
        index, loc, val, locs, path = stack.pop()
        if index == len(word):
            if loc in final:
                found.append((locs, path))
            continue
        letter, delay = word[index]
        aged = tuple(v + delay for v in val)
        env = dict(zip(clocks, aged))
        for eid, src, label, guard, resets, dst in edges:
            if src != loc or label != letter:
                continue
            if not all(_compare(env[c], rel, b) for c, rel, b in guard):
                continue
            nxt = tuple(Fraction(0) if c in resets else v for c, v in zip(clocks, aged))
            stack.append((index + 1, dst, nxt, locs + (dst,), path + (eid,)))
    return found


def monoid_kind(monoid_id: str) -> tuple:
    """('sum'|'avg'|'disc'|'prod', discount factor or None); the pv
    monoids sum0/avg0/disc0 share their base's valuation."""
    name, _, arg = monoid_id.partition(":")
    name = name[:-1] if name.endswith("0") else name
    return name, (Fraction(arg) if arg else None)


def valuate(monoid_id: str, pairs) -> object:
    """Value of one run's weight-pair sequence ((rate, weight), delay)."""
    kind, lam = monoid_kind(monoid_id)
    if kind == "prod":
        total = Fraction(1)
        for (_, mp), _ in pairs:
            total *= mp
        return total
    if kind == "disc":
        lam_f = float(lam)
        log_lam = math.log(lam_f)
        factor, total = 1.0, 0.0
        for (m, mp), t in pairs:
            decay = lam_f ** float(t)
            total += factor * ((decay - 1) / log_lam * float(m) + decay * float(mp))
            factor *= decay
        return total
    total = sum((m * t + mp for (m, mp), t in pairs), Fraction(0))
    if kind == "sum":
        return total
    duration = sum((t for _, t in pairs), Fraction(0))
    if duration == 0:
        rates = [m for (m, _), _ in pairs]
        if all(r == rates[0] for r in rates) and all(mp == 0 for (_, mp), _ in pairs):
            return rates[0]
        return INF
    return total / duration


def min_cost(model: dict, word) -> object:
    """Least run value under the sum valuation.

    Runs reaching the same (location, clock valuation) after a prefix
    continue identically, so only the cheapest is kept; this stays fast on
    the long pumped witness words of negative cycles.
    """
    clocks = list(model["clocks"])
    rates = {k: Fraction(v) for k, v in model["weights"]["locations"].items()}
    weights = {k: Fraction(v) for k, v in model["weights"]["edges"].items()}
    edges = _edges(model)
    zero = tuple(Fraction(0) for _ in clocks)
    configs = {(loc, zero): Fraction(0) for loc in model["initial"]}
    for letter, delay in word:
        step = {}
        for (loc, val), cost in configs.items():
            aged = tuple(v + delay for v in val)
            env = dict(zip(clocks, aged))
            for eid, src, label, guard, resets, dst in edges:
                if src != loc or label != letter:
                    continue
                if not all(_compare(env[c], rel, b) for c, rel, b in guard):
                    continue
                key = (dst, tuple(Fraction(0) if c in resets else v
                                  for c, v in zip(clocks, aged)))
                total = cost + rates[loc] * delay + weights[eid]
                if key not in step or total < step[key]:
                    step[key] = total
        configs = step
    final = set(model["final"])
    return min((c for (loc, _), c in configs.items() if loc in final), default=INF)


def plus_all(monoid_id: str, values) -> object:
    kind, _ = monoid_kind(monoid_id)
    values = list(values)
    if kind == "prod":
        return sum(values, Fraction(0))
    return min(values, default=INF)


def behavior(model: dict, word) -> object:
    """Plus-sum over all runs of the valued run, for a weighted model dict."""
    rates = {k: Fraction(v) for k, v in model["weights"]["locations"].items()}
    weights = {k: Fraction(v) for k, v in model["weights"]["edges"].items()}
    values = []
    for locs, path in runs(model, word):
        pairs = [((rates[locs[i]], weights[eid]), word[i][1]) for i, eid in enumerate(path)]
        values.append(valuate(model["monoid"], pairs))
    return plus_all(model["monoid"], values)


def _satisfiable(atoms) -> bool:
    """Whether a conjunction of per-clock comparisons has a solution with
    every clock nonnegative: each clock's bounds must leave a point."""
    for clock in {c for c, _, _ in atoms}:
        lo, hi = (Fraction(0), True), None
        for c, rel, bound in atoms:
            if c != clock:
                continue
            if rel in (">", ">=", "="):
                cand = (Fraction(bound), rel != ">")
                if cand[0] > lo[0] or (cand[0] == lo[0] and not cand[1]):
                    lo = cand
            if rel in ("<", "<=", "="):
                cand = (Fraction(bound), rel != "<")
                if hi is None or cand[0] < hi[0] or (cand[0] == hi[0] and not cand[1]):
                    hi = cand
        if hi is not None and (lo[0] > hi[0] or (lo[0] == hi[0] and not (lo[1] and hi[1]))):
            return False
    return True


def classify(model: dict) -> dict:
    """Sequential: one initial location, at most one edge per (source,
    letter).  Deterministic: one initial location, and edges sharing a
    (source, letter) have jointly unsatisfiable guards."""
    single = len(model["initial"]) == 1
    groups = {}
    for e in model["edges"]:
        groups.setdefault((e["source"], e["label"]), []).append(parse_guard(e["guard"]))
    sequential = single and all(len(g) == 1 for g in groups.values())
    deterministic = single and all(
        not _satisfiable(g1 + g2)
        for guards in groups.values()
        for g1, g2 in itertools.combinations(guards, 2))
    return {"sequential": sequential, "deterministic": deterministic}


# ---------------------------------------------------------------------------
# Closed forms for the crafted families


def branching_model(monoid_id: str, rates: dict, weights: dict) -> dict:
    """Two locations p, q; every letter may move to either one; only q is
    final, so a word of n letters has 2^(n-1) accepting runs."""
    return {
        "alphabet": ["a"], "locations": ["p", "q"], "clocks": ["x"],
        "initial": ["p"], "final": ["q"],
        "edges": [{"id": f"{s}{t}", "source": s, "label": "a", "guard": "true",
                   "resets": ["x"] if t == "p" else [], "target": t}
                  for s in "pq" for t in "pq"],
        "monoid": monoid_id,
        "weights": {"locations": {k: str(v) for k, v in rates.items()},
                    "edges": {k: str(v) for k, v in weights.items()}},
    }


def branching_value(monoid_id: str, rates: dict, weights: dict, delays) -> object:
    """Behavior of ``branching_model`` by dynamic programming over the two
    locations: every step's contribution depends only on the edge taken
    and the word position, and each valuation folds step by step."""
    kind, lam = monoid_kind(monoid_id)
    if kind == "prod":
        acc = {"p": Fraction(1), "q": Fraction(0)}
        for _ in delays:
            acc = {t: sum(acc[s] * weights[f"{s}{t}"] for s in "pq") for t in "pq"}
        return acc["q"]
    acc = {"p": Fraction(0) if kind != "disc" else 0.0, "q": None}
    factor = 1.0
    for t in delays:
        step = {}
        for dst in "pq":
            best = None
            for src in "pq":
                if acc[src] is None:
                    continue
                m, mp = rates[src], weights[f"{src}{dst}"]
                if kind == "disc":
                    decay = float(lam) ** float(t)
                    cost = factor * ((decay - 1) / math.log(float(lam)) * float(m)
                                     + decay * float(mp))
                else:
                    cost = m * t + mp
                cand = acc[src] + cost
                best = cand if best is None or cand < best else best
            step[dst] = best
        if kind == "disc":
            factor *= float(lam) ** float(t)
        acc = step
    if kind == "avg":
        duration = sum(delays, Fraction(0))
        return acc["q"] / duration
    return acc["q"]


def meter_model(rate, weight) -> dict:
    """One location, one self-loop: exactly one run on every word."""
    return {
        "alphabet": ["a"], "locations": ["hub"], "clocks": [], "initial": ["hub"],
        "final": ["hub"],
        "edges": [{"id": "tick", "source": "hub", "label": "a", "guard": "true",
                   "resets": [], "target": "hub"}],
        "unambiguous": True, "monoid": "sum",
        "weights": {"locations": {"hub": str(rate)}, "edges": {"tick": str(weight)}},
    }


def meter_value(rate, weight, delays) -> Fraction:
    return Fraction(rate) * sum(delays, Fraction(0)) + len(delays) * Fraction(weight)


def priced_model(k: int, clocks: int, rs, w1, w2, rt, w3) -> dict:
    """Priced family over {a, b} with largest guard constant k.

    In s an a-loop (x>=1, resets x) costs w1; b leaves to the final t once
    y>=k; an a-loop in t costs w3 (guarded and reset by the third clock
    when there is one).  Rates rs, rt.
    """
    names = ["x", "y", "z"][:clocks]
    extra = names[2:]
    t_guard = " & ".join(f"{c}<{k}" for c in extra) or "true"
    return {
        "alphabet": ["a", "b"], "locations": ["s", "t"], "clocks": names,
        "initial": ["s"], "final": ["t"],
        "edges": [
            {"id": "e1", "source": "s", "label": "a", "guard": "x>=1",
             "resets": ["x"], "target": "s"},
            {"id": "e2", "source": "s", "label": "b", "guard": f"y>={k}",
             "resets": [], "target": "t"},
            {"id": "e3", "source": "t", "label": "a", "guard": t_guard,
             "resets": extra, "target": "t"},
        ],
        "monoid": "sum",
        "weights": {"locations": {"s": str(rs), "t": str(rt)},
                    "edges": {"e1": str(w1), "e2": str(w2), "e3": str(w3)}},
    }


def priced_value(k: int, clocks: int, rs, w1, w2, w3) -> object:
    """Infimum of ``priced_model`` for rs >= 0.

    An s-loop whose rate plus weight is negative pumps to -inf, and so
    does a negative t-loop with two clocks (its guard is true, so it
    fires at delay 0).  With three clocks the t-loop needs z < k, but z
    has not been reset and b needs y >= k, so it never fires.  Otherwise
    the best run waits k in s, taking the s-loop every time unit when
    w1 < 0, then leaves by b: rs*k + k*min(w1, 0) + w2, attained by
    integral delays.
    """
    rs, w1, w2, w3 = (Fraction(v) for v in (rs, w1, w2, w3))
    if rs + w1 < 0 or (w3 < 0 and clocks < 3):
        return NEG_INF
    return rs * k + k * min(w1, Fraction(0)) + w2


# ---------------------------------------------------------------------------
# Closed forms for the logic fixtures


def _times(word) -> list:
    out, total = [], Fraction(0)
    for _, t in word:
        total += t
        out.append(total)
    return out


def min_wait_value(word):
    """fixtures.min_wait_sentence over sum0: 3t+1 on one letter with t >= 2."""
    if len(word) == 1 and word[0][1] >= 2:
        return 3 * word[0][1] + 1
    return INF


def bounded_average_value(word):
    """fixtures.bounded_average_sentence over avg0: (t+5)/t for 1 <= t <= 2."""
    if len(word) == 1 and 1 <= word[0][1] <= 2:
        return (word[0][1] + 5) / word[0][1]
    return INF


def average_cost_value(word):
    """fixtures.average_cost_sentence over avg0: rate 1/2 and weight 0/1 for a/b."""
    rate = {"a": Fraction(1), "b": Fraction(2)}
    disc = {"a": Fraction(0), "b": Fraction(1)}
    return valuate("avg", [((rate[a], disc[a]), t) for a, t in word])


def squared_length_value(word):
    """fixtures.squared_length_sentence over sum0: |w|^2."""
    return Fraction(len(word) ** 2)


def dpast_sentence(rel: str, bound: int) -> str:
    """An RDL sentence with a set quantifier: some b-position x and some
    set X holding x whose past distance at x satisfies rel bound."""
    return f"EX X. ex x. (X(x) & P[b](x) & dpast[{rel}{bound}](X,x))"


def dpast_truth(rel: str, bound: int, word) -> bool:
    """Truth of ``dpast_sentence``.  X = {x} gives the absolute time of x,
    the largest distance available; adding x-1 gives delay(x), the
    smallest.  Every value in between is also reachable by the earlier
    positions, but only the extremes matter for >= and <=."""
    times = _times(word)
    for i, (letter, delay) in enumerate(word):
        if letter != "b":
            continue
        if rel == ">=" and times[i] >= bound:
            return True
        if rel == "<=" and (delay if i > 0 else times[i]) <= bound:
            return True
    return False
