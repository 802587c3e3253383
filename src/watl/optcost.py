"""Infimum run cost of sum-weighted timed automata and threshold
decisions for restricted weighted sentences.

The infimum is computed on the corner-point graph (Bouyer, Brinksma and
Larsen): nodes pair a location with a clock region and one of the
region's corner valuations, delay arcs move to the time successor either
for free (when the corner lies on the shared boundary) or at one unit of
the location rate, and discrete arcs follow edges whose guard holds
throughout the region.  Optimal corner paths are limits of concrete
runs, so shortest-path costs equal the infimum over run weights; a
negative cycle that is both reachable and co-reachable witnesses an
infimum of minus infinity.

Attainment and witnesses are exact and need no evaluation of candidate
words.  The runs along one region path form a relatively open convex set
of delays with the path's corner paths in its closure, and the cost is
linear on it.  The infimum is therefore attained exactly when all corner
paths of some accepting region path cost it, which a search over the
arcs on least-cost paths decides, and the attaining word is the point
built along that region path on exact valuations.  A word below a bound
is a convex combination of a corner path below it and such a point.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import (_COMPARE, ClockAtom, ClockConstraint, Edge, TimedAutomaton,
                   TimedWord, constraint_satisfiable)
from .errors import DomainError, UnsupportedGuardError, refuse_deep
from .monoids import TimedPvMonoid, monoid_from_id
from .weights import INF, NEG_INF, Weight, common_denominator, is_finite, scaled
from .wta import WeightedTimedAutomaton, behavior

# ---------------------------------------------------------------------------
# Clock regions


@dataclass(frozen=True)
class Region:
    """Statuses per clock plus the ordering of nonzero fractional parts.

    A status is ("eq", k) for integer value k, ("in", k) for a value in
    the open interval (k, k+1) below the clock's maximum constant, or
    ("gt",) above it.  ``fracs`` lists the groups of "in" clocks with
    equal fractional part, smallest fraction first.  Regions name the
    nodes of a ``CornerPointGraph``; the graph itself is built on integer
    codes (see ``_build_graph``).
    """

    statuses: tuple
    fracs: tuple
    max_consts: tuple


# ---------------------------------------------------------------------------
# Corner-point graph and the cost infimum


@dataclass(frozen=True)
class CornerArc:
    """One move in the corner-point graph: a delay step (edge None,
    cost rate*time with time 0 or 1) or a discrete step firing an edge
    (cost = edge weight, time 0)."""

    src: tuple
    dst: tuple
    cost: Fraction
    time: int
    edge: Optional[Edge]


@dataclass(frozen=True)
class CornerPointGraph:
    """Finite graph over (location, region, corner) nodes whose accepting
    path costs have the same infimum as the automaton's run weights.

    A node's corner assigns each clock an integer from the closure of its
    region, with clocks above their maximum constant pinned to that
    constant plus one.  Accepting nodes carry a final location; a valid
    accepting path must end with a discrete arc into one (runs read at
    least one letter and end on an edge).
    """

    nodes: tuple
    arcs: tuple
    initial: tuple
    accepting: tuple


@dataclass(frozen=True)
class InfCostResult:
    """value is the infimum of run weights; when it is finite and some
    concrete word achieves it exactly, attained is True and witness holds
    such a word.  Both are decided exactly: attained says that some
    accepting region path has all its corner paths at the infimum, and
    the witness is a point inside that region path, on a shortest such
    path.  corner_word is the integral word read off the optimal corner
    path (also when the infimum is only approached, when it may have no
    run at all)."""

    value: Weight
    attained: bool
    witness: Optional[TimedWord]
    corner_word: Optional[TimedWord] = None


def _require_finite_weights(wta: WeightedTimedAutomaton) -> None:
    problems = []
    for loc in wta.base.locations:
        if not is_finite(wta.wt_location(loc)):
            problems.append(f"location rate of {loc!r} is not a finite rational")
    for edge in wta.base.edges:
        if not is_finite(wta.wt_edge(edge.id)):
            problems.append(f"edge weight of {edge.id!r} is not a finite rational")
    if problems:
        raise DomainError("; ".join(problems))


def _time_successor(region, tops):
    """The coded region entered next under time elapse (never called on
    a region whose clocks are all above their caps)."""
    codes, fracs = region
    new = list(codes)
    group = 0
    at_integer = False
    for i, code in enumerate(codes):
        if not code & 1 and code != tops[i]:
            at_integer = True
            if code + 2 < tops[i]:
                new[i] = code + 1
                group |= 1 << i
            else:
                new[i] = tops[i]
    if at_integer:
        return tuple(new), ((group,) + fracs) if group else fracs
    for i in _bits(fracs[-1], len(codes)):
        new[i] += 1
    return tuple(new), fracs[:-1]


def _bits(mask, width):
    return [i for i in range(width) if mask >> i & 1]


def _corners(region) -> set:
    """The integer vertices of the coded region's closure: every clock at
    the integer part of its value, then the groups rounded up one by one
    from the largest fraction down (rounding a group up is only consistent
    when every group with a larger fraction rounds up too).  Clocks above
    their cap sit at cap + 1."""
    codes, fracs = region
    corner = [code >> 1 for code in codes]
    out = {tuple(corner)}
    for mask in reversed(fracs):
        for i in _bits(mask, len(codes)):
            corner[i] += 1
        out.add(tuple(corner))
    return out


def _fraction(weight) -> Fraction:
    return weight if type(weight) is Fraction else Fraction(weight)


def _reset(region, mask):
    codes, fracs = region
    codes = tuple(0 if mask >> i & 1 else code for i, code in enumerate(codes))
    return codes, tuple(g & ~mask for g in fracs if g & ~mask)


def _build_graph(wta: WeightedTimedAutomaton, live=None):
    """The corner-point graph of a sum-weighted automaton on integer codes,
    after checking that the automaton is valid, sum-weighted and finite.
    Given live, the locations that can reach a final location
    (``_live_locations``), it builds only the nodes at them: it leaves
    out initial nodes elsewhere and edges into other locations.

    Clocks are indexed in sorted order.  A region is a pair (codes,
    fracs): codes gives each clock 2k at the integer k, 2k+1 in (k, k+1)
    and 2*cap+2 above its maximum constant, twice the representative
    value of its status, so a guard atom ``x rel b`` (b a natural at most
    cap) holds throughout the region exactly when ``code rel 2b``; fracs
    lists bitmasks of the clocks with equal nonzero fractional part,
    smallest fraction first.  A corner is a tuple of clock values.  Edges
    are compiled into checks, reset masks and Fraction weights once, and
    time successors and delay corners are cached.

    Nodes (location, region, corner) are numbered in the order found and
    explored last in, first out.  Each appends its free delay arc, its
    unit delay arc (cost the rate), then one arc per enabled edge in edge
    order; above every cap a unit self-loop replaces the delay arcs.
    Bellman-Ford relaxes arcs in this order, which fixes the negative
    cycle found and the witness pumped.  A node at a location that cannot
    reach a final location leads only to such nodes, so leaving them out
    keeps the relative numbering and arc order of all other nodes.

    Returns (nodes, arcs, inits): nodes lists the nodes by number; arcs
    are (src, dst, cost, time, edge) tuples over node numbers, with a
    Fraction cost; inits are the numbers of the initial nodes built, in
    the automaton's order.
    """
    wta.validate()
    if wta.monoid.id != "sum":
        raise DomainError(
            f"corner-point graphs need the sum monoid, got {wta.monoid.id!r}")
    _require_finite_weights(wta)
    base = wta.base
    caps = base.max_constants()
    clocks = sorted(base.clocks)
    index = {c: i for i, c in enumerate(clocks)}
    tops = tuple(2 * caps[c] + 2 for c in clocks)
    rates = {loc: _fraction(wta.wt_location(loc)) for loc in base.locations}
    live = set(base.locations) if live is None else live
    edges_by_source = {}
    for e in base.edges:
        if e.target not in live:
            continue
        checks = tuple((index[a.clock], _COMPARE[a.rel], 2 * a.bound)
                       for a in e.guard.atoms)
        mask = sum(1 << index[c] for c in e.resets)
        edges_by_source.setdefault(e.source, []).append(
            (checks, mask, e.target, _fraction(wta.wt_edge(e.id)), e))
    zero = (0,) * len(clocks)
    starts = [(l, (zero, ()), zero) for l in base.initial if l in live]
    nodes = list(dict.fromkeys(starts))
    ids = {node: i for i, node in enumerate(nodes)}
    inits = tuple(ids[node] for node in starts)
    queue = list(inits)
    arcs = []
    successors = {}
    delays = {}
    free = Fraction(0)

    def push(target):
        i = ids.get(target)
        if i is None:
            i = ids[target] = len(nodes)
            nodes.append(target)
            queue.append(i)
        return i

    while queue:
        src = queue.pop()
        loc, region, corner = nodes[src]
        codes = region[0]
        if codes == tops:
            arcs.append((src, src, rates[loc], 1, None))
        else:
            moves = delays.get((region, corner))
            if moves is None:
                step = successors.get(region)
                if step is None:
                    succ = _time_successor(region, tops)
                    step = successors[region] = (succ, _corners(succ))
                succ, succ_corners = step
                slide = tuple(top >> 1 if code == top else value
                              for value, code, top in zip(corner, succ[0], tops))
                unit = tuple(top >> 1 if code == top else value + 1
                             for value, code, top in zip(corner, succ[0], tops))
                moves = delays[(region, corner)] = (
                    succ, slide if slide in succ_corners else None,
                    unit if unit in succ_corners else None)
            succ, slide, unit = moves
            if slide is not None:
                arcs.append((src, push((loc, succ, slide)), free, 0, None))
            if unit is not None:
                arcs.append((src, push((loc, succ, unit)), rates[loc], 1, None))
        for checks, mask, target, weight, e in edges_by_source.get(loc, ()):
            if not all(rel(codes[i], bound) for i, rel, bound in checks):
                continue
            if mask:
                target = (target, _reset(region, mask),
                          tuple(0 if mask >> i & 1 else value for i, value in enumerate(corner)))
            else:
                target = (target, region, corner)
            arcs.append((src, push(target), weight, 0, e))
    return nodes, arcs, inits


def _statuses(codes, clocks, max_consts) -> tuple:
    return tuple(
        (c, ("gt",) if code == 2 * cap + 2 else ("in" if code & 1 else "eq", code >> 1))
        for c, (_, cap), code in zip(clocks, max_consts, codes))


def build_corner_points(wta: WeightedTimedAutomaton) -> CornerPointGraph:
    """The corner-point graph of a sum-weighted automaton.

    Guards are checked over whole regions (equivalently, on region
    closures approached from inside), which is what lets infima sit on
    the boundary of a strict guard without being attained there.

    The graph is built on integer codes (``_build_graph``), where the
    cost search also runs; this public view turns its nodes into
    (location, Region, ((clock, value), ...)) tuples, once each, and its
    arcs into ``CornerArc``s in build order.  Nodes are sorted by
    location, then the clock codes, then the fractional groups as tuples
    of clock indices (clocks indexed in sorted order), then the corner
    values: a key free of string hashes, so the order is the same in
    every process.
    """
    nodes, arcs, inits = _build_graph(wta)
    clocks = sorted(wta.base.clocks)
    width = len(clocks)
    max_consts = tuple(sorted(wta.base.max_constants().items()))

    def key(i):
        loc, (codes, fracs), corner = nodes[i]
        return loc, codes, tuple(tuple(_bits(m, width)) for m in fracs), corner

    statuses = {}
    groups = {}
    public = [None] * len(nodes)
    order = sorted(range(len(nodes)), key=key)
    for i in order:
        loc, (codes, fracs), corner = nodes[i]
        named = statuses.get(codes)
        if named is None:
            named = statuses[codes] = _statuses(codes, clocks, max_consts)
        group = groups.get(fracs)
        if group is None:
            group = groups[fracs] = tuple(
                frozenset(clocks[j] for j in _bits(m, width)) for m in fracs)
        public[i] = (loc, Region(named, group, max_consts), tuple(zip(clocks, corner)))
    arcs = tuple(CornerArc(public[src], public[dst], cost, time, edge)
                 for src, dst, cost, time, edge in arcs)
    final = set(wta.base.final)
    ordered = tuple(public[i] for i in order)
    accepting = tuple(n for n in ordered if n[0] in final)
    return CornerPointGraph(ordered, arcs, tuple(public[i] for i in inits), accepting)


def _bellman_ford(nodes, arcs, inits, size):
    """Least path costs from the initial nodes, found by relaxing every
    arc in order, round by round, until a round lowers no cost or the
    arcs that last lowered the costs close a cycle.

    Nodes are numbers below size; nodes holds those of the graph, in the
    order their pred arcs are scanned, and arcs are ``_build_graph``
    tuples between them.  Costs are multiplied by scale, the least common
    multiple of the cost denominators, so every sum and comparison is
    exact on ints.

    Returns (dist, cycle, pred, scale): dist[n] is the least cost of node
    n times scale, or None when unreached; pred[n] is the arc that last
    lowered it, or None; cycle is None when the costs converged, else the
    first cycle of pred arcs closed by a scan from the nodes in order
    after the round, as arcs in forward order from the node where it
    closed.

    Two facts make that cycle the verdict of minus infinity.  The
    relaxation is strict, so every cycle of pred arcs has negative cost.
    And a node lowered in round k has k defined pred steps behind it, so
    when round len(nodes) still lowers a cost the pred arcs close a cycle
    in that round.  The arcs are relaxed in their given order, so dist,
    pred and the cycle are exactly those of relaxing the Fractions
    themselves, and fixed for each graph.
    """
    scale = common_denominator(arc[2] for arc in arcs)
    rows = [(arc[0], arc[1], scaled(arc[2], scale), arc) for arc in arcs]
    dist = [None] * size
    pred = [None] * size
    for n in inits:
        dist[n] = 0
    while True:
        changed = False
        for s, d, cost, arc in rows:
            ds = dist[s]
            if ds is None:
                continue
            candidate = ds + cost
            dd = dist[d]
            if dd is None or candidate < dd:
                dist[d] = candidate
                pred[d] = arc
                changed = True
        if not changed:
            return dist, None, pred, scale
        # each node is visited once, marked by the scan that reached it
        mark = [None] * size
        for start in nodes:
            node = start
            while mark[node] is None and pred[node] is not None:
                mark[node] = start
                node = pred[node][0]
            if mark[node] == start:
                cycle = [pred[node]]
                while cycle[-1][0] != node:
                    cycle.append(pred[cycle[-1][0]])
                cycle.reverse()
                return dist, cycle, pred, scale


def _bfs(sources, adjacency, ahead=1, targets=()):
    """Breadth-first search from the sources along the arcs of the
    adjacency lists (one per node number), ``ahead`` the position in an
    arc of the node it leads to.

    Returns (parent, hit): parent maps every node reached, in the order
    reached, to the arc that reached it first (None for a source); hit
    is the first node found in targets, sources first, where the search
    stops, or None.
    """
    parent = dict.fromkeys(sources)
    for node in parent:
        if node in targets:
            return parent, node
    queue = deque(parent)
    while queue:
        for arc in adjacency[queue.popleft()]:
            node = arc[ahead]
            if node not in parent:
                parent[node] = arc
                if node in targets:
                    return parent, node
                queue.append(node)
    return parent, None


def _path_to(parent, node) -> list:
    """The arcs of a search tree from its source to the node."""
    path = []
    while (arc := parent[node]) is not None:
        path.append(arc)
        node = arc[0]
    path.reverse()
    return path


def _live_locations(base: TimedAutomaton) -> set:
    """The locations from which some edge path, guards ignored, reaches a
    final location, the final locations included."""
    sources = {}
    for e in base.edges:
        sources.setdefault(e.target, []).append(e.source)
    live = set(base.final)
    stack = list(live)
    while stack:
        for loc in sources.get(stack.pop(), ()):
            if loc not in live:
                live.add(loc)
                stack.append(loc)
    return live


def _useful_subgraph(wta: WeightedTimedAutomaton):
    """The corner-point graph restricted to nodes lying on some path from
    an initial node to the source of an accepting discrete arc.

    Only the nodes at ``_live_locations`` are built, since no node
    elsewhere can reach an accepting arc.  Every node built is reached
    from an initial node, so the useful ones are those that reach the
    source of an accepting arc.

    Returns (nodes, useful, arcs, inits, acc_arcs, out): every node built
    by number, the set of useful node numbers, the arcs between useful
    nodes and the useful initial nodes (both in build order), the
    discrete arcs from useful nodes into final locations, and every
    built node's arcs, in build order.
    """
    nodes, arcs, inits = _build_graph(wta, _live_locations(wta.base))
    final = set(wta.base.final)
    out = [[] for _ in nodes]
    into = [[] for _ in nodes]
    for arc in arcs:
        out[arc[0]].append(arc)
        into[arc[1]].append(arc)
    acc_arcs = [arc for arc in arcs if arc[4] is not None and arc[4].target in final]
    co, _ = _bfs([arc[0] for arc in acc_arcs], into, 0)
    useful = co.keys()
    # an arc into a useful node leaves one
    arcs = [arc for arc in arcs if arc[1] in useful]
    inits = tuple(n for n in inits if n in useful)
    return nodes, useful, arcs, inits, acc_arcs, out


def _inner_delay(values, caps) -> Fraction:
    """The delay that moves a valuation into its time-successor region:
    half the open interval before the next integer when a clock sits on
    an integer at most its cap, else up to that integer (1 above every
    cap)."""
    parts = [value % 1 for value, cap in zip(values, caps) if value <= cap]
    gap = 1 - max(parts, default=Fraction(0))
    return gap / 2 if 0 in parts else gap


class _Search:
    """One cost search of a sum-weighted automaton: the corner-point
    graph, its useful part and one Bellman-Ford over it, from which the
    infimum, its attainment and the words below a bound are all read."""

    def __init__(self, wta: WeightedTimedAutomaton):
        self.wta = wta
        self.value = INF
        nodes, useful, arcs, inits, acc_arcs, self.out = _useful_subgraph(wta)
        self.nodes, self.inits, self.acc_arcs = nodes, inits, acc_arcs
        if not acc_arcs or not inits:
            return
        dist, self.cycle, _, scale = _bellman_ford(useful, arcs, inits, len(nodes))
        if self.cycle:
            self.value = NEG_INF
            return
        # An accepting arc may end outside the useful subgraph, so its cost
        # may need a finer scale than the arcs relaxed.
        fine = common_denominator((arc[2] for arc in acc_arcs), scale)
        best = None
        best_arc = None
        for arc in acc_arcs:
            ds = dist[arc[0]]
            if ds is None:
                continue
            value = ds * (fine // scale) + scaled(arc[2], fine)
            if best is None or value < best:
                best = value
                best_arc = arc
        if best is None:
            return
        self.value = Fraction(best, fine)
        self.dist, self.scale, self.fine, self.best = dist, scale, fine, best
        # A search tree over the arcs that realize the least costs; at
        # convergence every arc of the Bellman-Ford tree is one of them.
        tight = [[] for _ in nodes]
        for arc in arcs:
            ds, dd = dist[arc[0]], dist[arc[1]]
            if ds is not None and dd is not None and ds + scaled(arc[2], scale) == dd:
                tight[arc[0]].append(arc)
        self.starts = [n for n in inits if dist[n] == 0]
        parent, _ = _bfs(self.starts, tight)
        self.corner_path = _path_to(parent, best_arc[0]) + [best_arc]

    @functools.cached_property
    def attaining(self) -> Optional[TimedWord]:
        """A word valued exactly the finite infimum, or None if none is.

        Breadth-first over region paths: a state is the tuple of corner
        nodes, of one location and region, that the corner paths of a
        region path reach, and a step is the delay or one edge.  Every
        corner of a region has an arc for each step the region allows, so
        a step goes on when all its arcs from the state are tight, and
        ends the search with the point of its region path when it fires a
        final edge and all its arcs reach the infimum."""
        dist, scale, fine, best = self.dist, self.scale, self.fine, self.best
        final = set(self.wta.base.final)
        parent = {(n,): None for n in self.starts}
        queue = deque(parent)
        while queue:
            state = queue.popleft()
            steps = {}
            for n in state:
                for arc in self.out[n]:
                    steps.setdefault(arc[4] and arc[4].id, []).append(arc)
            for arcs in steps.values():
                edge = arcs[0][4]
                if edge is not None and edge.target in final and all(
                        dist[s] * (fine // scale) + scaled(cost, fine) == best
                        for s, _, cost, _, _ in arcs):
                    path = [arcs[0]]
                    while parent[state] is not None:
                        state, step = parent[state]
                        path.append(step)
                    letters, _, delays, _, _ = self._interior(path[::-1])
                    return TimedWord.from_pairs(zip(letters, delays))
                if all(dist[d] is not None and dist[s] + scaled(cost, scale) == dist[d]
                       for s, d, cost, _, _ in arcs):
                    nxt = tuple(sorted({arc[1] for arc in arcs}))
                    if nxt not in parent:
                        parent[nxt] = (state, arcs[0])
                        queue.append(nxt)
        return None

    def _interior(self, path):
        """Follow the region path of a corner path from the zero valuation
        on exact valuations, each delay step by ``_inner_delay``.  Returns
        the letters, the corner path's delays (its unit delay arcs), the
        point's delays, and the two costs."""
        base = self.wta.base
        clocks = sorted(base.clocks)
        caps = base.max_constants()
        caps = [caps[c] for c in clocks]
        values = [Fraction(0)] * len(clocks)
        loc = self.nodes[path[0][0]][0]
        letters, corner, point = [], [], []
        corner_cost = point_cost = point_wait = Fraction(0)
        corner_wait = 0
        for _, _, cost, time, edge in path:
            corner_cost += cost
            if edge is None:
                delay = _inner_delay(values, caps)
                values = [value + delay for value in values]
                corner_wait += time
                point_wait += delay
                point_cost += _fraction(self.wta.wt_location(loc)) * delay
            else:
                letters.append(edge.label)
                corner.append(Fraction(corner_wait))
                point.append(point_wait)
                corner_wait, point_wait = 0, Fraction(0)
                values = [Fraction(0) if c in edge.resets else value
                          for c, value in zip(clocks, values)]
                point_cost += cost
                loc = edge.target
        return letters, corner, point, corner_cost, point_cost

    def _word_below(self, path, bound) -> TimedWord:
        """A word below the bound on the region path of a corner path of
        cost c below it: the point, when its cost p is below the bound,
        else (1 - l)*corner + l*point with l = (bound - c) / (2 (p - c)),
        which lies inside for l > 0 and costs (c + bound) / 2."""
        letters, corner, point, c, p = self._interior(path)
        if p >= bound:
            weight = (bound - c) / (2 * (p - c))
            point = [x + weight * (y - x) for x, y in zip(corner, point)]
        return TimedWord.from_pairs(zip(letters, point))

    def _pumped(self, bound) -> TimedWord:
        """A word below the bound for an infimum of minus infinity: the
        negative cycle that stopped Bellman-Ford, entered on a shortest
        path and left on a shortest path to the cheapest accepting arc,
        with the least number of laps that brings this corner path below
        the bound."""
        entry = self.cycle[0][0]
        # Shortest paths to a useful node only pass useful nodes, so the
        # searches over every node built find the same ones.
        parent, _ = _bfs(self.inits, self.out, targets={entry})
        back, end = _bfs([entry], self.out, targets={arc[0] for arc in self.acc_arcs})
        last = min((arc for arc in self.acc_arcs if arc[0] == end), key=lambda arc: arc[2])
        prefix, suffix = _path_to(parent, entry), _path_to(back, end) + [last]
        fixed = sum(arc[2] for arc in prefix) + sum(arc[2] for arc in suffix)
        lap = sum(arc[2] for arc in self.cycle)
        laps = 0 if fixed < bound else (fixed - bound) // -lap + 1
        return self._word_below(prefix + self.cycle * laps + suffix, bound)

    def below(self, bound, strict: bool) -> Optional[TimedWord]:
        """A word below the bound (strictly, or weakly when strict is False),
        or None when no word is."""
        if self.value is NEG_INF:
            return self._pumped(bound)
        if is_finite(self.value) and self.value < bound:
            return self._word_below(self.corner_path, bound)
        if not strict and self.value == bound:
            return self.attaining
        return None


def inf_cost(wta: WeightedTimedAutomaton) -> InfCostResult:
    """Infimum of run weights under the finite-rational sum valuation.

    Requires the sum monoid with every location rate and edge weight a
    finite rational; callers with infinite weights must prune them first
    (sound for the minimum).  Returns inf when no accepting run exists
    and -inf when runs of unboundedly negative weight exist.
    """
    search = _Search(wta)
    if not is_finite(search.value):
        return InfCostResult(search.value, False, None, None)
    witness = search.attaining
    letters, corner, *_ = search._interior(search.corner_path)
    return InfCostResult(search.value, witness is not None, witness,
                         TimedWord.from_pairs(zip(letters, corner)))


def _below(value, bound, strict: bool) -> bool:
    return value < bound or (not strict and value <= bound)


def _rational(value, what: str) -> Fraction:
    """The value read exactly, or a DomainError naming it as what."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise DomainError(f"{what} must be a finite rational, got {value!r}") from None


def witness_below(wta: WeightedTimedAutomaton, result: InfCostResult,
                  bound, strict: bool = True) -> Optional[tuple]:
    """A concrete word whose behavior lies below the bound (strictly, or
    weakly when strict is False), with its exact value, or None when no
    word does.  The bound is read exactly: a finite rational, or inf, or
    -inf, below which no word's value lies.

    An attaining witness of the result answers when its value is below
    the bound.  Otherwise one cost search builds the word: an infimum
    below the bound moves its optimal corner path inside its region path,
    and an infimum of minus infinity first pumps a negative corner cycle
    for the least number of laps that brings the corner path below the
    bound.  The value reported is the word's behavior, which is below
    the bound by construction: at most the cost of the run built, and
    less when another run of the word is cheaper.
    """
    if bound == NEG_INF:
        return None
    if bound != INF:
        bound = _rational(bound, "bound")
    if result.attained and _below(result.value, bound, strict):
        return result.witness, result.value
    if result.value is NEG_INF or (is_finite(result.value) and result.value < bound):
        word = _Search(wta).below(bound, strict)
        if word is not None:
            return word, behavior(wta, word)
    return None


# ---------------------------------------------------------------------------
# Compiling canonical guard families into timed automata


_COMPLEMENT = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}


def _join(op, unit, left, right):
    """Two compiled tests joined by op (``operator.or_`` with unit False or
    ``and_`` with True), folding literals as ``Not`` and ``Or`` would."""
    if left is (not unit) or right is unit:
        return left
    if right is (not unit) or left is unit:
        return right
    if type(left) is int:
        return op(left, right) if type(right) is int else (lambda e: op(left, right(e)))
    return (lambda e: op(left(e), right)) if type(right) is int else (
        lambda e: op(left(e), right(e)))


class _GuardCompiler:
    """Compiles guards into bitmasks over the grid of position contexts:
    first or not, letter, set variables holding, a guessed truth of each
    distance atom (kept when its clock guard is satisfiable), last or not,
    the first outermost; bit i of a mask is the test at the i-th context.
    Letter, prefix-set membership and past-distance tests (clock
    comparisons; ``=`` is ``<=`` and ``>=``) and the first and last flags
    are masks, ``Not`` is ``full ^ m`` and ``Or`` is ``|``, so a test of
    these folds into one int; one that also reads a guessed global part
    (tau) or fact is a closure from env = (tau, facts) to a mask.  True
    and False fold as literals, by the syntax alone.

    A test compiles at places: a map from each name of the position to 0
    and, inside a case below, from each name of one other position to 1
    (after it) or -1 (before it); ``<=`` between placed names is a leaf.
    A letter outside the alphabet is false anywhere.  An ``ex z. f`` whose
    body mentions the position is the disjunction of z = x (z a second
    name of x), z < x (a past fact, f compiled with x placed after z) and
    z > x (a future fact); a case folding to false drops out, one folding
    to true is "not first" or "not last".  Any other existential is a
    global part, its body compiled at z alone.  Parts and facts nested in
    a body come before it; equal existentials share a number and compile
    once per placing of their free names.  Anything else raises
    UnsupportedGuardError.  Compiling and closures take a stack frame per
    formula level."""

    def __init__(self, guards, so_vars, alphabet):
        from . import rdl
        self.rdl, self.so, self.letters = rdl, set(so_vars), set(alphabet)
        self.parts, self.facts, self._nodes, self._placed = [], [], {}, {}
        atoms, stack = set(), list(guards) if so_vars else []
        while stack:  # the distance atoms, which size the grid
            node = stack.pop()
            if type(node) is rdl.Or:
                stack += (node.left, node.right)
            elif type(node) is rdl.Not or type(node) is rdl.ExistsFO:
                stack.append(node.sub)
            elif type(node) is rdl.Dist and node.setvar in self.so:
                atoms.update((rel, node.bound, node.setvar)
                             for rel in (("<=", ">=") if node.rel == "=" else (node.rel,)))
        atoms = sorted(atoms)
        self.clock_of = {x: f"k_{x}" for x in sorted({a[2] for a in atoms})}
        deltas = [(truths, guard) for truths in itertools.product((False, True), repeat=len(atoms))
                  for guard in [ClockConstraint(tuple(
                      ClockAtom(self.clock_of[x], rel if truth else _COMPLEMENT[rel], bound)
                      for (rel, bound, x), truth in zip(atoms, truths)))]
                  if not truths or constraint_satisfiable(guard)]
        subsets = [frozenset(bits) for r in range(len(so_vars) + 1)
                   for bits in itertools.combinations(so_vars, r)]
        # the letter, resets, clock guard and last flag of each bit
        self.grid = list(itertools.product(
            alphabet, [frozenset(self.clock_of[x] for x in bits if x in self.clock_of)
                       for bits in subsets], [guard for _, guard in deltas], (False, True))) * 2
        full = self.full = (1 << len(self.grid)) - 1
        def leaf(values, holds, inner):
            """The contexts whose value holds, in a dimension of inner-wide values."""
            block = sum(((1 << inner) - 1) << (k * inner) for k, v in enumerate(values) if holds(v))
            return block * (full // ((1 << inner * len(values)) - 1 or 1))
        cell = 2 * len(deltas)
        self.later = leaf((False, True), operator.not_, len(self.grid) // 2)
        self.last = leaf((False, True), bool, 1)
        self.leaves = {**{("letter", a): leaf(alphabet, a.__eq__, cell * len(subsets))
                          for a in self.letters},
                       **{("in", x): leaf(subsets, lambda bits: x in bits, cell) for x in self.so},
                       **{a: leaf([truths for truths, _ in deltas], operator.itemgetter(k), 2)
                          for k, a in enumerate(atoms)}}

    def mask(self, test):
        """A compiled test with its literals made masks."""
        if test is True or test is False:
            return self.full if test else 0
        return test

    def _guess(self, slot, i):
        full = self.full
        return lambda e: full if e[slot][i] else 0

    def compile(self, formula, places):
        rdl, kind = self.rdl, type(formula)
        if kind is rdl.Not:
            sub = formula.sub
            if type(sub) is rdl.Not:
                return self.compile(sub.sub, places)
            if type(sub) is rdl.Or and type(sub.left) is rdl.Not and type(sub.right) is rdl.Not:
                return _join(operator.and_, True, self.compile(sub.left.sub, places),
                             self.compile(sub.right.sub, places))
            sub, full = self.compile(sub, places), self.full
            if sub is True or sub is False:
                return not sub
            return full ^ sub if type(sub) is int else (lambda e: full ^ sub(e))
        if kind is rdl.Or:
            return _join(operator.or_, False, self.compile(formula.left, places),
                         self.compile(formula.right, places))
        if kind is rdl.Letter:
            if formula.letter not in self.letters:
                return False
            if places.get(formula.var) == 0:
                return self.leaves["letter", formula.letter]
        elif kind is rdl.Leq:
            if formula.left == formula.right:
                return True
            left, right = places.get(formula.left), places.get(formula.right)
            if left is not None and right is not None:
                return left <= right
        elif kind is rdl.InSet:
            if places.get(formula.var) == 0 and formula.setvar in self.so:
                return self.leaves["in", formula.setvar]
        elif kind is rdl.Dist:
            if places.get(formula.var) == 0 and formula.setvar in self.so:
                key = formula.bound, formula.setvar
                if formula.rel == "=":
                    return self.leaves[("<=", *key)] & self.leaves[(">=", *key)]
                return self.leaves[(formula.rel, *key)]
        elif kind is rdl.ExistsFO:
            seen = self._nodes.get(formula)
            if seen is None:
                seen = self._nodes[formula] = (len(self._nodes), rdl.free_vars(formula)[0])
            placed = frozenset((v, at) for v, at in places.items() if v in seen[1])
            test = self._placed.get((seen[0], placed))
            if test is None:
                test = self._placed[seen[0], placed] = self._exists(formula, placed)
            return test
        raise UnsupportedGuardError(
            f"guard outside the compiled fragment: {rdl.to_text(formula)}")

    def _exists(self, formula, placed):
        z, body = formula.var, formula.sub
        near = [v for v, at in placed if at == 0]
        if not near:
            self.parts.append(self.mask(self.compile(body, {z: 0})))
            return self._guess(0, len(self.parts) - 1)
        same = self.compile(body, {**dict(placed), z: 0})
        earlier = self.compile(body, {**dict.fromkeys(near, 1), z: 0})
        later = self.compile(body, {**dict.fromkeys(near, -1), z: 0})
        return _join(operator.or_, False, same, _join(
            operator.or_, False, self._fact("past", earlier, self.later),
            self._fact("future", later, self.full ^ self.last)))

    def _fact(self, kind, test, flag):
        """Whether some earlier ("past") or later ("future") position
        passes the test: the flag when every position does, else a fact."""
        if test is True or test is False:
            return test and flag
        self.facts.append((kind, test))
        return self._guess(1, len(self.facts) - 1)


@dataclass(frozen=True)
class CompiledFamily:
    """A guard family compiled into a timed automaton, with the location
    rates and edge weights under which its behavior over the sum (or the
    average) is the sentence value over the sum0 (or avg0) monoid."""

    automaton: TimedAutomaton
    rates: dict
    weights: dict

    def weighted(self, monoid) -> WeightedTimedAutomaton:
        return WeightedTimedAutomaton(self.automaton, monoid, self.rates, self.weights)


@refuse_deep
def compile_guard_family(guards, values, alphabet, so_vars, posvar) -> CompiledFamily:
    """Compile a canonical guard family with its (left, right) branch
    values into a timed automaton over ``alphabet`` with one accepting
    run per assignment of the prefix set variables under which every
    position selects one branch, weighted by the branches selected.

    Set membership is guessed per position; each distance variable gets a
    clock reset at its guessed positions, so past-distance tests become
    clock guards.  Global parts (closed existentials, at any depth) are
    guessed up front and verified along the word: a position satisfying
    a part's body rejects a false guess, and a true guess needs such a
    position by the final transition.  A past fact is held in the state,
    set after a position passing its test; a future fact is guessed at
    each position, false at the last, and the guess is held for the next
    position to check: it must have passed the test or guessed the fact
    true.  A test's truth depends only on the guesses nested in it, so
    bottom up every guess of an accepting run is correct.

    A location pairs a compiler state with a guessed rate: the left value
    of the next position's branch (the final location has rate 0).  The
    set bits of one mask per guess of the facts (exactly one branch holds,
    with finite values, and the parts and facts check out) fire in grid
    order from the location holding their branch's left value, one edge
    per guessed next rate, weighted by the branch's right value.  A guard
    nested too deep for the interpreter is refused with a ``WatlError``.
    """
    compiler = _GuardCompiler(guards, so_vars, alphabet)
    tests = [compiler.mask(compiler.compile(guard, {posvar: 0})) for guard in guards]
    parts, facts, grid, full = compiler.parts, compiler.facts, compiler.grid, compiler.full
    not_last, halves = full ^ compiler.last, (full ^ compiler.later, compiler.later)
    future = [i for i, (kind, _) in enumerate(facts) if kind == "future"]
    rates = list(dict.fromkeys(m for m, mp in values if is_finite(m) and is_finite(mp)))
    slots = [rates.index(m) if is_finite(m) and is_finite(mp) else None for m, mp in values]

    def guessed(tau, now):
        """Bodies, fact tests, branches and the contexts that fire, per guess."""
        env = (tau, now)
        bodies = [t if type(t) is int else t(env) for t in parts]
        tested = [t if type(t) is int else t(env) for _, t in facts]
        truths = [t if type(t) is int else t(env) for t in tests]
        one = two = fire = 0
        for truth, slot in zip(truths, slots):
            two |= one & truth
            one |= truth
            fire |= 0 if slot is None else truth
        fire &= ~two
        for body, guess in zip(bodies, tau):
            fire &= full if guess else ~body
        if any(now[i] for i in future):  # a future fact is false at the last position
            fire &= not_last
        return bodies, tested, truths, fire

    names, queue = {}, []

    def reach(state):
        """The names of a new state's locations, one per rate; it is queued."""
        stem = "q%d.%s.%s.%s@" % (state[0], *["".join(["1" if b else "0" for b in bits])
                                              for bits in state[1:]])
        names[state] = found = [f"{stem}{j}" for j in range(len(rates))]
        queue.append(state)
        return found

    initial = [n for tau in itertools.product((False, True), repeat=len(parts))
               for n in reach((0, tau, (False,) * len(parts), (False,) * len(facts)))]
    edges, weights, table = [], {}, {}
    while queue:
        state = queue.pop()
        phase, tau, wit, held = state
        sources = names[state]
        # the facts at a position: a past one as held, a future one guessed
        for now in itertools.product(*[(was,) if kind == "past" else (False, True)
                                       for (kind, _), was in zip(facts, held)]):
            if (tau, now) not in table:
                table[tau, now] = guessed(tau, now)
            bodies, tested, truths, fire = table[tau, now]
            fire &= halves[phase]
            if phase:  # a future fact held for the position: guessed true or passed
                for i in future:
                    passed = full if now[i] else tested[i]
                    fire &= passed if held[i] else full ^ passed
            for body, guess, was in zip(bodies, tau, wit):
                if guess and not was:  # witnessed by the last position at the latest
                    fire &= not_last | body
            while fire:
                low = fire & -fire
                fire ^= low
                letter, resets, guard, last = grid[low.bit_length() - 1]
                for branch, truth in enumerate(truths):
                    if truth & low:
                        break
                if last:
                    targets = ["acc"]
                else:  # parts witnessed, past facts set and future facts guessed here
                    nxt = (1, tau, tuple([w or bool(b & low) for w, b in zip(wit, bodies)]),
                           tuple([g or (kind == "past" and bool(t & low))
                                  for (kind, _), g, t in zip(facts, now, tested)]))
                    targets = names.get(nxt) or reach(nxt)  # a firing branch has a rate
                source, weight = sources[slots[branch]], values[branch][1]
                for target in targets:
                    eid = f"e{len(edges)}"
                    edges.append(Edge(eid, source, letter, guard, resets, target))
                    weights[eid] = weight
    locations = {n: rate for s in sorted(names) for n, rate in zip(names[s], rates)}
    locations["acc"] = Fraction(0)
    automaton = TimedAutomaton(tuple(alphabet), tuple(locations), tuple(compiler.clock_of.values()),
                               tuple(initial), ("acc",), tuple(edges), unambiguous=False)
    return CompiledFamily(automaton, locations, weights)


# ---------------------------------------------------------------------------
# Threshold decisions


@dataclass(frozen=True)
class DecisionResult:
    """Whether some word is valued below the threshold (strictly by
    default; weakly when the decision was made with strict=False, which
    additionally needs the infimum to be attained when it sits exactly at
    the threshold).

    ``infimum`` is the infimum of the compared quantity when it is
    computed directly (sum); for averages only the shifted infimum (of
    the rate-shifted sum, negative iff the answer is yes on positive
    durations) is reported.  The witness, when found, is a word over the
    input alphabet, and ``witness_value`` its exact sentence value, read
    as the behavior of the compiled guard family: below the threshold.
    """

    holds: bool
    threshold: Fraction
    infimum: Optional[Weight]
    shifted_infimum: Optional[Weight]
    witness: Optional[TimedWord]
    witness_value: Optional[Weight]
    strict: bool = True


def decide_sum_threshold(sentence, alphabet, threshold,
                         monoid: Optional[TimedPvMonoid] = None,
                         strict: bool = True) -> DecisionResult:
    """Decide whether some timed word is valued below the threshold
    (strictly, or weakly with strict=False) by a syntactically restricted
    sum-sentence.

    The strict question is equivalent to the infimum over all words
    lying below the threshold, so the canonical guard family is compiled
    into a sum automaton over the alphabet and its corner-point infimum
    is compared; the weak variant additionally accepts an
    attained infimum equal to the threshold.
    """
    pv = monoid or monoid_from_id("sum0")
    if not isinstance(pv, TimedPvMonoid) or pv.base.id != "sum":
        raise DomainError("sum threshold decisions need the sum0 monoid")
    return _decide(sentence, alphabet, threshold, pv, strict, average=False)


def _decide(sentence, alphabet, threshold, pv: TimedPvMonoid, strict: bool,
            average: bool) -> DecisionResult:
    """Both deciders search the compiled guard family as a sum automaton:
    an average searches it through ``_average_gate`` for a value below
    zero, its witness must last a positive time, and its infimum is
    reported as the shifted one.  A witness is valued by the family's
    behavior over the base monoid of pv: its sentence value."""
    from . import wrdl
    threshold = _rational(threshold, "threshold")
    canonical = wrdl.canonicalize(sentence, pv)
    for v in canonical.left + canonical.right:
        pv.require(v, "canonical value")
    # no word has a finite value without a letter, a finite left value
    # and a finite right value
    if not (alphabet and any(map(is_finite, canonical.left))
            and any(map(is_finite, canonical.right))):
        return DecisionResult(False, threshold, *((None, INF) if average else (INF, None)),
                              None, None, strict)
    family = compile_guard_family(canonical.guards, tuple(zip(canonical.left, canonical.right)),
                                  tuple(alphabet), canonical.so_vars, canonical.var)
    summed = family.weighted(monoid_from_id("sum"))
    bound = Fraction(0) if average else threshold
    search = _Search(_average_gate(summed, threshold) if average else summed)
    value = search.value
    holds = value < bound or (not strict and value == bound and search.attaining is not None)
    witness = witness_value = None
    if holds:
        found = search.below(bound, strict)
        if found is not None:
            exact = behavior(family.weighted(pv.base), found)
            if _below(exact, threshold, strict) and (not average or found.duration > 0):
                witness, witness_value = found, exact
    infima = (None, value) if average else (value, None)
    return DecisionResult(holds, threshold, *infima, witness, witness_value, strict)


def _average_gate(summed: WeightedTimedAutomaton, threshold: Fraction) -> WeightedTimedAutomaton:
    """The family with every rate lowered by the threshold, accepting only
    runs of positive duration: the edges into the final location also
    need a fresh clock ``zdur``, never reset, to be positive.  A run of
    positive duration then weighs below zero exactly when its average is
    below the threshold.

    Precondition, met by every compiled guard family: no edge leaves a
    final location and no clock is named ``zdur``.  Otherwise a run could
    pass through a final location, and the gate would not check its
    duration where it ends.
    """
    base = summed.base
    positive = ClockConstraint((ClockAtom("zdur", ">", 0),))
    edges = tuple(replace(e, guard=e.guard.conjoin(positive)) if e.target in base.final else e
                  for e in base.edges)
    rates = {l: summed.wt_location(l) - threshold for l in base.locations}
    return WeightedTimedAutomaton(replace(base, clocks=base.clocks + ("zdur",), edges=edges),
                                  summed.monoid, rates, summed.edge_weights)


def decide_avg_threshold(sentence, alphabet, threshold,
                         strict: bool = True) -> DecisionResult:
    """Decide whether some positive-duration timed word is valued below
    the threshold (strictly, or weakly with strict=False) by a
    syntactically restricted average-sentence.

    On positive durations, average < threshold iff the sum with every
    rate lowered by the threshold is negative, so the shifted corner
    infimum is compared against zero under a positive-duration gate
    (minus infinity also answers yes); the weak variant additionally
    accepts an attained shifted infimum of exactly zero.
    """
    return _decide(sentence, alphabet, threshold, monoid_from_id("avg0"), strict, average=True)
