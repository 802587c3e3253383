"""JSON-compatible interchange formats for models, words and triples.

Rationals travel as strings "p/q" (bare integers allowed) so that no
float drift can enter through files; discounted values are decimal
strings with twelve significant digits.  All loaders validate the
reconstructed object and report every problem at once.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import rdl
from .core import ClockConstraint, Edge, TimedAutomaton, TimedWord
from .errors import ParseError
from .monoids import monoid_from_id
from .transform import NivatTriple
from .weights import format_weight, parse_weight
from .wta import WeightedTimedAutomaton


def dump_json(payload) -> str:
    """Compact deterministic JSON for stdout and files."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


_SHAPES = {list: "a list", dict: "an object", bool: "true or false"}


def require_shape(value, shape, what: str):
    """The value when it is of the JSON shape (list, dict or bool), else
    a ParseError naming what it is."""
    if not isinstance(value, shape):
        raise ParseError(f"{what} must be {_SHAPES[shape]}, got {type(value).__name__}")
    return value


def _strings(values, what: str) -> tuple:
    """The items of a JSON list as strings."""
    return tuple(str(v) for v in require_shape(values, list, what))


def _require_fields(data, fields, what: str):
    require_shape(data, dict, what)
    missing = [f for f in fields if f not in data]
    if missing:
        raise ParseError(f"{what} is missing fields: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Timed words


def word_to_list(word: TimedWord) -> list:
    return [[letter, format_weight(delay)] for letter, delay in word]


def _weight(value, what: str):
    try:
        return parse_weight(str(value))
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from None


def parse_delays(values, what: str = "delay of entry") -> list:
    """Nonnegative (finite) rationals from their interchange form; a bad
    value is reported as ``what`` followed by its index."""
    delays = []
    for k, value in enumerate(values):
        try:
            delay = parse_weight(str(value))
        except ParseError:
            delay = None
        if not isinstance(delay, Fraction) or delay.numerator < 0:
            raise ParseError(f"{what} {k} must be a nonnegative rational, got {value!r}")
        delays.append(delay)
    return delays


def word_from_list(items, timestamps: bool = False) -> TimedWord:
    if not isinstance(items, list) or not items:
        raise ParseError("a timed word is a non-empty list of [letter, delay] pairs")
    for k, item in enumerate(items):
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"word entry {k} is not a [letter, value] pair")
    kind = "timestamp" if timestamps else "delay"
    delays = parse_delays([value for _, value in items], f"{kind} of word entry")
    pairs = [(str(letter), delay) for (letter, _), delay in zip(items, delays)]
    if timestamps:
        return TimedWord.from_timestamps(pairs)
    return TimedWord.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Automata


def automaton_to_dict(automaton: TimedAutomaton) -> dict:
    data = {
        "alphabet": list(automaton.alphabet),
        "locations": list(automaton.locations),
        "clocks": list(automaton.clocks),
        "initial": list(automaton.initial),
        "final": list(automaton.final),
        "edges": [
            {
                "id": e.id,
                "source": e.source,
                "label": e.label,
                "guard": str(e.guard),
                "resets": sorted(e.resets),
                "target": e.target,
            }
            for e in automaton.edges
        ],
    }
    if automaton.unambiguous:
        data["unambiguous"] = True
    return data


def automaton_from_dict(data) -> TimedAutomaton:
    _require_fields(data, ("alphabet", "locations", "clocks", "initial",
                           "final", "edges"), "automaton")
    edges = []
    for k, entry in enumerate(require_shape(data["edges"], list, "automaton edges")):
        _require_fields(entry, ("id", "source", "label", "guard", "resets",
                                "target"), f"edge {k}")
        edges.append(Edge(
            str(entry["id"]), str(entry["source"]), str(entry["label"]),
            ClockConstraint.parse(str(entry["guard"])),
            frozenset(_strings(entry["resets"], f"resets of edge {k}")), str(entry["target"])))
    automaton = TimedAutomaton(
        alphabet=_strings(data["alphabet"], "automaton alphabet"),
        locations=_strings(data["locations"], "automaton locations"),
        clocks=_strings(data["clocks"], "automaton clocks"),
        initial=_strings(data["initial"], "automaton initial"),
        final=_strings(data["final"], "automaton final"),
        edges=tuple(edges),
        unambiguous=require_shape(data.get("unambiguous", False), bool, "automaton unambiguous"),
    )
    automaton.validate()
    return automaton


# ---------------------------------------------------------------------------
# Weighted automata


def wta_to_dict(wta: WeightedTimedAutomaton) -> dict:
    data = automaton_to_dict(wta.base)
    data["monoid"] = wta.monoid.id
    data["weights"] = {
        "locations": {l: format_weight(w) for l, w in sorted(wta.location_weights.items())},
        "edges": {e: format_weight(w) for e, w in sorted(wta.edge_weights.items())},
    }
    return data


def wta_from_dict(data) -> WeightedTimedAutomaton:
    _require_fields(data, ("monoid", "weights"), "weighted automaton")
    base = automaton_from_dict(data)
    monoid = monoid_from_id(str(data["monoid"]))
    weights = data["weights"]
    _require_fields(weights, ("locations", "edges"), "weights")
    location_weights = {str(l): _weight(v, f"weight of location {l!r}") for l, v in
                        require_shape(weights["locations"], dict, "location weights").items()}
    edge_weights = {str(e): _weight(v, f"weight of edge {e!r}") for e, v in
                    require_shape(weights["edges"], dict, "edge weights").items()}
    missing = ([f"location {l!r}" for l in base.locations if l not in location_weights]
               + [f"edge {e.id!r}" for e in base.edges if e.id not in edge_weights])
    if missing:
        raise ParseError(f"weights are missing for {', '.join(missing)}")
    return WeightedTimedAutomaton(base, monoid, location_weights, edge_weights)


# ---------------------------------------------------------------------------
# Nivat triples


def triple_to_dict(triple: NivatTriple) -> dict:
    if triple.language_class == "sentence":
        language = rdl.to_text(triple.language)
    else:
        language = automaton_to_dict(triple.language)
    return {
        "gamma": list(triple.gamma),
        "h": {c: triple.h[c] for c in triple.gamma},
        "g": {c: [format_weight(triple.g[c][0]), format_weight(triple.g[c][1])]
              for c in triple.gamma},
        "language": language,
        "class": triple.language_class,
    }


def triple_from_dict(data) -> NivatTriple:
    _require_fields(data, ("gamma", "h", "g", "language", "class"), "triple")
    gamma = _strings(data["gamma"], "triple gamma")
    h = {str(c): str(a) for c, a in require_shape(data["h"], dict, "triple h").items()}
    g = letter_weights_from_dict(data["g"], "triple g")
    language_class = str(data["class"])
    if language_class == "sentence":
        language = rdl.parse_rdl(str(data["language"]))
    else:
        language = automaton_from_dict(data["language"])
    return NivatTriple(gamma, h, g, language, language_class)


def letter_weights_from_dict(data, what: str) -> dict:
    """Letter -> (rate, weight) from an object of [rate, weight] pairs."""
    g = {}
    for c, pair in require_shape(data, dict, what).items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"g({c}) must be a [rate, weight] pair")
        g[str(c)] = (_weight(pair[0], f"g1({c})"), _weight(pair[1], f"g2({c})"))
    return g


# ---------------------------------------------------------------------------
# Assignments


def assignment_from_dict(data) -> rdl.Assignment:
    if not isinstance(data, dict) or not all(
            isinstance(data.get(kind, {}), dict) for kind in ("fo", "so")):
        raise ParseError("an assignment is an object with 'fo' and 'so' maps")
    sigma = rdl.Assignment()
    for var, pos in data.get("fo", {}).items():
        if not _is_position(pos):
            raise ParseError(f"first-order assignment of {var!r} must be an integer")
        sigma = sigma.with_fo(str(var), pos)
    for var, positions in data.get("so", {}).items():
        if not isinstance(positions, list):
            raise ParseError(f"second-order assignment of {var!r} must be a list")
        if not all(_is_position(p) for p in positions):
            raise ParseError(f"second-order assignment of {var!r} must list integers")
        sigma = sigma.with_so(str(var), frozenset(positions))
    return sigma


def _is_position(value) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)
