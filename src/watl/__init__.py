"""Weighted timed automata over timed valuation monoids, relative
distance logic, and the translations connecting them.

The package provides:

- timed words, clock constraints and timed automata with run
  enumeration (:mod:`watl.core`);
- timed valuation monoids and product–valuation monoids with randomized
  axiom checking (:mod:`watl.monoids`);
- weighted timed automata and their behaviors (:mod:`watl.wta`);
- relabelings, valuation automata, products and the decomposition of a
  behavior into (gamma, h, g, language) triples (:mod:`watl.transform`);
- the unweighted relative distance logic with past distance predicates
  (:mod:`watl.rdl`) and its weighted extension with fragment
  classification, canonicalization and both directions of the
  logic/triple translation (:mod:`watl.wrdl`);
- corner-point optimal cost and threshold decision procedures
  (:mod:`watl.optcost`);
- JSON interchange, seeded sampling and a command-line front end
  (:mod:`watl.serialize`, :mod:`watl.sampling`, :mod:`watl.cli`).
"""

import importlib

# Each public name and the submodule that defines it, in the order of
# __all__.  A name is imported on first use, so ``import watl`` loads no
# submodule and a program pays only for the modules it touches.
_HOMES = {
    "AvgMonoid": "monoids", "CanonicalSentence": "wrdl", "ClockAtom": "core",
    "ClockConstraint": "core", "CornerArc": "optcost",
    "CornerPointGraph": "optcost", "DecisionResult": "optcost",
    "DiscountMonoid": "monoids", "DomainError": "errors", "Edge": "core",
    "FragmentError": "errors", "INF": "weights", "Infinity": "weights",
    "InfCostResult": "optcost", "ModelValidationError": "errors",
    "NEG_INF": "weights", "NivatTriple": "transform", "ParseError": "errors",
    "PreimageCapError": "errors", "ProductMonoid": "monoids", "Run": "core",
    "StepFunction": "wrdl", "SumMonoid": "monoids", "TimedAutomaton": "core",
    "TimedPvMonoid": "monoids", "TimedValuationMonoid": "monoids",
    "TimedWord": "core", "UnsoundCompositionError": "errors",
    "UnsupportedGuardError": "errors", "WatlError": "errors",
    "WeightPairWord": "monoids", "WeightedTimedAutomaton": "wta",
    "WrdlClassification": "wrdl", "ambiguity_probe": "core", "behavior": "wta",
    "build_corner_points": "optcost", "canonicalize": "wrdl",
    "check_axioms": "monoids", "classify_automaton": "core",
    "clock_step": "core", "comp_automaton": "transform",
    "constraint_satisfiable": "core", "decide_avg_threshold": "optcost",
    "decide_sum_threshold": "optcost", "enumerate_runs": "core",
    "feasible_valuation": "core", "format_weight": "weights",
    "inf_cost": "optcost", "is_finite": "weights", "monoid_from_id": "monoids",
    "nivat_compose": "transform", "nivat_decompose": "transform",
    "nivat_eval": "transform", "nivat_to_sentence": "wrdl", "parse_rdl": "rdl",
    "parse_weight": "weights", "parse_wrdl": "wrdl",
    "product_intersect": "transform", "register_monoid": "monoids",
    "relabel": "transform", "run_weight": "wta", "sentence_to_nivat": "wrdl",
    "sum_over": "monoids", "to_step_function": "wrdl", "valuate": "monoids",
    "witness_below": "optcost", "wrdl_classify": "wrdl", "wrdl_eval": "wrdl",
    "wt_sharp": "wta",
}

# Submodules that ``watl.<name>`` reaches without an import of its own.
_SUBMODULES = frozenset({"core", "errors", "monoids", "optcost", "rdl", "sampling",
                         "serialize", "transform", "weights", "wrdl", "wta"})

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
