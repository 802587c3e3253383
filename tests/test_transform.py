"""Closure constructions and the triple decomposition round trip."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (ambiguous_counting_triple, brute_nivat_eval, brute_product_intersect,
                      collapsed_triple, wd)
from watl import fixtures, rdl, sampling
from watl.core import (
    ClockConstraint,
    Edge,
    TimedAutomaton,
    TimedWord,
    classify_automaton,
    enumerate_runs,
)
from watl.errors import ModelValidationError, PreimageCapError, UnsoundCompositionError
from watl.monoids import WeightPairWord, monoid_from_id, sum_over, valuate
from watl.transform import (
    NivatTriple,
    comp_automaton,
    nivat_compose,
    nivat_decompose,
    nivat_eval,
    product_intersect,
    relabel,
)
from watl.serialize import triple_from_dict, triple_to_dict
from watl.weights import INF
from watl.wta import WeightedTimedAutomaton, behavior


def preimage_sum(automaton, mapping, word, monoid):
    """Fold the behavior of every preimage word, the brute-force way."""
    options = [[g for g, image in mapping.items() if image == letter]
               for letter, _ in word.entries]
    values = []
    for choice in itertools.product(*options):
        preimage = TimedWord(tuple(
            (g, delay) for g, (_, delay) in zip(choice, word.entries)))
        values.append(behavior(automaton, preimage))
    return sum_over(monoid, values)


# --- relabeling ------------------------------------------------------------


def test_relabel_folds_over_preimages():
    automaton, mapping = fixtures.relabel_pair()
    relabeled = relabel(automaton, mapping)
    # four preimage words with costs {2, 3, 3, 4}
    assert behavior(relabeled, wd(("a", 1), ("a", 1))) == 2


def test_relabel_with_identity_keeps_behavior():
    automaton = fixtures.first_letter_rates()
    identity = relabel(automaton, {"a": "a", "b": "b"})
    rng = random.Random(9)
    for _ in range(25):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        assert behavior(identity, word) == behavior(automaton, word)


def test_letters_outside_the_image_have_no_preimage():
    automaton, mapping = fixtures.relabel_pair()
    relabeled = relabel(automaton, mapping, alphabet=("a", "b"))
    assert behavior(relabeled, wd(("a", 1), ("b", 1))) is INF


def test_relabel_matches_the_preimage_oracle_on_random_models():
    rng = random.Random(14)
    monoid = monoid_from_id("sum")
    mapping = {"g1": "a", "g2": "a", "g3": "b"}
    for _ in range(30):
        automaton = sampling.random_wta(rng, monoid, alphabet=("g1", "g2", "g3"))
        relabeled = relabel(automaton, mapping)
        word = sampling.random_word(rng, ("a", "b"), max_len=3)
        assert behavior(relabeled, word) == preimage_sum(automaton, mapping, word, monoid)


# --- letter-wise valuations ------------------------------------------------


def test_comp_automaton_computes_the_letter_valuation():
    g = {"a": (Fraction(1), Fraction(0)), "b": (Fraction(2), Fraction(0))}
    automaton = comp_automaton(("a", "b"), g, monoid_from_id("sum"))
    assert behavior(automaton, wd(("a", 1), ("b", 2))) == 5


def test_comp_automaton_has_exactly_one_run_per_word():
    g = {"a": (Fraction(1), Fraction(2)), "b": (Fraction(-1), Fraction(0))}
    rng = random.Random(8)
    for monoid_id in ("sum", "prod"):
        monoid = monoid_from_id(monoid_id)
        mapping = g if monoid_id == "sum" else {
            "a": (Fraction(1), Fraction(2)), "b": (Fraction(1), Fraction(0))}
        automaton = comp_automaton(("a", "b"), mapping, monoid)
        assert automaton.base.unambiguous
        for _ in range(100):
            word = sampling.random_word(rng, ("a", "b"), max_len=5)
            assert len(enumerate_runs(automaton.base, word)) == 1


def test_comp_automaton_matches_the_direct_valuation():
    g = {"a": (Fraction(1), Fraction(2)), "b": (Fraction(-1), Fraction("1/2"))}
    monoid = monoid_from_id("sum")
    automaton = comp_automaton(("a", "b"), g, monoid)
    rng = random.Random(88)
    for _ in range(50):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        expected = valuate(monoid, WeightPairWord(tuple(
            (g[letter], delay) for letter, delay in word.entries)))
        assert behavior(automaton, word) == expected


def test_location_independent_monoids_get_a_sequential_automaton():
    g = {"a": (Fraction(1), Fraction(2))}
    automaton = comp_automaton(("a",), g, monoid_from_id("prod"))
    assert classify_automaton(automaton.base)["sequential"]


# --- weighted intersection -------------------------------------------------


def test_product_gates_behavior_by_the_language():
    product = product_intersect(fixtures.duration_meter(), fixtures.first_delay_bounded())
    assert behavior(product, wd(("a", "1/2"), ("a", 2))) == Fraction(5, 2)
    assert behavior(product, wd(("a", 2), ("a", 1))) is INF


def test_product_with_ambiguous_language_needs_idempotence():
    meter = fixtures.duration_meter()
    ambiguous = fixtures.all_words_ambiguous(("a",))
    product = product_intersect(meter, ambiguous)
    rng = random.Random(4)
    for _ in range(25):
        word = sampling.random_word(rng, ("a",), max_len=4)
        assert len(enumerate_runs(product.base, word)) == 2
        assert behavior(product, word) == behavior(meter, word)


def test_product_with_the_full_language_changes_nothing():
    meter = fixtures.duration_meter()
    product = product_intersect(meter, fixtures.all_words(("a",)))
    rng = random.Random(6)
    for _ in range(25):
        word = sampling.random_word(rng, ("a",), max_len=4)
        assert behavior(product, word) == behavior(meter, word)


def test_product_refuses_the_unsound_configuration():
    counting = fixtures.constant_one_product()
    ambiguous = fixtures.all_words_ambiguous(("a",))
    with pytest.raises(UnsoundCompositionError, match="unsound"):
        product_intersect(counting, ambiguous)


def test_product_accepts_unambiguous_languages_for_any_monoid():
    counting = fixtures.constant_one_product()
    language = fixtures.all_words(("a",))
    assert language.unambiguous
    product = product_intersect(counting, language)
    assert behavior(product, wd(("a", 1), ("a", 2))) == 1


@pytest.mark.parametrize("monoid_id",
                         ("sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2"))
def test_product_pairing_matches_the_nested_loop_oracle(monoid_id):
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(f"product/{monoid_id}")
    paired = 0
    for _ in range(40):
        weighted = sampling.random_wta(rng, monoid)
        language = sampling.random_automaton(
            rng, rng.choice((("a",), ("a", "b"), ("b", "c"))), max_clocks=3)
        # The flag is trusted: setting it allows the pairing for every monoid.
        if not monoid.idempotent or rng.random() < 0.5:
            language = dataclasses.replace(language, unambiguous=True)
        product = product_intersect(weighted, language)
        want = brute_product_intersect(weighted, language)
        assert product == want
        assert list(product.edge_weights) == list(want.edge_weights)
        paired += len(product.base.edges)
    assert paired >= 100


def test_product_gating_matches_membership_on_random_models():
    rng = random.Random(77)
    monoid = monoid_from_id("sum")
    for _ in range(25):
        weighted = sampling.random_wta(rng, monoid)
        language = sampling.random_automaton(rng)
        product = product_intersect(weighted, language)
        word = sampling.random_word(rng, ("a", "b"), max_len=3)
        accepted = bool(enumerate_runs(language, word))
        expected = behavior(weighted, word) if accepted else INF
        assert behavior(product, word) == expected


# --- triple decomposition --------------------------------------------------


def test_decompose_uses_edge_identities_as_letters():
    automaton = fixtures.first_letter_rates()
    triple = nivat_decompose(automaton)
    assert sorted(triple.gamma) == sorted(e.id for e in automaton.base.edges)
    assert triple.language_class == "sequential"
    assert classify_automaton(triple.language)["sequential"]
    assert len(triple.language.initial) == 1


def test_decomposed_start_copies_take_edge_ids_not_in_use():
    # a@start already names an edge, so the start copy of edge a needs another id
    true = ClockConstraint.true()
    base = TimedAutomaton(("a",), ("p", "q", "r"), (), ("p", "q"), ("r",),
                          (Edge("a", "p", "a", true, frozenset(), "r"),
                           Edge("a@start", "q", "a", true, frozenset(), "r")))
    automaton = WeightedTimedAutomaton(base, monoid_from_id("sum"),
                                       {"p": Fraction(1), "q": Fraction(2), "r": Fraction(0)},
                                       {"a": Fraction(0), "a@start": Fraction(5)})
    triple = nivat_decompose(automaton)
    ids = [e.id for e in triple.language.edges]
    assert ids == ["a", "a@start", "_a@start", "a@start@start"]
    assert triple_from_dict(triple_to_dict(triple)) == triple
    word = wd(("a", 3))
    assert nivat_eval(triple, word, automaton.monoid) == behavior(automaton, word) == 3


def test_decomposed_runs_stay_accepted():
    automaton = fixtures.first_letter_rates()
    triple = nivat_decompose(automaton)
    word = wd(("b", 3), ("a", 1))
    for run in enumerate_runs(automaton.base, word):
        projected = TimedWord(tuple(
            (edge_id, delay) for edge_id, (_, delay) in zip(run.edge_ids, word.entries)))
        assert enumerate_runs(triple.language, projected)


def test_triple_evaluation_matches_behavior():
    automaton = fixtures.first_letter_rates()
    triple = nivat_decompose(automaton)
    assert nivat_eval(triple, wd(("b", 3)), automaton.monoid) == 6
    assert nivat_eval(triple, wd(("b", 3), ("a", 1)), automaton.monoid) == 6


def test_single_preimage_evaluates_directly():
    g = {"a": (Fraction(2), Fraction(3))}
    triple = NivatTriple(("a",), {"a": "a"}, g, fixtures.all_words(("a",)), "sequential")
    monoid = monoid_from_id("sum")
    word = wd(("a", 1), ("a", "1/2"))
    expected = valuate(monoid, WeightPairWord(tuple(
        (g["a"], delay) for _, delay in word.entries)))
    assert nivat_eval(triple, word, monoid) == expected


def test_empty_languages_evaluate_to_zero():
    edge = Edge("loop", "hub", "a", ClockConstraint.true(), frozenset(), "hub")
    no_finals = TimedAutomaton(("a",), ("hub",), (), ("hub",), (), (edge,))
    triple = NivatTriple(("a",), {"a": "a"}, {"a": (Fraction(1), Fraction(1))},
                         no_finals, "sequential")
    assert nivat_eval(triple, wd(("a", 1)), monoid_from_id("sum")) is INF


def test_preimage_blowup_hits_the_cap():
    triple = ambiguous_counting_triple()
    prod = monoid_from_id("prod")
    with pytest.raises(PreimageCapError):
        nivat_eval(triple, wd(*((("a", 1),) * 8)), prod, cap=100)
    word = wd(*((("a", 1),) * 6))
    assert nivat_eval(triple, word, prod, cap=100) == brute_nivat_eval(triple, word, prod)


def test_the_fold_answers_above_the_preimage_cap():
    # 2^8 preimages, but the fold's cost does not depend on their count
    automaton, _ = fixtures.relabel_pair()
    triple = collapsed_triple(nivat_decompose(automaton))
    sum_ = monoid_from_id("sum")
    word = wd(*((("a", 1),) * 8))
    assert nivat_eval(triple, word, sum_, cap=100) == brute_nivat_eval(triple, word, sum_)


def test_constant_triple_realizes_the_closed_form():
    g = {"a": (Fraction(2), Fraction(3)), "b": (Fraction(2), Fraction(3))}
    triple = NivatTriple(("a", "b"), {"a": "a", "b": "b"}, g,
                         fixtures.all_words(("a", "b")), "sequential")
    monoid = monoid_from_id("sum")
    rng = random.Random(15)
    for _ in range(25):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        expected = 2 * word.duration + 3 * len(word.entries)
        assert nivat_eval(triple, word, monoid) == expected


def test_round_trip_through_triples_per_monoid():
    for monoid_id in ("sum", "avg", "disc:1/2", "prod"):
        monoid = monoid_from_id(monoid_id)
        rng = random.Random(2026)
        for _ in range(40):
            automaton = sampling.random_wta(rng, monoid)
            word = sampling.random_word(rng, automaton.base.alphabet, max_len=4)
            direct = behavior(automaton, word)
            triple = nivat_decompose(automaton)
            assert monoid.eq(direct, nivat_eval(triple, word, monoid))
            composed = nivat_compose(triple, monoid, automaton.base.alphabet)
            assert monoid.eq(direct, behavior(composed, word))


def test_compose_respects_the_language_class_gate():
    counting = fixtures.constant_one_product()
    triple = nivat_decompose(counting)
    composed = nivat_compose(triple, counting.monoid)
    assert behavior(composed, wd(("a", 1), ("a", 2))) == 1
    downgraded = NivatTriple(triple.gamma, triple.h, triple.g,
                             triple.language, "recognizable")
    with pytest.raises(UnsoundCompositionError):
        nivat_compose(downgraded, counting.monoid)


def test_compose_keeps_the_requested_alphabet():
    automaton = fixtures.first_letter_rates()
    triple = nivat_decompose(automaton)
    composed = nivat_compose(triple, automaton.monoid, ("a", "b", "c"))
    assert composed.base.alphabet == ("a", "b", "c")
    assert behavior(composed, wd(("c", 1))) is INF


def test_triple_validation_checks_the_language_class():
    ambiguous = fixtures.all_words_ambiguous(("a",))
    with pytest.raises(Exception, match="sequential"):
        NivatTriple(("a",), {"a": "a"}, {"a": (Fraction(0), Fraction(0))},
                    ambiguous, "sequential")


def test_triple_validation_refuses_repeated_gamma_letters():
    # Listed twice, c would be enumerated twice as a preimage of a, and
    # over prod the value of (a,1) would double from 2 to 4.
    g = {"c": (Fraction(0), Fraction(2))}
    once = NivatTriple(("c",), {"c": "a"}, g, rdl.rdl_true(), "sentence")
    assert nivat_eval(once, wd(("a", 1)), monoid_from_id("prod")) == 2
    with pytest.raises(ModelValidationError, match="duplicate gamma letters"):
        NivatTriple(("c", "c"), {"c": "a"}, g, rdl.rdl_true(), "sentence")
