"""Top-level acceptance criteria, one test per criterion.

Each test is self-contained and checks one advertised guarantee of the
package end to end; the summary hook in conftest prints one PASS/FAIL
line per criterion after the run.  All comparisons are exact rational
equality except discounted values, which use DISC_TOL.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from conftest import disc_quadrature, dist_holds, grid_minimum, wd
from watl import fixtures, rdl, sampling, transform, wrdl
from watl.core import TimedWord, classify_automaton, enumerate_runs
from watl.errors import UnsoundCompositionError
from watl.monoids import (
    WeightPairWord,
    check_axioms,
    monoid_from_id,
    sum_over,
    valuate,
)
from watl.optcost import decide_avg_threshold, decide_sum_threshold, inf_cost
from watl.weights import INF, NEG_INF, is_finite
from watl.wta import behavior

DISC_TOL = 1e-9
SUM0 = monoid_from_id("sum0")
AVG0 = monoid_from_id("avg0")


def pairs(*entries):
    return WeightPairWord(tuple(
        ((Fraction(m), Fraction(mp)), Fraction(t)) for (m, mp), t in entries))


def agree(monoid_id, x, y):
    """Pinned comparison: exact rationals, DISC_TOL for discounting."""
    if x is INF or y is INF:
        return x is y
    if monoid_id.startswith("disc"):
        return abs(x - y) <= DISC_TOL
    return x == y


# ---------------------------------------------------------------------------
# 1. Randomized axiom checks accept every shipped monoid and catch a
#    deliberately mis-declared law with a witness.


def test_criterion_1_monoid_axioms():
    shipped = ("sum", "avg", "disc:1/2", "prod", "sum0", "avg0", "disc0:1/2")
    for identifier in shipped:
        report = check_axioms(monoid_from_id(identifier),
                              samples=1000, seed=20260814)
        assert report.failures == [], identifier

    flagged = monoid_from_id("prod")
    flagged.idempotent = True
    report = check_axioms(flagged, samples=1000, seed=20260814)
    assert report.failures
    assert {law for law, _ in report.failures} == {"plus-idempotent"}
    assert all(witness for _, witness in report.failures)


# ---------------------------------------------------------------------------
# 2. The global valuations reproduce hand-computed values and an
#    independent numeric quadrature oracle.


def test_criterion_2_valuation_oracles():
    assert valuate(monoid_from_id("sum"),
                   pairs(((2, 1), Fraction(3, 2)),
                         ((3, 0), Fraction(1, 2)))) == Fraction(11, 2)

    avg = monoid_from_id("avg")
    assert valuate(avg, pairs(((1, 0), 2), ((3, 4), 2))) == 3
    assert valuate(avg, pairs(((5, 1), 0))) is INF
    assert valuate(avg, pairs(((5, 0), 0))) == 5

    disc = monoid_from_id("disc:1/2")
    ramp = valuate(disc, pairs(((1, 0), 1)))
    assert abs(ramp - 0.721347520444482) <= DISC_TOL
    oracle = disc_quadrature([((Fraction(1), Fraction(0)), Fraction(1))],
                             Fraction(1, 2))
    assert abs(ramp - float(oracle)) <= DISC_TOL
    jump = valuate(disc, pairs(((0, 4), 1)))
    assert abs(jump - 2) <= DISC_TOL
    oracle = disc_quadrature([((Fraction(0), Fraction(4)), Fraction(1))],
                             Fraction(1, 2))
    assert abs(jump - float(oracle)) <= DISC_TOL

    assert valuate(monoid_from_id("prod"),
                   pairs(((9, 2), 1), ((7, 3), 0))) == 6


# ---------------------------------------------------------------------------
# 3. Presenting a weighted automaton as (gamma, h, g, language) and folding
#    it back both preserve the behavior, monoid by monoid.


def test_criterion_3_nivat_round_trip():
    rng = random.Random(31)
    for identifier in ("sum", "avg", "disc:1/2", "prod"):
        monoid = monoid_from_id(identifier)
        for _ in range(100):
            automaton = sampling.random_wta(rng, monoid)
            word = sampling.random_word(rng, automaton.base.alphabet, max_len=4)
            direct = behavior(automaton, word)
            triple = transform.nivat_decompose(automaton)
            via_triple = transform.nivat_eval(triple, word, monoid)
            composed = transform.nivat_compose(triple, monoid,
                                               automaton.base.alphabet)
            via_composed = behavior(composed, word)
            assert agree(identifier, direct, via_triple)
            assert agree(identifier, direct, via_composed)


# ---------------------------------------------------------------------------
# 4. The closure operations honor their contracts: relabeling folds over
#    preimages, letterwise valuation automata are unambiguous (sequential
#    when rates are ignored), and weighted intersection gates behavior by
#    membership -- refusing the one unsound configuration.


def preimage_sum(automaton, mapping, word, monoid):
    options = [[g for g, image in mapping.items() if image == letter]
               for letter, _ in word.entries]
    values = []
    for choice in itertools.product(*options):
        preimage = TimedWord(tuple(
            (g, delay) for g, (_, delay) in zip(choice, word.entries)))
        values.append(behavior(automaton, preimage))
    return sum_over(monoid, values)


def test_criterion_4_closure_contracts():
    monoid = monoid_from_id("sum")
    rng = random.Random(41)

    automaton, mapping = fixtures.relabel_pair()
    relabeled = transform.relabel(automaton, mapping)
    image = tuple(sorted(set(mapping.values())))
    for _ in range(40):
        word = sampling.random_word(rng, image, max_len=3)
        assert behavior(relabeled, word) == \
            preimage_sum(automaton, mapping, word, monoid)

    g = {"a": (Fraction(1), Fraction(2)), "b": (Fraction(1), Fraction(0))}
    letterwise = transform.comp_automaton(("a", "b"), g, monoid)
    for _ in range(100):
        word = sampling.random_word(rng, ("a", "b"), max_len=5)
        assert len(enumerate_runs(letterwise.base, word)) == 1
    counting = transform.comp_automaton(
        ("a",), {"a": (Fraction(1), Fraction(2))}, monoid_from_id("prod"))
    assert classify_automaton(counting.base)["sequential"]

    meter = fixtures.duration_meter()
    bounded = fixtures.first_delay_bounded()
    gated = transform.product_intersect(meter, bounded)
    for _ in range(40):
        word = sampling.random_word(rng, ("a",), max_len=4)
        accepted = bool(enumerate_runs(bounded, word))
        expected = behavior(meter, word) if accepted else INF
        assert behavior(gated, word) == expected

    ambiguous = fixtures.all_words_ambiguous(("a",))
    doubled = transform.product_intersect(meter, ambiguous)
    for _ in range(25):
        word = sampling.random_word(rng, ("a",), max_len=4)
        assert len(enumerate_runs(doubled.base, word)) == 2
        assert behavior(doubled, word) == behavior(meter, word)

    with pytest.raises(UnsoundCompositionError):
        transform.product_intersect(fixtures.constant_one_product(), ambiguous)


# ---------------------------------------------------------------------------
# 5. The distance logic matches hand-computed cases, a brute-force distance
#    oracle on 500 random instances, and ignores assignments on sentences.


RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
             ">=": operator.ge, ">": operator.gt}


def dist_oracle(word, positions, position, rel, bound):
    sums = list(itertools.accumulate(delay for _, delay in word.entries))
    earlier = [z for z in positions if z < position]
    if earlier:
        gap = sums[position - 1] - sums[max(earlier) - 1]
    else:
        gap = sums[position - 1]
    return RELATIONS[rel](gap, bound)


def test_criterion_5_logic_semantics():
    word = wd(("a", 1), ("b", 2), ("a", 1))
    near = rdl.Assignment({"x": 3}, {"X": frozenset({1})})
    assert rdl.model_check(rdl.Dist("<=", 2, "X", "x"), word, near) is False
    far = rdl.Assignment({"x": 2}, {"X": frozenset()})
    assert rdl.model_check(rdl.Dist(">=", 3, "X", "x"), word, far) is True
    first = rdl.Assignment({"x": 1}, {})
    assert rdl.model_check(rdl.parse_rdl("P[a](x)"), word, first) is True
    assert rdl.model_check(rdl.parse_rdl("ex x. P[b](x)"), word) is True

    rng = random.Random(505)
    for _ in range(500):
        sample = sampling.random_word(rng, ("a", "b"), max_len=6)
        n = len(sample.entries)
        positions = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        position = rng.randrange(1, n + 1)
        rel = rng.choice(tuple(RELATIONS))
        bound = rng.randrange(0, 5)
        expected = dist_oracle(sample, positions, position, rel, bound)
        assert dist_holds(sample, positions, position, rel, bound) == expected
        sigma = rdl.Assignment({"x": position}, {"X": positions})
        assert rdl.model_check(rdl.Dist(rel, bound, "X", "x"),
                               sample, sigma) == expected

    sentences = [
        rdl.parse_rdl("ex x. P[a](x)"),
        rdl.parse_rdl("EX X. ex y. (X(y) & dpast[<=2](X,y))"),
        rdl.parse_rdl("all y. (P[a](y) | P[b](y))"),
    ]
    for sentence in sentences:
        for _ in range(20):
            sample = sampling.random_word(rng, ("a", "b"), max_len=4)
            one = sampling.random_assignment(rng, sample, ("q",), ("Q",))
            two = sampling.random_assignment(rng, sample, ("q",), ("Q",))
            assert rdl.model_check(sentence, sample, one) == \
                rdl.model_check(sentence, sample, two)


# ---------------------------------------------------------------------------
# 6. Both translations preserve word-level semantics: direct evaluation,
#    the canonical form, the decomposition triple, and the sentence
#    recovered from the triple all agree on random words.


def length_cap(triple, canonical):
    """Keep the subset enumeration of the translated sentence tractable."""
    k = len(triple.gamma) + len(canonical.so_vars)
    if k >= 6:
        return 1
    if k >= 4:
        return 2
    return 3


def test_criterion_6_logic_translations():
    rng = random.Random(20260814)
    cases = [(fixtures.average_cost_sentence(), ("a", "b"))]
    for _ in range(20):
        alphabet = ("a",) if rng.random() < 0.5 else ("a", "b")
        cases.append((sampling.random_restricted_sentence(rng, alphabet),
                      alphabet))
    for sentence, alphabet in cases:
        canonical = wrdl.canonicalize(sentence, SUM0)
        triple = wrdl.sentence_to_nivat(canonical, alphabet, SUM0)
        back = wrdl.nivat_to_sentence(triple, SUM0)
        cap = length_cap(triple, canonical)
        for _ in range(50):
            word = sampling.random_word(rng, alphabet, max_len=cap)
            direct = wrdl.wrdl_eval(sentence, word, SUM0)
            assert wrdl.wrdl_eval(canonical.to_formula(), word, SUM0) == direct
            assert transform.nivat_eval(triple, word, SUM0) == direct
            assert wrdl.wrdl_eval(back, word, SUM0) == direct


# ---------------------------------------------------------------------------
# 7. The nested-universal sentence squares the word length -- a value the
#    restricted fragment cannot express -- and is classified as such.


def test_criterion_7_inexpressibility_witness():
    sentence = fixtures.squared_length_sentence()
    rng = random.Random(71)
    for n in range(1, 11):
        for _ in range(3):
            entries = tuple((rng.choice("ab"), Fraction(rng.randrange(0, 9), 4))
                            for _ in range(n))
            assert wrdl.wrdl_eval(sentence, TimedWord(entries), SUM0) == n * n

    decision = wrdl.wrdl_classify(sentence)
    assert decision.is_sentence
    assert not decision.syntactically_restricted


# ---------------------------------------------------------------------------
# 8. Corner-point optimization reproduces the four pinned infima exactly,
#    and a grid brute force over eighth-step delays never beats it while
#    coming within 1/4 on the bounded fixtures.


def never_beats(sample, infimum):
    if sample is INF or infimum is NEG_INF:
        return True
    if infimum is INF:
        return sample is INF
    return sample >= infimum


def test_criterion_8_optimal_cost():
    grid = [Fraction(i, 8) for i in range(33)]

    attained = inf_cost(fixtures.priced_min_wait())
    assert attained.value == 7 and attained.attained
    assert attained.witness is not None
    assert behavior(fixtures.priced_min_wait(), attained.witness) == 7

    empty = inf_cost(fixtures.priced_unreachable())
    assert empty.value is INF and not empty.attained

    open_edge = inf_cost(fixtures.priced_strict_guard())
    assert open_edge.value == -1 and not open_edge.attained

    diverging = inf_cost(fixtures.priced_negative_cycle())
    assert diverging.value is NEG_INF and not diverging.attained

    for automaton, result in (
            (fixtures.priced_min_wait(), attained),
            (fixtures.priced_unreachable(), empty),
            (fixtures.priced_strict_guard(), open_edge),
            (fixtures.priced_negative_cycle(), diverging)):
        assert never_beats(grid_minimum(automaton, grid, 4), result.value)

    for automaton, infimum in ((fixtures.priced_min_wait(), Fraction(7)),
                               (fixtures.priced_strict_guard(), Fraction(-1))):
        brute = grid_minimum(automaton, grid, 4)
        assert is_finite(brute)
        assert brute - infimum <= Fraction(1, 4)


# ---------------------------------------------------------------------------
# 9. The threshold deciders reproduce the pinned verdicts, answer
#    monotonically in the threshold, and every positive verdict carries a
#    witness word whose independently recomputed value clears the bound.


def test_criterion_9_threshold_deciders():
    sentence = fixtures.min_wait_sentence()

    at_infimum = decide_sum_threshold(sentence, ("a",), Fraction(7))
    assert not at_infimum.holds
    above = decide_sum_threshold(sentence, ("a",), Fraction(15, 2))
    assert above.holds
    value = wrdl.wrdl_eval(sentence, above.witness, SUM0)
    assert value == above.witness_value
    assert value < Fraction(15, 2)
    weak = decide_sum_threshold(sentence, ("a",), Fraction(7), strict=False)
    assert weak.holds
    assert wrdl.wrdl_eval(sentence, weak.witness, SUM0) == 7

    avg_low = decide_avg_threshold(sentence, ("a",), Fraction(3))
    assert not avg_low.holds
    avg_high = decide_avg_threshold(sentence, ("a",), Fraction(31, 10))
    assert avg_high.holds
    avg_value = wrdl.wrdl_eval(sentence, avg_high.witness, AVG0)
    assert avg_value == avg_high.witness_value
    assert avg_value < Fraction(31, 10)
    assert avg_high.witness.duration > 0

    bounded = fixtures.bounded_average_sentence()
    generous = decide_avg_threshold(bounded, ("a",), Fraction(7))
    assert generous.holds
    assert wrdl.wrdl_eval(bounded, generous.witness, AVG0) < 7
    tight = decide_avg_threshold(bounded, ("a",), Fraction(7, 2))
    assert not tight.holds
    tight_weak = decide_avg_threshold(bounded, ("a",), Fraction(7, 2),
                                      strict=False)
    assert tight_weak.holds
    assert wrdl.wrdl_eval(bounded, tight_weak.witness, AVG0) == Fraction(7, 2)

    thetas = [Fraction(13, 2), Fraction(7), Fraction(29, 4), Fraction(15, 2),
              Fraction(8)]
    verdicts = [decide_sum_threshold(sentence, ("a",), theta).holds
                for theta in thetas]
    assert verdicts == sorted(verdicts)

    lo, hi = Fraction(0), Fraction(16)
    for _ in range(8):
        mid = (lo + hi) / 2
        if decide_sum_threshold(sentence, ("a",), mid).holds:
            hi = mid
        else:
            lo = mid
    assert lo <= 7 <= hi
    assert hi - lo == Fraction(16, 2 ** 8)
