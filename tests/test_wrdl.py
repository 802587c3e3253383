"""Weighted distance logic: semantics, fragments, and both translations."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (WIDE_UNIVERSAL, brute_free_vars, brute_to_text, brute_wrdl_eval,
                      brute_wrdl_free_vars, brute_wrdl_to_text, outcome, wd)
from watl import rdl, sampling, wrdl
from watl.errors import DomainError, FragmentError, WatlError
from watl.fixtures import average_cost_sentence, squared_length_sentence
from watl.monoids import monoid_from_id
from watl.optcost import decide_avg_threshold, decide_sum_threshold
from watl.transform import NivatTriple, nivat_eval
from watl.weights import INF
from watl.wrdl import (
    And,
    Bool,
    CanonicalSentence,
    Const,
    ExistsFO,
    ExistsSO,
    Forall,
    Or,
    StepFunction,
    WrdlClassification,
    canonicalize,
    nivat_to_sentence,
    parse_wrdl,
    sentence_to_nivat,
    to_step_function,
    to_text,
    wrdl_classify,
    wrdl_eval,
)

SUM0 = monoid_from_id("sum0")
AVG0 = monoid_from_id("avg0")


def length_cap(triple, canonical):
    """Keep the subset enumeration of the translated sentence tractable."""
    k = len(triple.gamma) + len(canonical.so_vars)
    if k >= 6:
        return 1
    if k >= 4:
        return 2
    return 3


# --- parsing ---------------------------------------------------------------


def test_parse_nested_universals():
    formula = parse_wrdl("all x.(0, all y.(0, 1))", SUM0)
    assert formula == Forall("x", Const(Fraction(0)),
                             Forall("y", Const(Fraction(0)), Const(Fraction(1))))


def test_boolean_payloads_must_stay_in_the_past_fragment():
    with pytest.raises(FragmentError):
        parse_wrdl("B(EX X. dpast[<2](X,x))", SUM0)


def test_deep_nesting_parses():
    # The parser keeps its own stack; only the recursive compiler of
    # wrdl_eval may refuse a formula this deep.
    texts = ("(" * 2000 + "B(P[a](x))" + ")" * 2000,
             "B(" + "!" * 2000 + "P[a](x))",
             "ex x. " * 2000 + "B(P[a](x))")
    for text in texts:
        formula = parse_wrdl(text, SUM0)
        assert to_text(formula) == to_text(parse_wrdl(to_text(formula), SUM0))
        answer = outcome(wrdl_eval, formula, wd(("a", 1)), SUM0, rdl.Assignment(fo={"x": 1}))
        assert answer in (SUM0.one, (WatlError, "formula nested too deeply"))


def test_deeply_nested_formulas_that_parse_also_evaluate():
    word = wd(("a", 1))
    formula = parse_wrdl("B(" + "!" * 900 + "ex x. P[a](x))", SUM0)
    assert wrdl_eval(formula, word, SUM0) == SUM0.one
    formula = parse_wrdl("ex x. " * 300 + "B(P[a](x))", SUM0)
    assert wrdl_eval(formula, word, SUM0) == SUM0.one


def _conjunction_chain(n):
    """ex x. P[a](x) & ... & P[a](x) with n conjuncts, and its printed body."""
    body = "!((!(" * (n - 1) + "P[a](x)" + ") | !(P[a](x))))" * (n - 1)
    return rdl.parse_rdl("ex x. " + " & ".join(["P[a](x)"] * n)), body


def test_formulas_too_deep_to_recurse_are_walked():
    # 400 conjuncts nest deeper than a recursive walk can follow; the
    # printed form is checked against the oracle on 60 conjuncts
    deep, body = _conjunction_chain(400)
    small, small_body = _conjunction_chain(60)
    assert brute_to_text(small) == f"(ex x. {small_body})"
    assert brute_wrdl_to_text(Bool(small)) == f"B((ex x. {small_body}))"
    assert brute_free_vars(small) == brute_wrdl_free_vars(Bool(small)) == (frozenset(),) * 2
    assert brute_free_vars(small.sub) == (frozenset("x"), frozenset())
    for formula, text in ((small, small_body), (deep, body)):
        assert rdl.to_text(formula) == f"(ex x. {text})"
        assert to_text(Bool(formula)) == f"B((ex x. {text}))"
        assert rdl.free_vars(formula) == wrdl.free_vars(Bool(formula)) == (frozenset(),) * 2
        assert rdl.free_vars(formula.sub) == (frozenset("x"), frozenset())
        assert rdl.rename_free(formula, {"x": "y"}) is formula
        renamed = rdl.rename_free(formula.sub, {"x": "y"})
        assert rdl.to_text(renamed) == text.replace("(x)", "(y)")
        relettered = rdl.map_letter_atoms(formula, lambda a, var: rdl.Letter("b", var))
        assert rdl.to_text(relettered) == f"(ex x. {text})".replace("P[a]", "P[b]")


def test_guards_too_deep_to_recurse_are_relabeled():
    # relabeled_guards collects the names in use with rdl.variable_names
    deep, body = _conjunction_chain(400)
    assert rdl.variable_names(deep) == {"x"}
    guard = rdl.Or(deep.sub, rdl.ExistsSO("Z0", rdl.InSet("Z0", "x")))
    canonical = CanonicalSentence((), "x", (guard, rdl.Not(guard)),
                                  (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    first, second = wrdl.relabeled_guards(canonical, ("c", "d"), {"c": "a", "d": "b"})
    # Z0 is in use, so the bound copies become Z1 and Z2 in walk order
    text = f"({body.replace('P[a]', 'P[c]')} | (EX Z1. Z1(x)))"
    assert rdl.to_text(first) == text
    assert rdl.to_text(second) == f"!({text.replace('Z1', 'Z2')})"


_NONE, _X, _XS = frozenset(), frozenset("x"), frozenset("X")


def _check_classify(deep, dist, text):
    answer = rdl.RdlClassification
    assert rdl.classify(deep) == answer(_NONE, _NONE, _NONE, True, True, True)
    assert rdl.classify(deep.sub) == answer(_NONE, _X, _NONE, False, True, False)
    assert rdl.classify(dist) == answer(_XS, _NONE, _NONE, True, False, True)
    assert rdl.classify(dist.sub) == answer(_XS, _NONE, _XS, False, True, False)


def _check_dist_vars(deep, dist, text):
    assert (rdl.dist_vars(deep), rdl.dist_vars(dist)) == (_NONE, _XS)


def _check_so_quantified_vars(deep, dist, text):
    assert (rdl.so_quantified_vars(deep), rdl.so_quantified_vars(dist)) == (_NONE, _XS)


def _check_subformulas(deep, dist, text):
    nodes = list(rdl.iter_subformulas(deep))
    assert nodes[0] is deep and nodes[1] is deep.sub
    kinds = Counter(type(node) for node in nodes)
    assert kinds == {rdl.ExistsFO: 1, rdl.Letter: 400, rdl.Or: 399, rdl.Not: 3 * 399}


def _check_validate_formula(deep, dist, text):
    assert wrdl.validate_formula(Bool(deep), SUM0) is None
    with pytest.raises(FragmentError, match="leaves the past fragment"):
        wrdl.validate_formula(Bool(dist), SUM0)


def _check_wrdl_classify(deep, dist, text):
    assert wrdl_classify(Bool(deep)) == WrdlClassification(True, True, True)


def _check_parse_wrdl(deep, dist, text):
    assert to_text(parse_wrdl("B(" + text + ")", SUM0)) == to_text(Bool(deep))


def _check_canonicalize(deep, dist, text):
    canonical = canonicalize(Bool(deep), SUM0)
    assert canonical.guards[0] is deep and canonical.guards[1] == rdl.Not(deep)
    assert (canonical.so_vars, canonical.var) == ((), "y0")
    assert canonical.left == (SUM0.one, SUM0.one) and canonical.right == (SUM0.one, SUM0.zero)


def _check_sentence_to_nivat(deep, dist, text):
    triple = sentence_to_nivat(canonicalize(Bool(deep), SUM0), ("a",), SUM0)
    assert (triple.gamma, triple.h, triple.language_class) == (("a|0|0",), {"a|0|0": "a"},
                                                              "sentence")
    language = rdl.to_text(triple.language)
    assert (language.count("P[a|0|0](x)"), language.count("P[a]")) == (800, 0)
    assert rdl.classify(triple.language).exists_rdl_past_sentence


def _check_nivat_to_sentence(deep, dist, text):
    triple = sentence_to_nivat(canonicalize(Bool(deep), SUM0), ("a",), SUM0)
    back = nivat_to_sentence(triple, SUM0)
    assert wrdl_classify(back) == WrdlClassification(True, False, True)
    # each letter test of the guard and its negation reads the guessed set
    assert to_text(back).count("(P[a](x)) | !(X0(x))") == 800


# Each & of the chain is !(!a | !b), so 400 conjuncts nest deeper than
# the interpreter's recursion limit.  Every entry point that walks a
# formula answers; the ones that compile it recursively refuse it.
DEEP_ANSWERS = {
    "classify": _check_classify,
    "dist_vars": _check_dist_vars,
    "so_quantified_vars": _check_so_quantified_vars,
    "iter_subformulas": _check_subformulas,
    "validate_formula": _check_validate_formula,
    "wrdl_classify": _check_wrdl_classify,
    "parse_wrdl": _check_parse_wrdl,
    "canonicalize": _check_canonicalize,
    "sentence_to_nivat": _check_sentence_to_nivat,
    "nivat_to_sentence": _check_nivat_to_sentence,
}

DEEP_REFUSALS = {
    "wrdl_eval": lambda deep: wrdl_eval(Bool(deep), wd(("a", 1)), SUM0),
    "model_check": lambda deep: rdl.model_check(deep, wd(("a", 1))),
    "decide_sum_threshold": lambda deep: decide_sum_threshold(Bool(deep), ("a",), 1),
    "decide_avg_threshold": lambda deep: decide_avg_threshold(Bool(deep), ("a",), 1),
}


@pytest.mark.parametrize("entry", DEEP_ANSWERS)
def test_formulas_too_deep_to_recurse_are_answered(entry):
    text = "ex x. " + " & ".join(["P[a](x)"] * 400)
    # the chain with a distance test on X for its last conjunct, behind EX X.
    dist = rdl.parse_rdl("EX X. " + text.rpartition("&")[0] + "& dpast[<1](X,x)")
    DEEP_ANSWERS[entry](rdl.parse_rdl(text), dist, text)


@pytest.mark.parametrize("entry", DEEP_REFUSALS)
def test_formulas_too_deep_to_compile_are_refused_cleanly(entry):
    deep, _ = _conjunction_chain(400)
    with pytest.raises(WatlError) as info:
        DEEP_REFUSALS[entry](deep)
    assert type(info.value) is WatlError
    assert str(info.value) == "formula nested too deeply"


def test_deeply_nested_payloads_translate():
    formula = parse_wrdl("B(" + "!" * 900 + "ex x. P[a](x))", SUM0)
    triple = sentence_to_nivat(canonicalize(formula, SUM0), ("a",), SUM0)
    assert nivat_eval(triple, wd(("a", 1)), SUM0) == SUM0.one


def test_wide_canonical_sentences_translate():
    canonical = canonicalize(parse_wrdl(WIDE_UNIVERSAL, SUM0), SUM0)
    assert len(canonical.guards) == 512
    triple = sentence_to_nivat(canonical, ("a",), SUM0)
    assert len(triple.gamma) == 9
    assert triple.language_class == "sentence"


def test_letters_holding_a_closing_bracket_are_refused():
    # P[a]b](x) would not parse back, so no language sentence is written
    canonical = canonicalize(parse_wrdl("B(ex x. P[a](x))", SUM0), SUM0)
    with pytest.raises(WatlError) as info:
        sentence_to_nivat(canonical, ("a", "a]b"), SUM0)
    assert type(info.value) is WatlError
    assert str(info.value) == "letter 'a]b' holds ']', which a letter test cannot write"


def test_h_letters_holding_a_closing_bracket_are_refused():
    # the payload would test P[a]](p0), which does not parse back
    canonical = canonicalize(parse_wrdl("B(ex x. P[a](x))", SUM0), SUM0)
    triple = sentence_to_nivat(canonical, ("a",), SUM0)
    odd = NivatTriple(triple.gamma, {c: "a]" for c in triple.gamma}, triple.g,
                      triple.language, "sentence")
    with pytest.raises(WatlError) as info:
        nivat_to_sentence(odd, SUM0)
    assert type(info.value) is WatlError
    assert str(info.value) == "letter 'a]' holds ']', which a letter test cannot write"


def test_parse_disjunction_with_a_constant():
    formula = parse_wrdl("1/2 | B(P[a](x))", SUM0)
    assert isinstance(formula, Or)
    assert formula.left == Const(Fraction(1, 2))
    assert isinstance(formula.right, Bool)


def test_printed_formulas_reparse_equal():
    texts = [
        "all x.((B(P[a](x)) & 1) | (B(P[b](x)) & 2), 0)",
        "EX Y. ex x. (B(Y(x)) & 3/2)",
        "B(ex x. P[a](x)) | 5",
    ]
    for text in texts:
        formula = parse_wrdl(text, SUM0)
        assert parse_wrdl(to_text(formula), SUM0) == formula


# --- evaluation ------------------------------------------------------------


def test_nested_universals_square_the_length():
    sentence = squared_length_sentence()
    assert wrdl_eval(sentence, wd(("a", 1), ("a", 2), ("a", 1)), SUM0) == 9


def test_squared_length_holds_up_to_length_five():
    sentence = squared_length_sentence()
    rng = random.Random(3)
    for n in range(1, 6):
        word = sampling.random_word(rng, ("a", "b"), max_len=n, min_len=n)
        assert wrdl_eval(sentence, word, SUM0) == n * n


def test_average_cost_sentence_measures_the_average():
    sentence = average_cost_sentence()
    # (1*1 + 0 + 2*1 + 1) / 2 = 2
    assert wrdl_eval(sentence, wd(("a", 1), ("b", 1)), AVG0) == 2


def test_boolean_subformulas_gate_between_unit_and_zero():
    has_a = Bool(rdl.parse_rdl("ex x. P[a](x)"))
    assert wrdl_eval(has_a, wd(("a", 1)), SUM0) == SUM0.one
    assert wrdl_eval(has_a, wd(("b", 1)), SUM0) is INF


def test_constants_evaluate_to_themselves():
    assert wrdl_eval(Const(Fraction(5)), wd(("b", 2)), SUM0) == 5


def test_existential_folds_with_plus():
    # cheapest position wins under the min-plus monoid
    formula = ExistsFO("x", Or(
        And(Bool(rdl.parse_rdl("P[a](x)")), Const(Fraction(5))),
        And(Bool(rdl.parse_rdl("P[b](x)")), Const(Fraction(3)))))
    assert wrdl_eval(formula, wd(("a", 1), ("b", 1)), SUM0) == 3
    assert wrdl_eval(formula, wd(("a", 1), ("a", 1)), SUM0) == 5


def test_conjunction_multiplies_with_diamond():
    formula = And(Const(Fraction(2)), Const(Fraction(3)))
    assert wrdl_eval(formula, wd(("a", 1)), SUM0) == 5


def test_set_quantification_sums_over_subsets():
    # charge 1 per selected position, zero selections are allowed
    member = Bool(rdl.parse_rdl("Y(x)"))
    body = Forall("x", Or(And(member, Const(Fraction(1))),
                          And(Bool(rdl.parse_rdl("!Y(x)")), Const(Fraction(0)))),
                  Const(Fraction(0)))
    formula = ExistsSO("Y", body)
    assert wrdl_eval(formula, wd(("a", 2), ("a", 3)), SUM0) == 0


def test_sentences_ignore_the_assignment():
    sentence = average_cost_sentence()
    rng = random.Random(27)
    for _ in range(15):
        word = sampling.random_word(rng, ("a", "b"), max_len=3)
        sigma = sampling.random_assignment(rng, word, ("q",), ("Q",))
        assert wrdl_eval(sentence, word, SUM0, sigma) == wrdl_eval(sentence, word, SUM0)


def test_evaluation_requires_a_product_monoid():
    with pytest.raises(DomainError, match="product valuation"):
        wrdl_eval(Const(Fraction(1)), wd(("a", 1)), monoid_from_id("sum"))


def test_unbound_variables_are_reported():
    formula = Bool(rdl.parse_rdl("P[a](x)"))
    with pytest.raises(WatlError, match="x"):
        wrdl_eval(formula, wd(("a", 1)), SUM0)


# --- classification --------------------------------------------------------


def test_average_cost_sentence_is_syntactically_restricted():
    report = wrdl_classify(average_cost_sentence())
    assert report.is_sentence
    assert report.syntactically_restricted


def test_squared_length_sentence_is_not_restricted():
    report = wrdl_classify(squared_length_sentence())
    assert report.is_sentence
    assert not report.syntactically_restricted


def test_bare_constants_are_not_restricted():
    report = wrdl_classify(Const(Fraction(5)))
    assert not report.syntactically_restricted
    assert report.almost_boolean


# --- step functions ---------------------------------------------------------


def test_constant_step_function_has_one_branch():
    step = to_step_function(Const(Fraction(4)), SUM0)
    assert [value for _, value in step.branches] == [Fraction(4)]


def test_boolean_step_function_splits_on_the_guard():
    step = to_step_function(Bool(rdl.parse_rdl("P[a](x)")), SUM0)
    assert sorted(value for _, value in step.branches) == [SUM0.one, SUM0.zero]


def test_disjunction_refines_both_families():
    formula = Or(Bool(rdl.parse_rdl("P[a](x)")), Const(Fraction(2)))
    step = to_step_function(formula, SUM0)
    assert sorted(value for _, value in step.branches) == [SUM0.one, Fraction(2)]


def test_step_functions_are_exclusive_exhaustive_and_exact():
    rng = random.Random(40)
    formulas = [
        Or(Bool(rdl.parse_rdl("P[a](x)")), Const(Fraction(2))),
        And(Or(Const(Fraction(1)), Bool(rdl.parse_rdl("P[b](x)"))),
            Bool(rdl.parse_rdl("dpast[<=2](Y,x)"))),
    ]
    for formula in formulas:
        step = to_step_function(formula, SUM0)
        for _ in range(25):
            word = sampling.random_word(rng, ("a", "b"), max_len=4)
            sigma = sampling.random_assignment(rng, word, ("x",), ("Y",))
            holding = [value for guard, value in step.branches
                       if rdl.model_check(guard, word, sigma)]
            assert len(holding) == 1
            assert holding[0] == wrdl_eval(formula, word, SUM0, sigma)


def test_step_functions_reject_quantified_formulas():
    with pytest.raises(FragmentError):
        to_step_function(ExistsFO("x", Const(Fraction(1))), SUM0)


def test_step_functions_evaluate_to_their_one_matching_branch():
    formula = And(Or(Const(Fraction(1)), Bool(rdl.parse_rdl("P[b](x)"))),
                  Bool(rdl.parse_rdl("P[a](y)")))
    step = to_step_function(formula, SUM0)
    for word in (wd(("a", 1), ("b", 2)), wd(("b", 1), ("a", 2)), wd(("b", 1), ("b", 0))):
        for x, y in itertools.product((1, 2), repeat=2):
            sigma = rdl.Assignment({"x": x, "y": y})
            assert step.evaluate(word, sigma) == wrdl_eval(formula, word, SUM0, sigma)
    # a family that is not exclusive, or not exhaustive, names the count
    overlapping = StepFunction(((rdl.rdl_true(), Fraction(1)),
                                (rdl.parse_rdl("ex x. P[a](x)"), Fraction(2))))
    assert overlapping.evaluate(wd(("b", 1))) == Fraction(1)
    with pytest.raises(WatlError, match="guard family matched 2 branches, expected 1"):
        overlapping.evaluate(wd(("a", 1)))
    with pytest.raises(WatlError, match="guard family matched 0 branches, expected 1"):
        StepFunction(((rdl.rdl_false(), Fraction(1)),)).evaluate(wd(("a", 1)))


# --- canonical form ---------------------------------------------------------


def test_canonical_form_preserves_the_average_cost_semantics():
    sentence = average_cost_sentence()
    canonical = canonicalize(sentence, SUM0)
    formula = canonical.to_formula()
    assert wrdl_classify(formula).syntactically_restricted
    rng = random.Random(50)
    for _ in range(25):
        word = sampling.random_word(rng, ("a", "b"), max_len=4)
        assert wrdl_eval(formula, word, SUM0) == wrdl_eval(sentence, word, SUM0)
        assert canonical.check_family(word)


def test_canonical_boolean_uses_the_unit_and_zero_pair():
    sentence = Bool(rdl.parse_rdl("ex x. P[a](x)"))
    canonical = canonicalize(sentence, SUM0)
    branches = sorted(zip(canonical.left, canonical.right))
    assert branches == [(SUM0.one, SUM0.one), (SUM0.one, SUM0.zero)]
    assert wrdl_eval(canonical.to_formula(), wd(("a", 2)), SUM0) == SUM0.one
    assert wrdl_eval(canonical.to_formula(), wd(("b", 2)), SUM0) is INF


def test_canonicalization_is_semantically_idempotent():
    # signed refinement squares the guard family, so keep it small
    sentence = Bool(rdl.parse_rdl("ex x. P[a](x)"))
    once = canonicalize(sentence, SUM0)
    twice = canonicalize(once.to_formula(), SUM0)
    rng = random.Random(58)
    for _ in range(15):
        word = sampling.random_word(rng, ("a", "b"), max_len=3)
        assert wrdl_eval(once.to_formula(), word, SUM0) == \
            wrdl_eval(twice.to_formula(), word, SUM0)


def test_canonicalize_rejects_unrestricted_input():
    with pytest.raises(FragmentError):
        canonicalize(squared_length_sentence(), SUM0)


# Every word of one or two letters over a and b with delays 1 and 1/2, and
# every three-letter one whose delays are all equal.
_SHORT_WORDS = tuple(wd(*zip(letters, delays))
                     for n in (1, 2, 3)
                     for letters in itertools.product("ab", repeat=n)
                     for delays in itertools.product((1, Fraction(1, 2)), repeat=n)
                     if n < 3 or len(set(delays)) == 1)


@pytest.mark.parametrize("text, so_vars, var, values", [
    # The test reads x free, so the universal's x is renamed away from it.
    ("ex x. (B(P[a](x)) & all x.(1, 1))", ("S0",), "y0", (2, 5, 5)),
    # The inner set quantifier's X is renamed away from the outer X.
    ("EX X. EX X. all x.(B(X(x)), 1)", ("X", "S0"), "x", (1, 2, 3)),
])
def test_canonical_forms_rename_bound_names_that_would_clash(text, so_vars, var, values):
    sentence = parse_wrdl(text, SUM0)
    canonical = canonicalize(sentence, SUM0)
    assert (canonical.so_vars, canonical.var) == (so_vars, var)
    formula = canonical.to_formula()
    words = (wd(("a", 1)), wd(("b", 1), ("a", 2)), wd(("a", 1), ("b", 1), ("b", 0)))
    assert tuple(wrdl_eval(sentence, word, SUM0) for word in words) == values
    for word in _SHORT_WORDS:
        want = brute_wrdl_eval(sentence, word, SUM0)
        assert wrdl_eval(sentence, word, SUM0) == want == wrdl_eval(formula, word, SUM0)


def test_a_family_with_two_guards_holding_at_a_position_fails_the_check():
    family = CanonicalSentence((), "y", (rdl.parse_rdl("P[a](y)"), rdl.rdl_true()),
                               (SUM0.one, SUM0.one), (SUM0.one, SUM0.zero))
    assert family.check_family(wd(("b", 1), ("b", 2)))
    assert not family.check_family(wd(("b", 1), ("a", 2)))


# --- sentence to triple -----------------------------------------------------


def test_triple_alphabet_is_the_weight_cartesian_product():
    canonical = canonicalize(average_cost_sentence(), SUM0)
    triple = sentence_to_nivat(canonical, ("a", "b"), SUM0)
    finite_left = sorted(set(v for v in canonical.left if v is not INF))
    finite_right = sorted(set(v for v in canonical.right if v is not INF))
    assert finite_left == [Fraction(1), Fraction(2)]
    assert finite_right == [Fraction(0), Fraction(1)]
    assert len(triple.gamma) == 2 * len(finite_left) * len(finite_right)
    assert triple.language_class == "sentence"
    assert rdl.classify(triple.language).exists_rdl_past_sentence


def test_single_branch_triples_realize_the_closed_form():
    sentence = Forall("x", Const(Fraction(2)), Const(Fraction(3)))
    canonical = canonicalize(sentence, SUM0)
    triple = sentence_to_nivat(canonical, ("a",), SUM0)
    assert len(triple.gamma) == 1
    rng = random.Random(61)
    for _ in range(20):
        word = sampling.random_word(rng, ("a",), max_len=4)
        expected = 2 * word.duration + 3 * len(word.entries)
        assert nivat_eval(triple, word, SUM0) == expected


def test_triple_evaluation_matches_the_sentence():
    canonical = canonicalize(average_cost_sentence(), SUM0)
    triple = sentence_to_nivat(canonical, ("a", "b"), SUM0)
    rng = random.Random(62)
    for _ in range(25):
        word = sampling.random_word(rng, ("a", "b"), max_len=1)
        assert nivat_eval(triple, word, SUM0) == \
            wrdl_eval(average_cost_sentence(), word, SUM0)


# --- triple to sentence -----------------------------------------------------


def all_words_sentence():
    return rdl.parse_rdl("!(ex y. !(y <= y))")


def test_translated_triples_are_syntactically_restricted():
    g = {"a": (Fraction(1), Fraction(0)), "b": (Fraction(2), Fraction(0))}
    triple = NivatTriple(("a", "b"), {"a": "a", "b": "b"}, g,
                         all_words_sentence(), "sentence")
    sentence = nivat_to_sentence(triple, SUM0)
    assert wrdl_classify(sentence).syntactically_restricted


def test_identity_triples_evaluate_the_letter_valuation():
    g = {"a": (Fraction(1), Fraction(2)), "b": (Fraction(3), Fraction(0))}
    triple = NivatTriple(("a", "b"), {"a": "a", "b": "b"}, g,
                         all_words_sentence(), "sentence")
    sentence = nivat_to_sentence(triple, SUM0)
    rng = random.Random(70)
    for _ in range(20):
        word = sampling.random_word(rng, ("a", "b"), max_len=2)
        expected = sum(g[letter][0] * delay + g[letter][1]
                       for letter, delay in word.entries)
        assert wrdl_eval(sentence, word, SUM0) == expected
        assert nivat_eval(triple, word, SUM0) == expected


def test_round_trip_through_the_triple_preserves_semantics():
    sentence = average_cost_sentence()
    canonical = canonicalize(sentence, SUM0)
    triple = sentence_to_nivat(canonical, ("a", "b"), SUM0)
    back = nivat_to_sentence(triple, SUM0)
    assert wrdl_classify(back).syntactically_restricted
    rng = random.Random(71)
    for _ in range(25):
        word = sampling.random_word(rng, ("a", "b"), max_len=1)
        assert wrdl_eval(back, word, SUM0) == wrdl_eval(sentence, word, SUM0)


def test_translations_agree_on_sampled_restricted_sentences():
    rng = random.Random(20260814)
    for _ in range(10):
        alphabet = ("a",) if rng.random() < 0.5 else ("a", "b")
        sentence = sampling.random_restricted_sentence(rng, alphabet)
        canonical = canonicalize(sentence, SUM0)
        triple = sentence_to_nivat(canonical, alphabet, SUM0)
        back = nivat_to_sentence(triple, SUM0)
        cap = length_cap(triple, canonical)
        for _ in range(20):
            word = sampling.random_word(rng, alphabet, max_len=cap)
            direct = wrdl_eval(sentence, word, SUM0)
            assert wrdl_eval(canonical.to_formula(), word, SUM0) == direct
            assert nivat_eval(triple, word, SUM0) == direct
            assert wrdl_eval(back, word, SUM0) == direct
