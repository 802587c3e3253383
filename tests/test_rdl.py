"""Distance logic: parser, satisfaction, classification."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from conftest import brute_model_check, dist_holds, outcome, random_rdl_formula, wd
from watl import sampling, wrdl
from watl.errors import ParseError, WatlError
from watl.monoids import monoid_from_id
from watl.rdl import (
    Assignment,
    Dist,
    ExistsFO,
    ExistsSO,
    InSet,
    Leq,
    Letter,
    Not,
    Or,
    classify,
    free_vars,
    is_so_name,
    model_check,
    parse_rdl,
    rdl_and,
    rdl_false,
    rdl_first,
    rdl_forall_fo,
    rdl_last,
    rdl_true,
    rename_free,
    to_text,
    variable_names,
)

RELATIONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
             ">=": operator.ge, ">": operator.gt}


def dist_oracle(word, positions, position, rel, bound):
    """Scan all earlier set positions instead of trusting prefix sums."""
    sums = list(itertools.accumulate(delay for _, delay in word.entries))
    earlier = [z for z in positions if z < position]
    if earlier:
        z = max(earlier)
        gap = sums[position - 1] - sums[z - 1]
    else:
        gap = sums[position - 1]
    return RELATIONS[rel](gap, bound)


# --- parsing ---------------------------------------------------------------


def test_parse_existential_letter_atom():
    assert parse_rdl("ex x. P[a](x)") == ExistsFO("x", Letter("a", "x"))


def test_parse_distance_atom():
    assert parse_rdl("dpast[>=3](X,y)") == Dist(">=", 3, "X", "y")


def test_unbalanced_parenthesis_reports_the_column():
    with pytest.raises(ParseError, match="column 7"):
        parse_rdl("P[a](x")


def test_fractional_distance_bound_is_rejected():
    with pytest.raises(ParseError):
        parse_rdl("dpast[<=1/2](X,x)")


@pytest.mark.parametrize("bound", [True, False, -1, 1.0])
def test_distance_bounds_must_be_naturals(bound):
    # True would print as dpast[<True](X,x), which does not parse back
    with pytest.raises(ValueError) as info:
        Dist("<", bound, "X", "x")
    assert str(info.value) == "distance bounds are naturals"


def test_deep_nesting_is_a_parse_error():
    for text in ("!" * 2000 + "P[a](x)", "(" * 2000 + "P[a](x)" + ")" * 2000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_rdl(text)


def test_deeply_nested_formulas_that_parse_also_evaluate():
    formula = parse_rdl("!" * 900 + "ex x. P[a](x)")
    assert model_check(formula, wd(("a", 1)))


def test_a_universal_set_quantifier_is_the_dual_of_the_existential():
    formula = parse_rdl("all X. ex x. X(x)")
    assert formula == Not(ExistsSO("X", Not(ExistsFO("x", InSet("X", "x")))))
    # the empty set has no member
    assert not model_check(formula, wd(("a", 1), ("b", 2)))
    assert model_check(parse_rdl("all X. ex x. (X(x) | P[a](x))"), wd(("a", 1)))


def test_negative_bounds_are_rejected_at_construction():
    with pytest.raises(ValueError):
        Dist("<=", -1, "X", "x")


@pytest.mark.parametrize("text", [
    "P[a](x)",
    "x <= y",
    "X(x)",
    "dpast[<2](X,x)",
    "!P[b](y)",
    "P[a](x) | X(y)",
    "P[a](x) & dpast[=0](Y,x)",
    "ex x. (P[a](x) | P[b](x))",
    "EX X. ex y. (X(y) & dpast[>=1](X,y))",
    "all z. P[a](z)",
])
def test_printed_formulas_reparse_to_the_same_tree(text):
    formula = parse_rdl(text)
    assert parse_rdl(to_text(formula)) == formula


# --- satisfaction ----------------------------------------------------------


def test_distance_uses_the_latest_earlier_position():
    word = wd(("a", 1), ("b", 2), ("a", 1))  # prefix sums 1, 3, 4
    sigma = Assignment({"x": 3}, {"X": frozenset({1})})
    assert not model_check(Dist("<=", 2, "X", "x"), word, sigma)


def test_distance_without_earlier_positions_is_absolute():
    word = wd(("a", 1), ("b", 2), ("a", 1))
    sigma = Assignment({"x": 2}, {"X": frozenset()})
    assert model_check(Dist(">=", 3, "X", "x"), word, sigma)


def test_letter_and_existential_satisfaction():
    word = wd(("a", 1), ("b", 2), ("a", 1))
    assert model_check(Letter("a", "x"), word, Assignment({"x": 1}, {}))
    assert model_check(ExistsFO("x", Letter("b", "x")), word, Assignment({}, {}))


def test_order_membership_and_negation():
    word = wd(("a", 1), ("b", 2))
    sigma = Assignment({"x": 1, "y": 2}, {"X": frozenset({2})})
    assert model_check(Leq("x", "y"), word, sigma)
    assert not model_check(Leq("y", "x"), word, sigma)
    assert model_check(InSet("X", "y"), word, sigma)
    assert model_check(Not(InSet("X", "x")), word, sigma)
    assert model_check(Or(InSet("X", "x"), Leq("x", "x")), word, sigma)


def test_second_order_quantification_enumerates_subsets():
    # some set containing exactly the a-positions exists in every word
    formula = ExistsSO("X", Not(ExistsFO("y", Not(Or(
        Not(InSet("X", "y")), Letter("a", "y"))))))
    assert model_check(formula, wd(("a", 1), ("b", 1)), Assignment({}, {}))


def test_missing_assignments_are_reported_by_name():
    with pytest.raises(WatlError, match="x"):
        model_check(Letter("a", "x"), wd(("a", 1)), Assignment({}, {}))


def test_out_of_range_positions_are_rejected():
    with pytest.raises(WatlError):
        model_check(Letter("a", "x"), wd(("a", 1)), Assignment({"x": 2}, {}))


def test_distance_matches_the_brute_force_scan():
    rng = random.Random(505)
    for _ in range(500):
        word = sampling.random_word(rng, ("a", "b"), max_len=6)
        n = len(word.entries)
        positions = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        position = rng.randrange(1, n + 1)
        rel = rng.choice(tuple(RELATIONS))
        bound = rng.randrange(0, 5)
        expected = dist_oracle(word, positions, position, rel, bound)
        assert dist_holds(word, positions, position, rel, bound) == expected
        sigma = Assignment({"x": position}, {"X": positions})
        assert model_check(Dist(rel, bound, "X", "x"), word, sigma) == expected


def test_sentences_ignore_the_assignment():
    sentences = [
        parse_rdl("ex x. P[a](x)"),
        parse_rdl("EX X. ex y. (X(y) & dpast[<=2](X,y))"),
        parse_rdl("all y. (P[a](y) | P[b](y))"),
    ]
    rng = random.Random(66)
    for sentence in sentences:
        for _ in range(20):
            word = sampling.random_word(rng, ("a", "b"), max_len=4)
            first = sampling.random_assignment(rng, word, ("q",), ("Q",))
            second = sampling.random_assignment(rng, word, ("q",), ("Q",))
            assert model_check(sentence, word, first) == model_check(sentence, word, second)


def test_universal_sugar_matches_its_expansion():
    rng = random.Random(19)
    body = parse_rdl("P[a](z)")
    sugar = rdl_forall_fo("z", body)
    expansion = Not(ExistsFO("z", Not(body)))
    assert sugar == expansion
    for _ in range(30):
        word = sampling.random_word(rng, ("a", "b"), max_len=4)
        assert model_check(sugar, word, Assignment({}, {})) == \
            all(letter == "a" for letter, _ in word.entries)


def test_boolean_constants():
    word = wd(("a", 1))
    assert model_check(rdl_true(), word, Assignment({}, {}))
    assert not model_check(rdl_false(), word, Assignment({}, {}))
    assert model_check(rdl_and(rdl_true(), rdl_true()), word, Assignment({}, {}))


@pytest.mark.parametrize("var", ["x", "z0"])
def test_first_and_last_test_their_argument(var):
    # the builders bind a name of their own, which must not capture var
    word = wd(("a", 1), ("a", 1))
    for build, holds_at in ((rdl_first, 1), (rdl_last, 2)):
        formula = build(var)
        assert free_vars(formula) == (frozenset([var]), frozenset())
        for position in (1, 2):
            sigma = Assignment({var: position})
            assert model_check(formula, word, sigma) is (position == holds_at)
            assert brute_model_check(formula, word, sigma) is (position == holds_at)


# --- classification --------------------------------------------------------


def test_free_distance_variables_stay_in_the_past_fragment():
    formula = parse_rdl("ex x. dpast[<=2](X,x)")
    report = classify(formula)
    assert report.dist_vars == frozenset({"X"})
    assert report.in_rdl_past


def test_quantifying_a_distance_variable_leaves_the_fragment():
    formula = parse_rdl("EX X. ex x. dpast[<=2](X,x)")
    assert not classify(formula).in_rdl_past


def test_existential_closure_over_distance_variables_is_recognized():
    formula = parse_rdl("EX X. ex x. dpast[<=2](X,x)")
    report = classify(formula)
    assert report.is_sentence
    assert report.exists_rdl_past_sentence


def test_prefix_must_cover_exactly_the_distance_variables():
    unused_prefix = parse_rdl("EX Y. ex x. dpast[<=2](X,x)")
    assert not classify(unused_prefix).exists_rdl_past_sentence
    no_prefix = parse_rdl("ex x. dpast[<=2](X,x)")
    assert not classify(no_prefix).exists_rdl_past_sentence


# --- renaming --------------------------------------------------------------


def test_renaming_stops_at_a_binder_of_the_old_name():
    formula = parse_rdl("P[a](x) | ex x. P[b](x)")
    assert rename_free(formula, {"x": "z"}) == parse_rdl("P[a](z) | ex x. P[b](x)")
    formula = parse_rdl("X(y) | EX X. X(y)")
    assert rename_free(formula, {"X": "W"}) == parse_rdl("W(y) | EX X. X(y)")


def test_renaming_raises_only_on_real_capture():
    # y is bound here, but x does not occur free below the binder
    formula = parse_rdl("P[a](x) | ex y. P[b](y)")
    assert rename_free(formula, {"x": "y"}) == parse_rdl("P[a](y) | ex y. P[b](y)")
    with pytest.raises(WatlError, match="capture"):
        rename_free(parse_rdl("ex y. x <= y"), {"x": "y"})
    with pytest.raises(WatlError, match="capture"):
        rename_free(parse_rdl("EX Y. (Y(x) | dpast[<1](X,x))"), {"X": "Y"})


def test_renaming_and_name_collection_never_touch_letters():
    assert rename_free(Letter("x", "x"), {"x": "y"}) == Letter("x", "y")
    formula = parse_rdl("EX X. ex y. (X(y) & dpast[>=1](Z,x)) | P[q](w) | u <= v")
    assert variable_names(formula) == {"X", "y", "Z", "x", "w", "u", "v"}


def test_renaming_free_guard_variables_keeps_the_verdict():
    rng = random.Random(4242)
    sum0 = monoid_from_id("sum0")
    renamed_count = 0
    for _ in range(25):
        sentence = sampling.random_restricted_sentence(rng, ("a", "b"))
        for guard in wrdl.canonicalize(sentence, sum0).guards:
            fo, so = free_vars(guard)
            word = sampling.random_word(rng, ("a", "b"), max_len=3)
            sigma = sampling.random_assignment(rng, word, sorted(fo), sorted(so))
            for old in sorted(fo | so):
                new = "Fresh" if is_so_name(old) else "fresh"
                assert new not in variable_names(guard)
                renamed = rename_free(guard, {old: new})
                kind = 1 if is_so_name(old) else 0
                assert old not in free_vars(renamed)[kind]
                assert new in free_vars(renamed)[kind]
                moved = Assignment(
                    {new if v == old else v: p for v, p in sigma.fo.items()},
                    {new if v == old else v: s for v, s in sigma.so.items()})
                assert model_check(renamed, word, moved) == model_check(guard, word, sigma)
                binder = ExistsSO if kind else ExistsFO
                with pytest.raises(WatlError, match="capture"):
                    rename_free(binder(new, guard), {old: new})
                renamed_count += 1
    assert renamed_count > 50


def chain_of_single_renamings(formula, renames):
    for old, new in renames.items():
        formula = rename_free(formula, {old: new})
    return formula


def test_a_renaming_map_equals_its_chain_of_single_renamings():
    # Targets are never renamed themselves, so the order of the chain does
    # not matter; a target may be bound in the formula and so capture.
    rng = random.Random(4343)
    captured = renamed = 0
    for _ in range(400):
        formula = random_rdl_formula(rng, depth=4)
        fo, so = free_vars(formula)
        free = sorted(fo | so)
        if not free:
            continue
        olds = rng.sample(free, rng.randint(1, len(free)))
        renames = {}
        for old in olds:
            pool = ("X", "Y", "Fresh") if is_so_name(old) else ("x", "y", "z", "fresh")
            renames[old] = rng.choice([n for n in pool if n not in olds])
        got = outcome(rename_free, formula, renames)
        want = outcome(chain_of_single_renamings, formula, renames)
        if isinstance(want, tuple):
            assert want[0] is WatlError and "capture" in want[1]
            assert isinstance(got, tuple) and got[0] is WatlError and "capture" in got[1]
            captured += 1
        else:
            assert got == want
            renamed += got != formula
    assert captured >= 30 and renamed >= 100


def test_a_renaming_map_renames_simultaneously():
    assert rename_free(parse_rdl("x <= y"), {"x": "y", "y": "x"}) == parse_rdl("y <= x")
    assert rename_free(parse_rdl("X(x) | EX X. X(x)"), {"X": "Y", "x": "z"}) == \
        parse_rdl("Y(z) | EX X. X(z)")
    with pytest.raises(WatlError, match="capture"):
        rename_free(parse_rdl("ex y. x <= y"), {"y": "x", "x": "y"})
