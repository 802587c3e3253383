"""Concrete syntax of both logics: the exact messages of malformed input,
parse(to_text(f)) == f on random formulas, and the shared walk behind
printing, free variables, variable names and the fragment facts against
the structural-recursion oracles."""

import random
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

import pytest

from conftest import (brute_classify, brute_dist_vars, brute_free_vars,
                      brute_so_quantified_vars, brute_to_text, brute_variable_names,
                      brute_wrdl_free_vars, brute_wrdl_to_text, outcome, random_rdl_formula,
                      random_weighted_formula)
from watl import rdl, sampling, wrdl
from watl.errors import ParseError
from watl.monoids import monoid_from_id
from watl.weights import INF, NEG_INF

TOO_LONG = f"number of more than {sys.get_int_max_str_digits()} digits"

MALFORMED_RDL = [
    ("P[a](x", "expected ')', found None (column 7)"),
    ("P[a(x)", "unterminated letter predicate (column 1)"),
    ("x <= X", "<= compares first-order variables (column 1)"),
    ("ex X. P[a](x)", "'ex' binds first-order variables, got 'X' (column 1)"),
    ("EX x. X(x)", "'EX' binds second-order variables, got 'x' (column 1)"),
    ("dpast[<=1/2](X,x)", "unexpected character '/' (column 10)"),
    ("dpast[x](X,x)", "expected a relation in dpast[...] (column 7)"),
    ("dpast[<1](x,X)", "dpast takes (set variable, position variable) (column 1)"),
    ("P[a](X)", "letter predicates take a first-order variable (column 1)"),
    ("P[a](x) P[b](y)", "trailing input starting at 'b' (column 9)"),
    ("x ! y", "expected '<=', found '!' (column 3)"),
    ("x # y", "unexpected character '#' (column 3)"),
    ("", "unexpected token None (column 1)"),
    ("ex x P[a](x)", "expected '.', found 'a' (column 6)"),
    ("all 3. P[a](x)", "expected 'NAME', found 3 (column 5)"),
    ("P[a](x) |", "unexpected token None (column 10)"),
    ("X <= x", "expected '(', found '<=' (column 3)"),
    (")", "unexpected token ')' (column 1)"),
    # naturals are ASCII digits, no longer than int() reads from text
    ("dpast[<\u00b2](X,x)", "unexpected character '\u00b2' (column 8)"),
    pytest.param("dpast[<" + "9" * 5000 + "](X,x)", f"{TOO_LONG} (column 8)", id="5000 digits"),
]

MALFORMED_WRDL = [
    ("B(P[a](x)", "unbalanced parentheses (column 2)"),
    ("1 |", "unexpected token None (column 4)"),
    ("ex X. 1", "'ex' binds a first-order variable (column 1)"),
    ("EX x. 1", "'EX' binds a second-order variable (column 1)"),
    ("all X.(1, 1)", "'all' binds a first-order variable (column 1)"),
    ("all x. 1", "expected '(', found 1 (column 8)"),
    ("all x.(1 1)", "expected ',', found 1 (column 10)"),
    ("all x.(1, 2", "expected ')', found None (column 12)"),
    ("-x", "expected a number after '-' (column 2)"),
    ("- 1/x", "expected 'NAT', found 'x' (column 5)"),
    ("1/", "expected 'NAT', found None (column 3)"),
    ("foo", "unexpected token 'foo' (column 1)"),
    ("1 # 2", "unexpected character '#' (column 3)"),
    ("(1", "expected ')', found None (column 3)"),
    ("1 2", "trailing input starting at 2 (column 3)"),
    ("B P[a](x)", "unexpected character '[' (column 4)"),
    # columns inside a B(...) payload count from the start of the input
    ("B(P[a](x) | X)", "expected '(', found None (column 14)"),
    ("1 | B ( P[a](x) P[b](y))", "trailing input starting at 'b' (column 17)"),
    # a payload out of place is named by the B that opens it
    ("1 B(P[a](x))", "trailing input starting at 'B' (column 3)"),
    # the leftmost lexical error in the whole input, payloads included,
    # comes before any syntax error
    ("B(x # y) # 1", "unexpected character '#' (column 5)"),
    ("1 1 | B(#)", "unexpected character '#' (column 9)"),
    ("\u00b2", "unexpected character '\u00b2' (column 1)"),
    pytest.param("1/" + "9" * 5000, f"{TOO_LONG} (column 3)", id="5000 digits"),
]

# Letters holding the characters that delimit payloads and connectives.
ODD_LETTERS = {"a": "(", "b": ") | & "}


def odd_letters(formula):
    """The formula with every letter test relabelled by ODD_LETTERS."""
    return rdl.map_letter_atoms(formula, lambda a, x: rdl.Letter(ODD_LETTERS[a], x))


def odd_payloads(formula):
    """The weighted formula with the letters of every payload relabelled."""
    if isinstance(formula, wrdl.Bool):
        return wrdl.Bool(odd_letters(formula.payload))
    return replace(formula, **{f.name: odd_payloads(getattr(formula, f.name))
                               for f in fields(formula)
                               if is_dataclass(getattr(formula, f.name))})


@pytest.mark.parametrize("text, message", MALFORMED_RDL)
def test_malformed_rdl_is_refused_with_its_message(text, message):
    with pytest.raises(ParseError) as info:
        rdl.parse_rdl(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", MALFORMED_WRDL)
def test_malformed_wrdl_is_refused_with_its_message(text, message):
    with pytest.raises(ParseError) as info:
        wrdl.parse_wrdl(text)
    assert str(info.value) == message


def test_rdl_text_round_trips_on_random_formulas():
    rng = random.Random(7071)
    kinds = set()
    for _ in range(200):
        formula = random_rdl_formula(rng, depth=4)
        assert rdl.parse_rdl(rdl.to_text(formula)) == formula
        odd = odd_letters(formula)
        assert rdl.parse_rdl(rdl.to_text(odd)) == odd
        kinds |= {type(node) for node in rdl.iter_subformulas(formula)}
    assert len(kinds) == 8


@pytest.mark.parametrize("conjuncts", [72, 400, 4000])
def test_conjunction_chains_read_back_as_text(conjuncts):
    # Compared as text: == on the formulas recurses through them and
    # exceeds the recursion limit from about 150 conjuncts on.
    text = rdl.to_text(rdl.parse_rdl("ex x. " + " & ".join(["P[a](x)"] * conjuncts)))
    assert rdl.to_text(rdl.parse_rdl(text)) == text
    assert wrdl.to_text(wrdl.parse_wrdl(f"B({text})")) == f"B({text})"


def test_wrdl_text_round_trips_on_random_formulas():
    rng = random.Random(7072)
    kinds = set()
    for _ in range(200):
        formula = random_weighted_formula(rng, depth=3)
        assert wrdl.parse_wrdl(wrdl.to_text(formula)) == formula
        odd = odd_payloads(formula)
        assert wrdl.parse_wrdl(wrdl.to_text(odd)) == odd
        kinds |= {type(node) for node in wrdl.iter_nodes(formula)}
    assert len(kinds) == 7


@pytest.mark.parametrize("value", [Fraction(-3, 2), Fraction(7, 4), Fraction(0), INF, NEG_INF])
def test_constants_round_trip(value):
    formula = wrdl.And(wrdl.Const(value), wrdl.Bool(rdl.Letter("a", "x")))
    assert wrdl.parse_wrdl(wrdl.to_text(formula)) == formula


def _plant(formula, junk, rng):
    """The formula with one random leaf, possibly inside a payload,
    replaced by junk."""
    inner = [f.name for f in fields(formula) if is_dataclass(getattr(formula, f.name))]
    if not inner:
        return junk
    field = rng.choice(inner)
    return replace(formula, **{field: _plant(getattr(formula, field), junk, rng)})


_BINDERS = (rdl.ExistsFO, rdl.ExistsSO, wrdl.ExistsFO, wrdl.ExistsSO, wrdl.Forall)


def _shadows(node, bound=frozenset()):
    """Whether some binder rebinds a name bound around it."""
    if isinstance(node, _BINDERS):
        name = getattr(node, "var", None) or node.setvar
        if name in bound:
            return True
        bound = bound | {name}
    return any(_shadows(getattr(node, f.name), bound) for f in fields(node)
               if is_dataclass(getattr(node, f.name)))


@pytest.mark.parametrize("logic", ["rdl", "wrdl"])
def test_the_walk_matches_the_recursive_oracles(logic):
    if logic == "rdl":
        draw = lambda rng: random_rdl_formula(rng, depth=5)
        pairs = ((rdl.free_vars, brute_free_vars), (rdl.to_text, brute_to_text),
                 (rdl.dist_vars, brute_dist_vars),
                 (rdl.so_quantified_vars, brute_so_quantified_vars),
                 (rdl.variable_names, brute_variable_names), (rdl.classify, brute_classify))
        junks = ("junk", 7, wrdl.Const(Fraction(1)))
    else:
        draw = lambda rng: random_weighted_formula(rng, depth=4)
        pairs = ((wrdl.free_vars, brute_wrdl_free_vars), (wrdl.to_text, brute_wrdl_to_text))
        junks = ("junk", 7, rdl.Letter("a", "x"), wrdl.Const(Fraction(1)))
    rng = random.Random(9191)
    shadowed, refusals = 0, []
    for _ in range(400):
        formula = draw(rng)
        for walk, oracle in pairs:
            assert walk(formula) == oracle(formula)
        if logic == "rdl":
            assert rdl.rename_free(formula, {"q": "r"}) is formula
        shadowed += _shadows(formula)
        broken = _plant(formula, rng.choice(junks), rng)
        for walk, oracle in pairs:
            got = outcome(walk, broken)
            assert got == outcome(oracle, broken)
            if got[0] is TypeError:
                refusals.append(got[1].partition(":")[0])
    assert shadowed >= 50
    assert len(refusals) >= 600
    # junk both in payloads and in weighted positions
    labels = {"not a formula"} | ({"not a weighted formula"} if logic == "wrdl" else set())
    assert set(refusals) == labels


SUM0 = monoid_from_id("sum0")

# EX-prefixed sentences, which random formulas rarely are, each with
# whether it is an existentially prefixed past sentence.
PREFIXED = [
    ("EX X. ex x. dpast[<1](X,x)", True),
    ("EX X. EX Y. ex x. dpast[<1](X,x) & dpast[<2](Y,x)", True),
    # a repeated prefix name
    ("EX X. EX X. ex x. dpast[<1](X,x)", False),
    # a prefix name rebound in the body
    ("EX X. ex x. dpast[<1](X,x) & (EX X. X(x))", False),
    # a prefix name with no distance test
    ("EX X. EX Y. ex x. dpast[<1](X,x)", False),
    # a distance variable bound inside the body
    ("EX X. ex x. (EX Y. dpast[<1](Y,x)) & dpast[<1](X,x)", False),
]


@pytest.mark.parametrize("text, prefixed", PREFIXED)
def test_classify_matches_its_oracle_on_prefixed_sentences(text, prefixed):
    formula = rdl.parse_rdl(text)
    assert rdl.classify(formula) == brute_classify(formula)
    assert rdl.classify(formula).exists_rdl_past_sentence is prefixed
    assert rdl.variable_names(formula) == brute_variable_names(formula)


def test_classify_matches_its_oracle_on_the_pool_translations():
    # the language sentences and back-translation payloads of the first
    # 40 sentences of the Random(5) pool
    rng = random.Random(5)
    formulas = []
    for _ in range(40):
        alphabet = ("a",) if rng.random() < 0.5 else ("a", "b")
        sentence = sampling.random_restricted_sentence(rng, alphabet)
        triple = wrdl.sentence_to_nivat(wrdl.canonicalize(sentence, SUM0), alphabet, SUM0)
        back = wrdl.nivat_to_sentence(triple, SUM0)
        formulas.append(triple.language)
        formulas += [node.payload for node in wrdl.iter_nodes(back)
                     if isinstance(node, wrdl.Bool)]
    prefixed = 0
    for formula in formulas:
        report = rdl.classify(formula)
        assert report == brute_classify(formula)
        assert rdl.variable_names(formula) == brute_variable_names(formula)
        prefixed += report.exists_rdl_past_sentence
    assert prefixed == 40    # the languages; no payload is a sentence


def test_classify_walks_its_formula_once(monkeypatch):
    walked, walk = [], rdl._walk

    def counted(formula, *args, **kwargs):
        walked.append(formula)
        return walk(formula, *args, **kwargs)

    monkeypatch.setattr(rdl, "_walk", counted)
    for text, _ in PREFIXED:
        formula = rdl.parse_rdl(text)
        walked.clear()
        rdl.classify(formula)
        assert walked == [formula]
