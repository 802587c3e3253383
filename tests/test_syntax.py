"""Concrete syntax of both logics: the exact messages of malformed input
and parse(to_text(f)) == f on random formulas."""

import random
from fractions import Fraction

import pytest

from conftest import random_rdl_formula, random_weighted_formula
from watl import rdl, wrdl
from watl.errors import ParseError
from watl.weights import INF, NEG_INF

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
]


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
        kinds |= {type(node) for node in rdl.iter_subformulas(formula)}
    assert len(kinds) == 8


def test_wrdl_text_round_trips_on_random_formulas():
    rng = random.Random(7072)
    kinds = set()
    for _ in range(200):
        formula = random_weighted_formula(rng, depth=3)
        assert wrdl.parse_wrdl(wrdl.to_text(formula)) == formula
        kinds |= {type(node) for node in wrdl.iter_nodes(formula)}
    assert len(kinds) == 7


@pytest.mark.parametrize("value", [Fraction(-3, 2), Fraction(7, 4), Fraction(0), INF, NEG_INF])
def test_constants_round_trip(value):
    formula = wrdl.And(wrdl.Const(value), wrdl.Bool(rdl.Letter("a", "x")))
    assert wrdl.parse_wrdl(wrdl.to_text(formula)) == formula
