"""The compiled evaluators ``rdl.model_check`` and ``wrdl.wrdl_eval``
against the structural-recursion oracles in conftest: same values, same
errors, and invariant subformulas evaluated once per call."""

import random
from fractions import Fraction

import mpmath
import pytest

from conftest import (brute_model_check, brute_wrdl_eval, outcome, random_rdl_formula,
                      random_short_word, random_weighted_formula, wd)
from watl import fixtures, monoids, rdl, sampling, wrdl
from watl.errors import DomainError, FragmentError, WatlError
from watl.monoids import monoid_from_id
from watl.wrdl import And, Bool, Const, ExistsFO, ExistsSO, Forall, Or

PV_MONOIDS = ("sum0", "avg0", "disc0:1/2")


def shadowing_binders(formula, bound=frozenset()):
    """How many binders rebind a name that an enclosing binder binds."""
    if isinstance(formula, (rdl.ExistsFO, rdl.ExistsSO)):
        name = formula.var if isinstance(formula, rdl.ExistsFO) else formula.setvar
        return (name in bound) + shadowing_binders(formula.sub, bound | {name})
    if isinstance(formula, rdl.Not):
        return shadowing_binders(formula.sub, bound)
    if isinstance(formula, rdl.Or):
        return shadowing_binders(formula.left, bound) + shadowing_binders(formula.right, bound)
    return 0


def test_model_check_matches_the_oracle_on_random_formulas():
    rng = random.Random(6061)
    kinds, relations, lengths, verdicts = set(), set(), set(), set()
    shadowed = zero_delays = 0
    for _ in range(600):
        formula = random_rdl_formula(rng, depth=4)
        word = random_short_word(rng)
        fo, so = rdl.free_vars(formula)
        sigma = sampling.random_assignment(rng, word, sorted(fo), sorted(so))
        got = rdl.model_check(formula, word, sigma)
        assert got is brute_model_check(formula, word, sigma)
        nodes = list(rdl.iter_subformulas(formula))
        kinds |= {type(node) for node in nodes}
        relations |= {node.rel for node in nodes if isinstance(node, rdl.Dist)}
        lengths.add(len(word))
        verdicts.add(got)
        shadowed += shadowing_binders(formula) > 0
        zero_delays += 0 in word.delays
    assert kinds == {rdl.Letter, rdl.Leq, rdl.InSet, rdl.Dist, rdl.Not, rdl.Or,
                     rdl.ExistsFO, rdl.ExistsSO}
    assert relations == {"<", "<=", "=", ">=", ">"}
    assert lengths == {1, 2, 3, 4, 5, 6}
    assert verdicts == {True, False}
    assert shadowed >= 30 and zero_delays >= 100


def test_distance_atoms_match_the_oracle_on_every_set_and_position():
    rng = random.Random(6062)
    for _ in range(40):
        word = random_short_word(rng)
        n = len(word)
        for rel in ("<", "<=", "=", ">=", ">"):
            atom = rdl.Dist(rel, rng.randint(0, 3), "X", "x")
            for mask in range(1 << n):
                for x in range(1, n + 1):
                    sigma = rdl.Assignment(
                        {"x": x}, {"X": {p for p in range(1, n + 1) if mask >> (p - 1) & 1}})
                    assert rdl.model_check(atom, word, sigma) is \
                        brute_model_check(atom, word, sigma)


@pytest.mark.parametrize("monoid_id", PV_MONOIDS)
def test_wrdl_eval_matches_the_oracle_on_random_formulas(monoid_id):
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(6063)
    kinds, valued = set(), 0
    for _ in range(150):
        formula = random_weighted_formula(rng, depth=3)
        word = random_short_word(rng, max_len=4)
        fo, so = wrdl.free_vars(formula)
        sigma = sampling.random_assignment(rng, word, sorted(fo), sorted(so))
        got = outcome(wrdl.wrdl_eval, formula, word, monoid, sigma)
        want = outcome(brute_wrdl_eval, formula, word, monoid, sigma)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert monoid.eq(got, want)
            valued += 1
        kinds |= {type(node) for node in wrdl.iter_nodes(formula)}
    assert kinds == {Bool, Const, Or, And, ExistsFO, Forall, ExistsSO}
    assert valued >= 100


@pytest.mark.parametrize("monoid_id", PV_MONOIDS)
def test_wrdl_eval_matches_the_oracle_on_restricted_sentences(monoid_id):
    monoid = monoid_from_id(monoid_id)
    rng = random.Random(6064)
    for _ in range(40):
        alphabet = ("a", "b") if rng.random() < 0.5 else ("a",)
        sentence = sampling.random_restricted_sentence(rng, alphabet)
        canonical = wrdl.canonicalize(sentence, monoid).to_formula()
        word = sampling.random_word(rng, alphabet, max_len=4)
        for formula in (sentence, canonical):
            assert monoid.eq(wrdl.wrdl_eval(formula, word, monoid),
                             brute_wrdl_eval(formula, word, monoid))


def test_errors_match_the_oracles():
    word = wd(("a", 1), ("b", 2))
    rdl_cases = [
        (rdl.Letter("a", "x"), None),                                  # unbound
        (rdl.InSet("X", "x"), rdl.Assignment({"x": 1}, {})),           # unbound set
        (rdl.Letter("a", "x"), rdl.Assignment({"x": 3}, {})),          # out of range
        (rdl.InSet("X", "x"), rdl.Assignment({"x": 1}, {"X": {0}})),   # out of range
        (rdl.Or(rdl.rdl_true(), "junk"), None),                        # not a formula
        (rdl.Not(rdl.ExistsSO("X", 7)), None),
    ]
    for formula, sigma in rdl_cases:
        got = outcome(rdl.model_check, formula, word, sigma)
        assert isinstance(got, tuple) and got[0] in (WatlError, TypeError)
        assert got == outcome(brute_model_check, formula, word, sigma)
    sum0 = monoid_from_id("sum0")
    wrdl_cases = [
        (Bool(rdl.Letter("a", "x")), sum0, None),
        (ExistsFO("x", Bool(rdl.Letter("a", "y"))), sum0, rdl.Assignment({"y": 5}, {})),
        (Or(Const(Fraction(1)), "junk"), sum0, None),
        (Bool(rdl.parse_rdl("EX X. ex x. dpast[<2](X,x)")), sum0, None),  # FragmentError
        (ExistsFO("X", Const(Fraction(1))), sum0, None),                  # FragmentError
        (Const(Fraction(1)), monoid_from_id("sum"), None),                # DomainError
        (Const(Fraction(1)), monoid_from_id("prod"), None),               # DomainError
    ]
    raised = set()
    for formula, monoid, sigma in wrdl_cases:
        got = outcome(wrdl.wrdl_eval, formula, word, monoid, sigma)
        assert isinstance(got, tuple)
        assert got == outcome(brute_wrdl_eval, formula, word, monoid, sigma)
        raised.add(got[0])
    assert raised == {WatlError, TypeError, FragmentError, DomainError}


def test_invariant_universals_are_valued_once_per_call(monkeypatch):
    # In min_wait_sentence, all z.(3, 1) never reads the quantified set Y.
    calls = []
    valuate = monoids.TimedPvMonoid.val

    def counting(self, word):
        calls.append(len(word))
        return valuate(self, word)

    monkeypatch.setattr(monoids.TimedPvMonoid, "val", counting)
    sentence, sum0 = fixtures.min_wait_sentence(), monoid_from_id("sum0")
    word = wd(*((("a", 1),) * 6))
    assert wrdl.wrdl_eval(sentence, word, sum0) == brute_wrdl_eval(sentence, word, sum0)
    # the oracle values the universal once per subset of the 6 positions
    assert calls == [6] + [6] * 2 ** 6
    calls.clear()
    wrdl.wrdl_eval(sentence, word, sum0)
    wrdl.wrdl_eval(sentence, word, sum0)
    assert calls == [6, 6]


@pytest.mark.parametrize("text, value", [
    ("(0 | (all x. (1, 1)))", Fraction(0)),
    ("((all x. (1, 1)) | 0)", Fraction(0)),
    ("(2 | (all x. (1, 1)))", None),
])
def test_disc_plus_orders_a_rational_against_a_discounted_value(text, value):
    # all x.(1, 1) on (a,1) under disc0:1/2 is the mpf 1/(2 ln 2) + 1/2,
    # about 1.2213, which plus compares exactly with the Fraction constant
    formula, word = wrdl.parse_wrdl(text), wd(("a", 1))
    disc0 = monoid_from_id("disc0:1/2")
    got = wrdl.wrdl_eval(formula, word, disc0)
    assert got == brute_wrdl_eval(formula, word, disc0)
    if value is None:
        assert disc0.eq(got, 1 / (2 * mpmath.log(2)) + mpmath.mpf(1) / 2)
    else:
        assert got == value and isinstance(got, Fraction)
