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


class FoldlessSum(monoids.SumMonoid):
    """The sum monoid with its valuation as ``val`` alone, no step fold."""

    def step_fold(self, delays):
        return None

    def val(self, word):
        return monoids.SumMonoid().val(word)


def foldless_sum0():
    try:
        monoids.register_monoid("sum0-foldless", lambda arg=None: monoids.TimedPvMonoid(
            FoldlessSum(), lambda x, y: x + y, Fraction(0), "sum0-foldless"))
    except ValueError:
        pass
    return monoid_from_id("sum0-foldless")


def test_prepared_universal_folds_equal_the_oracle_exactly():
    # Each universal folds through one step fold per call; the oracle
    # applies val afresh.  Values are ==, and discounted ones print alike.
    # Every other avg0 word waits 0 in all steps, so avg0 folds uniform rates.
    sum0, avg0, disc0 = (monoid_from_id(m) for m in PV_MONOIDS)
    foldless = foldless_sum0()
    rng = random.Random(6065)
    lengths, uniform = set(), 0
    for k in range(200):
        alphabet = ("a", "b") if rng.random() < 0.5 else ("a",)
        sentence = sampling.random_restricted_sentence(rng, alphabet)
        word = sampling.random_word(rng, alphabet, max_len=4)
        monoid = (sum0, avg0, disc0, avg0, foldless)[k % 5]
        if k % 5 == 3:
            word = wd(*((letter, 0) for letter in word.letters))
        formulas = [sentence, wrdl.canonicalize(sentence, monoid).to_formula()]
        if monoid is foldless:
            # sampled sentences rarely charge unequal finite rates; this one does
            formulas.append(fixtures.average_cost_sentence())
        for formula in formulas:
            got = wrdl.wrdl_eval(formula, word, monoid)
            want = brute_wrdl_eval(formula, word, monoid)
            assert got == want and repr(got) == repr(want)
            if monoid is foldless:
                assert got == wrdl.wrdl_eval(formula, word, sum0)
        lengths.add(len(word))
        uniform += monoid is avg0 and not any(word.delays)
    assert foldless.step_fold(word.delays) is None
    assert lengths == {1, 2, 3, 4} and uniform >= 40


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
        *((Const(flag), monoid_from_id(monoid_id), None)                  # FragmentError:
          for monoid_id in PV_MONOIDS for flag in (True, False)),        # a bool is no weight
    ]
    raised = set()
    for formula, monoid, sigma in wrdl_cases:
        got = outcome(wrdl.wrdl_eval, formula, word, monoid, sigma)
        assert isinstance(got, tuple)
        assert got == outcome(brute_wrdl_eval, formula, word, monoid, sigma)
        raised.add(got[0])
        if type(getattr(formula, "value", None)) is bool:
            assert got[0] is FragmentError
    assert raised == {WatlError, TypeError, FragmentError, DomainError}


PAST_LEAVER = Bool(rdl.parse_rdl("EX X. ex x. dpast[<2](X,x)"))
LEAVES_PAST = "boolean payload (EX X. (ex x. dpast[<2](X,x))) leaves the past fragment"
ONE = Const(Fraction(1))


@pytest.mark.parametrize("formula, sigma, error", [
    (ExistsFO("X", ONE), None, (FragmentError, "'X' is not a first-order variable name")),
    (ExistsSO("x", ONE), None, (FragmentError, "'x' is not a second-order variable name")),
    (Forall("X1", ONE, ONE), None, (FragmentError, "'X1' is not a first-order variable name")),
    (PAST_LEAVER, None, (FragmentError, LEAVES_PAST)),
    (Const(mpmath.mpf(1)), None, (FragmentError, "constant mpf('1.0') outside monoid domain")),
    (Const(True), None, (FragmentError, "constant True outside monoid domain")),
    (Or(ExistsSO("x", PAST_LEAVER), Const("junk")), None,
     (FragmentError, f"'x' is not a second-order variable name; {LEAVES_PAST}; "
                     "constant 'junk' outside monoid domain")),
    (Bool(rdl.Letter("a", "x")), None, (WatlError, "unbound variables in evaluation: x")),
    (ExistsFO("x", Bool(rdl.InSet("Y", "x"))), rdl.Assignment(),
     (WatlError, "unbound variables in evaluation: Y")),
    (Bool(rdl.Letter("a", "x")), rdl.Assignment({"x": 3}, {}),
     (WatlError, "assignment sends 'x' to 3, outside 1..2")),
    (Bool(rdl.InSet("Y", "x")), rdl.Assignment({"x": 1}, {"Y": {0}}),
     (WatlError, "assignment of 'Y' leaves 1..2")),
    (Forall("x", ONE, Bool(rdl.Letter("a", "y"))), rdl.Assignment({"y": 0}, {}),
     (WatlError, "assignment sends 'y' to 0, outside 1..2")),
    (Or(ONE, "junk"), None, (TypeError, "not a weighted formula: 'junk'")),
    (Or("junk", Bool(rdl.Letter("a", "x"))), None, (TypeError, "not a weighted formula: 'junk'")),
    (Or("junk", Const("bad")), None, (FragmentError, "constant 'bad' outside monoid domain")),
    (Or(Bool(rdl.Or(rdl.rdl_true(), "junk")), Const("bad")), None,
     (TypeError, "not a formula: 'junk'")),
    (Or("junk", Bool(rdl.Not("junk2"))), None, (TypeError, "not a formula: 'junk2'")),
])
def test_bad_input_keeps_its_error_type_message_and_order(formula, sigma, error):
    # The errors and their order are those of validate_formula followed by
    # validate_assignment of free_vars, each a walk of its own: problems in
    # walk order first, then a node of no weighted class, then the assignment.
    word, avg0 = wd(("a", 1), ("b", 2)), monoid_from_id("avg0")
    assert outcome(wrdl.wrdl_eval, formula, word, avg0, sigma) == error
    assert outcome(brute_wrdl_eval, formula, word, avg0, sigma) == error


def test_invariant_universals_are_valued_once_per_call(monkeypatch):
    # In min_wait_sentence, all z.(3, 1) never reads the quantified set Y.
    # Every valuation prepares the sum fold's charges once: wrdl_eval's
    # universal through its own fold, the oracle's through val.
    prepared, valued = [], []
    prepare, valuate = monoids._SumFold.prepare, monoids.TimedPvMonoid.val

    def counting_prepare(self, charges, ticks):
        prepared.append(len(charges))
        return prepare(self, charges, ticks)

    def counting_val(self, word):
        valued.append(len(word))
        return valuate(self, word)

    monkeypatch.setattr(monoids._SumFold, "prepare", counting_prepare)
    monkeypatch.setattr(monoids.TimedPvMonoid, "val", counting_val)
    sentence, sum0 = fixtures.min_wait_sentence(), monoid_from_id("sum0")
    word = wd(*((("a", 1),) * 6))
    assert wrdl.wrdl_eval(sentence, word, sum0) == brute_wrdl_eval(sentence, word, sum0)
    # the oracle values the universal once per subset of the 6 positions
    assert prepared == [6] + [6] * 2 ** 6
    assert valued == [6] * 2 ** 6
    prepared.clear()
    valued.clear()
    wrdl.wrdl_eval(sentence, word, sum0)
    wrdl.wrdl_eval(sentence, word, sum0)
    assert prepared == [6, 6]
    assert valued == []


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
