"""Weighted relative distance logic over idempotent pv-monoids.

Syntax: boolean tests B(beta) with beta in the past fragment of the
unweighted logic, constants from the monoid, | and & interpreted by plus
and the product operation, first- and second-order existential
quantification interpreted by plus over positions respectively position
sets, and the two-operand universal all x.(f1, f2) interpreted by the
monoid's global valuation of the pair sequence ((f1 at i, f2 at i), t_i).

The module also implements the canonical form of syntactically
restricted sentences and the translations between such sentences and
Nivat triples whose language component is a logic sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from . import rdl
from .core import TimedWord
from .errors import DomainError, FragmentError, ParseError, WatlError
from .monoids import TimedPvMonoid, WeightPairWord
from .weights import INF, NEG_INF, Weight, format_weight, is_finite

if TYPE_CHECKING:
    from .transform import NivatTriple

# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Bool:
    payload: object


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsFO:
    var: str
    sub: object


@dataclass(frozen=True)
class Forall:
    var: str
    left: object
    right: object


@dataclass(frozen=True)
class ExistsSO:
    setvar: str
    sub: object


_SYNTAX = rdl._Syntax("weighted formula", {
    Bool: rdl._Shape(("payload",), (), lambda f: ("B(", ")"), rdl._SYNTAX),
    Const: rdl._Shape((), (), lambda f: (format_weight(f.value),)),
    Or: rdl._SYNTAX[rdl.Or],
    And: rdl._Shape(("left", "right"), (), lambda f: ("(", " & ", ")")),
    ExistsFO: rdl._SYNTAX[rdl.ExistsFO],
    Forall: rdl._Shape(("left", "right"), ("var",), lambda f: (f"(all {f.var}. (", ", ", "))")),
    ExistsSO: rdl._SYNTAX[rdl.ExistsSO],
})

# The weighted nodes alone: payloads are not entered, other nodes passed over.
_NODES = rdl._Syntax(None, {**_SYNTAX, Bool: _SYNTAX[Bool]._replace(children=())})


def free_vars(formula):
    """(free first-order vars, free second-order vars)."""
    return rdl._facts(formula, _SYNTAX)[0]


def iter_nodes(formula):
    """The weighted nodes of a formula, top-down and left to right."""
    return map(itemgetter(0), rdl._walk(formula, _NODES))


class NameSupply:
    """Fresh variable names avoiding everything seen so far."""

    def __init__(self, used):
        self.used = set(used)

    def fresh(self, base: str) -> str:
        """base0, base1, ...: the first one not used yet, now used."""
        i = 0
        while f"{base}{i}" in self.used:
            i += 1
        name = f"{base}{i}"
        self.used.add(name)
        return name


def _survey(formula, monoid: Optional[TimedPvMonoid] = None) -> tuple:
    """One walk of the weighted nodes, classifying each payload once:
    (``validate_formula``'s problems in walk order, the nodes of no
    weighted class)."""
    problems, junk = [], []
    for node, shape, _ in rdl._walk(formula, _NODES):
        if shape is None:
            junk.append(node)
            continue
        if isinstance(node, Bool):
            if not rdl.classify(node.payload).in_rdl_past:
                problems.append(
                    f"boolean payload {rdl.to_text(node.payload)} leaves the past fragment")
        elif isinstance(node, Const):
            if monoid is not None and not monoid.contains(node.value):
                problems.append(f"constant {node.value!r} outside monoid domain")
        for field in shape.names:
            so, name = field == "setvar", getattr(node, field)
            if not (rdl.is_so_name if so else rdl.is_fo_name)(name):
                problems.append(f"{name!r} is not a {'second' if so else 'first'}-order "
                                "variable name")
    return problems, junk


def _validated(formula, monoid: Optional[TimedPvMonoid]) -> list:
    """The nodes of no weighted class, once ``_survey`` found no problem."""
    problems, junk = _survey(formula, monoid)
    if problems:
        raise FragmentError("; ".join(problems))
    return junk


def validate_formula(formula, monoid: Optional[TimedPvMonoid] = None) -> None:
    """Structural validity: payloads in the past fragment, constants in
    the monoid domain, variable kinds consistent."""
    _validated(formula, monoid)


def _require_pv(monoid) -> TimedPvMonoid:
    """The weighted logic is defined over idempotent pv-monoids only;
    duplicate summands collapse throughout (quantifiers revisit subsets,
    and the normal forms merge guard branches)."""
    if not isinstance(monoid, TimedPvMonoid):
        raise DomainError(
            "the weighted logic needs a product valuation monoid "
            "(sum0, avg0 or disc0:LAM)")
    if not monoid.idempotent:
        raise DomainError(
            f"the weighted logic needs an idempotent plus; "
            f"monoid {monoid.id!r} is not idempotent")
    return monoid


# ---------------------------------------------------------------------------
# Concrete syntax


def _payload(text: str, tokens: list, i: int, j: int) -> Optional[int]:
    """B(beta): the name, then the tokens of beta in the unweighted
    logic, ending in EOF at the parenthesis that closes it."""
    k = j
    while k < len(text) and text[k].isspace():
        k += 1
    if not text.startswith("(", k):
        return None
    tokens.append(("B(", "B", i))
    tokens += rdl._tokenize(text, rdl._LEXICON, k + 1, opened=k)
    return tokens[-1][2] + 1


_LEXICON = rdl._Lexicon(tuple((sym, sym) for sym in "()|&.,-/"), "B", _payload)


class _WParser(rdl._Parser):
    """The weighted logic's connectives, binders and atoms; the payload of
    B(...) is parsed by the unweighted grammar on its own tokens."""

    connectives = {"|": (1, Or), "&": (2, And)}

    def binder(self, kind, var, pos):
        def bind(*operands):
            fo = kind != "EX"
            if not (rdl.is_fo_name if fo else rdl.is_so_name)(var):
                raise ParseError(f"'{kind}' binds a {'first' if fo else 'second'}-order variable",
                                 pos)
            return {"ex": ExistsFO, "EX": ExistsSO, "all": Forall}[kind](var, *operands)
        if kind != "all":
            return 0, 1, bind, ""
        self.expect("(")
        return -1, 2, bind, ",)"

    def atom(self, kind, value, pos):
        if kind == "B(":
            payload = rdl._Parser(self.tokens, self.pos)
            formula = payload.parse()
            self.pos = payload.pos + 1    # past the payload's EOF
            return Bool(formula)
        if kind == "-" or kind == "NAT":
            negative = kind == "-"
            if negative:
                tok = self.next()
                if tok[0] == "NAME" and tok[1] == "inf":
                    return Const(NEG_INF)
                if tok[0] != "NAT":
                    raise ParseError("expected a number after '-'", tok[2])
                value = tok[1]
            numerator = value
            if self.tokens[self.pos][0] == "/":
                self.next()
                _, denominator, at = self.expect("NAT")
                if not denominator:
                    raise ParseError("zero denominator", at)
                out = Fraction(numerator, denominator)
            else:
                out = Fraction(numerator)
            return Const(-out if negative else out)
        if kind == "NAME" and value == "inf":
            return Const(INF)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_wrdl(text: str, monoid: Optional[TimedPvMonoid] = None):
    """Parse concrete syntax; validates payload fragments and, when a
    monoid is given, constant domains."""
    formula = _WParser(rdl._tokenize(text, _LEXICON)).parse()
    validate_formula(formula, monoid)
    return formula


def to_text(formula) -> str:
    return "".join(rdl._walk(formula, _SYNTAX, text=True))


# ---------------------------------------------------------------------------
# Semantics


def _remembered(slots: frozenset, compute) -> tuple:
    """(closure env -> compute(env), slots): the closure remembers its last
    value with the values of the given slots, and calls compute again only
    when one of those changed.  Recomputing a node takes two stack frames,
    one for each closure."""
    key_of = itemgetter(*slots) if slots else (lambda env: ())
    key, value = object(), None    # a key no environment holds

    def remembered(env):
        nonlocal key, value
        k = key_of(env)
        if k != key:
            key, value = k, compute(env)
        return value
    return remembered, slots


class _WeightedCompiler(rdl._Compiler):
    """Compiles weighted formulas over one word and one monoid into
    closures over the flat environment of ``rdl._Compiler``, which also
    compiles the boolean payloads.

    Every compiled node except a constant remembers its last value with
    the values of its free variables' slots, and recomputes only when one
    of those changed.  That is exact, because a subformula's value depends
    only on the word, the monoid and its free variables; so a universal
    that never reads a quantified set is valued once, not once per subset.
    The memory is one (key, value) pair per node, kept for one call.  A
    test's slots are its payload's free names, which ``rdl.free_vars``
    keeps on the payload.  Each universal takes the monoid's step fold
    over the word's delays once, at compile time, and values its pairs
    against the word's cached ``ticks`` (``StepFold.value``), as
    ``wta.fold_charges`` does; without a step fold it applies ``val``.
    """

    def __init__(self, word: TimedWord, sigma, monoid: TimedPvMonoid):
        super().__init__(word, sigma)
        self.monoid = monoid
        self.word = word

    def weighted(self, node, fo: dict, so: dict) -> tuple:
        """(closure env -> value, frozenset of the free variables' slots)."""
        monoid = self.monoid
        plus, zero = monoid.plus, monoid.zero
        if isinstance(node, Const):
            const = node.value
            return (lambda env: const), frozenset()
        if isinstance(node, Bool):
            check, one = self.compile(node.payload, fo, so), monoid.one
            pfo, pso = rdl.free_vars(node.payload)
            slots = frozenset([fo[v] for v in pfo] + [so[v] for v in pso])
            return _remembered(slots, lambda env: one if check(env) else zero)
        if isinstance(node, (Or, And)):
            left, ls = self.weighted(node.left, fo, so)
            right, rs = self.weighted(node.right, fo, so)
            combine = plus if isinstance(node, Or) else monoid.diamond
            return _remembered(ls | rs, lambda env: combine(left(env), right(env)))
        if isinstance(node, (ExistsFO, ExistsSO)):
            slot, (sub, ss), values = self.bind(node, fo, so, self.weighted)

            def exists(env):
                total = zero
                for v in values:
                    env[slot] = v
                    total = plus(total, sub(env))
                return total
            return _remembered(ss - {slot}, exists)
        if isinstance(node, Forall):
            slot = self.slot()
            inner = {**fo, node.var: slot}
            left, ls = self.weighted(node.left, inner, so)
            right, rs = self.weighted(node.right, inner, so)
            word, positions = self.word, range(1, self.n + 1)
            fold, ticks = monoid.step_fold(word.delays), word.ticks()

            def forall(env):
                pairs = []
                for p in positions:
                    env[slot] = p
                    pairs.append((left(env), right(env)))
                if fold is None:
                    return monoid.val(WeightPairWord(tuple(zip(pairs, word.delays))))
                return fold.value(pairs, ticks)
            return _remembered((ls | rs) - {slot}, forall)
        raise TypeError(f"not a weighted formula: {node!r}")


@rdl.refuse_deep
def wrdl_eval(formula, word: TimedWord, monoid, assignment=None) -> Weight:
    """Evaluate a weighted formula at a word under an assignment.

    Disjunction and the quantifiers aggregate with plus, conjunction with
    the product operation, and the two-operand universal applies the
    global valuation to the pairs it collects at every position.

    One walk of the weighted nodes validates the formula; the free names
    of it and of its payloads are those ``rdl._facts`` keeps on each, so
    a formula valued again is not walked for them again.  The formula is
    then compiled once per call into closures over int positions and
    bitmask position sets, each universal folding with one step fold
    prepared against the word, and a subformula is re-evaluated only when
    one of its free variables changed (see ``_WeightedCompiler``).
    Second-order quantification still enumerates all 2^n position subsets,
    so the cost is exponential in the word length for every set
    quantifier whose body reads the set.
    """
    monoid = _require_pv(monoid)
    junk = _validated(formula, monoid)
    if junk:
        _SYNTAX.refuse(junk[0])
    sigma = assignment or rdl.Assignment()
    rdl.validate_assignment(free_vars(formula), word, sigma, "evaluation")
    compiler = _WeightedCompiler(word, sigma, monoid)
    evaluate, _ = compiler.weighted(formula, compiler.fo, compiler.so)
    return evaluate(compiler.env)


# ---------------------------------------------------------------------------
# Fragments


def almost_boolean(formula) -> bool:
    """Built from tests and constants with | and & only."""
    return all(isinstance(node, (Bool, Const, Or, And)) for node in iter_nodes(formula))


@dataclass(frozen=True)
class WrdlClassification:
    is_sentence: bool
    almost_boolean: bool
    syntactically_restricted: bool


# The weighted nodes outside the operands of universals.
_OUTSIDE_FORALL = rdl._Syntax("weighted formula",
                              {**_NODES, Forall: _NODES[Forall]._replace(children=())})


def _restricted(formula) -> bool:
    """No constant outside a universal, universals over almost boolean
    operands (in which every node qualifies, so they are not entered),
    and conjunctions over almost boolean operands or with a test."""
    for node, _, _ in rdl._walk(formula, _OUTSIDE_FORALL):
        if isinstance(node, Const):
            return False
        if isinstance(node, And) and Bool in (type(node.left), type(node.right)):
            continue
        if isinstance(node, (And, Forall)) and not (
                almost_boolean(node.left) and almost_boolean(node.right)):
            return False
    return True


def wrdl_classify(formula) -> WrdlClassification:
    fo, so = free_vars(formula)
    sentence = not fo and not so
    return WrdlClassification(
        is_sentence=sentence,
        almost_boolean=almost_boolean(formula),
        syntactically_restricted=sentence and _restricted(formula),
    )


# ---------------------------------------------------------------------------
# Step functions


@dataclass(frozen=True)
class StepFunction:
    """An exclusive and exhaustive guard family with one value per branch."""

    branches: tuple  # of (rdl formula, weight)

    def evaluate(self, word: TimedWord, assignment=None) -> Weight:
        sigma = assignment or rdl.Assignment()
        hits = [value for guard, value in self.branches
                if rdl.model_check(guard, word, sigma)]
        if len(hits) != 1:
            raise WatlError(f"guard family matched {len(hits)} branches, expected 1")
        return hits[0]


def to_step_function(formula, monoid) -> StepFunction:
    """Compile an almost boolean formula into a step function.

    Branch guards are the signed refinements of the tests occurring in
    the formula; unsatisfiable sign combinations are kept, favouring
    soundness over minimality.
    """
    monoid = _require_pv(monoid)
    if isinstance(formula, Const):
        return StepFunction(((rdl.rdl_true(), formula.value),))
    if isinstance(formula, Bool):
        return StepFunction(((formula.payload, monoid.one),
                             (rdl.Not(formula.payload), monoid.zero)))
    if isinstance(formula, (Or, And)):
        combine = monoid.plus if isinstance(formula, Or) else monoid.diamond
        product = _branch_product(to_step_function(formula.left, monoid),
                                  to_step_function(formula.right, monoid))
        return StepFunction(tuple((guard, combine(v1, v2)) for guard, v1, v2 in product))
    raise FragmentError(f"not almost boolean: {to_text(formula)}")


def _branch_product(first: StepFunction, second: StepFunction) -> list:
    """(g1 & g2, v1, v2) for every branch (g1, v1) of the first step
    function and (g2, v2) of the second, the first's branches outer."""
    return [(rdl.rdl_and(g1, g2), v1, v2)
            for g1, v1 in first.branches for g2, v2 in second.branches]


# ---------------------------------------------------------------------------
# Canonical sentences


@dataclass(frozen=True)
class CanonicalSentence:
    """EX V. all var. (sum of B(guard_i) & left_i, sum of B(guard_i) & right_i).

    The guard family is exclusive and exhaustive for every word and
    assignment of the prefix variables.
    """

    so_vars: tuple
    var: str
    guards: tuple
    left: tuple
    right: tuple

    def to_formula(self):
        left = _value_disjunction(self.guards, self.left)
        right = _value_disjunction(self.guards, self.right)
        body = Forall(self.var, left, right)
        for v in reversed(self.so_vars):
            body = ExistsSO(v, body)
        return body

    def check_family(self, word: TimedWord, assignment=None) -> bool:
        """True when exactly one guard holds at every position."""
        sigma = assignment or rdl.Assignment()
        for i in range(1, len(word) + 1):
            inner = sigma.with_fo(self.var, i)
            hits = sum(1 for g in self.guards if rdl.model_check(g, word, inner))
            if hits != 1:
                return False
        return True


def _value_disjunction(guards, values):
    """The sum of B(guard_i) & value_i, folded to the left like
    ``rdl.big_or``; the weighted logic has no empty sum."""
    if not guards:
        raise WatlError("empty weighted disjunction")
    return reduce(Or, [And(Bool(g), Const(v)) for g, v in zip(guards, values)])


def _freshen(canonical: CanonicalSentence, names: NameSupply,
             avoid_fo=frozenset(), avoid_so=frozenset(),
             force_var: Optional[str] = None) -> CanonicalSentence:
    """Rename the bound variables of a canonical sentence away from the
    given free names (and optionally onto a shared universal variable)."""
    var = canonical.var
    renames = {}
    if force_var is not None and var != force_var:
        renames[var] = force_var
    elif var in avoid_fo:
        renames[var] = names.fresh("y")
    for v in canonical.so_vars:
        if v in avoid_so:
            renames[v] = names.fresh("S")
    return CanonicalSentence(tuple(renames.get(v, v) for v in canonical.so_vars),
                             renames.get(var, var),
                             tuple(rdl.rename_free(g, renames) for g in canonical.guards),
                             canonical.left, canonical.right)


@rdl.refuse_deep
def canonicalize(formula, monoid) -> CanonicalSentence:
    """Transform a syntactically restricted sentence to canonical form.

    Almost boolean parts become signed-refinement step functions; a
    conjunct B(beta) refines every guard with beta plus a rejecting
    remainder branch; disjunction of canonical sentences is merged with a
    fresh selector set variable (empty selects the left operand),
    collapsing duplicate summands by idempotence; first-order existential
    quantification is absorbed as a fresh singleton set variable with the
    singleton test expressed in the past fragment.
    """
    monoid = _require_pv(monoid)
    validate_formula(formula, monoid)
    if not wrdl_classify(formula).syntactically_restricted:
        raise FragmentError("canonical form needs a syntactically restricted sentence")
    names = NameSupply(rdl._facts(formula, _SYNTAX)[1])

    def refined(inner, test, guards, so_vars=()) -> CanonicalSentence:
        """The inner family under the test: each of the guards (the inner
        ones, as the test reads them) conjoined to it, then a rejecting
        (one, zero) branch for its negation, the prefix led by so_vars."""
        return CanonicalSentence(so_vars + inner.so_vars, inner.var,
                                 tuple(rdl.rdl_and(test, g) for g in guards) + (rdl.Not(test),),
                                 inner.left + (monoid.one,), inner.right + (monoid.zero,))

    def canon(node) -> CanonicalSentence:
        if almost_boolean(node):
            step = to_step_function(node, monoid)
            guards = tuple(g for g, _ in step.branches)
            left = tuple(monoid.one for _ in step.branches)
            right = []
            for _, value in step.branches:
                if value == monoid.one:
                    right.append(monoid.one)
                elif value == monoid.zero:
                    right.append(monoid.zero)
                else:
                    raise FragmentError(
                        "constants outside a universal quantifier cannot be "
                        "canonicalized")
            return CanonicalSentence((), names.fresh("y"), guards, left, tuple(right))
        if isinstance(node, Forall):
            guards, left, right = zip(*_branch_product(to_step_function(node.left, monoid),
                                                       to_step_function(node.right, monoid)))
            return CanonicalSentence((), node.var, guards, left, right)
        if isinstance(node, And):
            # restricted and not almost boolean, so one operand is a test
            if isinstance(node.left, Bool):
                test, rest = node.left, node.right
            else:
                test, rest = node.right, node.left
            pf_fo, pf_so = rdl.free_vars(test.payload)
            inner = _freshen(canon(rest), names, avoid_fo=pf_fo, avoid_so=pf_so)
            return refined(inner, test.payload, inner.guards)
        if isinstance(node, Or):
            first = canon(node.left)
            second = canon(node.right)
            shared = names.fresh("y")
            first = _freshen(first, names, force_var=shared)
            second = _freshen(second, names, avoid_so=frozenset(first.so_vars),
                              force_var=shared)
            selector = names.fresh("S")
            probe = names.fresh("y")
            nonempty = rdl.ExistsFO(probe, rdl.InSet(selector, probe))
            guards = tuple(rdl.rdl_and(rdl.Not(nonempty), g) for g in first.guards)
            guards += tuple(rdl.rdl_and(nonempty, g) for g in second.guards)
            return CanonicalSentence((selector,) + first.so_vars + second.so_vars,
                                     shared, guards,
                                     first.left + second.left,
                                     first.right + second.right)
        if isinstance(node, ExistsSO):
            inner = canon(node.sub)
            inner = _freshen(inner, names, avoid_so=frozenset([node.setvar]))
            return CanonicalSentence((node.setvar,) + inner.so_vars, inner.var,
                                     inner.guards, inner.left, inner.right)
        # every other kind of node is handled above: this is an ExistsFO
        inner = _freshen(canon(node.sub), names, avoid_fo=frozenset([node.var]))
        witness = names.fresh("S")
        singleton = rdl.rdl_singleton(witness, names.fresh("y"), names.fresh("y"))
        # the singleton test already says some position is in the set
        return refined(inner, singleton, [
            g if node.var not in rdl.free_vars(g)[0] else
            rdl.ExistsFO(node.var, rdl.rdl_and(rdl.InSet(witness, node.var), g))
            for g in inner.guards], (witness,))

    return canon(formula)


# ---------------------------------------------------------------------------
# Translations between sentences and Nivat triples


def _require_writable(letters) -> None:
    """Refuse a letter holding ``]``, which would end its letter test early."""
    for a in letters:
        if "]" in a:
            raise WatlError(f"letter {a!r} holds ']', which a letter test cannot write")


def gamma_letter(letter: str, m, mp) -> str:
    return f"{letter}|{format_weight(m)}|{format_weight(mp)}"


def relabeled_guards(canonical: CanonicalSentence, gamma, h) -> tuple:
    """The guard family lifted to an auxiliary alphabet: every letter test
    P[a](x) becomes the disjunction of the gamma letters projecting to a.
    In the same walk every second-order binder inside a guard is
    alpha-renamed to a fresh name (Z0, Z1, ... in walk order), so that no
    bound name collides with another guard's distance variable."""
    supply = NameSupply(set(canonical.so_vars) | {canonical.var} |
                        set().union(*[rdl.variable_names(gd) for gd in canonical.guards]))

    def relabel(bound: dict):
        """The ``rdl._rebuild`` visit under the given renaming of bound
        set variables."""
        def visit(node):
            if isinstance(node, rdl.Letter):
                return rdl.big_or([rdl.Letter(c, node.var) for c in gamma
                                   if h[c] == node.letter]), False
            if isinstance(node, (rdl.InSet, rdl.Dist)):
                return rdl._rename_atom(node, bound), False
            if isinstance(node, rdl.ExistsSO):
                fresh = supply.fresh("Z")
                return rdl.ExistsSO(fresh, node.sub), relabel({**bound, node.setvar: fresh})
            return node, True
        return visit

    return tuple(rdl._rebuild(guard, relabel({})) for guard in canonical.guards)


def sentence_to_nivat(canonical: CanonicalSentence, alphabet: tuple,
                      monoid) -> NivatTriple:
    """Present a canonical sentence as a Nivat triple.

    The auxiliary alphabet pairs each letter with one of the left values
    and one of the right values of the family.  The language sentence
    asserts that at every position the value components of the letter
    agree with the branch the guards select; its models correspond to the
    choice functions the canonical semantics sums over, so folding with
    val o g and projecting through h recovers the sentence's semantics
    (duplicate choices collapse by idempotence).  A letter holding ``]``,
    which the syntax of letter tests cannot write, is refused with a
    ``WatlError``.
    """
    from .transform import NivatTriple
    monoid = _require_pv(monoid)
    _require_writable(alphabet)
    for v in canonical.left + canonical.right:
        monoid.require(v, "canonical value")
    lefts = [m for m in dict.fromkeys(canonical.left) if is_finite(m)]
    rights = [m for m in dict.fromkeys(canonical.right) if is_finite(m)]
    gamma, h, g = [], {}, {}
    for a in alphabet:
        for m in lefts:
            for mp in rights:
                name = gamma_letter(a, m, mp)
                gamma.append(name)
                h[name] = a
                g[name] = (m, mp)
    lifted = relabeled_guards(canonical, gamma, h)

    y = canonical.var
    clauses = []
    for guard, m, mp in zip(lifted, canonical.left, canonical.right):
        if is_finite(m) and is_finite(mp):
            matching = rdl.big_or([
                rdl.Letter(gamma_letter(a, m, mp), y) for a in alphabet])
        else:
            # A branch valued at an infinite weight contributes the
            # monoid zero, so its positions are simply ruled out of the
            # language component instead of carrying a letter.
            matching = rdl.rdl_false()
        clauses.append(rdl.rdl_implies(guard, matching))

    dist = rdl.dist_vars(rdl.big_and(clauses)) if clauses else frozenset()
    if not dist <= set(canonical.so_vars):
        raise WatlError("distance variables escaped the canonical prefix")
    # The existential prefix of the language sentence must consist of
    # exactly its distance variables, so selector and singleton variables
    # that never reach a distance predicate get a vacuous mention.
    for v in canonical.so_vars:
        if v not in dist:
            atom = rdl.Dist(">=", 0, v, y)
            clauses.append(rdl.Or(atom, rdl.Not(atom)))
    body = rdl.rdl_forall_fo(y, rdl.big_and(clauses))
    for v in reversed(canonical.so_vars):
        body = rdl.ExistsSO(v, body)
    if not rdl.classify(body).exists_rdl_past_sentence:
        raise WatlError("emitted language sentence left the expected fragment")
    return NivatTriple(gamma, h, g, body, "sentence")


def nivat_to_sentence(triple: NivatTriple, monoid):
    """Translate a triple whose language is a logic sentence back into a
    syntactically restricted weighted sentence.

    Fresh set variables X_c guess which auxiliary letter each position
    came from; the boolean part asserts the guess is a partition refining
    the letter projection and that the relabeled language sentence holds,
    while the universal part charges g1/g2 of the guessed letter.  A
    letter of h holding ``]``, which the letter tests of the payload
    cannot write, is refused with a ``WatlError``.
    """
    monoid = _require_pv(monoid)
    if triple.language_class != "sentence":
        raise WatlError("nivat_to_sentence needs a triple with a sentence language")
    sentence = triple.language
    cls = rdl.classify(sentence)
    if not cls.exists_rdl_past_sentence:
        raise FragmentError(
            "the language sentence must be an existentially prefixed past sentence")
    for c in triple.gamma:
        monoid.require(triple.g[c][0], f"g1({c})")
        monoid.require(triple.g[c][1], f"g2({c})")
    _require_writable(triple.h[c] for c in triple.gamma)

    prefix = []
    body = sentence
    while isinstance(body, rdl.ExistsSO):
        prefix.append(body.setvar)
        body = body.sub

    supply = NameSupply(rdl.variable_names(sentence))
    xvar = {c: supply.fresh("X") for c in triple.gamma}
    replaced = rdl.map_letter_atoms(
        body,
        lambda letter, var: rdl.rdl_and(rdl.Letter(triple.h.get(letter, letter), var),
                                        rdl.InSet(xvar[letter], var))
        if letter in xvar else rdl.rdl_false())

    p = supply.fresh("p")
    part = rdl.rdl_forall_fo(p, rdl.big_or([
        rdl.big_and([rdl.InSet(xvar[c], p)] +
                    [rdl.Not(rdl.InSet(xvar[d], p)) for d in triple.gamma if d != c])
        for c in triple.gamma]))
    letter_ok = rdl.rdl_forall_fo(p, rdl.big_and([
        rdl.rdl_implies(rdl.InSet(xvar[c], p), rdl.Letter(triple.h[c], p))
        for c in triple.gamma]))
    # The partition test goes first: model checking short-circuits
    # conjunctions, and almost all subset tuples fail it cheaply.
    payload = rdl.big_and([part, letter_ok, replaced])
    if not rdl.classify(payload).in_rdl_past:
        raise WatlError("combined boolean payload left the past fragment")

    q = supply.fresh("q")
    members = [rdl.InSet(xvar[c], q) for c in triple.gamma]
    left = _value_disjunction(members, [triple.g[c][0] for c in triple.gamma])
    right = _value_disjunction(members, [triple.g[c][1] for c in triple.gamma])
    out = And(Bool(payload), Forall(q, left, right))
    for v in reversed(prefix):
        out = ExistsSO(v, out)
    for c in reversed(triple.gamma):
        out = ExistsSO(xvar[c], out)
    if not wrdl_classify(out).syntactically_restricted:
        raise WatlError("translation produced a non-restricted sentence")
    return out
