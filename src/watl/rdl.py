"""Relative distance logic over timed words.

Formulas are built from letter tests P[a](x), position comparisons
x <= y, set membership X(x), and the past distance predicate
dpast[REL c](X, x), closed under negation, disjunction and first- and
second-order existential quantification.  First-order variables start
with a lowercase letter or underscore, second-order variables with an
uppercase letter.

The past distance predicate looks at the greatest position z in X
strictly before x: when such a z exists it compares the elapsed time
between events z and x against the constant, and otherwise it compares
the absolute time of event x.

Concrete syntax (``&`` and ``all x.`` are sugar for the primitive
connectives; quantifier bodies extend as far right as possible)::

    P[a](x)   x <= y   X(x)   dpast[<=2](X,x)   !f   f | g   f & g
    ex x. f   EX X. f   all x. f
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import reduce
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from .core import _COMPARE, RELATIONS, TimedWord, is_natural
from .errors import ParseError, WatlError, refuse_deep


# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class Letter:
    letter: str
    var: str


@dataclass(frozen=True)
class Leq:
    left: str
    right: str


@dataclass(frozen=True)
class InSet:
    setvar: str
    var: str


@dataclass(frozen=True)
class Dist:
    rel: str
    bound: int
    setvar: str
    var: str

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise ValueError(f"unknown distance relation {self.rel!r}")
        if not is_natural(self.bound):
            raise ValueError("distance bounds are naturals")


@dataclass(frozen=True)
class Not:
    sub: "RdlFormula"


@dataclass(frozen=True)
class Or:
    left: "RdlFormula"
    right: "RdlFormula"


@dataclass(frozen=True)
class ExistsFO:
    var: str
    sub: "RdlFormula"


@dataclass(frozen=True)
class ExistsSO:
    setvar: str
    sub: "RdlFormula"


RdlFormula = object


def is_so_name(name: str) -> bool:
    return bool(name) and name[0].isupper()


def is_fo_name(name: str) -> bool:
    return bool(name) and not name[0].isupper()


# ---------------------------------------------------------------------------
# Builders for derived forms


def rdl_and(left, right):
    return Not(Or(Not(left), Not(right)))


def rdl_implies(premise, conclusion):
    return Or(Not(premise), conclusion)


def rdl_forall_fo(var, sub):
    return Not(ExistsFO(var, Not(sub)))


def rdl_true():
    """A closed tautology: timed words are non-empty."""
    return ExistsFO("u0", Leq("u0", "u0"))


def rdl_false():
    return Not(rdl_true())


def rdl_first(var):
    """No position lies strictly before var."""
    z = "z1" if var == "z0" else "z0"
    return Not(ExistsFO(z, rdl_and(Leq(z, var), Not(Leq(var, z)))))


def rdl_last(var):
    """No position lies strictly after var."""
    z = "z1" if var == "z0" else "z0"
    return Not(ExistsFO(z, rdl_and(Leq(var, z), Not(Leq(z, var)))))


def rdl_singleton(setvar, z, u):
    """Some position z is in the set, and no position u in it differs."""
    same = rdl_and(Leq(u, z), Leq(z, u))
    return ExistsFO(z, rdl_and(InSet(setvar, z),
                               Not(ExistsFO(u, rdl_and(InSet(setvar, u), Not(same))))))


def big_or(parts):
    parts = list(parts)
    return reduce(Or, parts) if parts else rdl_false()


def big_and(parts):
    parts = list(parts)
    return reduce(rdl_and, parts) if parts else rdl_true()


# ---------------------------------------------------------------------------
# Structural utilities


class _Shape(NamedTuple):
    """What the shared walk needs to know of one node class."""

    children: tuple         # the fields holding subformulas, left to right
    names: tuple            # variable-name fields, a set's in ``setvar``; a binder binds the first
    text: Callable          # node -> the texts before, between and after its children
    inner: Optional[dict] = None  # the syntax of its children, if not its own


class _Syntax(dict):
    """The node classes of one logic, each mapped to its ``_Shape``; ``what``
    names the logic's formulas in the TypeError on a node of any other
    class, and with ``what`` None such a node is passed over."""

    def __init__(self, what: Optional[str], shapes: dict):
        super().__init__(shapes)
        self.what = what

    def refuse(self, node) -> None:
        if self.what is not None:
            raise TypeError(f"not a {self.what}: {node!r}")


_SYNTAX = _Syntax("formula", {
    Letter: _Shape((), ("var",), lambda f: (f"P[{f.letter}]({f.var})",)),
    Leq: _Shape((), ("left", "right"), lambda f: (f"{f.left} <= {f.right}",)),
    InSet: _Shape((), ("setvar", "var"), lambda f: (f"{f.setvar}({f.var})",)),
    Dist: _Shape((), ("setvar", "var"),
                 lambda f: (f"dpast[{f.rel}{f.bound}]({f.setvar},{f.var})",)),
    Not: _Shape(("sub",), (), lambda f: ("!(", ")")),
    Or: _Shape(("left", "right"), (), lambda f: ("(", " | ", ")")),
    ExistsFO: _Shape(("sub",), ("var",), lambda f: (f"(ex {f.var}. ", ")")),
    ExistsSO: _Shape(("sub",), ("setvar",), lambda f: (f"(EX {f.setvar}. ", ")")),
})


def _walk(formula, syntax: _Syntax, text: bool = False, scoped: bool = False):
    """Yield ``(node, shape, bound)`` for every node of a formula, top-down
    and left to right, from an explicit stack, so no depth is too deep;
    with ``scoped``, ``bound`` holds the (second-order?, name) pairs bound
    around the node, and otherwise it is None and no such set is built.
    A node the syntax passes over comes with shape None.  With ``text``,
    yield instead the texts that, joined, render the formula."""
    stack = [(formula, syntax, frozenset() if scoped else None)]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        if item.__class__ is str:      # a text piece
            yield item
            continue
        node, syntax, bound = item
        shape = syntax.get(type(node)) or syntax.refuse(node)
        if text:
            pieces = shape.text(node)
            yield pieces[0]
        else:
            yield node, shape, bound
        if shape is None or not shape.children:
            continue
        if scoped and shape.names:
            bound = bound | {(shape.names[0] == "setvar", getattr(node, shape.names[0]))}
        syntax, after = shape.inner or syntax, len(shape.children)
        for field in reversed(shape.children):
            if text:
                push(pieces[after])
                after -= 1
            push((getattr(node, field), syntax, bound))


def _facts(formula, syntax: _Syntax) -> tuple:
    """The name facts of a formula from one scoped walk: its (first-order,
    second-order) free names, every name it holds, bound or free, the set
    variables of its distance tests, and the names its set quantifiers
    bind, in walk order."""
    free, names, dist, quantified = (set(), set()), set(), set(), []
    for node, shape, bound in _walk(formula, syntax, scoped=True):
        for field in shape.names:
            so, name = field == "setvar", getattr(node, field)
            names.add(name)
            if not shape.children:
                if (so, name) not in bound:
                    free[so].add(name)
            elif so:
                quantified.append(name)
        if node.__class__ is Dist:
            dist.add(node.setvar)
    return (frozenset(free[0]), frozenset(free[1])), names, frozenset(dist), quantified


def free_vars(formula):
    """(free first-order vars, free second-order vars)."""
    return _facts(formula, _SYNTAX)[0]


def iter_subformulas(formula) -> Iterator:
    """The subformulas of a formula, itself first, top-down and left to right."""
    return map(itemgetter(0), _walk(formula, _SYNTAX))


def dist_vars(formula) -> frozenset:
    """Set variables applied in a past distance predicate anywhere."""
    return _facts(formula, _SYNTAX)[2]


def so_quantified_vars(formula) -> frozenset:
    return frozenset(_facts(formula, _SYNTAX)[3])


def variable_names(formula) -> set:
    """Every variable name occurring in the formula, bound or free."""
    return _facts(formula, _SYNTAX)[1]


def _rebuild(formula, visit: Callable):
    """Rebuild a formula top-down, left to right, from an explicit stack.

    ``visit(node)`` returns ``(replacement, descend)``: ``descend`` is
    False to keep the replacement as it is, True to rebuild its children
    with the same visit, or the visit to rebuild them with (for a binder
    that changes what names mean in its body).  A replacement whose
    children all come back unchanged is returned as it is, so subtrees
    the visit leaves alone are shared with the input, not copied."""
    done = []                  # rebuilt subformulas, the latest last
    stack = [(formula, visit)]
    pop, push = stack.pop, stack.append
    while stack:
        node, visit = pop()
        if visit is None:      # its children are rebuilt, on top of done
            sub = done.pop()
            if type(node) is Or:
                left = done.pop()
                if left is not node.left or sub is not node.right:
                    node = Or(left, sub)
            elif sub is not node.sub:
                node = Not(sub) if type(node) is Not else replace(node, sub=sub)
            done.append(node)
            continue
        node, descend = visit(node)
        if descend is False or not (_SYNTAX.get(type(node)) or _SYNTAX.refuse(node)).children:
            done.append(node)
            continue
        push((node, None))
        if descend is not True:
            visit = descend
        if type(node) is Or:
            push((node.right, visit))
            push((node.left, visit))
        else:
            push((node.sub, visit))
    return done[0]


def _rename_atom(node, renames: Mapping[str, str]):
    """An atom with the names it carries renamed by the map."""
    changes = {field: renames[name] for field in _SYNTAX[type(node)].names
               if (name := getattr(node, field)) in renames}
    return replace(node, **changes) if changes else node


def rename_free(formula, renames: Mapping[str, str]):
    """Rename the free occurrences of variables of either kind, all at
    once, each old name to the new name the map gives it.

    A binder of an old name drops that entry for its body; a binder of a
    new name around a free occurrence of its old name would capture it,
    which is rejected.
    """
    return _rebuild(formula, _renaming(renames)) if renames else formula


def _renaming(renames: Mapping[str, str]) -> Callable:
    """The ``_rebuild`` visit of ``rename_free`` for one map."""
    targets = set(renames.values())

    def visit(node):
        if isinstance(node, (Letter, Leq, InSet, Dist)):
            return _rename_atom(node, renames), False
        if not isinstance(node, (ExistsFO, ExistsSO)):
            return node, True
        bound = node.var if isinstance(node, ExistsFO) else node.setvar
        if bound in targets:
            free = free_vars(node.sub)
            for old, new in renames.items():
                if new == bound != old and old in free[is_so_name(old)]:
                    raise WatlError(f"substitution would capture {new!r}")
        if bound not in renames:
            return node, True
        rest = {old: new for old, new in renames.items() if old != bound}
        return node, _renaming(rest) if rest else False

    return visit


def map_letter_atoms(formula, builder: Callable[[str, str], object]):
    """Replace every letter atom P[a](x) by builder(a, x)."""
    return _rebuild(formula, lambda node: (builder(node.letter, node.var), False)
                    if isinstance(node, Letter) else (node, True))


# ---------------------------------------------------------------------------
# Concrete syntax


class _Lexicon(NamedTuple):
    """The tokens of one logic besides names, naturals and white space."""

    symbols: tuple    # (text, token kind) pairs, in the order they are tried
    opener: str       # the one name that may open a longer token
    longer: Callable  # (text, tokens, start, end of the name) -> the end of
                      # the longer token it appended, or None for a plain name


def _tokenize(text: str, lexicon: _Lexicon, i: int = 0, opened: Optional[int] = None):
    """The tokens of ``text`` from ``i`` on as (kind, value, start) triples,
    ending in EOF at the end of the text; with ``opened``, the position of
    an open parenthesis, they end instead in EOF at the parenthesis that
    balances it."""
    tokens, n, depth = [], len(text), 0
    symbols, opener, longer = lexicon
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name == opener and (end := longer(text, tokens, i, j)) is not None:
                i = end
                continue
            tokens.append(("NAME", name, i))
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if 0 < sys.get_int_max_str_digits() < j - i:
                raise ParseError(f"number of more than {sys.get_int_max_str_digits()} digits", i)
            tokens.append(("NAT", int(text[i:j]), i))
            i = j
            continue
        for sym, kind in symbols:
            if text.startswith(sym, i):
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        if opened is not None:
            if kind == "(":
                depth += 1
            elif kind == ")":
                if not depth:
                    tokens.append(("EOF", None, i))
                    return tokens
                depth -= 1
        tokens.append((kind, sym, i))
        i += len(sym)
    if opened is not None:
        raise ParseError("unbalanced parentheses", opened)
    tokens.append(("EOF", None, n))
    return tokens


def _letter(text: str, tokens: list, i: int, j: int) -> Optional[int]:
    """P[a]: the letter up to the next ``]``."""
    if not text.startswith("[", j):
        return None
    k = text.find("]", j + 1)
    if k < 0:
        raise ParseError("unterminated letter predicate", i)
    tokens.append(("LETTER", text[j + 1:k], i))
    return k + 1


_LEXICON = _Lexicon(
    tuple((sym, sym) for sym in ("<=", "(", ")", "[", "]", ",", ".", "!", "|", "&"))
    + tuple((rel, "REL") for rel in (">=", "<", ">", "=")),
    "P", _letter)


class _Parser:
    """Operator-precedence parsing of a token list from ``pos`` on, shared by
    both logics, on an explicit stack of (binding strength, operands,
    constructor, closers) frames, so a formula of any depth parses.  A frame
    is built once the token after its operands binds no tighter than it:
    ``!`` (3), ``&`` (2) and ``|`` (1), so both connectives associate to the
    left; a binder (0) only at a closer or the end, so its body extends as
    far right as possible.  A group (-1) reads an operand before each of its
    closers.  A logic supplies ``connectives``, ``binder`` and ``atom``."""

    prefixes = {"!": (3, 1, Not, ""), "(": (-1, 1, None, ")")}
    connectives = {"|": (1, Or), "&": (2, rdl_and)}

    def __init__(self, tokens: list, pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        frames, operands, prefixes = [], [], self.prefixes
        while True:
            kind, value, pos = self.tokens[self.pos]
            self.pos += 1
            if kind in prefixes:
                frames.append(prefixes[kind])
                continue
            if kind == "NAME" and value in ("ex", "EX", "all"):
                var = self.expect("NAME")[1]
                self.expect(".")
                frames.append(self.binder(value, var, pos))
                continue
            operands.append(self.atom(kind, value, pos))
            while True:
                kind, value, pos = self.tokens[self.pos]
                strength, connective = self.connectives.get(kind, (0, None))
                while frames and frames[-1][0] >= strength:
                    _, arity, build, _ = frames.pop()
                    operands[-arity:] = [build(*operands[-arity:])]
                if strength:
                    self.pos += 1
                    frames.append((strength, 2, connective, ""))
                    break
                if not frames:
                    if kind != "EOF":
                        raise ParseError(f"trailing input starting at {value!r}", pos)
                    return operands[0]
                _, arity, build, closers = frames.pop()
                self.expect(closers[0])
                if closers[1:]:
                    frames.append((-1, arity, build, closers[1:]))
                    break
                if build:  # not a parenthesis
                    operands[-arity:] = [build(*operands[-arity:])]

    @staticmethod
    def binder(kind, var, pos):
        def bind(body):
            fo = is_fo_name(var) if kind == "all" else kind == "ex"
            if not (is_fo_name if fo else is_so_name)(var):
                raise ParseError(f"'{kind}' binds {'first' if fo else 'second'}-order variables, "
                                 f"got {var!r}", pos)
            exists = ExistsFO if fo else ExistsSO
            return Not(exists(var, Not(body))) if kind == "all" else exists(var, body)
        return 0, 1, bind, ""

    def atom(self, kind, value, pos):
        if kind == "LETTER":
            self.expect("(")
            var = self.expect("NAME")[1]
            self.expect(")")
            if not is_fo_name(var):
                raise ParseError("letter predicates take a first-order variable", pos)
            return Letter(value, var)
        if kind == "NAME" and value == "dpast":
            self.expect("[")
            tok = self.next()
            if tok[0] == "<=":
                rel = "<="
            elif tok[0] == "REL":
                rel = tok[1]
            else:
                raise ParseError("expected a relation in dpast[...]", tok[2])
            bound = self.expect("NAT")[1]
            self.expect("]")
            self.expect("(")
            setvar = self.expect("NAME")[1]
            self.expect(",")
            var = self.expect("NAME")[1]
            self.expect(")")
            if not is_so_name(setvar) or not is_fo_name(var):
                raise ParseError("dpast takes (set variable, position variable)", pos)
            return Dist(rel, bound, setvar, var)
        if kind == "NAME" and is_so_name(value):
            self.expect("(")
            var = self.expect("NAME")[1]
            self.expect(")")
            return InSet(value, var)
        if kind == "NAME" and is_fo_name(value):
            self.expect("<=")
            right = self.expect("NAME")[1]
            if not is_fo_name(right):
                raise ParseError("<= compares first-order variables", pos)
            return Leq(value, right)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_rdl(text: str):
    """Parse concrete syntax into a formula."""
    return _Parser(_tokenize(text, _LEXICON)).parse()


def to_text(formula) -> str:
    """Render a formula.  At any depth, parse_rdl reads the text back to a
    formula of the same text, unless a letter holds a ``]``, which would
    end its letter test early."""
    return "".join(_walk(formula, _SYNTAX, text=True))


# ---------------------------------------------------------------------------
# Semantics


class Assignment:
    """Variable assignment: positions for first-order variables,
    position sets for second-order variables (1-based)."""

    def __init__(self, fo: Optional[Mapping] = None, so: Optional[Mapping] = None):
        self.fo = dict(fo or {})
        self.so = {k: frozenset(v) for k, v in (so or {}).items()}

    def with_fo(self, var, position):
        out = Assignment(self.fo, self.so)
        out.fo[var] = position
        return out

    def with_so(self, var, positions):
        out = Assignment(self.fo, self.so)
        out.so[var] = frozenset(positions)
        return out

    def __repr__(self):
        return f"Assignment(fo={self.fo}, so={self.so})"


def validate_assignment(free, word: TimedWord, sigma: Assignment, context: str) -> None:
    """Raise unless the assignment covers the (first-order, second-order)
    free-variable pair and stays in the word's position range."""
    fo, so = free
    missing = sorted(fo - set(sigma.fo)) + sorted(so - set(sigma.so))
    if missing:
        raise WatlError(f"unbound variables in {context}: {', '.join(missing)}")
    n = len(word)
    for var, pos in sigma.fo.items():
        if not 1 <= pos <= n:
            raise WatlError(f"assignment sends {var!r} to {pos}, outside 1..{n}")
    for var, positions in sigma.so.items():
        if any(not 1 <= p <= n for p in positions):
            raise WatlError(f"assignment of {var!r} leaves 1..{n}")


class _Compiler:
    """Compiles formulas over one word into closures over a flat
    environment, a list with one slot per variable binding.

    First-order slots hold positions; second-order slots hold int
    bitmasks in which bit p-1 stands for position p.  The slots of the
    assignment come first, and every binder gets a fresh slot of its own,
    so shadowing needs no save and restore.  Compiling and the compiled
    closures each take one stack frame per formula level.
    """

    def __init__(self, word: TimedWord, sigma: Assignment):
        self.n = len(word)
        self.letters = (None,) + word.letters
        self.sums = (0,) + word.prefix_sums()
        self.env = []
        self.fo = {var: self.slot(pos) for var, pos in sigma.fo.items()}
        self.so = {var: self.slot(sum(1 << (p - 1) for p in positions))
                   for var, positions in sigma.so.items()}

    def slot(self, value=None) -> int:
        self.env.append(value)
        return len(self.env) - 1

    def compile(self, node, fo: dict, so: dict) -> Callable:
        """A closure env -> truth of the formula; ``fo`` and ``so`` map the
        variables in scope to their slots."""
        if isinstance(node, Letter):
            letters, i, a = self.letters, fo[node.var], node.letter
            return lambda env: letters[env[i]] == a
        if isinstance(node, Leq):
            i, j = fo[node.left], fo[node.right]
            return lambda env: env[i] <= env[j]
        if isinstance(node, InSet):
            s, i = so[node.setvar], fo[node.var]
            return lambda env: env[s] >> (env[i] - 1) & 1
        if isinstance(node, Dist):
            sums, s, i = self.sums, so[node.setvar], fo[node.var]
            compare, bound = _COMPARE[node.rel], node.bound

            def dist(env):
                p = env[i]
                # The greatest set position before p, or 0 for none.
                z = (env[s] & ((1 << (p - 1)) - 1)).bit_length()
                return compare(sums[p] - sums[z], bound)
            return dist
        if isinstance(node, Not):
            sub = self.compile(node.sub, fo, so)
            return lambda env: not sub(env)
        if isinstance(node, Or):
            left = self.compile(node.left, fo, so)
            right = self.compile(node.right, fo, so)
            return lambda env: left(env) or right(env)
        if isinstance(node, (ExistsFO, ExistsSO)):
            k, sub, values = self.bind(node, fo, so, self.compile)

            def exists(env):
                for v in values:
                    env[k] = v
                    if sub(env):
                        return True
                return False
            return exists
        raise TypeError(f"not a formula: {node!r}")

    def bind(self, node, fo: dict, so: dict, compile_sub: Callable) -> tuple:
        """(fresh slot, compiled body, values the slot takes) for an
        existential binder of this logic or the weighted one; binders of
        set variables carry ``setvar``."""
        k = self.slot()
        setvar = getattr(node, "setvar", None)
        if setvar is not None:
            return k, compile_sub(node.sub, fo, {**so, setvar: k}), range(1 << self.n)
        return k, compile_sub(node.sub, {**fo, node.var: k}, so), range(1, self.n + 1)


@refuse_deep
def model_check(formula, word: TimedWord, assignment: Optional[Assignment] = None) -> bool:
    """Decide word, assignment |= formula.

    The formula is compiled once per call into closures over int
    positions and bitmask position sets (see ``_Compiler``).  Second-order
    quantifiers still enumerate all 2^n position subsets, so this is
    exponential in the word length and intended for desk-scale inputs.
    A formula nested deeper than the interpreter's recursion limit is
    refused with a ``WatlError``.
    """
    sigma = assignment or Assignment()
    validate_assignment(free_vars(formula), word, sigma, "model check")
    compiler = _Compiler(word, sigma)
    check = compiler.compile(formula, compiler.fo, compiler.so)
    return bool(check(compiler.env))


# ---------------------------------------------------------------------------
# Fragments


@dataclass(frozen=True)
class RdlClassification:
    dist_vars: frozenset
    free_fo: frozenset
    free_so: frozenset
    is_sentence: bool
    in_rdl_past: bool
    exists_rdl_past_sentence: bool


def classify(formula) -> RdlClassification:
    """Fragment membership used by the weighted logic.

    in_rdl_past: no second-order quantifier binds a variable that is
    used in a past distance predicate anywhere in the formula.
    exists_rdl_past_sentence: the formula is a sentence of the shape
    EX X1. ... EX Xm. body where the Xi are distinct, {X1..Xm} is exactly
    the set of distance variables of the body and the body is in the past
    fragment.
    """
    (fo, so), _, dvars, quantified = _facts(formula, _SYNTAX)
    is_sentence = not fo and not so
    in_past = dvars.isdisjoint(quantified)
    # The prefix binders are the first set quantifiers the walk meets and
    # hold no distance test, so the body quantifies the rest and tests dvars.
    body, m = formula, 0
    while isinstance(body, ExistsSO):
        body, m = body.sub, m + 1
    prefix = frozenset(quantified[:m])
    exists_past = (is_sentence and len(prefix) == m and prefix == dvars
                   and dvars.isdisjoint(quantified[m:]))
    return RdlClassification(dvars, fo, so, is_sentence, in_past, exists_past)
