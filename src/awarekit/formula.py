"""Abstract and concrete syntax for the explicit-knowledge language and its
extension with primitive awareness / explicit-knowledge operators.

The AST has seven node kinds: Top, Atom, Not, And, Know, Aware, ExplicitKnow.
Disjunction and implication are parser sugar, rewritten to Not/And at parse
time so there is a single canonical AST for evaluation.
"""

from __future__ import annotations

import enum
import re
from functools import lru_cache, partial
from itertools import chain, count
from types import SimpleNamespace

from .values import Frozen


class Lang(enum.Enum):
    """Language tag: L is the explicit-knowledge fragment (no Aware/ExplicitKnow
    grammar nodes), LKA additionally has primitive Aware, with ExplicitKnow
    defined from it."""

    L = "L"
    LKA = "LKA"


class Formula(Frozen):
    __slots__ = ()


# Each node writes out its constructor and `__eq__` field by field, with no
# loop over `_fields`: evaluators build and compare nodes in their inner loops.
# `__eq__` compares tuples, which skip a field that is the same object in both.


class Top(Formula):
    __slots__ = ("_h", "_at")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented


class Atom(Formula):
    __slots__ = ("name", "_h", "_at")
    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented


class Not(Formula):
    __slots__ = ("child", "_h", "_at")
    _fields = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.child,) == (other.child,)
        return NotImplemented


class And(Formula):
    __slots__ = ("left", "right", "_h", "_at")
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented


class _Modal(Formula):
    """The agent-indexed nodes Know, Aware and ExplicitKnow; an instance
    equals only an instance of its own node kind."""

    __slots__ = ()
    _fields = ("agent", "child")

    def __init__(self, agent: str, child: Formula):
        object.__setattr__(self, "agent", agent)
        object.__setattr__(self, "child", child)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.agent, self.child) == (other.agent, other.child)
        return NotImplemented


class Know(_Modal):
    __slots__ = ("agent", "child", "_h", "_at")


class Aware(_Modal):
    __slots__ = ("agent", "child", "_h", "_at")


class ExplicitKnow(_Modal):
    __slots__ = ("agent", "child", "_h", "_at")


# Evaluator memo tables hash the same subterms many millions of times, so
# node hashes are computed once and stored on the instance.
_HASH_PARTS = {
    Top: lambda f: (0,),
    Atom: lambda f: (1, f.name),
    Not: lambda f: (2, f.child),
    And: lambda f: (3, f.left, f.right),
    Know: lambda f: (4, f.agent, f.child),
    Aware: lambda f: (5, f.agent, f.child),
    ExplicitKnow: lambda f: (6, f.agent, f.child),
}


def _cached_hash(self):
    try:
        return object.__getattribute__(self, "_h")
    except AttributeError:
        pass
    h = hash(_HASH_PARTS[type(self)](self))
    object.__setattr__(self, "_h", h)
    return h


for _cls in _HASH_PARTS:
    _cls.__hash__ = _cached_hash


TOP = Top()


def lor(f: Formula, g: Formula) -> Formula:
    return Not(And(Not(f), Not(g)))


def implies(f: Formula, g: Formula) -> Formula:
    return Not(And(f, Not(g)))


def iff(f: Formula, g: Formula) -> Formula:
    return And(implies(f, g), implies(g, f))


def conj(formulas) -> Formula:
    """Conjunction of a list; TOP for the empty list."""
    formulas = list(formulas)
    if not formulas:
        return TOP
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def atoms_of(f: Formula) -> frozenset:
    """The set of atom names occurring in f, memoized on the node."""
    try:
        return object.__getattribute__(f, "_at")
    except AttributeError:
        pass
    if isinstance(f, Atom):
        out = frozenset((f.name,))
    elif isinstance(f, (Not, Know, Aware, ExplicitKnow)):
        out = atoms_of(f.child)
    elif isinstance(f, And):
        out = atoms_of(f.left) | atoms_of(f.right)
    else:
        out = frozenset()
    object.__setattr__(f, "_at", out)
    return out


def fold(f: Formula, alg, memo=None):
    """The value of f in an algebra: the one walk over formulas.

    `alg` gives the grammar nodes their meaning on its signatures: `top()`,
    `atom(p)`, `neg(s)`, `conj(s, t)`, `know(a, s)` and `aware(a, s)`. Its
    `lang` names the language whose defined operators unfold here, on
    signatures: `X{a} g` as conj(aware, know), and under L also `A{a} g` as
    `K{a} g | K{a} ~K{a} g`. With lang None nothing unfolds and the algebra
    gives `explicit(a, s)` as well. `memo` maps formulas to signatures and
    may outlive the call; None walks without one, each path of a shared
    subterm on its own.
    """
    if memo is not None:
        got = memo.get(f)
        if got is not None:
            return got
    kind = type(f)
    if kind is Not:
        got = alg.neg(fold(f.child, alg, memo))
    elif kind is And:
        got = alg.conj(fold(f.left, alg, memo), fold(f.right, alg, memo))
    elif kind is Atom:
        got = alg.atom(f.name)
    elif kind is Know:
        got = alg.know(f.agent, fold(f.child, alg, memo))
    elif kind is Aware or kind is ExplicitKnow:
        a, s = f.agent, fold(f.child, alg, memo)
        if alg.lang is None:
            got = alg.aware(a, s) if kind is Aware else alg.explicit(a, s)
        else:
            got = aware_in(alg, a, s)
            if kind is ExplicitKnow:
                got = alg.conj(got, alg.know(a, s))
    elif kind is Top:
        got = alg.top()
    else:
        raise TypeError(f"not a formula: {f!r}")
    if memo is not None:
        memo[f] = got
    return got


def aware_in(alg, a, s):
    """fold's value of `A{a} g` in alg, from the value s of g: under L it
    unfolds as `K{a} g | K{a} ~K{a} g`."""
    if alg.lang is not Lang.L:
        return alg.aware(a, s)
    nk = alg.neg(alg.know(a, s))
    return alg.neg(alg.conj(nk, alg.neg(alg.know(a, nk))))


def terms(lang=None):
    """The term algebra: fold rebuilds the formula, with the defined
    operators of lang unfolded."""
    return SimpleNamespace(lang=lang, top=lambda: TOP, atom=Atom, neg=Not, conj=And,
                           know=Know, aware=Aware, explicit=ExplicitKnow)


def _depths(lang):
    """Tree depth, counting A and X as their unfolding in lang."""
    def up(a, s):
        return s + 1

    return SimpleNamespace(lang=lang, top=lambda: 0, atom=lambda p: 0, neg=lambda s: s + 1,
                           conj=lambda s, t: 1 + max(s, t), know=up, aware=up, explicit=up)


def _with(kind):
    return lambda a, s: s | {kind}


_KINDS = SimpleNamespace(lang=None, top=lambda: frozenset(), atom=lambda p: frozenset(),
                         neg=lambda s: s | {Not}, conj=lambda s, t: s | t | {And},
                         know=_with(Know), aware=_with(Aware), explicit=_with(ExplicitKnow))

_AGENTS = SimpleNamespace(lang=None, top=lambda: frozenset(), atom=lambda p: frozenset(),
                          neg=lambda s: s, conj=frozenset.union, know=lambda a, s: s | {a},
                          aware=lambda a, s: s | {a}, explicit=lambda a, s: s | {a})

_TEXT = SimpleNamespace(lang=None, top=lambda: "T", atom=str, neg="~{}".format,
                        conj="({} & {})".format, know="K{{{}}} {}".format,
                        aware="A{{{}}} {}".format, explicit="X{{{}}} {}".format)


def node_kinds(f: Formula) -> frozenset:
    """The modal and connective node kinds occurring in f."""
    return fold(f, _KINDS, {})


def agents_of(f: Formula) -> frozenset:
    return fold(f, _AGENTS, {})


def require_names(atoms, agents) -> None:
    """Refuse atom and agent names that formulas cannot carry: parse() would
    not read them back (an atom T would read as the constant)."""
    for kind, names, pattern, rule in (
            ("atom", atoms, _ATOM_NAME, "start with a lowercase letter, then letters, digits or _"),
            ("agent", agents, _AGENT_NAME, "be non-empty, without braces or whitespace")):
        for name in sorted(names):
            if not re.fullmatch(pattern, name):
                raise ValueError(f"{kind} name {name!r} cannot be written in formulas: "
                                 f"an {kind} name must {rule}")


def require_signature(f: Formula, atoms, agents) -> None:
    """Refuse a formula that mentions atoms or agents outside a model's."""
    for what, used, known in (("atoms", atoms_of(f), atoms), ("agents", agents_of(f), agents)):
        unknown = used - frozenset(known)
        if unknown:
            raise KeyError(f"formula mentions {what} outside the model: "
                           f"{', '.join(sorted(unknown))}")


def depth_of(f: Formula) -> int:
    return fold(f, _depths(None), {})


def in_language(f: Formula, lang: Lang) -> bool:
    """True iff f uses only grammar nodes of lang."""
    return lang is Lang.LKA or not node_kinds(f) & {Aware, ExplicitKnow}


def expand_defined(f: Formula, lang: Lang) -> Formula:
    """Rewrite defined operators to grammar primitives of lang: X{a} g to
    A{a} g & K{a} g, and under L also A{a} g to K{a} g | K{a} ~K{a} g. The
    walk shares each subterm's rewrite, so the result is a DAG no larger
    than a constant times f."""
    return fold(f, terms(lang), {})


# ---------------------------------------------------------------------------
# concrete syntax


def to_text(f: Formula) -> str:
    """Canonical text form; round-trips through parse(). The text is a tree,
    so the walk keeps no memo."""
    return fold(f, _TEXT)


# The parser refuses a formula whose tree, as the evaluators walk it, is
# deeper than this: a node is one level, except that A and X count as the six
# and seven levels of their unfolding by fold in L. It also refuses text whose
# parentheses and prefix operators nest deeper, which bounds its own
# recursion. At this bound parsing, to_text, expand_defined and every
# evaluator stay under Python's default recursion limit of 1000.
MAX_DEPTH = 128

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_ATOM_NAME, _AGENT_NAME = r"[a-z][a-zA-Z0-9_]*", r"[^{}\s]+"  # the names the parser reads
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<modal>[KAX]\{(?P<agent>%s)\})
  | (?P<top>T\b)
  | (?P<atom>%s)
  | (?P<arrow>->)
  | (?P<op>[~&|()])
    """ % (_AGENT_NAME, _ATOM_NAME),
    re.VERBOSE,
)

_MODAL_NODE = {"K": Know, "A": Aware, "X": ExplicitKnow}


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind, text_ = m.lastgroup, m.group()
        if kind == "modal":
            tokens.append((kind, (text_[0], m.group("agent")), pos))
        elif kind != "ws":  # an operator is its own kind
            tokens.append((text_ if kind == "op" else kind, text_, pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _shown(tok):
    return "end of formula" if tok[0] == "end" else f"token {tok[1]!r}"


class _Parser:
    """Recursive descent over the precedence chain -> < | < & < unary."""

    def __init__(self, tokens, lang):
        self.tokens = tokens
        self.lang = lang
        self.i = 0
        self.level = 0  # parser recursion: open parentheses, prefix operators, ->
        self.unfolded = _depths(Lang.L)  # the depth of a tree as the evaluators walk it
        self.depths = {}

    @staticmethod
    def bound(depth, pos):
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested too deeply: more than {MAX_DEPTH} levels", pos)

    def nested(self, parse, pos):
        """Parse one level deeper, refusing to recurse past the bound."""
        self.level += 1
        self.bound(self.level, pos)
        out = parse()
        self.level -= 1
        return out

    def bounded(self, f, pos):
        self.bound(fold(f, self.unfolded, self.depths), pos)
        return f

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_formula(self):
        left = self.parse_or()
        if self.peek()[0] == "arrow":
            pos = self.advance()[2]
            right = self.nested(self.parse_formula, pos)  # right associative
            return self.bounded(implies(left, right), pos)
        return left

    def parse_or(self):
        out = self.parse_and()
        while self.peek()[0] == "|":
            pos = self.advance()[2]
            out = self.bounded(lor(out, self.parse_and()), pos)
        return out

    def parse_and(self):
        out = self.parse_unary()
        while self.peek()[0] == "&":
            pos = self.advance()[2]
            out = self.bounded(And(out, self.parse_unary()), pos)
        return out

    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind == "~":
            self.advance()
            return self.bounded(Not(self.nested(self.parse_unary, pos)), pos)
        if kind == "modal":
            self.advance()
            letter, agent = value
            if letter in ("A", "X") and self.lang is Lang.L:
                raise ParseError(
                    f"operator {letter}{{{agent}}} is not a grammar primitive of L", pos
                )
            child = self.nested(self.parse_unary, pos)
            return self.bounded(_MODAL_NODE[letter](agent, child), pos)
        if kind == "top":
            self.advance()
            return TOP
        if kind == "atom":
            self.advance()
            return Atom(value)
        if kind == "(":
            self.advance()
            inner = self.nested(self.parse_formula, pos)
            tok = self.advance()
            if tok[0] == ")":
                return inner
            raise ParseError(f"expected ')', found {_shown(tok)}", tok[2])
        raise ParseError(f"unexpected {_shown(self.peek())}", pos)


def parse(text: str, lang: Lang = Lang.LKA) -> Formula:
    parser = _Parser(_tokenize(text), lang)
    f = parser.parse_formula()
    end = parser.advance()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return f


# ---------------------------------------------------------------------------
# bounded enumeration


# formula_count, and so enumerate_formulas, refuses more formulas than this
# before any is allocated. The largest list the checks, tests and benchmark
# build has 91,794 (LKA, two atoms and two agents, depth 3); depth 4 starts at
# 2.6e6 (L, one atom, one agent). The checks refuse past it before set-up: an
# equivalence check walks the formulas to list its disagreements, and an axiom
# suite enumerates them to list its failures per instance.
MAX_FORMULAS = 10 ** 6


def formula_count(atoms, agents, depth: int, lang: Lang = Lang.L) -> int:
    """The length of enumerate_formulas(atoms, agents, depth, lang), refusing
    more than MAX_FORMULAS at the first level past it, as the enumerator does.
    Level d holds a Not and per agent a K (and under LKA an A) of each level
    d-1 formula, and an And of each unordered pair below d with one at d-1."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not atoms or not agents:
        raise ValueError("atoms and agents must be nonempty")
    unary = 1 + len(frozenset(agents)) * (2 if lang is Lang.LKA else 1)
    exact = upto = 1 + len(frozenset(atoms))
    below = reached = 0
    while reached < depth and upto <= MAX_FORMULAS:
        exact = exact * unary + (upto * (upto + 1) - below * (below + 1)) // 2
        below, upto, reached = upto, upto + exact, reached + 1
    if upto > MAX_FORMULAS:
        more = "more than " if reached < depth else ""
        raise ValueError(f"refusing to enumerate {more}{upto:,} formulas of depth up to {depth} "
                         f"(limit {MAX_FORMULAS:,}); lower the depth")
    return upto


def _formulas(atoms, agents, lang, depth=None, alg=None):
    """The formulas of depth at most `depth` (of every depth where None) over
    the atoms and agents in enumerate_formulas' order, each made when it is
    asked for from its operands, as fold makes it in `alg` (terms() if None)."""
    alg = alg or terms()
    agents = sorted(agents)
    out = [alg.top(), *map(alg.atom, sorted(atoms))]
    yield from out
    below = 0  # out[below:] are the values of the formulas of the depth below
    for _ in count() if depth is None else range(depth):
        n, prev = len(out), out[below:]
        level = chain(
            map(alg.neg, prev),
            # ordered left <= right by enumeration index, at least one child
            # of the depth below, so each pair appears at exactly one depth
            (alg.conj(out[i], out[j]) for i in range(n) for j in range(max(i, below), n)),
            *(map(partial(alg.know, a), prev) for a in agents),
            *(map(partial(alg.aware, a), prev) for a in agents if lang is Lang.LKA))
        for f in level:
            out.append(f)
            yield f
        below = n


@lru_cache(maxsize=256)
def _enumerate_cached(atoms, agents, depth, lang):
    return tuple(_formulas(atoms, agents, lang, depth))


def enumerate_formulas(atoms, agents, depth: int, lang: Lang = Lang.L):
    """Deterministic, duplicate-free sequence of all formulas of AST depth at
    most `depth` over the given atoms and agents.

    Ordered by depth, then node kind (Top, atoms, Not, And, Know, Aware), then
    by the enumeration indices of the subformulas; And arguments are ordered
    (left index <= right index) to skip commutative duplicates. The depth-d
    sequence is a prefix of the depth-(d+1) sequence. Purely syntactic:
    semantically redundant formulas are kept. More than MAX_FORMULAS are
    refused.
    """
    formula_count(atoms, agents, depth, lang)
    return list(_enumerate_cached(frozenset(atoms), frozenset(agents), depth, lang))
