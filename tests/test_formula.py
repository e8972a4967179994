import random
import sys
import time

import pytest

from awarekit.fh import FHEvaluator
from awarekit.formula import (
    MAX_DEPTH,
    MAX_FORMULAS,
    And,
    Atom,
    Aware,
    ExplicitKnow,
    Know,
    Lang,
    Not,
    ParseError,
    TOP,
    atoms_of,
    agents_of,
    depth_of,
    enumerate_formulas,
    expand_defined,
    formula_count,
    iff,
    implies,
    in_language,
    lor,
    parse,
    to_text,
)
from awarekit.hms import DenotationEvaluator, denotation
from awarekit.klm import Evaluator, eval_L
from awarekit.kripke import WorldId
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import Truth, truth_of

from conftest import make_trade


def test_truth_enum_is_not_boolean():
    with pytest.raises(TypeError):
        bool(Truth.TRUE)
    assert truth_of(True) is Truth.TRUE
    assert truth_of(False) is Truth.FALSE
    assert Truth.UNDEFINED.value == "Undefined"


def test_parse_round_trip():
    for text in ["T", "p", "~p", "(p & q)", "K{a} p", "A{a} ~p",
                 "X{b} (p & K{a} q)", "~(p & ~q)"]:
        f = parse(text)
        assert to_text(f) == text
        assert parse(to_text(f)) == f


def test_parse_sugar():
    assert parse("p | q") == lor(Atom("p"), Atom("q"))
    assert parse("p -> q") == implies(Atom("p"), Atom("q"))
    # right associative
    assert parse("p -> q -> r") == implies(Atom("p"), implies(Atom("q"), Atom("r")))
    assert parse("K{a} p & q") == And(Know("a", Atom("p")), Atom("q"))


def test_parse_rejects_awareness_in_L():
    with pytest.raises(ParseError):
        parse("A{a} p", Lang.L)
    with pytest.raises(ParseError):
        parse("X{a} p", Lang.L)
    assert parse("K{a} p", Lang.L) == Know("a", Atom("p"))


def test_parse_errors():
    for bad in ["", "p &", "(p", "p q", "K{} p", "&"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_errors_name_the_end_of_the_formula():
    """Text that stops short says so, where it stops; a wrong token is
    named as a token."""
    for bad, message in [("(((", "unexpected end of formula (at position 3)"),
                         ("", "unexpected end of formula (at position 0)"),
                         ("K{a}", "unexpected end of formula (at position 4)"),
                         ("(p & q", "expected ')', found end of formula (at position 6)"),
                         ("(p q", "expected ')', found token 'q' (at position 3)"),
                         ("&", "unexpected token '&' (at position 0)")]:
        with pytest.raises(ParseError) as raised:
            parse(bad)
        assert str(raised.value) == message, bad


def test_atoms_agents_depth():
    f = parse("K{a} (p & A{b} q)")
    assert atoms_of(f) == frozenset({"p", "q"})
    assert agents_of(f) == frozenset({"a", "b"})
    assert depth_of(f) == 3
    assert atoms_of(TOP) == frozenset()


def test_in_language():
    assert in_language(parse("K{a} ~p"), Lang.L)
    assert not in_language(parse("A{a} p"), Lang.L)
    assert in_language(parse("X{a} p"), Lang.LKA)


def test_walkers_visit_shared_subterms_once():
    """On a DAG whose tree has 2^64 paths the walkers stay linear."""
    g = Know("a", Atom("p"))
    for _ in range(64):
        g = And(g, g)
    assert agents_of(g) == frozenset({"a"}) and depth_of(g) == 65
    assert in_language(g, Lang.L)
    assert not in_language(And(g, Aware("b", g)), Lang.L)


def test_expand_defined_under_L():
    a = Aware("a", Atom("p"))
    k = Know("a", Atom("p"))
    assert expand_defined(a, Lang.L) == lor(k, Know("a", Not(k)))
    assert in_language(expand_defined(parse("X{a} (p & A{b} q)"), Lang.L), Lang.L)
    # under LKA only X is defined
    assert expand_defined(a, Lang.LKA) == a
    x = ExplicitKnow("a", Atom("p"))
    assert expand_defined(x, Lang.LKA) == And(a, k)


def test_entry_points_of_L_refuse_what_the_evaluators_unfold():
    """eval_L and denotation take formulas of L only. The evaluators behind
    them, and the awareness-structure evaluator, read A and X under L by
    unfolding them, to the values of the expanded formula."""
    k = make_trade()
    fh, hms = fh_transform(k), h_transform(k)
    w = WorldId("w1", frozenset({"i", "l"}))
    for text in ("A{b} l", "X{b} l", "K{o} ~A{b} (i & X{o} l)"):
        f = parse(text)
        for refused in (lambda: eval_L(k, w, f), lambda: denotation(hms, f)):
            with pytest.raises(ValueError, match="language"):
                refused()
        g = expand_defined(f, Lang.L)
        for v in Evaluator(k, Lang.L).states:
            assert Evaluator(k, Lang.L).value(f, v) is eval_L(k, v, g), (text, v)
        ev = FHEvaluator(fh, Lang.L)
        for v in ev.states:
            assert ev.value(f, v) is FHEvaluator(fh, Lang.L).value(g, v), (text, v)
        assert DenotationEvaluator(hms).denotation(f) == denotation(hms, g), text


def test_iff_shape():
    p, q = Atom("p"), Atom("q")
    assert iff(p, q) == And(implies(p, q), implies(q, p))


def test_enumeration_is_duplicate_free_and_prefix_monotone():
    small = enumerate_formulas(["p"], ["a"], 1, Lang.L)
    big = enumerate_formulas(["p"], ["a"], 2, Lang.L)
    assert len(set(small)) == len(small)
    assert big[: len(small)] == small
    # depth bound respected and all depths realized
    assert max(depth_of(f) for f in big) == 2
    assert TOP in small and Atom("p") in small


def test_enumeration_counts_and_language():
    l_forms = enumerate_formulas(["p"], ["a"], 1, Lang.L)
    lka_forms = enumerate_formulas(["p"], ["a"], 1, Lang.LKA)
    assert len(lka_forms) > len(l_forms)
    assert all(in_language(f, Lang.L) for f in l_forms)
    assert any(isinstance(f, Aware) for f in lka_forms)
    with pytest.raises(ValueError):
        enumerate_formulas([], ["a"], 1)
    with pytest.raises(ValueError):
        enumerate_formulas(["p"], ["a"], -1)


def test_formula_count_is_the_enumeration_length():
    for atoms, agents, depth in [(["p"], ["a"], 3), (["p", "q"], ["a", "b"], 2),
                                 (["p", "q", "r"], ["a"], 2), (["p", "q"], ["a", "b"], 0)]:
        for lang in Lang:
            assert formula_count(atoms, agents, depth, lang) == \
                len(enumerate_formulas(atoms, agents, depth, lang)), (atoms, depth, lang)
    # the figures of the budget's comment, and the largest refused case: past
    # MAX_FORMULAS the count and the enumerator refuse, giving the count; a
    # deeper depth is refused at the first level past it, at once
    assert formula_count(["i", "l"], ["b", "o"], 3, Lang.LKA) == 91_794
    for args, n in [((["p"], ["a", "b"], 4), "14,903,066"), ((["p"], ["a"], 4), "2,598,059"),
                    ((list("pqrstu"), ["a", "b"], 3, Lang.LKA), "4,054,120"),
                    ((["p"], ["a"], 10 ** 6), "more than 2,598,059")]:
        for refuses in (formula_count, enumerate_formulas):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"refusing to enumerate {n} formulas of depth "
                                                 f"up to {args[2]} "):
                refuses(*args)
            assert time.perf_counter() - start < 1e-3, args
    with pytest.raises(ValueError, match="depth must be >= 0"):
        formula_count(["p"], ["a"], -1)
    assert MAX_FORMULAS == 10 ** 6


def test_commutative_and_duplicates_skipped():
    forms = enumerate_formulas(["p", "q"], ["a"], 1, Lang.L)
    pq = And(Atom("p"), Atom("q"))
    qp = And(Atom("q"), Atom("p"))
    assert (pq in forms) != (qp in forms)


# kind of nesting: levels per repetition, text of n repetitions; a level is
# a node of the tree the evaluators walk (A and X unfold to six and seven
# nodes in L), or a parenthesis or prefix operator in the text
_NESTING = {
    "not": (1, lambda n: "~" * n + "i"),
    "know": (1, lambda n: "K{b} " * n + "i"),
    "aware": (6, lambda n: "A{b} " * n + "i"),
    "explicit": (7, lambda n: "X{b} " * n + "i"),
    "and-left": (1, lambda n: " & ".join(["i"] * (n + 1))),
    "and-right": (1, lambda n: "(i & " * n + "l" + ")" * n),
    "or": (3, lambda n: " | ".join(["i"] * (n + 1))),
    "implies": (3, lambda n: " -> ".join(["i"] * (n + 1))),
    "parens": (1, lambda n: "(" * n + "i" + ")" * n),
    "not-parens": (2, lambda n: "~(" * n + "i" + ")" * n),
}


def _nested(past=0):
    """One text per kind of nesting, as deep as the bound allows, or `past`
    repetitions deeper."""
    return {kind: text(MAX_DEPTH // per + past) for kind, (per, text) in _NESTING.items()}


def test_parse_refuses_nesting_beyond_the_bound():
    for text in _nested().values():
        parse(text)
    too_deep = list(_nested(past=1).values()) + [
        "(" * 5000 + "p" + ")" * 5000, "~" * 5000 + "p", " -> ".join(["p"] * 5000),
        " | ".join(["p"] * 5000)]
    for text in too_deep:
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


def test_flat_chains_and_parentheses_are_not_nesting():
    """Long chains of one binary operator and redundant parentheses parse as
    deep as the tree they build allows, and evaluate."""
    k = make_trade()
    w = WorldId("w1", frozenset({"i", "l"}))
    ev = Evaluator(k, Lang.L)
    either = ev.value(lor(Atom("i"), Atom("l")), w)
    assert ev.value(parse(" | ".join(["i"] * 29 + ["l"]), Lang.L), w) is either
    assert ev.value(parse("(" * 100 + "i | l" + ")" * 100, Lang.L), w) is either
    assert ev.value(parse(" -> ".join(["i"] * 30), Lang.L), w) is Truth.TRUE
    assert parse("~(" * 40 + "p" + ")" * 40) == parse("~" * 40 + "p")


def test_nesting_bound_stays_under_the_recursion_limit():
    """At the bound, parsing, printing, expansion and every evaluator (also
    on nested A and X under L, unexpanded as fold unfolds them and expanded)
    run under Python's default limit."""
    k = make_trade()
    fh, hms = fh_transform(k), h_transform(k)
    w = WorldId("w1", frozenset({"i", "l"}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for kind, text in _nested().items():
            f = parse(text)
            assert parse(to_text(f)) == f, kind
            g = expand_defined(f, Lang.L)
            expand_defined(f, Lang.LKA)
            Evaluator(k, Lang.LKA).value(f, w)
            FHEvaluator(fh, Lang.LKA).value(f, "w1")
            for h in (f, g):
                Evaluator(k, Lang.L).value(h, w)
                FHEvaluator(fh, Lang.L).value(h, "w1")
                DenotationEvaluator(hms).value(h, "w1@{i,l}")
    finally:
        sys.setrecursionlimit(limit)


TOKENS = ["~", "&", "|", "->", "(", ")", "K{a}", "A{b}", "X{a}", "K{}", "T", "p", "q",
          "r2", "Tp", "->-", "{", "}", "@", "\t", "é"]


def _random_tokens(rng, depth):
    """The tokens of a random formula, written with every kind of sugar."""
    if depth == 0 or rng.random() < 0.3:
        return [rng.choice(["p", "q", "T", "r2"])]
    op = rng.choice(["~", "K{a}", "A{b}", "X{a}", "&", "|", "->", "()"])
    if op in ("&", "|", "->"):
        return ["(", *_random_tokens(rng, depth - 1), op, *_random_tokens(rng, depth - 1), ")"]
    if op == "()":
        return ["(", *_random_tokens(rng, depth - 1), ")"]
    return [op, *_random_tokens(rng, depth - 1)]


def test_parser_fuzz():
    """Random token strings either parse and round-trip through to_text, or
    are refused with ParseError."""
    rng = random.Random(4)
    parsed = refused = 0
    for n in range(3000):
        if n % 50 == 0:  # deep nesting, on either side of the bound
            tokens = rng.choices(["~", "(", "K{a}", "A{b}"], k=rng.randint(20, 1500))
            tokens += ["p"] + [")"] * tokens.count("(")
        elif n % 3 == 0:
            tokens = rng.choices(TOKENS, k=rng.randint(1, 12))
        else:  # a formula, and in half the cases a few token edits of it
            tokens = _random_tokens(rng, rng.randint(0, 6))
            for _ in range(rng.choice([0, 0, 1, 2])):
                i = rng.randrange(len(tokens) + 1)
                tokens[i:i + rng.randint(0, 1)] = rng.choice([[], [rng.choice(TOKENS)]])
        text = rng.choice(["", " "]).join(tokens)
        for lang in (Lang.L, Lang.LKA):
            try:
                f = parse(text, lang)
            except ParseError:
                refused += 1
                continue
            parsed += 1
            assert parse(to_text(f), lang) == f, text
    assert parsed > 1000 and refused > 1000
