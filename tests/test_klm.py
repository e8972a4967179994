import random
from itertools import product

import pytest

from awarekit import verify
from awarekit.formula import TOP, And, Atom, Aware, Know, Lang, Not, atoms_of, implies, parse
from awarekit.klm import (
    Evaluator,
    KripkeLatticeModel,
    Sliced,
    awareness_image,
    canonicalize,
    check_awareness_properties,
    eval_L,
    eval_LKA,
    induced_pointwise,
    subsets,
    validate_klm,
)
from awarekit.kripke import KripkeModel, WorldId, members
from awarekit.truth import Truth
from awarekit.verify import compile_program

from conftest import make_trade, part

I_L = frozenset({"i", "l"})


def at(w, voc):
    return WorldId(w, frozenset(voc))


def test_validate_trade(trade):
    assert validate_klm(trade) == []


def test_validate_rejects_non_monotone_awareness():
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u", "v"],
        relations={"a": [("u", "v")]}, valuation={"p": ["u"]},
    )
    k = KripkeLatticeModel.make(base, {"a": {"u": ["p"], "v": []}})
    assert any("not a subset" in problem for problem in validate_klm(k))


def test_omega_order_and_cap(trade):
    omega = trade.omega()
    assert len(omega) == 3 * 4
    # per world, largest vocabulary first
    assert omega[0] == at("w1", I_L)
    assert omega[1] == at("w1", {"i"})
    assert omega[3].vocabulary == frozenset()
    assert omega[4] == at("w2", I_L)
    assert subsets(["p"]) == [frozenset(), frozenset({"p"})]


def test_awareness_image(trade):
    assert awareness_image(trade, "b", at("w2", I_L)) == at("w2", {"i"})
    assert awareness_image(trade, "b", at("w2", {"l"})) == at("w2", set())
    assert awareness_image(trade, "o", at("w2", I_L)) == at("w2", I_L)


def test_pointwise_properties_on_trade(trade):
    pointwise = induced_pointwise(trade.base, trade.awareness)
    report = check_awareness_properties(trade.base, pointwise)
    assert report.all_pass("D", "II", "NS")
    assert canonicalize(trade.base, pointwise) == trade.awareness


def test_property_witnesses():
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u", "v"],
        relations={"a": part([["u", "v"]])}, valuation={"p": ["u"]},
    )
    # not monotone along the relation: II must fail with a witness
    k_aw = {"a": {"u": frozenset({"p"}), "v": frozenset()}}
    report = check_awareness_properties(base, induced_pointwise(base, k_aw))
    assert report.passed["D"] and report.passed["NS"]
    assert not report.passed["II"]
    assert report.witnesses["II"]


def test_eval_L_fixture_truths(trade):
    w1 = at("w1", I_L)
    assert eval_L(trade, w1, parse("K{b} i", Lang.L)) is Truth.TRUE
    assert eval_L(trade, w1, parse("K{b} l", Lang.L)) is Truth.TRUE
    assert eval_L(trade, w1, parse("K{o} i", Lang.L)) is Truth.FALSE
    # the buyer cannot rule out the lawsuit at w2 but is unaware of it
    assert eval_L(trade, at("w2", I_L), parse("K{b} ~l", Lang.L)) is Truth.FALSE


def test_eval_undefined_iff_atoms_escape_vocabulary(trade):
    f = parse("K{b} l", Lang.L)
    assert eval_L(trade, at("w1", {"i"}), f) is Truth.UNDEFINED
    assert eval_L(trade, at("w1", {"l"}), f) is Truth.TRUE


def test_eval_LKA_awareness(trade):
    assert eval_LKA(trade, at("w2", I_L), parse("A{b} l")) is Truth.FALSE
    assert eval_LKA(trade, at("w2", I_L), parse("A{b} i")) is Truth.TRUE
    assert eval_LKA(trade, at("w1", I_L), parse("X{b} l")) is Truth.TRUE
    assert eval_LKA(trade, at("w2", I_L), parse("X{b} l")) is Truth.FALSE


def test_implicit_vs_explicit_knowledge(trade):
    # implicit knowledge ignores awareness: K under LKA reads the top copies
    w2 = at("w2", I_L)
    assert eval_LKA(trade, w2, parse("K{b} ~i")) is Truth.TRUE
    assert eval_L(trade, w2, parse("K{b} ~i", Lang.L)) is Truth.TRUE


def test_strict_two_valued_toggle(trade):
    f = parse("K{b} l", Lang.L)
    w = at("w1", {"i"})
    assert eval_L(trade, w, f) is Truth.UNDEFINED
    strict = eval_LKA(trade, w, f, strict_two_valued=True)
    assert strict in (Truth.TRUE, Truth.FALSE)


def test_satisfying_states(trade):
    ev = Evaluator(trade, Lang.L)
    got = members(ev.truth_masks(parse("K{b} l", Lang.L))[0], ev.states)
    assert at("w1", I_L) in got
    assert at("w2", I_L) not in got


def test_eval_unknown_world(trade):
    with pytest.raises(KeyError):
        eval_L(trade, at("w9", I_L), parse("i", Lang.L))


def test_evaluator_memo_is_consistent(trade):
    ev = Evaluator(trade, Lang.L)
    f = parse("K{b} (i & l)", Lang.L)
    first = [ev.value(f, w) for w in trade.omega()]
    second = [ev.value(f, w) for w in trade.omega()]
    assert first == second


def test_sliced_algebra_matches_scalar():
    """Every op of the bit-sliced algebra gives, at each class tuple, the
    Evaluator's signature of that tuple's instance: true at the same states,
    with the same atoms; and `false` marks the tuples False at some state.
    On partitional models and on models where an agent has no successor,
    under L and LKA, with one set of tables shared by every width. A program
    over agent slots, run with an agent tuple, gives in both algebras what
    the program compiled for that tuple gives, on the diagonal tuples
    (a, a) and (b, b) too. The latter names its agents, each read as
    itself."""
    a, b, c = holes = [Atom(f"${i}") for i in range(3)]
    schemas = [lambda g: Not(a), lambda g: And(a, TOP), lambda g: Know(g[0], Not(a)),
               lambda g: Aware(g[1], a), lambda g: Know(g[1], Know(g[0], implies(a, Atom("p1")))),
               lambda g: implies(And(Know(g[0], a), Know(g[1], b)), Aware(g[0], And(a, b))),
               lambda g: implies(implies(a, b), implies(Not(c), Know(g[1], c)))]
    rng = random.Random(2111)
    models = [verify.random_klm_eq(rng, max_worlds=3, max_atoms=2),
              verify.random_klm(rng, max_worlds=3, max_atoms=2)]
    g = models[1].base
    assert any(not g.successors(x, w) for x in "ab" for w in g.worlds)
    for m, lang in product(models, (Lang.L, Lang.LKA)):
        ev = Evaluator(m, lang)
        reps, _, _, keys = verify._classes((m.base.atoms, m.base.agents, 1, lang), [ev])
        fill = [sig for _, sig in keys]
        tables, named = Sliced(ev), {x: x for x in m.base.agents}
        by_class = tables.classes(fill)
        for build in schemas:
            slotted = build((0, 1))
            n = max(i + 1 for i, h in enumerate(holes) if h.name in atoms_of(slotted))
            run = compile_program(slotted, holes[:n], lang)
            alg = tables.over(len(reps) ** n)
            inputs = alg.slots(by_class, len(reps), n)
            for ags in product("ab", repeat=2):
                fixed = compile_program(build(ags), holes[:n], lang)
                value = run(alg, inputs, ags)
                assert fixed(alg, inputs, named) == value
                false = alg.false(value)
                for t, key in enumerate(product(range(len(reps)), repeat=n)):
                    sigs = [fill[k] for k in key]
                    true, atoms = run(ev, sigs, ags)
                    assert fixed(ev, sigs, named) == (true, atoms)
                    assert sum((row >> t & 1) << s for s, row in enumerate(value[:alg.n])) == true
                    assert sum((x >> t & 1) << i for i, x in enumerate(value[alg.n:])) == atoms
                    assert (false >> t & 1) == (ev.masks((true, atoms))[1] != 0), (ags, key)
