import pytest

from awarekit.formula import Lang, parse
from awarekit.klm import (
    Evaluator,
    KripkeLatticeModel,
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

from conftest import make_trade, part
from oracles import awareness_image

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
