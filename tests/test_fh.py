import pytest

from awarekit.fh import (
    AtomGenerated,
    Explicit,
    FHModel,
    aware_of,
    check_ka,
    check_pp,
    eval_L_fh,
    eval_LKA_fh,
    validate_fh,
)
from awarekit.cli import main
from awarekit.formula import Lang, parse, to_text
from awarekit.kripke import KripkeModel
from awarekit.modelio import store_model
from awarekit.transforms import fh_transform
from awarekit.verify import valid_over

from conftest import make_trade, part


@pytest.fixture(scope="module")
def fh_trade():
    return fh_transform(make_trade())


def test_validate(fh_trade):
    assert validate_fh(fh_trade) == []


def test_awareness_sets(fh_trade):
    aset = fh_trade.awareness["b"]["w2"]
    assert isinstance(aset, AtomGenerated)
    assert aset.atoms == frozenset({"i"})
    assert aware_of(fh_trade, "b", "w2", parse("K{o} i"))
    assert not aware_of(fh_trade, "b", "w2", parse("l"))
    assert not aware_of(fh_trade, "b", "w2", parse("i & l"))


def test_explicit_awareness_set_is_structural():
    aset = Explicit.make([parse("p"), parse("K{a} p")])
    assert aset.contains(parse("p"))
    assert aset.contains(parse("K{a} p"))
    assert not aset.contains(parse("~p"))


def test_explicit_sets_read_x_as_defined(tmp_path, capsys):
    """A{a} X{b} p on formula-list awareness sets: evaluation, validity and
    `awarekit eval` agree, whether a's set lists X{b} p or its definition."""
    base = KripkeModel.make(
        atoms=["p"], agents=["a", "b"], worlds=["u"],
        relations={"a": [("u", "u")], "b": [("u", "u")]}, valuation={"p": ["u"]},
    )
    f = parse("A{a} X{b} p")
    for listed in ("A{b} p & K{b} p", "X{b} p"):
        s = FHModel.make(base, {"a": {"u": Explicit.make([parse(listed)])},
                                "b": {"u": Explicit.make([parse("p")])}})
        assert s.awareness["a"]["u"].contains(parse("X{b} p")), listed
        assert eval_LKA_fh(s, "u", f) is True, listed
        assert valid_over([s], f, "FH_LKA") == (True, []), listed
        path = str(tmp_path / "explicit.fh.json")
        store_model(s, path)
        assert main(["eval", to_text(f), "--model", path, "--at", "u", "--lang", "LKA"]) == 0
        assert capsys.readouterr().out.strip() == "True", listed


def test_pp_and_ka(fh_trade):
    pp = check_pp(fh_trade)
    assert pp["passed"] and pp["verdict"] == "exact"
    ok, witnesses = check_ka(fh_trade)
    assert ok and not witnesses


def test_pp_bounded_for_explicit_sets():
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u"],
        relations={"a": [("u", "u")]}, valuation={"p": ["u"]},
    )
    # not closed under subformulas of the language: PP must fail
    ragged = FHModel.make(base, {"a": {"u": Explicit.make([parse("~p")])}})
    report = check_pp(ragged)
    assert report["verdict"] == "bounded"
    assert not report["passed"]


def test_ka_witness():
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u", "v"],
        relations={"a": part([["u", "v"]])}, valuation={"p": ["u"]},
    )
    s = FHModel.make(base, {"a": {"u": AtomGenerated.make(["p"]),
                                  "v": AtomGenerated.make([])}})
    ok, witnesses = check_ka(s)
    assert not ok
    assert witnesses[0][0] == "a"


def test_eval_L_explicit_knowledge(fh_trade):
    # knowledge requires awareness under L
    assert eval_L_fh(fh_trade, "w1", parse("K{b} l", Lang.L)) is True
    assert eval_L_fh(fh_trade, "w2", parse("K{b} ~i", Lang.L)) is True
    assert eval_L_fh(fh_trade, "w2", parse("K{b} (l | ~l)", Lang.L)) is False


def test_eval_LKA_implicit_knowledge(fh_trade):
    # under LKA the K operator is implicit and ignores awareness
    assert eval_LKA_fh(fh_trade, "w2", parse("K{b} (l | ~l)")) is True
    assert eval_LKA_fh(fh_trade, "w2", parse("A{b} l")) is False
    assert eval_LKA_fh(fh_trade, "w2", parse("X{b} (l | ~l)")) is False
    assert eval_LKA_fh(fh_trade, "w1", parse("X{b} l")) is True


def test_eval_unknown_atom(fh_trade):
    with pytest.raises(KeyError):
        eval_L_fh(fh_trade, "w1", parse("zebra", Lang.L))
