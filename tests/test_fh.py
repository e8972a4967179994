import pytest

from awarekit.fh import (
    AtomGenerated,
    Explicit,
    FHEvaluator,
    FHModel,
    check_ka,
    check_pp,
    validate_fh,
)
from awarekit.cli import main
from awarekit.formula import Lang, atoms_of, enumerate_formulas, parse, to_text
from awarekit.kripke import KripkeModel
from awarekit.modelio import store_model
from awarekit.transforms import fh_transform
from awarekit.truth import Truth
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
    assert aset.contains(parse("K{o} i"))
    assert not aset.contains(parse("l"))
    assert not aset.contains(parse("i & l"))


def test_explicit_awareness_set_is_structural():
    aset = Explicit.make([parse("p"), parse("K{a} p")])
    assert aset.atoms == frozenset({"p"})
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
        assert FHEvaluator(s, Lang.LKA).value(f, "u") is Truth.TRUE, listed
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


def test_pp_exact_for_explicit_sets():
    """A finite list never holds every formula over its atoms, so PP fails
    on every Explicit set, exactly: the witness is the first formula over
    the set's atoms, in enumeration order, that it does not list, however
    deep (here past depth 2, for a list of every atom-free formula up to
    it)."""
    base = KripkeModel.make(
        atoms=["p", "q"], agents=["a"], worlds=["u"],
        relations={"a": [("u", "u")]}, valuation={"p": ["u"]},
    )
    atom_free = [to_text(f) for f in enumerate_formulas(["p"], ["a"], 2, Lang.LKA)
                 if not atoms_of(f)]
    for listed, witness in ((["~p"], "T"), (["T", "p"], "~T"), (["T", "~T", "q"], "~q"),
                            (["T", "p", "q", "~T", "~p", "~q"], "(T & T)"),
                            (atom_free, "~~~T")):
        s = FHModel.make(base, {"a": {"u": Explicit.make(parse(t) for t in listed)}})
        report = check_pp(s)
        assert report["verdict"] == "exact" and not report["passed"], listed
        assert [(a, w, to_text(f)) for a, w, f in report["witnesses"]] == \
            [("a", "u", witness)], listed


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
    ev = FHEvaluator(fh_trade, Lang.L)
    assert ev.value(parse("K{b} l", Lang.L), "w1") is Truth.TRUE
    assert ev.value(parse("K{b} ~i", Lang.L), "w2") is Truth.TRUE
    assert ev.value(parse("K{b} (l | ~l)", Lang.L), "w2") is Truth.FALSE


def test_eval_LKA_implicit_knowledge(fh_trade):
    # under LKA the K operator is implicit and ignores awareness
    ev = FHEvaluator(fh_trade, Lang.LKA)
    assert ev.value(parse("K{b} (l | ~l)"), "w2") is Truth.TRUE
    assert ev.value(parse("A{b} l"), "w2") is Truth.FALSE
    assert ev.value(parse("X{b} (l | ~l)"), "w2") is Truth.FALSE
    assert ev.value(parse("X{b} l"), "w1") is Truth.TRUE


def test_eval_unknown_atom(fh_trade):
    with pytest.raises(KeyError):
        FHEvaluator(fh_trade, Lang.L).value(parse("zebra", Lang.L), "w1")
