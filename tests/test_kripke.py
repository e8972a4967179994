import pytest

from awarekit.kripke import (
    KripkeModel,
    WorldId,
    parse_world_id,
    relation_properties,
    restrict,
    validate_kripke,
)

from conftest import part


def small():
    return KripkeModel.make(
        atoms=["p", "q"], agents=["a"], worlds=["u", "v"],
        relations={"a": [("u", "u"), ("u", "v"), ("v", "v")]},
        valuation={"p": ["u"], "q": ["u", "v"]},
    )


def test_world_id_syntax():
    w = WorldId("w1", frozenset({"i", "l"}))
    assert str(w) == "w1@{i,l}"
    assert parse_world_id("w1@{i,l}", {"i", "l"}) == w
    assert parse_world_id("w1@{}", {"i", "l"}) == WorldId("w1", frozenset())
    assert parse_world_id("w1", {"i", "l"}) == w
    with pytest.raises(ValueError):
        parse_world_id("w1@i,l", {"i", "l"})


def test_validate_kripke():
    assert validate_kripke(small()) == []
    bad = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u"],
        relations={"a": [("u", "x")]}, valuation={"p": ["u"]},
    )
    assert validate_kripke(bad)


def test_successors_and_cells():
    m = small()
    assert m.successors("a", "u") == frozenset({"u", "v"})
    assert m.successors("a", "v") == frozenset({"v"})


def test_restrict_is_a_lazy_view():
    m = small()
    r = restrict(m, {"p"})
    assert r.vocabulary == frozenset({"p"})
    u = WorldId("u", frozenset({"p"}))
    v = WorldId("v", frozenset({"p"}))
    assert r.worlds() == frozenset({u, v})
    assert r.holds("p", u) and not r.holds("p", v)
    with pytest.raises(KeyError):
        r.holds("q", u)
    assert r.successors("a", u) == frozenset({u, v})
    with pytest.raises(KeyError):
        r.successors("a", WorldId("u", frozenset()))
    with pytest.raises(ValueError):
        restrict(m, {"z"})


def test_relation_properties():
    m = small()
    flags = relation_properties(m)["a"]
    assert flags["reflexive"] and flags["transitive"]
    assert not flags["symmetric"] and not flags["equivalence"]
    eq = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u", "v"],
        relations={"a": part([["u", "v"]])}, valuation={"p": ["u"]},
    )
    assert relation_properties(eq)["a"]["equivalence"]
