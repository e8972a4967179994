import json

import pytest

from awarekit.fh import AtomGenerated, Explicit, FHModel
from awarekit.formula import parse
from awarekit.kripke import KripkeModel
from awarekit.modelio import (
    fixture_path,
    load_fixture,
    load_model,
    store_model,
)
from awarekit.transforms import fh_transform, h_transform

from conftest import make_trade


def round_trip(model, tmp_path, name):
    path = tmp_path / name
    store_model(model, path)
    return load_model(path)


def test_klm_round_trip(tmp_path):
    trade = make_trade()
    assert round_trip(trade, tmp_path, "m.klm.json") == trade


def test_kripke_round_trip(tmp_path):
    trade = make_trade()
    assert round_trip(trade.base, tmp_path, "m.kripke.json") == trade.base


def test_fh_round_trip(tmp_path):
    fh = fh_transform(make_trade())
    assert round_trip(fh, tmp_path, "m.fh.json") == fh


def test_fh_explicit_sets_round_trip(tmp_path):
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u"],
        relations={"a": [("u", "u")]}, valuation={"p": ["u"]},
    )
    s = FHModel.make(base, {"a": {"u": Explicit.make([parse("p"), parse("K{a} p")])}})
    back = round_trip(s, tmp_path, "m.fh.json")
    assert isinstance(back.awareness["a"]["u"], Explicit)
    assert set(back.awareness["a"]["u"].formulas) == set(s.awareness["a"]["u"].formulas)


def test_hms_round_trip(tmp_path):
    hms = h_transform(make_trade())
    back = round_trip(hms, tmp_path, "m.hms.json")
    assert back.frame.spaces == hms.frame.spaces
    assert back.frame.leq == hms.frame.leq
    assert back.frame.maps == hms.frame.maps
    assert back.frame.pi == hms.frame.pi
    assert back.valuation == hms.valuation


def test_store_is_canonical(tmp_path):
    trade = make_trade()
    p1, p2 = tmp_path / "a.klm.json", tmp_path / "b.klm.json"
    store_model(trade, p1)
    store_model(load_model(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_kind_detection(tmp_path):
    trade = make_trade()
    body = store_model(trade)
    assert body["kind"] == "klm"
    # explicit kind wins when the body has none
    del body["kind"]
    assert load_model(body, kind="klm") == trade
    with pytest.raises(ValueError):
        load_model(body)
    # suffix-based detection for files without a kind field
    path = tmp_path / "x.klm.json"
    path.write_text(json.dumps(body))
    assert load_model(path) == trade


def test_comment_is_ignored_on_load():
    trade = make_trade()
    body = store_model(trade, comment="hello")
    assert body["comment"] == "hello"
    assert load_model(body) == trade


def test_fixtures_load():
    trade = load_fixture("trade.klm.json")
    assert trade == make_trade()
    fh = load_fixture("trade.fh.json")
    assert fh == fh_transform(trade)
    triv = load_fixture("triv1.klm.json")
    assert sorted(triv.base.worlds) == ["u"]
    assert fixture_path("trade.klm.json").name == "trade.klm.json"


def test_bad_projection_key():
    hms_body = store_model(h_transform(make_trade()))
    bad = dict(hms_body)
    bad["projections"] = {"nodash": {}}
    with pytest.raises(ValueError):
        load_model(bad)



def _edited(model, edit):
    body = store_model(model)
    edit(body)
    return body


@pytest.mark.parametrize("name, make, message", [
    ("list.klm.json", lambda: [1, 2], "model: expected an object, got a list of 2"),
    ("pair.klm.json",
     lambda: _edited(make_trade(), lambda b: b["relations"]["b"][0].pop()),
     "relations.b[0]: expected a pair, got a list of 1"),
    ("spaces.hms.json",
     lambda: _edited(h_transform(make_trade()), lambda b: b.update(spaces=[])),
     "spaces: expected an object, got a list of 0"),
    ("set.hms.json",
     lambda: _edited(h_transform(make_trade()), lambda b: b["valuation"]["i"].update(base_set=3)),
     "valuation.i.base_set: expected a list, got int"),
    ("pi.hms.json",
     lambda: _edited(h_transform(make_trade()), lambda b: b.pop("pi")),
     "pi: missing"),
    # an awareness set's field is optional in the shape, as its kind says which
    ("atoms.fh.json",
     lambda: _edited(fh_transform(make_trade()),
                     lambda b: b["awareness_sets"]["b"]["w1"].pop("atoms")),
     "awareness_sets.b.w1.atoms: missing"),
    ("formulas.fh.json",
     lambda: _edited(fh_transform(make_trade()),
                     lambda b: b["awareness_sets"]["o"].update(w2={"kind": "explicit"})),
     "awareness_sets.o.w2.formulas: missing"),
    # a field the shape does not name is refused, not dropped
    ("extra.klm.json", lambda: _edited(make_trade(), lambda b: b.update(extra=1)),
     "extra: unknown field"),
    ("event.hms.json",
     lambda: _edited(h_transform(make_trade()), lambda b: b["valuation"]["l"].update(space="S")),
     "valuation.l.space: unknown field"),
    ("set.fh.json",
     lambda: _edited(fh_transform(make_trade()),
                     lambda b: b["awareness_sets"]["b"]["w2"].update(note="")),
     "awareness_sets.b.w2.note: unknown field"),
    # and so is the field of the other awareness set kind
    ("listed.fh.json",
     lambda: _edited(fh_transform(make_trade()),
                     lambda b: b["awareness_sets"]["b"].update(
                         w2={"kind": "atom-generated", "atoms": [], "formulas": ["i"]})),
     "awareness_sets.b.w2.formulas: not a field of an atom-generated set"),
    ("generated.fh.json",
     lambda: _edited(fh_transform(make_trade()),
                     lambda b: b["awareness_sets"]["o"].update(
                         w1={"kind": "explicit", "formulas": ["i"], "atoms": ["i"]})),
     "awareness_sets.o.w1.atoms: not a field of an explicit set"),
])
def test_loader_refuses_bad_shapes(tmp_path, name, make, message):
    path = tmp_path / name
    path.write_text(json.dumps(make()))
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value) == message


def _renamed(body, old, new):
    """The body with every string equal to old replaced by new."""
    return json.loads(json.dumps(body).replace(json.dumps(old), json.dumps(new)))


@pytest.mark.parametrize("kind", ["klm", "fh", "hms", "kripke"])
@pytest.mark.parametrize("old, new, message", [
    ("i", "T", "atom name 'T' cannot be written in formulas: an atom name must start "
               "with a lowercase letter, then letters, digits or _"),
    ("l", "K{", "atom name 'K{' cannot be written in formulas: an atom name must start "
                "with a lowercase letter, then letters, digits or _"),
    ("b", "b b", "agent name 'b b' cannot be written in formulas: an agent name must be "
                 "non-empty, without braces or whitespace"),
    ("o", "{o}", "agent name '{o}' cannot be written in formulas: an agent name must be "
                 "non-empty, without braces or whitespace"),
])
def test_loader_refuses_names_the_parser_cannot_read(kind, old, new, message):
    """An atom T would load, pass every check and print witnesses that read
    back as the constant; such names are refused in every model kind."""
    trade = make_trade()
    model = {"klm": trade, "fh": fh_transform(trade), "hms": h_transform(trade),
             "kripke": trade.base}[kind]
    body = store_model(model)
    assert store_model(load_model(body)) == body
    with pytest.raises(ValueError) as info:
        load_model(_renamed(body, old, new))
    assert str(info.value) == message
