import pytest

from awarekit import hms, transforms
from awarekit.fh import AtomGenerated, check_ka, check_pp, FHModel
from awarekit.hms import validate_model
from awarekit.klm import (
    check_awareness_properties,
    induced_pointwise,
    validate_klm,
)
from awarekit.kripke import KripkeModel, PropertyReport, WorldId, relation_properties
from awarekit.transforms import (
    fh_transform,
    h_transform,
    k_transform,
    l_transform,
    space_id,
    transform,
)

from conftest import make_trade, part

FRAME_CHECKS = ("lattice", "projections", "Conf", "Gref", "Stat", "PPI", "PPK")


@pytest.fixture(scope="module")
def trade_m():
    return make_trade()


@pytest.fixture(scope="module")
def hms_trade(trade_m):
    return h_transform(trade_m)


def test_h_transform_structure(trade_m, hms_trade):
    fr = hms_trade.frame
    assert set(fr.spaces) == {space_id(X) for X in
                              [set(), {"i"}, {"l"}, {"i", "l"}]}
    assert fr.top_space() == "W@{i,l}"
    assert "w1@{i,l}" in fr.spaces["W@{i,l}"]
    assert validate_model(hms_trade).all_pass(*FRAME_CHECKS)


def test_h_transform_requires_equivalence_relations():
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u", "v"],
        relations={"a": [("u", "v")]}, valuation={"p": ["u"]},
    )
    from awarekit.klm import KripkeLatticeModel
    k = KripkeLatticeModel.make(base, {"a": {"u": ["p"], "v": ["p"]}})
    with pytest.raises(ValueError):
        h_transform(k)


def test_l_transform_round_trip(trade_m, hms_trade):
    klm, corr = l_transform(hms_trade)
    assert validate_klm(klm) == []
    report = check_awareness_properties(
        klm.base, induced_pointwise(klm.base, klm.awareness))
    assert report.all_pass("D", "II", "NS")
    assert all(flags["equivalence"]
               for flags in relation_properties(klm.base).values())
    # the round trip reproduces the original awareness up to state naming
    for a in trade_m.base.agents:
        for w in trade_m.base.worlds:
            assert klm.awareness[a][str(WorldId(w, frozenset({"i", "l"})))] == \
                trade_m.awareness[a][w]


def test_l_transform_correspondence(hms_trade):
    _, corr = l_transform(hms_trade)
    tops = corr["w1@{i,l}"]
    assert all(v.vocabulary == frozenset({"i", "l"}) for v in tops)
    # every frame state has at least one corresponding world copy
    assert all(corr[s] for s in hms_trade.frame.state_space)


def test_fh_transform(trade_m):
    fh = fh_transform(trade_m)
    assert fh.base == trade_m.base
    assert isinstance(fh.awareness["b"]["w2"], AtomGenerated)
    assert fh.awareness["b"]["w2"].atoms == frozenset({"i"})
    assert check_pp(fh)["passed"]
    ok, _ = check_ka(fh)
    assert ok


def test_k_transform_round_trip(trade_m):
    fh = fh_transform(trade_m)
    back = k_transform(fh)
    assert back.base == trade_m.base
    assert back.awareness == trade_m.awareness


def test_k_transform_requires_ka():
    base = KripkeModel.make(
        atoms=["p"], agents=["a"], worlds=["u", "v"],
        relations={"a": part([["u", "v"]])}, valuation={"p": ["u"]},
    )
    s = FHModel.make(base, {"a": {"u": AtomGenerated.make(["p"]),
                                  "v": AtomGenerated.make([])}})
    with pytest.raises(ValueError):
        k_transform(s)


def test_transform_dispatcher(trade_m, hms_trade):
    """Every transform reports the properties of its output's class as one
    PropertyReport."""
    for kind, model in [("L", hms_trade), ("H", trade_m),
                        ("K", fh_transform(trade_m)), ("FH", trade_m)]:
        report = transform(kind, model)
        assert report.output is not None
        assert isinstance(report.properties, PropertyReport), kind
        assert report.properties == report.output.properties(), kind
    fh = transform("FH", trade_m).properties
    assert fh == PropertyReport({"pp (exact)": True, "ka": True})
    with pytest.raises(ValueError):
        transform("Z", trade_m)


def test_h_output_is_validated_once(trade_m, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return validate_model(m)

    monkeypatch.setattr(hms, "validate_model", counted)
    monkeypatch.setattr(transforms, "validate_model", counted)
    report = transform("H", trade_m)
    assert len(calls) == 1
    assert report.properties.all_pass(*FRAME_CHECKS, "valuation")
