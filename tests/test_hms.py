import re

import pytest

from awarekit.formula import Lang, parse
from awarekit.hms import (
    DenotationEvaluator,
    Event,
    FrameDefect,
    HMSModel,
    UnawarenessFrame,
    defined_atoms,
    denotation,
    validate_frame,
    validate_model,
)
from awarekit.transforms import h_transform
from awarekit.truth import Truth
from awarekit.verify import check_axiom_suite, hms_suite, valid_over

from conftest import make_trade
from oracles import event_and, event_aware, event_know, event_neg

FRAME_CHECKS = ("lattice", "projections", "Conf", "Gref", "Stat", "PPI", "PPK")


@pytest.fixture(scope="module")
def hms_trade():
    return h_transform(make_trade())


def two_space_frame():
    """Upper space U with atom p defined, lower space D with nothing defined.
    The agent reasons at U from u1, u2 and is pushed down to D from nowhere."""
    return UnawarenessFrame(
        spaces={"U": ["u1", "u2"], "D": ["d"]},
        order=[("D", "U")],
        projections={("U", "D"): {"u1": "d", "u2": "d"}},
        pi={"a": {"u1": ["u1"], "u2": ["u2"], "d": ["d"]}},
    )


def test_frame_order_and_projections():
    fr = two_space_frame()
    assert fr.below("D", "U") and not fr.below("U", "D")
    assert fr.top_space() == "U" and fr.bottom_space() == "D"
    assert fr.join("U", "D") == "U" and fr.meet("U", "D") == "D"
    assert fr.project("u1", "D") == "d"
    assert validate_frame(fr).all_pass(*FRAME_CHECKS)


def test_upward_closure():
    fr = two_space_frame()
    assert fr.up(Event.make("D", {"d"})) == frozenset({"u1", "u2", "d"})
    assert fr.up(Event.make("U", {"u1"})) == frozenset({"u1"})
    with pytest.raises(ValueError):
        fr.up(Event.make("U", {"zz"}))


def test_event_algebra():
    fr = two_space_frame()
    e = Event.make("U", {"u1"})
    assert event_neg(fr, e) == Event.make("U", {"u2"})
    assert event_neg(fr, event_neg(fr, e)) == e
    both = event_and(fr, [e, Event.make("D", {"d"})])
    # conjunction is taken at the join of the base spaces
    assert both.base_space == "U" and both.base_set == frozenset({"u1"})
    k = event_know(fr, "a", e)
    assert k == Event.make("U", {"u1"})
    a = event_aware(fr, "a", e)
    assert a.base_set == fr.spaces[a.base_space]


def test_trade_frame_validates(hms_trade):
    report = validate_model(hms_trade)
    assert report.all_pass(*FRAME_CHECKS)
    assert len(hms_trade.frame.spaces) == 4
    assert hms_trade.frame.top_space() == "W@{i,l}"


def test_defined_atoms(hms_trade):
    fr = hms_trade.frame
    top = fr.spaces[fr.top_space()]
    bottom = fr.spaces[fr.bottom_space()]
    assert defined_atoms(hms_trade, top) == frozenset({"i", "l"})
    assert defined_atoms(hms_trade, bottom) == frozenset()


def test_eval_three_valued(hms_trade):
    f = parse("K{b} l", Lang.L)
    ev = DenotationEvaluator(hms_trade)
    assert ev.value(f, "w1@{i,l}") is Truth.TRUE
    assert ev.value(f, "w2@{i,l}") is Truth.FALSE
    # below the vocabulary of l the formula is undefined
    assert ev.value(f, "w1@{i}") is Truth.UNDEFINED
    with pytest.raises(KeyError):
        ev.value(f, "nope")


def test_denotation_is_an_event(hms_trade):
    e = denotation(hms_trade, parse("K{b} i", Lang.L))
    fr = hms_trade.frame
    assert e.base_set <= fr.spaces[e.base_space]
    with pytest.raises(ValueError):
        denotation(hms_trade, parse("A{b} i", Lang.LKA))


def test_valid_over_hms(hms_trade):
    ok, witnesses = valid_over([hms_trade], parse("K{b} i -> i", Lang.L), "HMS")
    assert ok and not witnesses
    ok, witnesses = valid_over([hms_trade], parse("K{b} i", Lang.L), "HMS")
    assert not ok and witnesses


def test_event_ops_reject_foreign_sets():
    fr = two_space_frame()
    with pytest.raises((FrameDefect, ValueError, KeyError)):
        event_neg(fr, Event.make("X", {"u1"}))


def test_model_valuation_validated():
    fr = two_space_frame()
    m = HMSModel(fr, {"p": Event.make("U", {"u1"})})
    assert validate_model(m).passed["valuation"]
    bad = HMSModel(fr, {"p": Event.make("U", {"zz"})})
    assert not validate_model(bad).passed["valuation"]


def frame(spaces, order, projections, pi=None):
    return UnawarenessFrame(spaces, order, projections, pi or {})


TWO = {"U": ["u1", "u2"], "D": ["d1", "d2"]}
TWO_MAP = {("U", "D"): {"u1": "d1", "u2": "d2"}}

def test_order_closure_and_composed_projections():
    """Generating pairs are closed transitively, and a missing projection is
    composed from the maps through the spaces in between."""
    fr = frame({"T": ["t1", "t2"], "B": ["b"], "M1": ["m1", "m2"], "M2": ["n1", "n2"]},
               [("B", "M1"), ("M1", "M2"), ("M2", "T")],
               {("T", "M2"): {"t1": "n1", "t2": "n2"}, ("M2", "M1"): {"n1": "m1", "n2": "m2"},
                ("M1", "B"): {"m1": "b", "m2": "b"}})
    assert fr.below("B", "T") and fr.below("M1", "T") and not fr.below("T", "B")
    assert fr.top_space() == "T" and fr.bottom_space() == "B"
    assert fr.maps[("T", "B")] == {"t1": "b", "t2": "b"}
    assert fr.maps[("T", "M1")] == {"t1": "m1", "t2": "m2"}
    assert fr.up(Event.make("M1", {"m1"})) == frozenset({"m1", "n1", "t1"})
    assert validate_frame(fr).all_pass("lattice", "projections")


# One malformed frame per check. Each has a single failing instance of its
# check, so the first witness does not depend on set iteration order.
MALFORMED = [
    ("lattice", ("no unique join", "A", "A"), frame(
        {"A": ["a"], "B": ["b"]}, [("A", "B"), ("B", "A")],
        {("B", "A"): {"b": "a"}, ("A", "B"): {"a": "b"}})),
    ("lattice", ("no unique join", "X", "Y"), frame(
        {"B": ["b"], "X": ["x1", "x2"], "Y": ["y1", "y2"]},
        [("B", "X"), ("B", "Y")],
        {("X", "B"): {"x1": "b", "x2": "b"}, ("Y", "B"): {"y1": "b", "y2": "b"}})),
    ("projections", ("missing projection", "U", "D"), frame(
        {"U": ["u1", "u2"], "D": ["d"]}, [("D", "U")], {})),
    # with a total possibility correspondence, PPI and PPK skip the pairs
    # that cannot be projected instead of failing on them
    ("projections", ("missing projection", "T", "B"), frame(
        {"T": ["t1", "t2"], "B": ["b"]}, [("B", "T")], {},
        {"a": {"t1": ["t1"], "t2": ["t2"], "b": ["b"]}})),
    ("projections", ("not total", "U", "D"), frame(
        TWO, [("D", "U")], {("U", "D"): {"u1": "d1"}},
        {"a": {"u1": ["u1"], "u2": ["u2"], "d1": ["d1"], "d2": ["d2"]}})),
    ("projections", ("not total", "T", "M"), frame(
        {"B": ["b"], "M": ["m1", "m2"], "T": ["t1", "t2"]}, [("B", "M"), ("M", "T")],
        {("T", "M"): {"t1": "m1"}, ("M", "B"): {"m1": "b", "m2": "b"},
         ("T", "B"): {"t1": "b", "t2": "b"}})),
    ("projections", ("non-commuting", "T", "M", "B", "t3"), frame(
        {"B": ["b1", "b2"], "M": ["m1", "m2", "m3"], "T": ["t1", "t2", "t3"]},
        [("B", "M"), ("M", "T")],
        {("T", "M"): {"t1": "m1", "t2": "m2", "t3": "m3"},
         ("M", "B"): {"m1": "b1", "m2": "b2", "m3": "b2"},
         ("T", "B"): {"t1": "b1", "t2": "b2", "t3": "b1"}})),
    ("Conf", ("a", "u2", "cell straddles spaces", ["D", "U"]), frame(
        TWO, [("D", "U")], TWO_MAP,
        {"a": {"u1": ["u1"], "u2": ["u2", "d2"], "d1": ["d1"], "d2": ["d2"]}})),
    ("Gref", ("a", "u1"), frame(
        TWO, [("D", "U")], TWO_MAP,
        {"a": {"u1": ["u2"], "u2": ["u2"], "d1": ["d1"], "d2": ["d2"]}})),
    ("Stat", ("a", "u1", "u2"), frame(
        TWO, [("D", "U")], TWO_MAP,
        {"a": {"u1": ["u1", "u2"], "u2": ["u2"], "d1": ["d1"], "d2": ["d2"]}})),
    ("PPI", ("a", "u1", "D"), frame(
        TWO, [("D", "U")], TWO_MAP,
        {"a": {"u1": ["u1", "u2"], "u2": ["u1", "u2"], "d1": ["d1"], "d2": ["d2"]}})),
    ("PPK", ("a", "u1", "U", "D"), frame(
        TWO, [("D", "U")], TWO_MAP,
        {"a": {"u1": ["u1"], "u2": ["u2"], "d1": ["d1", "d2"], "d2": ["d1", "d2"]}})),
]


def malformed_model(check):
    """A model on the malformed frame of a check, with p true on the whole
    lower space, and the refusal that names the check and its witness. The
    HMS suite at depth 1 finds no failure on the Conf and PPI frames."""
    _, witness, fr = next(case for case in MALFORMED if case[0] == check)
    return (HMSModel(fr, {"p": Event.make("D", fr.spaces["D"])}),
            f"frame check {check} fails: witness {witness}")


@pytest.mark.parametrize("check", ["Conf", "PPI"])
def test_axiom_suite_refuses_a_malformed_frame(check):
    m, refusal = malformed_model(check)
    with pytest.raises(ValueError, match=re.escape(refusal)):
        check_axiom_suite([m], hms_suite(), 1)


@pytest.mark.parametrize("check, witness, fr", MALFORMED,
                         ids=[f"{c}-{w[0]}-{w[1]}" for c, w, _ in MALFORMED])
def test_malformed_frame_witnesses(check, witness, fr):
    report = validate_frame(fr)
    assert set(report.passed) == set(FRAME_CHECKS)
    assert report.passed[check] is False
    assert report.witnesses[check] == witness


def test_witness_is_the_first_failing_state_in_index_order():
    """Where one instance fails at several states, its witness names the
    first of them in index order, not in a set's iteration order, which
    varies with the hash seed."""
    states = [f"s{i}" for i in range(8)]
    fr = frame({"U": states}, [], {}, {"a": {s: [s] if s != "s0" else states
                                               for s in states[:6]}})
    report = validate_frame(fr)
    assert report.witnesses["Stat"] == ("a", "s0", "s1")
    assert report.witnesses["Conf"] == ("pi not total", "a", "s6")
    fr = frame({"B": ["b1", "b2"], "M": ["m1", "m2"], "T": [f"t{i}" for i in range(1, 7)]},
               [("B", "M"), ("M", "T")],
               {("T", "M"): {"t1": "m1", "t2": "m1", "t3": "m1", "t4": "m2", "t5": "m2",
                             "t6": "m2"},
                ("M", "B"): {"m1": "b1", "m2": "b2"},
                ("T", "B"): {"t1": "b2", "t2": "b2", "t3": "b1", "t4": "b1", "t5": "b2",
                             "t6": "b2"}})
    report = validate_frame(fr)
    assert report.witnesses["projections"] == ("non-commuting", "T", "M", "B", "t1")
    fr = frame({"X": ["x1", "x2", "x3", "x4"], "Y": ["x4", "x3", "x2", "x1"]}, [], {})
    report = validate_frame(fr)
    assert report.witnesses["lattice"] == ("states shared by spaces", "x1", "X", "Y")


def test_knowledge_event_must_be_an_up_set():
    """On the PPI-failing frame, the states that know {d1} are not the
    up-closure of any event at D: the event algebra and the denotation say so."""
    fr = next(fr for check, _, fr in MALFORMED if check == "PPI")
    with pytest.raises(FrameDefect, match="knowledge set is not an up-set based at 'D'"):
        event_know(fr, "a", Event.make("D", {"d1"}))
    m = HMSModel(fr, {"p": Event.make("D", {"d1"})})
    with pytest.raises(FrameDefect, match="knowledge set is not an up-set based at 'D'"):
        denotation(m, parse("K{a} p", Lang.L))
