"""The value classes keep record semantics: construction, equality, hashing,
immutability and `repr`, class by class."""

import pytest

from awarekit.fh import AtomGenerated, Explicit
from awarekit.formula import TOP, And, Atom, Aware, ExplicitKnow, Know, Lang, Not, Top, parse
from awarekit.hms import Event
from awarekit.klm import KripkeLatticeModel
from awarekit.kripke import KripkeModel, PropertyReport, WorldId, restrict
from awarekit.modelio import load_fixture
from awarekit.transforms import StateCorrespondence, TransformReport, h_transform, transform
from awarekit.verify import AxiomSuite, EquivalenceReport, Schema, hms_suite


def _hashable():
    """Each hashable value class, built twice from equal parts."""
    def build():
        p = Atom("p")
        yield Top()
        yield p
        yield Not(p)
        yield And(p, Not(Atom("q")))
        yield Know("a", p)
        yield Aware("a", p)
        yield ExplicitKnow("a", p)
        yield WorldId("w", frozenset({"p"}))
        yield Event("S", frozenset({"s"}))
        yield AtomGenerated(frozenset({"p"}))
        yield Explicit((p, Know("a", p)))
        yield Schema("T", 1, 1, _build)
        yield AxiomSuite("HMS", (), ())
    return zip(build(), build())


def _build(ms, ags):
    return ms[0]


def _models():
    """One instance of each model class and transform result, which hold dicts."""
    k = load_fixture("trade.klm.json")
    return [k.base, restrict(k.base, {"i"}), k, h_transform(k), load_fixture("trade.fh.json"),
            StateCorrespondence({}), transform("H", k)]


def test_equal_values_are_equal_and_hash_equal():
    for a, b in _hashable():
        assert a is not b and a == b and not a != b and hash(a) == hash(b), a
    k = load_fixture("trade.klm.json")
    assert k == load_fixture("trade.klm.json") and k.base == KripkeModel.make(
        k.base.atoms, k.base.agents, k.base.worlds, k.base.relations, k.base.valuation)
    assert KripkeLatticeModel(base=k.base, awareness=k.awareness) == k
    assert EquivalenceReport("equivalence", 1) == EquivalenceReport("equivalence", 1, 0, [], False)


def test_only_the_same_class_with_the_same_fields_is_equal():
    p = Atom("p")
    assert Know("a", p) != Aware("a", p) and Know("a", p) != ExplicitKnow("a", p)
    assert Aware("a", p) != ExplicitKnow("a", p)
    assert Atom("p") != "p" and not Atom("p") == "p" and Atom("p") != Atom("q")
    assert WorldId("w", frozenset()) != ("w", frozenset())
    assert Event("S", frozenset()) != Event("T", frozenset())
    assert AtomGenerated(frozenset()) != Explicit(())
    assert EquivalenceReport("equivalence", 1) != EquivalenceReport("equivalence", 1, checked=2)
    assert PropertyReport({"D": True}) != PropertyReport({"D": False})
    assert Schema("T", 1, 1, _build) != Schema("T", 1, 1, _build, premises=_build)


def test_frozen_values_refuse_assignment_and_deletion():
    frozen = [a for a, _ in _hashable()] + _models()
    assert {type(x).__name__ for x in frozen} >= {
        "Top", "Atom", "Not", "And", "Know", "Aware", "ExplicitKnow", "WorldId", "KripkeModel",
        "RestrictedModel", "KripkeLatticeModel", "Event", "HMSModel", "AtomGenerated",
        "Explicit", "FHModel", "StateCorrespondence", "TransformReport", "Schema",
        "AxiomSuite"}
    for x in frozen:
        for name in (*x._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_models_with_dict_fields_and_reports_are_unhashable():
    for x in _models() + [PropertyReport(), EquivalenceReport("equivalence", 1)]:
        with pytest.raises(TypeError):
            hash(x)
    assert PropertyReport.__hash__ is None and EquivalenceReport.__hash__ is None


def test_explicit_compares_and_shows_its_formulas_only():
    f = (parse("X{a} p", Lang.LKA),)
    a, b = Explicit(f), Explicit.make(f)
    assert a.listed == frozenset({And(Aware("a", Atom("p")), Know("a", Atom("p")))})
    assert a.atoms == frozenset({"p"})
    object.__setattr__(b, "listed", frozenset())
    object.__setattr__(b, "atoms", frozenset({"q"}))
    assert a == b and hash(a) == hash(b)
    assert repr(b) == "Explicit(formulas=(ExplicitKnow(agent='a', child=Atom(name='p')),))"


def test_schema_programs_are_neither_compared_nor_shown():
    """A schema keeps its compiled programs outside its fields: its equality,
    hash and repr are those of a schema that has compiled nothing."""
    a, b = Schema("T", 1, 1, _build), Schema("T", 1, 1, _build)
    shown = repr(a), hash(a)
    assert a.programs(Lang.L) is a.programs(Lang.L)
    assert a.programs(Lang.LKA) is not a.programs(Lang.L)
    assert a == b and (repr(a), hash(a)) == (repr(b), hash(b)) == shown
    assert repr(a) == f"Schema(id='T', meta_arity=1, agent_arity=1, build={_build!r}, " \
        "premises=None, side=None)"


def test_defaults_are_fresh_per_instance():
    a, b = EquivalenceReport("equivalence", 1), EquivalenceReport("equivalence", 1)
    a.failures.append({})
    assert b.failures == [] and (b.checked, b.capped) == (0, False)
    a, b = PropertyReport(), PropertyReport()
    a.record("D", "witness")
    assert b.passed == {} and b.witnesses == {}
    assert TransformReport(1, 2).correspondence is None
    assert (Schema("T", 1, 1, _build).premises, Schema("T", 1, 1, _build).side) == (None, None)


def test_repr_is_the_record_form():
    p = Atom("p")
    assert repr(p) == "Atom(name='p')"
    assert repr(And(p, Not(Atom("q")))) == \
        "And(left=Atom(name='p'), right=Not(child=Atom(name='q')))"
    assert repr(Know("a", p)) == "Know(agent='a', child=Atom(name='p'))"
    assert repr(Aware("b", TOP)) == "Aware(agent='b', child=Top())"
    assert repr(Event("S", frozenset({"s"}))) == "Event(base_space='S', base_set=frozenset({'s'}))"
    assert repr(WorldId("w", frozenset({"p"}))) == "WorldId(base='w', vocabulary=frozenset({'p'}))"
    assert repr(EquivalenceReport("equivalence", 1)) == \
        "EquivalenceReport(kind='equivalence', depth=1, checked=0, failures=[], capped=False)"
    assert repr(PropertyReport()) == "PropertyReport(passed={}, witnesses={})"
    assert repr(TransformReport(1, 2)) == \
        "TransformReport(output=1, properties=2, correspondence=None)"
    assert repr(hms_suite()).startswith("AxiomSuite(name='HMS', schemas=(Schema(id='PL-Top', ")
    assert str((p, WorldId("w", frozenset()))) == \
        "(Atom(name='p'), WorldId(base='w', vocabulary=frozenset()))"
