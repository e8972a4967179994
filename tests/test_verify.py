import random

import pytest

from awarekit.formula import Lang, parse
from awarekit.klm import validate_klm
from awarekit.kripke import relation_properties
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import Truth
from awarekit.verify import (
    SCHEMA_5,
    ValidityChecker,
    check_axiom_suite,
    check_equiv_fh_klm,
    check_L_equiv_hms_klm,
    check_L_equiv_klm_hms,
    derived_theorem_checks,
    hms_suite,
    lga_suite,
    random_klm,
    random_klm_eq,
    valid_over,
)

from conftest import make_trade
from oracles import KlmOracle


@pytest.fixture(scope="module")
def trade_m():
    return make_trade()


def test_equivalence_reports_shape(trade_m):
    report = check_L_equiv_klm_hms(trade_m, 1)
    body = report.to_json()
    assert set(body) == {"kind", "depth", "checked", "failures"}
    assert body["kind"] == "equivalence" and body["failures"] == []
    assert report.agreements == report.checked > 0
    assert report.first_disagreement is None


def test_equiv_hms_klm(trade_m):
    report = check_L_equiv_hms_klm(h_transform(trade_m), 1)
    assert not report.failures


def test_equiv_fh_klm_both_directions(trade_m):
    for lang in (Lang.L, Lang.LKA):
        report = check_equiv_fh_klm(trade_m, lang, 1)
        assert not report.failures
        report = check_equiv_fh_klm(fh_transform(trade_m), lang, 1)
        assert not report.failures


def test_valid_over_semantics(trade_m):
    t_axiom = parse("K{b} i -> i", Lang.L)
    for semantics, model in [("KLM_L", trade_m), ("KLM_LKA", trade_m),
                             ("HMS", h_transform(trade_m)),
                             ("FH_LKA", fh_transform(trade_m))]:
        ok, witnesses = valid_over([model], t_axiom, semantics)
        assert ok, (semantics, witnesses)
    ok, witnesses = valid_over([trade_m], parse("K{b} i", Lang.L), "KLM_L")
    assert not ok and witnesses
    with pytest.raises(ValueError):
        valid_over([trade_m], t_axiom, "nope")


def test_set_evaluator_matches_per_state(trade_m):
    from awarekit.formula import enumerate_formulas
    for lang, semantics in [(Lang.L, "KLM_L"), (Lang.LKA, "KLM_LKA")]:
        checker = ValidityChecker([trade_m], semantics)
        ev = checker.evaluators[0]
        per_state = KlmOracle(trade_m, lang)
        for f in enumerate_formulas(["i", "l"], ["b", "o"], 2, lang):
            mask = ev.true_mask(f)
            for i, s in enumerate(ev.states):
                assert ((mask >> i) & 1 == 1) == \
                    (per_state.value(f, s) is Truth.TRUE), (lang, f, s)


def test_axiom_suite_on_trade(trade_m):
    report = check_axiom_suite([trade_m], hms_suite(), 1)
    assert report["kind"] == "axioms" and report["passed"]
    assert set(report["schemas"]) == {
        "PL-Top", "PL1", "PL2", "PL3", "Symmetry", "Awareness Conjunction",
        "Awareness Knowledge Reflection", "T", "4"}
    assert all(entry["passed"] for entry in report["schemas"].values())
    assert report["rules"]["MP"]["violations"] == []
    assert report["rules"]["RK-Inference"]["violations"] == []
    assert report["rules"]["RK-Inference"]["premise_valid"] > 0


def test_schema_5_fails_with_pinned_witness(trade_m):
    report = check_axiom_suite([trade_m], hms_suite(), 1,
                               extra_schemas=(SCHEMA_5,), check_rules=False)
    entry = report["schemas"]["5"]
    assert not entry["passed"]
    first = entry["failures"][0]
    assert first["state"] == "w2@{i,l}"
    assert first["formula"] == "~(~K{b} l & ~K{b} ~K{b} l)"


def test_lga_suite_on_trade(trade_m):
    report = check_axiom_suite([trade_m], lga_suite(), 1)
    assert report["passed"]
    assert set(report["schemas"]) == {
        "PL-Top", "PL1", "PL2", "PL3", "K-Distribution", "Explicit Knowledge",
        "A1", "A2", "A3", "A4", "A5", "A11", "A12"}
    assert report["rules"]["K-Inference"]["violations"] == []


def test_lga_suite_on_fh(trade_m):
    report = check_axiom_suite([fh_transform(trade_m)], lga_suite(), 1,
                               check_rules=False)
    assert report["passed"]


def test_suite_model_mismatch(trade_m):
    with pytest.raises(ValueError):
        check_axiom_suite([h_transform(trade_m)], lga_suite(), 1)
    with pytest.raises(ValueError):
        check_axiom_suite([fh_transform(trade_m)], hms_suite(), 1)
    with pytest.raises(ValueError):
        check_axiom_suite([], hms_suite(), 1)


def test_derived_theorems(trade_m):
    results = derived_theorem_checks([trade_m])
    assert set(results) == {"knowledge trichotomy", "awareness introspection",
                            "awareness generated by atoms", "passed"}
    assert results["passed"]
    assert all(v["passed"] for k, v in results.items() if k != "passed")


def test_random_klm_eq_is_partitional():
    rng = random.Random(7)
    for _ in range(25):
        m = random_klm_eq(rng)
        assert validate_klm(m) == []
        assert all(flags["equivalence"]
                   for flags in relation_properties(m.base).values())


def test_random_klm_awareness_constant_on_components():
    rng = random.Random(8)
    for _ in range(25):
        m = random_klm(rng)
        assert validate_klm(m) == []
        for a in m.base.agents:
            for (w, v) in m.base.relations.get(a, frozenset()):
                assert m.awareness[a][w] == m.awareness[a][v]


def test_random_models_are_deterministic():
    a = random_klm_eq(random.Random(42))
    b = random_klm_eq(random.Random(42))
    assert a == b
