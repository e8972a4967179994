import random
from dataclasses import replace

import pytest

from awarekit import verify
from awarekit.formula import Lang, parse
from awarekit.hms import Event, HMSModel
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

import oracles
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


# ---------------------------------------------------------------------------
# the mask comparison of the equivalence checkers against the per-state loops


def _checker_cases(seed):
    """The six checker calls on one seeded partitional model and one seeded
    model with arbitrary relations, each with its per-state oracle."""
    k = random_klm_eq(random.Random(seed))
    hms = h_transform(k)
    cases = [(check_L_equiv_klm_hms, oracles.equiv_klm_hms, (k, 2)),
             (check_L_equiv_hms_klm, oracles.equiv_hms_klm, (hms, 2))]
    r = random_klm(random.Random(seed))
    for x in (r, fh_transform(r)):
        for lang in (Lang.L, Lang.LKA):
            cases.append((check_equiv_fh_klm, oracles.equiv_fh_klm, (x, lang, 2)))
    return cases


def test_checkers_match_per_state_oracle():
    for seed in range(12):
        for check, oracle, args in _checker_cases(seed):
            body = check(*args).to_json()
            assert body == oracle(*args).to_json(), (seed, check.__name__)
            assert body["checked"] > 0


def _flip_base(base, seed):
    """The base model with one atom's truth flipped at one world."""
    p = sorted(base.atoms)[seed % len(base.atoms)]
    w = sorted(base.worlds)[seed % len(base.worlds)]
    return replace(base, valuation={**base.valuation, p: base.valuation[p] ^ {w}})


def _flip_hms(m, seed):
    """The space-lattice model with one state of one atom's base space
    moved into or out of the atom's base set."""
    p = sorted(m.valuation)[seed % len(m.valuation)]
    e = m.valuation[p]
    states = sorted(m.frame.spaces[e.base_space])
    s = states[seed % len(states)]
    return HMSModel(m.frame, {**m.valuation, p: Event(e.base_space, e.base_set ^ {s})})


def _injectors(seed):
    """Replacements of each transform in verify that flip one atom of the
    transform's output, so that the two sides disagree somewhere."""
    l_transform, h_transform_ = verify.l_transform, verify.h_transform
    fh_transform_, k_transform = verify.fh_transform, verify.k_transform

    def l_flipped(m):
        klm, corr = l_transform(m)
        return replace(klm, base=_flip_base(klm.base, seed)), corr

    return {
        "l_transform": l_flipped,
        "h_transform": lambda k: _flip_hms(h_transform_(k), seed),
        "fh_transform": lambda k: replace(fh_transform_(k), base=_flip_base(k.base, seed)),
        "k_transform": lambda s: replace(k_transform(s), base=_flip_base(s.base, seed)),
    }


def test_injected_disagreements_match_oracle(monkeypatch):
    """With one transform's output flipped at one atom, each checker reports
    the same disagreements as the per-state loops, in the same order."""
    for seed in range(12):
        injectors = _injectors(seed)
        for check, oracle, args in _checker_cases(seed):
            with monkeypatch.context() as patch:
                for name, flipped in injectors.items():
                    patch.setattr(verify, name, flipped)
                body = check(*args).to_json()
                assert body == oracle(*args).to_json(), (seed, check.__name__)
            assert body["failures"], (seed, check.__name__)


def test_capped_report(monkeypatch, trade_m):
    """A check stopped by the instantiation cap before its last formula
    says so; the count and the failures match the per-state loops."""
    full = check_L_equiv_klm_hms(trade_m, 2)
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", 100)
    for check, oracle, args in _checker_cases(3) + [
            (check_L_equiv_klm_hms, oracles.equiv_klm_hms, (trade_m, 2))]:
        report = check(*args)
        assert report.capped and report.to_json()["capped"] is True
        body = report.to_json()
        del body["capped"]
        assert body == oracle(*args).to_json()
    capped = check_L_equiv_klm_hms(trade_m, 2)
    assert 100 < capped.checked < full.checked
    # a cap passed exactly at the last formula truncates nothing
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", full.checked - 1)
    report = check_L_equiv_klm_hms(trade_m, 2)
    assert report.checked == full.checked and not report.capped
    assert "capped" not in report.to_json()
