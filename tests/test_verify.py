import random
from dataclasses import replace

import pytest

from awarekit import verify
from awarekit.fh import Explicit, FHModel
from awarekit.formula import (
    TOP,
    Atom,
    Aware,
    Know,
    Lang,
    Not,
    atoms_of,
    conj,
    enumerate_formulas,
    iff,
    implies,
    lor,
    parse,
)
from awarekit.hms import DenotationEvaluator, Event, HMSModel
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


DERIVED_THEOREMS = {
    "knowledge trichotomy": lambda a, f: implies(
        Know(a, Not(Know(a, Not(Know(a, f))))), lor(Know(a, f), Know(a, Not(Know(a, f))))),
    "awareness introspection": lambda a, f: implies(Aware(a, f), Know(a, Aware(a, f))),
    "awareness generated by atoms": lambda a, f: iff(
        Aware(a, f), conj([Aware(a, Atom(p)) for p in sorted(atoms_of(f))])),
}


def test_derived_theorems(trade_m):
    """Three consequences of the explicit-knowledge axioms are valid on trade
    at every depth-1 instance."""
    checker = ValidityChecker([trade_m], "KLM_L")
    metas = enumerate_formulas(trade_m.base.atoms, trade_m.base.agents, 1, Lang.L)
    for name, build in DERIVED_THEOREMS.items():
        for a in sorted(trade_m.base.agents):
            for f in metas:
                assert checker.valid(build(a, f)), (name, a, f)


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
    the same disagreements as the per-state loops, in the same order, at
    depth 0 as at depth 2. The class pass gives up at that atom, having
    keyed no formula beyond Top and the atoms, and the formula sweep reports."""
    keyed = []
    signature = verify._signature
    monkeypatch.setattr(verify, "_signature", lambda f, evs: keyed.append(f) or signature(f, evs))
    for seed in range(12):
        injectors = _injectors(seed)
        for check, oracle, args in _checker_cases(seed):
            for args in (args, (*args[:-1], 0)):
                keyed.clear()
                with monkeypatch.context() as patch:
                    for name, flipped in injectors.items():
                        patch.setattr(verify, name, flipped)
                    body = check(*args).to_json()
                    assert body == oracle(*args).to_json(), (seed, check.__name__, args[-1])
                assert body["failures"], (seed, check.__name__, args[-1])
                assert keyed and all(f == TOP or isinstance(f, Atom) for f in keyed)


def _no_set_up(*args):
    raise AssertionError("an evaluator was built")


def test_budget_is_refused_before_set_up(monkeypatch, trade_m):
    """A check past the formula budget is refused before any evaluator is
    built, with the enumerator's message."""
    for name in ("Evaluator", "DenotationEvaluator", "FHEvaluator"):
        monkeypatch.setattr(verify, name, _no_set_up)
    for check, args in [(check_L_equiv_klm_hms, (trade_m, 4)),
                        (check_L_equiv_hms_klm, (h_transform(trade_m), 4)),
                        (check_equiv_fh_klm, (trade_m, Lang.LKA, 4)),
                        (check_equiv_fh_klm, (fh_transform(trade_m), Lang.L, 4))]:
        with pytest.raises(ValueError, match="refusing to enumerate .* formulas of depth up to 4"):
            check(*args)


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


# ---------------------------------------------------------------------------
# verdicts per signature class


def _no_enumeration(*args):
    raise AssertionError("the formulas were enumerated")


def test_trade_depth_3_is_decided_by_class(monkeypatch, trade_m):
    """The six depth-3 trade checks agree on every class, so none of them
    enumerates a formula; the counts are the formula sweep's."""
    monkeypatch.setattr(verify, "enumerate_formulas", _no_enumeration)
    fh = fh_transform(trade_m)
    reports = [check_L_equiv_klm_hms(trade_m, 3), check_L_equiv_hms_klm(h_transform(trade_m), 3)]
    reports += [check_equiv_fh_klm(x, lang, 3)
                for lang in (Lang.L, Lang.LKA) for x in (fh, trade_m)]
    assert [r.to_json() for r in reports] == [
        {"kind": "equivalence", "depth": 3, "checked": n, "failures": []}
        for n in (321_516, 321_516, 114_885, 114_885, 405_525, 405_525)]


def test_space_lattice_signature_fixes_the_denotation():
    """On space-lattice transforms, formulas with one atom set and one true
    mask have one denotation, base space and base set alike, which is what
    lets the class pass key space-lattice formulas by their signature."""
    rng = random.Random(2108)
    for _ in range(12):
        ev = DenotationEvaluator(h_transform(random_klm_eq(rng)))
        seen = {}
        for f in enumerate_formulas(ev.m.atoms, ev.m.frame.agents, 2, Lang.L):
            e = ev.denotation(f)
            assert seen.setdefault(verify._signature(f, [ev]), e) == e, f


def _explicit(r, seed):
    """An awareness structure on r's base with formula-list awareness sets,
    one per agent, so that awareness is constant along the relations."""
    rng = random.Random(seed)
    pool = enumerate_formulas(r.base.atoms, r.base.agents, 1, Lang.LKA)
    return FHModel.make(r.base, {
        a: dict.fromkeys(sorted(r.base.worlds), Explicit.make(rng.sample(pool, 4)))
        for a in sorted(r.base.agents)})


def _class_cases(seed):
    """The checker calls at depths 0 to 3 (one-atom models at depth 3): both
    L directions on a partitional model, and FH L and LKA both ways on a model
    with arbitrary relations and on an awareness structure with formula-list
    awareness sets."""
    for depth in (0, 1, 2, 3):
        size = {"max_worlds": 3, "max_atoms": 1 if depth == 3 else 3}
        k = random_klm_eq(random.Random(seed), **size)
        yield check_L_equiv_klm_hms, oracles.equiv_klm_hms, (k, depth)
        yield check_L_equiv_hms_klm, oracles.equiv_hms_klm, (h_transform(k), depth)
        r = random_klm(random.Random(seed), **size)
        for x in (r, fh_transform(r), _explicit(r, seed)):
            for lang in (Lang.L, Lang.LKA):
                yield check_equiv_fh_klm, oracles.equiv_fh_klm, (x, lang, depth)


def test_class_verdicts_match_per_state_oracle(monkeypatch):
    """Every report equals the per-state loops'. A report with no failure is
    decided by class without enumerating, except on formula-list awareness
    sets, which read syntax; a report with failures falls back to the
    formula sweep for them."""
    enumerated = []
    enumerate_formulas_ = verify.enumerate_formulas
    monkeypatch.setattr(verify, "enumerate_formulas",
                        lambda *args: enumerated.append(args) or enumerate_formulas_(*args))
    kinds = set()
    for seed in range(3):
        for check, oracle, args in _class_cases(seed):
            enumerated.clear()
            body = check(*args).to_json()
            assert body == oracle(*args).to_json(), (seed, check.__name__, args[1:])
            syntactic = isinstance(args[0], FHModel) and verify._reads_syntax([args[0]])
            assert bool(enumerated) == (syntactic or bool(body["failures"])), (seed, args[1:])
            kinds.add((syntactic, bool(body["failures"])))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
