import random
from collections import Counter

import pytest

from awarekit import truth, verify
from awarekit.fh import Explicit, FHModel
from awarekit.formula import (
    And,
    Atom,
    Aware,
    Know,
    Lang,
    Not,
    atoms_of,
    conj,
    enumerate_formulas,
    fold,
    formula_count,
    iff,
    implies,
    lor,
    parse,
)
from awarekit.hms import DenotationEvaluator, Event, HMSModel, UnawarenessFrame
from awarekit.klm import validate_klm
from awarekit.kripke import KripkeModel, relation_properties
from awarekit.modelio import load_fixture
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import MaskEvaluator, Truth
from awarekit.verify import (
    SCHEMA_5,
    AxiomSuite,
    Schema,
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
    assert report.checked > 0 and not report.failures
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


def test_valid_over_refuses_unknown_atoms_and_agents(trade_m):
    models = [("KLM_L", trade_m), ("KLM_LKA", trade_m), ("HMS", h_transform(trade_m)),
              ("FH_L", fh_transform(trade_m)), ("FH_LKA", fh_transform(trade_m))]
    for text, message in (("zz | ~zz", "atoms outside the model: zz"),
                          ("K{c} i -> i", "agents outside the model: c")):
        for semantics, model in models:
            with pytest.raises(KeyError, match=f"^'formula mentions {message}'$"):
                valid_over([model], parse(text, Lang.L), semantics)


def test_validity_refuses_what_it_cannot_check(trade_m):
    """An empty corpus, and a model of a class the semantics does not read,
    are refused, naming the class the semantics takes."""
    f = parse("K{b} i -> i", Lang.L)
    with pytest.raises(ValueError, match="^empty model corpus$"):
        valid_over([], f, "KLM_L")
    with pytest.raises(ValueError, match="^empty model corpus$"):
        ValidityChecker([], "FH_LKA")
    for semantics, model, takes in [("HMS", trade_m, "HMSModel"),
                                    ("KLM_L", fh_transform(trade_m), "KripkeLatticeModel"),
                                    ("KLM_LKA", h_transform(trade_m), "KripkeLatticeModel"),
                                    ("FH_L", trade_m, "FHModel"),
                                    ("FH_LKA", h_transform(trade_m), "FHModel")]:
        with pytest.raises(ValueError, match=f"^semantics {semantics} takes {takes} models, "
                                             f"not {type(model).__name__}$"):
            valid_over([trade_m, model] if semantics.startswith("KLM") else [model],
                       f, semantics)


def test_set_evaluator_matches_per_state(trade_m):
    from awarekit.formula import enumerate_formulas
    for lang, semantics in [(Lang.L, "KLM_L"), (Lang.LKA, "KLM_LKA")]:
        checker = ValidityChecker([trade_m], semantics)
        ev = checker.evaluators[0]
        per_state = KlmOracle(trade_m, lang)
        for f in enumerate_formulas(["i", "l"], ["b", "o"], 2, lang):
            mask = ev.truth_masks(f)[0]
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


def _no_walk(*args):
    raise AssertionError("an instance was walked on its own")


def _without_rules(report):
    return {key: value for key, value in report.items() if key not in ("rules", "rule_note")}


@pytest.mark.parametrize("depth, classes, failing", [(2, 17, 11), (3, 21, 15)])
def test_suite_past_the_cap_is_exhaustive(monkeypatch, trade_m, depth, classes, failing):
    """Trade's HMS suite plus schema 5, at 1.2e7 instances (depth 2) and
    1.9e13 (depth 3): each schema covers all its instances, counted in closed
    form, from one program run per class tuple and at most C^n instances
    built per agent tuple; no instance is walked on its own, and at depth 2
    the rules, run as well, walk none either and leave the schemas' keys as
    they are."""
    built = Counter()

    def counted(schema):
        def build(ms, ags):
            built[schema.id] += 1
            return schema.build(ms, ags)
        return Schema(schema.id, schema.meta_arity, schema.agent_arity, build,
                      schema.premises, schema.side)

    suite = hms_suite()
    schemas = [counted(s) for s in suite.schemas + (SCHEMA_5,)]
    monkeypatch.setattr(MaskEvaluator, "check", _no_walk)
    without_5 = AxiomSuite(suite.name, tuple(schemas[:-1]), suite.rules)
    report = check_axiom_suite([trade_m], without_5, depth, extra_schemas=schemas[-1:],
                               check_rules=False)
    if depth == 2:
        with_rules = check_axiom_suite([trade_m], suite, depth, extra_schemas=(SCHEMA_5,))
        assert _without_rules(with_rules) == _without_rules(report)
        assert all(e["preserved"] for e in with_rules["rules"].values())
    metas = formula_count(trade_m.base.atoms, trade_m.base.agents, depth, Lang.L)
    agents = len(trade_m.base.agents)
    assert "capped" not in report and report["classes"] == classes
    for s in schemas:
        tuples = agents ** s.agent_arity
        assert report["schemas"][s.id]["checked"] == tuples * metas ** s.meta_arity, s.id
        assert built[s.id] <= tuples * classes ** s.meta_arity, s.id
    assert report["class_tuples"] == sum(
        agents ** s.agent_arity * classes ** s.meta_arity for s in schemas)
    assert [sid for sid, e in report["schemas"].items() if not e["passed"]] == ["5"]
    assert len(report["failures"]) == failing
    first = dict(report["failures"][0])
    assert first.pop("instances") > 0 and first == {
        "schema": "5", "formula": "~(~K{b} l & ~K{b} ~K{b} l)", "state": "w2@{i,l}",
        "left": "not True", "right": "True"}


def test_rk_diagonal_is_the_group_of_one(trade_m):
    """f & f has f's signature on every model class the RK rule is read on,
    and on awareness structures without formula-list sets, so the
    RK-Inference instances with f1 = f2 are its groups of one premise."""
    fh = fh_transform(trade_m)
    checkers = [ValidityChecker([trade_m], "KLM_L"), ValidityChecker([trade_m], "KLM_LKA"),
                ValidityChecker([h_transform(trade_m)], "HMS"),
                ValidityChecker([fh], "FH_L"), ValidityChecker([fh], "FH_LKA")]
    for checker in checkers:
        ev = checker.evaluators[0]
        for f in enumerate_formulas(trade_m.base.atoms, trade_m.base.agents, 2, checker.lang):
            assert fold(And(f, f), ev) == fold(f, ev), (checker.semantics, f)


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
                assert checker.check(build(a, f))[0], (name, a, f)


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


def _shared_vocabulary_hms():
    """A space-lattice model whose two spaces define the same atoms: the world
    copies of each lower state are those of the upper states above it, so
    neither side of the HMS-to-lattice check has one state per compared pair."""
    fr = UnawarenessFrame(
        {"D": {"d1", "d2"}, "U": {"u1", "u2", "u3", "u4"}}, [("D", "U")],
        {("U", "D"): {"u1": "d1", "u2": "d1", "u3": "d2", "u4": "d2"}},
        {"a": {"d1": {"d1"}, "d2": {"d2"}, "u1": {"d1"}, "u2": {"d1"},
               "u3": {"u3", "u4"}, "u4": {"u3", "u4"}}})
    return HMSModel(fr, {"p": Event.make("D", {"d1"}), "q": Event.make("D", {"d2"})})


def _checker_cases(seed):
    """The six checker calls on one seeded partitional model and one seeded
    model with arbitrary relations, and the HMS check on the shared-copies
    model, each with its per-state oracle."""
    k = random_klm_eq(random.Random(seed))
    hms = h_transform(k)
    cases = [(check_L_equiv_klm_hms, oracles.equiv_klm_hms, (k, 2)),
             (check_L_equiv_hms_klm, oracles.equiv_hms_klm, (hms, 2)),
             (check_L_equiv_hms_klm, oracles.equiv_hms_klm, (_shared_vocabulary_hms(), 2))]
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
    return KripkeModel(base.atoms, base.agents, base.worlds, base.relations,
                       {**base.valuation, p: base.valuation[p] ^ {w}})


def _with_base(model, base):
    """A lattice model or awareness structure with another base model."""
    return type(model)(base, model.awareness)


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
        return _with_base(klm, _flip_base(klm.base, seed)), corr

    return {
        "l_transform": l_flipped,
        "h_transform": lambda k: _flip_hms(h_transform_(k), seed),
        "fh_transform": lambda k: _with_base(fh_transform_(k), _flip_base(k.base, seed)),
        "k_transform": lambda s: _with_base(k_transform(s), _flip_base(s.base, seed)),
    }


def _refuse_evaluator_folds(patch):
    """Patch fold where the evaluators call it to refuse folding a formula
    into an evaluator's algebra; other algebras fold as before."""
    def guarded(f, alg, memo=None):
        if isinstance(alg, MaskEvaluator):
            raise AssertionError(f"{f} was folded into {type(alg).__name__}")
        return fold(f, alg, memo)

    for target in ("awarekit.truth.fold", "awarekit.hms.fold"):
        patch.setattr(target, guarded)


def test_injected_disagreements_match_oracle(monkeypatch):
    """With one transform's output flipped at one atom, each checker reports
    the same disagreements as the per-state loops, in the same order, at
    depth 0 as at depth 2. The checkers find each formula's class from its
    operands' classes and fold no formula into an evaluator."""
    for seed in range(12):
        injectors = _injectors(seed)
        for check, oracle, args in _checker_cases(seed):
            for args in (args, (*args[:-1], 0)):
                with monkeypatch.context() as patch:
                    for name, flipped in injectors.items():
                        patch.setattr(verify, name, flipped)
                    with monkeypatch.context() as unfolded:
                        _refuse_evaluator_folds(unfolded)
                        body = check(*args).to_json()
                    assert body == oracle(*args).to_json(), (seed, check.__name__, args[-1])
                assert body["failures"], (seed, check.__name__, args[-1])


def _no_fold(*args):
    raise AssertionError("a formula was folded")


def test_agreeing_checks_fold_no_formula(monkeypatch, trade_m):
    """Each class is decided from its key: with folding refused once the
    transforms and evaluators are built, the six depth-3 checks on trade
    (acceptance criteria 3 and 4) report as before."""
    calls = [(check_L_equiv_klm_hms, (trade_m, 3)),
             (check_L_equiv_hms_klm, (h_transform(trade_m), 3))]
    calls += [(check_equiv_fh_klm, (x, lang, 3))
              for lang in (Lang.L, Lang.LKA) for x in (load_fixture("trade.fh.json"), trade_m)]
    want = [check(*args).to_json() for check, args in calls]
    assert all(body["checked"] and not body["failures"] for body in want)
    equivalence = verify._equivalence

    def unfolded(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(truth, "fold", _no_fold)
            return equivalence(*args, **kwargs)

    monkeypatch.setattr(verify, "_equivalence", unfolded)
    assert [check(*args).to_json() for check, args in calls] == want


def _no_set_up(*args):
    raise AssertionError("an evaluator was built")


def test_budget_is_refused_before_set_up(monkeypatch, trade_m):
    """A check past the formula budget is refused before any evaluator is
    built, with the enumerator's message. The harness imports the
    awareness-structure evaluator from its module when it runs."""
    for name in ("Evaluator", "DenotationEvaluator"):
        monkeypatch.setattr(verify, name, _no_set_up)
    monkeypatch.setattr("awarekit.fh.FHEvaluator", _no_set_up)
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
    raise AssertionError("the formulas were enumerated or walked")


def test_trade_depth_3_is_decided_by_class(monkeypatch, trade_m):
    """The six depth-3 trade checks agree on every class, so none of them
    enumerates or walks a formula; the counts are the formula sweep's."""
    monkeypatch.setattr(verify, "enumerate_formulas", _no_enumeration)
    monkeypatch.setattr(verify, "_formulas", _no_enumeration)
    fh = fh_transform(trade_m)
    reports = [check_L_equiv_klm_hms(trade_m, 3), check_L_equiv_hms_klm(h_transform(trade_m), 3)]
    reports += [check_equiv_fh_klm(x, lang, 3)
                for lang in (Lang.L, Lang.LKA) for x in (fh, trade_m)]
    assert [r.to_json() for r in reports] == [
        {"kind": "equivalence", "depth": 3, "checked": n, "failures": []}
        for n in (321_516, 321_516, 114_885, 114_885, 405_525, 405_525)]


def _rule_counts(report):
    return {rid: (e["premise_valid"], e["vacuous"], e["preserved"])
            for rid, e in report["rules"].items()}


def test_suites_are_decided_without_enumeration(monkeypatch, trade_m):
    """Suites with rules on, exhaustive and failing past the cap alike, take
    their classes and counts from the class builder and enumerate or walk
    no formula."""
    monkeypatch.setattr(verify, "enumerate_formulas", _no_enumeration)
    monkeypatch.setattr(verify, "_formulas", _no_enumeration)
    hms = check_axiom_suite([trade_m], hms_suite(), 3)
    assert hms["passed"] and not hms["failures"] and "capped" not in hms
    assert (hms["checked"], hms["classes"], hms["class_tuples"]) == (19_236_624_626_584, 21, 11_236)
    assert _rule_counts(hms) == {"MP": (148_225, 717_716_624, True),
                                 "RK-Inference": (33_993_980_769_418, 1_944_358_337_568, True)}

    with_5 = check_axiom_suite([trade_m], hms_suite(), 3, extra_schemas=(SCHEMA_5,))
    assert not with_5["passed"] and "capped" not in with_5
    assert (with_5["checked"], with_5["class_tuples"]) == (19_236_624_680_170, 11_278)
    assert _rule_counts(with_5) == _rule_counts(hms)
    assert {k: e for k, e in with_5["schemas"].items() if k != "5"} == hms["schemas"]
    assert with_5["schemas"]["5"]["checked"] == 53_586
    assert len(with_5["failures"]) == 15 and with_5["failures"][:2] == [
        {"schema": "5", "formula": f"~(~K{{b}} {p} & ~K{{b}} ~K{{b}} {p})", "state": "w2@{i,l}",
         "left": "not True", "right": "True", "instances": n}
        for p, n in (("l", 639), ("~l", 232))]

    lga = check_axiom_suite([load_fixture("trade.fh.json")], lga_suite(), 2)
    assert lga["passed"] and "capped" not in lga
    assert (lga["checked"], lga["classes"], lga["class_tuples"]) == (76_769_002, 19, 9_406)
    assert _rule_counts(lga) == {"MP": (11_236, 167_693, True), "K-Inference": (212, 634, True)}


def _uncompiled(suite):
    """A copy of suite whose schemas have compiled no program."""
    def copy(s):
        return Schema(s.id, s.meta_arity, s.agent_arity, s.build, s.premises, s.side)
    return AxiomSuite(suite.name, tuple(map(copy, suite.schemas)), tuple(map(copy, suite.rules)))


def test_a_suite_compiles_each_schema_once(monkeypatch, trade_m):
    """A schema compiles its programs, one per premise and one for `build`,
    over agent slots the first time a check reads it in a language, and
    keeps them: a second check with the same suite compiles none, on
    another model or another model class in that language neither. Each
    suite is built once per process."""
    compiled = []
    compile_program = verify.compile_program

    def counted(f, holes, lang):
        compiled.append(lang)
        return compile_program(f, holes, lang)

    monkeypatch.setattr(verify, "compile_program", counted)
    assert hms_suite() is hms_suite() and lga_suite() is lga_suite()
    for suite, lang, corpora in (
            (hms_suite(), Lang.L, [[trade_m], [trade_m], [random_klm_eq(random.Random(3))]]),
            (lga_suite(), Lang.LKA, [[trade_m], [load_fixture("trade.fh.json")], [trade_m]])):
        suite = _uncompiled(suite)
        programs = sum(1 + len(s.premises([Atom("p")] * s.meta_arity, "ab") if s.premises else ())
                       for s in suite.schemas + suite.rules)
        compiled.clear()
        for models in corpora:
            assert check_axiom_suite(models, suite, 1)["passed"]
            assert compiled == [lang] * programs


def test_space_lattice_signature_fixes_the_denotation():
    """On space-lattice transforms, formulas with one atom set and one true
    mask have one denotation, base space and base set alike, so keying them
    by the whole denotation, as the class builder does, splits no class of
    atom set and true mask."""
    rng = random.Random(2108)
    for _ in range(12):
        ev = DenotationEvaluator(h_transform(random_klm_eq(rng)))
        seen = {}
        for f in enumerate_formulas(ev.m.atoms, ev.m.frame.agents, 2, Lang.L):
            e = ev.denotation(f)
            assert seen.setdefault((atoms_of(f), ev.truth_masks(f)[0]), e) == e, f


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
    decided by class without enumerating, on formula-list awareness sets too,
    where a formula's term is in its key only while it is a subterm of a
    listed formula; a report with failures falls back to the formula sweep
    for them."""
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
            assert bool(enumerated) == bool(body["failures"]), (seed, args[1:])
            kinds.add((oracles.explicit_sets(args[:1]), bool(body["failures"])))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
