import random
from collections import Counter
from itertools import product

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
    terms,
)
from awarekit.hms import DenotationEvaluator, Event, HMSModel, UnawarenessFrame
from awarekit.klm import KripkeLatticeModel, validate_klm
from awarekit.kripke import KripkeModel, relation_properties
from awarekit.modelio import load_fixture
from awarekit.sliced import Sliced
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import MaskEvaluator, Truth
from awarekit.verify import (
    K_INFERENCE,
    MP,
    RK_INFERENCE,
    SCHEMA_5,
    AxiomSuite,
    Schema,
    ValidityChecker,
    check_axiom_suite,
    check_equiv_fh_klm,
    check_L_equiv_hms_klm,
    check_L_equiv_klm_hms,
    compile_program,
    hms_suite,
    lga_suite,
    random_klm,
    random_klm_eq,
    valid_over,
)

import oracles
from conftest import make_trade, part
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
        alg = checker.evaluators[0].algebra
        for f in enumerate_formulas(trade_m.base.atoms, trade_m.base.agents, 2, checker.lang):
            assert fold(And(f, f), alg) == fold(f, alg), (checker.semantics, f)


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
    # a corpus without atoms has no fillings: refused before any sweep, rules on or off
    base = KripkeModel.make([], ["a"], ["w1", "w2"], {"a": part([["w1", "w2"]])}, {})
    k = KripkeLatticeModel.make(base, {"a": {"w1": [], "w2": []}})
    for model, suite in ((k, hms_suite()), (k, lga_suite()), (h_transform(k), hms_suite()),
                         (fh_transform(k), lga_suite())):
        for rules in (True, False):
            with pytest.raises(ValueError, match="^atoms and agents must be nonempty$"):
                check_axiom_suite([model], suite, 1, check_rules=rules)


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
    into their algebra, `Sliced` at width 1; other algebras fold as before."""
    def guarded(f, alg, memo=None):
        if isinstance(alg, Sliced):
            raise AssertionError(f"{f} was folded into {type(alg).__name__}")
        return fold(f, alg, memo)

    patch.setattr("awarekit.truth.fold", guarded)


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


def _plant(patch, seed):
    """Patch in the flipped transforms of `_injectors(seed)`."""
    for name, flipped in _injectors(seed).items():
        patch.setattr(verify, name, flipped)


def test_capped_report(monkeypatch, trade_m):
    """The cap bounds the disagreement rows a check lists, never the pairs it
    decides. With the cap at 100, trade and every check with at most 100
    rows report as uncapped; a check with more, planted by a flipped
    transform or not, is capped, counts every pair and lists the uncapped
    check's first 100 rows, as the per-state loops do. A cap equal to the
    row total caps nothing."""
    def every_report():
        out = {"trade": check_L_equiv_klm_hms(trade_m, 3)}
        for seed in range(12):
            for planted in (False, True):
                with monkeypatch.context() as patch:
                    if planted:
                        _plant(patch, seed)
                    for i, (check, _, args) in enumerate(_checker_cases(seed)):
                        out[seed, planted, i] = check(*args)
        return out

    full = every_report()
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", 100)
    capped = every_report()
    assert not full["trade"].failures and not capped["trade"].capped
    for case, want in full.items():
        got = capped[case]
        if len(want.failures) <= 100:
            assert repr(got) == repr(want) and got.to_json() == want.to_json(), case
        else:
            assert got.capped and got.to_json()["capped"] is True, case
            assert got.checked == want.checked and got.failures == want.failures[:100], case
    assert sum(len(want.failures) > 100 for want in full.values()) == 76

    check, oracle, args = _checker_cases(0)[4]
    want = full[0, True, 4]
    assert len(want.failures) == 141
    with monkeypatch.context() as patch:
        _plant(patch, 0)
        body = check(*args).to_json()
        assert body.pop("capped") and body == oracle(*args).to_json()
        patch.setattr(verify, "INSTANTIATION_CAP", len(want.failures))
        assert repr(check(*args)) == repr(want)


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


def _wide_klm():
    """The first partitional model of 4 worlds and 4 atoms that
    `random_klm_eq` draws from seed 25."""
    rng = random.Random(25)
    k = random_klm_eq(rng, max_worlds=4, max_atoms=4)
    while (len(k.base.worlds), len(k.base.atoms)) != (4, 4):
        k = random_klm_eq(rng, max_worlds=4, max_atoms=4)
    return k


def test_wide_depth_3_is_decided_by_class(monkeypatch):
    """On a model of 4 worlds and 4 atoms the six depth-3 checks count up to
    1.8e7 formula x state pairs, past the instantiation cap. No class
    disagrees, so none of them enumerates or walks a formula, and none is
    capped: the cap bounds the rows listed, not the pairs decided."""
    k = _wide_klm()
    hms, fh = h_transform(k), fh_transform(k)
    monkeypatch.setattr(verify, "enumerate_formulas", _no_enumeration)
    monkeypatch.setattr(verify, "_formulas", _no_enumeration)
    reports = [check_L_equiv_klm_hms(k, 3), check_L_equiv_hms_klm(hms, 3)]
    reports += [check_equiv_fh_klm(x, lang, 3)
                for lang in (Lang.L, Lang.LKA) for x in (fh, k)]
    assert [r.to_json() for r in reports] == [
        {"kind": "equivalence", "depth": 3, "checked": n, "failures": []}
        for n in (17_689_280, 17_689_280, 3_362_492, 3_362_492, 10_567_424, 10_567_424)]


def test_equiv_fh_klm_refuses_a_space_lattice(trade_m):
    with pytest.raises(TypeError, match="expected an FH or Kripke lattice model, got HMSModel"):
        check_equiv_fh_klm(h_transform(trade_m), Lang.L, 1)


def test_suite_refuses_mixed_model_classes(trade_m):
    """A lattice model and its H-transform take one suite, but not in one
    corpus."""
    with pytest.raises(ValueError, match="mixed model classes in one corpus"):
        check_axiom_suite([trade_m, h_transform(trade_m)], hms_suite(), 1)


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
    decided by class without walking a formula, on formula-list awareness
    sets too, where a formula's term is in its key only while it is a
    subterm of a listed formula; a report with failures walks the formulas
    one by one, never as a list, to list them."""
    walked = []
    formulas = verify._formulas
    monkeypatch.setattr(verify, "_formulas",
                        lambda *args: walked.append(args) or formulas(*args))
    monkeypatch.setattr(verify, "enumerate_formulas", None)
    kinds = set()
    for seed in range(3):
        for check, oracle, args in _class_cases(seed):
            walked.clear()
            body = check(*args).to_json()
            assert body == oracle(*args).to_json(), (seed, check.__name__, args[1:])
            # the formulas and the class automaton, each walked once
            assert len(walked) == (2 if body["failures"] else 0), (seed, args[1:])
            kinds.add((oracles.explicit_sets(args[:1]), bool(body["failures"])))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def _suite_programs():
    """Every schema and rule of both suites, schema 5 and the three rules, by id."""
    return {s.id: s for s in (*hms_suite().schemas, *lga_suite().schemas, SCHEMA_5, MP,
                              K_INFERENCE, RK_INFERENCE)}


def test_every_program_kernel_equals_fold_on_scalar_evaluators():
    """Each program of every schema and rule, under L and LKA, is one kernel
    that runs on an evaluator's algebra at width 1 as at wider widths: at
    every class tuple and agent tuple it gives the signature `fold` gives
    the instance built from the tuple's classes, on a lattice model with
    arbitrary relations, a partitional one and an awareness structure with
    formula-list sets."""
    r = verify.random_klm(random.Random(5), max_worlds=3, max_atoms=1)
    models = [r, verify.random_klm_eq(random.Random(5), max_worlds=3, max_atoms=1),
              _explicit(r, 5)]
    assert oracles.explicit_sets(models[2:])
    checked = 0
    for model in models:
        atoms, agents = model.signature
        for lang in Lang.L, Lang.LKA:
            ev = model.evaluator(lang)
            alg = ev.algebra
            reps, _, _, keys = verify._classes((atoms, agents, 1, lang), [ev])
            for schema in _suite_programs().values():
                n = schema.meta_arity
                for ags in product(sorted(agents), repeat=schema.agent_arity):
                    for key in product(range(len(reps)), repeat=n):
                        ms = [reps[c] for c in key]
                        instances = (*(schema.premises(ms, ags) if schema.premises else ()),
                                     schema.build(ms, ags))
                        for run, f in zip(schema.programs(lang), instances, strict=True):
                            assert run(alg, [keys[c][1] for c in key], ags) == fold(f, alg), \
                                (schema.id, lang, ags, key)
                            checked += 1
    assert checked > 10_000


def test_a_kernel_binds_names_it_never_writes_into_its_source():
    """Atom and agent names holding quotes, backslashes, newlines and
    Python keywords compile into a kernel whose code names none of them (they
    are bound constants) and which evaluates as `fold` does, on a model
    with those names and in the term algebra."""
    atoms = ['it"s', "back\\slash", "new\nline", "class", "'; import os; '"]
    agents = ["def", 'o"\nr']
    base = KripkeModel.make(atoms, agents, ["w1", "w2"],
                            {agents[0]: [("w1", "w1"), ("w2", "w2")],
                             agents[1]: [("w1", "w2"), ("w2", "w1"), ("w2", "w2")]},
                            {atoms[0]: ["w1"], atoms[1]: [], atoms[2]: ["w1", "w2"],
                             atoms[3]: ["w2"], atoms[4]: ["w1"]})
    model = KripkeLatticeModel.make(base, {agents[0]: {"w1": atoms[:3], "w2": atoms[:3]},
                                           agents[1]: {"w1": atoms, "w2": atoms}})
    assert not validate_klm(model)
    p = [Atom(x) for x in atoms]

    def build(x):
        return implies(And(Know(agents[0], And(p[0], x)), Aware(agents[1], Not(p[1]))),
                       And(Know(agents[1], implies(p[2], p[3])), Not(Aware(agents[0], p[4]))))

    hole, named = Atom("$0"), {a: a for a in agents}
    for lang in Lang.L, Lang.LKA:
        run = compile_program(build(hole), [hole], lang)
        code = run.__code__
        text = {*code.co_consts, *code.co_names, *code.co_varnames}
        assert not text & {*atoms, *agents}, text
        assert {*atoms, *agents} <= {cell.cell_contents for cell in run.__closure__}
        ev = model.evaluator(lang)
        alg = ev.algebra
        for filling in p[3], Not(p[0]), Know(agents[1], p[2]):
            instance = build(filling)
            assert run(alg, [fold(filling, alg)], named) == fold(instance, alg)
            assert run(terms(lang), [filling], named) == fold(instance, terms(lang))
            assert alg.masks(run(alg, [fold(filling, alg)], named)) == ev.truth_masks(instance)
