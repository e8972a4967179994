"""The bitmask evaluators against the definitional per-state oracles in
oracles.py, and the axiom suite against the per-instance sweeps there, on
seeded random models."""

import json
import random
import sys
from collections import Counter
from itertools import product

from awarekit import verify
from awarekit.fh import AtomGenerated, Explicit, FHEvaluator, FHModel
from awarekit.formula import (And, Aware, ExplicitKnow, Know, Lang, atoms_of, enumerate_formulas,
                              expand_defined, fold, implies, parse)
from awarekit.hms import (DenotationEvaluator, Event, HMSModel, UnawarenessFrame, denotation,
                          validate_frame)
from awarekit.klm import Evaluator, KripkeLatticeModel, PropertyReport
from awarekit.kripke import KripkeModel
from awarekit.sliced import Sliced
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import truth_of
from awarekit.verify import (
    SCHEMA_5,
    AxiomSuite,
    Schema,
    check_axiom_suite,
    check_equiv_fh_klm,
    check_L_equiv_hms_klm,
    check_L_equiv_klm_hms,
    hms_suite,
    lga_suite,
    random_klm,
    random_klm_eq,
)

from conftest import make_trade, part
from oracles import (FhOracle, KlmOracle, axiom_sweep, event_algebra, explicit_sets, frame_report,
                     klm_tables, rule_sweep, signature_classes)
from test_hms import MALFORMED
from test_verify import _class_cases, _refuse_evaluator_folds

MODELS = 40
SAMPLE = 60


def _sample(rng, k, lang):
    """Formulas of the language, plus its defined operator (A under L, X
    under LKA) over some of them; the cores read them as they are, the
    oracles expanded."""
    pool = enumerate_formulas(k.base.atoms, k.base.agents, 2, lang)
    out = rng.sample(pool, min(SAMPLE, len(pool)))
    defined = Aware if lang is Lang.L else ExplicitKnow
    out += [defined(rng.choice(sorted(k.base.agents)), f) for f in out[:10]]
    return [(f, expand_defined(f, lang)) for f in out]


def test_cores_match_oracles():
    rng = random.Random(2106)
    for _ in range(MODELS):
        k = random_klm(rng)
        fh = fh_transform(k)
        for lang in (Lang.L, Lang.LKA):
            sample = _sample(rng, k, lang)
            for strict in (False, True):
                core, oracle = Evaluator(k, lang, strict), KlmOracle(k, lang, strict)
                for f, g in sample:
                    for w in core.states:
                        assert core.value(f, w) is oracle.value(g, w), (lang, strict, f, w)
            # awareness sets of formulas, drawn from the sample and its subformulas
            pool = [g for _, g in sample] + [g.child for _, g in sample if hasattr(g, "child")]
            syntactic = FHModel.make(k.base, {
                a: {w: Explicit.make(rng.sample(pool, 8)) for w in sorted(k.base.worlds)}
                for a in sorted(k.base.agents)})
            for s in (fh, syntactic):
                core, oracle = FHEvaluator(s, lang), FhOracle(s, lang)
                for f, g in sample:
                    for w in core.states:
                        assert core.value(f, w) is truth_of(oracle.value(g, w)), (lang, f, w)


def test_space_lattice_core_matches_event_algebra():
    """On the H-transforms of partitional models, the denotation of every
    formula of L up to depth 2, its base space and base set, is the fold of
    the event algebra's complement, intersection and knowledge."""
    rng, checked = random.Random(2112), 0
    for _ in range(MODELS):
        m = h_transform(random_klm_eq(rng))
        ev, events, memo = DenotationEvaluator(m), event_algebra(m), {}
        formulas = enumerate_formulas(m.atoms, m.frame.agents, 2, Lang.L)
        for f in formulas:
            assert ev.denotation(f) == fold(f, events, memo), f
        assert all(denotation(m, f) == memo[f] for f in formulas[::97])
        checked += len(formulas)
    assert checked > 10_000


def _table_shapes():
    """Lattice models of the edge shapes of omega's blocks: no atoms, no
    worlds, one world, an agent with no successor at some world, and world
    names whose sorted order is not their insertion order; then seeded
    random models."""
    def klm(atoms, worlds, relations, valuation, awareness):
        base = KripkeModel.make(atoms, sorted(relations), worlds, relations, valuation)
        return KripkeLatticeModel.make(base, awareness)

    yield klm([], ["w1", "w2"], {"a": part([["w1", "w2"]])}, {}, {"a": {"w1": [], "w2": []}})
    yield klm(["p", "q"], [], {"a": []}, {"p": [], "q": []}, {"a": {}})
    yield klm(["p", "q"], ["w"], {"a": [("w", "w")], "b": []}, {"p": ["w"], "q": []},
              {"a": {"w": ["p"]}, "b": {"w": ["p", "q"]}})
    yield klm(["p", "q"], ["w1", "w2"], {"a": [("w1", "w2")]}, {"p": ["w2"], "q": ["w1"]},
              {"a": {"w1": ["q"], "w2": ["p", "q"]}})
    yield klm(["q", "p", "r"], ["z", "b", "m"],
              {"a": [("z", "b"), ("b", "b"), ("m", "z")], "c": part([["z", "m"], ["b"]])},
              {"p": ["z", "m"], "q": ["b"], "r": ["m"]},
              {"a": {"z": ["p"], "b": ["p", "r"], "m": ["p"]},
               "c": {"z": ["q", "r"], "b": [], "m": ["q", "r"]}})
    rng = random.Random(2107)
    for _ in range(10):
        yield random_klm(rng)


def test_evaluator_tables_match_per_state_construction():
    """The lattice evaluator builds its tables by block arithmetic over
    omega; they equal the state-by-state construction on every edge shape,
    in L, LKA and strict mode: per atom where it is True and where False,
    per agent and atom where the agent is aware of it, and each state's
    cell. The algebra reads from them, per atom set, where it is defined and
    within each agent's awareness."""
    for k in _table_shapes():
        for lang, strict in product((Lang.L, Lang.LKA), (False, True)):
            ev = Evaluator(k, lang, strict)
            atom_true, defined, aware, cells = klm_tables(k, lang, strict)
            assert ev.states == k.omega(), (k, lang, strict)
            assert ev.atom_masks == {p: (t, defined[1 << i] & ~t) for i, (p, t) in
                                     enumerate(sorted(atom_true.items()))}, (k, lang, strict)
            assert ev.aware_masks == {a: {p: per[1 << i] for i, p in enumerate(sorted(atom_true))}
                                      for a, per in aware.items()}, (k, lang, strict)
            alg = ev.algebra
            assert {at: alg.rows ^ alg._escapes(at) for at in defined} == defined
            assert {a: {at: alg.rows ^ alg._escapes(at, a) for at in per}
                    for a, per in aware.items()} == aware, (k, lang, strict)
            assert {a: [next(cell for cell, members in ev.cells[a] if members >> i & 1)
                        for i in range(len(ev.states))] for a in cells} == cells, (k, lang)


def _explicit_fh(rng, g):
    pool = enumerate_formulas(g.base.atoms, g.base.agents, 1, Lang.LKA)
    return FHModel.make(g.base, {
        a: {w: Explicit.make(rng.sample(pool, 8)) for w in sorted(g.base.worlds)}
        for a in sorted(g.base.agents)})


def mixed_fh(rng, g):
    """An awareness structure on g's frame whose sets mix, for each agent,
    atom-generated sets, lists of formulas up to depth 2 and an empty list,
    which is aware of nothing."""
    atoms, agents, worlds = sorted(g.base.atoms), sorted(g.base.agents), sorted(g.base.worlds)
    pool = enumerate_formulas(atoms, agents, 2, Lang.LKA)
    sets = [lambda: AtomGenerated.make(p for p in atoms if rng.random() < 0.5),
            lambda: Explicit.make(rng.sample(pool, 6)), lambda: Explicit.make([])]
    s = FHModel.make(g.base, {a: {w: sets[(i + j) % 3]() for j, w in enumerate(worlds)}
                              for i, a in enumerate(agents)})
    kinds = {(type(x), bool(getattr(x, "formulas", 1))) for per in s.awareness.values()
             for x in per.values()}
    assert kinds == {(AtomGenerated, True), (Explicit, True), (Explicit, False)}
    return s


def _sweep_cases(rng):
    """(models, suite) corpora of every model class."""
    hms, lga = hms_suite(), lga_suite()
    for _ in range(2):
        k, g = random_klm_eq(rng, max_atoms=2), random_klm(rng, max_atoms=2)
        yield [k], hms
        yield [g], lga
        yield [h_transform(k)], hms
        yield [fh_transform(g)], lga
        yield [_explicit_fh(rng, g)], lga
    # formula lists mixed with atom-generated sets in one structure, and a
    # formula-list and an atom-generated structure in one corpus
    g = next(g for g in iter(lambda: random_klm(rng, max_atoms=2), None) if len(g.base.worlds) > 1)
    yield [mixed_fh(rng, g)], lga
    g = random_klm(rng, max_atoms=1)
    yield [_explicit_fh(rng, g), fh_transform(g)], lga
    # corpora of three one-atom models, which share their signature
    yield [random_klm_eq(rng, max_atoms=1) for _ in range(3)], hms
    yield [random_klm(rng, max_atoms=1) for _ in range(3)], lga


def _sweep_parts(report):
    return {key: report[key] for key in ("checked", "schemas", "failures")}


def test_suite_matches_instance_sweep(monkeypatch):
    """The per-class verdicts of check_axiom_suite give the same counts,
    failures and witnesses as checking every instance on its own. The
    failures are listed per instance, each filling's class found from its
    operands' classes, and no filling is folded into an evaluator."""
    cases = list(_sweep_cases(random.Random(2107)))
    assert any(explicit_sets(models) for models, _ in cases)
    listed = 0
    for models, suite in cases:
        with monkeypatch.context() as patch:
            _refuse_evaluator_folds(patch)
            got = check_axiom_suite(models, suite, 1, extra_schemas=(SCHEMA_5,),
                                    check_rules=False)
        assert _sweep_parts(got) == axiom_sweep(models, suite, 1, (SCHEMA_5,)), suite.name
        listed += bool(got["failures"])
    assert listed


# fails wherever the first filling holds and the second does not
IMPLICATION = Schema("Implication", 2, 0, lambda ms, ags: implies(ms[0], ms[1]))


def _instance(failure):
    """A failure listed per class tuple, without its instance count."""
    return {k: v for k, v in failure.items() if k != "instances"}


def test_suite_past_the_cap_lists_class_tuples(monkeypatch, trade):
    """Past the cap the sweep stays exhaustive where the classes quotient,
    and lists one failure per failing class tuple: the first is the first
    failing instance, each is a failing instance, and their instance counts
    add up to the failing instances of the uncapped per-instance sweep."""
    # a failing schema of arity 2, whose class tuples weigh products of class sizes
    extra = (SCHEMA_5, IMPLICATION)
    want = axiom_sweep([trade], hms_suite(), 1, extra)
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", 3000)
    got = check_axiom_suite([trade], hms_suite(), 1, extra_schemas=extra, check_rules=False)
    assert want["checked"] > 3000 >= got["class_tuples"]
    assert "capped" not in got and not got["passed"] and got["checked"] == want["checked"]
    for sid, entry in got["schemas"].items():
        oracle = want["schemas"][sid]
        assert (entry["checked"], entry["passed"]) == (oracle["checked"], oracle["passed"]), sid
        failing = {(f["formula"], f["state"]) for f in oracle["failures"]}
        assert all((f["formula"], f["state"]) in failing for f in entry["failures"]), sid
        assert sum(f["instances"] for f in entry["failures"]) == len(oracle["failures"]), sid
        assert [_instance(f) for f in entry["failures"][:1]] == oracle["failures"][:1], sid
    assert len(got["failures"]) > 1 and _instance(got["failures"][0]) == want["failures"][0]


def test_capped_suite_matches_capped_instance_sweep(monkeypatch):
    """An awareness set that lists every filling makes each filling a
    subterm of a listed formula, and so a class of its own: each class tuple
    is one instance, and the capped report lists what the capped
    per-instance sweep lists."""
    rng = random.Random(2108)
    x = _explicit_fh(rng, random_klm(rng, max_atoms=2))
    a, w = min(x.base.agents), min(x.base.worlds)
    every = Explicit.make(enumerate_formulas(x.base.atoms, x.base.agents, 1, Lang.LKA))
    x = FHModel.make(x.base, {**x.awareness, a: {**x.awareness[a], w: every}})
    full = check_axiom_suite([x], lga_suite(), 1, check_rules=False)
    assert full["class_tuples"] == full["checked"] and full["failures"]
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", full["checked"] - 40)
    got = check_axiom_suite([x], lga_suite(), 1, check_rules=False)
    assert got["capped"] and not got["passed"] and got["failures"]
    for f in got["failures"] + [f for e in got["schemas"].values() for f in e["failures"]]:
        assert f.pop("instances") == 1
    assert _sweep_parts(got) == axiom_sweep([x], lga_suite(), 1)


def test_rules_match_instance_sweep():
    """The per-class rule verdicts of check_axiom_suite give the counts,
    violations and witnesses of checking every rule instance on its own, on
    every model class, formula-list awareness sets, mixed with atom-generated
    ones in a structure or a corpus, and three-model corpora."""
    cases = list(_sweep_cases(random.Random(2107)))
    cases = cases[:5] + cases[-4:]
    assert any(explicit_sets(models) for models, _ in cases)
    for models, suite in cases:
        got = check_axiom_suite(models, suite, 1)
        assert got["rules"] == rule_sweep(models, suite, 1), suite.name


# from K{a} f infer f: not sound where an agent has no successor
K_ELIMINATION = Schema("K-Elimination", 1, 1, lambda ms, ags: ms[0],
                       premises=lambda ms, ags: (Know(ags[0], ms[0]),))


def test_unsound_rule_is_violated(monkeypatch):
    """An unsound rule's violations are those of the per-instance sweep:
    listed per instance within the cap, per class tuple past it, where they
    add up to the sweep's; a cap passed at the last class tuple caps
    nothing, and one passed before it caps the rule and leaves the suite
    incomplete."""
    m = random_klm(random.Random(5), max_atoms=2)
    assert any(not m.base.successors(a, w) for a in m.base.agents for w in m.base.worlds)
    lga = lga_suite()
    suite = AxiomSuite(lga.name, lga.schemas, (K_ELIMINATION,))
    want = rule_sweep([m], suite, 1)["K-Elimination"]
    got = check_axiom_suite([m], suite, 1)
    assert got["rules"]["K-Elimination"] == want and want["violations"]
    assert not got["passed"] and not got["failures"] and "capped" not in got

    # 2 agents times C classes, against 2 agents times 24
    bare = AxiomSuite(suite.name, (), suite.rules)
    tuples = 2 * check_axiom_suite([m], bare, 1)["classes"]
    assert tuples < want["premise_valid"] + want["vacuous"]
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", tuples)
    entry = check_axiom_suite([m], bare, 1)["rules"]["K-Elimination"]
    assert [entry[k] for k in ("premise_valid", "vacuous", "preserved")] == \
        [want[k] for k in ("premise_valid", "vacuous", "preserved")]
    failing = {(v["formula"], v["state"]) for v in want["violations"]}
    assert all((v["formula"], v["state"]) in failing for v in entry["violations"])
    assert sum(v["instances"] for v in entry["violations"]) == len(want["violations"])
    assert _instance(entry["violations"][0]) == want["violations"][0]

    # the cap passed at the last class tuple leaves nothing unchecked
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", tuples - 1)
    report = check_axiom_suite([m], bare, 1)
    entry = report["rules"]["K-Elimination"]
    assert "capped" not in report and "capped" not in entry and not report["passed"]
    assert {k: entry[k] for k in want if k != "violations"} == \
        {k: want[k] for k in want if k != "violations"}
    sound = check_axiom_suite([m], AxiomSuite(bare.name, bare.schemas, (verify.K_INFERENCE,)), 1)
    assert sound["passed"] and sound["rules"]["K-Inference"]["preserved"]
    assert "capped" not in sound and "capped" not in sound["rules"]["K-Inference"]

    monkeypatch.setattr(verify, "INSTANTIATION_CAP", tuples // 2)
    report = check_axiom_suite([m], bare, 1)
    entry = report["rules"]["K-Elimination"]
    assert report["capped"] and not report["passed"]
    assert entry["capped"] and not entry["preserved"]
    assert entry["premise_valid"] + entry["vacuous"] < want["premise_valid"] + want["vacuous"]


def _lattice_cases(rng):
    """Corpora of both suites on every model class that the sweep slices:
    partitional lattice models and their space-lattice transforms (HMS),
    lattice models with arbitrary relations and their awareness-structure
    transforms, whose awareness is atom-generated (LGA). Last, per suite a
    corpus of two one-atom lattice models, drawn from a seed whose first
    failure is on the second model, at a world after w1."""
    for _ in range(2):
        k, g = random_klm_eq(rng, max_atoms=2), random_klm(rng, max_atoms=2)
        yield [k], hms_suite()
        yield [g], lga_suite()
        yield [h_transform(k)], hms_suite()
        yield [fh_transform(g)], lga_suite()
    rng = random.Random(499)
    for make, suite in (random_klm_eq, hms_suite()), (random_klm, lga_suite()):
        corpus = []
        while len(corpus) < 2:
            m = make(rng, max_atoms=2)
            if len(m.base.atoms) == 1:
                corpus.append(m)
        yield corpus, suite


def _states(m):
    """The states a sweep runs over: a lattice model's are its worlds, as
    suites decide it on its awareness structure."""
    return m.frame.states if m.kind == "hms" else m.base.worlds


def test_sliced_suite_matches_instance_sweeps(monkeypatch):
    """Each schema and rule program runs once over all its class tuples,
    bit-sliced, on lattice models, space lattices and awareness structures
    alike: the counts, failures, violations and witnesses are those of
    checking every instance on its own, with schema 5 and the rules on, and
    a bit budget that cuts the sweep into chunks (one per class of the
    leading slots) gives the same report as one chunk. On a lattice corpus
    the witness is the top copy w_At of the first failing world, as the
    per-instance sweep over every copy finds, also where that is on a later
    model than the first and at a world after w1."""
    corpora = 0
    for models, suite in _lattice_cases(random.Random(2109)):
        got = check_axiom_suite(models, suite, 1, extra_schemas=(SCHEMA_5,))
        assert _sweep_parts(got) == axiom_sweep(models, suite, 1, (SCHEMA_5,)), suite.name
        assert got["rules"] == rule_sweep(models, suite, 1), suite.name
        if len(models) > 1:
            first = got["failures"][0]
            assert first["state"].split("@")[0] != "w1", suite.name
            assert first not in check_axiom_suite(models[:1], suite, 1,
                                                  extra_schemas=(SCHEMA_5,))["failures"]
            corpora += 1
        # arity 1 in one chunk, arity 2 in C chunks, arity 3 in C * C
        size = len(_states(models[0])) + len(models[0].signature[0])
        with monkeypatch.context() as patch:
            patch.setattr(verify, "SLICE_BITS", got["classes"] * size)
            chunked = check_axiom_suite(models, suite, 1, extra_schemas=(SCHEMA_5,))
        assert json.dumps(chunked) == json.dumps(got), suite.name
    assert corpora == 2


def _unlisted(report):
    """A suite report with each failure and violation row cut down to its
    formula: the states are named differently on each side of a transform."""
    def entry(e):
        return {k: [f["formula"] for f in v] if isinstance(v, list) else v for k, v in e.items()}

    return {**report, "failures": [(f["schema"], f["formula"]) for f in report["failures"]],
            "schemas": {sid: entry(e) for sid, e in report["schemas"].items()},
            "rules": {rid: entry(e) for rid, e in report["rules"].items()}}


def test_suite_reports_survive_the_transforms():
    """The transforms preserve satisfaction, so a suite reports the same
    counts, classes, class tuples, verdicts and failing formulas on a
    lattice model as on its transform: the HMS suite on partitional models
    and their space lattices, the LGA suite on models with arbitrary
    relations and their awareness structures, at depth 1 with the rules on
    and with schema 5, which fails on some of them."""
    failing = 0
    for make, transform, suite, seed in ((random_klm_eq, h_transform, hms_suite(), 11),
                                         (random_klm, fh_transform, lga_suite(), 12)):
        rng = random.Random(seed)
        for _ in range(30):
            k = make(rng)
            got = check_axiom_suite([k], suite, 1, extra_schemas=(SCHEMA_5,))
            assert _unlisted(got) == _unlisted(
                check_axiom_suite([transform(k)], suite, 1, extra_schemas=(SCHEMA_5,)))
            failing += not got["passed"]
    assert failing


class _Noted(dict):
    """A sweep's fixed table that notes every class read from it."""

    def __init__(self, table):
        super().__init__()
        self.table, self.read = table, []

    def __getitem__(self, c):
        self.read.append(c)
        return self.table[c]


def test_sliced_suite_under_the_cap(monkeypatch):
    """At depth 0 each filling (T or an atom) is a class of its own, so a
    class tuple is one instance: a cap inside PL2, or inside RK-Inference
    where its side condition leaves tuples out, leaves the instances the
    capped per-instance sweeps leave, in one chunk or in many. In one chunk
    per tuple each arity's chunk inputs are built once per prefix, in
    product order, and only up to the chunk where the cap stops the sweep."""
    rng = random.Random(2110)
    m = next(k for k in (random_klm_eq(rng) for _ in range(50)) if len(k.base.atoms) == 3)
    hms = hms_suite()
    # 16 tuples, some fail
    failing_first = AxiomSuite(hms.name, (IMPLICATION, *hms.schemas), hms.rules)
    bare = AxiomSuite(hms.name, (), hms.rules)
    rk_total = rule_sweep([m], bare, 0)["RK-Inference"]
    rk_tuples = rk_total["premise_valid"] + rk_total["vacuous"]
    assert rk_tuples < 2 * 4 ** 3  # the side condition leaves some out
    for budget in (verify.SLICE_BITS, 1):  # one chunk, or one per tuple
        monkeypatch.setattr(verify, "SLICE_BITS", budget)
        # Implication, PL-Top and PL1 take 16 + 1 + 16 tuples; PL2 has 64
        monkeypatch.setattr(verify, "INSTANTIATION_CAP", 33 + 20)
        want = axiom_sweep([m], failing_first, 0)
        tables = []  # per arity, in the order of first use
        with monkeypatch.context() as patch:
            fixed = Sliced.fixed
            patch.setattr(Sliced, "fixed", lambda alg, by_class: tables.append(
                _Noted(fixed(alg, by_class))) or tables[-1])
            got = check_axiom_suite([m], failing_first, 0, check_rules=False)
        assert got["capped"] and got["schemas"]["PL2"]["capped"]
        if budget == 1:  # PL2 stops in its 22nd chunk, Symmetry in its first
            assert list(dict.fromkeys(s.meta_arity for s in failing_first.schemas)) == [
                2, 0, 3, 1] and not tables[1].read
            for (n, reached), t in zip(((2, 16), (3, 22), (1, 1)), tables[0:1] + tables[2:]):
                assert [tuple(t.read[i:i + n]) for i in range(0, len(t.read), n)] == list(
                    product(range(4), repeat=n))[:reached], n
        assert got["class_tuples"] == got["checked"] == 33 + 21 == want["checked"]
        for f in got["failures"] + [f for e in got["schemas"].values() for f in e["failures"]]:
            assert f.pop("instances") == 1
        assert got["failures"] and _sweep_parts(got) == want
        # MP takes 16 tuples, RK-Inference is cut within its first agent
        monkeypatch.setattr(verify, "INSTANTIATION_CAP", 16 + rk_tuples // 4)
        got = check_axiom_suite([m], bare, 0)
        assert got["capped"] and got["rules"]["RK-Inference"]["capped"]
        assert got["rules"] == rule_sweep([m], bare, 0)


def _reversed_conjunctions(trade):
    """An awareness structure on trade's frame whose formula lists hold
    conjunctions with their operands in the reverse of the enumerator's
    order, so that a term in a key does not commute; constant along the
    relations, as the lattice transform needs."""
    listed = {"b": {"w1": ["(K{b} i & i)", "(l & i)"],
                    **dict.fromkeys(("w2", "w3"), ["(~i & ~T)"])},
              "o": dict.fromkeys(("w1", "w2", "w3"), ["(K{o} l & ~l)", "(l & i)"])}
    return FHModel.make(trade.base, {a: {w: Explicit.make(map(parse, fs)) for w, fs in per.items()}
                                     for a, per in listed.items()})


def _builder_cases(monkeypatch):
    """(language, evaluators) of the suites of _sweep_cases at depths 0 to 2
    and of a space lattice whose two atoms are based at one space, where only
    the atom set tells some classes apart; and of the three equivalence
    checkers on the models of test_verify._class_cases at depths 0 to 3, on
    trade (L and LKA) at depth 3, and on trade's frame with reversed
    conjunctions listed (L and LKA) at depth 3."""
    trade = make_trade()
    h = h_transform(trade)
    shared = HMSModel(h.frame, {**h.valuation, "l": Event.make(
        h.valuation["i"].base_space, ["w1@{i}", "w2@{i}"])})
    for models, suite in [*_sweep_cases(random.Random(2107)), ([shared], hms_suite())]:
        checker = verify.ValidityChecker(models, verify._suite_semantics(suite, models[0]))
        for depth in (0, 1, 2):
            yield (*verify._model_signature(models), depth, checker.lang), checker.evaluators
    calls = [(check, args) for check, _, args in _class_cases(0)]
    calls += [(check_L_equiv_hms_klm, (h, 3)),
              (check_equiv_fh_klm, (trade, Lang.LKA, 3))]
    calls += [(check_equiv_fh_klm, (_reversed_conjunctions(trade), lang, 3))
              for lang in (Lang.L, Lang.LKA)]
    checked = []
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_equivalence", lambda language, left, right, *_, **__:
                      checked.append((language, (left, right))))
        for check, args in calls:
            check(*args)
    yield from checked


def test_class_builder_matches_grouping(monkeypatch):
    """The class builder gives the classes of grouping every enumerated
    formula by atom set and true masks, and on formula-list awareness sets
    also by its term where that is a subterm of a listed formula: the same
    first members in enumeration order, the same formula counts, and, by the
    walk of the class automaton, the same class for each formula."""
    cases = 0
    for language, evaluators in _builder_cases(monkeypatch):
        reps, counts, walk, _ = verify._classes(language, evaluators)
        want_reps, want_counts, want_ids = signature_classes(language, evaluators)
        assert reps == want_reps and counts == want_counts, language
        assert list(walk()) == want_ids, language
        cases += 1
    assert cases == 15 * 3 + 4 * 8 + 2 + 2


def test_class_keys_come_from_operand_keys(monkeypatch):
    """The builder keys each class from its operands' keys: every key is its
    representative's atom set and signature in each evaluator, on every
    model class, in L and LKA, on formula-list awareness sets and at depths
    0 to 3. It folds no candidate: the build adds nothing to the evaluators'
    memos, and folding the representatives afterwards gives their keys."""
    for language, evaluators in _builder_cases(monkeypatch):
        before = [set(ev._memo) for ev in evaluators]
        reps, _, _, keys = verify._classes(language, evaluators)
        assert [set(ev._memo) for ev in evaluators] == before, language
        assert keys == [(atoms_of(f), *(fold(f, ev.algebra) for ev in evaluators))
                        for f in reps], language


def test_class_automaton_takes_each_transition_once(monkeypatch):
    """The build and the walk share one table of the class automaton's
    transitions: on trade's depth-3 L and LKA checks each evaluator's algebra
    runs one op for T, one per atom and one per distinct (connective, agent,
    operand classes) of the enumerated formulas, 207 and 288 in all, and a
    full walk afterwards runs none."""
    trade, checked = make_trade(), []
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_equivalence", lambda language, left, right, *_, **__:
                      checked.append((language, (left, right))))
        check_L_equiv_klm_hms(trade, 3)
        check_equiv_fh_klm(trade, Lang.LKA, 3)
    for (language, evaluators), ops in zip(checked, (207, 288)):
        calls = Counter()  # evaluator index -> ops run
        with monkeypatch.context() as patch:
            for i, alg in enumerate(ev.algebra for ev in evaluators):
                for op in "top", "atom", "neg", "conj", "know", "aware":
                    patch.setattr(alg, op, lambda *args, f=getattr(alg, op), i=i:
                                  calls.update([i]) or f(*args))
            _, _, walk, _ = verify._classes(language, evaluators)
            assert calls == {0: ops, 1: ops}, language
            formulas = enumerate_formulas(*language)
            ids = dict(zip(formulas, walk()))  # as test_class_builder_matches_grouping checks
            assert calls == {0: ops, 1: ops}, language
        steps = {(type(f), getattr(f, "agent", None),
                  tuple(sorted(ids[g] for g in ((f.left, f.right) if isinstance(f, And)
                                                else (f.child,)))))
                 for f in formulas[1 + len(language[0]):]}  # past T and the atoms
        assert 1 + len(language[0]) + len(steps) == ops, language


def _workflow_explicit():
    """The formula-list awareness structure of the exhaustive LGA step in
    .github/workflows/tests.yml."""
    base = KripkeModel.make(
        atoms=["i", "l"], agents=["b", "o"], worlds=["w1", "w2", "w3"],
        relations={"b": part([["w1"], ["w2", "w3"]]), "o": part([["w1"], ["w2"], ["w3"]])},
        valuation={"i": ["w1"], "l": ["w1", "w2"]})
    listed = {"b": {"w1": ["i", "K{b} i"], "w2": ["l", "~i"], "w3": ["i"]},
              "o": dict.fromkeys(("w1", "w2", "w3"), ["i", "l"])}
    return FHModel.make(base, {a: {w: Explicit.make(map(parse, fs)) for w, fs in per.items()}
                               for a, per in listed.items()})


def test_formula_lists_have_finitely_many_classes():
    """A term outside the subterms of the listed formulas is dropped from
    the key, so the classes of a formula-list structure stop growing: on the
    workflow's structure, 3, 15, 29 and 30 classes at depths 0 to 3, those of
    grouping every formula."""
    x = _workflow_explicit()
    evaluators = [FHEvaluator(x, Lang.LKA)]
    for depth, n in enumerate((3, 15, 29, 30)):
        language = x.base.atoms, x.base.agents, depth, Lang.LKA
        reps, counts, *_ = verify._classes(language, evaluators)
        assert len(reps) == n, depth
        assert (reps, counts) == signature_classes(language, evaluators)[:2], depth


def test_formula_lists_take_the_sliced_sweep(monkeypatch):
    """On the workflow's structure at depth 2, with the rules on, every
    schema and rule runs bit-sliced: outside the algebra's own ops, the masks
    of a value are read at width 1, once per failing class tuple to name its
    witness, and nowhere else."""
    callers, masks = Counter(), Sliced.masks

    def counted(alg, v):
        code = sys._getframe(1).f_code
        if not code.co_filename.endswith("sliced.py"):
            callers[code.co_name, alg.W] += 1
        return masks(alg, v)

    monkeypatch.setattr(Sliced, "masks", counted)
    got = check_axiom_suite([_workflow_explicit()], lga_suite(), 2)
    named = len(got["failures"]) + sum(len(r["violations"]) for r in got["rules"].values())
    assert (got["classes"], got["class_tuples"], got["passed"]) == (29, 30016, False)
    assert callers == {("false_at", 1): named}


# ---------------------------------------------------------------------------
# frame validation against the per-instance frame checks


def _seeded_klm(rng, atoms, worlds):
    """A partitional lattice model with exactly this many atoms and worlds."""
    return next(k for k in iter(lambda: random_klm_eq(rng, worlds, atoms), None)
                if (len(k.base.atoms), len(k.base.worlds)) == (atoms, worlds))


def _same_report(fr, oracle=None):
    """validate_frame agrees with the oracle: the same verdicts and first
    witnesses, recorded in the same order."""
    got, want = validate_frame(fr), frame_report(fr, oracle)
    assert list(got.passed.items()) == list(want.passed.items())
    assert list(got.witnesses.items()) == list(want.witnesses.items())
    return want


def test_frame_checks_match_oracle_on_transforms_and_malformed_frames():
    rng = random.Random(1806)
    for atoms in range(1, 7):
        assert _same_report(h_transform(_seeded_klm(rng, atoms, 4)).frame).all_pass()
    for check, _, fr in MALFORMED:
        assert not _same_report(fr).passed[check]


class _Counted(PropertyReport):
    """A report that also counts each check's failing instances."""

    def __init__(self):
        super().__init__()
        self.failures = Counter()

    def record(self, name, witness=None):
        self.failures[name] += witness is not None
        super().record(name, witness)


def _states_of(spaces, pi, rng, n, keep=lambda a, w, S: True):
    """n random (agent, state, space) triples that satisfy keep."""
    pool = [(a, w, S) for a in sorted(pi) for S in sorted(spaces) for w in spaces[S]
            if w in pi[a] and keep(a, w, S)]
    return rng.sample(pool, min(n, len(pool)))


def _cell_space(spaces, cell):
    return next(S for S, states in spaces.items() if cell[0] in states)


def _break_lattice(spaces, order, projections, pi, rng):
    """An extra state in the bottom space breaks cardinality monotonicity
    against every space above; a loose space has no join or meet with any."""
    spaces[min(spaces, key=len)].append("extra")
    spaces["loose"] = ["x"]
    for per in pi.values():
        per["extra"], per["x"] = ["extra"], ["x"]


def _break_commuting(spaces, order, projections, pi, rng):
    """Swapped values break commuting wherever the map is composed."""
    for key in rng.sample(sorted(k for k, m in projections.items() if len(m) > 1), 3):
        m = projections[key]
        s, t = sorted(m)[:2]
        m[s], m[t] = m[t], m[s]


def _break_projections(spaces, order, projections, pi, rng):
    keys = rng.sample(sorted(projections), 3)
    del projections[keys[0]][sorted(projections[keys[0]])[0]]
    m = projections[keys[1]]
    m[sorted(m)[0]] = next(s for S in spaces for s in spaces[S] if S != keys[1][1])
    del projections[keys[2]]


def _break_conf(spaces, order, projections, pi, rng):
    top = max(spaces, key=lambda S: S.count(","))
    for a, w, S in _states_of(spaces, pi, rng, 3, lambda a, w, S: S != top):
        pi[a][w] = pi[a][w] + [spaces[top][0]]  # straddles two spaces
    for a, w, S in _states_of(spaces, pi, rng, 3, lambda a, w, S: S != top):
        pi[a][w] = [spaces[top][0]]  # not weakly below the state's space
    for a, w, S in _states_of(spaces, pi, rng, 2):
        del pi[a][w]


def _break_gref(spaces, order, projections, pi, rng):
    for a, w, S in _states_of(spaces, pi, rng, 4):
        pi[a][w] = [next(s for s in spaces[S] if s != w)]


def _break_stat(spaces, order, projections, pi, rng):
    def partial(a, w, S):  # the cell is not its whole space
        return len(pi[a][w]) < len(spaces[_cell_space(spaces, pi[a][w])])

    for a, w, S in _states_of(spaces, pi, rng, 4, partial):
        pi[a][w] = list(spaces[_cell_space(spaces, pi[a][w])])


def _break_ppi(spaces, order, projections, pi, rng):
    for a, w, S in _states_of(spaces, pi, rng, 6, lambda a, w, S: pi[a][w] != [w]):
        pi[a][w] = [w]  # finer below than above


def _break_ppk(spaces, order, projections, pi, rng):
    for a, w, S in _states_of(spaces, pi, rng, 6, lambda a, w, S: S.count(",") < 2):
        pi[a][w] = list(spaces[S])  # coarser below than above


BREAKS = [("lattice", _break_lattice), ("projections", _break_commuting),
          ("projections", _break_projections), ("Conf", _break_conf), ("Gref", _break_gref),
          ("Stat", _break_stat), ("PPI", _break_ppi), ("PPK", _break_ppk)]


def test_frame_checks_match_oracle_on_several_failures():
    """Frames doctored so that each check fails at several instances: the
    first witness is the first failing instance in the oracle's order."""
    rng = random.Random(1807)
    for seed in range(4):
        fr = h_transform(_seeded_klm(random.Random(seed), 3, 3)).frame
        for check, doctor in BREAKS:
            spaces = {S: sorted(states) for S, states in fr.spaces.items()}
            order = sorted(p for p in fr.leq if p[0] != p[1])
            projections = {key: dict(m) for key, m in fr.maps.items() if key[0] != key[1]}
            pi = {a: {s: sorted(cell) for s, cell in per.items()} for a, per in fr.pi.items()}
            doctor(spaces, order, projections, pi, rng)
            counted = _Counted()
            _same_report(UnawarenessFrame(spaces, order, projections, pi), counted)
            assert counted.failures[check] >= 2, (seed, check, counted.failures)
