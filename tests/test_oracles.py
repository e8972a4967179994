"""The bitmask evaluators against the definitional per-state oracles in
oracles.py, and the axiom suite against the per-instance sweep there, on
seeded random models."""

import random

from awarekit import verify
from awarekit.fh import Explicit, FHEvaluator, FHModel
from awarekit.formula import Aware, ExplicitKnow, Lang, enumerate_formulas, expand_defined
from awarekit.klm import Evaluator
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import truth_of
from awarekit.verify import (
    SCHEMA_5,
    check_axiom_suite,
    hms_suite,
    lga_suite,
    random_klm,
    random_klm_eq,
)

from oracles import FhOracle, KlmOracle, axiom_sweep

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


def _sweep_cases(rng):
    """(models, suite) corpora of every model class."""
    hms, lga = hms_suite(), lga_suite()
    for _ in range(2):
        k, g = random_klm_eq(rng, max_atoms=2), random_klm(rng, max_atoms=2)
        yield [k], hms
        yield [g], lga
        yield [h_transform(k)], hms
        yield [fh_transform(g)], lga
        pool = enumerate_formulas(g.base.atoms, g.base.agents, 1, Lang.LKA)
        yield [FHModel.make(g.base, {
            a: {w: Explicit.make(rng.sample(pool, 8)) for w in sorted(g.base.worlds)}
            for a in sorted(g.base.agents)})], lga
    # corpora of three one-atom models, which share their signature
    yield [random_klm_eq(rng, max_atoms=1) for _ in range(3)], hms
    yield [random_klm(rng, max_atoms=1) for _ in range(3)], lga


def _sweep_parts(report):
    return {key: report[key] for key in ("checked", "schemas", "failures")}


def test_suite_matches_instance_sweep(monkeypatch, trade):
    """The per-class verdicts of check_axiom_suite give the same counts,
    failures and witnesses as checking every instance on its own."""
    rng = random.Random(2107)
    for models, suite in _sweep_cases(rng):
        got = check_axiom_suite(models, suite, 1, extra_schemas=(SCHEMA_5,), check_rules=False)
        assert _sweep_parts(got) == axiom_sweep(models, suite, 1, (SCHEMA_5,)), suite.name
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", 3000)
    got = check_axiom_suite([trade], hms_suite(), 1, extra_schemas=(SCHEMA_5,), check_rules=False)
    assert got["capped"] and not got["passed"]
    assert _sweep_parts(got) == axiom_sweep([trade], hms_suite(), 1, (SCHEMA_5,))
