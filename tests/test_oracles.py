"""The bitmask evaluators against the definitional per-state oracles in
oracles.py, on seeded random models."""

import random

from awarekit.fh import Explicit, FHEvaluator, FHModel
from awarekit.formula import (
    Aware,
    ExplicitKnow,
    Lang,
    atoms_of,
    enumerate_formulas,
    expand_defined,
)
from awarekit.klm import Evaluator, Slot
from awarekit.transforms import fh_transform
from awarekit.truth import Truth
from awarekit.verify import SCHEMA_5, hms_suite, lga_suite, random_klm

from oracles import FhOracle, KlmOracle

MODELS = 40
SAMPLE = 60


def _sample(rng, k, lang):
    """Formulas of the language, plus its defined operator (A under L, X
    under LKA) over some of them; the oracles read them expanded."""
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
                a: {w: Explicit.make(rng.sample(pool, 8)) for w in k.base.worlds}
                for a in k.base.agents})
            for s in (fh, syntactic):
                core, oracle = FHEvaluator(s, lang), FhOracle(s, lang)
                for f, g in sample:
                    f = g if lang is Lang.L else f  # A is no grammar node of L
                    for w in core.states:
                        assert core.value(f, w) is oracle.value(g, w), (lang, f, w)


def test_skeletons_match_instances():
    rng = random.Random(2107)
    for _ in range(MODELS):
        k = random_klm(rng)
        agents = sorted(k.base.agents)
        for suite, lang in ((hms_suite(), Lang.L), (lga_suite(), Lang.LKA)):
            ev, oracle = Evaluator(k, lang), KlmOracle(k, lang)
            metas = enumerate_formulas(k.base.atoms, k.base.agents, 1, lang)
            for schema in suite.schemas + (SCHEMA_5,):
                slots = tuple(Slot() for _ in range(schema.meta_arity))
                for _ in range(5):
                    ms = tuple(rng.choice(metas) for _ in slots)
                    ags = tuple(rng.choice(agents) for _ in range(schema.agent_arity))
                    for slot, f in zip(slots, ms):
                        slot.mask, slot.atoms = ev.true_mask(f), atoms_of(f)
                    g = expand_defined(schema.build(ms, ags), lang)
                    valid = ev.check(g)[0]
                    assert ev.check_skeleton(schema.build(slots, ags)) == valid, (schema.id, g)
                    assert valid == all(oracle.value(g, w) is not Truth.FALSE
                                        for w in ev.states), (schema.id, g)
