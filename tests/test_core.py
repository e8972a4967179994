"""The mask core every evaluator shares: its verdict, witnesses and truth
values read the same masks on every model class."""

import random

import pytest

from awarekit.fh import Explicit, FHEvaluator, FHModel
from awarekit.formula import TOP, Lang, enumerate_formulas
from awarekit.hms import DenotationEvaluator
from awarekit.klm import Evaluator
from awarekit.kripke import WorldId, members
from awarekit.transforms import fh_transform, h_transform
from awarekit.truth import Truth
from awarekit.verify import random_klm, random_klm_eq


def _evaluators(seed):
    """(evaluator, formulas of depth <= 2) on a lattice model (L, LKA and
    strict), its awareness-structure transform, an awareness structure with
    formula-list awareness sets, and a space-lattice transform."""
    rng = random.Random(seed)
    k = random_klm(rng, max_worlds=3, max_atoms=2)
    pool = enumerate_formulas(k.base.atoms, k.base.agents, 1, Lang.LKA)
    explicit = FHModel.make(k.base, {
        a: {w: Explicit.make(rng.sample(pool, 5)) for w in sorted(k.base.worlds)}
        for a in sorted(k.base.agents)})
    for lang in (Lang.L, Lang.LKA):
        formulas = enumerate_formulas(k.base.atoms, k.base.agents, 2, lang)
        for ev in (Evaluator(k, lang), Evaluator(k, lang, strict_two_valued=True),
                   FHEvaluator(fh_transform(k), lang), FHEvaluator(explicit, lang)):
            yield ev, formulas
    m = h_transform(random_klm_eq(rng, max_worlds=3, max_atoms=2))
    yield DenotationEvaluator(m), enumerate_formulas(m.atoms, m.frame.agents, 2, Lang.L)


@pytest.mark.parametrize("seed", range(4))
def test_valid_check_and_value_read_the_same_masks(seed):
    for ev, formulas in _evaluators(seed):
        for f in formulas:
            true, false = ev.truth_masks(f)
            assert not true & false
            assert ev.check(f) == (not false, members(false, ev.states)), (ev, f)
            for i, s in enumerate(ev.states):
                expected = Truth.TRUE if true >> i & 1 else \
                    Truth.FALSE if false >> i & 1 else Truth.UNDEFINED
                assert ev.value(f, s) is expected, (ev, f, s)


def test_value_refuses_an_unknown_state():
    for ev, _ in _evaluators(0):
        unknown = WorldId("w9", frozenset()) if isinstance(ev, Evaluator) else "w9"
        with pytest.raises(KeyError) as raised:
            ev.value(TOP, unknown)
        assert raised.value.args[0] == f"unknown state {str(unknown)!r}"
        assert ev.value(TOP, ev.states[0]) is Truth.TRUE
