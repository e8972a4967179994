"""Reference semantics: the definitional per-state evaluators.

These follow the satisfaction clauses one state at a time and are kept only
as the oracle that the bitmask evaluators in `awarekit.klm` and `awarekit.fh`
are checked against. For space-lattice models the oracle is the direct
recursive evaluator of acceptance criterion 8.
"""

from awarekit.fh import aware_of
from awarekit.formula import (
    And,
    Atom,
    Aware,
    ExplicitKnow,
    Formula,
    Know,
    Lang,
    Not,
    Top,
    atoms_of,
    expand_defined,
)
from awarekit.klm import KripkeLatticeModel, awareness_image
from awarekit.kripke import WorldId
from awarekit.truth import Truth, truth_of


class KlmOracle:
    """Memoizing evaluator for one model; safe to reuse across formulas."""

    def __init__(self, k: KripkeLatticeModel, lang: Lang = Lang.L, strict_two_valued=False):
        self.k = k
        self.lang = lang
        self.strict = strict_two_valued
        self._cache = {}

    def _atoms(self, f):
        return atoms_of(f)

    def value(self, f: Formula, w: WorldId) -> Truth:
        key = (f, w)
        got = self._cache.get(key)
        if got is None:
            got = self._value(f, w)
            self._cache[key] = got
        return got

    def _value(self, f, w):
        k, X = self.k, w.vocabulary
        if isinstance(f, Top):
            return Truth.TRUE
        if isinstance(f, Atom):
            if self.strict:
                return truth_of(w.base in k.base.valuation[f.name])
            if f.name not in X:
                return Truth.UNDEFINED
            return truth_of(w.base in k.base.valuation[f.name])
        if isinstance(f, Not):
            if not self.strict and not self._atoms(f.child) <= X:
                return Truth.UNDEFINED
            return truth_of(self.value(f.child, w) is not Truth.TRUE)
        if isinstance(f, And):
            if not self.strict and not (self._atoms(f.left) | self._atoms(f.right)) <= X:
                return Truth.UNDEFINED
            return truth_of(
                self.value(f.left, w) is Truth.TRUE and self.value(f.right, w) is Truth.TRUE
            )
        if isinstance(f, Know):
            if self.lang is Lang.L:
                return self._know_explicit(f, w)
            return self._know_implicit(f, w)
        if isinstance(f, Aware):
            if self.lang is not Lang.LKA:
                raise ValueError("Aware is not a grammar node of L; expand it first")
            if not self.strict and not self._atoms(f.child) <= X:
                return Truth.UNDEFINED
            img = awareness_image(k, f.agent, w)
            return truth_of(self._atoms(f.child) <= img.vocabulary)
        if isinstance(f, ExplicitKnow):
            if self.lang is not Lang.LKA:
                raise ValueError("ExplicitKnow is not a grammar node of L; expand it first")
            return self.value(expand_defined(f, Lang.LKA), w)
        raise TypeError(f"not a formula: {f!r}")

    def _know_explicit(self, f, w):
        """Explicit-knowledge clause: quantify over the cell of the awareness
        image, at the image's vocabulary level."""
        k, X = self.k, w.vocabulary
        if not self.strict and not self._atoms(f.child) <= X:
            return Truth.UNDEFINED
        img = awareness_image(k, f.agent, w)
        Y = img.vocabulary
        for v in k.base.successors(f.agent, img.base):
            if self.value(f.child, WorldId(v, Y)) is not Truth.TRUE:
                return Truth.FALSE
        return Truth.TRUE

    def _know_implicit(self, f, w):
        """Implicit-knowledge clause: quantify over the cell in the top model,
        the objective perspective."""
        k, X = self.k, w.vocabulary
        if not self.strict and not self._atoms(f.child) <= X:
            return Truth.UNDEFINED
        top = frozenset(k.base.atoms)
        for v in k.base.successors(f.agent, w.base):
            if self.value(f.child, WorldId(v, top)) is not Truth.TRUE:
                return Truth.FALSE
        return Truth.TRUE


class FhOracle:
    """Memoizing two-valued evaluator for one model."""

    def __init__(self, s, lang: Lang):
        self.s = s
        self.lang = lang
        self._cache = {}

    def value(self, f: Formula, w) -> bool:
        key = (f, w)
        got = self._cache.get(key)
        if got is None:
            got = self._value(f, w)
            self._cache[key] = got
        return got

    def _value(self, f, w):
        s = self.s
        if isinstance(f, Top):
            return True
        if isinstance(f, Atom):
            try:
                return w in s.base.valuation[f.name]
            except KeyError:
                raise KeyError(f"atom {f.name!r} is outside the model's language") from None
        if isinstance(f, Not):
            return not self.value(f.child, w)
        if isinstance(f, And):
            return self.value(f.left, w) and self.value(f.right, w)
        if isinstance(f, Know):
            if self.lang is Lang.L:
                # explicit reading: awareness of the content plus truth
                # throughout the cell
                if not aware_of(s, f.agent, w, f.child):
                    return False
            return all(self.value(f.child, v) for v in s.base.successors(f.agent, w))
        if isinstance(f, Aware):
            if self.lang is Lang.L:
                raise ValueError("Aware is not a grammar node of L; expand it first")
            return aware_of(s, f.agent, w, f.child)
        if isinstance(f, ExplicitKnow):
            if self.lang is Lang.L:
                raise ValueError("ExplicitKnow is not a grammar node of L; expand it first")
            return self.value(expand_defined(f, Lang.LKA), w)
        raise TypeError(f"not a formula: {f!r}")
