"""Three-valued truth values for the guarded semantics, and the mask core
that every evaluator reads them from."""

from __future__ import annotations

import enum
from types import SimpleNamespace

from .formula import Formula, fold
from .kripke import members


class Truth(enum.Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "Undefined"

    def __bool__(self):
        raise TypeError("Truth is three-valued; compare against Truth members explicitly")

    def __str__(self):
        return self.value


def truth_of(b: bool) -> Truth:
    return Truth.TRUE if b else Truth.FALSE


def truth_at(true: int, false: int, i: int) -> Truth:
    """The value at state bit i, given the masks where it is True and False."""
    if true >> i & 1:
        return Truth.TRUE
    return Truth.FALSE if false >> i & 1 else Truth.UNDEFINED


class MaskEvaluator:
    """What the bitmask evaluators share after `formula.fold`.

    A subclass is an algebra on its model class's signatures (see `fold`)
    and gives `masks(sig)`, the (True, False) masks of a signature over the
    states in `states`; the rest of the states are Undefined. Truth
    questions are memoized, the signature per formula and the masks per
    signature."""

    def __init__(self, states):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self.full = (1 << len(states)) - 1
        self._memo, self._masks = {}, {}

    def truth_masks(self, f: Formula):
        """(True mask, False mask) of f, computed once per signature."""
        sig = fold(f, self, self._memo)
        got = self._masks.get(sig)
        if got is None:
            got = self._masks[sig] = self.masks(sig)
        return got

    def value(self, f: Formula, state) -> Truth:
        try:
            i = self.index[state]
        except KeyError:
            raise KeyError(f"unknown state {str(state)!r}") from None
        return truth_at(*self.truth_masks(f), i)

    def check(self, g: Formula):
        """Guarded validity of g: False at no state; the states where it is
        False, in state order."""
        bad = self.truth_masks(g)[1]
        if not bad:
            return True, []
        return False, members(bad, self.states)


def compile_program(f: Formula, holes, lang):
    """f as a straight-line program of algebra ops, one step per slot after
    the slots of the placeholder atoms `holes`, recorded by `fold` in lang (A
    and X unfold as in fold; a shared subterm is one step). Gives run(alg,
    sigs): the signature of f in alg, with the signatures sigs in the holes."""
    steps = []

    def emit(step):
        steps.append(step)
        return len(holes) + len(steps) - 1

    out = fold(f, SimpleNamespace(
        lang=lang, top=lambda: emit(lambda alg, s: alg.top()),
        atom=lambda p: emit(lambda alg, s: alg.atom(p)),
        neg=lambda i: emit(lambda alg, s: alg.neg(s[i])),
        conj=lambda i, j: emit(lambda alg, s: alg.conj(s[i], s[j])),
        know=lambda a, i: emit(lambda alg, s: alg.know(a, s[i])),
        aware=lambda a, i: emit(lambda alg, s: alg.aware(a, s[i]))),
        {h: i for i, h in enumerate(holes)})

    def run(alg, sigs):
        s = list(sigs)
        for step in steps:
            s.append(step(alg, s))
        return s[out]
    return run
