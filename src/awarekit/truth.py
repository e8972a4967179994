"""Three-valued truth values for the guarded semantics, and the mask core
that every evaluator reads them from."""

from __future__ import annotations

import enum

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

