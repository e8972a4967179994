"""Three-valued truth values for the guarded semantics, and the base class
of the evaluators, whose tables the one algebra reads."""

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
    """The tables of a model class's bitmask evaluator, and the truth
    questions, answered by folding formulas into the one algebra over them.

    A set of states is an int, bit i for `states[i]`. A subclass gives its
    `lang` and builds its tables: `atom_masks`, per atom the (True, False)
    masks (the atom is Undefined elsewhere); `cells`, per agent the cells of
    K_a grouped by `kripke.group_cells`; `aware_masks`, per agent and atom
    the states where the agent is aware of the atom, read by A_a and, where
    `explicit_know` is set, by K_a; and on formula-list awareness sets
    `listed_at` and `_up` (see `fh.FHEvaluator`). The algebra is
    `sliced.Sliced` over these tables at width 1, `algebra`, built on first
    use; a formula's value there is its signature, memoized per formula."""

    explicit_know = False
    listed_at = {}

    def __init__(self, states):
        self.states = states
        self.index = {s: i for i, s in enumerate(states)}
        self.full = (1 << len(states)) - 1
        self._memo, self._algebra = {}, None

    @property
    def algebra(self):
        if self._algebra is None:
            from .sliced import Sliced

            self._algebra = Sliced(self)
        return self._algebra

    def signature(self, f: Formula):
        return fold(f, self.algebra, self._memo)

    def truth_masks(self, f: Formula):
        """(True mask, False mask) of f."""
        return self.algebra.masks(self.signature(f))

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
