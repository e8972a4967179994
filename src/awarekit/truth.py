"""Three-valued truth values for the guarded semantics."""

from __future__ import annotations

import enum


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
