"""Awareness structures: a Kripke model plus per-agent, per-world awareness
sets of formulas, with a classical two-valued semantics.

Awareness sets come in two representations. AtomGenerated holds an atom set
and stands, intensionally, for the infinite set of all formulas over those
atoms; this is the shape propositionally generated awareness takes. Explicit
holds a literal finite formula list and exists for adversarial inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from .formula import (
    Formula,
    Lang,
    atoms_of,
    enumerate_formulas,
    expand_defined,
    in_language,
    require_signature,
    terms,
)
from .kripke import Filled, KripkeModel, box, group_cells, validate_kripke
from .truth import MaskEvaluator, Truth


@dataclass(frozen=True)
class AtomGenerated:
    atoms: frozenset

    @classmethod
    def make(cls, atoms):
        return cls(frozenset(atoms))

    def contains(self, f: Formula) -> bool:
        return atoms_of(f) <= self.atoms


@dataclass(frozen=True)
class Explicit:
    """A finite list of formulas. It is matched through the definition of X,
    the one that LKA has: `X{a} g` is listed, or asked about, as
    `A{a} g & K{a} g`."""

    formulas: tuple
    listed: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "listed", frozenset(
            expand_defined(f, Lang.LKA) for f in self.formulas))

    @classmethod
    def make(cls, formulas):
        return cls(tuple(formulas))

    def contains(self, f: Formula) -> bool:
        return expand_defined(f, Lang.LKA) in self.listed


@dataclass(frozen=True)
class FHModel:
    """A Kripke model over a sublanguage's atoms plus an awareness function."""

    base: KripkeModel
    awareness: dict  # agent -> world -> AwarenessSet

    @classmethod
    def make(cls, base, awareness):
        return cls(base=base, awareness={a: dict(per) for a, per in awareness.items()})


def validate_fh(s: FHModel):
    problems = list(validate_kripke(s.base))
    for a in s.base.agents:
        per = s.awareness.get(a)
        if per is None:
            problems.append(f"no awareness sets for agent {a!r}")
            continue
        for w in s.base.worlds:
            if w not in per:
                problems.append(f"no awareness set for agent {a!r} at world {w!r}")
        for key in per:
            if key not in s.base.worlds:
                problems.append(f"awareness of agent {a!r} keyed by unknown world {key!r}")
    for a in s.awareness:
        if a not in s.base.agents:
            problems.append(f"awareness sets for unknown agent {a!r}")
    return problems


def aware_of(s: FHModel, agent, world, f: Formula) -> bool:
    if agent not in s.base.agents:
        raise KeyError(f"unknown agent {agent!r}")
    if world not in s.base.worlds:
        raise KeyError(f"unknown world {world!r}")
    return s.awareness[agent][world].contains(f)


PP_SURROGATE_DEPTH = 2


def check_pp(s: FHModel):
    """Whether every awareness set is generated by primitive propositions.

    AtomGenerated sets satisfy this by construction. Explicit sets are checked
    against all formulas of depth <= 2 over the model's atoms, a finite
    surrogate for the biconditional, so their verdict is bounded: a pass means
    no counterexample up to that depth. The report marks this.
    """
    witnesses = []
    bounded = False
    probes = None
    for a in sorted(s.base.agents):
        for w in sorted(s.base.worlds):
            aset = s.awareness[a][w]
            if isinstance(aset, AtomGenerated):
                continue
            bounded = True
            if probes is None:
                probes = enumerate_formulas(
                    s.base.atoms or {"p"}, s.base.agents, PP_SURROGATE_DEPTH, Lang.LKA
                )
            generated = frozenset().union(*(atoms_of(f) for f in aset.formulas)) \
                if aset.formulas else frozenset()
            for f in probes:
                if aset.contains(f) != (atoms_of(f) <= generated):
                    witnesses.append((a, w, f))
                    break
    return {"passed": not witnesses, "witnesses": witnesses,
            "verdict": "bounded" if bounded else "exact"}


def check_ka(s: FHModel):
    """Whether awareness is constant along each agent's relation."""
    witnesses = []
    for a in sorted(s.base.agents):
        per = s.awareness[a]
        for (w, v) in sorted(s.base.relations.get(a, frozenset())):
            left, right = per[w], per[v]
            if isinstance(left, Explicit) and isinstance(right, Explicit):
                same = left.listed == right.listed
            else:
                same = left == right
            if not same:
                witnesses.append((a, w, v))
    return not witnesses, witnesses


class FHEvaluator(MaskEvaluator):
    """Bitmask evaluator for one model, two-valued: the set of worlds where
    a formula is True, as an int over the sorted worlds, computed by
    `formula.fold` once per distinct subformula; it is False elsewhere. A
    signature pairs the true mask with what awareness reads: the atom set, as
    an int over the sorted atoms, or, where some awareness set is Explicit,
    the formula itself, with the defined operators unfolded as fold unfolds
    them."""

    def __init__(self, s: FHModel, lang: Lang):
        self.s = s
        self.lang = lang
        super().__init__(sorted(s.base.worlds))
        self.atom_true = {
            p: sum(1 << self.index[w] for w in holds) for p, holds in s.base.valuation.items()
        }
        self.cells = {
            a: group_cells([sum(1 << self.index[v] for v in s.base.successors(a, w))
                            for w in self.states])
            for a in s.base.agents
        }
        syntactic = any(isinstance(aset, Explicit)
                        for per in s.awareness.values() for aset in per.values())
        if syntactic:
            self._keys = terms(lang)
        else:
            bit = {p: 1 << i for i, p in enumerate(sorted(s.base.atoms))}
            self._keys = SimpleNamespace(top=lambda: 0, atom=bit.__getitem__, neg=lambda k: k,
                                        conj=int.__or__, know=lambda a, k: k,
                                        aware=lambda a, k: k)

        def awareness(agent):
            """The worlds where the agent is aware of a signature's key."""
            sets = [s.awareness[agent][w] for w in self.states]
            if syntactic:  # a key is a term that fold has already expanded
                held = [aset.listed.__contains__ if isinstance(aset, Explicit) else aset.contains
                        for aset in sets]
            else:
                held = [lambda at, aw=sum(bit.get(p, 0) for p in aset.atoms): not at & ~aw
                        for aset in sets]
            return Filled(lambda key: sum(1 << i for i, has in enumerate(held) if has(key)))

        self._aware = {a: awareness(a) for a in s.base.agents}

    # the algebra of (true mask, key) signatures
    def top(self):
        return self.full, self._keys.top()

    def atom(self, p):
        try:
            return self.atom_true[p], self._keys.atom(p)
        except KeyError:
            raise KeyError(f"atom {p!r} is outside the model's language") from None

    def neg(self, s):
        return self.full & ~s[0], self._keys.neg(s[1])

    def conj(self, s, t):
        return s[0] & t[0], self._keys.conj(s[1], t[1])

    def know(self, agent, s):
        out = box(self.cells[agent], s[0])
        if self.lang is Lang.L:
            # explicit reading: awareness of the content plus truth
            # throughout the cell
            out &= self._aware[agent][s[1]]
        return out, self._keys.know(agent, s[1])

    def aware(self, agent, s):
        return self._aware[agent][s[1]], self._keys.aware(agent, s[1])

    def masks(self, s):
        return s[0], self.full & ~s[0]


def eval_L_fh(s: FHModel, w, f: Formula, evaluator=None) -> bool:
    """Two-valued satisfaction with K read as explicit knowledge: awareness of
    the content plus truth at every accessible world. Atoms outside the
    model's language are an error, not a third value."""
    if not in_language(f, Lang.L):
        raise ValueError("formula is not in the explicit-knowledge language; expand it first")
    require_signature(f, s.base.atoms, s.base.agents)
    ev = evaluator or FHEvaluator(s, Lang.L)
    return ev.value(f, w) is Truth.TRUE


def eval_LKA_fh(s: FHModel, w, f: Formula, evaluator=None) -> bool:
    """Two-valued satisfaction with K implicit, A by awareness-set membership,
    and X as their conjunction."""
    require_signature(f, s.base.atoms, s.base.agents)
    ev = evaluator or FHEvaluator(s, Lang.LKA)
    return ev.value(f, w) is Truth.TRUE
