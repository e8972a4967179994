"""Awareness structures: a Kripke model plus per-agent, per-world awareness
sets of formulas, with a classical two-valued semantics.

Awareness sets come in two representations. AtomGenerated holds an atom set
and stands, intensionally, for the infinite set of all formulas over those
atoms; this is the shape propositionally generated awareness takes. Explicit
holds a literal finite formula list and exists for adversarial inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
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
    enumerate_formulas,
    expand_defined,
    in_language,
    require_signature,
)
from .kripke import KripkeModel, box, group_cells, members, validate_kripke


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
    formulas: tuple

    @classmethod
    def make(cls, formulas):
        return cls(tuple(formulas))

    def contains(self, f: Formula) -> bool:
        return f in self.formulas


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
                same = set(left.formulas) == set(right.formulas)
            else:
                same = left == right
            if not same:
                witnesses.append((a, w, v))
    return not witnesses, witnesses


class FHEvaluator:
    """Bitmask evaluator for one model, two-valued: the set of worlds where
    a formula is True, as an int over the sorted worlds, computed once per
    distinct subformula."""

    def __init__(self, s: FHModel, lang: Lang):
        self.s = s
        self.lang = lang
        self.states = sorted(s.base.worlds)
        self.index = {w: i for i, w in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self.atom_true = {
            p: sum(1 << self.index[w] for w in holds) for p, holds in s.base.valuation.items()
        }
        self.cells = {
            a: group_cells([sum(1 << self.index[v] for v in s.base.successors(a, w))
                            for w in self.states])
            for a in s.base.agents
        }
        self._memo = {}

    def defined_mask(self, atoms) -> int:
        """Every formula has a truth value at every world."""
        return self.full

    def true_mask(self, f: Formula) -> int:
        got = self._memo.get(f)
        if got is None:
            got = self._true_mask(f)
            self._memo[f] = got
        return got

    def value(self, f: Formula, w) -> bool:
        return bool((self.true_mask(f) >> self.index[w]) & 1)

    def check(self, g: Formula):
        """Validity of g; the worlds where it fails, in sorted order."""
        bad = self.full & ~self.true_mask(g)
        if not bad:
            return True, []
        return False, members(bad, self.states)

    def _aware(self, agent, f):
        return sum(1 << i for i, w in enumerate(self.states) if aware_of(self.s, agent, w, f))

    def _true_mask(self, f):
        kind = type(f)
        if kind is Not:
            return self.full & ~self.true_mask(f.child)
        if kind is And:
            return self.true_mask(f.left) & self.true_mask(f.right)
        if kind is Atom:
            try:
                return self.atom_true[f.name]
            except KeyError:
                raise KeyError(f"atom {f.name!r} is outside the model's language") from None
        if kind is Know:
            out = box(self.cells[f.agent], self.true_mask(f.child))
            if self.lang is Lang.L:
                # explicit reading: awareness of the content plus truth
                # throughout the cell
                out &= self._aware(f.agent, f.child)
            return out
        if kind is Aware:
            if self.lang is Lang.L:
                raise ValueError("Aware is not a grammar node of L; expand it first")
            return self._aware(f.agent, f.child)
        if kind is ExplicitKnow:
            if self.lang is Lang.L:
                raise ValueError("ExplicitKnow is not a grammar node of L; expand it first")
            return self.true_mask(expand_defined(f, Lang.LKA))
        if kind is Top:
            return self.full
        raise TypeError(f"not a formula: {f!r}")


def _check_world(s, w):
    if w not in s.base.worlds:
        raise KeyError(f"unknown world {w!r}")


def eval_L_fh(s: FHModel, w, f: Formula, evaluator=None) -> bool:
    """Two-valued satisfaction with K read as explicit knowledge: awareness of
    the content plus truth at every accessible world. Atoms outside the
    model's language are an error, not a third value."""
    if not in_language(f, Lang.L):
        raise ValueError("formula is not in the explicit-knowledge language; expand it first")
    _check_world(s, w)
    require_signature(f, s.base.atoms, s.base.agents)
    ev = evaluator or FHEvaluator(s, Lang.L)
    return ev.value(f, w)


def eval_LKA_fh(s: FHModel, w, f: Formula, evaluator=None) -> bool:
    """Two-valued satisfaction with K implicit, A by awareness-set membership,
    and X as their conjunction."""
    _check_world(s, w)
    require_signature(f, s.base.atoms, s.base.agents)
    ev = evaluator or FHEvaluator(s, Lang.LKA)
    return ev.value(f, w)
