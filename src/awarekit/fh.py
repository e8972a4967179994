"""Awareness structures: a Kripke model plus per-agent, per-world awareness
sets of formulas, with a classical two-valued semantics.

Awareness sets come in two representations. AtomGenerated holds an atom set
and stands, intensionally, for the infinite set of all formulas over those
atoms; this is the shape propositionally generated awareness takes. Explicit
holds a literal finite formula list and exists for adversarial inputs.
"""

from __future__ import annotations

from types import SimpleNamespace

from .formula import (
    And,
    Atom,
    Aware,
    Formula,
    Know,
    Lang,
    Not,
    TOP,
    Top,
    _formulas,
    agents_of,
    atoms_of,
    expand_defined,
    fold,
    to_text,
)
from .kripke import KripkeModel, PropertyReport, group_cells, validate_kripke
from .truth import MaskEvaluator
from .values import Frozen


class AtomGenerated(Frozen):
    _fields = ("atoms",)

    def __init__(self, atoms: frozenset):
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def make(cls, atoms):
        return cls(frozenset(atoms))

    def contains(self, f: Formula) -> bool:
        return atoms_of(f) <= self.atoms


class Explicit(Frozen):
    """A finite list of formulas. It is matched through the definition of X,
    the one that LKA has: `X{a} g` is listed, or asked about, as
    `A{a} g & K{a} g`. `atoms` and `agents` are those the listed formulas
    mention. Only `formulas` is compared and shown."""

    _fields = ("formulas",)

    def __init__(self, formulas: tuple):
        object.__setattr__(self, "formulas", formulas)
        object.__setattr__(self, "listed", frozenset(
            expand_defined(f, Lang.LKA) for f in formulas))
        object.__setattr__(self, "atoms", frozenset().union(*map(atoms_of, formulas)))
        object.__setattr__(self, "agents", frozenset().union(*map(agents_of, formulas)))

    @classmethod
    def make(cls, formulas):
        return cls(tuple(formulas))

    def contains(self, f: Formula) -> bool:
        return expand_defined(f, Lang.LKA) in self.listed


class FHModel(Frozen):
    """A Kripke model over a sublanguage's atoms plus an awareness function."""

    kind = "fh"  # the model file kind, on which modelio, cli and transforms dispatch
    _fields = ("base", "awareness")

    def __init__(self, base: KripkeModel, awareness: dict):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "awareness", awareness)  # agent -> world -> AwarenessSet

    @classmethod
    def make(cls, base, awareness):
        return cls(base=base, awareness={a: dict(per) for a, per in awareness.items()})

    @property
    def signature(self):
        return self.base.signature

    def problems(self):
        return validate_fh(self)

    def properties(self) -> PropertyReport:
        """PP, decided exactly, and KA, each with its first witness as text."""
        pp, (ka, ka_witnesses) = check_pp(self), check_ka(self)
        name = f"pp ({pp['verdict']})"
        report = PropertyReport({name: pp["passed"], "ka": ka})
        if pp["witnesses"]:
            agent, world, formula = pp["witnesses"][0]
            report.witnesses[name] = agent, world, to_text(formula)
        if ka_witnesses:
            report.witnesses["ka"] = ka_witnesses[0]
        return report

    def evaluator(self, lang: Lang):
        return FHEvaluator(self, lang)


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
        for key, aset in per.items():
            if key not in s.base.worlds:
                problems.append(f"awareness of agent {a!r} keyed by unknown world {key!r}")
                continue
            for what, known in (("atoms", s.base.atoms), ("agents", s.base.agents)):
                if extra := getattr(aset, what, frozenset()) - known:
                    problems.append(f"awareness of agent {a!r} at {key!r} mentions unknown "
                                    f"{what} {sorted(extra)}")
    for a in s.awareness:
        if a not in s.base.agents:
            problems.append(f"awareness sets for unknown agent {a!r}")
    return problems


def check_pp(s: FHModel):
    """Whether every awareness set is generated by primitive propositions:
    it holds exactly the formulas whose atoms are in its atom set G.

    AtomGenerated sets are so by construction. An Explicit set never is, as
    it is finite and the formulas over G are not (T, ~T, ~~T, ...). Its
    witness is the first formula over G, in the enumerator's order over
    depths 0, 1, 2, ..., that it does not list. The formulas over G come in
    the same order in the enumeration over G as in the one over all the
    atoms, so only they are made, at most one more than the list is long.
    """
    witnesses = []
    for a in sorted(s.base.agents):
        for w in sorted(s.base.worlds):
            aset = s.awareness[a][w]
            if isinstance(aset, Explicit):
                witnesses.append((a, w, next(
                    f for f in _formulas(s.base.atoms & aset.atoms, s.base.agents, Lang.LKA)
                    if not aset.contains(f))))
    return {"passed": not witnesses, "witnesses": witnesses, "verdict": "exact"}


def check_ka(s: FHModel):
    """Whether awareness is constant along each agent's relation."""
    witnesses = []
    for a in sorted(s.base.agents):
        per = s.awareness[a]
        for (w, v) in sorted(s.base.relations.get(a, frozenset())):
            left, right = per[w], per[v]
            explicit = isinstance(left, Explicit) and isinstance(right, Explicit)
            if (left.listed != right.listed) if explicit else left != right:
                witnesses.append((a, w, v))
    return not witnesses, witnesses


class FHEvaluator(MaskEvaluator):
    """The tables of one awareness structure, for the one algebra; its
    semantics is two-valued, so every atom is True or False at each world,
    the states in sorted order.

    Where a set lists formulas, awareness reads the formula's term (with the
    defined operators unfolded as fold unfolds them) while it is a subterm
    of some listed formula: `_up` holds each such subterm under its
    constructor and children, and `listed_at` per agent the states whose set
    lists formulas, with the listed formulas. A formula with a subterm
    outside that finite set is outside it too. An atom-generated set reads
    the atom set, through `aware_masks`."""

    def __init__(self, s: FHModel, lang: Lang):
        self.s = s
        self.lang = lang
        self.explicit_know = lang is Lang.L  # K_a reads awareness too
        super().__init__(sorted(s.base.worlds))
        self.atom_masks = {}
        for p, holds in s.base.valuation.items():
            true = sum(1 << self.index[w] for w in holds)
            self.atom_masks[p] = true, self.full & ~true
        self.cells = {
            a: group_cells([sum(1 << self.index[v] for v in s.base.successors(a, w))
                            for w in self.states])
            for a in s.base.agents
        }
        sets = {a: [per[w] for w in self.states] for a, per in s.awareness.items()}
        self.aware_masks = {a: {p: sum(1 << i for i, x in enumerate(sets[a])
                                       if not isinstance(x, Explicit) and p in x.atoms)
                                for p in self.atom_masks} for a in s.base.agents}
        self._up = up = {}
        recorder = SimpleNamespace(
            lang=None, top=lambda: up.setdefault((Top,), TOP),
            atom=lambda p: up.setdefault((Atom, p), Atom(p)),
            neg=lambda t: up.setdefault((Not, t), Not(t)),
            conj=lambda t, u: up.setdefault((And, t, u), And(t, u)),
            know=lambda a, t: up.setdefault((Know, a, t), Know(a, t)),
            aware=lambda a, t: up.setdefault((Aware, a, t), Aware(a, t)))
        self.listed_at = {a: [(i, x.listed) for i, x in enumerate(per) if isinstance(x, Explicit)]
                          for a, per in sets.items()}
        memo = {}
        for f in (f for lists in self.listed_at.values() for _, listed in lists for f in listed):
            fold(f, recorder, memo)
