"""Kripke lattice models: awareness maps over the restriction lattice and the
guarded three-valued semantics.

The canonical representation of an awareness map is a per-agent, per-base-world
atom set Aw_a(w), inducing pi_a(w_X) = w_{X & Aw_a(w)}. No-Surprises forces
this product form (the value at the full vocabulary determines all others), so
the assignment form is complete for NS-satisfying maps; explicit pointwise maps
exist only as checker input.
"""

from __future__ import annotations

import os
import random
from itertools import combinations, repeat

from .formula import Formula, Lang, in_language, require_signature
from .kripke import (Filled, KripkeModel, PropertyReport, WorldId, box, group_cells, meet,
                     validate_kripke)
from .values import Frozen
from .truth import MaskEvaluator, Truth

DEFAULT_LATTICE_CAP = 12


def lattice_cap() -> int:
    value = os.environ.get("AWAREKIT_LATTICE_CAP", DEFAULT_LATTICE_CAP)
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"AWAREKIT_LATTICE_CAP is not an integer: {value!r}") from None


def _check_cap(atoms):
    if len(atoms) > lattice_cap():
        raise ValueError(
            f"refusing exhaustive scan over {len(atoms)} atoms "
            f"(cap {lattice_cap()}; set AWAREKIT_LATTICE_CAP to override)"
        )


def subsets(atoms):
    """All subsets of an atom set, smallest first, deterministic order."""
    atoms = sorted(atoms)
    return [
        frozenset(c) for r in range(len(atoms) + 1) for c in combinations(atoms, r)
    ]


class KripkeLatticeModel(Frozen):
    """A base Kripke model for the full atom set plus an awareness assignment
    agent -> world -> atom subset."""

    kind = "klm"  # the model file kind, on which modelio, cli and transforms dispatch
    _fields = ("base", "awareness")

    def __init__(self, base: KripkeModel, awareness: dict):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "awareness", awareness)

    @classmethod
    def make(cls, base, awareness):
        return cls(base, {a: {w: frozenset(s) for w, s in per_world.items()}
                          for a, per_world in awareness.items()})

    def awareness_atoms(self, agent, world) -> frozenset:
        if agent not in self.base.agents:
            raise KeyError(f"unknown agent {agent!r}")
        if world not in self.base.worlds:
            raise KeyError(f"unknown world {world!r}")
        return self.awareness[agent][world]

    @property
    def signature(self):
        return self.base.signature

    def problems(self):
        return validate_klm(self)

    def properties(self) -> PropertyReport:
        """D, II and NS of the pointwise map that the assignment induces."""
        return check_awareness_properties(self.base, induced_pointwise(self.base, self.awareness))

    def evaluator(self, lang: Lang, strict_two_valued=False):
        return Evaluator(self, lang, strict_two_valued)

    def omega(self):
        """All world copies w_X, ordered by world id, then by vocabulary from
        the full set downwards (so full-vocabulary copies come first)."""
        _check_cap(self.base.atoms)
        vocabularies = sorted(
            subsets(self.base.atoms), key=lambda X: (-len(X), tuple(sorted(X)))
        )
        return [
            WorldId(w, X) for w in sorted(self.base.worlds) for X in vocabularies
        ]


def awareness_image(k: KripkeLatticeModel, agent, w: WorldId) -> WorldId:
    """pi_a(w_X) = w_{X & Aw_a(w)}: the same world under the agent's vocabulary."""
    if not w.vocabulary <= k.base.atoms:
        raise KeyError(f"vocabulary of {w} is not a subset of the model's atoms")
    aw = k.awareness_atoms(agent, w.base)
    return WorldId(w.base, w.vocabulary & aw)


def validate_klm(k: KripkeLatticeModel):
    """Well-formedness report: base validity, awareness keying, and the
    Introspective-Idempotence requirement (awareness monotone along R_a)."""
    problems = list(validate_kripke(k.base))
    for a in k.base.agents:
        per_world = k.awareness.get(a)
        if per_world is None:
            problems.append(f"no awareness assignment for agent {a!r}")
            continue
        for w in k.base.worlds:
            if w not in per_world:
                problems.append(f"no awareness set for agent {a!r} at world {w!r}")
            elif not per_world[w] <= k.base.atoms:
                problems.append(
                    f"awareness of agent {a!r} at {w!r} mentions unknown atoms "
                    f"{sorted(per_world[w] - k.base.atoms)}"
                )
        for key in per_world or {}:
            if key not in k.base.worlds:
                problems.append(f"awareness of agent {a!r} keyed by unknown world {key!r}")
    problems += [f"awareness assignment for unknown agent {a!r}"
                 for a in k.awareness if a not in k.base.agents]
    if not problems:
        for a in sorted(k.base.agents):
            for (w, v) in sorted(k.base.relations.get(a, frozenset())):
                if not k.awareness[a][w] <= k.awareness[a][v]:
                    problems.append(
                        f"Introspective Idempotence fails: agent {a!r} has "
                        f"({w!r},{v!r}) accessible but Aw({w!r}) is not a subset of Aw({v!r})"
                    )
    return problems


# ---------------------------------------------------------------------------
# pointwise maps and the D / II / NS checker


def induced_pointwise(base: KripkeModel, awareness):
    """The total pointwise map agent -> {w_X: w_Y} induced by an assignment."""
    _check_cap(base.atoms)
    out = {}
    for a in base.agents:
        per = {}
        for w in base.worlds:
            aw = awareness[a][w]
            for X in subsets(base.atoms):
                per[WorldId(w, X)] = WorldId(w, X & aw)
        out[a] = per
    return out


def check_awareness_properties(base: KripkeModel, pointwise):
    """Check Downwards, Introspective Idempotence and No Surprises on a total
    pointwise awareness map over the full restriction lattice."""
    _check_cap(base.atoms)
    all_subsets = subsets(base.atoms)
    for a in sorted(base.agents):
        per = pointwise.get(a)
        if per is None:
            raise ValueError(f"pointwise map missing agent {a!r}")
        for w in base.worlds:
            for X in all_subsets:
                if WorldId(w, X) not in per:
                    raise ValueError(
                        f"pointwise map of agent {a!r} is not total: no entry for {WorldId(w, X)}"
                    )

    report = PropertyReport()
    for a in sorted(base.agents):
        per = pointwise[a]
        for w in sorted(base.worlds):
            for X in all_subsets:
                src = WorldId(w, X)
                img = per[src]
                if img.base != w or not img.vocabulary <= X:
                    report.record("D", (a, src, img))
                else:
                    report.record("D")
                # II: every world in the cell of the image maps into the cell
                Y = img.vocabulary
                cell = base.successors(a, w) if img.base == w else frozenset()
                ok = True
                for v in cell:
                    vimg = per[WorldId(v, Y)]
                    if vimg.vocabulary != Y or vimg.base not in cell:
                        ok = False
                        report.record("II", (a, src, WorldId(v, Y), vimg))
                        break
                if ok:
                    report.record("II")
                # NS: the image vocabulary at X determines it at every Y <= X
                Z = img.vocabulary
                ns_ok = True
                for Ysub in subsets(X):
                    expected = WorldId(w, Ysub & Z)
                    if per[WorldId(w, Ysub)] != expected:
                        ns_ok = False
                        report.record("NS", (a, w, X, Ysub, per[WorldId(w, Ysub)], expected))
                        break
                if ns_ok:
                    report.record("NS")
    return report


def canonicalize(base: KripkeModel, pointwise):
    """Extract the awareness assignment Aw_a(w) = vocabulary of the image of
    w_At from a D- and NS-satisfying pointwise map; fails with a witness if
    the map violates either property."""
    report = check_awareness_properties(base, pointwise)
    for prop in ("D", "NS"):
        if not report.passed.get(prop, False):
            raise ValueError(f"property {prop} fails: witness {report.witnesses[prop]}")
    top = frozenset(base.atoms)
    awareness = {
        a: {w: pointwise[a][WorldId(w, top)].vocabulary for w in base.worlds}
        for a in base.agents
    }
    # NS makes the product form reproduce the map everywhere; assert it does
    for a in base.agents:
        for src, img in pointwise[a].items():
            if WorldId(src.base, src.vocabulary & awareness[a][src.base]) != img:
                raise AssertionError(f"NS-canonical form does not reproduce {src} -> {img}")
    return awareness


# ---------------------------------------------------------------------------
# three-valued satisfaction


class Evaluator(MaskEvaluator):
    """Bitmask evaluator for one model; safe to reuse across formulas.

    States are the world copies in omega order and a set of states is a
    Python int. A formula's signature is its true mask and its atom set, an
    int over the sorted atoms; `formula.fold` computes it once per distinct
    subformula from the algebra below. A formula is Undefined at w_X exactly
    when it mentions an atom outside X. With strict_two_valued the
    definedness guards are dropped and atoms read from the top valuation,
    giving a fully two-valued reading.

    Omega is one block of B = 2^|At| vocabularies per world, and the world
    and vocabulary orders are read off it. So the tables are block
    arithmetic: a set of worlds is its blocks' low bits, a per-block pattern
    times that set is the pattern in each of its blocks, and the copy of
    world v at vocabulary Y is v's block bit shifted by the rank of Y.
    """

    def __init__(self, k: KripkeLatticeModel, lang: Lang = Lang.L, strict_two_valued=False):
        self.k = k
        self.lang = lang
        self.strict = strict_two_valued
        super().__init__(k.omega())
        base = k.base
        atoms = sorted(base.atoms)
        self.bit = bit = {p: 1 << i for i, p in enumerate(atoms)}
        B = 1 << len(atoms)
        worlds = [s.base for s in self.states[::B]]
        vocabularies = [sum(map(bit.get, s.vocabulary)) for s in self.states[:B]]  # as ints
        rank = {x: i for i, x in enumerate(vocabularies)}

        def blocks(holds):  # the low bit of each block whose world satisfies holds
            return sum(1 << j * B for j, w in enumerate(worlds) if holds(w))

        # per atom the vocabularies of a block that hold it
        pattern = [sum(1 << i for i, x in enumerate(vocabularies) if x & bit[p]) for p in atoms]
        # guards[i]: where atoms[i] has a truth value
        repunit = blocks(lambda w: True)  # the sum of 1 << j·B over the worlds
        guards = [self.full if self.strict else q * repunit for q in pattern]
        self.atom_true = {p: g & blocks(base.valuation[p].__contains__) * ((1 << B) - 1)
                          for p, g in zip(atoms, guards)}
        full = self.full
        # the masks of an atom set (an int), filled on first use: where it is
        # defined, and per agent where it is also in the vocabulary of the
        # agent's awareness image X & Aw_a(w)
        self._defined = defined = Filled(lambda at: meet(at, guards, full))
        self._aware = {}
        for a in base.agents:
            per = [q * blocks(lambda w: p in k.awareness[a][w]) for p, q in zip(atoms, pattern)]
            self._aware[a] = Filled(lambda at, per=per: meet(at, per, defined[at]))
        # K_a quantifies over the cell of w: explicitly at the awareness
        # image's vocabulary, implicitly at the top vocabulary
        self.cells = {}
        for a in base.agents:
            cells = []
            for w in worlds:
                aw = sum(map(bit.get, k.awareness[a][w], repeat(0)))
                image = [x & aw for x in vocabularies] if lang is Lang.L else [B - 1] * B
                succ = blocks(base.successors(a, w).__contains__)
                cells += [succ << rank[y] for y in image]
            self.cells[a] = group_cells(cells)

    # the algebra of (true mask, atom set) signatures
    def top(self):
        return self.full, 0

    def atom(self, p):
        return self.atom_true[p], self.bit[p]

    def neg(self, s):
        return self._defined[s[1]] & ~s[0], s[1]

    @staticmethod
    def conj(s, t):
        return s[0] & t[0], s[1] | t[1]

    def know(self, agent, s):
        return box(self.cells[agent], s[0]) & self._defined[s[1]], s[1]

    def aware(self, agent, s):
        return self._aware[agent][s[1]], s[1]

    def masks(self, s):
        return s[0], self._defined[s[1]] & ~s[0]


def eval_L(k: KripkeLatticeModel, w: WorldId, f: Formula, evaluator=None) -> Truth:
    """Three-valued satisfaction of an explicit-knowledge formula at w_X.

    Undefined exactly when the formula mentions atoms outside X; atoms or
    agents outside the model are an error, as in every model class.
    """
    if not in_language(f, Lang.L):
        raise ValueError("formula is not in the explicit-knowledge language; expand it first")
    require_signature(f, k.base.atoms, k.base.agents)
    ev = evaluator or Evaluator(k, Lang.L)
    return ev.value(f, w)


def eval_LKA(k: KripkeLatticeModel, w: WorldId, f: Formula, evaluator=None,
             strict_two_valued=False) -> Truth:
    """Three-valued satisfaction with implicit knowledge (evaluated at the top
    model) and primitive awareness.

    With strict_two_valued the definedness guards are dropped and atoms read
    from the top valuation, giving a fully two-valued reading.
    """
    require_signature(f, k.base.atoms, k.base.agents)
    ev = evaluator or Evaluator(k, Lang.LKA, strict_two_valued)
    return ev.value(f, w)


# ---------------------------------------------------------------------------
# random model generation


def _random_partition(rng, worlds):
    cells = []
    for w in worlds:
        if cells and rng.random() < 0.6:
            rng.choice(cells).append(w)
        else:
            cells.append([w])
    return frozenset((w, v) for c in cells for w in c for v in c)


def random_klm_eq(rng: random.Random, max_worlds=4, max_atoms=3, agents=("a", "b")):
    """A random lattice model whose relations are equivalence relations and
    whose awareness is constant on information cells."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(1, n + 1)]
    k = rng.randint(1, max_atoms)
    atoms = [f"p{i}" for i in range(1, k + 1)]
    relations = {a: _random_partition(rng, worlds) for a in agents}
    valuation = {p: frozenset(w for w in worlds if rng.random() < 0.5) for p in atoms}
    awareness = {}
    for a in agents:
        per = {}
        for w in worlds:
            if w not in per:
                aw = frozenset(p for p in atoms if rng.random() < 0.6)
                cell = {v for (u, v) in relations[a] if u == w}
                for v in cell:
                    per[v] = aw
        awareness[a] = per
    base = KripkeModel.make(atoms, agents, worlds, relations, valuation)
    out = KripkeLatticeModel.make(base, awareness)
    assert not validate_klm(out)
    return out


def random_klm(rng: random.Random, max_worlds=4, max_atoms=3, agents=("a", "b")):
    """A random lattice model with arbitrary relations. Awareness is made
    constant on each relation-connected component, so agents know what they
    are aware of; this is the class the general-awareness axioms describe."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(1, n + 1)]
    k = rng.randint(1, max_atoms)
    atoms = [f"p{i}" for i in range(1, k + 1)]
    relations = {
        a: frozenset(
            (w, v) for w in worlds for v in worlds if rng.random() < 0.4
        )
        for a in agents
    }
    valuation = {p: frozenset(w for w in worlds if rng.random() < 0.5) for p in atoms}
    awareness = {}
    for a in agents:
        per = {w: set(p for p in atoms if rng.random() < 0.6) for w in worlds}
        changed = True
        while changed:
            changed = False
            for (w, v) in relations[a]:
                joint = per[w] | per[v]
                if per[w] != joint or per[v] != joint:
                    per[w] = per[v] = joint
                    changed = True
        awareness[a] = {w: frozenset(s) for w, s in per.items()}
    base = KripkeModel.make(atoms, agents, worlds, relations, valuation)
    out = KripkeLatticeModel.make(base, awareness)
    assert not validate_klm(out)
    return out
