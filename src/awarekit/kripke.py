"""Plain Kripke models, the bitmask modal box, restrictions to atom subsets,
and the property report that the checks of every model class fill.

A restriction is a lazy view: the restricted worlds w_X are (world, X) pairs,
the relation mirrors the source relation exactly, and the valuation covers
exactly the atoms of X. Restrictions to different atom sets are disjoint by
construction, and every restriction has the same number of worlds as the
source model.
"""

from __future__ import annotations

from .values import Frozen, Value


class WorldId(Frozen):
    """A world copy w_X: a base world id paired with a vocabulary X."""

    _fields = ("base", "vocabulary")

    def __init__(self, base: str, vocabulary: frozenset):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vocabulary", vocabulary)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.vocabulary) == (other.base, other.vocabulary)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.vocabulary))

    def __str__(self):
        return f"{self.base}@{{{','.join(sorted(self.vocabulary))}}}"

    def sort_key(self):
        return (self.base, tuple(sorted(self.vocabulary)))


def parse_world_id(text: str, full_vocabulary) -> WorldId:
    """Parse 'w@{a,b}' syntax; a bare world id means the full vocabulary."""
    if "@" not in text:
        return WorldId(text, frozenset(full_vocabulary))
    base, _, voc = text.rpartition("@")  # a base may hold "@" (a transformed state)
    voc = voc.strip()
    if not (voc.startswith("{") and voc.endswith("}")):
        raise ValueError(f"bad world id syntax: {text!r}")
    inner = voc[1:-1].strip()
    atoms = frozenset(a.strip() for a in inner.split(",") if a.strip()) if inner else frozenset()
    return WorldId(base, atoms)


class KripkeModel(Frozen):
    """Finite Kripke model: worlds, per-agent relations, valuation over `atoms`."""

    kind = "kripke"  # the model file kind, on which modelio, cli and transforms dispatch
    _fields = ("atoms", "agents", "worlds", "relations", "valuation")

    def __init__(self, atoms: frozenset, agents: frozenset, worlds: frozenset,
                 relations: dict, valuation: dict):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "relations", relations)  # agent -> frozenset of (w, v) pairs
        object.__setattr__(self, "valuation", valuation)  # atom -> frozenset of worlds

    @classmethod
    def make(cls, atoms, agents, worlds, relations, valuation):
        return cls(frozenset(atoms), frozenset(agents), frozenset(worlds),
                   {a: frozenset(tuple(p) for p in pairs) for a, pairs in relations.items()},
                   {p: frozenset(ws) for p, ws in valuation.items()})

    def successors(self, agent, world):
        if agent not in self.agents:
            raise KeyError(f"unknown agent {agent!r}")
        if world not in self.worlds:
            raise KeyError(f"unknown world {world!r}")
        rel = self.relations.get(agent, frozenset())
        return frozenset(v for (w, v) in rel if w == world)

    @property
    def signature(self):
        return self.atoms, self.agents

    def problems(self):
        return validate_kripke(self)

    def properties(self) -> PropertyReport:
        """Whether each agent's relation is an equivalence relation."""
        return PropertyReport({f"equivalence[{a}]": flags["equivalence"]
                               for a, flags in relation_properties(self).items()})


class RestrictedModel(Frozen):
    """Lazy view of a KripkeModel restricted to vocabulary X."""

    _fields = ("source", "vocabulary")

    def __init__(self, source: KripkeModel, vocabulary: frozenset):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "vocabulary", vocabulary)

    def worlds(self):
        return frozenset(WorldId(w, self.vocabulary) for w in self.source.worlds)

    def holds(self, atom, world: WorldId) -> bool:
        if atom not in self.vocabulary:
            raise KeyError(f"atom {atom!r} not in vocabulary")
        return world.base in self.source.valuation[atom]

    def successors(self, agent, world: WorldId):
        if world.vocabulary != self.vocabulary:
            raise KeyError(f"world {world} is not at vocabulary {sorted(self.vocabulary)}")
        return frozenset(
            WorldId(v, self.vocabulary) for v in self.source.successors(agent, world.base)
        )


def group_cells(cells):
    """Pair each distinct cell with the set of states that have it; both are
    bitmasks, and `cells` holds one cell per state index."""
    groups = {}
    for i, cell in enumerate(cells):
        groups[cell] = groups.get(cell, 0) | (1 << i)
    return list(groups.items())


def box(groups, child: int) -> int:
    """The modal box over bitmasks: the states whose whole cell lies inside
    the set `child`, for cells grouped by group_cells."""
    out = 0
    for cell, members in groups:
        if child & cell == cell:
            out |= members
    return out


def relabel(mask: int, table) -> int:
    """The union of table[b] over the set bits b of the mask; a bit missing
    from the table maps to nothing."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table.get(low, 0)
        mask ^= low
    return out


def members(mask: int, states):
    """The states whose bits are set in the mask, in index order."""
    return [states[i] for i in range(mask.bit_length()) if (mask >> i) & 1]


def meet(bits: int, masks, full: int) -> int:
    """The AND of full and of masks[i] over the set bits i."""
    i = 0
    while bits:
        if bits & 1:
            full &= masks[i]
        bits >>= 1
        i += 1
    return full


class Filled(dict):
    """A table whose missing entries are filled by fill(key) on first use."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


class PropertyReport(Value):
    """Per-property verdicts with a concrete witness for each failure."""

    _fields = ("passed", "witnesses")

    def __init__(self, passed: dict = None, witnesses: dict = None):
        self.passed = {} if passed is None else passed
        self.witnesses = {} if witnesses is None else witnesses

    def record(self, name, witness=None):
        if witness is None:
            self.passed.setdefault(name, True)
        else:
            self.passed[name] = False
            self.witnesses.setdefault(name, witness)

    def all_pass(self, *names):
        names = names or tuple(self.passed)
        return all(self.passed.get(n, False) for n in names)


def validate_kripke(m: KripkeModel):
    """Report-style validation; the returned list is empty iff m is well formed."""
    problems = []
    if not m.worlds:
        problems.append("worlds is empty")
    for a, pairs in m.relations.items():
        if a not in m.agents:
            problems.append(f"relation for unknown agent {a!r}")
        for (w, v) in pairs:
            for x in (w, v):
                if x not in m.worlds:
                    problems.append(f"relation pair ({w!r},{v!r}) of agent {a!r} mentions unknown world {x!r}")
    for p, ws in m.valuation.items():
        if p not in m.atoms:
            problems.append(f"valuation for atom {p!r} outside the model's atom set")
        for w in ws:
            if w not in m.worlds:
                problems.append(f"valuation of {p!r} contains unknown world {w!r}")
    for p in m.atoms:
        if p not in m.valuation:
            problems.append(f"no valuation for atom {p!r}")
    return problems


def well_formed(model, name):
    """The model, refused with its first problem unless it is well formed."""
    if problems := model.problems():
        raise ValueError(f"{name} is not well formed: {problems[0]}")
    return model


def restrict(m: KripkeModel, X) -> RestrictedModel:
    X = frozenset(X)
    extra = X - m.atoms
    if extra:
        raise ValueError(f"restriction atoms {sorted(extra)} not in the model")
    return RestrictedModel(m, X)


def relation_properties(m: KripkeModel):
    """Exhaustive per-agent reflexive/transitive/symmetric/equivalence flags."""
    out = {}
    worlds = m.worlds
    for a in sorted(m.agents):
        rel = m.relations.get(a, frozenset())
        reflexive = all((w, w) in rel for w in worlds)
        symmetric = all((v, w) in rel for (w, v) in rel)
        transitive = all((w, u) in rel for (w, v) in rel for (v2, u) in rel if v2 == v)
        out[a] = {"reflexive": reflexive, "symmetric": symmetric, "transitive": transitive,
                  "equivalence": reflexive and symmetric and transitive}
    return out
