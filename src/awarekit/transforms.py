"""The four constructive transformations between the model classes, plus the
state correspondence that aligns states of a space-lattice model with world
copies of its lattice-of-restrictions counterpart.
"""

from __future__ import annotations

from .hms import (DenotationEvaluator, Event, HMSModel, UnawarenessFrame, defined_atoms,
                  validate_model)
from .klm import KripkeLatticeModel, _check_cap, subsets
from .kripke import KripkeModel, WorldId, relation_properties, well_formed
from .values import Frozen


class StateCorrespondence(Frozen):
    """For each state s, the world copies w_X with w any top-space state
    projecting to s and X the atoms defined throughout s's space."""

    _fields = ("mapping",)

    def __init__(self, mapping: dict):
        object.__setattr__(self, "mapping", mapping)  # state -> frozenset of WorldId

    def __getitem__(self, state):
        return self.mapping[state]


class TransformReport(Frozen):
    _fields = ("output", "properties", "correspondence")

    def __init__(self, output, properties, correspondence: StateCorrespondence | None = None):
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "properties", properties)
        object.__setattr__(self, "correspondence", correspondence)


# ---------------------------------------------------------------------------
# L-transform: space lattice to restriction lattice


def _min_space_for(m, at_of, X):
    """min{S : At(S) = X}, or None if no space realizes X; an ambiguity (two
    incomparable minimal candidates) is refused."""
    candidates = [S for S, ats in at_of.items() if ats == X]
    if not candidates:
        return None
    minimal = [S for S in candidates
               if not any(T != S and m.frame.below(T, S) for T in candidates)]
    if len(minimal) > 1:
        raise ValueError(f"ambiguous minimal space for atom set {sorted(X)}: "
                         f"candidates {sorted(minimal)}")
    return minimal[0]


def _cell_space(m, cell):
    spaces = m.frame.cell_spaces(cell)
    if len(spaces) != 1:
        raise ValueError(f"possibility set straddles spaces {spaces}")
    return spaces[0]


def l_transform(m: HMSModel):
    """Build the lattice-of-restrictions model over the top space.

    The awareness map is computed pointwise at every vocabulary realized by
    some space and extended to unrealized vocabularies by the No-Surprises
    product form from the full-vocabulary value; the two agree wherever both
    are defined, which is asserted.
    """
    fr = m.frame
    T = fr.top_space()
    if T is None:
        raise ValueError("frame has no unique top space")
    ev = DenotationEvaluator(m)
    at_of = {S: defined_atoms(m, states, ev) for S, states in fr.spaces.items()}
    atoms = frozenset(m.atoms)
    if _min_space_for(m, at_of, atoms) is None:
        raise ValueError("no space realizes the full atom set")

    worlds = frozenset(fr.spaces[T])
    relations = {}
    for a in sorted(fr.agents):
        fr.possibility_cells(a)  # refuses a correspondence that is not total
        pairs = set()
        for w in worlds:
            cell = fr.pi[a][w]
            S = _cell_space(m, cell)
            for v in worlds:
                if fr.maps[(T, S)][v] in cell:
                    pairs.add((w, v))
        relations[a] = frozenset(pairs)

    valuation = {p: worlds & fr.up(m.valuation[p]) for p in atoms}

    base = KripkeModel.make(atoms, fr.agents, worlds, relations, valuation)

    # pointwise awareness at realized vocabularies
    realized = {}
    for X in sorted(set(at_of.values()), key=lambda X: (len(X), sorted(X))):
        S_X = _min_space_for(m, at_of, X)
        if S_X is not None:
            realized[X] = S_X
    awareness = {}
    pointwise = {a: {} for a in fr.agents}
    for a in sorted(fr.agents):
        for w in sorted(worlds):
            for X, S_X in realized.items():
                down = fr.maps[(T, S_X)][w]
                cell = fr.pi[a][down]
                S_Y = _cell_space(m, cell)
                pointwise[a][WorldId(w, X)] = WorldId(w, at_of[S_Y])
        awareness[a] = {
            w: pointwise[a][WorldId(w, atoms)].vocabulary for w in worlds
        }
        # the product form must agree with the pointwise map where both exist
        for src, img in pointwise[a].items():
            product = WorldId(src.base, src.vocabulary & awareness[a][src.base])
            if product != img:
                raise ValueError(
                    f"awareness map is not No-Surprises extendable: "
                    f"{src} maps to {img}, product form gives {product}"
                )

    klm = well_formed(KripkeLatticeModel.make(base, awareness), "transform output")

    mapping = {}
    for s, S in fr.state_space.items():
        X = at_of[S]
        preimage = frozenset(w for w in worlds if fr.maps[(T, S)][w] == s)
        mapping[s] = frozenset(WorldId(w, X) for w in preimage)
    return klm, StateCorrespondence(mapping)


# ---------------------------------------------------------------------------
# H-transform: restriction lattice to space lattice


def space_id(X) -> str:
    return "W@{" + ",".join(sorted(X)) + "}"


def h_transform(k: KripkeLatticeModel) -> HMSModel:
    """One space per restriction, ordered by vocabulary inclusion, with
    projections dropping atoms and possibility sets the information cells of
    the awareness images."""
    return _h_transform(k)[0]


def _require_partitional(k):
    for a, flags in relation_properties(k.base).items():
        if not flags["equivalence"]:
            raise ValueError(f"relation of agent {a!r} is not an equivalence relation")


def _h_transform(k):
    """The H-transform output with the frame-check report that vouches for it."""
    well_formed(k, "input")
    _require_partitional(k)
    _check_cap(k.base.atoms)

    atoms, worlds = k.base.atoms, sorted(k.base.worlds)
    vocabularies = subsets(atoms)
    # every state name w@{X} and space name formatted once
    space = {X: space_id(X) for X in vocabularies}
    name = {X: {w: str(WorldId(w, X)) for w in worlds} for X in vocabularies}
    spaces = {space[X]: list(name[X].values()) for X in vocabularies}
    below = [(X, Y) for X in vocabularies for Y in vocabularies if X < Y]
    order = [(space[X], space[Y]) for X, Y in below]
    projections = {(space[Y], space[X]): {name[Y][w]: name[X][w] for w in worlds}
                   for X, Y in below}
    pi = {}
    for a in sorted(k.base.agents):
        per = pi[a] = {}
        for w in worlds:
            aware, cell = k.awareness_atoms(a, w), k.base.successors(a, w)
            for X in vocabularies:
                per[name[X][w]] = [name[X & aware][v] for v in cell]
    frame = UnawarenessFrame(spaces, order, projections, pi)
    valuation = {}
    for p in atoms:
        X = frozenset((p,))
        valuation[p] = Event.make(space[X], (name[X][w] for w in k.base.valuation[p]))
    out = HMSModel(frame, valuation)
    report = validate_model(out)
    if not report.all_pass():
        failed = [n for n, ok in report.passed.items() if not ok]
        raise ValueError(f"transform output fails frame checks: {failed}")
    return out, report


# ---------------------------------------------------------------------------
# K-transform and FH-transform: between awareness structures and the lattice


def k_transform(s) -> KripkeLatticeModel:
    """Read off an awareness assignment from the atoms mentioned across each
    awareness set of an awareness structure; requires awareness constant
    along the relations."""
    from .fh import check_ka

    ok, witnesses = check_ka(s)
    if not ok:
        raise ValueError(f"awareness is not constant along the relations: witness {witnesses[0]}")
    awareness = {
        a: {w: s.awareness[a][w].atoms & s.base.atoms
            for w in s.base.worlds}
        for a in s.base.agents
    }
    return well_formed(KripkeLatticeModel.make(s.base, awareness), "transform output")


def fh_transform(k: KripkeLatticeModel):
    """The awareness structure with atom-generated awareness sets from the
    top-level awareness atoms."""
    from .fh import AtomGenerated, FHModel

    well_formed(k, "input")
    awareness = {
        a: {w: AtomGenerated.make(k.awareness_atoms(a, w) & k.base.atoms)
            for w in k.base.worlds}
        for a in k.base.agents
    }
    return FHModel.make(k.base, awareness)


_NAMED = {"hms": "a space-lattice model", "klm": "a Kripke lattice model",
          "fh": "an awareness structure", "kripke": "a plain Kripke model"}
_TAKES = {"L": "hms", "H": "klm", "K": "fh", "FH": "klm"}


def transform(kind: str, model) -> TransformReport:
    """Dispatch on the transform kind and bundle the output with the property
    report of its class."""
    if kind not in _TAKES:
        raise ValueError(f"unknown transform kind {kind!r}")
    takes, given = _TAKES[kind], getattr(type(model), "kind", None)
    if given != takes:
        raise TypeError(f"transform {kind} takes {_NAMED[takes]}, "
                        f"not {_NAMED.get(given, type(model).__name__)}")
    if kind == "H":  # the frame report that vouches for the output
        return TransformReport(*_h_transform(model))
    if kind == "L":
        out, corr = l_transform(model)
        return TransformReport(out, out.properties(), corr)
    out = (k_transform if kind == "K" else fh_transform)(model)
    return TransformReport(out, out.properties())
