"""State-space lattices with projections and possibility correspondences,
events and their algebra, and the three-valued semantics over them.

A frame holds disjoint state spaces ordered by expressiveness, surjective
commuting projections between comparable spaces, and one possibility
correspondence per agent. Events are pairs (base set, base space); their
upward closure is computed on demand, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import (
    And,
    Atom,
    Formula,
    Know,
    Lang,
    Not,
    Top,
    atoms_of,
    in_language,
    require_signature,
)
from .klm import PropertyReport
from .kripke import members
from .truth import Truth

MAX_FRAME_STATES = 10_000


class FrameDefect(ValueError):
    """An event-algebra assertion failed; the frame is not well formed."""


@dataclass(frozen=True)
class Event:
    """An event (D, S): base set D inside its base space S. The empty event is
    legal and keeps its space tag."""

    base_space: str
    base_set: frozenset

    @classmethod
    def make(cls, base_space, base_set):
        return cls(base_space, frozenset(base_set))


class UnawarenessFrame:
    def __init__(self, spaces, order, projections, pi):
        """`order` lists generating pairs (lower, upper); the reflexive
        transitive closure is taken here. `projections` maps (upper, lower)
        pairs to state maps; missing comparable pairs are filled in by
        composition where possible."""
        self.spaces = {S: frozenset(states) for S, states in spaces.items()}
        self.pi = {a: {s: frozenset(ts) for s, ts in per.items()} for a, per in pi.items()}
        self.agents = frozenset(self.pi)
        self.state_space = {}
        for S, states in self.spaces.items():
            for s in states:
                self.state_space[s] = S

        # reflexive-transitive closure of the generating order
        leq = {(S, S) for S in self.spaces}
        leq.update((lo, up) for (lo, up) in order)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(leq):
                for (c, d) in list(leq):
                    if b == c and (a, d) not in leq:
                        leq.add((a, d))
                        changed = True
        self.leq = leq

        maps = {(S, S): {s: s for s in states} for S, states in self.spaces.items()}
        for (up, lo), m in projections.items():
            maps[(up, lo)] = dict(m)
        # fill in missing comparable pairs by composing available maps
        changed = True
        while changed:
            changed = False
            for (lo, up) in self.leq:
                if (up, lo) in maps:
                    continue
                for mid in self.spaces:
                    if (lo, mid) in self.leq and (mid, up) in self.leq and \
                            (up, mid) in maps and (mid, lo) in maps:
                        upper_map, lower_map = maps[(up, mid)], maps[(mid, lo)]
                        try:
                            maps[(up, lo)] = {
                                s: lower_map[upper_map[s]] for s in self.spaces[up]
                            }
                        except KeyError:
                            continue
                        changed = True
                        break
        self.maps = maps

    @property
    def states(self):
        return frozenset(self.state_space)

    def below(self, S, T):
        """S is weakly less expressive than T."""
        return (S, T) in self.leq

    def project(self, state, lower):
        upper = self.state_space[state]
        return self.maps[(upper, lower)][state]

    def join(self, S1, S2):
        ubs = [S for S in self.spaces if self.below(S1, S) and self.below(S2, S)]
        least = [S for S in ubs if all(self.below(S, U) for U in ubs)]
        return least[0] if len(least) == 1 else None

    def meet(self, S1, S2):
        lbs = [S for S in self.spaces if self.below(S, S1) and self.below(S, S2)]
        greatest = [S for S in lbs if all(self.below(L, S) for L in lbs)]
        return greatest[0] if len(greatest) == 1 else None

    def top_space(self):
        tops = [S for S in self.spaces if all(self.below(T, S) for T in self.spaces)]
        return tops[0] if len(tops) == 1 else None

    def bottom_space(self):
        bots = [S for S in self.spaces if all(self.below(S, T) for T in self.spaces)]
        return bots[0] if len(bots) == 1 else None

    def upward_closure(self, D, S):
        """All states in weakly more expressive spaces projecting into D."""
        D = frozenset(D)
        if not D <= self.spaces[S]:
            raise ValueError(f"base set is not a subset of space {S!r}")
        out = set()
        for S2 in self.spaces:
            if self.below(S, S2) and (S2, S) in self.maps:
                m = self.maps[(S2, S)]
                out.update(s for s in self.spaces[S2] if m.get(s) in D)
        return frozenset(out)

    def up(self, e: Event):
        return self.upward_closure(e.base_set, e.base_space)


def validate_frame(f: UnawarenessFrame) -> PropertyReport:
    """Exhaustive well-formedness report: lattice laws, projection laws, and
    the five possibility-correspondence properties, each with a witness."""
    if len(f.state_space) > MAX_FRAME_STATES:
        raise ValueError(f"frame has {len(f.state_space)} states (limit {MAX_FRAME_STATES})")
    report = PropertyReport()
    _check_lattice(f, report)
    _check_projections(f, report)
    _check_pi(f, report)
    return report


def _check_lattice(f, report):
    spaces = list(f.spaces)
    seen = {}
    for S, states in f.spaces.items():
        if not states:
            report.record("lattice", ("empty space", S))
        for s in states:
            if s in seen and seen[s] != S:
                report.record("lattice", ("states shared by spaces", s, seen[s], S))
            seen[s] = S
    for S in spaces:
        for S2 in spaces:
            if S != S2 and f.below(S, S2) and f.below(S2, S):
                report.record("lattice", ("antisymmetry", S, S2))
            if f.below(S, S2) and len(f.spaces[S]) > len(f.spaces[S2]):
                report.record("lattice", ("cardinality not monotone", S, S2))
            if f.join(S, S2) is None:
                report.record("lattice", ("no unique join", S, S2))
            if f.meet(S, S2) is None:
                report.record("lattice", ("no unique meet", S, S2))
    if f.top_space() is None:
        report.record("lattice", ("no top space",))
    if f.bottom_space() is None:
        report.record("lattice", ("no bottom space",))
    report.record("lattice")


def _check_projections(f, report):
    for (lo, up) in f.leq:
        m = f.maps.get((up, lo))
        if m is None:
            report.record("projections", ("missing projection", up, lo))
            continue
        if set(m) != set(f.spaces[up]):
            report.record("projections", ("not total", up, lo))
            continue
        if not set(m.values()) <= set(f.spaces[lo]):
            report.record("projections", ("image outside target space", up, lo))
            continue
        if set(m.values()) != set(f.spaces[lo]):
            report.record("projections", ("not surjective", up, lo))
        if lo == up and any(m[s] != s for s in f.spaces[up]):
            report.record("projections", ("identity projection is not identity", up))
    for S in f.spaces:
        for S1 in f.spaces:
            for S2 in f.spaces:
                if f.below(S, S1) and f.below(S1, S2):
                    direct = f.maps.get((S2, S))
                    via = f.maps.get((S2, S1))
                    low = f.maps.get((S1, S))
                    if direct is None or via is None or low is None:
                        continue
                    for s in f.spaces[S2]:
                        if direct[s] != low[via[s]]:
                            report.record("projections", ("non-commuting", S2, S1, S, s))
                            break
    report.record("projections")


def _check_pi(f, report):
    for a in sorted(f.agents):
        per = f.pi[a]
        for s in f.state_space:
            if s not in per:
                report.record("Conf", ("pi not total", a, s))
    for a in sorted(f.agents):
        per = f.pi[a]
        for w, cell in sorted(per.items()):
            Sw = f.state_space[w]
            targets = {f.state_space[t] for t in cell}
            if len(targets) != 1:
                report.record("Conf", (a, w, "cell straddles spaces", sorted(targets)))
                continue
            S = targets.pop()
            if not f.below(S, Sw):
                report.record("Conf", (a, w, "cell not weakly below", S, Sw))
                continue
            report.record("Conf")
            # Gref: w is in the upward closure of its own cell
            if w in f.upward_closure(cell, S):
                report.record("Gref")
            else:
                report.record("Gref", (a, w))
            # Stat: every considered state shares the cell
            for t in cell:
                if per.get(t) != cell:
                    report.record("Stat", (a, w, t))
                    break
            else:
                report.record("Stat")
        # PPI and PPK quantify over projections of states
        for w in sorted(f.state_space):
            Sw = f.state_space[w]
            cell = per.get(w)
            if cell is None:
                continue
            for S in f.spaces:
                if not f.below(S, Sw):
                    continue
                down = f.project(w, S)
                cell_down = per.get(down)
                if cell_down is None:
                    continue
                Scell = {f.state_space[t] for t in cell}
                Sdown = {f.state_space[t] for t in cell_down}
                if len(Scell) != 1 or len(Sdown) != 1:
                    continue  # Conf already failed
                up_w = f.upward_closure(cell, Scell.pop())
                up_down = f.upward_closure(cell_down, next(iter(Sdown)))
                if up_w <= up_down:
                    report.record("PPI")
                else:
                    report.record("PPI", (a, w, S))
            # PPK: S <= S' <= S'', w in S'', cell in S'
            Scell = {f.state_space[t] for t in cell}
            if len(Scell) != 1:
                continue
            Sp = Scell.pop()
            for S in f.spaces:
                if not f.below(S, Sp):
                    continue
                projected_cell = frozenset(f.project(t, S) for t in cell)
                down_cell = per.get(f.project(w, S))
                if down_cell is None:
                    continue
                if projected_cell == down_cell:
                    report.record("PPK")
                else:
                    report.record("PPK", (a, w, Sp, S))
    for name in ("Conf", "Gref", "Stat", "PPI", "PPK"):
        report.record(name)


# ---------------------------------------------------------------------------
# event algebra


def event_neg(f: UnawarenessFrame, e: Event) -> Event:
    return Event(e.base_space, f.spaces[e.base_space] - e.base_set)


def event_and(f: UnawarenessFrame, events) -> Event:
    events = list(events)
    if not events:
        raise ValueError("conjunction of no events")
    space = events[0].base_space
    for e in events[1:]:
        space = f.join(space, e.base_space)
        if space is None:
            raise FrameDefect("join of base spaces undefined")
    ups = [f.up(e) for e in events]
    inter = frozenset.intersection(*ups)
    base = inter & f.spaces[space]
    if f.upward_closure(base, space) != inter:
        raise FrameDefect("intersection of up-closures is not an event at the join space")
    return Event(space, base)


def _up_set_event(f, raw, space, what):
    base = raw & f.spaces[space]
    if f.upward_closure(base, space) != raw:
        raise FrameDefect(f"{what} set is not an up-set based at {space!r}")
    return Event(space, base)


def event_know(f: UnawarenessFrame, agent, e: Event) -> Event:
    """The event that the agent knows e: states whose cell sits inside e's
    up-closure, based at e's space."""
    up = f.up(e)
    raw = frozenset(w for w in f.state_space if f.pi[agent][w] <= up)
    return _up_set_event(f, raw, e.base_space, "knowledge")


def event_aware(f: UnawarenessFrame, agent, e: Event) -> Event:
    """The event that the agent is aware of e: states whose cell sits weakly
    above e's base space."""
    expressible = f.upward_closure(f.spaces[e.base_space], e.base_space)
    raw = frozenset(w for w in f.state_space if f.pi[agent][w] <= expressible)
    return _up_set_event(f, raw, e.base_space, "awareness")


# ---------------------------------------------------------------------------
# models and satisfaction


@dataclass(frozen=True)
class HMSModel:
    frame: UnawarenessFrame
    valuation: dict  # atom -> Event

    @property
    def atoms(self):
        return frozenset(self.valuation)


def validate_model(m: HMSModel) -> PropertyReport:
    report = validate_frame(m.frame)
    for p, e in m.valuation.items():
        if e.base_space not in m.frame.spaces:
            report.record("valuation", (p, "unknown base space", e.base_space))
        elif not e.base_set <= m.frame.spaces[e.base_space]:
            report.record("valuation", (p, "base set outside base space"))
    report.record("valuation")
    return report


def defined_atoms(m: HMSModel, O) -> frozenset:
    """Atoms with a defined truth value throughout the state set O."""
    O = frozenset(O)
    out = set()
    for p, e in m.valuation.items():
        defined = m.frame.up(e) | m.frame.up(event_neg(m.frame, e))
        if O <= defined:
            out.add(p)
    return frozenset(out)


class DenotationEvaluator:
    """Compositional event-denotation evaluator with a per-instance memo.

    Denotations are events of the frame's algebra. Truth, falsity and
    per-atom definedness are read off them as bitmasks over the sorted
    states: True where the denotation's up-closure holds the state, False
    where its negation's does.
    """

    def __init__(self, m: HMSModel):
        self.m = m
        self.states = sorted(m.frame.state_space)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self._den = {}
        self._up = {}
        self._masks = {}

    def denotation(self, f: Formula) -> Event:
        got = self._den.get(f)
        if got is None:
            got = self._denote(f)
            self._den[f] = got
        return got

    def _denote(self, f):
        m, fr = self.m, self.m.frame
        if isinstance(f, Top):
            bottom = fr.bottom_space()
            if bottom is None:
                raise FrameDefect("frame has no bottom space")
            return Event(bottom, fr.spaces[bottom])
        if isinstance(f, Atom):
            try:
                return m.valuation[f.name]
            except KeyError:
                raise KeyError(f"atom {f.name!r} has no valuation") from None
        if isinstance(f, Not):
            return event_neg(fr, self.denotation(f.child))
        if isinstance(f, And):
            return event_and(fr, [self.denotation(f.left), self.denotation(f.right)])
        if isinstance(f, Know):
            return event_know(fr, f.agent, self.denotation(f.child))
        raise ValueError(f"{type(f).__name__} is not an explicit-knowledge grammar node")

    def _up_mask(self, e: Event) -> int:
        got = self._up.get(e)
        if got is None:
            index = self.index
            got = sum(1 << index[s] for s in self.m.frame.up(e))
            self._up[e] = got
        return got

    def _truth(self, f):
        """(True mask, False mask) of f."""
        got = self._masks.get(f)
        if got is None:
            e = self.denotation(f)
            got = self._up_mask(e), self._up_mask(event_neg(self.m.frame, e))
            self._masks[f] = got
        return got

    def true_mask(self, f: Formula) -> int:
        return self._truth(f)[0]

    def defined_mask(self, atoms) -> int:
        """States where every atom of the set has a truth value; an atom
        without valuation has none anywhere."""
        out = self.full
        for p in atoms:
            if p not in self.m.valuation:
                return 0
            true, false = self._truth(Atom(p))
            out &= true | false
        return out

    def value(self, f: Formula, state) -> Truth:
        i = self.index[state]
        true, false = self._truth(f)
        if (true >> i) & 1:
            return Truth.TRUE
        if (false >> i) & 1:
            return Truth.FALSE
        return Truth.UNDEFINED

    def check(self, g: Formula):
        """Guarded validity of g: True wherever its atoms are defined;
        the failing states in sorted order."""
        defined = self.defined_mask(atoms_of(g))
        bad = defined & ~self.true_mask(g) if defined else 0
        if not bad:
            return True, []
        return False, members(bad, self.states)


def denotation(m: HMSModel, f: Formula) -> Event:
    if not in_language(f, Lang.L):
        raise ValueError("HMS denotation is defined for the explicit-knowledge language")
    return DenotationEvaluator(m).denotation(f)


def eval_L_hms(m: HMSModel, state, f: Formula, evaluator=None) -> Truth:
    """True iff the state is in the denotation's up-closure, False iff in the
    negation's, Undefined otherwise."""
    if state not in m.frame.state_space:
        raise KeyError(f"unknown state {state!r}")
    require_signature(f, m.atoms, m.frame.agents)
    ev = evaluator or DenotationEvaluator(m)
    return ev.value(f, state)
