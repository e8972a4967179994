"""State-space lattices with projections and possibility correspondences,
events and their algebra, and the three-valued semantics over them.

A frame holds disjoint state spaces ordered by expressiveness, surjective
commuting projections between comparable spaces, and one possibility
correspondence per agent. Events are pairs (base set, base space). States are
indexed as bits: an event's upward closure is the OR of per-state lift masks,
and knowledge is `kripke.box`, as in the other model classes.
"""

from __future__ import annotations

from .formula import Formula, Lang, fold, in_language
from .kripke import Filled, PropertyReport, box, group_cells, members, relabel
from .truth import MaskEvaluator
from .values import Frozen

MAX_FRAME_STATES = 10_000


class FrameDefect(ValueError):
    """An event-algebra assertion failed; the frame is not well formed."""


class Event(Frozen):
    """An event (D, S): base set D inside its base space S. The empty event is
    legal and keeps its space tag."""

    _fields = ("base_space", "base_set")

    def __init__(self, base_space: str, base_set: frozenset):
        object.__setattr__(self, "base_space", base_space)
        object.__setattr__(self, "base_set", base_set)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base_space, self.base_set) == (other.base_space, other.base_set)
        return NotImplemented

    def __hash__(self):
        return hash((self.base_space, self.base_set))

    @classmethod
    def make(cls, base_space, base_set):
        return cls(base_space, frozenset(base_set))


class UnawarenessFrame:
    def __init__(self, spaces, order, projections, pi):
        """`order` lists generating pairs (lower, upper); the reflexive
        transitive closure is taken here. `projections` maps (upper, lower)
        pairs to state maps; missing comparable pairs are filled in by
        composition where possible. Indexed here: a bit per state, the spaces
        above and below each space as masks and lists, and each state's lift."""
        self.spaces = {S: frozenset(states) for S, states in spaces.items()}
        self.state_space = {s: S for S, states in self.spaces.items() for s in states}
        # refused before the order is closed, which takes time quadratic in the spaces
        for what, n in ("states", len(self.state_space)), ("spaces", len(self.spaces)):
            if n > MAX_FRAME_STATES:
                raise ValueError(f"frame has {n} {what} (limit {MAX_FRAME_STATES})")
        self.pi = {a: {s: frozenset(ts) for s, ts in per.items()} for a, per in pi.items()}
        self.agents = frozenset(self.pi)
        order = [(lo, hi) for lo, hi in order]
        names = list(self.spaces)
        unknown = {S for pair in [*order, *projections] for S in pair} - self.spaces.keys()
        unknown |= {t for per in self.pi.values() for s, ts in per.items() for t in (s, *ts)
                    if t not in self.state_space}
        if unknown:
            raise ValueError(f"order, projections or pi name unknown {sorted(unknown)}")
        self.states = sorted(self.state_space)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self.space_mask = {S: self.mask(states) for S, states in self.spaces.items()}
        # possibility sets grouped for kripke.box, for each agent with total pi
        masks = Filled(self.mask)
        self.cells = {a: group_cells([masks[per[s]] for s in self.states])
                      for a, per in self.pi.items() if per.keys() >= self.state_space.keys()}

        # the order: bit rows over the spaces, closed by Warshall
        bit = {S: 1 << i for i, S in enumerate(names)}
        up = {S: bit[S] for S in names}
        for lo, hi in order:
            up[lo] |= bit[hi]
        for k in names:
            for S in names:
                if up[S] & bit[k]:
                    up[S] |= up[k]
        self.up_set = up
        self.spaces_above = {S: members(up[S], names) for S in names}
        self.leq = {(S, T) for S in names for T in self.spaces_above[S]}
        self.down_set = dict.fromkeys(names, 0)
        for S, T in self.leq:
            self.down_set[T] |= bit[S]
        self.spaces_below = {S: members(self.down_set[S], names) for S in names}
        self._by_up, self._by_down = {}, {}
        for S in names:
            self._by_up.setdefault(up[S], []).append(S)
            self._by_down.setdefault(self.down_set[S], []).append(S)

        maps = {(S, S): {s: s for s in states} for S, states in self.spaces.items()}
        maps.update(((hi, lo), dict(m)) for (hi, lo), m in projections.items())
        # compose each missing map through a space in between, shorter
        # intervals first so that the maps to compose are in place
        missing = [(lo, hi) for (lo, hi) in self.leq if (hi, lo) not in maps]
        missing.sort(key=lambda p: (up[p[0]] & self.down_set[p[1]]).bit_count())
        for lo, hi in missing:
            for mid in members(up[lo] & self.down_set[hi] & ~bit[lo] & ~bit[hi], names):
                if (hi, mid) in maps and (mid, lo) in maps:
                    upper, lower = maps[(hi, mid)], maps[(mid, lo)]
                    try:
                        maps[(hi, lo)] = {s: lower[upper[s]] for s in self.spaces[hi]}
                        break
                    except KeyError:
                        pass
        self.maps = maps

        self._lift = {S: {} for S in names}  # S -> bit of t -> states lifting t
        for (S, T) in self.leq:
            lift, own, m = self._lift[S], self.spaces[S], maps.get((T, S), {})
            for s in self.spaces[T]:
                t = m.get(s)
                if t in own:
                    b = 1 << self.index[t]
                    lift[b] = lift.get(b, 0) | 1 << self.index[s]

    def below(self, S, T):
        """S is weakly less expressive than T."""
        return (S, T) in self.leq

    def project(self, state, lower):
        return self.maps[(self.state_space[state], lower)][state]

    @staticmethod
    def _only(by_set, mask):
        """The least (greatest) element of a set of spaces, given as a mask,
        read off the up-sets (down-sets): the one space with that row."""
        hits = by_set.get(mask, ())
        return hits[0] if len(hits) == 1 else None

    def join(self, S1, S2):
        return self._only(self._by_up, self.up_set.get(S1, 0) & self.up_set.get(S2, 0))

    def meet(self, S1, S2):
        return self._only(self._by_down, self.down_set.get(S1, 0) & self.down_set.get(S2, 0))

    def top_space(self):
        return self._only(self._by_down, (1 << len(self.spaces)) - 1)

    def bottom_space(self):
        return self._only(self._by_up, (1 << len(self.spaces)) - 1)

    def mask(self, states) -> int:
        return sum(1 << i for i in {self.index[s] for s in states})

    def lift(self, base: int, S) -> int:
        """The upward closure of the states of space S in the mask `base`."""
        return relabel(base, self._lift[S])

    def up_mask(self, e: Event) -> int:
        """The upward closure of an event, as a mask."""
        S = e.base_space
        if not e.base_set <= self.spaces[S]:
            raise ValueError(f"base set is not a subset of space {S!r}")
        return self.lift(self.mask(e.base_set), S)

    def upward_closure(self, D, S):
        """All states in weakly more expressive spaces projecting into D."""
        return frozenset(members(self.up_mask(Event.make(S, D)), self.states))

    def up(self, e: Event):
        return self.upward_closure(e.base_set, e.base_space)

    def possibility_cells(self, agent):
        """The agent's possibility sets grouped for kripke.box, refused unless
        every state has one."""
        if agent not in self.cells:
            missing = next(s for s in self.states if s not in self.pi.get(agent, ()))
            raise ValueError(f"agent {agent!r} has no possibility set at state {missing!r}")
        return self.cells[agent]

    def cell_spaces(self, cell):
        """The spaces of a possibility set's states, sorted; one if well formed."""
        return sorted({self.state_space[t] for t in cell})


def validate_frame(f: UnawarenessFrame) -> PropertyReport:
    """Exhaustive well-formedness report: lattice laws, projection laws, and
    the five possibility-correspondence properties, each with a witness, the
    first failing instance in a fixed order."""
    report = PropertyReport()
    _check_lattice(f, report)
    _check_projections(f, report)
    _check_pi(f, report)
    return report


def _check_lattice(f, report):
    seen = {}
    for S, states in f.spaces.items():
        if not states:
            report.record("lattice", ("empty space", S))
        for s in sorted(states):
            if s in seen and seen[s] != S:
                report.record("lattice", ("states shared by spaces", s, seen[s], S))
            seen[s] = S
    # S <= S2 where S's up row holds S2's bit; a join (meet) is the one space
    # whose up (down) row is the AND of the two rows
    up, down, by_up, by_down = f.up_set, f.down_set, f._by_up, f._by_down
    bit = {S: 1 << i for i, S in enumerate(f.spaces)}
    size = {S: len(states) for S, states in f.spaces.items()}
    for S in f.spaces:
        for S2 in f.spaces:
            if up[S] & bit[S2]:
                if S != S2 and up[S2] & bit[S]:
                    report.record("lattice", ("antisymmetry", S, S2))
                if size[S] > size[S2]:
                    report.record("lattice", ("cardinality not monotone", S, S2))
            if len(by_up.get(up[S] & up[S2], ())) != 1:
                report.record("lattice", ("no unique join", S, S2))
            if len(by_down.get(down[S] & down[S2], ())) != 1:
                report.record("lattice", ("no unique meet", S, S2))
    if f.top_space() is None:
        report.record("lattice", ("no top space",))
    if f.bottom_space() is None:
        report.record("lattice", ("no bottom space",))
    report.record("lattice")


def _check_projections(f, report):
    total = {}  # the maps that are total into their target space
    for (lo, up) in sorted(f.leq):
        m = f.maps.get((up, lo))
        if m is None:
            report.record("projections", ("missing projection", up, lo))
            continue
        if m.keys() != f.spaces[up]:
            report.record("projections", ("not total", up, lo))
            continue
        image = set(m.values())
        if not image <= f.spaces[lo]:
            report.record("projections", ("image outside target space", up, lo))
            continue
        total[(up, lo)] = m
        if image != f.spaces[lo]:
            report.record("projections", ("not surjective", up, lo))
        if lo == up and any(m[s] != s for s in f.spaces[up]):
            report.record("projections", ("identity projection is not identity", up))
    # S < S1 < S2: a chain through an identity map commutes unless that map is
    # no identity, which is reported above
    for S in f.spaces:
        for S1 in f.spaces_above[S]:
            low = total.get((S1, S))
            if S1 == S or low is None:
                continue
            for S2 in f.spaces_above[S1]:
                direct, via = total.get((S2, S)), total.get((S2, S1))
                if S2 == S1 or direct is None or via is None:
                    continue
                if {s: low[t] for s, t in via.items()} != direct:
                    s = min(s for s in f.spaces[S2] if direct[s] != low[via[s]])
                    report.record("projections", ("non-commuting", S2, S1, S, s))
    report.record("projections")


def _cells(f, per):
    """One agent's possibility sets by state, each distinct cell read once as
    (cell, its spaces, its up-closure or 0 unless it lies in one space,
    whether every state in it has it as possibility set, its projection to
    a space on first use, holding None where a map is missing)."""
    seen, out = {}, {}
    for w, cell in per.items():
        got = seen.get(cell)
        if got is None:
            spaces = f.cell_spaces(cell)
            got = seen[cell] = (
                cell, spaces, f.lift(f.mask(cell), spaces[0]) if len(spaces) == 1 else 0,
                all(per.get(t) == cell for t in cell),
                Filled(lambda S, cell=cell: frozenset(_projection(f, t, S) for t in cell)))
        out[w] = got
    return out


def _projection(f, state, lower):
    """The state's projection to `lower`; None where the map is missing or not
    total, which the projections check reports."""
    return f.maps.get((f.state_space[state], lower), {}).get(state)


def _check_pi(f, report):
    for a in sorted(f.agents):
        per = f.pi[a]
        for s in f.states:
            if s not in per:
                report.record("Conf", ("pi not total", a, s))
    recorded = report.passed  # a passing instance of a recorded check adds nothing
    # each space's maps to the spaces below it
    down = {Sw: [(S, f.maps.get((Sw, S), {})) for S in f.spaces_below[Sw]] for Sw in f.spaces}
    for a in sorted(f.agents):
        per = f.pi[a]
        cells = _cells(f, per)
        for w, cell in sorted(per.items()):
            Sw, (_, targets, up, stat, _) = f.state_space[w], cells[w]
            if len(targets) != 1:
                report.record("Conf", (a, w, "cell straddles spaces", targets))
                continue
            S = targets[0]
            if not f.below(S, Sw):
                report.record("Conf", (a, w, "cell not weakly below", S, Sw))
                continue
            report.record("Conf")
            # Gref: w is in the upward closure of its own cell
            report.record("Gref", None if up >> f.index[w] & 1 else (a, w))
            # Stat: every considered state shares the cell
            report.record("Stat", None if stat else
                          (a, w, min(t for t in cell if per.get(t) != cell)))
        # PPI and PPK quantify over projections of states
        for w in f.states:
            got = cells.get(w)
            if got is None:
                continue
            _, Scell, up, _, projected = got
            if len(Scell) != 1:
                continue  # Conf already failed
            for S, m in down[f.state_space[w]]:
                below = cells.get(m.get(w))
                if below is None or len(below[1]) != 1:
                    continue
                if up & ~below[2]:
                    report.record("PPI", (a, w, S))
                elif "PPI" not in recorded:
                    report.record("PPI")
            # PPK: S <= S' <= S'', w in S'', cell in S'
            for S in f.spaces_below[Scell[0]]:
                cell_down = per.get(_projection(f, w, S))
                if cell_down is None or None in projected[S]:
                    continue
                if projected[S] != cell_down:
                    report.record("PPK", (a, w, Scell[0], S))
                elif "PPK" not in recorded:
                    report.record("PPK")
    for name in ("Conf", "Gref", "Stat", "PPI", "PPK"):
        report.record(name)


# ---------------------------------------------------------------------------
# event algebra, on (base space, base mask, up-closure mask) triples, for
# DenotationEvaluator


def _based(f, up, space, what):
    """The triple of the event based at `space` whose up-closure is `up`."""
    base = up & f.space_mask[space]
    if f.lift(base, space) != up:
        raise FrameDefect(f"{what} is not an up-set based at {space!r}")
    return space, base, up


def _neg(f, space, base):
    base = f.space_mask[space] & ~base
    return space, base, f.lift(base, space)


def _conj(f, left, right):
    """The conjunction of two events: based at the join of their spaces, with
    the intersection of their up-closures."""
    space = f.join(left[0], right[0])
    if space is None:
        raise FrameDefect("join of base spaces undefined")
    return _based(f, left[2] & right[2], space, "intersection of up-closures")


# ---------------------------------------------------------------------------
# models and satisfaction


class HMSModel(Frozen):
    kind = "hms"  # the model file kind, on which modelio, cli and transforms dispatch
    _fields = ("frame", "valuation")

    def __init__(self, frame: UnawarenessFrame, valuation: dict):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "valuation", valuation)  # atom -> Event

    @property
    def atoms(self):
        return frozenset(self.valuation)

    @property
    def signature(self):
        return self.atoms, self.frame.agents

    def problems(self):
        return []  # a space lattice is checked by its frame report, properties()

    def properties(self) -> PropertyReport:
        return validate_model(self)

    def evaluator(self, lang: Lang):
        if lang is not Lang.L:
            raise ValueError("space-lattice models only interpret the language L")
        return DenotationEvaluator(self)


def validate_model(m: HMSModel) -> PropertyReport:
    report = validate_frame(m.frame)
    for p, e in m.valuation.items():
        if e.base_space not in m.frame.spaces:
            report.record("valuation", (p, "unknown base space", e.base_space))
        elif not e.base_set <= m.frame.spaces[e.base_space]:
            report.record("valuation", (p, "base set outside base space"))
    report.record("valuation")
    return report


def defined_atoms(m: HMSModel, O, evaluator=None) -> frozenset:
    """Atoms with a defined truth value throughout the state set O: in the
    True or the False mask of the atom, which are disjoint."""
    ev, O = evaluator or DenotationEvaluator(m), m.frame.mask(O)
    return frozenset(p for p in m.valuation if not O & ~sum(ev.masks(ev.atom(p))))


class DenotationEvaluator(MaskEvaluator):
    """Compositional event-denotation evaluator with a per-instance memo.
    A denotation is a (base space, base mask, up-closure mask) triple over the
    frame's states: True where its up-closure holds the state, False where
    its negation's does. `formula.fold` computes it from the event algebra
    below; its language is L, so A and X unfold to knowledge."""

    def __init__(self, m: HMSModel):
        self.m = m
        self.cells = m.frame.cells
        super().__init__(m.frame.states)

    lang = Lang.L

    def denotation(self, f: Formula) -> Event:
        space, base, _ = fold(f, self, self._memo)
        return Event(space, frozenset(members(base, self.states)))

    # the event algebra on triples, for fold
    def top(self):
        bottom = self.m.frame.bottom_space()
        if bottom is None:
            raise FrameDefect("frame has no bottom space")
        return _neg(self.m.frame, bottom, 0)  # the whole bottom space

    def atom(self, p):
        try:
            e = self.m.valuation[p]
        except KeyError:
            raise KeyError(f"atom {p!r} has no valuation") from None
        up = self.m.frame.up_mask(e)
        return e.base_space, up & self.m.frame.space_mask[e.base_space], up

    def neg(self, s):
        return _neg(self.m.frame, s[0], s[1])

    def conj(self, s, t):
        return _conj(self.m.frame, s, t)

    def know(self, agent, s):
        fr = self.m.frame
        return _based(fr, box(fr.possibility_cells(agent), s[2]), s[0], "knowledge set")

    def masks(self, s):
        return s[2], _neg(self.m.frame, s[0], s[1])[2] & ~s[2]


def denotation(m: HMSModel, f: Formula) -> Event:
    if not in_language(f, Lang.L):
        raise ValueError("HMS denotation is defined for the explicit-knowledge language")
    return DenotationEvaluator(m).denotation(f)

