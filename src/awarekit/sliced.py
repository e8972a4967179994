"""The bit-sliced algebra of axiom-suite sweeps (Biham's bit-slicing). Suites
read it on space lattices and awareness structures, a lattice model through
its awareness structure; only `verify.check_axiom_suite` imports it."""

from operator import and_, or_

from .kripke import Filled, members, relabel


class Sliced:
    """An evaluator's algebra over `width` class tuples at once. A value is a
    tuple of ints: one per state, whose bit t says whether tuple t is true
    there, then one per atom (sorted), whose bit t says whether tuple t's
    formula mentions the atom; no int has a bit past `full`. A tuple is
    defined where each atom it mentions is, and aware where the agent is
    aware of each: ¬, K_a and A_a read that from the atom ints, and K_a ANDs
    the rows of each cell, and awareness too where the evaluator's
    `explicit_know` says so (an awareness structure under L). The tables
    come from the evaluator's algebra: per atom p `masks(atom(p))`, per agent
    `cells`, and per agent and atom the true mask of `aware(a, atom(p))` (an
    awareness structure's atom-generated sets; A unfolds under L). On a space
    lattice an atom is defined on the up-closure of its base space, and a
    formula's base space is the join of its atoms' (Heifetz, Meier and
    Schipper 2006). `Sliced(ev, atoms)` builds the tables once per evaluator,
    `over(width)` the algebra over width tuples."""

    def __init__(self, ev, atoms):
        self.n = n = len(ev.states)
        self.atoms = sorted(atoms)
        self.masks = ev.masks
        self.explicit_know = getattr(ev, "explicit_know", False)
        self.atom_masks = {p: ev.masks(ev.atom(p)) for p in self.atoms}  # (True, False)

        def outside(masks):
            """The states grouped by the slots of the atoms whose mask lacks
            them, and a memo of _escapes."""
            groups = {}
            for s in range(n):
                key = tuple(n + i for i, m in enumerate(masks) if not m >> s & 1)
                groups.setdefault(key, []).append(s)
            return list(groups.items()), {}

        self._defined = outside([t | f for t, f in self.atom_masks.values()])
        self._aware = Filled(lambda a: outside([ev.masks(ev.aware(a, ev.atom(p)))[0]
                                                for p in self.atoms]))
        self._cells = {a: [(members(cell, range(n)), members(ms, range(n)))
                           for cell, ms in groups] for a, groups in ev.cells.items()}

    def over(self, width):
        alg = object.__new__(Sliced)
        alg.__dict__.update(self.__dict__, full=(1 << width) - 1)
        return alg

    def classes(self, atom_sets, sigs):
        """The value over one tuple per class: bit c for the class of atom
        set atom_sets[c] and signature sigs[c]."""
        trues = [self.masks(sig)[0] for sig in sigs]
        return (*(sum((t >> s & 1) << c for c, t in enumerate(trues)) for s in range(self.n)),
                *(sum(1 << c for c, at in enumerate(atom_sets) if p in at) for p in self.atoms))

    @staticmethod
    def slots(by_class, C, m):
        """The inputs of m slots over the C ** m tuples of C classes in
        product order (slot 0 the most significant), from the value
        `by_class` of `classes`: slot j holds class c at the tuples whose
        j-th class is c, a column repeated over the slots before it."""
        inputs = []
        for j in range(m):
            s = C ** (m - 1 - j)  # the tuples of one run of a class in slot j
            column = {1 << c: int(("0" * (C - 1 - c) * s + "1" * s + "0" * c * s) * C ** j, 2)
                      for c in range(C)}
            inputs.append(tuple(relabel(x, column) for x in by_class))
        return inputs

    def _escapes(self, v, table):
        """Per state, the tuples that mention an atom of its group, kept per
        atom ints, which ¬ and K_a pass on unchanged."""
        groups, memo = table
        key = v[self.n:]
        out = memo.get(key)
        if out is None:
            out = memo[key] = [0] * self.n
            for where, states in groups:
                u = 0
                for i in where:
                    u |= v[i]
                for s in states:
                    out[s] = u
        return out

    def top(self):
        return (self.full,) * self.n + (0,) * len(self.atoms)

    def atom(self, p):
        full = self.full
        return (*(full * (self.atom_masks[p][0] >> s & 1) for s in range(self.n)),
                *(full * (q == p) for q in self.atoms))

    def neg(self, v):
        full, n = self.full, self.n
        return (*[full ^ (r | u) for r, u in zip(v, self._escapes(v, self._defined))],
                *v[n:])

    def conj(self, v, w):
        n = self.n
        return (*map(and_, v[:n], w[:n]), *map(or_, v[n:], w[n:]))

    def know(self, agent, v):
        rows = [0] * self.n
        for cell, states in self._cells[agent]:
            box = self.full
            for s in cell:
                box &= v[s]
            for s in states:
                rows[s] = box
        escapes = self._escapes(v, self._defined)
        if self.explicit_know:
            escapes = map(or_, escapes, self._escapes(v, self._aware[agent]))
        return (*[r & ~u for r, u in zip(rows, escapes)], *v[self.n:])

    def aware(self, agent, v):
        return (*[self.full ^ u for u in self._escapes(v, self._aware[agent])],
                *v[self.n:])

    def false(self, v):
        """The tuples False at some state."""
        true_or_undefined = self.full
        for r, u in zip(v, self._escapes(v, self._defined)):
            true_or_undefined &= r | u
        return self.full ^ true_or_undefined
