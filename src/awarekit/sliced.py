"""The bit-sliced algebra of axiom-suite sweeps (Biham's bit-slicing). Suites
read it on space lattices and awareness structures, a lattice model through
its awareness structure; only `verify.check_axiom_suite` imports it."""

from .formula import And, Atom, Aware, Know, Not, Top
from .kripke import Filled, members


class Sliced:
    """An evaluator's algebra over W class tuples at once. A value is a pair
    of ints (R, A) packed at stride W: bit s·W + t of R says whether tuple t
    is true at state s, bit i·W + t of A whether tuple t's formula mentions
    the i-th atom (sorted); no bit is set past the n·W rows of R or the
    |atoms|·W rows of A. So ∧ is (R & R', A | A'). A tuple is defined where
    each atom it mentions is, and aware where the agent is aware of each: per
    state its undefined tuples U and unaware tuples U_a are read from A,
    memoized by A in each width's algebra (a key means other tuples at
    another width), and ¬ is rows ^ (R | U), A_a is rows ^ U_a. K_a ANDs the
    rows R >> s·W of each cell and shifts the box back to each of its rows,
    clearing U, and U_a too where the evaluator's `explicit_know` says so (an
    awareness structure under L). The tables come from the evaluator's
    algebra: per atom p `masks(atom(p))`, per agent `cells`, and per agent
    and atom the true mask of `aware(a, atom(p))` (an awareness structure's
    atom-generated sets; A unfolds under L). On a space lattice an atom is
    defined on the up-closure of its base space, and a formula's base space
    is the join of its atoms' (Heifetz, Meier and Schipper 2006).
    `Sliced(ev, atoms)` builds the tables once per evaluator, a `Listed`
    one where a set lists formulas; `over(width)` the one over width tuples."""

    def __new__(cls, ev, atoms):
        return object.__new__(Listed if any(getattr(ev, "listed_at", {}).values()) else cls)

    def __init__(self, ev, atoms):
        self.n = n = len(ev.states)
        self.atoms = sorted(atoms)
        self.masks = ev.masks
        self.explicit_know = getattr(ev, "explicit_know", False)
        self.atom_masks = {p: ev.masks(ev.atom(p)) for p in self.atoms}  # (True, False)

        def outside(masks):
            """The states grouped by the indices of the atoms whose mask
            lacks them, where there are any."""
            groups = {}
            for s in range(n):
                key = tuple(i for i, m in enumerate(masks) if not m >> s & 1)
                groups.setdefault(key, []).append(s)
            return [(key, states) for key, states in groups.items() if key]

        defined = outside([t | f for t, f in self.atom_masks.values()])
        self._groups = Filled(lambda a: defined if a is None else outside(
            [ev.masks(ev.aware(a, ev.atom(p)))[0] for p in self.atoms]))
        self._cells = {a: [(members(cell, range(n)), members(ms, range(n)))
                           for cell, ms in groups] for a, groups in ev.cells.items()}

    def over(self, width):
        alg = object.__new__(type(self))
        alg.__dict__.update(self.__dict__, W=width, full=(1 << width) - 1,
                            rows=(1 << self.n * width) - 1, _memo={})
        return alg

    def classes(self, atom_sets, sigs):
        """Per state and then per atom the classes, bit c, true there or
        mentioning it: class c of atom set atom_sets[c] and signature
        sigs[c]."""
        trues = [self.masks(sig)[0] for sig in sigs]
        return ([sum((t >> s & 1) << c for c, t in enumerate(trues)) for s in range(self.n)],
                [sum(1 << c for c, at in enumerate(atom_sets) if p in at) for p in self.atoms])

    def fixed(self, by_class):
        """Per class the value with it at every tuple, made on first use."""
        W, full = self.W, self.full
        return Filled(lambda c: tuple(sum(full << s * W for s, x in enumerate(rows) if x >> c & 1)
                                      for rows in by_class))

    def slots(self, by_class, C, m):
        """The inputs of m slots over the W = C ** m tuples of C classes in
        product order (slot 0 the most significant): slot j holds class c at
        the tuples whose j-th class is c, a run of C ** (m - 1 - j) bits
        repeated every C runs."""
        inputs, W = [], self.W
        for j in range(m):
            s = C ** (m - 1 - j)
            rep = self.full // ((1 << C * s) - 1)  # bit 0 of every C runs
            column = [((1 << s) - 1 << c * s) * rep for c in range(C)]
            inputs.append(tuple(
                sum(sum(column[c] for c, b in enumerate(bin(x)[:1:-1]) if b == "1") << r * W
                    for r, x in enumerate(rows)) for rows in by_class))
        return inputs

    def _escapes(self, A, agent=None):
        """U, or for an agent U_a: at row s the tuples that mention an atom
        undefined at s, or of which the agent is unaware there."""
        U = self._memo.get((agent, A))
        if U is None:
            W, U = self.W, 0
            for where, states in self._groups[agent]:
                u = 0
                for i in where:
                    u |= A >> i * W
                u &= self.full
                for s in states if u else ():
                    U |= u << s * W
            self._memo[agent, A] = U
        return U

    def top(self):
        return self.rows, 0

    def atom(self, p):
        W, full = self.W, self.full
        return (sum(full << s * W for s in range(self.n) if self.atom_masks[p][0] >> s & 1),
                full << self.atoms.index(p) * W)

    def neg(self, v):
        return self.rows ^ (v[0] | self._escapes(v[1])), v[1]

    def conj(self, v, w):
        return v[0] & w[0], v[1] | w[1]

    def know(self, agent, v):
        (R, A), W, out = v, self.W, 0
        for cell, states in self._cells[agent]:
            box = self.full
            for s in cell:
                box &= R >> s * W
            for s in states if box else ():
                out |= box << s * W
        escapes = self._escapes(A)
        if self.explicit_know:
            escapes |= self._escapes(A, agent)
        return out & ~escapes, A

    def aware(self, agent, v):
        return self.rows ^ self._escapes(v[1], agent), v[1]

    def false(self, v):
        """The tuples False at some state: the AND of the k rows of R | U,
        folded in half until one is left."""
        x, k = v[0] | self._escapes(v[1]), self.n
        while k > 1:
            x &= x >> k // 2 * self.W
            k -= k // 2
        return self.full ^ x


class Listed(Sliced):
    """Sliced on an awareness structure with a formula-list set: a value is
    (R, A, T), T mapping each subterm of a listed formula (the evaluator's
    `_up`) to the tuples whose instance has it, lifted through `_up` by ¬, ∧,
    K_a and A_a. At a formula-list state A_a holds where the list names the
    term (an empty list: nowhere), K_a under L reads that, and elsewhere both
    are as in Sliced."""

    def __init__(self, ev, atoms):
        super().__init__(ev, atoms)
        self._up, self._lists, self.listed_know = ev._up, ev.listed_at, self.explicit_know
        self.explicit_know = False  # `know` reads `aware` instead

    def _lift(self, T, *head):
        return {u: m for t, m in T.items() if (u := self._up.get((*head, t))) is not None}

    def classes(self, atom_sets, sigs):
        return *super().classes(atom_sets, sigs), [sig[2] for sig in sigs]

    def fixed(self, by_class):
        base, terms = super().fixed(by_class[:2]), by_class[2]
        return Filled(lambda c: (*base[c], {} if terms[c] is None else {terms[c]: self.full}))

    def slots(self, by_class, C, m):
        """Sliced.slots, with T from one more row per class that has a term."""
        (rows, atom_rows, terms), W = by_class, self.W
        have = [c for c, t in enumerate(terms) if t is not None]
        return [(R, A, {terms[c]: X >> k * W & self.full for k, c in enumerate(have)})
                for R, A, X in super().slots((rows, atom_rows, [1 << c for c in have]), C, m)]

    def top(self):  # the key of ⊤ is (Top,)
        return *super().top(), self._lift({Top: self.full})

    def atom(self, p):
        return *super().atom(p), self._lift({p: self.full}, Atom)

    def neg(self, v):
        return *super().neg(v), self._lift(v[2], Not)

    def conj(self, v, w):
        return *super().conj(v, w), {x: b for t, m in v[2].items() for u, k in w[2].items()
                                     if (x := self._up.get((And, t, u))) and (b := m & k)}

    def know(self, agent, v):
        R, A = super().know(agent, v[:2])
        R &= self.aware(agent, v)[0] if self.listed_know else R
        return R, A, self._lift(v[2], Know, agent)

    def aware(self, agent, v):
        (R, A), W = super().aware(agent, v), self.W
        for s, listed in self._lists[agent]:
            R = R & ~(self.full << s * W) | sum(m for t, m in v[2].items() if t in listed) << s * W
        return R, A, self._lift(v[2], Aware, agent)
