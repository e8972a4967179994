"""The one algebra of the semantics, bit-sliced (Biham's bit-slicing): ⊤,
atoms, ¬, ∧, K_a and A_a over an evaluator's tables, for W formulas at once.
Width 1 is the scalar case, into which every evaluator folds its formulas
(`truth.MaskEvaluator`); axiom-suite sweeps run their kernels at wider widths,
one class tuple per width bit (`verify.check_axiom_suite`)."""

from .formula import And, Atom, Aware, Know, Not, Top
from .kripke import Filled, members


def spread(mask, width):
    """The mask with bit s moved to bit s·width."""
    return int(("0" * (width - 1)).join(format(mask, "b")), 2)


def outside(masks, n):
    """The indices of the states among n that some of the masks lack,
    grouped by the indices of the masks that lack them."""
    groups = {(): (1 << n) - 1}
    for i, mask in enumerate(masks):
        for key, states in list(groups.items()):
            if lack := states & ~mask:
                groups[(*key, i)] = lack
                groups[key] = states & mask
    return [(key, members(states, range(n))) for key, states in groups.items() if key and states]


class Sliced:
    """An evaluator's algebra over W tuples at once. A value is a pair of ints
    (R, A) packed at stride W: bit s·W + t of R says whether tuple t is true
    at state s, bit i·W + t of A whether tuple t's formula mentions the i-th
    atom (sorted); no bit is set past the n·W rows of R or the |atoms|·W rows
    of A. At width 1 a value is the true mask and the atom set, an int over
    the sorted atoms. So ∧ is (R & R', A | A'). A tuple is defined where each
    atom it mentions is, and aware where the agent is aware of each: per state
    its undefined tuples U and unaware tuples U_a are read from A, memoized by
    A in each width's algebra (a key means other tuples at another width), and
    ¬ is rows ^ (R | U), A_a is rows ^ U_a. K_a ANDs the rows R >> s·W of each
    cell and copies the box to the rows of the states that have that cell,
    clearing U, and U_a too where the evaluator's `explicit_know` says so (an
    awareness structure under L). The tables are the evaluator's: per atom
    its (True, False) masks, `atom_masks`, per agent `cells` and, per atom,
    `aware_masks` (an awareness structure's atom-generated sets). On a space
    lattice an atom is defined on the up-closure of its base space, and a
    formula's base space is the join of its atoms' (Heifetz, Meier and
    Schipper 2006). `Sliced(ev)` builds the tables once per evaluator, a
    `Listed` algebra where a set lists formulas, and is the algebra at width
    1; `over(width)` gives the one over width tuples."""

    def __new__(cls, ev):
        return object.__new__(Listed if any(ev.listed_at.values()) else cls)

    def __init__(self, ev):
        self.n = n = len(ev.states)
        self.atoms = sorted(ev.atom_masks)
        self.lang, self.explicit_know = ev.lang, ev.explicit_know
        self.atom_masks = ev.atom_masks
        self._bit = {p: i for i, p in enumerate(self.atoms)}
        # per agent (None: definedness) the states grouped by the atoms they lack
        self._outside = Filled(lambda a: outside([t | f for t, f in map(
            ev.atom_masks.get, self.atoms)] if a is None else [
            ev.aware_masks[a][p] for p in self.atoms], n))
        self._cells = {a: [(members(cell, range(n)), members(states, range(n)))
                           for cell, states in groups] for a, groups in ev.cells.items()}
        self._width(1)

    def _width(self, W):
        """Set the width, with U by A, and per agent U_a by A, made on first use."""
        self.W, self.full, self.rows = W, (1 << W) - 1, (1 << self.n * W) - 1
        self._undefined = Filled(self._escapes)
        self._unaware = Filled(lambda a: Filled(lambda A: self._escapes(A, a)))

    def over(self, width):
        alg = object.__new__(type(self))
        alg.__dict__.update(self.__dict__)
        alg._width(width)
        return alg

    def classes(self, atom_sets, sigs):
        """Per state and then per atom the classes, bit c, true there or
        mentioning it: class c of atom set atom_sets[c] and width-1 value
        sigs[c]."""
        return ([sum((t[0] >> s & 1) << c for c, t in enumerate(sigs)) for s in range(self.n)],
                [sum(1 << c for c, at in enumerate(atom_sets) if p in at) for p in self.atoms])

    def fixed(self, by_class):
        """Per class the value with it at every tuple, made on first use."""
        W, full = self.W, self.full
        return Filled(lambda c: tuple(sum(full << s * W for s, x in enumerate(rows) if x >> c & 1)
                                      for rows in by_class))

    def slots(self, by_class, C, m):
        """The inputs of m slots over the W = C ** m tuples of C classes in
        product order (slot 0 the most significant): slot j holds class c at
        the tuples whose j-th class is c, a run of s = C ** (m - 1 - j) bits
        repeated every C runs, class 0's column `unit` shifted by c·s; so a
        row x of class bits gets unit times x spread to bit c at c·s."""
        inputs, W = [], self.W
        for j in range(m):
            s = C ** (m - 1 - j)
            unit = ((1 << s) - 1) * (self.full // ((1 << C * s) - 1))
            inputs.append(tuple(sum(unit * spread(x, s) << r * W for r, x in enumerate(rows))
                                for rows in by_class))
        return inputs

    def _escapes(self, A, agent=None):
        """U, or for an agent U_a: at row s the tuples that mention an atom
        undefined at s, or of which the agent is unaware there."""
        W, U = self.W, 0
        for where, states in self._outside[agent]:
            u = 0
            for i in where:
                u |= A >> i * W
            u &= self.full
            for s in states if u else ():
                U |= u << s * W
        return U

    def masks(self, v):
        """The (True, False) rows of a value: at width 1 the states where it
        is True and where it is False; it is Undefined elsewhere."""
        return v[0], self.rows ^ (v[0] | self._undefined[v[1]])

    def top(self):
        return self.rows, 0

    def atom(self, p):
        return spread(self.atom_masks[p][0], self.W) * self.full, self.full << self._bit[p] * self.W

    def neg(self, v):
        return self.rows ^ (v[0] | self._undefined[v[1]]), v[1]

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
        escapes = self._undefined[A]
        if self.explicit_know:
            escapes |= self._unaware[agent][A]
        return out & ~escapes, A

    def aware(self, agent, v):
        return self.rows ^ self._unaware[agent][v[1]], v[1]

    def false(self, v):
        """The tuples False at some state: the AND of the k rows of R | U,
        folded in half until one is left."""
        x, k = v[0] | self._undefined[v[1]], self.n
        while k > 1:
            x &= x >> k // 2 * self.W
            k -= k // 2
        return self.full ^ x


class Listed(Sliced):
    """Sliced on an awareness structure with a formula-list set: a value is
    (R, A, T), T mapping each subterm of a listed formula (the evaluator's
    `_up`) to the tuples whose instance has it, lifted through `_up` by ¬, ∧,
    K_a and A_a. At width 1, T holds at most the formula's own term, which
    keys it. At a formula-list state A_a holds where the list names the term
    (an empty list: nowhere), K_a under L reads that, and elsewhere both are
    as in Sliced."""

    def __init__(self, ev):
        super().__init__(ev)
        self._up, self._lists, self.listed_know = ev._up, ev.listed_at, self.explicit_know
        self.explicit_know = False  # `know` reads `aware` instead

    def _lift(self, T, *head):
        return {u: m for t, m in T.items() if (u := self._up.get((*head, t))) is not None}

    def key(self, v):
        """A width-1 value with its term, or None, in place of T: hashable,
        as a Sliced value is."""
        return v[0], v[1], next(iter(v[2]), None)

    def classes(self, atom_sets, sigs):
        return *super().classes(atom_sets, sigs), [self.key(sig)[2] for sig in sigs]

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
