import json
import random
from itertools import product

from awarekit import verify
from awarekit.fh import AtomGenerated, FHEvaluator, FHModel
from awarekit.formula import TOP, And, Atom, Aware, Know, Lang, Not, atoms_of, implies
from awarekit.hms import DenotationEvaluator
from awarekit.klm import Evaluator
from awarekit.kripke import relabel
from awarekit.sliced import Listed, Sliced
from awarekit.transforms import fh_transform, h_transform
from awarekit.verify import SCHEMA_5, check_axiom_suite, compile_program, hms_suite

from test_oracles import _unlisted, mixed_fh


def _evaluators(rng):
    """(evaluator, atoms, agents) of every model class that a suite reads:
    lattice models under L and LKA, partitional and with agents that have
    no successor, a space-lattice transform, and awareness structures under
    L (explicit K_a: the box and awareness) and LKA: a transform, one whose
    atom-generated awareness changes along the relations, and `mixed_fh`."""
    k, g = (verify.random_klm_eq(rng, max_worlds=3, max_atoms=2),
            verify.random_klm(rng, max_worlds=3, max_atoms=2))
    assert any(not g.base.successors(x, w) for x in "ab" for w in g.base.worlds)
    drawn = FHModel.make(g.base, {a: {w: AtomGenerated.make(p for p in sorted(g.base.atoms)
                                                            if rng.random() < 0.5)
                                      for w in g.base.worlds} for a in g.base.agents})
    for m in k, g:
        for lang in Lang.L, Lang.LKA:
            yield Evaluator(m, lang), m.base.atoms, m.base.agents
    h = h_transform(k)
    yield DenotationEvaluator(h), h.atoms, h.frame.agents
    for s in fh_transform(g), drawn, mixed_fh(rng, g):
        for lang in Lang.L, Lang.LKA:
            yield FHEvaluator(s, lang), s.base.atoms, s.base.agents


def _packed_slots(by_class, C, m):
    """The slot inputs of Sliced.slots, built from strings: per slot and
    class the column mask as a string of C ** m bits, then per state and per
    atom the classes' columns, packed at stride C ** m."""
    W, inputs = C ** m, []
    for j in range(m):
        s = C ** (m - 1 - j)
        column = {1 << c: int(("0" * (C - 1 - c) * s + "1" * s + "0" * c * s) * C ** j, 2)
                  for c in range(C)}
        inputs.append(tuple(sum(relabel(x, column) << r * W for r, x in enumerate(rows))
                            for rows in by_class))
    return inputs


def test_sliced_algebra_matches_scalar():
    """Every op of the bit-sliced algebra gives, at each class tuple, the
    evaluator's masks of that tuple's instance: true at the same states,
    mentioning the same atoms, and `false` marks the tuples False at some
    state. On every model class, with one set of tables shared by every
    width. A program over agent slots, run with an agent tuple, gives in
    both algebras what the program compiled for that tuple gives, on the
    diagonal tuples (a, a) and (b, b) too. The latter names its agents, each
    read as itself. A value sets no bit past its n·W rows and |atoms|·W
    atom rows, the slot inputs are the string-built column masks, and the
    fixed value of a class is true wherever that class's is. Where some
    awareness set lists formulas, a value's third part gives each tuple's
    term, the evaluator's, and a slot input or fixed value gives the term of
    each class at its tuples."""
    holes = [Atom(f"${i}") for i in range(3)]
    schemas = [lambda m, g: Not(m[0]), lambda m, g: And(m[0], TOP),
               lambda m, g: Know(g[0], Not(m[0])), lambda m, g: Aware(g[1], m[0]),
               lambda m, g: Aware(g[1], Know(g[0], m[0])),
               lambda m, g: Know(g[1], Know(g[0], implies(m[0], Atom("p1")))),
               lambda m, g: implies(And(Know(g[0], m[0]), Know(g[1], m[1])),
                                    Aware(g[0], And(m[0], m[1]))),
               lambda m, g: implies(implies(m[0], m[1]), implies(Not(m[2]), Know(g[1], m[2])))]
    kinds, lists, terms = set(), 0, 0
    for ev, atoms, agents in _evaluators(random.Random(2111)):
        kinds.add(type(ev))
        reps, _, _, keys = verify._classes((atoms, agents, 1, ev.lang), [ev])
        atom_sets, fill = zip(*keys)
        tables, named = Sliced(ev, atoms), {x: x for x in agents}
        by_class = tables.classes(atom_sets, fill)
        listed = isinstance(tables, Listed)
        lists += listed
        for build in schemas:
            slotted = build(holes, (0, 1))
            n = max(i + 1 for i, h in enumerate(holes) if h.name in atoms_of(slotted))
            run = compile_program(slotted, holes[:n], ev.lang)
            alg = tables.over(len(reps) ** n)
            W, fields = alg.W, (alg.n, len(alg.atoms))
            inputs = alg.slots(by_class, len(reps), n)
            assert [x[:2] for x in inputs] == _packed_slots(by_class[:2], len(reps), n)
            for c in range(len(reps)):
                assert alg.fixed(by_class)[c][:2] == tuple(
                    sum(alg.full * (x >> c & 1) << r * W for r, x in enumerate(rows))
                    for rows in by_class[:2])
            if listed:  # each class with a term has it at its column, or everywhere
                tuples = list(product(range(len(reps)), repeat=n))
                for j, x in enumerate(inputs):
                    assert x[2] == {by_class[2][c]: sum(1 << t for t, key in enumerate(tuples)
                                                        if key[j] == c)
                                    for c in range(len(reps)) if by_class[2][c] is not None}
                assert all(alg.fixed(by_class)[c][2] == ({} if t is None else {t: alg.full})
                           for c, t in enumerate(by_class[2]))
            for ags in product("ab", repeat=2):
                fixed = compile_program(build(holes, ags), holes[:n], ev.lang)
                value = run(alg, inputs, ags)
                assert fixed(alg, inputs, named) == value
                assert all(x >> k * W == 0 for x, k in zip(value, fields))
                false = alg.false(value)
                assert all(x >> W == 0 for x in value[2].values()) if listed else len(value) == 2
                assert false >> W == 0
                for t, key in enumerate(product(range(len(reps)), repeat=n)):
                    sigs = [fill[k] for k in key]
                    assert fixed(ev, sigs, named) == run(ev, sigs, ags)
                    true, bad = ev.masks(run(ev, sigs, ags))
                    instance = build([reps[k] for k in key], ags)
                    assert ev.truth_masks(instance) == (true, bad)
                    assert sum((value[0] >> s * W + t & 1) << s for s in range(alg.n)) == true
                    assert {p for i, p in enumerate(alg.atoms) if value[1] >> i * W + t & 1} == \
                        atoms_of(instance)
                    assert (false >> t & 1) == (bad != 0), (ags, key)
                    if listed:
                        term = run(ev, sigs, ags)[2]
                        assert {u for u, x in value[2].items() if x >> t & 1} == \
                            ({term} if term is not None else set()), (ags, key)
                        terms += term is not None
    assert kinds == {Evaluator, DenotationEvaluator, FHEvaluator}
    assert lists == 2 and terms  # mixed_fh under L and LKA


def test_wide_space_lattice_in_one_chunk_or_many(monkeypatch):
    """On a space lattice of 64 states, the H-transform of a partitional
    model of 4 worlds and 4 atoms, a sliced value spans 64 rows, so K_a and
    `false` shift rows far apart. Its depth-1 HMS report, with schema 5 and
    the rules, is the same in one chunk, at the default bit budget and in
    C chunks per slot past the first, and gives the counts, verdicts and
    failing formulas of its lattice model."""
    rng = random.Random(25)
    k = verify.random_klm_eq(rng, max_worlds=4, max_atoms=4)
    while (len(k.base.worlds), len(k.base.atoms)) != (4, 4):
        k = verify.random_klm_eq(rng, max_worlds=4, max_atoms=4)
    h = h_transform(k)
    assert len(h.frame.states) == 64

    def report(bits):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "SLICE_BITS", bits)
            return check_axiom_suite([h], hms_suite(), 1, extra_schemas=(SCHEMA_5,))

    whole = report(1 << 24)
    size = len(h.frame.states) + len(h.atoms)
    assert whole["classes"] ** 3 * size > verify.SLICE_BITS  # PL2 in chunks by default
    for bits in verify.SLICE_BITS, whole["classes"] * size:
        assert json.dumps(report(bits)) == json.dumps(whole)
    assert _unlisted(whole) == _unlisted(
        check_axiom_suite([k], hms_suite(), 1, extra_schemas=(SCHEMA_5,)))
