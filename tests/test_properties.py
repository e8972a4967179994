"""Randomized structural invariants, 500+ cases each, fixed seeds."""

import random

from awarekit.formula import Lang, atoms_of, enumerate_formulas, expand_defined
from awarekit.hms import Event
from awarekit.klm import (
    Evaluator,
    check_awareness_properties,
    induced_pointwise,
    subsets,
)
from awarekit.kripke import WorldId, restrict
from awarekit.transforms import h_transform
from awarekit.truth import Truth
from awarekit.verify import random_klm, random_klm_eq

from oracles import event_neg

CASES = 500


def test_restriction_lattice_mirroring():
    """Restricting to X then to Y <= X behaves exactly like restricting to Y:
    same worlds, same atom truths, same successor sets."""
    rng = random.Random(101)
    done = 0
    while done < CASES:
        m = random_klm(rng).base
        atoms = sorted(m.atoms)
        for _ in range(10):
            X = frozenset(p for p in atoms if rng.random() < 0.7)
            Y = frozenset(p for p in X if rng.random() < 0.7)
            rx = restrict(m, X)
            ry = restrict(m, Y)
            assert {w.base for w in rx.worlds()} == m.worlds
            for w in sorted(m.worlds):
                wx, wy = WorldId(w, X), WorldId(w, Y)
                for p in sorted(Y):
                    assert rx.holds(p, wx) == ry.holds(p, wy) == (w in m.valuation[p])
                for a in sorted(m.agents):
                    assert {v.base for v in rx.successors(a, wx)} == \
                        {v.base for v in ry.successors(a, wy)} == \
                        m.successors(a, w)
                done += 1


def test_event_partition_law():
    """In every space at least as expressive as an event's base space, the
    event and its negation partition the states."""
    rng = random.Random(102)
    done = 0
    while done < CASES:
        m = h_transform(random_klm_eq(rng))
        fr = m.frame
        space_names = sorted(fr.spaces)
        for _ in range(12):
            S = rng.choice(space_names)
            states = sorted(fr.spaces[S])
            base = frozenset(s for s in states if rng.random() < 0.5)
            e = Event.make(S, base)
            up_e = fr.up(e)
            up_neg = fr.up(event_neg(fr, e))
            assert not (up_e & up_neg)
            covered = up_e | up_neg
            for T in space_names:
                if fr.below(S, T):
                    assert fr.spaces[T] <= covered
                else:
                    assert not (fr.spaces[T] & covered)
            done += 1


def test_introspective_idempotence_iff_monotone():
    """The lattice-level II property holds exactly when every agent's
    awareness grows (weakly) along their accessibility relation."""
    rng = random.Random(103)
    done = 0
    while done < CASES:
        m = random_klm(rng)
        base = m.base
        atoms = sorted(base.atoms)
        # corrupt the awareness assignment at random
        awareness = {
            a: {w: frozenset(p for p in atoms if rng.random() < 0.6)
                for w in base.worlds}
            for a in base.agents
        }
        report = check_awareness_properties(
            base, induced_pointwise(base, awareness))
        monotone = all(
            awareness[a][w] <= awareness[a][v]
            for a in base.agents
            for (w, v) in base.relations.get(a, frozenset())
        )
        assert report.passed["II"] == monotone
        done += 1


def test_no_surprises_iff_product_form():
    """The lattice-level NS property holds exactly when the whole pointwise
    map is the product form of its top-vocabulary row."""
    rng = random.Random(104)
    done = 0
    while done < CASES:
        m = random_klm(rng)
        base = m.base
        atoms = sorted(base.atoms)
        top = frozenset(base.atoms)
        vocabularies = subsets(base.atoms)
        # D-respecting random pointwise map, usually not NS
        pointwise = {}
        for a in base.agents:
            per = {}
            for w in base.worlds:
                for X in vocabularies:
                    img = frozenset(p for p in X if rng.random() < 0.7)
                    per[WorldId(w, X)] = WorldId(w, img)
            pointwise[a] = per
        report = check_awareness_properties(base, pointwise)
        product_form = all(
            pointwise[a][WorldId(w, X)] ==
            WorldId(w, X & pointwise[a][WorldId(w, top)].vocabulary)
            for a in base.agents for w in base.worlds for X in vocabularies
        )
        assert report.passed["NS"] == product_form
        done += 1


def test_undefined_iff_atoms_escape_vocabulary():
    """Three-valued evaluation is Undefined at w_X exactly when the formula
    mentions an atom outside X, in both languages."""
    rng = random.Random(105)
    done = 0
    while done < CASES:
        m = random_klm(rng)
        pool_l = enumerate_formulas(m.base.atoms, m.base.agents, 2, Lang.L)
        pool_lka = enumerate_formulas(m.base.atoms, m.base.agents, 1, Lang.LKA)
        omega = m.omega()
        for lang, pool in ((Lang.L, pool_l), (Lang.LKA, pool_lka)):
            ev = Evaluator(m, lang)
            for _ in range(15):
                f = expand_defined(rng.choice(pool), lang)
                w = rng.choice(omega)
                value = ev.value(f, w)
                if atoms_of(f) <= w.vocabulary:
                    assert value is not Truth.UNDEFINED
                else:
                    assert value is Truth.UNDEFINED
                done += 1
