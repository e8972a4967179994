"""Reference semantics: the definitional per-state evaluators, the
per-state equivalence checkers, and the per-instance axiom sweep.

The evaluators follow the satisfaction clauses one state at a time and are
kept only as the oracle that the bitmask evaluators in `awarekit.klm` and
`awarekit.fh` are checked against. For space-lattice models the oracle is the
direct recursive evaluator of acceptance criterion 8, and the event algebra
here works on sets of states, as the definitions do. The checkers compare two
models formula by formula and state by state, and are the oracle for the mask
comparison of `awarekit.verify`. The axiom and rule sweeps build and check
every schema and rule instance on their own, and are the oracle for the
per-class verdicts of `verify.check_axiom_suite`. The signature classes
group the enumerated formulas, and are the oracle for the class builder of
`awarekit.verify`.
"""

import gc
from collections import Counter
from itertools import product

from awarekit import verify
from awarekit.fh import Explicit, FHEvaluator, FHModel, check_ka
from awarekit.formula import (
    And,
    Atom,
    Aware,
    ExplicitKnow,
    Formula,
    Know,
    Lang,
    Not,
    Top,
    atoms_of,
    enumerate_formulas,
    expand_defined,
    fold,
    terms,
    to_text,
)
from awarekit.hms import DenotationEvaluator, Event, FrameDefect
from awarekit.klm import Evaluator, KripkeLatticeModel, PropertyReport, awareness_image, subsets
from awarekit.kripke import WorldId
from awarekit.truth import Truth, truth_of


class KlmOracle:
    """Memoizing evaluator for one model; safe to reuse across formulas."""

    def __init__(self, k: KripkeLatticeModel, lang: Lang = Lang.L, strict_two_valued=False):
        self.k = k
        self.lang = lang
        self.strict = strict_two_valued
        self._cache = {}

    def _atoms(self, f):
        return atoms_of(f)

    def value(self, f: Formula, w: WorldId) -> Truth:
        key = (f, w)
        got = self._cache.get(key)
        if got is None:
            got = self._value(f, w)
            self._cache[key] = got
        return got

    def _value(self, f, w):
        k, X = self.k, w.vocabulary
        if isinstance(f, Top):
            return Truth.TRUE
        if isinstance(f, Atom):
            if self.strict:
                return truth_of(w.base in k.base.valuation[f.name])
            if f.name not in X:
                return Truth.UNDEFINED
            return truth_of(w.base in k.base.valuation[f.name])
        if isinstance(f, Not):
            if not self.strict and not self._atoms(f.child) <= X:
                return Truth.UNDEFINED
            return truth_of(self.value(f.child, w) is not Truth.TRUE)
        if isinstance(f, And):
            if not self.strict and not (self._atoms(f.left) | self._atoms(f.right)) <= X:
                return Truth.UNDEFINED
            return truth_of(
                self.value(f.left, w) is Truth.TRUE and self.value(f.right, w) is Truth.TRUE
            )
        if isinstance(f, Know):
            if self.lang is Lang.L:
                return self._know_explicit(f, w)
            return self._know_implicit(f, w)
        if isinstance(f, Aware):
            if self.lang is not Lang.LKA:
                raise ValueError("Aware is not a grammar node of L; expand it first")
            if not self.strict and not self._atoms(f.child) <= X:
                return Truth.UNDEFINED
            img = awareness_image(k, f.agent, w)
            return truth_of(self._atoms(f.child) <= img.vocabulary)
        if isinstance(f, ExplicitKnow):
            if self.lang is not Lang.LKA:
                raise ValueError("ExplicitKnow is not a grammar node of L; expand it first")
            return self.value(expand_defined(f, Lang.LKA), w)
        raise TypeError(f"not a formula: {f!r}")

    def _know_explicit(self, f, w):
        """Explicit-knowledge clause: quantify over the cell of the awareness
        image, at the image's vocabulary level."""
        k, X = self.k, w.vocabulary
        if not self.strict and not self._atoms(f.child) <= X:
            return Truth.UNDEFINED
        img = awareness_image(k, f.agent, w)
        Y = img.vocabulary
        for v in k.base.successors(f.agent, img.base):
            if self.value(f.child, WorldId(v, Y)) is not Truth.TRUE:
                return Truth.FALSE
        return Truth.TRUE

    def _know_implicit(self, f, w):
        """Implicit-knowledge clause: quantify over the cell in the top model,
        the objective perspective."""
        k, X = self.k, w.vocabulary
        if not self.strict and not self._atoms(f.child) <= X:
            return Truth.UNDEFINED
        top = frozenset(k.base.atoms)
        for v in k.base.successors(f.agent, w.base):
            if self.value(f.child, WorldId(v, top)) is not Truth.TRUE:
                return Truth.FALSE
        return Truth.TRUE


def klm_tables(k: KripkeLatticeModel, lang: Lang, strict_two_valued=False):
    """The lattice evaluator's tables, state by state over omega: where each
    atom is True; per atom set (an int over the sorted atoms) where it is
    defined, and per agent where it is also within the awareness image's
    vocabulary X & Aw_a(w); and per agent each state's cell, the copies of
    its successors at that vocabulary under L and at the top under LKA."""
    states, atoms, top = k.omega(), sorted(k.base.atoms), frozenset(k.base.atoms)
    index = {s: i for i, s in enumerate(states)}

    def mask(holds):
        return sum(1 << i for i, s in enumerate(states) if holds(s))

    def atom_set(at):
        return {p for i, p in enumerate(atoms) if at >> i & 1}

    def defined(s, at):
        return strict_two_valued or atom_set(at) <= s.vocabulary

    sets = range(1 << len(atoms))
    atom_true = {p: mask(lambda s: (strict_two_valued or p in s.vocabulary)
                         and s.base in k.base.valuation[p]) for p in atoms}
    aware = {a: {at: mask(lambda s: defined(s, at) and atom_set(at) <= s.vocabulary
                          & k.awareness[a][s.base]) for at in sets} for a in k.base.agents}
    cells = {a: [sum(1 << index[WorldId(v, s.vocabulary & k.awareness[a][s.base]
                                         if lang is Lang.L else top)]
                     for v in k.base.successors(a, s.base)) for s in states]
             for a in k.base.agents}
    return atom_true, {at: mask(lambda s: defined(s, at)) for at in sets}, aware, cells


class FhOracle:
    """Memoizing two-valued evaluator for one model."""

    def __init__(self, s, lang: Lang):
        self.s = s
        self.lang = lang
        self._cache = {}

    def value(self, f: Formula, w) -> bool:
        key = (f, w)
        got = self._cache.get(key)
        if got is None:
            got = self._value(f, w)
            self._cache[key] = got
        return got

    def _value(self, f, w):
        s = self.s
        if isinstance(f, Top):
            return True
        if isinstance(f, Atom):
            try:
                return w in s.base.valuation[f.name]
            except KeyError:
                raise KeyError(f"atom {f.name!r} is outside the model's language") from None
        if isinstance(f, Not):
            return not self.value(f.child, w)
        if isinstance(f, And):
            return self.value(f.left, w) and self.value(f.right, w)
        if isinstance(f, Know):
            if self.lang is Lang.L:
                # explicit reading: awareness of the content plus truth
                # throughout the cell
                if not s.awareness[f.agent][w].contains(f.child):
                    return False
            return all(self.value(f.child, v) for v in s.base.successors(f.agent, w))
        if isinstance(f, Aware):
            if self.lang is Lang.L:
                raise ValueError("Aware is not a grammar node of L; expand it first")
            return s.awareness[f.agent][w].contains(f.child)
        if isinstance(f, ExplicitKnow):
            if self.lang is Lang.L:
                raise ValueError("ExplicitKnow is not a grammar node of L; expand it first")
            return self.value(expand_defined(f, Lang.LKA), w)
        raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# the event algebra of a space lattice, on sets of states


def _based(fr, states, space, what):
    """The event based at `space` whose up-closure is `states`."""
    e = Event.make(space, states & fr.spaces[space])
    if fr.up(e) != states:
        raise FrameDefect(f"{what} is not an up-set based at {space!r}")
    return e


def event_neg(fr, e):
    """The complement of the base set within the base space."""
    return Event.make(e.base_space, fr.spaces[e.base_space] - e.base_set)


def event_and(fr, events):
    """Based at the join of the base spaces, with the intersection of the
    up-closures."""
    events = list(events)
    if not events:
        raise ValueError("conjunction of no events")
    space = events[0].base_space
    for e in events[1:]:
        space = fr.join(space, e.base_space)
        if space is None:
            raise FrameDefect("join of base spaces undefined")
    return _based(fr, frozenset.intersection(*(fr.up(e) for e in events)), space,
                  "intersection of up-closures")


def _box(fr, agent, states):
    """The states whose possibility set lies inside `states`."""
    return frozenset(s for s, cell in fr.pi[agent].items() if cell <= states)


def event_know(fr, agent, e):
    """The states whose possibility set lies inside e's up-closure, based at
    e's space."""
    return _based(fr, _box(fr, agent, fr.up(e)), e.base_space, "knowledge set")


def event_aware(fr, agent, e):
    """The states whose possibility set lies weakly above e's base space,
    based at that space."""
    S = e.base_space
    expressible = fr.upward_closure(fr.spaces[S], S)
    return _based(fr, _box(fr, agent, expressible), S, "awareness set")


# ---------------------------------------------------------------------------
# per-state equivalence checkers; the transforms are read from awarekit.verify
# so that a test's replacement of them reaches both sides


def equiv_hms_klm(m, depth):
    klm, corr = verify.l_transform(m)
    report = verify.EquivalenceReport("equivalence", depth)
    formulas = enumerate_formulas(m.atoms, m.frame.agents, depth, Lang.L)
    ev_hms = DenotationEvaluator(m)
    ev_klm = Evaluator(klm, Lang.L)
    for f in formulas:
        for s in ev_hms.states:
            left = ev_hms.value(f, s)
            for v in sorted(corr[s], key=WorldId.sort_key):
                right = ev_klm.value(f, v)
                report.checked += 1
                if left is not right:
                    report.record(f, f"{s}/{v}", left, right)
        if report.checked > verify.INSTANTIATION_CAP:
            break
    return report


def equiv_klm_hms(k, depth):
    hms = verify.h_transform(k)
    report = verify.EquivalenceReport("equivalence", depth)
    formulas = enumerate_formulas(k.base.atoms, k.base.agents, depth, Lang.L)
    ev_klm = Evaluator(k, Lang.L)
    ev_hms = DenotationEvaluator(hms)
    omega = k.omega()
    for f in formulas:
        for w in omega:
            left = ev_klm.value(f, w)
            right = ev_hms.value(f, str(w))
            report.checked += 1
            if left is not right:
                report.record(f, w, left, right)
        if report.checked > verify.INSTANTIATION_CAP:
            break
    return report


def equiv_fh_klm(x, lang, depth):
    if isinstance(x, FHModel):
        assert check_ka(x)[0]
        fh, klm = x, verify.k_transform(x)
    else:
        fh, klm = verify.fh_transform(x), x
    report = verify.EquivalenceReport("equivalence", depth)
    formulas = enumerate_formulas(klm.base.atoms, klm.base.agents, depth, lang)
    ev_fh = FHEvaluator(fh, lang)
    ev_klm = Evaluator(klm, lang)
    vocabularies = subsets(klm.base.atoms)
    for f in formulas:
        at = atoms_of(f)
        covering = [X for X in vocabularies if at <= X]
        for w in sorted(klm.base.worlds):
            right = ev_fh.value(f, w)
            for X in covering:
                left = ev_klm.value(f, WorldId(w, X))
                report.checked += 1
                if left is not right:
                    report.record(f, WorldId(w, X), left, right)
        if report.checked > verify.INSTANTIATION_CAP:
            break
    return report


# ---------------------------------------------------------------------------
# signature classes by enumeration


def explicit_sets(models):
    """Whether some awareness set of the models is a formula list."""
    return any(isinstance(aset, Explicit) for m in models if isinstance(m, FHModel)
               for per in m.awareness.values() for aset in per.values())


def subterms(formulas):
    """Every subterm of the formulas, each formula included."""
    out, todo = set(), list(formulas)
    while todo:
        f = todo.pop()
        if f not in out:
            out.add(f)
            if isinstance(f, And):
                todo += [f.left, f.right]
            elif not isinstance(f, (Top, Atom)):
                todo.append(f.child)
    return out


def signature_classes(language, evaluators):
    """Every formula enumerate_formulas(*language) lists, grouped by its atom
    set, its true mask on each evaluator's model, and its expansion in LKA
    where that is a subterm of a formula that some awareness set lists (its
    expansion too), else None: each class's first member, its number of
    formulas, and the class id of each formula, in enumeration order."""
    formulas = enumerate_formulas(*language)
    within = subterms(expand_defined(f, Lang.LKA) for ev in evaluators
                      if isinstance(ev, FHEvaluator) for per in ev.s.awareness.values()
                      for aset in per.values() if isinstance(aset, Explicit)
                      for f in aset.formulas)

    def term(f):
        g = expand_defined(f, Lang.LKA)
        return g if g in within else None

    classes = {}  # key -> (class id, first member)
    ids = [classes.setdefault(
        (atoms_of(f), *(ev.truth_masks(f)[0] for ev in evaluators), term(f)),
        (len(classes), f))[0] for f in formulas]
    return [f for _, f in classes.values()], list(Counter(ids).values()), ids


# ---------------------------------------------------------------------------
# per-instance axiom sweep


def axiom_sweep(models, suite, depth, extra_schemas=()):
    """Every instance of every schema, expanded and checked on every model,
    counted and capped as `verify.check_axiom_suite` does (past the cap an
    instance is left, and its schema is capped); its checked, schemas and
    failures. The sweep allocates many long-lived terms, so the cyclic
    garbage collector, which they would set off again and again, is paused."""
    semantics = verify._suite_semantics(suite, models[0])
    atoms, agents = verify._model_signature(models)
    lang = Lang.L if suite.name == "HMS" else Lang.LKA
    evaluators = verify.ValidityChecker(models, semantics).evaluators
    metas = enumerate_formulas(atoms, agents, depth, lang)
    report = {"checked": 0, "schemas": {}, "failures": []}
    expanded = {}  # shared across instances, so that their expansions share subterms
    collecting = gc.isenabled()
    gc.disable()
    try:
        for schema in list(suite.schemas) + list(extra_schemas):
            entry = {"checked": 0, "failures": []}
            for ags in product(sorted(agents), repeat=schema.agent_arity):
                for ms in product(metas, repeat=schema.meta_arity):
                    if report["checked"] > verify.INSTANTIATION_CAP:
                        entry["capped"] = True
                        break
                    f = schema.build(ms, ags)
                    g = fold(f, terms(lang), expanded)
                    bad = [s for ev in evaluators for s in ev.check(g)[1]]
                    entry["checked"] += 1
                    report["checked"] += 1
                    if bad:
                        failure = {"formula": to_text(f), "state": str(bad[0]),
                                   "left": "not True", "right": "True"}
                        entry["failures"].append(failure)
                        report["failures"].append({"schema": schema.id, **failure})
                if entry.get("capped"):
                    break
            entry["passed"] = not entry["failures"] and not entry.get("capped")
            report["schemas"][schema.id] = entry
    finally:
        if collecting:
            gc.enable()
    return report


def rule_sweep(models, suite, depth):
    """Every instance of every rule of the suite, all fillings and agent
    tuples with the side condition read on the instance's own atoms, its
    premises and conclusion expanded and checked on every model; the rule
    entries of `verify.check_axiom_suite` of a suite without schemas, capped
    as there (past the cap an instance of the rule is left, and its rule and
    every later one are capped)."""
    semantics = verify._suite_semantics(suite, models[0])
    atoms, agents = verify._model_signature(models)
    lang = Lang.L if suite.name == "HMS" else Lang.LKA
    evaluators = verify.ValidityChecker(models, semantics).evaluators
    metas = enumerate_formulas(atoms, agents, depth, lang)
    expanded = {}

    def false_at(f):
        g = fold(f, terms(lang), expanded)
        return [s for ev in evaluators for s in ev.check(g)[1]]

    rules, spent, capped = {}, 0, False
    for rule in suite.rules:
        entry = rules[rule.id] = {"premise_valid": 0, "vacuous": 0, "violations": []}
        for ags in product(sorted(agents), repeat=rule.agent_arity):
            for ms in product(metas, repeat=rule.meta_arity):
                if rule.side and rule.side([atoms_of(f) for f in ms]):  # an atom breaks it
                    continue
                if spent > verify.INSTANTIATION_CAP:
                    entry["capped"] = capped = True
                    break
                spent += 1
                premises = rule.premises(ms, ags)
                if any(false_at(p) for p in premises):
                    entry["vacuous"] += 1
                    continue
                entry["premise_valid"] += 1
                f = rule.build(ms, ags)
                bad = false_at(f)
                if bad:
                    entry["violations"].append(
                        {"premises": [to_text(p) for p in premises], "formula": to_text(f),
                         "state": str(bad[0]), "left": "not True", "right": "True"})
            if capped:
                break
        entry["preserved"] = not entry["violations"] and not capped
    return rules


# ---------------------------------------------------------------------------
# frame well-formedness, one pair, triple and state at a time


def frame_report(f, report=None):
    """The reference for `hms.validate_frame`: each law checked instance by
    instance through the frame's order, projection and lift API, in the
    order whose first failure is each check's witness. Where one instance
    fails at several states, the witness names the first in index order."""
    report = PropertyReport() if report is None else report
    _lattice(f, report)
    _projections(f, report)
    _pi(f, report)
    return report


def _lattice(f, report):
    seen = {}
    for S, states in f.spaces.items():
        if not states:
            report.record("lattice", ("empty space", S))
        for s in sorted(states):
            if s in seen and seen[s] != S:
                report.record("lattice", ("states shared by spaces", s, seen[s], S))
            seen[s] = S
    for S in f.spaces:
        for S2 in f.spaces:
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


def _projections(f, report):
    total = {}  # the maps that are total into their target space
    for (lo, up) in sorted(f.leq):
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
        total[(up, lo)] = m
        if set(m.values()) != set(f.spaces[lo]):
            report.record("projections", ("not surjective", up, lo))
        if lo == up and any(m[s] != s for s in f.spaces[up]):
            report.record("projections", ("identity projection is not identity", up))
    for S in f.spaces:
        for S1 in f.spaces_above[S]:
            for S2 in f.spaces_above[S1]:
                direct, via, low = total.get((S2, S)), total.get((S2, S1)), total.get((S1, S))
                if direct is None or via is None or low is None:
                    continue
                s = min((s for s in f.spaces[S2] if direct[s] != low[via[s]]), default=None)
                if s is not None:
                    report.record("projections", ("non-commuting", S2, S1, S, s))
    report.record("projections")


def _projection(f, state, lower):
    """The state's projection to `lower`; None where the map is missing or not
    total, which the projections check reports."""
    return f.maps.get((f.state_space[state], lower), {}).get(state)


def _pi(f, report):
    for a in sorted(f.agents):
        per = f.pi[a]
        for s in f.states:
            if s not in per:
                report.record("Conf", ("pi not total", a, s))
    for a in sorted(f.agents):
        per = f.pi[a]
        for w, cell in sorted(per.items()):
            Sw, targets = f.state_space[w], f.cell_spaces(cell)
            if len(targets) != 1:
                report.record("Conf", (a, w, "cell straddles spaces", targets))
                continue
            S = targets[0]
            if not f.below(S, Sw):
                report.record("Conf", (a, w, "cell not weakly below", S, Sw))
                continue
            report.record("Conf")
            # Gref: w is in the upward closure of its own cell
            report.record("Gref", None if f.lift(f.mask(cell), S) >> f.index[w] & 1 else (a, w))
            # Stat: every considered state shares the cell
            t = min((t for t in cell if per.get(t) != cell), default=None)
            report.record("Stat", None if t is None else (a, w, t))
        # PPI and PPK quantify over projections of states
        for w in f.states:
            cell = per.get(w)
            if cell is None:
                continue
            Scell = f.cell_spaces(cell)
            up_w = f.lift(f.mask(cell), Scell[0]) if len(Scell) == 1 else 0
            for S in f.spaces_below[f.state_space[w]]:
                cell_down = per.get(_projection(f, w, S))
                if cell_down is None:
                    continue
                Sdown = f.cell_spaces(cell_down)
                if len(Scell) != 1 or len(Sdown) != 1:
                    continue  # Conf already failed
                outside = up_w & ~f.lift(f.mask(cell_down), Sdown[0])
                report.record("PPI", (a, w, S) if outside else None)
            # PPK: S <= S' <= S'', w in S'', cell in S'
            if len(Scell) != 1:
                continue
            for S in f.spaces_below[Scell[0]]:
                projected_cell = frozenset(_projection(f, t, S) for t in cell)
                down_cell = per.get(_projection(f, w, S))
                if down_cell is not None and None not in projected_cell:
                    report.record("PPK", None if projected_cell == down_cell
                                  else (a, w, Scell[0], S))
    for name in ("Conf", "Gref", "Stat", "PPI", "PPK"):
        report.record(name)
