"""Proposition-level harness: satisfaction preservation across the transforms,
guarded validity and axiom suites. The random lattice models of `klm` are
re-exported here, where the acceptance tests import them.

Inference rules are checked as validity preservation over the supplied finite
model corpus. That is a necessary condition for soundness, not a proof, and
the reports label it as such.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import compress, islice, product
from math import prod
from operator import or_
from types import SimpleNamespace

from .formula import (TOP, And, Atom, Aware, ExplicitKnow, Formula, Know, Lang, Not, _formulas,
                      aware_in, enumerate_formulas, fold, formula_count, iff, implies,
                      require_signature, to_text)
from .hms import DenotationEvaluator, HMSModel
from .klm import Evaluator, KripkeLatticeModel, random_klm, random_klm_eq, subsets
from .kripke import Filled, WorldId, relabel
from .sliced import Listed
from .transforms import (_require_partitional, fh_transform, h_transform, k_transform,
                         l_transform)
from .truth import truth_at
from .values import Frozen, Value

INSTANTIATION_CAP = 10 ** 6
# bits of one bit-sliced value (its two packed ints) in an axiom-suite sweep:
# class tuples of a chunk, the stride, times (states + atoms) of the largest model
SLICE_BITS = 1 << 16


class EquivalenceReport(Value):
    _fields = ("kind", "depth", "checked", "failures", "capped")

    def __init__(self, kind: str, depth: int, checked: int = 0, failures: list = None,
                 capped: bool = False):
        self.kind = kind
        self.depth = depth
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.capped = capped  # failures lists only the first INSTANTIATION_CAP rows
        self.classes = 0  # signature classes of the language, not compared or shown
        self._text = (None, "")  # the last recorded formula and its text

    def record(self, formula, state, left, right):
        """One disagreement; a formula's text is printed once for its run of
        disagreements."""
        if self._text[0] is not formula:
            self._text = formula, to_text(formula)
        self.failures.append(
            {"formula": self._text[1], "state": str(state),
             "left": str(left), "right": str(right)}
        )

    @property
    def first_disagreement(self):
        return self.failures[0] if self.failures else None

    def to_json(self):
        body = {"kind": self.kind, "depth": self.depth,
                "checked": self.checked, "failures": self.failures}
        if self.capped:
            body["capped"] = True
        return body


# ---------------------------------------------------------------------------
# satisfaction-preservation checks


def _classes(language, evaluators):
    """The signature classes of the formulas enumerate_formulas(*language)
    lists (the Lindenbaum-Tarski quotient on the evaluators' models), built
    depth by depth without enumerating them. A formula's key is its atom set
    and its signature in each evaluator's algebra. A candidate's key comes
    from its operands' keys: the union of their atom sets, and per evaluator
    the algebra op that fold applies at that node. So a key fixes the key of
    every formula built on it, and a formula is built only for a new key. On
    formula-list awareness sets a signature carries the formula's term only
    while it is a subterm of a listed formula, so the classes stay finitely
    many. Gives each class's first formula in the enumerator's order, its
    number of formulas, a walk of the class automaton that gives each
    formula's class in that order from its operands' classes (walk(None)
    makes the formulas themselves, one by one), and per class its atom set
    and its signature in each evaluator's algebra.
    The automaton's transitions are one table per connective, neg[c],
    conj[c1][c2] and per agent know[a][c] and aware[a][c]; the build fills
    each entry once, calling each algebra's op (aware_in for A), and the
    walk only reads them."""
    atoms, agents, depth, lang = language
    atoms, agents = sorted(atoms), sorted(agents)
    algs = [ev.algebra for ev in evaluators]
    # ⊤ and the atoms, each its own class: their atom sets differ
    reps = [TOP, *map(Atom, atoms)]
    keys = [(frozenset(), *(alg.top() for alg in algs))] + [
        (frozenset((p,)), *(alg.atom(p) for alg in algs)) for p in atoms]
    listed = any(isinstance(alg, Listed) for alg in algs)

    def hashable(key):  # a Listed value's T is a dict: its key has its term instead
        return key[0], *(alg.key(v) if isinstance(alg, Listed) else v
                         for alg, v in zip(algs, key[1:]))

    ids = {hashable(key): c for c, key in enumerate(keys)}
    sigs = [key[1:] for key in keys]  # per class its signature in each algebra
    neg, conj, know, aware = {}, [{} for _ in keys], {a: {} for a in agents}, {a: {} for a in agents}

    def add(key, make, *operands):  # the class of a key, made from its operands if new
        if (c := ids.get(k := hashable(key) if listed else key)) is None:
            c = ids[k] = len(reps)
            reps.append(make(*operands))
            keys.append(key)
            sigs.append(key[1:])
            conj.append({})
        return c

    def unary(table, ops, make):  # one unary connective over the last level's classes
        for c in sorted(exact):
            if (c1 := table.get(c)) is None:
                c1 = table[c] = add((keys[c][0], *[op(s) for op, s in zip(ops, sigs[c])]),
                                    make, reps[c])
            level[c1] = level.get(c1, 0) + exact[c]

    negs, conjs = [alg.neg for alg in algs], [alg.conj for alg in algs]
    modal = [(know[a], [partial(alg.know, a) for alg in algs], partial(Know, a))
             for a in agents] + [(aware[a], [partial(aware_in, alg, a) for alg in algs],
                                  partial(Aware, a)) for a in agents if lang is Lang.LKA]
    # per class its number of formulas of depth exactly d, at most d, at most d-1
    exact, upto, below = dict.fromkeys(range(len(keys)), 1), [1] * len(keys), [0] * len(keys)
    for _ in range(depth):
        level = {}
        unary(neg, negs, Not)
        for c1, (u1, b1) in enumerate(zip(upto, below)):
            row = conj[c1]
            for c2 in range(c1, len(upto)):
                # pairs with at least one formula of the last level
                u2, b2 = upto[c2], below[c2]
                if n := u1 * u2 - b1 * b2 if c1 != c2 else (u1 * (u1 + 1) - b1 * (b1 + 1)) // 2:
                    if (c := row.get(c2)) is None:
                        # n counts both operand orders, so the reversed pair has this class too
                        c = row[c2] = conj[c2][c1] = add(
                            (keys[c1][0] | keys[c2][0],
                             *[op(s, t) for op, s, t in zip(conjs, sigs[c1], sigs[c2])]),
                            And, reps[c1], reps[c2])
                    level[c] = level.get(c, 0) + n
        for args in modal:
            unary(*args)
        below, exact = upto + [0] * (len(reps) - len(upto)), level
        upto = [u + level.get(c, 0) for c, u in enumerate(below)]

    # the walk reads the tables alone: a step the build did not take raises KeyError
    step = SimpleNamespace(top=lambda: 0, atom={p: c for c, p in enumerate(atoms, 1)}.get,
                           neg=neg.__getitem__, conj=lambda c1, c2: conj[c1][c2],
                           know=lambda a, c: know[a][c], aware=lambda a, c: aware[a][c])
    return reps, upto, lambda alg=step: _formulas(atoms, agents, lang, depth, alg), keys


def _equivalence(language, left, right, pairs, left_defined_only=False):
    """The report of a check bounded by `language`, the enumerator's
    arguments, comparing two evaluators at the positions `pairs` lists as
    (label, left state, right state), in report order, or only where the left
    side is defined. A comparison depends on the signature pair alone, so each
    class is decided from its key, and `checked` is the sum of class weight
    times compared positions. Formulas are walked only when a class
    disagrees, to list the disagreement rows in enumeration order, at most
    INSTANTIATION_CAP of them; `capped` says that some were left out."""
    report = EquivalenceReport("equivalence", language[2])
    labels, lefts, rights = zip(*pairs)
    for base, own in (left, lefts), (right, rights):
        if len(set(own)) == len(pairs):  # the masks meet over base's states, not relabelled
            bits = [base.index[s] for s in own]  # per position
            break
    else:  # neither side has one state per position: over the positions themselves
        base, bits = None, range(len(pairs))
    everywhere = reduce(or_, (1 << b for b in bits))

    def lift(ev, images):  # carries a mask over ev's states onto the positions' bits
        table = {}
        for s, b in zip(images, bits):
            table[1 << ev.index[s]] = table.get(1 << ev.index[s], 0) | 1 << b
        return (lambda mask: mask) if ev is base else (lambda mask: relabel(mask, table))

    from_left, from_right = lift(left, lefts), lift(right, rights)
    left_masks, right_masks = left.algebra.masks, right.algebra.masks

    def compare(ls, rs):  # both sides' masks, positions compared, positions differing
        lt, lf = map(from_left, left_masks(ls))
        rt, rf = map(from_right, right_masks(rs))
        within = (lt | lf) & everywhere if left_defined_only else everywhere
        return lt, lf, rt, rf, within.bit_count(), ((lt ^ rt) | (lf ^ rf)) & within

    _, weights, walk, keys = _classes(language, (left, right))
    report.classes = len(keys)
    verdicts = [compare(ls, rs) for _, ls, rs in keys]  # per class
    report.checked = sum(w * v[4] for w, v in zip(weights, verdicts))
    if any(v[5] for v in verdicts):
        rows = sum(w * v[5].bit_count() for w, v in zip(weights, verdicts))
        report.capped = rows > INSTANTIATION_CAP
        found = ((f, label, v, b) for f, c in zip(walk(None), walk())
                 if (v := verdicts[c])[5] for label, b in zip(labels, bits) if v[5] >> b & 1)
        for f, label, (lt, lf, rt, rf, _, _), b in islice(found, min(rows, INSTANTIATION_CAP)):
            report.record(f, label, truth_at(lt, lf, b), truth_at(rt, rf, b))
    return report


def check_L_equiv_hms_klm(m: HMSModel, depth: int) -> EquivalenceReport:
    """Agreement of the lattice model built from m with m itself, at every
    corresponding world copy of every state."""
    klm, corr = l_transform(m)
    language = m.atoms, m.frame.agents, depth, Lang.L
    formula_count(*language)  # refuses what the enumerator refuses, before set-up
    ev_hms = DenotationEvaluator(m)
    pairs = [(f"{s}/{v}", s, v)
             for s in ev_hms.states for v in sorted(corr[s], key=WorldId.sort_key)]
    return _equivalence(language, ev_hms, Evaluator(klm, Lang.L), pairs)


def check_L_equiv_klm_hms(k: KripkeLatticeModel, depth: int) -> EquivalenceReport:
    """Agreement of k with its space-lattice transform at every w_X."""
    hms = h_transform(k)
    language = k.base.atoms, k.base.agents, depth, Lang.L
    formula_count(*language)
    ev_klm = Evaluator(k, Lang.L)
    return _equivalence(language, ev_klm, DenotationEvaluator(hms),
                        [(w, w, str(w)) for w in ev_klm.states])


def check_equiv_fh_klm(x, lang: Lang, depth: int) -> EquivalenceReport:
    """Agreement between an awareness structure and its lattice counterpart
    (either direction), at world copies w_X with X covering the formula's
    atoms. Both semantics are two-valued there."""
    from .fh import FHEvaluator, FHModel

    if isinstance(x, FHModel):
        fh, klm = x, k_transform(x)
    elif isinstance(x, KripkeLatticeModel):
        fh, klm = fh_transform(x), x
    else:
        raise TypeError(f"expected an FH or Kripke lattice model, got {type(x).__name__}")
    language = klm.base.atoms, klm.base.agents, depth, lang
    formula_count(*language)
    # world w of the awareness structure stands for every copy w_X
    pairs = [(v, v, w) for w in sorted(klm.base.worlds)
             for v in (WorldId(w, X) for X in subsets(klm.base.atoms))]
    return _equivalence(language, Evaluator(klm, lang), FHEvaluator(fh, lang), pairs,
                        left_defined_only=True)


# ---------------------------------------------------------------------------
# validity


# each semantics and the kind of model it reads; its language ends its name
SEMANTICS = {"HMS": "hms", "KLM_L": "klm", "KLM_LKA": "klm", "FH_L": "fh", "FH_LKA": "fh"}
_MODEL_CLASSES = {"hms": "HMSModel", "klm": "KripkeLatticeModel", "fh": "FHModel"}


class ValidityChecker:
    """Guarded validity over a fixed corpus, with one evaluator per model
    shared across queries."""

    def __init__(self, models, semantics: str):
        if semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {semantics!r}")
        takes = SEMANTICS[semantics]
        self.lang = Lang.LKA if semantics.endswith("LKA") else Lang.L
        self.models = list(models)
        if not self.models:
            raise ValueError("empty model corpus")
        for m in self.models:
            if getattr(type(m), "kind", None) != takes:
                raise ValueError(f"semantics {semantics} takes {_MODEL_CLASSES[takes]} models, "
                                 f"not {type(m).__name__}")
        self.semantics = semantics
        self.evaluators = [m.evaluator(self.lang) for m in self.models]

    def check(self, f: Formula):
        """Validity of f and its witnesses: (model index, state) pairs."""
        witnesses = [(idx, str(s)) for idx, ev in enumerate(self.evaluators)
                     for s in ev.check(f)[1]]
        return not witnesses, witnesses


def valid_over(models, f: Formula, semantics: str):
    """Guarded validity: truth at every state where all the formula's atoms
    are defined. The two-valued awareness-structure semantics has no
    undefined states, so there it is plain validity. Atoms or agents
    outside a model's are refused."""
    checker = ValidityChecker(models, semantics)
    for m in checker.models:
        require_signature(f, *m.signature)
    return checker.check(f)


# ---------------------------------------------------------------------------
# axiom suites


def compile_program(f: Formula, holes, lang):
    """f as a kernel: one generated straight-line Python function of algebra
    ops, recorded by `fold` in lang (A and X unfold as in fold; a shared
    subterm is one step), each step assigning the next slot after the slots
    of the placeholder atoms `holes`. f's agents are agent slots, the ints 0,
    1, ..., which no parsed formula names. The source holds only op names and
    slot indices: atom names and agent slots are bound constants. Gives
    run(alg, sigs, agents), the signature of f in alg with the signatures
    sigs in the holes and agents[j] in agent slot j, in every algebra alike:
    `sliced.Sliced` at any width, and the term algebra."""
    lines, consts = [], {}

    def const(x):  # an atom name or agent slot, bound to the next k{i}
        return consts.setdefault(x, f"k{len(consts)}")

    def emit(op, *args):
        lines.append(f"        v{len(holes) + len(lines)} = alg.{op}({', '.join(args)})\n")
        return f"v{len(holes) + len(lines) - 1}"

    out = fold(f, SimpleNamespace(
        lang=lang, top=lambda: emit("top"), atom=lambda p: emit("atom", const(p)),
        neg=partial(emit, "neg"), conj=partial(emit, "conj"),
        know=lambda a, v: emit("know", f"g[{const(a)}]", v),
        aware=lambda a, v: emit("aware", f"g[{const(a)}]", v)),
        {h: f"v{i}" for i, h in enumerate(holes)})
    exec(f"def bind({', '.join(consts.values())}):\n    def run(alg, s, g):\n"
         f"        [{', '.join(f'v{i}' for i in range(len(holes)))}] = s\n{''.join(lines)}"
         f"        return {out}\n    return run\n", scope := {})
    return scope["bind"](*consts)


class Schema(Frozen):
    """An axiom schema, or with premises an inference rule: valid premises
    give a valid conclusion, `build`. A rule's `side` gives the atoms that
    break its side condition (none for an instance) by `|` and `^` alone,
    on frozensets and packed atom rows alike. Its programs are kept per
    language once compiled, outside the fields that are compared and shown."""

    _fields = ("id", "meta_arity", "agent_arity", "build", "premises", "side")

    def __init__(self, id: str, meta_arity: int, agent_arity: int, build, premises=None,
                 side=None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "meta_arity", meta_arity)
        object.__setattr__(self, "agent_arity", agent_arity)
        object.__setattr__(self, "build", build)  # (metas tuple, agents tuple) -> Formula
        # (metas tuple, agents tuple) -> tuple of Formulas
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "side", side)  # atom sets of the metas -> atoms breaking it
        object.__setattr__(self, "_programs", {})  # Lang -> programs

    def programs(self, lang):
        """The programs of the premises, then of `build`, in lang, over the
        metavariables $0, $1, ..., atoms the parser never gives, and the
        agent slots (see compile_program); compiled on first use."""
        if lang not in self._programs:
            ms, ags = [Atom(f"${i}") for i in range(self.meta_arity)], range(self.agent_arity)
            self._programs[lang] = [compile_program(f, ms, lang) for f in (
                *(self.premises(ms, ags) if self.premises else ()), self.build(ms, ags))]
        return self._programs[lang]


_PL_SCHEMAS = (
    Schema("PL-Top", 0, 0, lambda ms, ags: TOP),
    Schema("PL1", 2, 0, lambda ms, ags: implies(ms[0], implies(ms[1], ms[0]))),
    Schema("PL2", 3, 0, lambda ms, ags: implies(
        implies(ms[0], implies(ms[1], ms[2])),
        implies(implies(ms[0], ms[1]), implies(ms[0], ms[2])))),
    Schema("PL3", 2, 0, lambda ms, ags: implies(
        implies(Not(ms[0]), Not(ms[1])), implies(ms[1], ms[0]))),
)


# Each suite is built once per process, so that every check shares its
# schemas' programs.
@cache
def hms_suite() -> AxiomSuite:
    A, K = Aware, Know
    return AxiomSuite("HMS", _PL_SCHEMAS + (
        Schema("Symmetry", 1, 1,
               lambda ms, ags: iff(A(ags[0], Not(ms[0])), A(ags[0], ms[0]))),
        Schema("Awareness Conjunction", 2, 1,
               lambda ms, ags: iff(
                   A(ags[0], And(ms[0], ms[1])),
                   And(A(ags[0], ms[0]), A(ags[0], ms[1])))),
        Schema("Awareness Knowledge Reflection", 1, 2,
               lambda ms, ags: iff(A(ags[0], ms[0]), A(ags[0], K(ags[1], ms[0])))),
        Schema("T", 1, 1, lambda ms, ags: implies(K(ags[0], ms[0]), ms[0])),
        Schema("4", 1, 1,
               lambda ms, ags: implies(K(ags[0], ms[0]), K(ags[0], K(ags[0], ms[0])))),
    ), (MP, RK_INFERENCE))


@cache
def lga_suite() -> AxiomSuite:
    A, K, X = Aware, Know, ExplicitKnow
    return AxiomSuite("LGA", _PL_SCHEMAS + (
        Schema("K-Distribution", 2, 1, lambda ms, ags: implies(
            And(K(ags[0], ms[0]), implies(K(ags[0], ms[0]), K(ags[0], ms[1]))),
            K(ags[0], ms[1]))),
        Schema("Explicit Knowledge", 1, 1, lambda ms, ags: iff(
            X(ags[0], ms[0]), And(K(ags[0], ms[0]), A(ags[0], ms[0])))),
        Schema("A1", 2, 1, lambda ms, ags: iff(
            A(ags[0], And(ms[0], ms[1])), And(A(ags[0], ms[0]), A(ags[0], ms[1])))),
        Schema("A2", 1, 1, lambda ms, ags: iff(A(ags[0], Not(ms[0])), A(ags[0], ms[0]))),
        Schema("A3", 1, 2, lambda ms, ags: iff(
            A(ags[0], X(ags[1], ms[0])), A(ags[0], ms[0]))),
        Schema("A4", 1, 2, lambda ms, ags: iff(
            A(ags[0], A(ags[1], ms[0])), A(ags[0], ms[0]))),
        Schema("A5", 1, 2, lambda ms, ags: iff(
            A(ags[0], K(ags[1], ms[0])), A(ags[0], ms[0]))),
        Schema("A11", 1, 1, lambda ms, ags: implies(
            A(ags[0], ms[0]), K(ags[0], A(ags[0], ms[0])))),
        Schema("A12", 1, 1, lambda ms, ags: implies(
            Not(A(ags[0], ms[0])), K(ags[0], Not(A(ags[0], ms[0]))))),
    ), (MP, K_INFERENCE))


SCHEMA_5 = Schema("5", 1, 1, lambda ms, ags: implies(
    Not(Know(ags[0], ms[0])), Know(ags[0], Not(Know(ags[0], ms[0])))))


MP = Schema("MP", 2, 0, lambda ms, ags: ms[1],
            premises=lambda ms, ags: (ms[0], implies(ms[0], ms[1])))
K_INFERENCE = Schema("K-Inference", 1, 1, lambda ms, ags: Know(ags[0], ms[0]),
                     premises=lambda ms, ags: (ms[0],))
# One rule for groups of one and of two premises: the group of one f is the
# diagonal f1 = f2, as f & f has f's signature on every model class the HMS
# suite reads. `side`: the atoms of ψ outside At(φ1) ∪ At(φ2).
RK_INFERENCE = Schema(
    "RK-Inference", 3, 1,
    lambda ms, ags: implies(And(Know(ags[0], ms[0]), Know(ags[0], ms[1])), Know(ags[0], ms[2])),
    premises=lambda ms, ags: (implies(And(ms[0], ms[1]), ms[2]),),
    side=lambda ats: (ats[0] | ats[1] | ats[2]) ^ (ats[0] | ats[1]))


class AxiomSuite(Frozen):
    _fields = ("name", "schemas", "rules")

    def __init__(self, name: str, schemas: tuple, rules: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "schemas", schemas)
        object.__setattr__(self, "rules", rules)  # Schemas with premises


def _suite_semantics(suite, model):
    kind = getattr(type(model), "kind", None)
    if kind == "klm":
        return "KLM_L" if suite.name == "HMS" else "KLM_LKA"
    if kind == "hms":
        if suite.name != "HMS":
            raise ValueError("the LGA suite does not apply to space-lattice models")
        return "HMS"
    if kind == "fh":
        if suite.name != "LGA":
            raise ValueError("the HMS suite does not apply to awareness structures")
        return "FH_LKA"
    raise TypeError(f"unsupported model class {type(model).__name__}")


def _model_signature(models):
    """The atoms and agents of the corpus. Each evaluator knows only its own
    model's atoms and agents, so models that differ in them are refused."""
    sigs = [m.signature for m in models]
    for sig in sigs[1:]:
        if sig != sigs[0]:
            raise ValueError("the models differ in signature: " + " vs ".join(
                f"atoms {sorted(at)}, agents {sorted(ag)}" for at, ag in (sigs[0], sig)))
    return sigs[0] if sigs else (frozenset(), frozenset())


def _members(mask, C, m):
    """The set bits t of mask, each with its class tuple over m slots of C
    classes, in product order."""
    return ((t, key) for t, (key, f) in enumerate(zip(product(range(C), repeat=m),
                                                      bin(mask)[:1:-1])) if f == "1")


def check_axiom_suite(models, suite: AxiomSuite, inst_depth: int,
                      extra_schemas=(), check_rules=True):
    """Instantiate every schema and rule with all metavariable fillings up to
    the given depth and all agent tuples, apply guarded validity over the
    model corpus, and report per schema and per rule. A rule is checked as
    validity preservation over the same corpus (a necessary condition only).
    Each schema and rule is decided per tuple of filling classes: its kernel
    runs once per agent tuple and model over all the class tuples
    (bit-sliced, in chunks of at most SLICE_BITS bits; on formula-list
    awareness sets each tuple carries its term, see `sliced.Listed`), and
    at width 1 only to name a failing class tuple's witness. Past
    INSTANTIATION_CAP instances a failure is listed per class tuple, with its
    first instance and instance count. A lattice model is decided on its
    awareness structure (below); one not well formed, or under L not
    partitional, is refused, as its evaluator refuses a space-lattice model
    that fails a frame check."""
    if not models:
        raise ValueError("empty model corpus")
    semantics = _suite_semantics(suite, models[0])
    for m in models[1:]:
        if _suite_semantics(suite, m) != semantics:
            raise ValueError("mixed model classes in one corpus")
    if semantics == "KLM_L":
        for m in models:
            _require_partitional(m)
    atoms, agents = _model_signature(models)
    language = atoms, agents, inst_depth, Lang.L if suite.name == "HMS" else Lang.LKA
    fillings = formula_count(*language)
    agent_list = sorted(agents)
    name = str  # of a witness state
    if semantics.startswith("KLM"):
        # The FH-transform preserves satisfaction: at a copy w_X covering its
        # atoms a formula has its value at w in the awareness structure, else
        # none. So worlds are swept, and the first False copy in omega order
        # is w_At of the first False world. Under L the lattice K_a and the
        # structure's (K_a and awareness) agree on serial relations, which
        # the partitional check above ensures.
        models, semantics = [fh_transform(m) for m in models], "FH" + semantics[3:]
        name = lambda w: str(WorldId(w, atoms))
    checker = ValidityChecker(models, semantics)
    evaluators = checker.evaluators
    reps, weights, walk, keys = _classes(language, evaluators)
    ids = cache(lambda: list(walk()))  # each filling's class, once a failure is listed by them
    # per arity m the instances of each class tuple over m slots, in product order
    by_tuple = cache(lambda m: [prod(ws) for ws in product(weights, repeat=m)])
    atom_sets, *fills = zip(*keys)  # per class its atom set, per model its signatures
    rules = list(suite.rules) if check_rules else []
    report = {"kind": "axioms", "suite": suite.name, "depth": inst_depth,
              "checked": 0, "classes": len(reps), "class_tuples": 0, "schemas": {},
              "rules": {}, "failures": [],
              "rule_note": "rules checked as validity preservation over this corpus only"
              + (f", on every filling up to depth {inst_depth}" if rules else "")}
    schemas = list(suite.schemas) + list(extra_schemas)
    per_instance = sum(len(agent_list) ** s.agent_arity * fillings ** s.meta_arity
                       for s in schemas + rules) <= INSTANTIATION_CAP
    C = len(reps)
    size = max(len(ev.states) for ev in evaluators) + len(atoms)  # rows per sliced value
    # per model its algebra and its classes' rows
    tables = [(ev.algebra, ev.algebra.classes(atom_sets, fill))
              for ev, fill in zip(evaluators, fills)]

    @cache
    def chunked(n):
        """The tuples of arity n are cut into chunks, one per filling of the
        leading k slots, so that a sliced value over the trailing m slots fits
        in SLICE_BITS. Gives m, a full chunk's count (Σ weights)^m, the prefixes
        and a map from each to its weight and per model inputs, made on first use."""
        k = 0
        while k < n and C ** (n - k) * size > SLICE_BITS:
            k += 1
        per_model = [((wide := alg.over(C ** (n - k))), wide.fixed(by_class),
                      wide.slots(by_class, C, n - k)) for alg, by_class in tables]
        return n - k, sum(weights) ** (n - k), list(product(range(C), repeat=k)), Filled(
            lambda prefix: (prod(weights[c] for c in prefix), [
                (alg, [*(fixed[c] for c in prefix), *slots]) for alg, fixed, slots in per_model]))

    def false_at(program, ags, key):
        """The witness of the failing class tuple key at the agent tuple ags,
        named by the evaluators: the first state of the first model where the
        program's instance is False."""
        for ev, fill in zip(evaluators, fills):
            alg = ev.algebra
            if bad := alg.masks(program(alg, [fill[c] for c in key], ags))[1]:
                return name(ev.states[(bad & -bad).bit_length() - 1])

    spent = 0  # class tuples evaluated, by schemas and rules alike
    capped = False
    for schema in schemas + rules:
        rule = schema.premises is not None
        held, listed, verdict = (("premise_valid", "violations", "preserved") if rule
                                 else ("checked", "failures", "passed"))
        entry = {held: 0, "vacuous": 0, listed: []} if rule else {held: 0, listed: []}
        report["rules" if rule else "schemas"][schema.id] = entry
        n, side = schema.meta_arity, schema.side
        *runs, conclusion = schema.programs(checker.lang)
        m, whole, prefixes, chunk = chunked(n)
        full = (1 << (W := C ** m)) - 1
        # per chunk the tuples side leaves in, read on its atom rows (the same on every model)
        allowed_in = side and Filled(lambda prefix: full & ~reduce(or_, (
            broken >> i * W for broken in [side([v[1] for v in chunk[prefix][1][0][1]])]
            for i in range(len(atoms))), 0))

        def instances(mask):  # per class tuple in mask, the product of its classes' weights
            if mask in (0, full):
                return whole if mask else 0
            return sum(compress(by_tuple(m), map("1".__eq__, bin(mask)[:1:-1])))

        for ags in product(agent_list, repeat=schema.agent_arity):
            failing = {}  # class tuple -> (witness state, instances)
            valid_premises = vacuous = 0  # instances
            for prefix in prefixes:
                (w, inputs), allowed = chunk[prefix], allowed_in[prefix] if side else full
                evaluated, left = allowed, INSTANTIATION_CAP + 1 - spent
                if allowed.bit_count() > left:  # the cap falls here: the tuples past it are left
                    t, _ = next(islice(_members(allowed, C, m), left, None))
                    evaluated &= (1 << t) - 1
                spent += evaluated.bit_count()
                # the premises on every model, the conclusion where they all hold
                vac = 0
                if evaluated:
                    for run in runs:
                        for alg, slots in inputs:
                            vac |= alg.false(run(alg, slots, ags))
                    vac &= evaluated
                    bad = 0
                    for alg, slots in inputs if evaluated ^ vac else ():
                        bad |= alg.false(conclusion(alg, slots, ags))
                    bad &= evaluated ^ vac
                    for _, rest in _members(bad, C, m) if bad else ():
                        key = (*prefix, *rest)  # its witness from its own run
                        failing[key] = (false_at(conclusion, ags, key),
                                        prod(weights[c] for c in key))
                vacuous += w * instances(vac)
                valid_premises += w * instances(evaluated ^ vac)
                if evaluated != allowed:  # a tuple of this chunk was left
                    entry["capped"] = capped = True
                    break
            entry[held] += valid_premises
            if rule:
                entry["vacuous"] += vacuous
            if per_instance and failing:
                metas = enumerate_formulas(*language)
                failures = [(ms, failing[key][0], {}) for ms, key in zip(
                    product(metas, repeat=n), product(ids(), repeat=n)) if key in failing]
            else:
                failures = [([reps[c] for c in key], state, {"instances": w})
                            for key, (state, w) in failing.items()]
            for ms, state, extra in failures:
                failure = {"formula": to_text(schema.build(ms, ags)), "state": state,
                           "left": "not True", "right": "True", **extra}
                if rule:
                    failure = {"premises": [to_text(f) for f in schema.premises(ms, ags)],
                               **failure}
                else:
                    report["failures"].append({"schema": schema.id, **failure})
                entry[listed].append(failure)
            if capped:
                break
        if not rule:  # the rules come last, so class_tuples counts the schemas' only
            report["checked"] += entry[held]
            report["class_tuples"] = spent
        entry[verdict] = not entry[listed] and not capped
    if capped:
        report["capped"] = True
    report["passed"] = not capped and not report["failures"] and all(
        r["preserved"] for r in report["rules"].values()
    )
    return report
