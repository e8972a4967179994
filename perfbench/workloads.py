"""Seeded inputs, fixed job lists and known answers for the three workloads.

Every input is built here from the seed, never by the program's own random
generators, so a change to the program cannot change the workload. Every
expected answer comes from the theory: formula counts by recurrence (not by
enumeration), soundness of the suites on their model classes, the pinned
schema-5 witness, and the frame laws of the H-transform output.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass

AGENTS = ("a", "b")

# Suite, worlds and atoms of each corpus model. The sizes are fixed and
# only the relations, valuations and awareness are drawn, so that the cost
# of a run does not swing with the seed. A job's cost is set mostly by its
# atoms (about 0.05, 0.15 and 0.35 s for 1, 2 and 3) and, for HMS, by its
# worlds too (up to 1 s); an LGA job costs about the same whatever its
# worlds and relations. With one HMS model of every shape and two LGA
# models, the median falls in the middle of the 2-atom LGA jobs and the tail
# (ten jobs beyond it) among the 3-atom ones, rather than on the edge
# between two costs. Jobs of like cost are spread over the pass, so that a
# slow stretch of the host does not hit all of them at once. Partitional
# models with awareness constant on cells get the HMS suite; arbitrary
# relations with awareness constant on connected components get the LGA
# suite (the criterion-5 model classes).
LGA_COPIES = 2
CORPUS_SHAPES = tuple(
    (suite, worlds, atoms)
    for copy in range(LGA_COPIES)
    for worlds in (1, 2, 3, 4)
    for suite in ("hms", "lga") if suite == "lga" or copy == 0
    for atoms in (1, 2, 3)
)

# Atoms of each cli-frames model. Frame size, and with it every command's
# cost, grows about fivefold per atom. With three 6-atom models the median
# falls among their `check` and `equiv` on the input (0.7 to 0.9 s), whose
# time is mostly Python work rather than process start-up, and the tail is
# the largest of their three `transform`. Every model has four worlds, the
# same cell sizes per agent and awareness of the same number of atoms per
# cell; the seed picks which worlds share a cell, which atoms each cell is
# aware of, and the valuation. Free cell shapes make a 6-atom frame's cost
# vary by about 20% from seed to seed.
FRAME_ATOMS = (4, 6, 6, 6)
FRAME_WORLDS = 4
FRAME_CELLS = {"a": (2, 2), "b": (1, 2, 1)}
FRAME_AWARE_SHARE = 0.6

FRAME_CHECKS = ("lattice", "projections", "Conf", "Gref", "Stat", "PPI", "PPK")

# Schema ids with (metavariable arity, agent arity) of each suite, as the
# axiom lists define them.
PL_SCHEMAS = {"PL-Top": (0, 0), "PL1": (2, 0), "PL2": (3, 0), "PL3": (2, 0)}
SUITE_SCHEMAS = {
    "hms": {**PL_SCHEMAS, "Symmetry": (1, 1), "Awareness Conjunction": (2, 1),
            "Awareness Knowledge Reflection": (1, 2), "T": (1, 1), "4": (1, 1)},
    "lga": {**PL_SCHEMAS, "K-Distribution": (2, 1), "Explicit Knowledge": (1, 1),
            "A1": (2, 1), "A2": (1, 1), "A3": (1, 2), "A4": (1, 2), "A5": (1, 2),
            "A11": (1, 1), "A12": (1, 1)},
}
SCHEMA_5 = {"5": (1, 1)}
SCHEMA_5_WITNESS = {"formula": "~(~K{b} l & ~K{b} ~K{b} l)", "state": "w2@{i,l}"}

# Words a report may use to say that its verdict covers less than the full
# bounded space (a cap, a truncation, or an "incomplete" verdict).
SCOPE_WORDS = ("capped", "truncated", "incomplete")

TRADE_BASE = {
    "atoms": ["i", "l"],
    "agents": ["b", "o"],
    "worlds": ["w1", "w2", "w3"],
    "relations": {
        "b": [["w1", "w1"], ["w2", "w2"], ["w2", "w3"], ["w3", "w2"], ["w3", "w3"]],
        "o": [[w, v] for w in ("w1", "w2", "w3") for v in ("w1", "w2", "w3")],
    },
    "valuation": {"i": ["w1"], "l": ["w1", "w2"]},
}
TRADE_AWARENESS = {
    "b": {"w1": ["i", "l"], "w2": ["i"], "w3": ["i"]},
    "o": {"w1": ["i", "l"], "w2": ["i", "l"], "w3": ["i", "l"]},
}
TRADE_KLM = {"kind": "klm", **TRADE_BASE, "awareness": TRADE_AWARENESS}
TRADE_FH = {"kind": "fh", **TRADE_BASE, "awareness_sets": {
    a: {w: {"kind": "atom-generated", "atoms": atoms} for w, atoms in per.items()}
    for a, per in TRADE_AWARENESS.items()}}


# ---------------------------------------------------------------------------
# closed-form formula counts


def _pair_counts(counts):
    """Unordered pairs (with repetition) of formulas, keyed by the union of
    their atom masks."""
    items = sorted(counts.items())
    out = {}
    for x, (m1, c1) in enumerate(items):
        out[m1] = out.get(m1, 0) + c1 * (c1 + 1) // 2
        for m2, c2 in items[x + 1:]:
            out[m1 | m2] = out.get(m1 | m2, 0) + c1 * c2
    return out


def formula_counts(n_atoms, n_agents, depth, lka=False):
    """Number of formulas of depth at most `depth`, keyed by the bitmask of
    the atoms they mention.

    Depth 0 holds Top and the atoms. Depth d adds the negation and one K (and
    under LKA one A) per agent of every depth-(d-1) formula, and every
    conjunction of an unordered pair of depth <= d-1 formulas with at least
    one child of depth d-1.
    """
    exact = {0: 1}
    for i in range(n_atoms):
        exact[1 << i] = 1
    upto, below = dict(exact), {}
    unary = 1 + n_agents * (2 if lka else 1)
    for _ in range(depth):
        level = {m: c * unary for m, c in exact.items()}
        for m, c in _pair_counts(upto).items():
            level[m] = level.get(m, 0) + c
        for m, c in _pair_counts(below).items():
            level[m] -= c
        below = dict(upto)
        for m, c in level.items():
            upto[m] = upto.get(m, 0) + c
        exact = level
    return upto


def lattice_pairs(n_atoms, n_worlds, depth):
    """Formula x state pairs of an L-equivalence check between a lattice
    model and its space-lattice transform: every formula at every world copy
    w_X, one copy per state."""
    return sum(formula_counts(n_atoms, 2, depth).values()) * n_worlds * 2 ** n_atoms


def fh_pairs(n_atoms, n_worlds, depth, lka):
    """Formula x state pairs of an FH-equivalence check: every formula at
    every w_X whose vocabulary X covers the formula's atoms."""
    return sum(c * n_worlds * 2 ** (n_atoms - bin(m).count("1"))
               for m, c in formula_counts(n_atoms, 2, depth, lka).items())


def suite_instances(schemas, n_atoms, n_agents, depth, lka):
    metas = sum(formula_counts(n_atoms, n_agents, depth, lka).values())
    return {sid: n_agents ** ag * metas ** mv for sid, (mv, ag) in schemas.items()}


# ---------------------------------------------------------------------------
# verdict checks: each returns None when the verdict is the known answer,
# otherwise a one-line reason


def _scope_limited(report):
    """True when the report says its verdict covers less than the bounded
    space: a capped schema, a truncated sweep or an incomplete verdict."""
    entries = [report] + list(report.get("schemas", {}).values())
    for e in entries:
        if any(e.get(word) for word in SCOPE_WORDS):
            return True
        if str(e.get("verdict", "")).lower() in SCOPE_WORDS:
            return True
    return False


def check_equiv(report, expected_checked):
    """An equivalence report must agree everywhere and check every pair."""
    failures = report.get("failures")
    if failures is None:
        return "no failures list"
    if failures:
        return f"{len(failures)} disagreements"
    if report.get("checked") != expected_checked:
        return f"checked {report.get('checked')} pairs, expected {expected_checked}"
    return None


def check_suite(report, schemas, expected, witness=None, rules=()):
    """A suite report must name every schema, fail only the schema carrying
    `witness` (with that witness first), keep every rule, and cover every
    instance unless it says its scope is limited."""
    got = report.get("schemas", {})
    if set(got) != set(schemas):
        return f"schemas {sorted(got)} differ from {sorted(schemas)}"
    for sid, entry in got.items():
        failures = entry.get("failures", [])
        if witness and sid in witness:
            if not failures:
                return f"schema {sid} did not fail"
            first = failures[0]
            want = witness[sid]
            if (first.get("formula"), first.get("state")) != (want["formula"], want["state"]):
                return f"schema {sid} witness {first.get('formula')} at {first.get('state')}"
        elif failures:
            return f"schema {sid} failed on a sound model class"
    flagged = [f for f in report.get("failures", []) if f.get("schema") not in (witness or {})]
    if flagged:
        return f"{len(flagged)} report-level failures"
    for rule in rules:
        entry = report.get("rules", {}).get(rule)
        if entry is None or not entry.get("preserved") or entry.get("violations"):
            return f"rule {rule} not preserved"
    if not _scope_limited(report):
        total = sum(expected.values())
        if report.get("checked") != total:
            return f"checked {report.get('checked')} instances, expected {total}"
        for sid, n in expected.items():
            if got[sid].get("checked") != n:
                return f"schema {sid} checked {got[sid].get('checked')}, expected {n}"
    return None


def check_cli(code, body, expect):
    """A CLI verdict: exit 0, or exit 1 only when the report carries a scope
    flag and no failure, plus the command's own known answer."""
    if body is None:
        return f"exit {code} without a JSON report"
    if code not in (0, 1) or (code == 1 and not _scope_limited(body)):
        return f"exit code {code}"
    kind = expect["kind"]
    if kind == "equiv":
        return check_equiv(body, expect["checked"])
    props = body.get("properties", {})
    missing = [c for c in FRAME_CHECKS if props.get(c) is not True]
    if missing or not all(props.values()) or body.get("passed") is not True:
        return f"frame checks failed or missing: {missing}"
    if kind == "transform" and not os.path.exists(expect["output"]):
        return "transform wrote no output file"
    return None


# ---------------------------------------------------------------------------
# seeded model generation


def _partition(rng, worlds):
    cells = []
    for w in worlds:
        if cells and rng.random() < 0.6:
            rng.choice(cells).append(w)
        else:
            cells.append([w])
    return cells


def _names(n_worlds, n_atoms):
    return ([f"w{i}" for i in range(1, n_worlds + 1)],
            [f"p{i}" for i in range(1, n_atoms + 1)])


def _body(rng, worlds, atoms, relations, awareness):
    """A lattice-model body with a seeded valuation."""
    valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in atoms}
    return {"kind": "klm", "atoms": atoms, "agents": list(AGENTS), "worlds": worlds,
            "relations": relations, "valuation": valuation, "awareness": awareness}


def partitional_body(rng, n_worlds, n_atoms):
    """A lattice model whose relations are partitions and whose awareness is
    constant on each information cell."""
    worlds, atoms = _names(n_worlds, n_atoms)
    relations, awareness = {}, {}
    for a in AGENTS:
        cells = _partition(rng, worlds)
        relations[a] = [[w, v] for c in cells for w in c for v in c]
        awareness[a] = {}
        for c in cells:
            aw = [p for p in atoms if rng.random() < 0.6]
            awareness[a].update({w: aw for w in c})
    return _body(rng, worlds, atoms, relations, awareness)


def frame_body(rng, n_atoms):
    """A partitional lattice model with the fixed cell shape of cli-frames."""
    worlds, atoms = _names(FRAME_WORLDS, n_atoms)
    aware = round(FRAME_AWARE_SHARE * n_atoms)
    relations, awareness = {}, {}
    for a, sizes in FRAME_CELLS.items():
        order = rng.sample(worlds, len(worlds))
        cells = [order[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
        relations[a] = [[w, v] for c in cells for w in c for v in c]
        awareness[a] = {}
        for c in cells:
            aw = sorted(rng.sample(atoms, aware))
            awareness[a].update({w: aw for w in c})
    return _body(rng, worlds, atoms, relations, awareness)


def arbitrary_body(rng, n_worlds, n_atoms):
    """A lattice model with arbitrary relations and awareness made constant
    on each relation-connected component."""
    worlds, atoms = _names(n_worlds, n_atoms)
    relations, awareness = {}, {}
    for a in AGENTS:
        pairs = [[w, v] for w in worlds for v in worlds if rng.random() < 0.4]
        per = {w: {p for p in atoms if rng.random() < 0.6} for w in worlds}
        changed = True
        while changed:
            changed = False
            for w, v in pairs:
                joint = per[w] | per[v]
                if per[w] != joint or per[v] != joint:
                    per[w] = per[v] = joint
                    changed = True
        relations[a] = pairs
        awareness[a] = {w: sorted(s) for w, s in per.items()}
    return _body(rng, worlds, atoms, relations, awareness)


def build_klm(body):
    """A KripkeLatticeModel from a body, through the model constructors."""
    from awarekit.klm import KripkeLatticeModel
    from awarekit.kripke import KripkeModel

    base = KripkeModel.make(body["atoms"], body["agents"], body["worlds"],
                            {a: [tuple(p) for p in ps] for a, ps in body["relations"].items()},
                            body["valuation"])
    return KripkeLatticeModel.make(base, body["awareness"])


def write_json(path, body):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Job:
    """One public API call or one CLI command, with its known answer.

    `run` returns the verdict; `check` maps it to None (correct) or a reason.
    A `once` job runs in the first pass only: it is too long to repeat.
    """

    label: str
    run: object
    check: object
    cli: list | None = None  # CLI arguments, for jobs run in a child process
    once: bool = False


@dataclass
class Workload:
    jobs: list
    shapes: dict  # histogram of model shapes: worlds, atoms, states

    def __post_init__(self):
        labels = [job.label for job in self.jobs]
        assert len(set(labels)) == len(labels), "job labels key the job times"


def _hist(shapes):
    return dict(sorted(Counter(shapes).items()))


# Jobs look the program's functions up when they run, through their modules,
# so that a traced run's wrappers see every call.


def setup_equiv_trade(seed, workdir):
    """The inputs are the fixed trade models, so the seed changes nothing;
    a seeded job order would only add order effects (heap size, caches) to
    the per-job times."""
    from awarekit import verify
    from awarekit.formula import Lang
    from awarekit.modelio import load_model
    from awarekit.transforms import h_transform

    klm_path = os.path.join(workdir, "trade.klm.json")
    fh_path = os.path.join(workdir, "trade.fh.json")
    write_json(klm_path, TRADE_KLM)
    write_json(fh_path, TRADE_FH)
    klm, fh = load_model(klm_path), load_model(fh_path)
    hms = h_transform(klm)

    depth = 3
    lattice = lattice_pairs(2, 3, depth)

    def equiv(name, *args):
        return lambda: getattr(verify, name)(*args).to_json()

    def expect(n):
        return lambda report: check_equiv(report, n)

    jobs = [
        Job("klm_hms L", equiv("check_L_equiv_klm_hms", klm, depth), expect(lattice)),
        Job("hms_klm L", equiv("check_L_equiv_hms_klm", hms, depth), expect(lattice)),
    ]
    for lang, lka in ((Lang.L, False), (Lang.LKA, True)):
        n = fh_pairs(2, 3, depth, lka)
        for name, model in (("fh", fh), ("klm", klm)):
            jobs.append(Job(f"fh_klm {lang.value} on {name}",
                            equiv("check_equiv_fh_klm", model, lang, depth), expect(n)))
    return Workload(jobs, {"worlds=3 atoms=2 states=12": len(jobs)})


def setup_axioms_corpus(seed, workdir):
    from awarekit import verify
    from awarekit.modelio import load_model

    rng = random.Random(seed)
    suites = {"hms": verify.hms_suite(), "lga": verify.lga_suite()}
    jobs, shapes = [], []
    for i, (suite, n_worlds, n_atoms) in enumerate(CORPUS_SHAPES):
        make = partitional_body if suite == "hms" else arbitrary_body
        model = build_klm(make(rng, n_worlds, n_atoms))
        expected = suite_instances(SUITE_SCHEMAS[suite], n_atoms, 2, 1, suite == "lga")
        jobs.append(Job(
            f"c{i} {suite} depth 1 worlds={n_worlds} atoms={n_atoms}",
            (lambda m=model, s=suites[suite]:
             verify.check_axiom_suite([m], s, 1, check_rules=False)),
            (lambda r, sid=suite, e=expected: check_suite(r, SUITE_SCHEMAS[sid], e))))
        shapes.append(f"worlds={n_worlds} atoms={n_atoms} states={n_worlds * 2 ** n_atoms}")

    klm_path = os.path.join(workdir, "trade.klm.json")
    write_json(klm_path, TRADE_KLM)
    trade = load_model(klm_path)
    with_5 = {**SUITE_SCHEMAS["hms"], **SCHEMA_5}
    trade_jobs = [Job(
        "trade hms depth 1 + schema 5, rules on",
        lambda: verify.check_axiom_suite([trade], suites["hms"], 1,
                                         extra_schemas=(verify.SCHEMA_5,)),
        lambda r: check_suite(r, with_5, suite_instances(with_5, 2, 2, 1, False),
                              witness={"5": SCHEMA_5_WITNESS}, rules=("MP", "RK-Inference"))),
        Job("trade hms depth 2",
            lambda: verify.check_axiom_suite([trade], suites["hms"], 2, check_rules=False),
            lambda r: check_suite(r, SUITE_SCHEMAS["hms"],
                                  suite_instances(SUITE_SCHEMAS["hms"], 2, 2, 2, False)),
            once=True)]
    shapes += ["worlds=3 atoms=2 states=12"] * 2
    return Workload(jobs + trade_jobs, _hist(shapes))


def setup_cli_frames(seed, workdir):
    rng = random.Random(seed)
    jobs, shapes = [], []
    for i, n_atoms in enumerate(FRAME_ATOMS):
        body = frame_body(rng, n_atoms)
        src = os.path.join(workdir, f"m{i}.klm.json")
        out = os.path.join(workdir, f"m{i}.hms.json")
        write_json(src, body)
        pairs = lattice_pairs(n_atoms, FRAME_WORLDS, 1)
        for label, args, expect in (
            ("transform H", ["transform", "--kind", "H", "--in", src, "--out", out, "--json"],
             {"kind": "transform", "output": out}),
            ("check output", ["check", out, "--json"], {"kind": "check"}),
            ("equiv output", ["equiv", out, "--depth", "1", "--json"],
             {"kind": "equiv", "checked": pairs}),
            ("equiv input", ["equiv", src, "--depth", "1", "--json"],
             {"kind": "equiv", "checked": pairs}),
        ):
            jobs.append(Job(f"m{i} atoms={n_atoms} {label}", None,
                            lambda r, e=expect: check_cli(r[0], r[1], e), cli=args))
        shapes.append(f"worlds={FRAME_WORLDS} atoms={n_atoms} states={FRAME_WORLDS * 2 ** n_atoms}")
    return Workload(jobs, _hist(shapes))


SETUPS = {
    "equiv-trade": setup_equiv_trade,
    "axioms-corpus": setup_axioms_corpus,
    "cli-frames": setup_cli_frames,
}


def import_program(root):
    """Import awarekit from the checkout's own source tree; refuse any other
    copy, so that a run measures the code it was started in."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "awarekit", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, src)
    import awarekit

    if os.path.dirname(os.path.dirname(os.path.abspath(awarekit.__file__))) != os.path.abspath(src):
        raise SystemExit(f"perfbench: imported awarekit from {awarekit.__file__}, not {src}")
    return awarekit
