"""Command-line entry point.

Exit codes: 0 all checks pass, 1 check failures or a check cut short by a
cap (reports still emitted), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .formula import (
    ExplicitKnow,
    Lang,
    enumerate_formulas,
    node_kinds,
    parse,
    require_names,
    require_signature,
    to_text,
)
from .kripke import parse_world_id, well_formed
from .modelio import fixture_path, load_model, store_model

FIXTURES = ("trade.klm.json", "trade.fh.json", "triv1.klm.json")


class UsageError(Exception):
    pass


def _text(exc):
    """The message of an exception; str() of a KeyError would quote it."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else exc


def _load(path):
    """Load a model file; bare bundled fixture names resolve to the package
    copies when no such file exists locally."""
    if not os.path.exists(path):
        if path in FIXTURES:
            path = str(fixture_path(path))
        else:
            raise UsageError(f"no such model file: {path}")
    try:
        return load_model(path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load {path}: {_text(exc)}") from exc


def _evaluable(path):
    """A model file to evaluate or transform, refused unless it is well formed."""
    return well_formed(_load(path), path)


def _emit(args, report, human_lines):
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=str))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args):
    model = _load(args.model)
    problems = model.problems()
    kind, properties, witnesses = model.kind, {}, {}
    if not problems:  # the properties need a well-formed model
        report = model.properties()
        properties, witnesses = dict(report.passed), report.witnesses
        if kind == "klm":  # and the relations of its base model
            properties.update(model.base.properties().passed)
    passed = not problems and all(properties.values())
    report = {"kind": "check", "model": kind, "passed": passed,
              "problems": problems,
              "properties": {k: bool(v) for k, v in properties.items()},
              "witnesses": {k: str(v) for k, v in witnesses.items()}}
    lines = [f"model kind: {kind}"]
    lines += [f"problem: {p}" for p in problems]
    for name in sorted(properties):
        lines.append(f"{name}: {'pass' if properties[name] else 'FAIL'}")
        if not properties[name] and name in witnesses:
            lines.append(f"  witness: {witnesses[name]}")
    lines.append("all checks pass" if passed else "checks FAILED")
    _emit(args, report, lines)
    return 0 if passed else 1


def _cmd_eval(args):
    model = _evaluable(args.model)
    lang = Lang.L if args.lang == "L" else Lang.LKA
    f = parse(args.formula, Lang.LKA)
    if lang is Lang.L and ExplicitKnow in node_kinds(f):
        raise UsageError("X{a} has no reading in the language L")
    at, options = args.at, {}
    if model.kind == "klm":
        at = parse_world_id(at, model.base.atoms)
        options["strict_two_valued"] = args.strict_two_valued
    elif args.strict_two_valued:
        raise UsageError("--strict-two-valued applies to Kripke lattice models only")
    if not hasattr(model, "evaluator"):
        raise UsageError("plain Kripke models carry no awareness; nothing to evaluate")
    ev = model.evaluator(lang, **options)
    require_signature(f, *model.signature)
    print(ev.value(f, at).value)
    return 0


def _cmd_transform(args):
    from .transforms import transform

    model = _evaluable(args.input)
    try:
        report = transform(args.kind, model)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    store_model(report.output, args.output)
    properties = report.properties.passed
    passed = all(properties.values())
    out = {"kind": "transform", "transform": args.kind, "output": args.output,
           "passed": passed, "properties": {k: bool(v) for k, v in properties.items()}}
    lines = [f"wrote {args.output}"]
    lines += [f"{name}: {'pass' if properties[name] else 'FAIL'}" for name in sorted(properties)]
    _emit(args, out, lines)
    return 0 if passed else 1


def _cmd_equiv(args):
    from .transforms import _NAMED
    from .verify import check_equiv_fh_klm, check_L_equiv_hms_klm, check_L_equiv_klm_hms

    model = _evaluable(args.model)
    lang = Lang.L if args.lang == "L" else Lang.LKA
    if model.kind == "hms":
        if lang is not Lang.L:
            raise UsageError("space-lattice models only interpret the language L")
        report, via = check_L_equiv_hms_klm(model, args.depth), ("L", "klm")
    elif model.kind == "fh":
        report, via = check_equiv_fh_klm(model, lang, args.depth), ("K", "klm")
    elif model.kind == "klm":
        if lang is Lang.L:
            report, via = check_L_equiv_klm_hms(model, args.depth), ("H", "hms")
        else:
            report, via = check_equiv_fh_klm(model, lang, args.depth), ("FH", "fh")
    else:
        raise UsageError("plain Kripke models have no transform counterpart")
    body = {**report.to_json(), "lang": lang.value, "classes": report.classes}
    lines = [f"equiv: {_NAMED[model.kind]} vs its {via[0]}-transform, {_NAMED[via[1]]}, "
             f"language {lang.value}, depth {report.depth}",
             f"checked: {report.checked}",
             f"disagreements: {len(report.failures)}"]
    if report.failures:
        first = report.first_disagreement
        lines.append(f"first: {first['formula']} at {first['state']}: "
                     f"{first['left']} vs {first['right']}")
    lines.append(f"signature classes: {report.classes}")
    if report.capped:
        lines.append("incomplete: stopped at the instantiation cap; "
                     "later formulas were not checked")
    _emit(args, body, lines)
    return 1 if report.failures or report.capped else 0


def _cmd_axioms(args):
    from .verify import SCHEMA_5, check_axiom_suite, hms_suite, lga_suite

    models = [_evaluable(p) for p in args.models]
    suite = hms_suite() if args.suite == "hms" else lga_suite()
    extra = (SCHEMA_5,) if args.include_5 else ()
    try:
        report = check_axiom_suite(models, suite, args.depth,
                                   extra_schemas=extra,
                                   check_rules=not args.no_rules)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    lines = [f"suite: {suite.name}, instantiation depth {args.depth}, "
             f"{report['checked']} instances",
             f"{report['checked']} instances covered by {report['class_tuples']} class tuples "
             f"over {report['classes']} classes"]
    for sid, entry in report["schemas"].items():
        verdict = "FAIL" if entry["failures"] else "pass"
        if entry.get("capped"):  # a pass cut short by the cap is no verdict
            verdict = "FAIL, capped" if entry["failures"] else "capped"
        lines.append(f"schema {sid}: {verdict} ({entry['checked']} instances)")
        if entry["failures"]:
            first = entry["failures"][0]
            lines.append(f"  witness: {first['formula']} at {first['state']}")
            if "instances" in first:  # listed per failing class tuple
                lines.append(f"  failing: {sum(f['instances'] for f in entry['failures'])} "
                             f"instances in {len(entry['failures'])} class tuples")
    for rule, entry in report["rules"].items():
        verdict = "VIOLATED" if entry["violations"] else "preserved"
        if entry.get("capped"):
            verdict = "VIOLATED, capped" if entry["violations"] else "capped"
        lines.append(f"rule {rule}: {verdict} ({entry['premise_valid']} premise-valid of "
                     f"{entry['premise_valid'] + entry['vacuous']} instances, "
                     f"every filling up to depth {args.depth})")
        if entry["violations"]:
            first = entry["violations"][0]
            lines.append(f"  witness: from {'; '.join(first['premises'])} "
                         f"infer {first['formula']} at {first['state']}")
    lines.append(report["rule_note"])
    if report.get("capped"):
        lines.append("incomplete: stopped at the instantiation cap; "
                     "later instances were not checked")
    if report["passed"]:
        lines.append("suite passes")
    elif report["failures"] or any(e["violations"] for e in report["rules"].values()):
        lines.append("suite FAILED")
    _emit(args, report, lines)
    return 0 if report["passed"] else 1


def _cmd_enumerate(args):
    atoms = [a.strip() for a in args.atoms.split(",") if a.strip()]
    agents = [a.strip() for a in args.agents.split(",") if a.strip()]
    lang = Lang.L if args.lang == "L" else Lang.LKA
    try:
        require_names(atoms, agents)
        formulas = enumerate_formulas(atoms, agents, args.depth, lang)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for f in formulas:
        print(to_text(f))
    return 0


def _cmd_fixtures(args):
    for name in FIXTURES:
        print(name)
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="awarekit",
        description="Verification workbench for epistemic logics with awareness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model file and report its properties")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a formula at a state")
    p.add_argument("formula")
    p.add_argument("--model", required=True)
    p.add_argument("--at", required=True,
                   help="state: 'w@{a,b}' for a world copy, bare 'w' means the "
                        "full vocabulary; for space-lattice models a state name")
    p.add_argument("--lang", choices=("L", "LKA"), default="L")
    p.add_argument("--strict-two-valued", action="store_true",
                   help="drop the definedness guards (Kripke lattice models only)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("transform", help="apply a model transform")
    p.add_argument("--kind", choices=("L", "H", "K", "FH"), required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("equiv",
                       help="check satisfaction agreement with the model's "
                            "transform counterpart")
    p.add_argument("model")
    p.add_argument("--lang", choices=("L", "LKA"), default="L")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("axioms", help="instantiate an axiom suite over models")
    p.add_argument("--suite", choices=("hms", "lga"), required=True)
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--include-5", action="store_true",
                   help="also instantiate the negative-introspection schema 5")
    p.add_argument("--no-rules", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("enumerate", help="list all formulas up to a depth")
    p.add_argument("--atoms", required=True, help="comma separated")
    p.add_argument("--agents", required=True, help="comma separated")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--lang", choices=("L", "LKA"), default="L")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fixtures", help="list bundled fixture files")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"awarekit: {_text(exc)}", file=sys.stderr)
        return 2
    except RecursionError:
        print("awarekit: input is nested too deeply to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
