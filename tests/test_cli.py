import json
import os
import subprocess
import sys
import time

import pytest

import awarekit
from awarekit import verify
from awarekit.cli import main
from awarekit.formula import Lang
from awarekit.kripke import parse_world_id
from awarekit.modelio import fixture_path, load_model, store_model
from awarekit.verify import check_axiom_suite, lga_suite

from test_hms import malformed_model
from test_verify import _flip_hms

TRADE = str(fixture_path("trade.klm.json"))
TRADE_FH = str(fixture_path("trade.fh.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fixture(capsys):
    code, out, _ = run(capsys, "check", TRADE)
    assert code == 0
    assert "all checks pass" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", TRADE, "--json")
    body = json.loads(out)
    assert code == 0 and body["passed"] and body["model"] == "klm"


def test_check_failing_model(tmp_path, capsys):
    bad = {"kind": "klm", "atoms": ["p"], "agents": ["a"], "worlds": ["u", "v"],
           "relations": {"a": [["u", "v"]]}, "valuation": {"p": ["u"]},
           "awareness": {"a": {"u": ["p"], "v": []}}}
    path = tmp_path / "bad.klm.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "FAIL" in out


def _one_world(kind):
    """A well-formed one-world lattice model or awareness structure."""
    aware = ["p"] if kind == "klm" else {"kind": "atom-generated", "atoms": ["p"]}
    return {"kind": kind, "atoms": ["p"], "agents": ["a"], "worlds": ["w"],
            "relations": {"a": [["w", "w"]]}, "valuation": {"p": ["w"]},
            "awareness" if kind == "klm" else "awareness_sets": {"a": {"w": aware}}}


def _awareness(body):
    return body["awareness" if body["kind"] == "klm" else "awareness_sets"]


def _aware_of(body):
    """The atoms agent a is aware of at w."""
    aware = _awareness(body)["a"]["w"]
    return aware if body["kind"] == "klm" else aware["atoms"]


# each fault of a model file, by the problem it is refused with
FAULTS = {
    "valuation of 'p' contains unknown world 'zz'": lambda m: m["valuation"]["p"].append("zz"),
    "relation pair ('w','v') of agent 'a' mentions unknown world 'v'":
        lambda m: m["relations"]["a"].append(["w", "v"]),
    "no awareness": lambda m: _awareness(m).clear(),
    "no valuation for atom 'p'": lambda m: m["valuation"].clear(),
    "awareness of agent 'a' at 'w' mentions unknown atoms ['q']":
        lambda m: _aware_of(m).append("q"),
}


@pytest.mark.parametrize("kind", ["klm", "fh"])
@pytest.mark.parametrize("problem", list(FAULTS))
def test_malformed_models_are_refused_or_reported(tmp_path, capsys, kind, problem):
    """A lattice model or awareness structure that is not well formed is
    listed by check, with exit 1 and none of the properties that need a
    well-formed model, and refused by eval, equiv, axioms and transform with
    exit 2."""
    body = _one_world(kind)
    path = tmp_path / f"model.{kind}.json"
    path.write_text(json.dumps(body))
    assert run(capsys, "eval", "p", "--model", str(path), "--at", "w")[:2] == (0, "True\n")
    FAULTS[problem](body)
    path.write_text(json.dumps(body))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and f"\nproblem: {problem}" in out, out
    assert out.splitlines()[-1] == "checks FAILED"
    assert not [line for line in out.splitlines() if line.endswith((": pass", ": FAIL"))]
    for argv in (["eval", "p", "--model", str(path), "--at", "w"], ["equiv", str(path)],
                 ["axioms", "--suite", "lga", "--models", str(path)],
                 ["transform", "--kind", {"klm": "FH", "fh": "K"}[kind], "--in", str(path),
                  "--out", str(tmp_path / "out.json")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"awarekit: {path} is not well formed: {problem}"), (argv, err)


def test_formula_list_naming_an_unknown_agent_is_refused(tmp_path, capsys):
    """A formula list that names an agent outside the model's is a problem
    that check lists, with exit 1, and that equiv, axioms and transform
    refuse with exit 2."""
    body = _one_world("fh")
    body["awareness_sets"]["a"]["w"] = {"kind": "explicit", "formulas": ["p", "K{z} p"]}
    path = tmp_path / "model.fh.json"
    path.write_text(json.dumps(body))
    problem = "awareness of agent 'a' at 'w' mentions unknown agents ['z']"
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and f"\nproblem: {problem}" in out, out
    for argv in (["equiv", str(path)], ["axioms", "--suite", "lga", "--models", str(path)],
                 ["transform", "--kind", "K", "--in", str(path), "--out", str(tmp_path / "o")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(
            f"awarekit: {path} is not well formed: {problem}"), (argv, err)


def test_awareness_of_an_unknown_agent_is_refused(tmp_path, capsys):
    """A lattice model that assigns awareness to an agent outside the
    model's is a problem that check lists, with exit 1, and that eval,
    equiv, axioms and transform refuse with exit 2, as for an awareness
    structure; the FH-transform would drop the agent."""
    body = json.loads(fixture_path("trade.klm.json").read_text())
    body["awareness"]["zz"] = {"w1": ["i"]}
    path = tmp_path / "model.klm.json"
    path.write_text(json.dumps(body))
    problem = "awareness assignment for unknown agent 'zz'"
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and f"\nproblem: {problem}" in out, out
    for argv in (["eval", "i", "--model", str(path), "--at", "w1"], ["equiv", str(path)],
                 ["axioms", "--suite", "hms", "--models", str(path)],
                 ["transform", "--kind", "FH", "--in", str(path), "--out", str(tmp_path / "o")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(
            f"awarekit: {path} is not well formed: {problem}"), (argv, err)
    assert not (tmp_path / "o").exists()


def test_eval_fixture_truths(capsys):
    cases = [
        (("w1@{i,l}", "L", "K{b} i"), "True"),
        (("w1@{i,l}", "L", "K{o} i"), "False"),
        (("w2@{i,l}", "L", "A{b} l"), "False"),
        (("w1@{i}", "L", "K{b} l"), "Undefined"),
        (("w2@{i,l}", "LKA", "X{b} l"), "False"),
    ]
    for (at, lang, formula), expected in cases:
        code, out, _ = run(capsys, "eval", formula, "--model", TRADE,
                           "--at", at, "--lang", lang)
        assert code == 0
        assert out.strip() == expected, (formula, at, lang)


def test_eval_bare_world_means_full_vocabulary(capsys):
    code, out, _ = run(capsys, "eval", "K{b} i", "--model", TRADE, "--at", "w1")
    assert code == 0 and out.strip() == "True"


def test_eval_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "X{b} l", "--model", TRADE,
                       "--at", "w1", "--lang", "L")
    assert code == 2 and "X{" in err
    code, _, err = run(capsys, "eval", "i", "--model", TRADE, "--at", "w9")
    assert code == 2
    code, _, err = run(capsys, "eval", "i &", "--model", TRADE, "--at", "w1")
    assert code == 2
    code, out, err = run(capsys, "eval", "(((", "--model", TRADE, "--at", "w1")
    assert code == 2 and "unexpected end of formula (at position 3)" in err and not out
    code, out, err = run(capsys, "eval", "~" * 5000 + "i", "--model", TRADE,
                         "--at", "w1")
    assert code == 2 and "nested too deeply" in err and not out


def test_eval_strict_two_valued(capsys):
    # the explicit-knowledge clause drops its guard too, so the reading is
    # two-valued in L as well as in LKA
    for lang in ("L", "LKA"):
        code, out, _ = run(capsys, "eval", "K{b} l", "--model", TRADE,
                           "--at", "w1@{i}", "--lang", lang, "--strict-two-valued")
        assert code == 0 and out.strip() == "True", lang


def test_eval_strict_two_valued_refused_off_lattice_models(tmp_path, capsys):
    hms_path = str(tmp_path / "trade.hms.json")
    assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", hms_path)[0] == 0
    for model, at in ((hms_path, "w1@{i}"), (TRADE_FH, "w1")):
        code, out, err = run(capsys, "eval", "K{b} l", "--model", model, "--at", at,
                             "--strict-two-valued")
        assert code == 2 and not out, model
        assert err == "awarekit: --strict-two-valued applies to Kripke lattice models only\n"


def test_eval_unknown_atoms_in_every_model_class(tmp_path, capsys):
    hms_path = str(tmp_path / "trade.hms.json")
    assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", hms_path)[0] == 0
    messages = set()
    for model, at in ((TRADE, "w1"), (TRADE_FH, "w1"), (hms_path, "w1@{i,l}")):
        code, out, err = run(capsys, "eval", "K{b} (zz & i & yy)", "--model", model,
                             "--at", at)
        assert code == 2 and not out, model
        messages.add(err)
    assert len(messages) == 1
    message = messages.pop()
    assert message == "awarekit: formula mentions atoms outside the model: yy, zz\n"
    assert "'" not in message


def test_eval_unknown_state_in_every_model_class(tmp_path, capsys):
    hms_path = str(tmp_path / "trade.hms.json")
    assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", hms_path)[0] == 0
    errors = [run(capsys, "eval", "i", "--model", model, "--at", "w9")
              for model in (TRADE, TRADE_FH, hms_path)]
    assert errors == [(2, "", "awarekit: unknown state 'w9@{i,l}'\n"),
                      (2, "", "awarekit: unknown state 'w9'\n"),
                      (2, "", "awarekit: unknown state 'w9'\n")]


def test_eval_addresses_every_state_of_a_twice_transformed_model(tmp_path, capsys):
    """The L-transform of an H-transform names its worlds after the space
    lattice's states, so a world copy such as `w2@{i,l}@{i}` holds two `@`;
    its id splits at the last one, which atom names never hold."""
    hms_path, back = str(tmp_path / "trade.hms.json"), str(tmp_path / "back.klm.json")
    assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", hms_path)[0] == 0
    assert run(capsys, "transform", "--kind", "L", "--in", hms_path, "--out", back)[0] == 0
    model = load_model(back)
    states = model.evaluator(Lang.L).states
    assert len(states) == 12
    assert all(parse_world_id(str(w), model.base.atoms) == w for w in states)
    assert run(capsys, "eval", "i", "--model", back, "--at", "w2@{i,l}@{i,l}") == (0, "False\n", "")
    assert run(capsys, "eval", "i", "--model", back, "--at", "w1@{i,l}@{i}") == (0, "True\n", "")


def test_eval_on_a_frame_without_joins(tmp_path, capsys):
    """On two incomparable one-state spaces, with p based at one and q at the
    other, a conjunction has no base space and ⊤ no bottom space: the frame
    fails its lattice check, so every formula is refused with exit 2, naming
    the check and its first witness, before anything is evaluated."""
    path = tmp_path / "two.hms.json"
    path.write_text(json.dumps(
        {"kind": "hms", "spaces": {"A": ["a"], "B": ["b"]}, "pi": {"x": {"a": ["a"], "b": ["b"]}},
         "valuation": {"p": {"base_space": "A", "base_set": ["a"]},
                       "q": {"base_space": "B", "base_set": ["b"]}}}))
    for formula in "p & q", "T", "p":
        assert run(capsys, "eval", formula, "--model", str(path), "--at", "a") == (
            2, "", "awarekit: frame check lattice fails: witness ('no unique join', 'A', 'B')\n")


def test_check_prints_the_pp_witness(tmp_path, capsys):
    """An Explicit awareness set, which fails PP exactly: the witness is
    keyed by the property's name and shows the formula as text."""
    body = json.loads(fixture_path("trade.fh.json").read_text())
    body["awareness_sets"]["b"] = dict.fromkeys(("w1", "w2", "w3"),
                                                {"kind": "explicit", "formulas": ["i"]})
    path = tmp_path / "pp.fh.json"
    path.write_text(json.dumps(body))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "pp (exact): FAIL\n  witness: ('b', 'w1', 'T')\n" in out
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert code == 1
    assert json.loads(out)["witnesses"] == {"pp (exact)": "('b', 'w1', 'T')"}


def test_eval_fh_model(capsys):
    code, out, _ = run(capsys, "eval", "A{b} l", "--model", TRADE_FH,
                       "--at", "w2", "--lang", "LKA")
    assert code == 0 and out.strip() == "False"


def test_transform_and_check(tmp_path, capsys):
    out_path = str(tmp_path / "trade.hms.json")
    code, out, _ = run(capsys, "transform", "--kind", "H",
                       "--in", TRADE, "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0
    # and back again
    back = str(tmp_path / "back.klm.json")
    code, out, _ = run(capsys, "transform", "--kind", "L",
                       "--in", out_path, "--out", back)
    assert code == 0
    assert load_model(back).awareness["b"]["w2@{i,l}"] == frozenset({"i"})


@pytest.mark.parametrize("kind, given, message", [
    ("L", "klm", "transform L takes a space-lattice model, not a Kripke lattice model"),
    ("L", "fh", "transform L takes a space-lattice model, not an awareness structure"),
    ("H", "hms", "transform H takes a Kripke lattice model, not a space-lattice model"),
    ("H", "fh", "transform H takes a Kripke lattice model, not an awareness structure"),
    ("K", "klm", "transform K takes an awareness structure, not a Kripke lattice model"),
    ("K", "hms", "transform K takes an awareness structure, not a space-lattice model"),
    ("FH", "hms", "transform FH takes a Kripke lattice model, not a space-lattice model"),
    ("FH", "fh", "transform FH takes a Kripke lattice model, not an awareness structure"),
])
def test_transform_refuses_a_model_of_the_wrong_class(tmp_path, capsys, kind, given, message):
    """Each transform names the model class it takes, with exit 2, and
    writes nothing."""
    hms_path = str(tmp_path / "trade.hms.json")
    assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", hms_path)[0] == 0
    model = {"klm": TRADE, "fh": TRADE_FH, "hms": hms_path}[given]
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, "transform", "--kind", kind, "--in", model,
                         "--out", str(out_path))
    assert (code, out, err) == (2, "", f"awarekit: {message}\n")
    assert not out_path.exists()


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", TRADE, "--lang", "L",
                       "--depth", "1", "--json")
    body = json.loads(out)
    assert code == 0
    assert body["kind"] == "equivalence" and body["failures"] == []
    assert set(body) == {"kind", "depth", "checked", "failures", "lang", "classes"}
    assert (body["depth"], body["lang"], body["classes"]) == (1, "L", 10)
    code, out, _ = run(capsys, "equiv", TRADE, "--depth", "1")
    assert code == 0 and out.splitlines()[3:] == ["signature classes: 10"]


@pytest.mark.parametrize("model, lang, scope", [
    (TRADE, "L", "a Kripke lattice model vs its H-transform, a space-lattice model, "
                 "language L, depth 2"),
    (TRADE, "LKA", "a Kripke lattice model vs its FH-transform, an awareness structure, "
                   "language LKA, depth 2"),
    (TRADE_FH, "L", "an awareness structure vs its K-transform, a Kripke lattice model, "
                    "language L, depth 2"),
    ("hms", "L", "a space-lattice model vs its L-transform, a Kripke lattice model, "
                 "language L, depth 2")])
def test_equiv_states_its_scope(capsys, tmp_path, model, lang, scope):
    """equiv says first what it compared, in which language and to which
    depth, and its JSON names the language."""
    if model == "hms":
        model = str(tmp_path / "trade.hms.json")
        assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", model)[0] == 0
    code, out, _ = run(capsys, "equiv", model, "--lang", lang, "--depth", "2")
    assert code == 0 and out.splitlines()[0] == f"equiv: {scope}"
    code, out, _ = run(capsys, "equiv", model, "--lang", lang, "--depth", "2", "--json")
    body = json.loads(out)
    assert code == 0 and (body["lang"], body["depth"]) == (lang, 2)


def test_axioms_answer_past_the_lattice_cap(capsys, monkeypatch):
    """Suites decide lattice models over their worlds, not over the 2^|At|
    copies that AWAREKIT_LATTICE_CAP bounds: past the cap they answer as
    below it, while equiv, which compares copies, is refused with exit 2."""
    argv = ("axioms", "--suite", "hms", "--models", TRADE, "--depth", "1", "--include-5",
            "--json")
    below = run(capsys, *argv)
    assert below[0] == 1 and '"state": "w2@{i,l}"' in below[1]
    monkeypatch.setenv("AWAREKIT_LATTICE_CAP", "1")
    assert run(capsys, *argv) == below
    code, out, err = run(capsys, "equiv", TRADE, "--depth", "1")
    assert code == 2 and "refusing exhaustive scan over 2 atoms (cap 1;" in err


def test_axioms_pass_and_include_5(capsys):
    code, out, _ = run(capsys, "axioms", "--suite", "hms", "--models", TRADE,
                       "--depth", "1", "--no-rules")
    assert code == 0 and "suite passes" in out
    assert out.splitlines()[:2] == ["suite: HMS, instantiation depth 1, 7309 instances",
                                    "7309 instances covered by 1501 class tuples over 10 classes"]
    code, out, _ = run(capsys, "axioms", "--suite", "hms", "--models", TRADE,
                       "--depth", "1", "--no-rules", "--include-5", "--json")
    assert code == 1
    body = json.loads(out)
    assert body["schemas"]["5"]["failures"][0]["state"] == "w2@{i,l}"


def test_axioms_past_the_cap_lists_class_tuples(capsys):
    """Trade at depth 2 passes the cap in instances but not in class tuples:
    exhaustive, with schema 5's failures counted per class tuple."""
    code, out, _ = run(capsys, "axioms", "--suite", "hms", "--models", TRADE,
                       "--depth", "2", "--no-rules", "--include-5")
    lines = out.splitlines()
    assert code == 1 and "suite FAILED" in lines and not any("incomplete" in x for x in lines)
    assert lines[:2] == ["suite: HMS, instantiation depth 2, 12063025 instances",
                         "12063025 instances covered by 6274 class tuples over 17 classes"]
    assert lines[lines.index("schema 5: FAIL (456 instances)") + 1:][:2] == [
        "  witness: ~(~K{b} l & ~K{b} ~K{b} l) at w2@{i,l}",
        "  failing: 127 instances in 11 class tuples"]


def test_axioms_rules_cover_every_filling(capsys):
    """Each rule line counts the rule's premise-valid instances among all of
    them, which grow with the depth, and says the scope."""
    rule_lines = {}
    for depth in ("1", "2"):
        code, out, _ = run(capsys, "axioms", "--suite", "hms", "--models", TRADE,
                           "--depth", depth)
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "suite passes"
        rule_lines[depth] = [line for line in lines if line.startswith("rule ")]
        assert lines[-2] == ("rules checked as validity preservation over this corpus only, "
                             f"on every filling up to depth {depth}")
    assert rule_lines["1"] == [
        "rule MP: preserved (16 premise-valid of 324 instances, every filling up to depth 1)",
        "rule RK-Inference: preserved (6698 premise-valid of 8326 instances, "
        "every filling up to depth 1)"]
    assert rule_lines["2"][1].startswith("rule RK-Inference: preserved (15721672 ")


def test_axioms_rules_share_the_cap(capsys, monkeypatch, explicit_fh):
    """Rules evaluate class tuples under the cap the schemas use: past it a
    rule is capped, never preserved, and the suite incomplete."""
    schemas = check_axiom_suite([load_model(explicit_fh)], lga_suite(), 1, check_rules=False)
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", schemas["class_tuples"] + 10)
    code, out, _ = run(capsys, "axioms", "--suite", "lga", "--models", explicit_fh,
                       "--depth", "1")
    lines = out.splitlines()
    assert code == 1 and "incomplete: stopped at the instantiation cap; " \
        "later instances were not checked" in lines
    assert [line.split(" (")[0] for line in lines if line.startswith("rule ")] == [
        "rule MP: capped", "rule K-Inference: capped"]


@pytest.mark.parametrize("check", ["Conf", "PPI"])
def test_axioms_refuses_a_malformed_frame(tmp_path, capsys, check):
    """A space-lattice model whose frame check fails is reported by check and
    refused by axioms, eval (of an atom as of knowledge), equiv and the
    L-transform with exit 2, naming the check and its witness."""
    m, refusal = malformed_model(check)
    path = str(tmp_path / "bad.hms.json")
    store_model(m, path)
    code, out, _ = run(capsys, "check", path)
    assert code == 1 and f"{check}: FAIL" in out.splitlines()
    out_path = tmp_path / "out.klm.json"
    for argv in (["axioms", "--suite", "hms", "--models", path, "--depth", "1"],
                 ["eval", "p", "--model", path, "--at", "u1"],
                 ["eval", "K{a} p", "--model", path, "--at", "u1"],
                 ["equiv", path], ["transform", "--kind", "L", "--in", path,
                                   "--out", str(out_path)]):
        assert run(capsys, *argv) == (2, "", f"awarekit: {refusal}\n"), argv
    assert not out_path.exists()


def test_axioms_refuses_mixed_signatures(capsys):
    code, out, err = run(capsys, "axioms", "--suite", "hms", "--models", TRADE,
                         "triv1.klm.json", "--depth", "1", "--no-rules")
    assert code == 2 and not out
    assert err == ("awarekit: the models differ in signature: atoms ['i', 'l'], "
                   "agents ['b', 'o'] vs atoms ['p'], agents ['a']\n")


def test_axioms_refuses_a_plain_kripke_model(tmp_path, capsys):
    path = tmp_path / "plain.kripke.json"
    path.write_text(json.dumps(
        {"kind": "kripke", "atoms": ["p"], "agents": ["a"], "worlds": ["w"],
         "relations": {"a": [["w", "w"]]}, "valuation": {"p": ["w"]}}))
    assert run(capsys, "axioms", "--suite", "hms", "--models", str(path), "--depth", "1") == (
        2, "", "awarekit: unsupported model class KripkeModel\n")


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--atoms", "p", "--agents", "a",
                       "--depth", "1")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "T" and "K{a} p" in lines
    assert len(lines) == len(set(lines))


@pytest.mark.parametrize("atoms, agents, message", [
    ("K{", "a", "atom name 'K{' cannot be written in formulas: an atom name must start "
                "with a lowercase letter, then letters, digits or _"),
    ("p,T", "a", "atom name 'T' cannot be written in formulas: an atom name must start "
                 "with a lowercase letter, then letters, digits or _"),
    ("p", "a b", "agent name 'a b' cannot be written in formulas: an agent name must be "
                 "non-empty, without braces or whitespace"),
    ("p", "a}", "agent name 'a}' cannot be written in formulas: an agent name must be "
                "non-empty, without braces or whitespace"),
])
def test_enumerate_refuses_names_the_parser_cannot_read(capsys, atoms, agents, message):
    code, out, err = run(capsys, "enumerate", "--atoms", atoms, "--agents", agents,
                         "--depth", "1")
    assert (code, out, err) == (2, "", f"awarekit: {message}\n")


_BUDGETED = [("enumerate", "--atoms", "p,q", "--agents", "a,b"), ("equiv", TRADE),
             ("axioms", "--suite", "hms", "--models", TRADE, "--no-rules")]


@pytest.mark.parametrize("argv, depth", [(argv, 4) for argv in _BUDGETED] + [
    (argv, 10 ** 6) for argv in _BUDGETED], ids=["enumerate", "equiv", "axioms", "enumerate-deep",
                                                "equiv-deep", "axioms-deep"])
def test_enumeration_budget_refuses_depth_4(capsys, argv, depth):
    """Past the formula budget the commands refuse, before they allocate; a
    deeper depth at the first level past it."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--depth", str(depth))
    assert time.perf_counter() - start < 1
    assert code == 2 and not out
    more = "more than " if depth > 4 else ""
    assert err == (f"awarekit: refusing to enumerate {more}359,026,203 formulas of depth up to "
                   f"{depth} (limit 1,000,000); lower the depth\n")


def test_fixture_name_resolution(capsys):
    # bundled fixture names work from any directory
    code, out, _ = run(capsys, "check", "triv1.klm.json")
    assert code == 0


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "trade.klm.json" in out and "trade.fh.json" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 2 and "no such model file" in err


def _frame_file(tmp_path, spaces, order, pi):
    path = tmp_path / "frame.hms.json"
    path.write_text(json.dumps({"kind": "hms", "spaces": spaces, "order": order,
                                "projections": {}, "pi": pi, "valuation": {}}))
    return str(path)


def test_check_reports_missing_projection(capsys, tmp_path):
    """A projection missing under a total possibility correspondence is a
    failed check with a witness, not a crash."""
    path = _frame_file(tmp_path, {"T": ["t1", "t2"], "B": ["b"]}, [["B", "T"]],
                       {"a": {"t1": ["t1"], "t2": ["t2"], "b": ["b"]}})
    code, out, _ = run(capsys, "check", path, "--json")
    body = json.loads(out)
    assert code == 1 and body["properties"]["projections"] is False
    assert body["witnesses"]["projections"] == "('missing projection', 'T', 'B')"


@pytest.mark.parametrize("spaces, message", [
    ({f"S{i}": [f"s{i}"] for i in range(12_000)}, "frame has 12000 states (limit 10000)"),
    (dict.fromkeys((f"S{i}" for i in range(12_000)), []), "frame has 12000 spaces (limit 10000)"),
], ids=["states", "spaces"])
def test_check_refuses_an_oversized_frame_before_indexing_it(capsys, tmp_path, spaces, message):
    """A frame past the state limit, or with more spaces than it, is refused
    while loading, before its order is closed: exit 2 at once."""
    path = _frame_file(tmp_path, spaces, [], {})
    start = time.perf_counter()
    code, out, err = run(capsys, "check", path)
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", f"awarekit: cannot load {path}: {message}\n")


@pytest.mark.parametrize("pi, formula, agent, state", [
    ({"a": {"s1": ["s1"]}}, "K{a} p", "a", "s2"),
    ({"a": {"s1": ["s1"], "s2": ["s2"]}, "b": {}}, "K{b} p", "b", "s1"),
], ids=["one-state-missing", "empty"])
def test_a_partial_possibility_correspondence_is_named(capsys, tmp_path, pi, formula, agent,
                                                        state):
    """A space lattice where some state has no possibility set fails the Conf
    check: eval, of the agent's knowledge as of an atom, equiv and the
    L-transform name the agent and the first such state, with exit 2; check
    keeps its frame report."""
    path = tmp_path / "partial.hms.json"
    path.write_text(json.dumps({"kind": "hms", "spaces": {"S": ["s1", "s2"]}, "pi": pi,
                                "valuation": {"p": {"base_space": "S", "base_set": ["s1"]}}}))
    message = f"awarekit: frame check Conf fails: witness ('pi not total', '{agent}', '{state}')\n"
    for argv in (["eval", formula, "--model", str(path), "--at", "s1"],
                 ["eval", "p", "--model", str(path), "--at", "s1"], ["equiv", str(path)],
                 ["transform", "--kind", "L", "--in", str(path),
                  "--out", str(tmp_path / "out.klm.json")]):
        assert run(capsys, *argv) == (2, "", message), argv
    assert not (tmp_path / "out.klm.json").exists()
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and f"Conf: FAIL\n  witness: ('pi not total', '{agent}', '{state}')\n" in out


def test_a_lattice_cap_that_is_no_integer_is_named(capsys, monkeypatch):
    monkeypatch.setenv("AWAREKIT_LATTICE_CAP", "abc")
    assert run(capsys, "check", TRADE) == (
        2, "", "awarekit: AWAREKIT_LATTICE_CAP is not an integer: 'abc'\n")


def test_check_witness_does_not_depend_on_hash_seed(tmp_path):
    """The first projections witness is the same under every hash seed."""
    path = _frame_file(tmp_path, {"T": ["t"], "A": ["a"], "B": ["b"], "C": ["c"]},
                       [["A", "T"], ["B", "T"], ["C", "T"]], {})
    witnesses = set()
    for seed in range(1, 7):
        done = _run_seeded(seed, "check", path, "--json")
        assert done.returncode == 1, done.stderr
        witnesses.add(json.loads(done.stdout)["witnesses"]["projections"])
    assert witnesses == {"('missing projection', 'T', 'A')"}


def _python(*args, seed=0):
    """A fresh interpreter, under the given hash seed, that imports this
    source tree."""
    src = os.path.dirname(os.path.dirname(awarekit.__file__))
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _run_seeded(seed, *argv):
    """The CLI in a fresh process under the given hash seed."""
    return _python("-m", "awarekit.cli", *argv, seed=seed)


def test_l_transform_error_does_not_depend_on_hash_seed(capsys, tmp_path):
    """Of two cells changed so that No-Surprises fails, one breaks the Stat
    frame check, and the L-transform refuses the model with the same first
    witness of that check under every hash seed."""
    path = str(tmp_path / "h.hms.json")
    assert run(capsys, "transform", "--kind", "H", "--in", TRADE, "--out", path)[0] == 0
    with open(path) as fh:
        body = json.load(fh)
    body["pi"]["b"]["w2@{l}"] = ["w2@{l}", "w3@{l}"]
    body["pi"]["b"]["w2@{i}"] = ["w2@{}", "w3@{}"]
    with open(path, "w") as fh:
        json.dump(body, fh)
    errors = set()
    for seed in range(7, 13):
        done = _run_seeded(seed, "transform", "--kind", "L", "--in", path,
                           "--out", str(tmp_path / "out.klm.json"))
        assert done.returncode == 2, done.stderr
        errors.add(done.stderr)
    assert errors == {"awarekit: frame check Stat fails: witness ('b', 'w2@{i,l}', 'w2@{i}')\n"}


def _plant_h_disagreement(monkeypatch):
    """The H-transform with one atom flipped at one state, so that
    `equiv` on a lattice model disagrees at depth 2 in 125 rows on trade."""
    h_transform = verify.h_transform
    monkeypatch.setattr(verify, "h_transform", lambda k: _flip_hms(h_transform(k), 0))


def test_equiv_capped_is_incomplete(capsys, monkeypatch):
    """The instantiation cap bounds the disagreements an equivalence check
    lists, not the pairs it decides: trade agrees, so even a low cap leaves
    it complete. A disagreement listed past the cap is flagged in the JSON
    and in the human report, and exits 1."""
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", 50)
    code, out, _ = run(capsys, "equiv", TRADE, "--depth", "2", "--json")
    body = json.loads(out)
    assert code == 0 and "capped" not in body and body["checked"] == 2736
    code, out, _ = run(capsys, "equiv", TRADE, "--depth", "2")
    assert code == 0 and "incomplete" not in out
    _plant_h_disagreement(monkeypatch)
    code, out, _ = run(capsys, "equiv", TRADE, "--depth", "2", "--json")
    body = json.loads(out)
    assert code == 1 and body["capped"] is True and body["checked"] == 2736
    assert len(body["failures"]) == 50
    code, out, _ = run(capsys, "equiv", TRADE, "--depth", "2")
    assert code == 1 and out.splitlines()[-1] == (
        "incomplete: the listing stopped at the instantiation cap; "
        "later disagreements are not shown")


def test_equiv_prints_the_first_disagreement(capsys, monkeypatch):
    """The human report of a disagreeing check names its first row; every
    row is listed within the cap, so it is complete."""
    _plant_h_disagreement(monkeypatch)
    code, out, _ = run(capsys, "equiv", TRADE, "--depth", "2")
    assert code == 1 and "incomplete" not in out
    assert "disagreements: 125" in out.splitlines()
    assert "first: i at w1@{i,l}: True vs False" in out.splitlines()


@pytest.fixture
def explicit_fh(tmp_path):
    """trade.fh.json with Explicit awareness sets, which read syntax. Awareness
    varies along b's relation, so the structure is not KA."""
    body = json.loads(fixture_path("trade.fh.json").read_text())
    listed = {"b": {"w1": ["i", "K{b} i"], "w2": ["l", "~i"], "w3": ["i"]},
              "o": dict.fromkeys(("w1", "w2", "w3"), ["i", "l"])}
    body["awareness_sets"] = {a: {w: {"kind": "explicit", "formulas": fs} for w, fs in per.items()}
                              for a, per in listed.items()}
    path = tmp_path / "explicit.fh.json"
    path.write_text(json.dumps(body))
    return str(path)


def test_equiv_refuses_awareness_that_varies_along_a_relation(capsys, explicit_fh):
    """The lattice counterpart needs awareness constant along the relations:
    one refusal, with its witness, and exit code 2."""
    assert run(capsys, "equiv", explicit_fh, "--depth", "1") == (
        2, "", "awarekit: awareness is not constant along the relations: "
               "witness ('b', 'w2', 'w3')\n")


def test_axioms_capped_is_incomplete(capsys, monkeypatch, explicit_fh):
    """An axiom suite stopped by the instantiation cap, patched below its
    class-tuple count, is flagged in the JSON and in the human report, never
    passes, and never exits 0."""
    argv = ("axioms", "--suite", "lga", "--models", explicit_fh, "--depth", "1", "--no-rules")
    full = check_axiom_suite([load_model(explicit_fh)], lga_suite(), 1, check_rules=False)
    assert (full["classes"], full["class_tuples"], full["checked"]) == (17, 6988, 17761)
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", 50)
    code, out, _ = run(capsys, *argv, "--json")
    body = json.loads(out)
    assert code == 1 and body["capped"] is True and body["passed"] is False
    assert body["failures"] == []
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "suite passes" not in out and "suite FAILED" not in out
    assert ("incomplete: stopped at the instantiation cap; "
            "later instances were not checked") in out.splitlines()
    # each schema line says whether the cap cut that schema short
    schema_lines = [line for line in out.splitlines() if line.startswith("schema ")]
    assert schema_lines == [
        f"schema {sid}: {'capped' if entry.get('capped') else 'pass'} "
        f"({entry['checked']} instances)" for sid, entry in body["schemas"].items()]
    assert schema_lines[:3] == ["schema PL-Top: pass (1 instances)",
                                "schema PL1: capped (143 instances)",
                                "schema PL2: capped (0 instances)"]
    assert "144 instances covered by 51 class tuples over 17 classes" in out.splitlines()
    # a schema that failed before the cap says both
    monkeypatch.setattr(verify, "INSTANTIATION_CAP", full["class_tuples"] - 2)
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "schema A12: FAIL, capped (47 instances)" in out.splitlines()
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv, "--json")
    body = json.loads(out)  # the whole sweep: it fails, as Explicit sets break A1-A12
    assert code == 1 and "capped" not in body and body["failures"]


# every name the package exported when it imported all of its modules at once
EXPORTS = """
AtomGenerated Explicit FHEvaluator FHModel check_ka check_pp validate_fh
And Atom Aware ExplicitKnow Formula Know Lang Not ParseError TOP Top atoms_of agents_of
depth_of enumerate_formulas expand_defined fold iff implies in_language lor parse to_text
DenotationEvaluator Event FrameDefect HMSModel UnawarenessFrame defined_atoms denotation
validate_frame validate_model
Evaluator KripkeLatticeModel PropertyReport canonicalize check_awareness_properties eval_L
eval_LKA induced_pointwise lattice_cap random_klm random_klm_eq subsets validate_klm
KripkeModel RestrictedModel WorldId parse_world_id relation_properties restrict validate_kripke
fixture_path load_fixture load_model store_model
StateCorrespondence TransformReport fh_transform h_transform k_transform l_transform transform
Truth truth_of
AxiomSuite EquivalenceReport SCHEMA_5 Schema ValidityChecker check_axiom_suite
check_equiv_fh_klm check_L_equiv_hms_klm check_L_equiv_klm_hms hms_suite lga_suite valid_over
""".split()


def test_package_import_loads_no_module():
    """`import awarekit` loads none of its modules; each exported name, and
    each module as an attribute, is loaded on first use."""
    done = _python("-c", "import sys, awarekit; "
                         "print(sorted(m for m in sys.modules if m.startswith('awarekit.')))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    done = _python("-c", f"from awarekit import {', '.join(EXPORTS)}, __version__; "
                         "import awarekit; print(__version__, awarekit.verify.__name__, "
                         "awarekit.hms.validate_frame is validate_frame)")
    assert (done.returncode, done.stdout) == (0, "0.1.0 awarekit.verify True\n"), done.stderr
    assert sorted(awarekit.__all__) == sorted(EXPORTS)


# the awarekit modules that a cold command loads, besides the package and
# the command line itself
COLD_MODULES = {
    "transform": {"formula", "hms", "klm", "kripke", "modelio", "transforms", "truth", "values"},
    "check": {"formula", "hms", "kripke", "modelio", "truth", "values"},
    "equiv": {"formula", "hms", "klm", "kripke", "modelio", "sliced", "transforms", "truth",
              "values", "verify"},
}
COLD_MODULES["equiv klm"] = COLD_MODULES["equiv"]
# eval builds the model's own evaluator and its algebra, without the harness
COLD_MODULES["eval"] = {"formula", "klm", "kripke", "modelio", "sliced", "truth", "values"}


def test_frame_commands_do_not_load_the_harness(tmp_path):
    """A cold `import awarekit.cli`, transform --kind H, check, equiv and eval
    never load `dataclasses` or `inspect`. transform loads no
    awareness-structure module, no harness and no algebra (it builds no
    evaluator); check of a space-lattice model loads neither the lattice
    models nor the transforms; equiv loads the harness and the algebra, and
    in L, of a space-lattice or a lattice model, no awareness-structure
    module; eval of a lattice model loads its own module and the algebra,
    and no harness."""
    out = str(tmp_path / "trade.hms.json")
    loaded = {}
    for name, argv in (("import", ("-c", "import awarekit.cli")),
                       ("transform", ("-m", "awarekit.cli", "transform", "--kind", "H",
                                      "--in", TRADE, "--out", out)),
                       ("check", ("-m", "awarekit.cli", "check", out)),
                       ("equiv", ("-m", "awarekit.cli", "equiv", out, "--depth", "1")),
                       ("equiv klm", ("-m", "awarekit.cli", "equiv", TRADE, "--depth", "1")),
                       ("eval", ("-m", "awarekit.cli", "eval", "K{b} i", "--model", TRADE,
                                 "--at", "w1"))):
        done = _python("-X", "importtime", *argv)
        assert done.returncode == 0, done.stderr
        loaded[name] = {line.split("|")[-1].strip() for line in done.stderr.splitlines()}
        assert not loaded[name] & {"dataclasses", "inspect"}, name
    for name, modules in COLD_MODULES.items():
        assert {m for m in loaded[name] if m.startswith("awarekit.")} == \
            {f"awarekit.{m}" for m in modules}, name
