"""Seeded fuzzing of the model loader through the CLI: mutated fixture and
H-output files end with exit code 0, 1 or 2, never with an exception, in
check, eval, equiv, axioms and transform."""

import copy
import json
import random

import pytest

from awarekit.cli import main
from awarekit.modelio import fixture_path

SEEDS = range(300)
NAMES = ["w1", "w2", "i", "l", "b", "o", "W@{i}", "W@{}", "w1@{i}", "kind"]


def _values(rng):
    return [None, 0, 1.5, True, "", rng.choice(NAMES), [], {}, [rng.choice(NAMES)],
            [rng.choice(NAMES), rng.choice(NAMES)], {rng.choice(NAMES): []},
            {"kind": "explicit", "formulas": ["K{b} i", "(("]}]


def _nodes(body):
    """Every (container, key) position in a JSON tree."""
    if isinstance(body, dict):
        items = body.items()
    elif isinstance(body, list):
        items = enumerate(body)
    else:
        return []
    out = []
    for k, v in items:
        out.append((body, k))
        out.extend(_nodes(v))
    return out


def mutate(rng, body):
    body = copy.deepcopy(body)
    for _ in range(rng.randint(1, 3)):
        nodes = _nodes(body)
        if not nodes:
            return body
        parent, key = rng.choice(nodes)
        op = rng.randrange(4)
        if op == 0:
            parent[key] = rng.choice(_values(rng))
        elif op == 1:
            del parent[key]
        elif op == 2 and isinstance(parent[key], list) and parent[key]:
            parent[key].pop()
        elif op == 2 and isinstance(parent, dict):
            parent[rng.choice(NAMES)] = copy.deepcopy(parent[key])
        else:
            parent[key] = [parent[key]]
    return body


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    out = {}
    for name in ("trade.klm.json", "trade.fh.json", "triv1.klm.json"):
        out[name] = json.loads(fixture_path(name).read_text())
    hms = tmp_path_factory.mktemp("h") / "trade.hms.json"
    assert main(["transform", "--kind", "H", "--in", "trade.klm.json", "--out", str(hms)]) == 0
    out["trade.hms.json"] = json.loads(hms.read_text())
    return out


def commands(path, kind):
    at = "w1@{i,l}" if kind == "hms" else "w1"
    transform = {"klm": "H", "hms": "L", "fh": "K"}[kind]
    return [["check", path], ["eval", "K{b} i", "--model", path, "--at", at],
            ["equiv", path, "--depth", "1"],
            ["axioms", "--suite", "hms" if kind == "hms" else "lga", "--models", path,
             "--depth", "1"],
            ["transform", "--kind", transform, "--in", path, "--out", path + ".out.json"]]


def test_mutated_models_never_escape(sources, tmp_path, capsys):
    codes = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        name = rng.choice(sorted(sources))
        kind = name.split(".")[-2]
        path = str(tmp_path / f"m{seed}.{kind}.json")
        text = json.dumps(mutate(rng, sources[name]))
        if seed % 10 == 0:
            text = text[:rng.randrange(len(text))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in commands(path, kind):
            code = main(argv)
            assert code in (0, 1, 2), (seed, argv)
            codes.add(code)
    capsys.readouterr()
    assert codes == {0, 1, 2}
