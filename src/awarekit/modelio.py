"""JSON load/store for the four model file kinds, plus bundled fixtures.

Stored files are canonical: keys sorted, set-valued fields sorted, so a
store/load round trip is byte-stable.
"""

from __future__ import annotations

import json
from itertools import repeat

from .formula import Lang, parse, require_names, to_text
from .kripke import KripkeModel

# The model file kinds, each the `kind` of a model class. The loaders import
# the module of the class they build, so that a command loads only the model
# modules of the files it reads.
KINDS = ("kripke", "klm", "hms", "fh")


# The JSON shape of each body kind: str is a string, [x] a list of x, [x, y]
# a pair, {"*": x} an object of x, and otherwise an object with these fields
# ("?" marks an optional one).
_WORLDS = {"atoms": [str], "agents": [str], "worlds": [str],
           "relations": {"*": [[str, str]]}, "valuation": {"*": [str]}}
_SHAPES = {
    "kripke": _WORLDS,
    "klm": {**_WORLDS, "awareness": {"*": {"*": [str]}}},
    "hms": {"spaces": {"*": [str]}, "order?": [[str, str]],
            "projections?": {"*": {"*": str}}, "pi": {"*": {"*": [str]}},
            "valuation": {"*": {"base_space": str, "base_set": [str]}}},
    "fh": {**_WORLDS, "awareness_sets": {"*": {"*": {
        "kind": str, "atoms?": [str], "formulas?": [str]}}}},
}


def _check_shape(value, shape, path=()):
    """Refuse a body whose JSON shape differs, naming the path of the fault.
    `path` holds the steps down to value, a list index as an int and a key
    as a str, and is spelt out only to refuse."""
    if shape is str:
        expected, ok = "a string", isinstance(value, str)
    elif isinstance(shape, list):
        expected = "a list" if len(shape) == 1 else "a pair"
        ok = isinstance(value, list) and len(shape) in (1, len(value))
    else:
        expected, ok = "an object", isinstance(value, dict)
    if not ok:
        got = f"a list of {len(value)}" if isinstance(value, list) else type(value).__name__
        raise ValueError(f"{_spelt(path) or 'model'}: expected {expected}, got {got}")
    if isinstance(shape, list):
        items = ((i, x, shape[min(i, len(shape) - 1)]) for i, x in enumerate(value))
    elif "*" in shape:
        items = ((str(k), v, shape["*"]) for k, v in value.items())
    else:
        def fields():  # in order, so that the first fault is the one refused
            for key, sub in shape.items():
                name = key.rstrip("?")
                if name in value:
                    yield name, value[name], sub
                elif name == key:
                    raise ValueError(f"{_spelt((*path, name))}: missing")
            if unknown := value.keys() - {key.rstrip("?") for key in shape}:
                raise ValueError(f"{_spelt((*path, min(unknown)))}: unknown field")
        items = fields()
    # a string, or a list or object of strings, where the shape asks for one
    # is checked here without a call; most of a body is such leaves
    for step, x, sub in items:
        if sub is str:
            fits = isinstance(x, str)
        elif isinstance(sub, list):
            fits = (sub[0] is str and isinstance(x, list) and len(sub) in (1, len(x))
                    and all(map(isinstance, x, repeat(str))))
        else:
            fits = (sub.get("*") is str and isinstance(x, dict)
                    and all(map(isinstance, x.values(), repeat(str))))
        if not fits:
            _check_shape(x, sub, (*path, step))


def _spelt(path):
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path).lstrip(".")


def load_kripke(body) -> KripkeModel:
    return KripkeModel.make(
        atoms=body["atoms"],
        agents=body["agents"],
        worlds=body["worlds"],
        relations={a: [tuple(p) for p in pairs] for a, pairs in body["relations"].items()},
        valuation=body["valuation"],
    )


def store_kripke(m: KripkeModel) -> dict:
    return {
        "atoms": sorted(m.atoms),
        "agents": sorted(m.agents),
        "worlds": sorted(m.worlds),
        "relations": {a: sorted([w, v] for (w, v) in m.relations.get(a, frozenset()))
                      for a in sorted(m.agents)},
        "valuation": {p: sorted(m.valuation[p]) for p in sorted(m.atoms)},
    }


def load_klm(body):
    from .klm import KripkeLatticeModel

    base = load_kripke(body)
    return KripkeLatticeModel.make(base, body["awareness"])


def store_klm(k) -> dict:
    out = store_kripke(k.base)
    out["awareness"] = {
        a: {w: sorted(k.awareness[a][w]) for w in sorted(k.base.worlds)}
        for a in sorted(k.base.agents)
    }
    return out


def load_hms(body):
    from .hms import Event, HMSModel, UnawarenessFrame

    projections = {}
    for key, m in body.get("projections", {}).items():
        upper, _, lower = key.partition("->")
        if not lower:
            raise ValueError(f"bad projection key {key!r}; expected 'upper->lower'")
        projections[(upper.strip(), lower.strip())] = dict(m)
    frame = UnawarenessFrame(
        spaces=body["spaces"],
        order=[tuple(p) for p in body.get("order", [])],
        projections=projections,
        pi=body["pi"],
    )
    valuation = {
        p: Event.make(e["base_space"], e["base_set"])
        for p, e in body["valuation"].items()
    }
    return HMSModel(frame, valuation)


def store_hms(m) -> dict:
    fr = m.frame
    order = sorted(
        [lo, up] for (lo, up) in fr.leq if lo != up
    )
    projections = {}
    for (up, lo), pm in sorted(fr.maps.items()):
        if up != lo:
            projections[f"{up}->{lo}"] = {s: pm[s] for s in sorted(pm)}
    return {
        "spaces": {S: sorted(fr.spaces[S]) for S in sorted(fr.spaces)},
        "order": order,
        "projections": projections,
        "pi": {a: {s: sorted(fr.pi[a][s]) for s in sorted(fr.pi[a])}
               for a in sorted(fr.agents)},
        "valuation": {p: {"base_space": e.base_space, "base_set": sorted(e.base_set)}
                      for p, e in sorted(m.valuation.items())},
    }


def _load_awareness_set(body, path):
    from .fh import AtomGenerated, Explicit

    field = {"atom-generated": "atoms", "explicit": "formulas"}.get(body["kind"])
    if field not in body:  # None for an unknown kind; the shape leaves both fields optional
        raise ValueError(f"{_spelt((*path, field))}: missing" if field
                         else f"unknown awareness set kind {body['kind']!r}")
    if (other := {"atoms": "formulas", "formulas": "atoms"}[field]) in body:
        raise ValueError(f"{_spelt((*path, other))}: not a field of an {body['kind']} set")
    if field == "atoms":
        return AtomGenerated.make(body["atoms"])
    return Explicit.make(parse(t, Lang.LKA) for t in body["formulas"])


def load_fh(body):
    from .fh import FHModel

    base = load_kripke(body)
    awareness = {
        a: {w: _load_awareness_set(s, ("awareness_sets", a, w)) for w, s in per.items()}
        for a, per in body["awareness_sets"].items()
    }
    return FHModel.make(base, awareness)


def store_fh(s) -> dict:
    from .fh import AtomGenerated

    out = store_kripke(s.base)
    sets = {}
    for a in sorted(s.base.agents):
        per = {}
        for w in sorted(s.base.worlds):
            aset = s.awareness[a][w]
            if isinstance(aset, AtomGenerated):
                per[w] = {"kind": "atom-generated", "atoms": sorted(aset.atoms)}
            else:
                per[w] = {"kind": "explicit",
                          "formulas": [to_text(f) for f in aset.formulas]}
        sets[a] = per
    out["awareness_sets"] = sets
    return out


_LOADERS = {"kripke": load_kripke, "klm": load_klm, "hms": load_hms, "fh": load_fh}
_STORERS = {"kripke": store_kripke, "klm": store_klm, "hms": store_hms, "fh": store_fh}


def load_model(path_or_body, kind=None):
    """Load a model from a file path or an already-parsed body dict.

    The kind is read from the body's "kind" field, guessed from the file name
    suffix (e.g. name.klm.json), or passed explicitly.
    """
    if isinstance(path_or_body, dict):
        body = dict(path_or_body)
    else:
        with open(path_or_body, encoding="utf-8") as fh:
            body = json.load(fh)
        if kind is None:
            parts = str(path_or_body).split(".")
            if len(parts) >= 3 and parts[-2] in KINDS:
                kind = parts[-2]
        if not isinstance(body, dict):
            _check_shape(body, {})  # refuses it: a body is an object
    kind = body.pop("kind", kind)
    body.pop("comment", None)
    if kind not in KINDS:
        raise ValueError(f"cannot determine model kind (got {kind!r})")
    _check_shape(body, _SHAPES[kind])
    if kind == "hms":
        require_names(body["valuation"], body["pi"])
    else:
        require_names(body["atoms"], body["agents"])
    return _LOADERS[kind](body)


def store_model(model, path=None, comment=None) -> dict:
    kind = getattr(type(model), "kind", None)
    if kind not in _STORERS:
        raise TypeError(f"cannot store a {type(model).__name__}")
    body = {"kind": kind}
    if comment:
        body["comment"] = comment
    body.update(_STORERS[kind](model))
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=2, sort_keys=False)
            fh.write("\n")
    return body


def fixture_path(name: str):
    # imported here: from Python 3.12 on, importlib.resources imports inspect
    from importlib import resources

    return resources.files("awarekit") / "fixtures" / name


def load_fixture(name: str):
    from importlib import resources

    with resources.as_file(fixture_path(name)) as p:
        return load_model(p)
