"""Outside-in layer tracing: timing wrappers installed from the benchmark's
files on the public functions and methods of each awarekit module.

A wrapped call records a span (id, name, start, end, parent id, job id) and
adds its self time (its duration minus that of the wrapped calls inside it)
to its layer's totals. Recursive calls of the per-state evaluators are
counted, not timed, so that a formula's evaluation is one span. Calls to the
frame's upward closure are only counted. Nothing under src/ is edited: the
wrappers replace the module and class attributes at run time, including the
names other modules imported under their own names.
"""

from __future__ import annotations

import importlib
import json
import os
import time

TIMED, RECURSIVE, COUNTED = "timed", "recursive", "counted"

# (module, attribute, layer stat, kind). Several attributes may share a stat.
TARGETS = (
    ("formula", "enumerate_formulas", "formula.enumerate", TIMED),
    ("formula", "parse", "formula.parse", TIMED),
    ("kripke", "relation_properties", "kripke.relation_properties", TIMED),
    ("klm", "Evaluator.__init__", "klm.evaluator_setup", TIMED),
    ("klm", "Evaluator.value", "klm.value", RECURSIVE),
    ("klm", "KripkeLatticeModel.omega", "klm.omega", TIMED),
    ("hms", "UnawarenessFrame.__init__", "hms.frame_init", TIMED),
    ("hms", "UnawarenessFrame.upward_closure", "hms.upward_closure", COUNTED),
    ("hms", "validate_model", "hms.validate", TIMED),
    ("hms", "DenotationEvaluator.value", "hms.value", TIMED),
    ("fh", "FHEvaluator.value", "fh.value", RECURSIVE),
    ("fh", "check_pp", "fh.checks", TIMED),
    ("fh", "check_ka", "fh.checks", TIMED),
    ("transforms", "h_transform", "transforms.h", TIMED),
    ("transforms", "l_transform", "transforms.l", TIMED),
    ("transforms", "k_transform", "transforms.k", TIMED),
    ("transforms", "fh_transform", "transforms.fh", TIMED),
    ("verify", "check_L_equiv_klm_hms", "verify.equiv", TIMED),
    ("verify", "check_L_equiv_hms_klm", "verify.equiv", TIMED),
    ("verify", "check_equiv_fh_klm", "verify.equiv", TIMED),
    ("verify", "check_axiom_suite", "verify.suite", TIMED),
    ("verify", "ValidityChecker.__init__", "verify.checker_setup", TIMED),
    ("verify", "ValidityChecker.check", "verify.checker_check", TIMED),
    ("modelio", "load_model", "modelio.load", TIMED),
    ("modelio", "store_model", "modelio.store", TIMED),
    ("cli", "main", "cli.main", TIMED),
)

# Spans kept per stat; the totals always cover every call. The per-state
# evaluators make millions of top-level calls per run, which would not fit
# in memory as spans.
SPAN_CAP = 2000


def _file_size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_enumerated(tracer, args, kwargs, out):
    tracer.add("formula.enumerated", len(out))


def _count_frame_states(tracer, args, kwargs, out):
    tracer.add("hms.frame_states", len(args[0].state_space))


def _count_suite(tracer, args, kwargs, out):
    tracer.add("verify.instances", out.get("checked", 0))
    tracer.add("verify.capped_schemas",
               sum(1 for e in out.get("schemas", {}).values() if e.get("capped")))


def _count_loaded(tracer, args, kwargs, out):
    tracer.add("modelio.bytes", _file_size(args[0]))


def _count_stored(tracer, args, kwargs, out):
    tracer.add("modelio.bytes", _file_size(args[1] if len(args) > 1 else kwargs.get("path")))


POST = {
    "formula.enumerate": _count_enumerated,
    "hms.frame_init": _count_frame_states,
    "verify.suite": _count_suite,
    "modelio.load": _count_loaded,
    "modelio.store": _count_stored,
}


class Tracer:
    """Holds the wrappers' totals and spans for one process."""

    def __init__(self):
        self.stats = {}  # stat -> [self seconds, calls, nested calls]
        self.counts = {}  # counter -> total
        self.spans = []
        self.dropped = 0
        self.job = None
        self.missing = []
        self._stack = []  # open frames: [start, child seconds, span id]
        self._ids = 0
        self._kept = {}
        self._restore = []

    def add(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def install(self, package="awarekit"):
        """Wrap every target that exists; record the ones that do not."""
        modules = {}
        for module_name in dict.fromkeys(t[0] for t in TARGETS):
            try:
                modules[module_name] = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                pass
        modules[package] = importlib.import_module(package)
        for module_name, attr, stat, kind in TARGETS:
            module = modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, stat, kind)
            if owner_name:
                self._patch(owner, name, fn, wrapper)
                continue
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def _patch(self, owner, name, fn, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, fn))

    def _wrap(self, fn, stat, kind):
        totals = self.stats.setdefault(stat, [0.0, 0, 0])
        if kind == COUNTED:
            def counted(*args, **kwargs):
                totals[1] += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, clock = self._stack, self.spans, time.perf_counter
        post = POST.get(stat)
        self._kept.setdefault(stat, 0)
        tracer = self

        def timed(*args, **kwargs):
            tracer._ids += 1
            frame = [clock(), 0.0, tracer._ids]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                totals[0] += duration - frame[1]
                totals[1] += 1
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                if tracer._kept[stat] < SPAN_CAP:
                    tracer._kept[stat] += 1
                    spans.append((frame[2], stat, frame[0], end, parent, tracer.job))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer, args, kwargs, out)
            return out

        if kind == TIMED:
            return timed

        active = [False]

        def recursive(*args, **kwargs):
            if active[0]:
                totals[2] += 1
                return fn(*args, **kwargs)
            active[0] = True
            try:
                return timed(*args, **kwargs)
            finally:
                active[0] = False
        return recursive

    def to_json(self):
        return {"stats": self.stats, "counts": self.counts, "missing": self.missing,
                "dropped": self.dropped,
                "spans": [list(s) for s in self.spans]}

    def merge(self, body, job):
        """Fold in a child process's trace, tagging its spans with `job`."""
        for stat, (self_s, calls, nested) in body["stats"].items():
            totals = self.stats.setdefault(stat, [0.0, 0, 0])
            totals[0] += self_s
            totals[1] += calls
            totals[2] += nested
        for counter, n in body["counts"].items():
            self.add(counter, n)
        self.dropped += body["dropped"]
        for name in body["missing"]:
            if name not in self.missing:
                self.missing.append(name)
        self.spans.extend((f"{job}:{sid}", stat, start, end,
                           None if parent is None else f"{job}:{parent}", job)
                          for sid, stat, start, end, parent, _ in body["spans"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(tracer):
    """The per-layer metric values from a tracer's totals (zero for a layer
    the workload did not touch)."""
    def stat(name):
        return tracer.stats.get(name, [0.0, 0, 0])

    count = tracer.counts.get
    instances = count("verify.instances", 0)
    return {
        "klm.value_s": stat("klm.value")[0],
        "klm.value_calls": stat("klm.value")[1],
        "klm.value_nested": stat("klm.value")[2],
        "hms.value_s": stat("hms.value")[0],
        "hms.value_calls": stat("hms.value")[1],
        "fh.value_s": stat("fh.value")[0],
        "fh.value_calls": stat("fh.value")[1],
        "fh.value_nested": stat("fh.value")[2],
        "fh.checks_s": stat("fh.checks")[0],
        "verify.equiv_self_s": stat("verify.equiv")[0],
        "verify.suite_self_s": stat("verify.suite")[0],
        "verify.instances": instances,
        "verify.capped_schemas": count("verify.capped_schemas", 0),
        "verify.checker_setup_s": stat("verify.checker_setup")[0],
        "verify.checker_check_s": stat("verify.checker_check")[0],
        "verify.checker_check_calls": stat("verify.checker_check")[1],
        "verify.fallback_ratio": stat("verify.checker_check")[1] / instances if instances else 0.0,
        "formula.enumerate_s": stat("formula.enumerate")[0],
        "formula.enumerated": count("formula.enumerated", 0),
        "formula.parse_s": stat("formula.parse")[0],
        "hms.frame_init_s": stat("hms.frame_init")[0],
        "hms.frame_states": count("hms.frame_states", 0),
        "hms.validate_s": stat("hms.validate")[0],
        "hms.validate_calls": stat("hms.validate")[1],
        "hms.upward_closure_calls": stat("hms.upward_closure")[1],
        "transforms.h_s": stat("transforms.h")[0],
        "transforms.l_s": stat("transforms.l")[0],
        "transforms.k_s": stat("transforms.k")[0],
        "transforms.fh_s": stat("transforms.fh")[0],
        "kripke.relation_properties_s": stat("kripke.relation_properties")[0],
        "klm.evaluator_setup_s": stat("klm.evaluator_setup")[0],
        "klm.omega_s": stat("klm.omega")[0],
        "modelio.load_s": stat("modelio.load")[0],
        "modelio.store_s": stat("modelio.store")[0],
        "modelio.bytes": count("modelio.bytes", 0),
        "cli.main_s": stat("cli.main")[0],
    }
