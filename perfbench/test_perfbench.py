"""Tests of the benchmark's own verdict checks, counts and tracer.

    python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

wl.import_program(os.path.dirname(HERE))

from awarekit import verify  # noqa: E402
from awarekit.formula import Lang  # noqa: E402
from hostspeed import NOMINAL_S, Meter, at_nominal  # noqa: E402
from layertrace import Tracer, layer_metrics  # noqa: E402
from run import Runner, run_passes, tail  # noqa: E402


def trade():
    return wl.build_klm(wl.TRADE_KLM)


def test_closed_form_counts_match_the_known_sizes():
    assert sum(wl.formula_counts(2, 2, 3).values()) == 26_793
    assert sum(wl.formula_counts(2, 2, 3, lka=True).values()) == 91_794
    assert wl.lattice_pairs(2, 3, 3) == 321_516
    assert wl.fh_pairs(2, 3, 3, lka=False) == 114_885
    assert wl.fh_pairs(2, 3, 3, lka=True) == 405_525


def test_closed_form_counts_match_the_enumeration():
    from awarekit.formula import atoms_of, enumerate_formulas

    for n in (1, 2, 3):
        atoms = [f"p{i}" for i in range(n)]
        for lka in (False, True):
            formulas = enumerate_formulas(atoms, ["a", "b"], 2, Lang.LKA if lka else Lang.L)
            got = {}
            for f in formulas:
                m = sum(1 << atoms.index(p) for p in atoms_of(f))
                got[m] = got.get(m, 0) + 1
            assert got == wl.formula_counts(n, 2, 2, lka)


def test_doctored_equivalence_report_is_failed():
    report = verify.check_L_equiv_klm_hms(trade(), 1).to_json()
    expected = wl.lattice_pairs(2, 3, 1)
    assert wl.check_equiv(report, expected) is None
    short = dict(report, checked=report["checked"] - 1)
    assert wl.check_equiv(short, expected) is not None
    injected = dict(report, failures=[{"formula": "i", "state": "w1@{i,l}",
                                       "left": "True", "right": "False"}])
    assert wl.check_equiv(injected, expected) is not None


def test_doctored_suite_report_is_failed():
    schemas = wl.SUITE_SCHEMAS["hms"]
    expected = wl.suite_instances(schemas, 2, 2, 1, False)
    report = verify.check_axiom_suite([trade()], verify.hms_suite(), 1, check_rules=False)
    assert wl.check_suite(report, schemas, expected) is None

    short = dict(report, checked=report["checked"] - 1)
    assert wl.check_suite(short, schemas, expected) is not None

    failure = {"formula": "i", "state": "w1@{i,l}", "left": "not True", "right": "True"}
    entry = dict(report["schemas"]["T"], failures=[failure], passed=False)
    injected = dict(report, schemas={**report["schemas"], "T": entry},
                    failures=[{"schema": "T", **failure}])
    assert wl.check_suite(injected, schemas, expected) is not None


def test_negative_control_needs_its_pinned_witness():
    with_5 = {**wl.SUITE_SCHEMAS["hms"], **wl.SCHEMA_5}
    expected = wl.suite_instances(with_5, 2, 2, 1, False)
    report = verify.check_axiom_suite([trade()], verify.hms_suite(), 1,
                                      extra_schemas=(verify.SCHEMA_5,))
    args = dict(witness={"5": wl.SCHEMA_5_WITNESS}, rules=("MP", "RK-Inference"))
    assert wl.check_suite(report, with_5, expected, **args) is None
    other = dict(wl.SCHEMA_5_WITNESS, state="w3@{i,l}")
    assert wl.check_suite(report, with_5, expected, witness={"5": other}) is not None
    assert wl.check_suite(report, with_5, expected) is not None


def test_scope_flag_excuses_coverage_but_not_failures():
    schemas = wl.SUITE_SCHEMAS["hms"]
    expected = wl.suite_instances(schemas, 2, 2, 1, False)
    report = verify.check_axiom_suite([trade()], verify.hms_suite(), 1, check_rules=False)
    incomplete = dict(report, checked=5, verdict="incomplete")
    assert wl.check_suite(incomplete, schemas, expected) is None
    body = {"kind": "equivalence", "checked": 10, "failures": [], "incomplete": True}
    assert wl.check_cli(1, body, {"kind": "equiv", "checked": 10}) is None
    assert wl.check_cli(1, {"checked": 10, "failures": []},
                        {"kind": "equiv", "checked": 10}) is not None
    assert wl.check_cli(2, None, {"kind": "check"}) is not None


def test_runner_counts_a_doctored_verdict_as_failed(tmp_path):
    report = verify.check_L_equiv_klm_hms(trade(), 1).to_json()
    expected = wl.lattice_pairs(2, 3, 1)
    jobs = [
        wl.Job("honest", lambda: report, lambda r: wl.check_equiv(r, expected)),
        wl.Job("short", lambda: dict(report, checked=report["checked"] - 1),
               lambda r: wl.check_equiv(r, expected)),
        wl.Job("raises", lambda: 1 / 0, lambda r: None),
    ]
    runner = Runner(str(tmp_path))
    runner.run_pass(jobs, 0)
    assert runner.attempted == 3
    assert [f["job"] for f in runner.failures] == ["short", "raises"]


def test_once_jobs_run_in_the_first_pass_only(tmp_path):
    calls = []

    def job(label, once=False):
        return wl.Job(label, lambda: calls.append(label), lambda r: None, once=once)

    jobs = [job("a"), job("long", once=True), job("b")]
    runner = Runner(str(tmp_path))
    walls = run_passes(runner, jobs, [j for j in jobs if not j.once], 0, 3)
    assert len(walls) == 3
    assert calls == ["a", "long", "b", "a", "b", "a", "b"]
    assert {k: len(v) for k, v in runner.times.items()} == {"a": 3, "long": 1, "b": 3}


def test_meter_samples_during_a_span_and_takes_the_samples_out():
    import signal
    import time

    meter = Meter()
    with meter.span(sample=True) as span:
        start = time.perf_counter()
        end = start + 0.3
        while time.perf_counter() < end:
            pass
    assert len(span.samples) >= 3 and span.spent > 0
    assert abs(span.seconds + span.spent - (end - start)) < 0.05
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert at_nominal(2.0, 2 * NOMINAL_S) == 1.0


def test_generated_inputs_depend_only_on_the_seed():
    import random

    a = wl.partitional_body(random.Random(3), 4, 5)
    b = wl.partitional_body(random.Random(3), 4, 5)
    c = wl.partitional_body(random.Random(4), 4, 5)
    assert a == b and a != c
    from awarekit.klm import validate_klm

    for seed in range(20):
        rng = random.Random(seed)
        assert not validate_klm(wl.build_klm(wl.partitional_body(rng, 4, 3)))
        assert not validate_klm(wl.build_klm(wl.arbitrary_body(rng, 4, 3)))
        assert not validate_klm(wl.build_klm(wl.frame_body(rng, 4)))


def test_tail_needs_ten_samples_beyond_it():
    assert tail([float(i) for i in range(12)]) == (11.0, 100)
    value, p = tail([float(i) for i in range(100)])
    assert p == 90 and value == 89.0


def test_tracer_sees_calls_through_imported_names():
    model = trade()
    tracer = Tracer()
    tracer.install()
    try:
        report = verify.check_L_equiv_klm_hms(model, 1)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    metrics = layer_metrics(tracer)
    assert metrics["klm.value_calls"] == report.checked == wl.lattice_pairs(2, 3, 1)
    assert metrics["hms.value_calls"] == report.checked
    assert metrics["klm.value_nested"] > 0
    assert metrics["formula.enumerated"] == sum(wl.formula_counts(2, 2, 1).values())
    assert metrics["transforms.h_s"] > 0 and metrics["hms.validate_calls"] == 1
    assert verify.enumerate_formulas.__module__ == "awarekit.formula"
