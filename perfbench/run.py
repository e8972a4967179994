"""Time-to-verdict benchmark for awarekit.

    python3 perfbench/run.py --workload equiv-trade --seed 1 --seconds 40 --trace 0

Runs one workload as a closed loop: one client, one job at a time, each job
waiting for the previous verdict. A job is one public API call
(equiv-trade, axioms-corpus) or one CLI command in its own process
(cli-frames). The first pass runs the workload's fixed job list; later
passes repeat every job not marked `once` until --seconds have elapsed, with
at least two passes. Every verdict is checked against an answer known from
the theory (see workloads.py). Times are scaled to the host's nominal speed
(see hostspeed.py), and a job's time is the median of its runs.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 times one untraced pass over the whole list in a fresh process,
then runs traced passes over the whole list in this one, and prints the
per-layer metrics per traced pass plus the tracing overhead.

The last line of standard output is the result object; the line before it
holds the run notes (machine, seed, samples, model shapes, failures). Both,
with every job's times, are also written to .perfbench_out/ in the checkout,
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

import workloads
from hostspeed import Meter, Sampler, at_nominal
from layertrace import Tracer, layer_metrics, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 8
JOB_TIMEOUT_S = 150


def tail(samples):
    """(value, percentile): the highest whole percentile from p99 down to
    p50 with at least ten samples above it, or the maximum (p100) when there
    are too few samples for that."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


class Runner:
    """Runs jobs one at a time, timing each from its start to its verdict
    and checking the verdict afterwards, outside the timed span."""

    def __init__(self, workdir, meter=None):
        self.workdir = workdir
        self.meter = meter or Meter()
        self.tracer = None
        self.times = {}  # job label -> seconds of each of its runs
        self.kernel = {}  # job label -> mean host kernel seconds in each run
        self.attempted = 0
        self.failures = []
        self.child_rss_kb = 0
        self.cli_process_s = 0.0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)

    def run_pass(self, jobs, number):
        """Runs `jobs` once each; returns the pass's wall time."""
        start = time.perf_counter()
        for index, job in enumerate(jobs):
            job_id = f"p{number}j{index}"
            if job.cli is None:
                span, reason = self._run_call(job, job_id)
            else:
                span, reason = self._run_command(job, job_id)
            self.times.setdefault(job.label, []).append(span.seconds)
            self.kernel.setdefault(job.label, []).append(span.kernel_s)
            self.attempted += 1
            if reason is not None:
                self.failures.append({"job": job.label, "pass": number, "reason": reason})
        return time.perf_counter() - start

    def _run_call(self, job, job_id):
        if self.tracer is not None:
            self.tracer.job = job_id
        verdict = error = None
        # No kernel samples inside traced spans: they would count as self time.
        with self.meter.span(sample=self.tracer is None) as span:
            try:
                verdict = job.run()
            except Exception as exc:  # a raising job is a failed job, not a crash
                error = f"raised {type(exc).__name__}: {exc}"
        return span, error or job.check(verdict)

    def _run_command(self, job, job_id):
        # The command runs under cli_shim.py, which samples the host's speed
        # from inside the child (or traces it) and hands the figures back.
        side_path = os.path.join(self.workdir, f"{job_id}.side.json")
        shim = [sys.executable, os.path.join(HERE, "cli_shim.py")]
        if self.tracer is None:
            cmd = [*shim, "sample", side_path, *job.cli]
        else:
            cmd = [*shim, "trace", side_path, job_id, *job.cli]
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            with self.meter.span(sample=False) as span:
                code, usage, seconds = spawn(cmd, out, err, self.env)
        side = None
        if os.path.exists(side_path):
            with open(side_path, encoding="utf-8") as fh:
                side = json.load(fh)
            os.remove(side_path)
        if self.tracer is None and side is not None:
            span.add(side["samples"], side["spent"])
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            body = json.loads(text) if text.strip() else None
        except json.JSONDecodeError:
            body = None
        reason = job.check((code, body))
        if reason is not None:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().strip().splitlines()
            if lines:
                reason += f"; stderr: {lines[-1]}"
        if self.tracer is not None and side is not None:
            self.tracer.merge(side, job_id)
            self.cli_process_s += seconds - side["main_wall_s"]
        return span, reason


def spawn(cmd, stdout, stderr, env=None):
    """Run a child process to its end; return its exit code, its resource
    usage and its wall time. The wait blocks on the child itself, so the
    time carries no polling delay; a watchdog kills a child that hangs."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT, env=env)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, seconds


def run_passes(runner, first, again, seconds, least):
    """The first pass over `first`, then passes over `again` until the next
    one would end after `seconds`; at least `least` passes. Returns each
    pass's wall time."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(runner.run_pass(again if walls else first, len(walls)))
        if len(walls) >= least and time.perf_counter() - start + walls[-1] > seconds:
            return walls


def untraced_pass(args, runner):
    """Time of one untraced pass over the whole job list, run in a fresh
    process like the first traced pass, so that the difference between them
    is the tracing overhead and not the warm-up of a process that already ran
    the jobs: the sum of its jobs' measured times and its wall time. Its jobs
    count towards this run's attempted and failed jobs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    out_path = os.path.join(runner.workdir, "untraced.out")
    with open(out_path, "wb") as out:
        code, _, _ = spawn(cmd, out, None)
    if code != 0:
        raise SystemExit(f"perfbench: untraced pass exited with code {code}")
    with open(out_path, encoding="utf-8") as fh:
        notes, result = (json.loads(line) for line in fh.read().strip().splitlines()[-2:])
    runner.attempted += result["attempted"]
    runner.failures += [{"job": "untraced pass", "pass": None, "reason": "failed verdict"}] * result["failed"]
    return math.fsum(times[0] for times in notes["jobs"].values()), notes["walls_s"][0]


def time_setups(args, repeats, meter):
    """Wall times of fresh processes that only set the workload up: start-up,
    imports, seeded input generation and writing the input files. Each
    process samples the host's speed itself. Returns (at nominal speed,
    measured) pairs."""
    side_path = os.path.join(WORK, f"setup-{os.getpid()}.side.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only", side_path,
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(repeats):
        with meter.span(sample=False) as span:
            code, _, _ = spawn(cmd, subprocess.DEVNULL, None)
        if code != 0:
            raise SystemExit(f"perfbench: set-up exited with code {code}")
        with open(side_path, encoding="utf-8") as fh:
            side = json.load(fh)
        os.remove(side_path)
        span.add(side["samples"], side["spent"])
        out.append((at_nominal(span.seconds, span.kernel_s), span.seconds))
    return out


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() or None


def machine_notes(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(), "commit": commit(),
        "src_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="OUT",
                        help="set the workload up, write the host-speed samples taken "
                             "meanwhile to OUT and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        sampler = Sampler()
        sampler.start()
    workloads.import_program(ROOT)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            workloads.SETUPS[args.workload](args.seed, workdir)
            sampler.stop()
            with open(args.setup_only, "w", encoding="utf-8") as fh:
                json.dump({"samples": sampler.samples, "spent": sampler.spent}, fh)
            return 0
        notes = machine_notes(args)
        # Half the set-up timings come before the passes and half after, so
        # that their median does not rest on one stretch of the host's speed.
        meter = Meter()
        setups = [] if args.trace else time_setups(args, SETUP_REPEATS // 2, meter)
        workload = workloads.SETUPS[args.workload](args.seed, workdir)
        runner = Runner(workdir, meter)
        if args.trace:
            untraced, untraced_wall = untraced_pass(args, runner)
            tracer = runner.tracer = Tracer()
            if workload.jobs[0].cli is None:
                tracer.install()
            walls = run_passes(runner, workload.jobs, workload.jobs,
                               max(args.seconds - untraced_wall, 0), 1)
            tracer.uninstall()
            per_pass = {k: v if unit_of(k) == "ratio" else v / len(walls)
                        for k, v in layer_metrics(tracer).items()}
            per_pass["cli.process_s"] = runner.cli_process_s / len(walls)
            traced = math.fsum(times[0] for times in runner.times.values())
            per_pass["trace.wall_s"] = traced
            per_pass["trace.overhead_s"] = traced - untraced
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in per_pass.items()}
            notes.update(untraced_jobs_s=untraced, untraced_wall_s=untraced_wall,
                         traced_walls_s=walls,
                         trace_missing=tracer.missing, spans_dropped=tracer.dropped)
        else:
            repeated = [job for job in workload.jobs if not job.once]
            walls = run_passes(runner, workload.jobs, repeated, args.seconds,
                               2 if args.seconds > 0 else 1)
            setups += time_setups(args, SETUP_REPEATS - len(setups), meter)
            per_job = {label: statistics.median(map(at_nominal, times, runner.kernel[label]))
                       for label, times in runner.times.items()}
            job_s = list(per_job.values())
            tail_s, tail_p = tail(job_s)
            if workload.jobs[0].cli is None:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                rss_kb = runner.child_rss_kb
            metrics = {
                "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
                "wall_s": {"value": math.fsum(job_s), "unit": "s"},
                "verdict_p50_s": {"value": statistics.median(job_s), "unit": "s"},
                "verdict_tail_s": {"value": tail_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            }
            notes.update(setups_s=[s for s, _ in setups],
                         setups_measured_s=[m for _, m in setups], walls_s=walls, verdict_tail_percentile=tail_p,
                         verdict_samples=len(job_s), jobs_at_nominal_s=per_job,
                         job_runs=sorted(Counter(map(len, runner.times.values())).items()))
        notes.update(
            loadavg_end=os.getloadavg(), shapes=workload.shapes,
            attempted=runner.attempted, failed=len(runner.failures),
            failed_ratio=len(runner.failures) / runner.attempted,
            failures=runner.failures[:10],
            jobs=runner.times, host_kernel_s=runner.kernel)
        result = {"correct": not runner.failures, "attempted": runner.attempted,
                  "failed": len(runner.failures), "metrics": metrics}
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-s{args.seconds:g}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"notes": notes, "result": result}, fh, indent=1)
        if args.trace:
            tracer.write(stem + ".spans.json")
        print(json.dumps(notes))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
