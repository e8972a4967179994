"""Job times at the host's nominal speed, read from a fixed pure-Python kernel.

The benchmark runs on a shared host whose speed flips between states about
1.7 times apart, over stretches of a fraction of a second to minutes, in
CPU time as much as in wall time, so the same job reads very different
times from one minute to the next. A `Meter` therefore samples a fixed
kernel of the same kind of work as the program (dict, set and frozenset
operations, small tuples, calls and recursion; about 1 ms): five times
before and after every job, outside its timed span, and every 50 ms during
the job, from a SIGALRM handler in the process that runs it (a CLI job's
child samples itself), whose own time is taken out of the job's. A job's
time at nominal speed is its measured time times NOMINAL_S over the mean
kernel time around and during it. The kernel is the benchmark's own, so a
change to the program cannot change it.
"""

import gc
import math
import signal
import time

# The kernel's time at nominal speed: a round figure between its times in the
# fast and the slow state of the 2-vCPU host it was tuned on (0.8 and 1.5 ms).
NOMINAL_S = 0.001
BRACKET = 5  # kernel samples between two jobs
INTERVAL_S = 0.05  # between kernel samples during a job


def kernel(n=1000):
    def swap(pair, depth):
        return pair if depth == 0 else swap((pair[1], pair[0] ^ depth), depth - 1)

    counts, seen, acc = {}, set(), 0
    for i in range(n):
        k = (i * 7919) & 4095
        counts[k] = counts.get(k, 0) + 1
        cell = frozenset((k & 7, k >> 9))
        if cell in seen:
            acc += 1
        else:
            seen.add(cell)
        acc += swap((k, i), 3)[0] & 1
    return acc


def kernel_s():
    """Wall time of one run of the kernel, with the collector off so that
    the sample does not pay for collecting the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds, kernel_seconds):
    """`seconds` measured while the kernel took `kernel_seconds`, scaled to
    the host's nominal speed."""
    return seconds * NOMINAL_S / kernel_seconds


class Sampler:
    """Runs the kernel every INTERVAL_S of wall time, from a SIGALRM handler,
    between `start()` and `stop()`; keeps the samples and the time the
    handler took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_s())
        self.spent += time.perf_counter() - start

    def start(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class Meter:
    """Times spans of work together with the host's speed around them."""

    def __init__(self):
        self.before = [kernel_s() for _ in range(BRACKET)]

    def span(self, sample):
        """A context manager timing its body. With `sample`, the kernel also
        runs every INTERVAL_S during it: only for work in this process, as a
        child process may run on another CPU than the samples. A child that
        samples itself hands its sampler's figures to `Span.add`."""
        return Span(self, sample)


class Span:
    def __init__(self, meter, sample):
        self.meter = meter
        self.sampler = Sampler() if sample else None
        self.samples, self.spent = [], 0.0

    def add(self, samples, spent):
        """Kernel samples taken, and time spent taking them, in the span."""
        self.samples += samples
        self.spent += spent

    @property
    def seconds(self):
        """The span's wall time less the time spent sampling."""
        return self.end - self.start - self.spent

    @property
    def kernel_s(self):
        """Mean kernel time before, during and after the span."""
        ks = self.before + self.samples + self.after
        return math.fsum(ks) / len(ks)

    def __enter__(self):
        self.before = self.meter.before
        if self.sampler:
            self.sampler.start()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        if self.sampler:
            self.sampler.stop()
            self.add(self.sampler.samples, self.sampler.spent)
        self.after = self.meter.before = [kernel_s() for _ in range(BRACKET)]
        return False
