"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared, and their speed drifts by up
to 2x within seconds and between minutes.  A small fixed computation,
``kernel``, is timed every PERIOD_S seconds while operations run (from a
SIGALRM handler, in the benchmark's own thread).  Every op's time is
multiplied by REFERENCE_S / (the kernel's trimmed mean time within WINDOW_S
of that op).  A change to the library moves the scaled times; a change of
machine speed mostly does not.  The kernel does the kind of work the library
does: Fraction arithmetic on growing denominators and numpy calls on small
arrays, both bound by the interpreter.
"""

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 0.001
PERIOD_S = 0.025
WINDOW_S = 1.0  # samples this close to an op set its scale factor
_TS = np.linspace(0.0, 1.0, 16)
_CS = np.arange(1.0, 6.0)


def kernel():
    s = Fraction(0)
    for i in range(1, 120):
        s = s * Fraction(3, 4) + Fraction(1, i % 89 + 1)
    acc = 0.0
    for k in range(50):
        acc += float(_CS @ np.exp(np.outer(_CS, _TS + k * 1e-3)).sum(axis=1))
    return s, acc


def kernel_seconds(repeats):
    """Median time of `repeats` kernel runs, now."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def slowness(durations):
    """Kernel time over a region: the mean of its samples with the fastest
    and slowest tenth dropped, since a sample can itself be preempted."""
    d = sorted(durations)
    cut = len(d) // 10
    return statistics.fmean(d[cut : len(d) - cut])


def factor(kernel_s):
    """The scale factor for times measured while the kernel took kernel_s."""
    return REFERENCE_S / kernel_s


def scale(spans, samples):
    """Per op (start, end): its latency without the kernel samples that ran
    inside it, and the factor for the samples within WINDOW_S of it (all
    samples if fewer than 3 are that close)."""
    times = [t for t, _ in samples]
    out = []
    for t0, t1 in spans:
        inside = samples[bisect.bisect_left(times, t0) : bisect.bisect_left(times, t1)]
        near = samples[bisect.bisect_left(times, t0 - WINDOW_S) : bisect.bisect_left(times, t1 + WINDOW_S)]
        if len(near) < 3:
            near = samples
        slow = slowness([d for _, d in near]) if len(near) >= 3 else kernel_seconds(3)
        out.append((t1 - t0 - sum(d for _, d in inside), factor(slow)))
    return out


class Sampler:
    """Times the kernel every PERIOD_S seconds while active.

    ``samples`` holds (start, duration) pairs.  The kernel runs inside
    whatever operation is being timed, so callers subtract the durations of
    the samples that started within an operation from its latency."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
