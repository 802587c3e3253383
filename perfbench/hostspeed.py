"""Host-speed calibration for the benchmark's timings.

The benchmark shares a few cores of a host whose speed drifts by half
or more between episodes that last from seconds to minutes (process CPU
time drifts exactly as wall time, so it is the speed of the CPU, not
descheduling).  A wall-clock time therefore says as much about the host
as about the library.  To compare two versions of the library, each
timing is scaled to a host of fixed speed: a fixed probe that never
touches the library is timed every so often while the queries run, and
a query's time is multiplied by the probe's reference time over its mean
time in the probes during and around the query.  The result is the
query's time on a host that runs the probe in exactly its reference
time.  A change to the library moves the query's time and not the
probe's, so it moves the scaled time in full.

There are two probes, because starting a process slows down with the
host far less than interpreted code does:

- ``burst``: a pure-Python kernel, for queries that run in the process;
- ``start``: a fresh interpreter that imports a fixed set of standard
  modules, for queries that each start a process (the ``cli`` workload).
"""

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Reference times of the probes: about what they take on a 2-core Intel
# Xeon virtual machine with Python 3.11 in its faster episodes.
KERNEL_REFERENCE_S = 0.001
START_REFERENCE_S = 0.15
# Loop steps of one kernel run, and kernel runs per burst.
KERNEL_STEPS = 280
BURST = 3
# Wall time between probes.  The host's speed changes within tenths of a
# second: on decide, the interquartile range of a query's scaled times
# over the passes of a run was 0.14-0.18 of their median with a burst
# every 0.02 s, 0.17-0.20 every 0.04 s, 0.25-0.28 every 0.1 s and 0.41-0.46
# unscaled.  A burst every 0.05 s costs about 6% of the time; a start
# costs about 15% of its slice, and starts are only taken between
# queries.
KERNEL_SLICE_S = 0.05
START_SLICE_S = 1.0
START_CODE = ("import argparse, decimal, email.parser, fractions, http.client, json, "
              "logging, unittest, xml.dom.minidom")
START_TIMEOUT_S = 60


def kernel():
    """Interpreted work of the kind the library does (Fraction arithmetic,
    tuples, dict updates, calls)."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, KERNEL_STEPS):
        f = Fraction(i % 7 + 1, i % 5 + 2)
        acc = acc + f * f if i % 3 else acc - f
        key = (i % 31, i % 17)
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


def burst(runs: int = BURST) -> float:
    """Median time of one kernel run over ``runs`` runs.  The cyclic
    collector is off meanwhile, so the kernel is not charged for
    collecting the library's garbage."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def start() -> float:
    """Time to start an interpreter that imports ``START_CODE`` and exits."""
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", START_CODE], check=True, capture_output=True,
                   timeout=START_TIMEOUT_S)
    return time.perf_counter() - began


class Calibration:
    """Probes of the host's speed, each stamped with the time it started.

    With ``timer`` (in-process queries) a probe is taken every
    ``slice_s`` by a SIGALRM handler, also in the middle of a long query;
    ``stolen_s`` adds up the time spent in the handler, which the caller
    subtracts from what it times.  Without it (queries that start a
    process) ``tick`` takes a probe between queries when the last one is
    older than a slice.  Use as a context manager around the queries;
    leaving it takes the probe that closes the last slice.
    """

    def __init__(self, probe=burst, reference_s: float = KERNEL_REFERENCE_S,
                 slice_s: float = KERNEL_SLICE_S, timer: bool = True):
        self.probe = probe
        self.reference_s = reference_s
        self.slice_s = slice_s
        self.timer = timer
        self.times = []
        self.values = []
        self.stolen_s = 0.0
        self._busy = False
        self._previous = None

    @classmethod
    def for_processes(cls) -> "Calibration":
        return cls(start, START_REFERENCE_S, START_SLICE_S, timer=False)

    def __enter__(self) -> "Calibration":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.slice_s, self.slice_s)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self) -> None:
        began = time.perf_counter()
        try:
            value = self.probe()
            self.times.append(began)
            self.values.append(value)
        finally:
            self.stolen_s += time.perf_counter() - began

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        except RecursionError:
            # Interrupted a deep recursion: drop this probe rather than
            # raise in the library's frame.
            pass
        finally:
            self._busy = False

    def tick(self) -> None:
        """Between queries: take a probe if the last one is older than a
        slice (only without the timer)."""
        if not self.timer and time.perf_counter() - self.times[-1] >= self.slice_s:
            self._sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured from ``start`` to ``end``: the
        reference time over the mean of the probes taken during it and
        the last one before and first one after it."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        around = self.values[first:last + 1]
        return self.reference_s / (sum(around) / len(around))

    def median_factor(self) -> float:
        return self.reference_s / statistics.median(self.values)
