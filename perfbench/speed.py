"""Timing at a reference machine speed.

A shared virtual machine runs Python at two speeds about 1.5x apart, for
stretches of seconds to minutes, as other tenants come and go.  A run that
falls in a fast stretch then reads 20-30% faster than one in a slow
stretch, and no statistic within the run can tell.  So the run measures
the machine's speed while the workload runs, and scales every time to one
reference speed.

Every INTERVAL_S a timer signal interrupts the workload and times
``probe``: fixed work of the library's own kind.  An operation's time, net
of the probes that ran inside it, is multiplied by REFERENCE_PROBE_S and
by the mean of 1/(probe time) over the probes from WINDOW_S before the
operation to its end.  That is its time on a machine where the probe takes
REFERENCE_PROBE_S; a slower stretch makes both the operation and the
probes slower, and the product stays put.  The probe never calls
bruhatkit, so a change to the library moves the scaled time as much as
the raw one.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time


def probe() -> int:
    """Adjacent transpositions of a permutation tuple, dict lookups and
    set inserts: about 0.14 ms."""
    seen = set()
    counts = {}
    w = (1, 2, 3, 4, 5, 6)
    for k in range(120):
        i = k % 5
        v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        counts[v] = counts.get(w, 0) + 1
        seen.add(v)
        w = v
    return len(seen)


class SpeedMeter:
    """Within ``with``, ``seconds(mark)`` is the time since ``mark()``,
    net of the probes, at the reference speed (see the module docstring).
    Only one meter may run at a time: it owns SIGALRM."""

    INTERVAL_S = 0.025
    WINDOW_S = 0.1
    # What the probe took on the 2-core shared machine the benchmark was
    # made on, between its fast and its slow stretches; scaled times are
    # then close to the seconds that machine takes.
    REFERENCE_PROBE_S = 125e-6

    def __init__(self):
        self.stamps: list[float] = []   # when each probe started
        self.rates: list[float] = []    # 1 / the probe's time
        self.spent = 0.0                # time spent in the timer handler
        self.raw_s = 0.0                # net times handed out ...
        self.scaled_s = 0.0             # ... and the same, scaled

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        # A collection the probe's allocations set off would bill the
        # workload's young objects to the probe; it runs later instead.
        enabled = gc.isenabled()
        gc.disable()
        try:
            probe()
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.stamps.append(start)
        self.rates.append(1.0 / took)
        self.spent += time.perf_counter() - start

    def mark(self):
        return time.perf_counter(), self.spent

    def seconds(self, mark) -> float:
        end = time.perf_counter()
        start, spent = mark
        net = end - start - (self.spent - spent)
        lo = bisect.bisect_left(self.stamps, start - self.WINDOW_S)
        rate = statistics.fmean(self.rates[lo:] or self.rates[-1:])
        scaled = net * self.REFERENCE_PROBE_S * rate
        self.raw_s += net
        self.scaled_s += scaled
        return scaled

    def summary(self) -> dict:
        return {
            "probes": len(self.rates),
            "probe_median_us": 1e6 / statistics.median(self.rates),
            "raw_over_scaled": self.raw_s / self.scaled_s if self.scaled_s
            else None,
            "probe_overhead_s": self.spent,
        }
