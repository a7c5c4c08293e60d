"""Host speed, sampled while the workload runs, to scale timings to a
reference speed.

The benchmark host is shared, and the speed of a fixed piece of work moves
by tens of percent within a second and by up to 1.8x for minutes at a time;
process CPU time moves with it.  No statistic inside one run removes a
slowdown that outlasts the run, and timing a fixed kernel only between
operations misses what the host does during a long one.  So a real-time
interval timer interrupts the benchmark process every ``INTERVAL_S``, and
the signal handler runs a short fixed pure-Python kernel twice and times
the second run, the two kernels below in turn.  Samples so cover every operation evenly in
time, and the handler's own time is taken out of the operation's.  Each
operation's time is scaled by the mean speed of the samples taken during
it (or, for an operation shorter than a few intervals, within ``WINDOW_S``
of it), where a sample's speed is its kernel's reference time over its
time.  A timing then reads as the time the operation would take on a host
as fast as a 2-vCPU Intel Xeon VM when quiet.

Two kernels, because a busy host slows different code by different
amounts.  In three-second windows of a 90-second ``batch-certify`` loop on
a busy host, the time per report spread (quartile distance over median)
0.34 as measured, 0.16 scaled by the dict kernel alone and 0.07 by the
allocation kernel alone.  Over eight ``oracle-scan`` runs the dict kernel
did better, and the pair did best on both.  The first, untimed run
brings the kernel's data back into cache after the workload has evicted
it: timed cold, the kernel followed the memory traffic of the host's
other tenants more than the workload did, and over eight runs of each
workload the scaled spreads were 0.03-0.09 cold against 0.03-0.05 warm.

The kernels live here, not in npicheck, so a change to the program cannot
move them; the wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time

INTERVAL_S = 0.01
# An operation's speed comes from the samples taken within WINDOW_S of it,
# and from the nearest MIN_SAMPLES if fewer are.
WINDOW_S = 0.05
MIN_SAMPLES = 10


def dict_kernel() -> int:
    """Tuple-keyed dict updates, integer arithmetic and a sort."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(250):
        key = ((i * 7919) % 61, i & 7)
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts.items()))


def alloc_kernel() -> int:
    """Many small dicts, tuples, lists and strings, and a JSON dump."""
    rows = [{"a": (i, i + 1), "b": [i] * 3, "c": str(i)} for i in range(120)]
    return len(json.dumps(rows[:20]))


# Each kernel with its time on the reference host (median over quiet minutes).
KERNELS = ((dict_kernel, 0.00020), (alloc_kernel, 0.00015))


class HostClock:
    """Speed samples from the interval timer, with the handler's running
    total of its own time.  A context manager: the timer runs inside the
    ``with`` block only, and the previous SIGALRM handler is restored.

    Inside the block the process, and every process it starts, is held to
    one CPU, so that samples are taken where the work runs: on two vCPUs of
    a shared host the other one can be fast while a CLI child is slow.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel, reference = KERNELS[len(self.stamps) % len(KERNELS)]
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.speeds.append(reference / (t1 - t0))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "HostClock":
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        os.sched_setaffinity(0, self.cpus)

    def speed(self, t0: float, t1: float) -> float:
        """Mean sample speed over [t0, t1]: below 1 when the host ran
        slower than the reference."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            centre = bisect.bisect_left(self.stamps, (t0 + t1) / 2)
            lo = max(0, min(centre - MIN_SAMPLES // 2, len(self.stamps) - MIN_SAMPLES))
            hi = min(len(self.stamps), lo + MIN_SAMPLES)
        return statistics.fmean(self.speeds[lo:hi])
