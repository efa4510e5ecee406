"""How fast the host runs Python while a section is timed.

On a shared host the speed of plain Python code drifts by tens of percent,
from one second to the next and over stretches of minutes, and the drift
can cover a whole run. `Gauge` times a small fixed reference job before a
section, every SAMPLE_EVERY_S during it (from a timer signal) and after
it; the section's time, less the jobs run inside it, multiplied by
`scale()` is its normalised time, in which a drift that slows the section
and the job alike cancels out. The job mixes what foqsim's simulations
spend their time on: heap pushes and pops of (time, sequence, object)
tuples, attribute access on small objects, bound method calls, dict
stores and float arithmetic.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

# about the job's median time on a 2-vCPU Xeon virtual machine; a normalised
# time is a section's time on a host where the job takes exactly this long
REFERENCE_S = 0.0017
JOB_EVENTS = 1_500
JOB_HEAP = 256  # events pending at once
SAMPLE_EVERY_S = 0.05  # jobs run inside a section add about 4% to it
EDGE_JOBS = 5  # jobs run right before and right after a section

_clock = time.perf_counter


class _Item:
    __slots__ = ("size", "seen")

    def __init__(self, size: int):
        self.size = size
        self.seen = 0.0

    def touch(self, now: float) -> float:
        self.seen = now
        return self.size * 8 / 50e6


def reference_job() -> float:
    """The fixed work; returns a value so nothing can be skipped."""
    heap: list = []
    table: dict = {}
    total = 0.0
    for seq in range(JOB_EVENTS):
        heapq.heappush(heap, ((seq * 7919) % 1009 * 1e-6, seq,
                              _Item(64 + seq % 1437)))
        if len(heap) > JOB_HEAP:
            now, key, item = heapq.heappop(heap)
            total += item.touch(now)
            table[key & 1023] = item
    return total + len(table)


class Gauge:
    """Samples the host's speed around and during one timed section.

        with Gauge() as gauge:
            t0 = gauge.now()
            ...
            seconds = gauge.now() - t0
        normalised = seconds * gauge.scale()

    `now()` is a clock that stops while a sampling job runs, so sections
    timed with it exclude the jobs. Only one gauge may be open at a time:
    it owns SIGALRM while open.
    """

    def __init__(self):
        self.jobs: list[float] = []
        self.spent = 0.0  # seconds of jobs run inside the section so far

    def now(self) -> float:
        return _clock() - self.spent

    def _job(self) -> None:
        # a collection the job's allocations set off would scan the
        # program's objects; with the collector off the job frees all it
        # made, and the program pays for its own collections
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = _clock()
            reference_job()
            self.jobs.append(_clock() - t0)
        finally:
            if collecting:
                gc.enable()

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        self._job()
        self.spent += _clock() - t0

    def __enter__(self) -> Gauge:
        for _ in range(EDGE_JOBS):
            self._job()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_JOBS):
            self._job()

    def scale(self) -> float:
        """Factor from the section's seconds to normalised seconds:
        REFERENCE_S over the mean time of the jobs sampled."""
        return REFERENCE_S * len(self.jobs) / sum(self.jobs)
