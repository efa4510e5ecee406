"""Deterministic discrete-event kernel.

Timestamps are integer nanoseconds. Events at equal timestamps order by
(rank, port, flow, insertion sequence): control updates first, then sampler
and reporter ticks, then packet motion, so an interval boundary always sees
feedback applied and counters harvested before the next interval's traffic.
The switch schedules one tick per period, not one per queue: the report
(port -1) fires first, then one sampler tick that samples every queue in
key order and one RED tick that updates every queue's average (port 0).

Handlers schedule with `at(now + delay, ...)`. Timers are lazy: a TCP source
keeps one pending retransmission event and a deadline, so an ack that only
moves the deadline later pushes nothing (see `TcpSource._arm_timer`).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Annotated

RANK_CONTROL = 0  # feedback applications
RANK_TICK = 1     # samplers, reporters, queue-average updates
RANK_DATA = 2     # packet motion, source emissions, timers

NS = 1_000_000_000

# the annotation of a config field that holds seconds, which ns() must take
Seconds = Annotated[float, "seconds"]


def ns(seconds: float) -> int:
    """Seconds to integer nanoseconds."""
    return int(round(seconds * NS))


def tx_ns(nbytes: int, rate_bps: float) -> int:
    """Serialization time of nbytes at rate_bps, in integer nanoseconds."""
    return int(round(nbytes * 8 * NS / rate_bps))


class TxTimes(dict):
    """tx_ns at one rate, memoised per packet size: size -> ns."""

    def __init__(self, rate_bps: float):
        super().__init__()
        self.rate_bps = rate_bps

    def __missing__(self, nbytes: int) -> int:
        value = self[nbytes] = tx_ns(nbytes, self.rate_bps)
        return value


def stream(seed: int, name: str) -> random.Random:
    """Independent named generator: one per stochastic decision point.

    Derived by hashing (seed, name) so adding a stream never perturbs the
    draws of existing ones.
    """
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class EventLoop:
    """Binary-heap event queue with a deterministic total order."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0  # ns

    def at(self, when: int, fn, rank: int = RANK_DATA, port: int = -1,
           flow: int = -1) -> None:
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (when, rank, port, flow, self._seq, fn))
        self._seq += 1

    def run(self, until: int) -> None:
        """Process every event with timestamp <= until."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            when, _, _, _, _, fn = heapq.heappop(heap)
            self.now = when
            fn()
        self.now = until
