"""Deterministic discrete-event kernel.

Timestamps are integer nanoseconds. Events at equal timestamps order by
(rank, port, flow, insertion sequence): control updates first, then sampler
and reporter ticks, then packet motion, so an interval boundary always sees
feedback applied and counters harvested before the next interval's traffic.
The switch schedules one tick per period, not one per queue: the report
(port -1) fires first, then one sampler tick that samples every queue in
key order and one RED tick that updates every queue's average (port 0).

Handlers schedule with `at(now + delay, ...)`. Most events carry one of a
few fixed delays (a serialisation time, the fabric drain, a TCP round
trip), so the loop keeps one FIFO lane per delay registered with `lane`:
such an event is appended to its lane instead of being pushed onto the
heap. Timers are lazy: a TCP source keeps one live retransmission event
and a deadline, so an ack that only moves the deadline later pushes nothing.
A backed-off deadline's event is pushed one un-backed-off RTO out and
re-arms at the deadline from there, so an ack that resets the backoff
within that RTO pushes nothing either. An event superseded by an earlier
deadline (mostly an RTO that shrank after an RTT sample) stays queued and
fires as a no-op (see `TcpSource._arm_timer`).

Event keys and handler names are fixed: the benchmark's tracer
(`bench/tracer.py`) classifies each event by its handler's `__qualname__`
and its port, and counts every `at` call. A handler that runs once per
packet reads only state resolved at setup or computed by the tick that
changes it; it re-derives nothing per event. It is also built once per
object that schedules it (a port, an access link, a source) and kept
there, reading the packet it acts on from its owner. The method that
builds it binds what it reads as default arguments, not through a
closure, which would make that method create a cell per captured local
on every call; so an event allocates no closure and no cell. A bound
method or `functools.partial` would hold no cells either, but it would
not keep the `__qualname__` the tracer classifies by. Only the TCP ack
(which carries its ack number) and the control application (its
probability) are built per event, with their values bound the same way.
Every caller passes the key to `at` positionally, since CPython 3.11's
interpreter does not specialise a call that passes keywords.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from heapq import heappop, heappush, heapreplace
from itertools import count
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
    """tx_ns at one rate, memoised per packet size: size -> ns.

    Each size's time is registered as a lane of `loop` when first used.
    """

    def __init__(self, rate_bps: float, loop: EventLoop):
        super().__init__()
        self.rate_bps = rate_bps
        self.loop = loop

    def __missing__(self, nbytes: int) -> int:
        value = self[nbytes] = tx_ns(nbytes, self.rate_bps)
        self.loop.lane(value)
        return value


def stream(seed: int, name: str) -> random.Random:
    """Independent named generator: one per stochastic decision point.

    Derived by hashing (seed, name) so adding a stream never perturbs the
    draws of existing ones.
    """
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class EventLoop:
    """Event queue with a deterministic total order: a heap plus delay lanes.

    Events pop in the order of their key (when, rank, port, flow, seq),
    seq being the insertion count, so no two keys are equal. An event
    scheduled `delay` after now, for a delay registered with `lane`, is
    appended to that delay's FIFO when its key is above the lane's tail;
    since now never decreases, that holds for all but an equal-time entry
    out of key order, which goes to the heap. Every lane is therefore
    sorted, and `_heads` is a heap of the first entry of each non-empty
    lane: each pop takes the smaller of the heap's top and the lowest lane
    head, at a cost independent of how many lanes there are. The pop order
    is exactly that of one heap holding every event.
    """

    def __init__(self):
        self._heap: list = []   # (when, rank, port, flow, seq, fn[, lane])
        self._heads: list = []  # the first entry of each non-empty lane
        self._lanes: dict[int, deque] = {}  # delay (ns) -> lane
        self._seq = count()
        self.now = 0  # ns

    def lane(self, delay: int) -> None:
        """Give events scheduled `delay` ns after now a FIFO lane."""
        if delay < 0:
            raise ValueError(f"a lane's delay must be non-negative, got {delay}")
        if delay not in self._lanes:
            self._lanes[delay] = deque()

    def at(self, when: int, fn, rank: int = RANK_DATA, port: int = -1,
           flow: int = -1) -> None:
        # every lane's delay is non-negative, so only the heap path can be
        # handed a time in the past
        lane = self._lanes.get(when - self.now)
        if lane is None:
            if when < self.now:
                raise ValueError("cannot schedule into the past")
            heappush(self._heap, (when, rank, port, flow, next(self._seq), fn))
            return
        entry = (when, rank, port, flow, next(self._seq), fn, lane)
        if not lane:
            lane.append(entry)
            heappush(self._heads, entry)
        elif entry > lane[-1]:
            lane.append(entry)
        else:
            heappush(self._heap, entry)

    def run(self, until: int) -> None:
        """Process every event with timestamp <= until."""
        heap = self._heap
        heads = self._heads
        while True:
            if heads:
                entry = heads[0]
                if heap and heap[0] < entry:
                    entry = heap[0]
                    if entry[0] > until:
                        break
                    heappop(heap)
                else:
                    if entry[0] > until:
                        break
                    lane = entry[6]
                    lane.popleft()
                    if lane:
                        heapreplace(heads, lane[0])
                    else:
                        heappop(heads)
            elif heap and heap[0][0] <= until:
                entry = heappop(heap)
            else:
                break
            self.now = entry[0]
            entry[5]()
        self.now = until
