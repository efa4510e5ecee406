"""Packet-level model of a feedback output-queued switch.

One N-port shared-memory switch. Ingress droppers thin arriving traffic per
(output, flow); survivors enter a shared fabric pool with two priority FIFOs
per output. Each output line drains its fabric queues at the speedup rate
into per-flow output queues, which a strict-priority plus weighted-fair
scheduler empties onto the line, picking from one heap of backlogged queues
per output at O(log F) cost for F flows; a delivered packet is handed to its
receiver, if it has one. Each (output, flow) queue is built with the switch,
with its sink's label for each row it writes and its controller step. One
sampler call per interval samples every queue in key order: it measures
each queue's interval once and runs the queue's step at once, and one
control application, one feedback delay later, hands the ingress droppers
every drop probability the tick decided.
The report's fabric and occupancy labels are built with it too, so no
label is made per row. Every row reaches the sink in a block, its time and
each row's label and value: a report window is one block, a sampler tick's
relative congestion rows another, and the run totals a third.

The switch's config (`SwitchConfig`, its flow, feedback and RED sections,
and the service classes' tier table) lives in `foqsim.config`.

A flow's service class is read once, into its output queue's tier; every
branch on the class (policer, fabric priority, WFQ tag and virtual time)
reads the tier, and a premium queue is built with no controller step.

Byte counters are integers, timestamps integer nanoseconds, and every
stochastic decision draws from its own named generator, so equal seeds give
bit-identical runs.

The ingress finds a packet's (egress, flow) queue once and stamps it on the
packet; every later per-packet step (fabric charge, output enqueue, line
start, line completion) reaches the queue through the packet or the ready
heap entry. These steps read only state resolved at setup or computed by
the tick that changes it, such as a queue's RED drop probability, which the
RED tick refreshes right after the average it follows from. Event keys and
handler names stay fixed, because the benchmark's tracer (`bench/tracer.py`)
classifies events by them. Each port's drain and line handlers are built
by its first drain and first line start and kept on the port: they read
the packet from `in_drain` and `in_tx`, and they bind the switch and the
port as default arguments, so no event allocates a closure and neither
`_start_drain` nor `_start_out` makes a cell per call. They stay the
lambdas in those methods, whose `__qualname__` the tracer knows; a bound
method or `functools.partial` would not. The control application built
per sampler tick binds its tick's (queue, probability) pairs the same way.

The drain and the line are work-conserving FIFO servers: the handler that
ends one service starts the next before it returns, so an idle drain has
empty FIFOs and an idle line an empty ready heap. A packet that finds its
drain or line idle is therefore handed to `_start_drain` or `_start_out`
at once, without a round trip through the FIFO and the pool occupancy or
through its output queue and the ready heap; `out_scheduler_select` runs
only when a line completion has to pick.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Callable

from .config import _TIER, RedParams, SwitchConfig
from .control import (
    derive_beta,
    drop_level_table,
    gb_signal_from_congestion,
    pi_update,
)
from .events import (NS, RANK_CONTROL, RANK_DATA, RANK_TICK, EventLoop, TxTimes,
                     ns, stream)
from .timeseries import CsvSink, TimeSeries


@dataclass(slots=True)
class Packet:
    flow_id: int
    ingress_port: int
    egress_port: int
    size: int  # bytes
    seq: int = 0
    receiver: Callable[[Packet], None] | None = None  # called at delivery
    arrived_at: int = -1  # ns, stamped at the ingress dropper
    # its (egress, flow) queue, stamped next to arrived_at
    queue: _OutQueue | None = field(default=None, repr=False, compare=False)


def red_drop_probability(avg: float, params: RedParams) -> float:
    """Linear ramp from min_th to max_th, certain drop above max_th."""
    if avg < params.min_th:
        return 0.0
    if avg >= params.max_th:
        return 1.0
    return params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)


class _TokenBucket:
    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate_bps: float, burst_bytes: int):
        self.rate = rate_bps
        self.burst = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self.last = 0  # ns; a full bucket's first admit ignores it

    def admit(self, size: int, now: int) -> bool:
        tokens = self.tokens + (now - self.last) * self.rate / (8 * NS)
        # min(burst, tokens): the first operand unless the second is smaller
        burst = self.burst
        self.tokens = tokens if tokens < burst else burst
        self.last = now
        if self.tokens >= size:
            self.tokens -= size
            return True
        return False


class _Port:
    """One egress: its two fabric FIFOs (premium first), the packets in
    drain and on the line, and its scheduler's ready heap and virtual times.
    Its output queues are reached through the heap and the packets."""

    __slots__ = ("index", "fifos", "fifo_bytes", "in_drain", "in_tx",
                 "ready", "vt", "drain_done", "out_done")

    def __init__(self, index):
        self.index = index
        self.fifos = (deque(), deque())
        self.fifo_bytes = [0, 0]
        self.in_drain = None
        self.in_tx = None  # the packet on the line; None while it is idle
        # a heap of (tier, head finish tag, flow id, queue) per backlogged
        # queue, and each tier's virtual time: the finish tag it served last
        self.ready = []
        self.vt = [0.0, 0.0, 0.0]
        # the handlers that end in_drain's drain and in_tx's line time,
        # built by the first of each and scheduled by every later one
        self.drain_done = None
        self.out_done = None


# the rows each output queue writes: its sampler's, then its report's
_QUEUE_ROWS = (("rel_cong", "ratio"), ("throughput_bps", "bps"),
               ("ingress_drop_bps", "bps"), ("fabric_drop_bps", "bps"),
               ("egress_drop_bps", "bps"), ("out_queue_bytes", "bytes"),
               ("delay_mean_s", "s"), ("delay_p99_s", "s"))

# the output-queue counters summed into each flow's ledger, in its order,
# and the run-total metric each is reported as
_TOTALS = {
    "injected": "injected_bytes_total",
    "ingress_dropped": "ingress_drop_bytes_total",
    "fabric_dropped": "fabric_drop_bytes_total",
    "egress_dropped": "egress_drop_bytes_total",
    "delivered": "delivered_bytes_total",
}


class _OutQueue:
    """One (egress, flow) queue with its dropper, controller and counters;
    the packets bound for it carry it from the ingress on.

    Each byte event adds to exactly one of the six cumulative byte counters.
    The sampler and the report each keep a snapshot of the counters they
    read last; their interval and window values are differences against it.
    """

    __slots__ = ("egress", "flow_id", "labels", "tier", "weight", "packets",
                 "backlog", "last_tag", "red_avg", "red_p", "red_rng", "step",
                 "drop_prob", "level", "accumulator", "last_drop_prob", "delays",
                 "injected", "ingress_dropped", "fabric_dropped", "arrived",
                 "egress_dropped", "delivered", "sampled", "reported")

    def __init__(self, egress, flow_id, labels, tier, weight, red_rng, step):
        self.egress = egress
        self.flow_id = flow_id
        self.labels = labels    # its sink's label of each of _QUEUE_ROWS
        self.tier = tier        # 0 premium, 1 assured, 2 best effort
        self.weight = weight
        self.packets = deque()  # (packet, finish_tag); premium tags are 0.0
        self.backlog = 0        # bytes
        self.last_tag = 0.0
        self.red_avg = 0.0
        self.red_p = 0.0        # RED drop probability at red_avg
        self.red_rng = red_rng  # None without RED
        self.drop_prob = 0.0    # applied at every ingress dropper
        self.level = 0          # gear-box drop level
        self.accumulator = 0.0  # PI integral term
        self.last_drop_prob = 0.0
        self.delays = []        # ns, of this report window's deliveries
        self.injected = 0
        self.ingress_dropped = 0
        self.fabric_dropped = 0
        self.arrived = 0        # drained into the output, before its dropper
        self.egress_dropped = 0
        self.delivered = 0
        self.sampled = (0, 0, 0)     # arrived, delivered, egress_dropped
        self.reported = (0, 0, 0, 0)  # delivered and the three drop stages
        # the controller step the sampler runs; a premium queue runs none
        self.step = step if tier else None


class Switch:
    """The simulated switch, with one output queue per distinct (egress,
    flow) pair in queues, plus its event loop and measurement series."""

    def __init__(self, config: SwitchConfig,
                 queues: Iterable[tuple[int, int]] = (), seed: int = 0,
                 loop: EventLoop | None = None,
                 sink: CsvSink | None = None):
        bad = config.validate()
        if bad:
            raise ValueError("invalid switch config: " + "; ".join(bad))
        self.config = config
        self._fabric_memory = config.fabric_memory
        self._out_queue_size = config.out_queue_size
        self.loop = loop if loop is not None else EventLoop()
        self._drain_ns = TxTimes(config.speedup * config.line_rate, self.loop)
        self._line_ns = TxTimes(config.line_rate, self.loop)

        # where the measurement rows go, under labels built here; run()
        # returns it
        self._series = sink if sink is not None else TimeSeries()
        label = self._series.label
        # indexed by port; the report and the eviction scan (ties to the
        # lowest port) walk it in port order
        self._ports = [_Port(j) for j in range(config.num_ports)]
        # built in key order, the order the sampler and the report walk
        self._queues: dict[tuple[int, int], _OutQueue] = {}
        red = config.red
        # the feedback mode's controller step, or None under off
        step = {"off": None, "pi": self._pi_step,
                "gearbox": self._gearbox_step}[config.feedback.mode]
        for egress, flow_id in sorted(set(queues)):
            spec = config.flows.get(flow_id)
            if spec is None:
                raise ValueError(f"flow {flow_id} not defined in the switch config")
            if not 0 <= egress < config.num_ports:
                raise ValueError(f"egress port {egress} out of range")
            tier = _TIER[spec.svc_class]
            labels = [label(metric, egress, flow_id, unit)
                      for metric, unit in _QUEUE_ROWS]
            rng = None if red is None else stream(seed, f"red.{egress}.{flow_id}")
            self._queues[egress, flow_id] = _OutQueue(
                egress, flow_id, labels, tier, spec.weight, rng, step)
        # each port with a queue, in port order, and the label of its
        # fabric row in the report
        self._queued_ports = [
            (self._ports[j], label("fabric_queue_bytes", j, None, "bytes"))
            for j in sorted({j for j, _ in self._queues})]
        self._occupancy_label = label("fabric_occupancy_bytes", None, None,
                                      "bytes")
        self._occupancy = 0
        self._buckets = {  # a full bucket per (ingress, policed premium flow)
            (i, fid): _TokenBucket(spec.police_rate, spec.police_burst)
            for fid, spec in config.flows.items()
            if spec.police_rate is not None for i in range(config.num_ports)}
        self._ingress_rng = [stream(seed, f"ingress.{i}")
                             for i in range(config.num_ports)]

        fb = config.feedback
        self._delay_ns = ns(fb.delay)
        self._interval_ns = ns(fb.interval)
        self._report_ns = ns(config.report_interval
                             if config.report_interval is not None else fb.interval)
        if fb.mode == "gearbox":
            self._drop_table = drop_level_table(derive_beta(fb.d_max, fb.d_min),
                                                fb.table_size)
        self._started = False

    # --- ingress ---------------------------------------------------------

    def ingress_arrival(self, packet: Packet) -> None:
        """Full ingress pipeline: policer, dropper, fabric admission."""
        key = (packet.egress_port, packet.flow_id)
        oq = self._queues.get(key)
        if oq is None:
            raise ValueError(f"no queue registered for egress/flow {key}")
        ingress = packet.ingress_port
        if not 0 <= ingress < len(self._ports):
            raise ValueError(f"ingress port {ingress} out of range")
        now = packet.arrived_at = self.loop.now
        packet.queue = oq
        size = packet.size
        oq.injected += size
        if oq.tier == 0:
            bucket = self._buckets.get((ingress, packet.flow_id))
            if bucket is not None and not bucket.admit(size, now):
                oq.ingress_dropped += size
                return
        # Bernoulli dropping, drawn only strictly between 0 and 1; a premium
        # queue's drop_prob stays 0.0, as it runs no controller
        p = oq.drop_prob
        if p > 0.0 and (p >= 1.0 or self._ingress_rng[ingress].random() < p):
            oq.ingress_dropped += size
            return
        self.fabric_enqueue(packet, 1 if oq.tier else 0)

    # --- fabric ----------------------------------------------------------

    def fabric_enqueue(self, packet: Packet, prio: int) -> None:
        """Admit a packet from `ingress_arrival` into the shared pool at
        priority 0 (premium) or 1; a drop is charged to the queue it carries.

        A full pool tail-drops arrivals of equal or lower priority without
        regard to flow. Higher-priority arrivals instead evict from the tail
        of the largest lower-priority fabric queue, so premium traffic cannot
        be squeezed out by a pool pinned full of assured backlog.
        """
        size = packet.size
        memory = self._fabric_memory
        if self._occupancy + size > memory:
            if prio == 0:
                self._evict_low_priority(self._occupancy + size - memory)
            if self._occupancy + size > memory:
                packet.queue.fabric_dropped += size
                return
        port = self._ports[packet.egress_port]
        if port.in_drain is None:
            # an idle drain's FIFOs are empty: serve the packet at once
            self._start_drain(port, packet)
            return
        self._occupancy += size
        port.fifos[prio].append(packet)
        port.fifo_bytes[prio] += size

    def _evict_low_priority(self, needed: int) -> None:
        while needed > 0:
            victim = None
            for port in self._ports:
                if port.fifos[1] and (victim is None or
                                      port.fifo_bytes[1] > victim.fifo_bytes[1]):
                    victim = port
            if victim is None:
                return
            packet = victim.fifos[1].pop()
            victim.fifo_bytes[1] -= packet.size
            self._occupancy -= packet.size
            needed -= packet.size
            packet.queue.fabric_dropped += packet.size

    def _start_drain(self, port: _Port, packet: Packet) -> None:
        port.in_drain = packet
        done = port.drain_done
        if done is None:
            done = port.drain_done = (
                lambda self=self, port=port: self._drain_done(port))
        loop = self.loop
        loop.at(loop.now + self._drain_ns[packet.size], done, RANK_DATA,
                port.index, packet.flow_id)

    def _drain_done(self, port: _Port) -> None:
        packet = port.in_drain
        port.in_drain = None
        self._enqueue_out(port, packet)
        hi, lo = port.fifos
        if hi or lo:
            queue, prio = (hi, 0) if hi else (lo, 1)
            packet = queue.popleft()
            port.fifo_bytes[prio] -= packet.size
            self._occupancy -= packet.size
            self._start_drain(port, packet)

    # --- output queues and scheduler --------------------------------------

    def _enqueue_out(self, port: _Port, packet: Packet) -> None:
        oq = packet.queue
        size = packet.size
        oq.arrived += size
        p = oq.red_p  # from the last RED tick; stays 0.0 without RED
        # the hard buffer bound applies under RED too, and drops undrawn
        if (oq.backlog + size > self._out_queue_size
                or p >= 1.0 or (p > 0.0 and oq.red_rng.random() < p)):
            oq.egress_dropped += size
            return
        tag = 0.0
        tier = oq.tier
        if tier:
            vt = port.vt[tier]
            last = oq.last_tag
            # max(last, vt): the first operand unless the second is larger
            tag = (vt if vt > last else last) + size * 8.0 / oq.weight
            oq.last_tag = tag
        if port.in_tx is None:
            # an idle line's ready heap is empty: serve the packet at once
            port.vt[tier] = tag
            self._start_out(port, packet)
            return
        packets = oq.packets
        if not packets:
            heappush(port.ready, (tier, tag, oq.flow_id, oq))
        packets.append((packet, tag))
        oq.backlog += size

    def out_scheduler_select(self, j: int) -> int | None:
        """Flow the output scheduler would serve next, None when idle.

        The least entry of the port's ready heap: the first tier with a
        backlog, then the smallest head finish tag, ties to the lowest flow
        id; (tier, tag, flow id) is unique at a port. Premium tags are all
        0.0, so premium queues have strict priority in flow-id order; then
        weighted-fair selection among assured queues, then among best-effort
        queues. A pick is a peek; a dequeue re-keys its queue in O(log F).
        """
        ready = self._ports[j].ready
        return ready[0][2] if ready else None

    def _start_out(self, port: _Port, packet: Packet | None = None) -> None:
        """Put packet on the idle line, or else the scheduler's pick."""
        if packet is None:
            fid = self.out_scheduler_select(port.index)
            if fid is None:
                return
            ready = port.ready
            oq = ready[0][3]  # the queue of the entry just picked
            packets = oq.packets
            packet, tag = packets.popleft()
            if packets:
                heapreplace(ready, (oq.tier, packets[0][1], fid, oq))
            else:
                heappop(ready)
            oq.backlog -= packet.size
            port.vt[oq.tier] = tag
        port.in_tx = packet
        done = port.out_done
        if done is None:
            done = port.out_done = (
                lambda self=self, port=port: self._out_done(port))
        loop = self.loop
        loop.at(loop.now + self._line_ns[packet.size], done, RANK_DATA,
                port.index, packet.flow_id)

    def _out_done(self, port: _Port) -> None:
        packet = port.in_tx
        oq = packet.queue
        oq.delivered += packet.size
        oq.delays.append(self.loop.now - packet.arrived_at)
        port.in_tx = None
        receiver = packet.receiver
        if receiver is not None:
            receiver(packet)
        self._start_out(port)

    # --- feedback ----------------------------------------------------------

    def sample_and_feedback(self) -> None:
        """Harvest one interval's counters of every queue, in key order,
        and run each queue's step.

        The relative congestion of each queue that carried anything goes
        to the sink as one block at the tick's time. An interval that
        carried nothing, a queue with no step (feedback off, or a premium
        queue, whose relative congestion is still recorded) and a step
        that decides nothing make no decision. The tick's decisions reach
        the ingress droppers one feedback delay later, in one control
        application that sets them in queue order; a tick that decides
        nothing schedules none.
        """
        loop = self.loop
        labels: list = []
        values: list[float] = []
        decisions: list[tuple[_OutQueue, float]] = []
        for oq in self._queues.values():
            arrived0, delivered0, dropped0 = oq.sampled
            oq.sampled = (oq.arrived, oq.delivered, oq.egress_dropped)
            in_b = oq.arrived - arrived0
            if in_b == 0:
                # an empty interval records nothing and holds everything as-is
                continue
            out_b = oq.delivered - delivered0
            congestion = 1.0 - out_b / in_b
            labels.append(oq.labels[0])
            values.append(congestion)
            if oq.step is not None:
                prob = oq.step(oq, congestion, in_b, out_b, dropped0)
                if prob is not None:
                    decisions.append((oq, prob))
        self._series.extend(loop.now / NS, labels, values)
        if decisions:
            # the droppers see them one feedback delay later, all at one
            # instant; only the ingress reads drop_prob, at RANK_DATA, so
            # each lands when an application of its own would have
            loop.at(loop.now + self._delay_ns,
                    lambda self=self, decisions=decisions:
                    self._apply_probs(decisions),
                    RANK_CONTROL)

    def _pi_step(self, oq, congestion, in_b, out_b, dropped0):
        """The PI law's drop probability, from the interval's arrival rate
        against alpha * S times its delivered rate."""
        fb = self.config.feedback
        oq.last_drop_prob, oq.accumulator = pi_update(
            oq.accumulator, oq.last_drop_prob, in_b * 8.0 / fb.interval,
            fb.alpha * self.config.speedup * (out_b * 8.0 / fb.interval),
            fb.gain_p, fb.gain_i)
        return oq.last_drop_prob

    def _gearbox_step(self, oq, congestion, in_b, out_b, dropped0):
        """The drop probability of the gear level stepped by the measure,
        or None inside the band."""
        fb = self.config.feedback
        if fb.measure == "dropprob":
            congestion = (oq.egress_dropped - dropped0) / in_b
        step = gb_signal_from_congestion(congestion, fb.d_min, fb.d_max)
        if step == 0:
            return None
        # a step past a table end holds the level and re-applies it
        if 0 <= oq.level + step < fb.table_size:
            oq.level += step
        return self._drop_table[oq.level]

    def _apply_probs(self, decisions: list[tuple[_OutQueue, float]]) -> None:
        for oq, prob in decisions:
            oq.drop_prob = prob

    # --- measurement -------------------------------------------------------

    def _report(self) -> None:
        """Write the window's rows as one block, in queue order and then
        port order, the occupancy last."""
        span = self._report_ns / NS
        labels: list = []
        values: list[float] = []
        for oq in self._queues.values():
            _, thr, ingress, fabric, egress, backlog, mean, p99 = oq.labels
            delivered0, ingress0, fabric0, egress0 = oq.reported
            oq.reported = (oq.delivered, oq.ingress_dropped, oq.fabric_dropped,
                           oq.egress_dropped)
            labels += thr, ingress, fabric, egress, backlog
            values += ((oq.delivered - delivered0) * 8 / span,
                       (oq.ingress_dropped - ingress0) * 8 / span,
                       (oq.fabric_dropped - fabric0) * 8 / span,
                       (oq.egress_dropped - egress0) * 8 / span,
                       float(oq.backlog))
            delays = oq.delays
            if delays:
                delays.sort()
                labels += mean, p99
                values += (sum(delays) / len(delays) / NS,
                           delays[int(round(0.99 * (len(delays) - 1)))] / NS)
                oq.delays = []
        for port, label in self._queued_ports:
            labels.append(label)
            values.append(float(sum(port.fifo_bytes)))
        labels.append(self._occupancy_label)
        values.append(float(self._occupancy))
        self._series.extend(self.loop.now / NS, labels, values)

    # --- run -----------------------------------------------------------

    def check_unstarted(self) -> None:
        """Raise ValueError if run() has been called."""
        if self._started:
            raise ValueError("run() may only be called once")

    def run(self, duration: float) -> CsvSink:
        """Drive the loop for duration seconds and return the series."""
        self.check_unstarted()
        if type(duration) is not float:  # the run totals' time column
            raise TypeError(f"duration must be a float, got {duration!r}")
        self._started = True
        until = ns(duration)
        queues = self._queues
        loop = self.loop

        def tick(port, fn, period):
            """Run fn every period from t = period on, at rank RANK_TICK."""
            def handler():
                fn()
                if loop.now + period <= until:
                    loop.at(loop.now + period, handler, RANK_TICK, port)
            loop.at(period, handler, RANK_TICK, port)

        # One tick per period serves every queue. At a shared instant the
        # report (port -1) fires first; the sampler, the RED average and a
        # zero-delay control application may then run in any order,
        # because none reads what another writes: the sampler reads the
        # queue counters and writes the controller state (PI's, or the
        # gear level), RED reads backlog and writes red_avg and red_p, and
        # a control application writes only drop_prob.
        tick(0, self.sample_and_feedback, self._interval_ns)
        red = self.config.red
        if red is not None:
            w = red.weight

            def red_average():
                for oq in queues.values():
                    oq.red_avg = avg = (1.0 - w) * oq.red_avg + w * oq.backlog
                    oq.red_p = red_drop_probability(avg, red)
            tick(0, red_average, ns(red.sample_interval))
        tick(-1, self._report, self._report_ns)

        loop.run(until)
        self._emit_totals(duration)
        return self._series

    def _emit_totals(self, duration: float) -> None:
        """Write each flow's run totals as one block at time duration."""
        s = self._series
        ledger = self.conservation()
        labels: list = []
        values: list[float] = []
        for fid in sorted(ledger):
            acct = ledger[fid]
            for name, metric in (*_TOTALS.items(),
                                 ("resident", "resident_bytes_total")):
                labels.append(s.label(metric, None, fid, "bytes"))
                values.append(float(acct[name]))
        s.extend(duration, labels, values)

    def _resident_bytes(self) -> dict[int, int]:
        """Bytes still inside the switch, by flow, from the live structures."""
        res = {oq.flow_id: 0 for oq in self._queues.values()}
        for port in self._ports:
            for queue in port.fifos:
                for packet in queue:
                    res[packet.flow_id] += packet.size
            for packet in (port.in_drain, port.in_tx):
                if packet is not None:
                    res[packet.flow_id] += packet.size
        for oq in self._queues.values():
            for packet, _tag in oq.packets:
                res[packet.flow_id] += packet.size
        return res

    def conservation(self) -> dict[int, dict]:
        """Per-flow byte accounting; 'balanced' is an exact integer identity.

        The counters are the queues' own, summed over each flow's queues;
        the resident bytes are counted from the live structures.
        """
        resident = self._resident_bytes()
        out: dict[int, dict] = {}
        for oq in self._queues.values():
            acct = out.setdefault(oq.flow_id, dict.fromkeys(_TOTALS, 0))
            for name in _TOTALS:
                acct[name] += getattr(oq, name)
        for fid, acct in out.items():
            acct["resident"] = resident[fid]
            acct["balanced"] = acct["injected"] == (
                sum(acct[name] for name in _TOTALS if name != "injected")
                + resident[fid])
        return out
