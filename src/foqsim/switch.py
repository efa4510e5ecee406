"""Packet-level model of a feedback output-queued switch.

One N-port shared-memory switch. Ingress droppers thin arriving traffic per
(output, flow); survivors enter a shared fabric pool with two priority FIFOs
per output. Each output line drains its fabric queues at the speedup rate
into per-flow output queues, which a strict-priority plus weighted-fair
scheduler empties onto the line. A per-(output, flow) sampler measures
relative congestion every interval and drives the configured feedback
controller; the resulting drop level is applied at every ingress dropper.

Byte counters are integers, timestamps integer nanoseconds, and every
stochastic decision draws from its own named generator, so equal seeds give
bit-identical runs.

The per-packet steps (ingress, fabric drain, output enqueue, line
completion) read only state resolved at setup, such as each port's
flow-id -> queue map, or computed by the tick that changes it, such as a
queue's RED drop probability, which the RED tick refreshes right after the
average it follows from. Event keys and handler names stay fixed, because
the benchmark's tracer (`bench/tracer.py`) classifies events by them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Literal, get_args

from .control import (
    FeedbackAction,
    GbParams,
    PiParams,
    apply_gb_signal,
    drop_level_table,
    drop_prob_from_rate,
    gb_signal_from_congestion,
    pi_update,
)
from .events import (NS, RANK_CONTROL, RANK_DATA, RANK_TICK, EventLoop, Seconds,
                     TxTimes, ns, stream)
from .timeseries import CsvSink, TimeSeries


class ServiceClass(Enum):
    PREMIUM = "premium"
    ASSURED = "assured"
    BEST_EFFORT = "besteffort"


@dataclass(slots=True)
class Packet:
    flow_id: int
    ingress_port: int
    egress_port: int
    size: int  # bytes
    svc_class: ServiceClass
    created_at: int  # ns, set by the source
    seq: int = 0
    source: int = 0
    arrived_at: int = -1  # ns, stamped at the ingress dropper


@dataclass(frozen=True)
class RedParams:
    """Random early detection on an output queue."""

    max_p: float = 0.5
    min_th: int = 1000   # bytes
    max_th: int = 3000   # bytes
    weight: float = 0.1  # EWMA weight at the sampling cadence
    sample_interval: Seconds = 1e-3


@dataclass(frozen=True)
class FlowSpec:
    svc_class: ServiceClass = field(default=ServiceClass.ASSURED,
                                    metadata={"key": "class"})  # flow.<id>.class
    weight: float = 1.0
    police_rate: float | None = None  # bits/s token bucket, premium only
    police_burst: int = 6000          # bytes


FeedbackMode = Literal["off", "pi", "gearbox"]
Measure = Literal["relcong", "dropprob"]


@dataclass(frozen=True)
class FeedbackConfig:
    mode: FeedbackMode = "off"
    interval: Seconds = 1e-3
    delay: Seconds = 0.0  # signal propagation back to the ingress
    alpha: float = 0.95
    gain_p: float = 0.0
    gain_i: float = 0.5
    d_max: float = 0.17
    d_min: float = 0.02
    table_size: int = 64
    measure: Measure = "relcong"


@dataclass(frozen=True)
class SwitchConfig:
    num_ports: int
    line_rate: float           # bits/s per port
    speedup: float             # fabric-to-line ratio, > 1
    fabric_memory: int         # bytes, shared pool
    out_queue_size: int        # bytes per output queue
    flows: dict[int, FlowSpec] = field(default_factory=dict)
    red: RedParams | None = None  # None means plain drop-tail
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    report_interval: Seconds | None = None  # defaults to the feedback interval

    def validate(self) -> list[str]:
        """Every violation, not just the first."""
        bad = []
        if self.num_ports < 1:
            bad.append("switch.num_ports: must be at least 1")
        if self.line_rate <= 0:
            bad.append("switch.line_rate: must be positive")
        if self.speedup <= 1.0:
            bad.append("switch.speedup: must exceed 1")
        if self.fabric_memory <= 0:
            bad.append("switch.fabric_memory: must be positive")
        if self.out_queue_size <= 0:
            bad.append("switch.out_queue_size: must be positive")
        if not self.flows:
            bad.append("flow: at least one flow must be defined")
        for fid, spec in self.flows.items():
            if spec.weight <= 0:
                bad.append(f"flow.{fid}.weight: must be positive")
            if spec.police_rate is not None and spec.police_rate <= 0:
                bad.append(f"flow.{fid}.police_rate: must be positive")
        fb = self.feedback
        if fb.mode not in get_args(FeedbackMode):
            bad.append("switch.feedback.mode: must be off, pi or gearbox")
        if fb.delay < 0:
            bad.append("switch.feedback.delay: must be non-negative")
        if not 0.0 < fb.alpha <= 1.0:
            bad.append("switch.feedback.alpha: must be in (0, 1]")
        if fb.mode == "pi":
            if fb.gain_p < 0:
                bad.append("switch.feedback.gain_p: must be non-negative")
            if fb.gain_i <= 0:
                bad.append("switch.feedback.gain_i: must be positive")
        if fb.mode == "gearbox" and not 0.0 <= fb.d_min < fb.d_max < 1.0:
            bad.append("switch.feedback.d_min/d_max: need 0 <= d_min < d_max < 1")
        if fb.table_size < 2:
            bad.append("switch.feedback.table_size: must be at least 2")
        if fb.measure not in get_args(Measure):
            bad.append("switch.feedback.measure: must be relcong or dropprob")
        if self.red is not None:
            r = self.red
            if not 0.0 < r.max_p <= 1.0:
                bad.append("switch.red.max_p: must be in (0, 1]")
            if not 0 <= r.min_th < r.max_th:
                bad.append("switch.red.min_th/max_th: need 0 <= min_th < max_th")
            if not 0.0 < r.weight <= 1.0:
                bad.append("switch.red.weight: must be in (0, 1]")
        # a period that ns() rounds to 0 would divide by zero or re-arm its
        # tick at the same instant forever
        for key, seconds in (
                ("feedback.interval", fb.interval),
                ("report_interval", self.report_interval),
                ("red.sample_interval", self.red.sample_interval if self.red else None)):
            if seconds is not None and seconds * NS <= 0.5:
                bad.append(f"switch.{key}: " + ("must be positive" if seconds <= 0
                                                 else "must be at least 1 ns"))
        return bad


def ingress_admit(packet: Packet, drop_prob: float, rng) -> bool:
    """Bernoulli admission at an ingress dropper; premium bypasses it."""
    if packet.svc_class is ServiceClass.PREMIUM:
        return True
    if drop_prob <= 0.0:
        return True
    if drop_prob >= 1.0:
        return False
    return rng.random() >= drop_prob


def red_drop_probability(avg: float, params: RedParams) -> float:
    """Linear ramp from min_th to max_th, certain drop above max_th."""
    if avg < params.min_th:
        return 0.0
    if avg >= params.max_th:
        return 1.0
    return params.max_p * (avg - params.min_th) / (params.max_th - params.min_th)


class _TokenBucket:
    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate_bps: float, burst_bytes: int, now: int):
        self.rate = rate_bps
        self.burst = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self.last = now

    def admit(self, size: int, now: int) -> bool:
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last) * self.rate / (8 * NS))
        self.last = now
        if self.tokens >= size:
            self.tokens -= size
            return True
        return False


class _Port:
    """One egress: its two fabric FIFOs (premium first), the packets in
    drain and on the line, and its scheduler's queues and virtual times."""

    __slots__ = ("index", "fifos", "fifo_bytes", "in_drain", "in_tx", "busy",
                 "queues", "premium", "assured", "besteffort",
                 "vt_assured", "vt_besteffort")

    def __init__(self, index):
        self.index = index
        self.fifos = (deque(), deque())
        self.fifo_bytes = [0, 0]
        self.in_drain = None
        self.in_tx = None
        self.busy = False
        self.queues = {}  # flow id -> its output queue at this egress
        # output queues by service class, each in flow-id order; the
        # attribute names are the ServiceClass values
        self.premium = []
        self.assured = []
        self.besteffort = []
        self.vt_assured = 0.0
        self.vt_besteffort = 0.0


# the output-queue counters summed into each flow's ledger, in its order
_TOTALS = ("injected", "ingress_dropped", "fabric_dropped", "egress_dropped",
           "delivered")


class _OutQueue:
    """One (egress, flow) queue with its dropper, controller and counters.

    Each byte event adds to exactly one of the six cumulative byte counters.
    The sampler and the report each keep a snapshot of the counters they
    read last; their interval and window values are differences against it.
    """

    __slots__ = ("egress", "flow_id", "svc_class", "weight", "packets",
                 "backlog", "last_tag", "red_avg", "red_p", "red_rng",
                 "drop_prob", "level", "accumulator", "last_drop_prob", "delays",
                 "injected", "ingress_dropped", "fabric_dropped", "arrived",
                 "egress_dropped", "delivered", "sampled", "reported")

    def __init__(self, egress, flow_id, svc_class, weight, red_rng, red_p):
        self.egress = egress
        self.flow_id = flow_id
        self.svc_class = svc_class
        self.weight = weight
        self.packets = deque()  # (packet, finish_tag)
        self.backlog = 0        # bytes
        self.last_tag = 0.0
        self.red_avg = 0.0
        self.red_p = red_p      # RED drop probability at red_avg; 0 without RED
        self.red_rng = red_rng
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


class Switch:
    """The simulated switch plus its event loop and measurement series."""

    def __init__(self, config: SwitchConfig, seed: int = 0,
                 loop: EventLoop | None = None,
                 sink: TimeSeries | CsvSink | None = None):
        bad = config.validate()
        if bad:
            raise ValueError("invalid switch config: " + "; ".join(bad))
        self.config = config
        self.seed = seed
        self.loop = loop if loop is not None else EventLoop()
        self.fabric_line_rate = config.speedup * config.line_rate
        self._drain_ns = TxTimes(self.fabric_line_rate)
        self._line_ns = TxTimes(config.line_rate)
        self.delivery_hooks = []  # callables (packet) at egress completion

        self._queues: dict[tuple[int, int], _OutQueue] = {}  # sorted by run()
        # in port order, which the report and the eviction scan (ties to
        # the lowest port) walk; eviction can run before run()
        self._ports: dict[int, _Port] = {}
        self._occupancy = 0
        self._buckets: dict[tuple[int, int], _TokenBucket] = {}
        self._ingress_rng = [stream(seed, f"ingress.{i}")
                             for i in range(config.num_ports)]

        fb = config.feedback
        self._delay_ns = ns(fb.delay)
        self._interval_ns = ns(fb.interval)
        self._report_ns = ns(config.report_interval
                             if config.report_interval is not None else fb.interval)
        if fb.mode == "gearbox":
            self._gb_params = GbParams(d_max=fb.d_max, d_min=fb.d_min,
                                       table_size=fb.table_size)
            self._drop_table = drop_level_table(self._gb_params.beta, fb.table_size)
        elif fb.mode == "pi":
            self._pi_params = PiParams(gain_p=fb.gain_p, gain_i=fb.gain_i)
        # where the measurement rows go; run() returns it
        self._series = sink if sink is not None else TimeSeries()
        self._started = False

    # --- setup ---------------------------------------------------------

    def register_flow_queue(self, egress: int, flow_id: int) -> None:
        """Create the output queue for (egress, flow) before the run starts."""
        key = (egress, flow_id)
        if key in self._queues:
            return
        if self._started:
            raise ValueError("cannot register queues after the run started")
        if flow_id not in self.config.flows:
            raise ValueError(f"flow {flow_id} not defined in the switch config")
        if not 0 <= egress < self.config.num_ports:
            raise ValueError(f"egress port {egress} out of range")
        spec = self.config.flows[flow_id]
        red = self.config.red
        oq = _OutQueue(egress, flow_id, spec.svc_class, spec.weight,
                       stream(self.seed, f"red.{egress}.{flow_id}"),
                       0.0 if red is None else red_drop_probability(0.0, red))
        self._queues[key] = oq
        port = self._ports.get(egress)
        if port is None:
            port = self._ports[egress] = _Port(egress)
            self._ports = dict(sorted(self._ports.items()))
        port.queues[flow_id] = oq
        tier = getattr(port, spec.svc_class.value)
        tier.append(oq)
        tier.sort(key=lambda q: q.flow_id)

    # --- ingress ---------------------------------------------------------

    def ingress_arrival(self, packet: Packet) -> None:
        """Full ingress pipeline: policer, dropper, fabric admission."""
        key = (packet.egress_port, packet.flow_id)
        oq = self._queues.get(key)
        if oq is None:
            raise ValueError(f"no queue registered for egress/flow {key}")
        now = packet.arrived_at = self.loop.now
        size = packet.size
        oq.injected += size
        if packet.svc_class is ServiceClass.PREMIUM:
            spec = self.config.flows[packet.flow_id]
            if spec.police_rate is not None:
                bkey = (packet.ingress_port, packet.flow_id)
                bucket = self._buckets.get(bkey)
                if bucket is None:
                    bucket = _TokenBucket(spec.police_rate, spec.police_burst,
                                          now)
                    self._buckets[bkey] = bucket
                if not bucket.admit(size, now):
                    oq.ingress_dropped += size
                    return
        if not ingress_admit(packet, oq.drop_prob,
                             self._ingress_rng[packet.ingress_port]):
            oq.ingress_dropped += size
            return
        self.fabric_enqueue(packet)

    # --- fabric ----------------------------------------------------------

    def fabric_enqueue(self, packet: Packet) -> bool:
        """Admit into the shared pool; False when the packet was dropped.

        A full pool tail-drops arrivals of equal or lower priority without
        regard to flow. Higher-priority arrivals instead evict from the tail
        of the largest lower-priority fabric queue, so premium traffic cannot
        be squeezed out by a pool pinned full of assured backlog.
        """
        prio = 0 if packet.svc_class is ServiceClass.PREMIUM else 1
        size = packet.size
        port = self._ports[packet.egress_port]
        if self._occupancy + size > self.config.fabric_memory:
            if prio == 0:
                self._evict_low_priority(
                    self._occupancy + size - self.config.fabric_memory)
            if self._occupancy + size > self.config.fabric_memory:
                self._count_fabric_drop(port, packet)
                return False
        self._occupancy += size
        port.fifos[prio].append(packet)
        port.fifo_bytes[prio] += size
        if port.in_drain is None:
            self._start_drain(port)
        return True

    def _evict_low_priority(self, needed: int) -> None:
        while needed > 0:
            victim = None
            for port in self._ports.values():
                if port.fifos[1] and (victim is None or
                                      port.fifo_bytes[1] > victim.fifo_bytes[1]):
                    victim = port
            if victim is None:
                return
            packet = victim.fifos[1].pop()
            victim.fifo_bytes[1] -= packet.size
            self._occupancy -= packet.size
            needed -= packet.size
            self._count_fabric_drop(victim, packet)

    def _count_fabric_drop(self, port: _Port, packet: Packet) -> None:
        """Charge a packet dropped from, or refused by, port's fabric FIFOs."""
        port.queues[packet.flow_id].fabric_dropped += packet.size

    def _start_drain(self, port: _Port) -> None:
        hi, lo = port.fifos
        queue, prio = (hi, 0) if hi else (lo, 1)
        packet = queue.popleft()
        port.fifo_bytes[prio] -= packet.size
        self._occupancy -= packet.size
        port.in_drain = packet
        loop = self.loop
        loop.at(loop.now + self._drain_ns[packet.size],
                lambda: self._drain_done(port), RANK_DATA, port.index,
                packet.flow_id)

    def _drain_done(self, port: _Port) -> None:
        packet = port.in_drain
        port.in_drain = None
        self._enqueue_out(port, packet)
        hi, lo = port.fifos
        if hi or lo:
            self._start_drain(port)

    # --- output queues and scheduler --------------------------------------

    def _enqueue_out(self, port: _Port, packet: Packet) -> None:
        oq = port.queues[packet.flow_id]
        size = packet.size
        oq.arrived += size
        p = oq.red_p  # from the last RED tick; stays 0.0 without RED
        # the hard buffer bound applies under RED too, and drops undrawn
        if (oq.backlog + size > self.config.out_queue_size
                or p >= 1.0 or (p > 0.0 and oq.red_rng.random() < p)):
            oq.egress_dropped += size
            return
        tag = 0.0
        svc = oq.svc_class
        if svc is not ServiceClass.PREMIUM:
            vt = (port.vt_assured if svc is ServiceClass.ASSURED
                  else port.vt_besteffort)
            last = oq.last_tag
            # max(last, vt): the first operand unless the second is larger
            tag = (vt if vt > last else last) + size * 8.0 / oq.weight
            oq.last_tag = tag
        oq.packets.append((packet, tag))
        oq.backlog += size
        if not port.busy:
            self._start_out(port)

    def out_scheduler_select(self, j: int) -> int | None:
        """Flow the output scheduler would serve next, None when idle.

        Premium queues have strict priority (lowest flow id first), then
        weighted-fair selection by smallest finish tag among assured queues,
        then the same among best-effort queues.
        """
        port = self._ports.get(j)
        if port is None:
            return None
        for oq in port.premium:
            if oq.packets:
                return oq.flow_id
        for tier in (port.assured, port.besteffort):
            best = None
            best_tag = 0.0
            for oq in tier:
                q = oq.packets
                if q and (best is None or q[0][1] < best_tag):
                    best = oq
                    best_tag = q[0][1]
            if best is not None:
                return best.flow_id
        return None

    def _start_out(self, port: _Port) -> None:
        j = port.index
        fid = self.out_scheduler_select(j)
        if fid is None:
            port.busy = False
            return
        oq = port.queues[fid]
        packet, tag = oq.packets.popleft()
        oq.backlog -= packet.size
        if oq.svc_class is ServiceClass.ASSURED:
            port.vt_assured = tag
        elif oq.svc_class is ServiceClass.BEST_EFFORT:
            port.vt_besteffort = tag
        port.busy = True
        port.in_tx = packet
        loop = self.loop
        loop.at(loop.now + self._line_ns[packet.size],
                lambda: self._out_done(port, oq, packet), RANK_DATA, j, fid)

    def _out_done(self, port: _Port, oq: _OutQueue, packet: Packet) -> None:
        oq.delivered += packet.size
        oq.delays.append(self.loop.now - packet.arrived_at)
        port.in_tx = None
        for hook in self.delivery_hooks:
            hook(packet)
        self._start_out(port)

    # --- feedback ----------------------------------------------------------

    def sample_and_feedback(self, j: int, k: int):
        """Harvest one interval's queue counters and drive the controller.

        Returns the emitted gear-box signal, the emitted PI probability, or
        None when feedback is off, the interval carried no information or
        the queue is premium (its relative congestion is still recorded).
        """
        oq = self._queues[(j, k)]
        arrived0, delivered0, dropped0 = oq.sampled
        oq.sampled = (oq.arrived, oq.delivered, oq.egress_dropped)
        in_b = oq.arrived - arrived0
        out_b = oq.delivered - delivered0
        congestion = None
        if in_b > 0:
            congestion = 1.0 - out_b / in_b
            self._series.append(self.loop.now / NS, "rel_cong", j, k,
                                congestion, "ratio")
        fb = self.config.feedback
        if fb.mode == "off" or in_b == 0 or oq.svc_class is ServiceClass.PREMIUM:
            # an empty interval holds everything as-is, and ingress_admit
            # never applies a premium queue's drop level
            return None
        measured = (congestion if fb.measure == "relcong"
                    else (oq.egress_dropped - dropped0) / in_b)
        if fb.mode == "gearbox":
            signal = gb_signal_from_congestion(measured, self._gb_params)
            if signal is not FeedbackAction.HOLD:
                self.loop.at(self.loop.now + self._delay_ns,
                             lambda: self._apply_gb(oq, signal),
                             rank=RANK_CONTROL, port=j, flow=k)
            return signal
        interval = fb.interval
        rate_in = in_b * 8.0 / interval
        rate_out = out_b * 8.0 / interval
        desired = fb.alpha * self.config.speedup * rate_out
        rho, oq.accumulator = pi_update(oq.accumulator, oq.last_drop_prob,
                                        rate_in, desired, self._pi_params)
        prob = oq.last_drop_prob = drop_prob_from_rate(rho, rate_in,
                                                       oq.last_drop_prob)
        self.loop.at(self.loop.now + self._delay_ns,
                     lambda: self._apply_prob(oq, prob),
                     rank=RANK_CONTROL, port=j, flow=k)
        return prob

    def _apply_gb(self, oq: _OutQueue, signal) -> None:
        oq.level = apply_gb_signal(oq.level, signal,
                                   self.config.feedback.table_size)
        oq.drop_prob = self._drop_table[oq.level]

    def _apply_prob(self, oq: _OutQueue, prob: float) -> None:
        oq.drop_prob = prob

    def drop_level(self, j: int, k: int) -> int:
        return self._queues[(j, k)].level

    # --- measurement -------------------------------------------------------

    def _report(self) -> None:
        t = self.loop.now / NS
        span = self._report_ns / NS
        s = self._series
        for (j, k), oq in self._queues.items():
            delivered0, ingress0, fabric0, egress0 = oq.reported
            oq.reported = (oq.delivered, oq.ingress_dropped, oq.fabric_dropped,
                           oq.egress_dropped)
            s.append(t, "throughput_bps", j, k,
                     (oq.delivered - delivered0) * 8 / span, "bps")
            s.append(t, "ingress_drop_bps", j, k,
                     (oq.ingress_dropped - ingress0) * 8 / span, "bps")
            s.append(t, "fabric_drop_bps", j, k,
                     (oq.fabric_dropped - fabric0) * 8 / span, "bps")
            s.append(t, "egress_drop_bps", j, k,
                     (oq.egress_dropped - egress0) * 8 / span, "bps")
            s.append(t, "out_queue_bytes", j, k, float(oq.backlog), "bytes")
            delays = oq.delays
            if delays:
                delays.sort()
                mean = sum(delays) / len(delays) / NS
                p99 = delays[int(round(0.99 * (len(delays) - 1)))] / NS
                s.append(t, "delay_mean_s", j, k, mean, "s")
                s.append(t, "delay_p99_s", j, k, p99, "s")
                oq.delays = []
        for j, port in self._ports.items():
            s.append(t, "fabric_queue_bytes", j, None,
                     float(sum(port.fifo_bytes)), "bytes")
        s.append(t, "fabric_occupancy_bytes", None, None,
                 float(self._occupancy), "bytes")

    # --- run -----------------------------------------------------------

    def run(self, duration: float) -> TimeSeries | CsvSink:
        """Drive the loop for duration seconds and return the series."""
        if self._started:
            raise ValueError("run() may only be called once")
        if type(duration) is not float:  # the run totals' time column
            raise TypeError(f"duration must be a float, got {duration!r}")
        self._started = True
        until = ns(duration)
        queues = self._queues = dict(sorted(self._queues.items()))
        loop = self.loop

        def tick(port, fn, period):
            """Run fn every period from t = period on, at rank RANK_TICK."""
            def handler():
                fn()
                if loop.now + period <= until:
                    loop.at(loop.now + period, handler, rank=RANK_TICK, port=port)
            loop.at(period, handler, rank=RANK_TICK, port=port)

        # One tick per period serves every queue. At a shared instant the
        # report (port -1) fires first; samplers, RED averages and zero-delay
        # control applications may then interleave in any order, because
        # none reads what another writes: samplers read the queue counters
        # and PI state, RED reads backlog and writes red_avg and red_p, and a
        # control application reads the gear level and writes drop_prob and
        # level.
        sample = self.sample_and_feedback

        def sample_all():
            for j, k in queues:
                sample(j, k)
        tick(0, sample_all, self._interval_ns)
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
        ledger = self.conservation()
        for fid in sorted(ledger):
            acct = ledger[fid]
            for name, metric in (
                ("injected", "injected_bytes_total"),
                ("ingress_dropped", "ingress_drop_bytes_total"),
                ("fabric_dropped", "fabric_drop_bytes_total"),
                ("egress_dropped", "egress_drop_bytes_total"),
                ("delivered", "delivered_bytes_total"),
                ("resident", "resident_bytes_total"),
            ):
                self._series.append(duration, metric, None, fid,
                                    float(acct[name]), "bytes")

    def _resident_bytes(self) -> dict[int, int]:
        """Bytes still inside the switch, by flow, from the live structures."""
        res = {oq.flow_id: 0 for oq in self._queues.values()}
        for port in self._ports.values():
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
                sum(acct[name] for name in _TOTALS[1:]) + resident[fid])
        return out

    @property
    def fabric_occupancy(self) -> int:
        return self._occupancy

    def drop_probability(self, j: int, k: int) -> float:
        return self._queues[(j, k)].drop_prob
