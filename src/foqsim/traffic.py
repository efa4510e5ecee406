"""Traffic sources: constant bit rate and a compact Reno-style TCP.

Sources are event-loop citizens. A CBR source injects straight into a sink
(normally Switch.ingress_arrival) on a fixed integer-nanosecond period. A TCP
source transmits through an AccessLink that models its subnet uplink, infers
loss from duplicate acknowledgements and retransmission timeouts, and keeps
its receiver state in the same object so an experiment only has to route
delivered packets back by source id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .events import NS, RANK_DATA, TxTimes, ns, stream, tx_ns
from .switch import Packet, ServiceClass


class CbrSource:
    """Fixed-size packets on a constant period, [start, stop) seconds."""

    def __init__(self, loop, sink, flow_id: int, ingress_port: int,
                 egress_port: int, packet_size: int, rate_bps: float,
                 svc_class: ServiceClass = ServiceClass.ASSURED,
                 start: float = 0.0, stop: float | None = None,
                 source_id: int = 0):
        if packet_size <= 0 or rate_bps <= 0:
            raise ValueError("packet_size and rate_bps must be positive")
        self.loop = loop
        self.sink = sink
        self.flow_id = flow_id
        self.ingress_port = ingress_port
        self.egress_port = egress_port
        self.packet_size = packet_size
        self.rate_bps = rate_bps
        self.svc_class = svc_class
        self.source_id = source_id
        self.period_ns = tx_ns(packet_size, rate_bps)
        if self.period_ns < 1:  # would re-emit at the same instant forever
            raise ValueError(f"rate_bps {rate_bps!r} sends {packet_size}-byte "
                             "packets less than 1 ns apart")
        self._start_ns = ns(start)
        self._stop_ns = None if stop is None else ns(stop)
        self.seq = 0

    def start(self) -> None:
        if self._stop_ns is None or self._start_ns < self._stop_ns:
            self.loop.at(self._start_ns, self._emit, rank=RANK_DATA,
                         port=self.ingress_port, flow=self.flow_id)

    def _emit(self) -> None:
        now = self.loop.now
        self.sink(Packet(self.flow_id, self.ingress_port, self.egress_port,
                         self.packet_size, self.svc_class, now, self.seq,
                         self.source_id))
        self.seq += 1
        nxt = now + self.period_ns
        if self._stop_ns is None or nxt < self._stop_ns:
            self.loop.at(nxt, self._emit, rank=RANK_DATA,
                         port=self.ingress_port, flow=self.flow_id)


class AccessLink:
    """FIFO rate limiter with a finite drop-tail buffer in front of a sink."""

    def __init__(self, loop, rate_bps: float, buffer_bytes: int, sink):
        self.loop = loop
        self.rate_bps = rate_bps
        self.buffer_bytes = buffer_bytes
        self.sink = sink
        self._tx_ns = TxTimes(rate_bps)
        self._queue = deque()
        self._qbytes = 0
        self._busy = False
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def send(self, packet: Packet) -> bool:
        size = packet.size
        if self._qbytes + size > self.buffer_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self._queue.append(packet)
        self._qbytes += size
        if not self._busy:
            self._next()
        return True

    def _next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        packet = self._queue.popleft()
        self._qbytes -= packet.size
        self._busy = True

        def done():
            self.sink(packet)
            self._next()

        loop = self.loop
        loop.at(loop.now + self._tx_ns[packet.size], done, RANK_DATA,
                packet.ingress_port, packet.flow_id)

    @property
    def queued_bytes(self) -> int:
        return self._qbytes


class TcpSource:
    """Reno-flavoured TCP endpoint pair collapsed into one object.

    Sender side: slow start, congestion avoidance, fast retransmit on three
    duplicate acks, retransmission timeout with exponential backoff and
    RFC 6298 RTT smoothing (Karn's rule: no samples from retransmits).
    Receiver side: cumulative acks with out-of-order buffering. The forward
    path is the access link plus the switch; 'one_way' covers propagation of
    the delivered data to the receiver and of the ack back, so the base
    round trip is twice that plus queueing.

    The retransmission timer is lazy, as in ns-2: `deadline` says when it
    expires and at most one timer event per source is pending on the loop.
    Arming only moves the deadline unless it falls before the pending event;
    an event that fires early re-arms itself at the deadline.
    """

    INIT_CWND = 2.0
    INIT_SSTHRESH = 64
    MAX_CWND = 64.0
    INIT_RTO = 1.0     # seconds, before the first RTT sample
    MIN_RTO = 0.2
    MAX_BACKOFF = 64

    def __init__(self, loop, link, source_id: int, flow_id: int,
                 ingress_port: int, egress_port: int, packet_size: int = 1040,
                 one_way: float = 20e-3,
                 svc_class: ServiceClass = ServiceClass.ASSURED):
        self.loop = loop
        self.link = link
        self.source_id = source_id
        self.flow_id = flow_id
        self.ingress_port = ingress_port
        self.egress_port = egress_port
        self.packet_size = packet_size
        self.svc_class = svc_class
        self._rtt_ns = 2 * ns(one_way)

        self.cwnd = self.INIT_CWND
        self.ssthresh = self.INIT_SSTHRESH
        self.snd_una = 0
        self.next_seq = 0
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_point = 0
        self.backoff = 1
        self.srtt = None
        self.rttvar = 0.0
        self.rto = self.INIT_RTO
        self._send_time: dict[int, int] = {}
        self._rexmit: set[int] = set()
        self.deadline: int | None = None  # ns; None while no timer is armed
        self._timer_at: int | None = None  # ns of the pending timer event

        self.rcv_next = 0
        self._ooo: set[int] = set()

        self.packets_sent = 0
        self.retransmits = 0
        self.timeouts = 0

    def start_at(self, start_ns: int) -> None:
        self.loop.at(start_ns, self._try_send, rank=RANK_DATA,
                     port=self.ingress_port, flow=self.flow_id)

    # --- sender ------------------------------------------------------------

    def _emit(self, seq: int) -> None:
        self.packets_sent += 1
        self.link.send(Packet(self.flow_id, self.ingress_port,
                              self.egress_port, self.packet_size,
                              self.svc_class, self.loop.now, seq,
                              self.source_id))

    def _try_send(self) -> None:
        """Send what the window allows, then time what is outstanding."""
        seq = self.next_seq
        window = self.snd_una + int(self.cwnd)
        now = self.loop.now
        send_time = self._send_time
        while seq < window:
            self._emit(seq)
            send_time[seq] = now  # next_seq only grows: seq was never sent
            seq += 1
        self.next_seq = seq
        if self.snd_una < seq:
            self._arm_timer()
        else:
            self.deadline = None  # nothing outstanding, cancel

    def _arm_timer(self, when: int | None = None) -> None:
        """Set the deadline one backed-off RTO from now, or re-arm an early
        event at `when`; push an event only if none is pending by then."""
        if when is None:
            rto = self.rto * self.backoff
            if 120.0 < rto:  # min(rto, 120.0) seconds
                rto = 120.0
            when = self.deadline = self.loop.now + int(round(rto * NS))
        if self._timer_at is not None and self._timer_at <= when:
            return
        self._timer_at = when
        self.loop.at(when, lambda: self._timer_fire(when), RANK_DATA,
                     self.ingress_port, self.flow_id)

    def _timer_fire(self, when: int) -> None:
        if when != self._timer_at:
            return  # superseded by an earlier event
        self._timer_at = None
        if self.deadline is None:
            return  # cancelled: nothing outstanding
        if self.deadline > when:
            self._arm_timer(self.deadline)  # acks moved the deadline on
            return
        self.timeouts += 1
        self.ssthresh = max(int(self.cwnd) // 2, 2)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dup_acks = 0
        self.backoff = min(self.backoff * 2, self.MAX_BACKOFF)
        self._retransmit(self.snd_una)
        self._arm_timer()

    def _retransmit(self, seq: int) -> None:
        self._rexmit.add(seq)
        self.retransmits += 1
        self.packets_sent -= 1  # _emit counts it again
        self._emit(seq)

    def _handle_ack(self, ackno: int) -> None:
        una = self.snd_una
        if ackno > una:
            newly = ackno - una
            send_time = self._send_time
            rexmit = self._rexmit
            sample_seq = ackno - 1
            sent = send_time.get(sample_seq)
            if sent is not None and sample_seq not in rexmit:
                self._rtt_sample((self.loop.now - sent) / NS)
            for seq in range(una, ackno):
                send_time.pop(seq, None)
            if rexmit:
                rexmit.difference_update(range(una, ackno))
            self.snd_una = ackno
            self.dup_acks = 0
            self.backoff = 1
            if self.in_recovery:
                if ackno >= self.recover_point:
                    self.in_recovery = False
                    self.cwnd = float(self.ssthresh)
                else:
                    self._retransmit(ackno)  # partial ack
            else:
                cwnd = self.cwnd
                if cwnd < self.ssthresh:
                    cwnd += newly
                else:
                    cwnd += newly / cwnd
                # min(cwnd, MAX_CWND): the first operand unless the second
                # is smaller
                self.cwnd = self.MAX_CWND if self.MAX_CWND < cwnd else cwnd
            self._try_send()
        elif self.snd_una < self.next_seq:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                self.ssthresh = max(int(self.cwnd) // 2, 2)
                self.cwnd = float(self.ssthresh)
                self.in_recovery = True
                self.recover_point = self.next_seq
                self._retransmit(self.snd_una)
                self._arm_timer()

    def _rtt_sample(self, r: float) -> None:
        if self.srtt is None:
            self.srtt = r
            self.rttvar = r / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - r)
            self.srtt = 0.875 * self.srtt + 0.125 * r
        rto = self.srtt + 4.0 * self.rttvar
        # max(MIN_RTO, rto): the first operand unless the second is larger
        self.rto = rto if rto > self.MIN_RTO else self.MIN_RTO

    # --- receiver ------------------------------------------------------------

    def on_data_arrival(self, packet: Packet) -> None:
        """Receiver ingest at egress delivery; acks come back a round trip
        later (receiver propagation plus the return path)."""
        seq = packet.seq
        ackno = self.rcv_next
        if seq == ackno:
            ackno += 1
            ooo = self._ooo
            while ackno in ooo:
                ooo.discard(ackno)
                ackno += 1
            self.rcv_next = ackno
        elif seq > ackno:
            self._ooo.add(seq)
        loop = self.loop
        loop.at(loop.now + self._rtt_ns, lambda: self._handle_ack(ackno),
                RANK_DATA, self.ingress_port, self.flow_id)

    @property
    def delivered_segments(self) -> int:
        return self.rcv_next


@dataclass
class SubnetGroup:
    """Sources sharing one access link, started inside a time window."""

    name: str
    sources: list = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)


def staged_start(groups: list[SubnetGroup], seed: int) -> dict[int, float]:
    """Give every source a uniform start time inside its group's window.

    Draws come from one named stream in deterministic group and source
    order, so the schedule depends only on the seed and the group layout.
    Returns source_id -> start seconds and arms each source.
    """
    rng = stream(seed, "starts")
    starts: dict[int, float] = {}
    for group in groups:
        t0, t1 = group.window
        for src in group.sources:
            t = t0 + rng.random() * (t1 - t0)
            starts[src.source_id] = t
            src.start_at(ns(t))
    return starts
