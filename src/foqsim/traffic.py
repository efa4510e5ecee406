"""Traffic sources: constant bit rate and a compact Reno-style TCP.

Sources are event-loop citizens. A CBR source injects straight into a sink
(normally Switch.ingress_arrival) on a fixed integer-nanosecond period; its
packets have no receiver. A TCP source transmits through an AccessLink that
models its subnet uplink, infers loss from duplicate acknowledgements and
retransmission timeouts, and keeps its receiver state in the same object:
each packet it sends carries the source's own receive method, which the
switch calls when the packet leaves the output line; the segments it holds
above a gap are bits of one int. A TCP source starts when `start_at` arms
it; `foqsim.experiment` draws each start time.

An access link is a work-conserving FIFO server: its completion handler
starts the next queued packet before it returns, so an idle link's queue
is empty, and a packet sent to an idle link goes onto the wire at once
without entering the queue.

Handlers that fire once per packet or timer are built once per object and
reused: a CBR source binds `_emit` once, an access link builds its
completion handler on its first send and reads the packet on the wire from
`_in_tx`, and a TCP source builds its timer handler on its first arm. The
ack handler is built per ack, as it carries the ack number. Each binds
what it reads as default arguments, so the method that builds it makes
no cell on any call, and each keeps the `__qualname__` by which the
benchmark's tracer (`bench/tracer.py`) classifies it, which a bound method
or `functools.partial` would not.
"""

from __future__ import annotations

from collections import deque

from .events import NS, RANK_DATA, TxTimes, ns, tx_ns
from .switch import Packet


class CbrSource:
    """Fixed-size packets on a constant period, [start, stop) seconds."""

    def __init__(self, loop, sink, flow_id: int, ingress_port: int,
                 egress_port: int, packet_size: int, rate_bps: float,
                 start: float = 0.0, stop: float | None = None):
        if packet_size <= 0 or rate_bps <= 0:
            raise ValueError("packet_size and rate_bps must be positive")
        self.loop = loop
        self.sink = sink
        self.flow_id = flow_id
        self.ingress_port = ingress_port
        self.egress_port = egress_port
        self.packet_size = packet_size
        self.period_ns = tx_ns(packet_size, rate_bps)
        if self.period_ns < 1:  # would re-emit at the same instant forever
            raise ValueError(f"rate_bps {rate_bps!r} sends {packet_size}-byte "
                             "packets less than 1 ns apart")
        self._start_ns = ns(start)
        self._stop_ns = None if stop is None else ns(stop)
        self.seq = 0
        # bound once: every emission schedules the next through it
        self._fire = self._emit

    def start(self) -> None:
        if self._stop_ns is None or self._start_ns < self._stop_ns:
            self.loop.at(self._start_ns, self._fire, RANK_DATA,
                         self.ingress_port, self.flow_id)

    def _emit(self) -> None:
        now = self.loop.now
        self.sink(Packet(self.flow_id, self.ingress_port, self.egress_port,
                         self.packet_size, self.seq))
        self.seq += 1
        nxt = now + self.period_ns
        if self._stop_ns is None or nxt < self._stop_ns:
            self.loop.at(nxt, self._fire, RANK_DATA, self.ingress_port,
                         self.flow_id)


class AccessLink:
    """FIFO rate limiter with a finite drop-tail buffer in front of a sink."""

    def __init__(self, loop, rate_bps: float, buffer_bytes: int, sink):
        self.loop = loop
        self.buffer_bytes = buffer_bytes
        self.sink = sink
        self._tx_ns = TxTimes(rate_bps, loop)
        self._queue = deque()
        self._qbytes = 0
        self._in_tx = None  # the packet on the wire; None while it is idle
        self._done = None   # its completion handler, built by the first send
        self.dropped_bytes = 0

    def send(self, packet: Packet) -> bool:
        size = packet.size
        if self._qbytes + size > self.buffer_bytes:
            self.dropped_bytes += size
            return False
        if self._in_tx is None:
            self._next(packet)  # an idle link's queue is empty
        else:
            self._queue.append(packet)
            self._qbytes += size
        return True

    def _next(self, packet: Packet) -> None:
        """Put packet on the wire; its completion hands it to the sink and
        starts the next queued packet, if any."""
        self._in_tx = packet
        done = self._done
        if done is None:
            def done(self=self):
                self.sink(self._in_tx)
                queue = self._queue
                if queue:
                    packet = queue.popleft()
                    self._qbytes -= packet.size
                    self._next(packet)
                else:
                    self._in_tx = None
            self._done = done
        loop = self.loop
        loop.at(loop.now + self._tx_ns[packet.size], done, RANK_DATA,
                packet.ingress_port, packet.flow_id)


class TcpSource:
    """Reno-flavoured TCP endpoint pair collapsed into one object.

    Sender side: slow start, congestion avoidance, fast retransmit on three
    duplicate acks, retransmission timeout with exponential backoff and
    RFC 6298 RTT smoothing (Karn's rule: no samples from retransmits).
    Receiver side: cumulative acks with out-of-order buffering. The forward
    path is the access link plus the switch; `rtt_ns` is the round trip it
    is handed, the propagation of the delivered data to the receiver and of
    the ack back (twice its group's `one_way`), so the base round trip is
    that plus queueing. `Experiment` computes it once per TCP group and
    registers it as a lane of the loop, so every source of a group holds
    the same int; a source built on its own registers no lane, and its acks
    go through the heap in the same order. The send log `_sent` holds one
    entry per outstanding segment; the next new sequence number and the
    count of segments sent are both snd_una + len(_sent).

    The retransmission timer is lazy, as in ns-2: `deadline` says when it
    expires and at most one timer event per source is live on the loop.
    Arming only moves the deadline unless it falls before the live event,
    which then stays queued and fires as a no-op; an event that fires early
    re-arms itself at the deadline. A backed-off deadline is reached in two
    steps: its event goes one un-backed-off RTO out and from there re-arms
    at the deadline, so an ack that resets the backoff inside that RTO only
    moves the deadline instead of leaving a backed-off event behind.

    The receiver holds its out-of-order segments as one int bitmask
    relative to rcv_next; the mask is 0 while no gap is open.
    """

    __slots__ = ("loop", "link", "flow_id", "ingress_port", "egress_port",
                 "packet_size", "_receive", "_rtt_ns", "cwnd", "ssthresh",
                 "snd_una", "dup_acks", "in_recovery", "recover_point",
                 "backoff", "srtt", "rttvar", "rto", "_sent", "deadline",
                 "_timer_at", "_timer", "rcv_next", "_ooo", "retransmits",
                 "timeouts")

    INIT_CWND = 2.0
    INIT_SSTHRESH = 64
    MAX_CWND = 64.0
    INIT_RTO = 1.0     # seconds, before the first RTT sample
    MIN_RTO = 0.2
    MAX_RTO = 120.0    # RFC 6298 (2.5) allows any maximum of at least 60 s
    MAX_BACKOFF = 64

    def __init__(self, loop, link, flow_id: int, ingress_port: int,
                 egress_port: int, packet_size: int = 1040,
                 rtt_ns: int = 2 * ns(20e-3)):
        self.loop = loop
        self.link = link
        self.flow_id = flow_id
        self.ingress_port = ingress_port
        self.egress_port = egress_port
        self.packet_size = packet_size
        # bound once: every packet sent carries it as its receiver
        self._receive = self.on_data_arrival
        # ns from a delivery to its ack: the round trip less the forward path
        self._rtt_ns = rtt_ns

        self.cwnd = self.INIT_CWND
        self.ssthresh = self.INIT_SSTHRESH
        self.snd_una = 0
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_point = 0
        self.backoff = 1
        self.srtt = None
        self.rttvar = 0.0
        self.rto = self.INIT_RTO
        # send time (ns) of each outstanding segment, snd_una first; None
        # once it is retransmitted, so Karn's rule takes no sample from it
        self._sent: list[int | None] = []
        self.deadline: int | None = None  # ns; None only before the first send
        self._timer_at: int | None = None  # ns of the live timer event
        self._timer = None  # its handler, built by the first arm

        self.rcv_next = 0
        # segments held above the gap: bit i is seq rcv_next + 1 + i; 0
        # while there is no gap
        self._ooo = 0

        self.retransmits = 0
        self.timeouts = 0

    def start_at(self, start_ns: int) -> None:
        self.loop.at(start_ns, self._try_send, RANK_DATA, self.ingress_port,
                     self.flow_id)

    @property
    def packets_sent(self) -> int:
        """Segments sent, not counting resends; also the next new seq."""
        return self.snd_una + len(self._sent)

    # --- sender ------------------------------------------------------------

    def _emit(self, seq: int) -> None:
        self.link.send(Packet(self.flow_id, self.ingress_port,
                              self.egress_port, self.packet_size, seq,
                              self._receive))

    def _try_send(self) -> None:
        """Send what the window allows, then time what is outstanding."""
        sent = self._sent
        seq = self.snd_una + len(sent)  # the first never sent
        window = self.snd_una + int(self.cwnd)
        now = self.loop.now
        while seq < window:
            self._emit(seq)
            sent.append(now)
            seq += 1
        # int(cwnd) >= 1, so at least snd_una is outstanding
        self._arm_timer()

    def _arm_timer(self, when: int | None = None) -> None:
        """Set the deadline one backed-off RTO from now, or re-arm an early
        event at `when`; push an event only if none is pending by then.

        Arming from now puts the event one un-backed-off RTO out, at or
        before the deadline; it re-arms at the deadline when it fires
        early. Timeouts therefore still fire exactly at `deadline`.
        """
        if when is None:
            now = self.loop.now
            rto = self.rto
            if self.MAX_RTO < rto:  # min(rto, MAX_RTO)
                rto = self.MAX_RTO
            when = now + int(round(rto * NS))
            if self.backoff > 1:
                rto = self.rto * self.backoff
                if self.MAX_RTO < rto:
                    rto = self.MAX_RTO
                self.deadline = now + int(round(rto * NS))
            else:
                self.deadline = when
        if self._timer_at is not None and self._timer_at <= when:
            return
        self._timer_at = when
        timer = self._timer
        if timer is None:
            timer = self._timer = lambda self=self: self._timer_fire()
        self.loop.at(when, timer, RANK_DATA, self.ingress_port, self.flow_id)

    def _timer_fire(self) -> None:
        when = self.loop.now  # an event fires at its own key time
        if when != self._timer_at:
            return  # superseded by an earlier event
        self._timer_at = None
        if self.deadline > when:
            self._arm_timer(self.deadline)  # acks or the backoff put it later
            return
        self.timeouts += 1
        half = int(self.cwnd) // 2
        self.ssthresh = 2 if 2 > half else half  # max(half, 2)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dup_acks = 0
        backoff = self.backoff * 2
        # min(backoff, MAX_BACKOFF): the first operand unless the second is
        # smaller
        self.backoff = (self.MAX_BACKOFF if self.MAX_BACKOFF < backoff
                        else backoff)
        self._retransmit(self.snd_una)
        self._arm_timer()

    def _retransmit(self, seq: int) -> None:
        self._sent[seq - self.snd_una] = None
        self.retransmits += 1
        self._emit(seq)

    def _handle_ack(self, ackno: int) -> None:
        una = self.snd_una
        if ackno > una:
            newly = ackno - una
            sent = self._sent
            at = sent[newly - 1]  # segment ackno - 1
            if at is not None:
                self._rtt_sample((self.loop.now - at) / NS)
            del sent[:newly]
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
        else:  # a duplicate; since the first send, _sent is not empty
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                half = int(self.cwnd) // 2
                self.ssthresh = 2 if 2 > half else half  # max(half, 2)
                self.cwnd = float(self.ssthresh)
                self.in_recovery = True
                self.recover_point = self.snd_una + len(self._sent)
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
        """Receiver ingest when the switch delivers one of this source's
        packets; acks come back a round trip later (receiver propagation
        plus the return path)."""
        seq = packet.seq
        ackno = self.rcv_next
        if seq == ackno:
            held = self._ooo
            if held:
                # the run of set low bits: the segments held right after seq
                run = (held ^ (held + 1)).bit_length() - 1
                ackno += run
                self._ooo = held >> (run + 1)
            ackno += 1
            self.rcv_next = ackno
        elif seq > ackno:
            # seq < snd_una + MAX_CWND <= rcv_next + 64, so the mask stays
            # below 2**64: a segment is sent inside the window, snd_una
            # only grows, and it never passes rcv_next, whose acks move it
            self._ooo |= 1 << (seq - ackno - 1)
        loop = self.loop
        loop.at(loop.now + self._rtt_ns,
                lambda self=self, ackno=ackno: self._handle_ack(ackno),
                RANK_DATA, self.ingress_port, self.flow_id)

