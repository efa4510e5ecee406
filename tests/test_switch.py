"""Switch behavior tests: event kernel, admission, fabric, scheduling,
feedback loops, byte conservation, determinism."""

import dataclasses
import random
import sys
from collections import Counter
from heapq import heappop, heappush
from itertools import count
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from foqsim.config import build_experiment, parse_pairs
from foqsim.control import derive_beta, drop_level_table
from foqsim.events import (
    NS,
    RANK_CONTROL,
    RANK_DATA,
    RANK_TICK,
    EventLoop,
    ns,
    stream,
    tx_ns,
)
from foqsim.experiment import Experiment
from foqsim.switch import (
    FeedbackConfig,
    FeedbackMode,
    FlowSpec,
    Packet,
    RedParams,
    ServiceClass,
    Switch,
    SwitchConfig,
    red_drop_probability,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def packet(flow=1, ingress=0, egress=1, size=500, seq=0, receiver=None):
    return Packet(flow, ingress, egress, size, seq, receiver)


def base_config(**over):
    defaults = dict(
        num_ports=2, line_rate=1e6, speedup=1.28, fabric_memory=1_000_000,
        out_queue_size=1_000_000,
        flows={1: FlowSpec(svc_class="assured")},
    )
    defaults.update(over)
    return SwitchConfig(**defaults)


def feed_cbr(sw, flow, ingress, egress, size, rate_bps, duration,
             start=0.0, receiver=None):
    """Schedule a deterministic constant-rate packet train into the switch;
    receiver, if given, is called with each packet the switch delivers."""
    period = tx_ns(size, rate_bps)
    t = ns(start)
    seq = 0
    while t < ns(duration):
        def arrive(seq=seq):
            sw.ingress_arrival(Packet(flow, ingress, egress, size, seq,
                                      receiver))
        sw.loop.at(t, arrive, port=ingress, flow=flow)
        t += period
        seq += 1


def opcodes_in(run, traced):
    """Call run() under `sys.settrace` and return the opcodes it ran in
    frames whose code object traced(code) accepts, and how many such frames
    each function name started.

    An opcode is a count, not a cost, and some costs it cannot see, so an
    unchanged count does not mean an unchanged cost. A method that closes
    over its locals runs a `MAKE_CELL` per captured local on every call,
    but before its `RESUME`, where tracing starts, so it is not counted;
    and a `LOAD_DEREF` through such a cell counts as one opcode, like the
    `LOAD_FAST` that replaces it when the handler takes them as defaults.
    Nor does the count tell a specialised instruction from a generic one,
    such as a call that passes keywords."""
    opcodes = 0
    calls = Counter()

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if not traced(code):
            return None
        # co_name, since co_qualname is new in Python 3.11
        calls[code.co_name] += 1
        frame.f_trace_opcodes = True
        return local
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return opcodes, calls


def busy_output(flows):
    """A switch with `flows` assured CBR flows into one output at 1.5x its
    line for 40 ms, ready to run."""
    cfg = base_config(line_rate=1e7, speedup=4.0,
                      flows={k: FlowSpec() for k in range(flows)})
    sw = Switch(cfg, [(1, k) for k in range(flows)], seed=1)
    for k in range(flows):
        feed_cbr(sw, k, 0, 1, 125, 1.5e7 / flows, 0.04, k * 1e-6)
    return sw


class HeapLoop:
    """The event kernel before delay lanes: every event on one binary heap.

    The reference order `EventLoop` must reproduce exactly; `lane` is
    accepted and ignored."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0

    def lane(self, delay: int) -> None:
        pass

    def at(self, when, fn, rank=RANK_DATA, port=-1, flow=-1):
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        heappush(self._heap, (when, rank, port, flow, self._seq, fn))
        self._seq += 1

    def run(self, until):
        heap = self._heap
        while heap and heap[0][0] <= until:
            entry = heappop(heap)
            self.now = entry[0]
            entry[5]()
        self.now = until


def replay(loop, lanes, first, plan, stops):
    """Drive one scripted schedule through loop; return what fired, when.

    Each firing consumes the next step of plan: the delays and keys of the
    events it schedules, and a delay to register as a lane mid-run. The
    loop runs to each stop's `until` in turn, and schedules that stop's
    events from outside, then drains. Two loops that pop in the same order
    make the same calls, so their records differ from the first pop on
    which they disagree."""
    fired = []
    steps = iter(plan)
    labels = count()

    def schedule(when, key):
        label = next(labels)

        def fire():
            fired.append((loop.now, label))
            children, register = next(steps, ((), None))
            if register is not None:
                loop.lane(register)
            for delay, child in children:
                schedule(loop.now + delay, child)
        loop.at(when, fire, *key)

    for delay in lanes:
        loop.lane(delay)
    for when, key in first:
        schedule(when, key)
    until = 0
    for advance, extra in stops:
        until += advance
        loop.run(until)
        fired.append(("stop", loop.now))
        for delay, key in extra:
            schedule(loop.now + delay, key)
    loop.run(10**6)
    return fired


def scan_select(sw, j):
    """The output scheduler before the ready heap: each tier's queues at
    egress j scanned in flow-id order, the first tier with a backlog served
    by its smallest head finish tag, a later queue only on a strictly
    smaller one.

    The reference pick `Switch.out_scheduler_select` must reproduce."""
    for tier in range(3):
        best = None
        best_tag = 0.0
        for (egress, _), oq in sorted(sw._queues.items()):
            if egress != j:
                continue
            q = oq.packets
            if oq.tier == tier and q and (best is None or q[0][1] < best_tag):
                best = oq
                best_tag = q[0][1]
        if best is not None:
            return best.flow_id
    return None


@st.composite
def wide_outputs(draw):
    """A switch config and the CBR trains that load its outputs: 1-4 ports,
    2-32 flows of all three tiers at every output, weights all equal or
    drawn from three values, and few sizes and phases, so finish tags tie;
    each output is offered more than its line."""
    ports = draw(st.integers(1, 4))
    weights = (st.just(1.0) if draw(st.booleans())
               else st.sampled_from((1.0, 2.0, 4.0)))
    classes = st.sampled_from(get_args(ServiceClass))
    flows = {k: FlowSpec(svc_class=draw(classes), weight=draw(weights))
             for k in range(draw(st.integers(2, 32)))}
    sizes = st.sampled_from(draw(st.lists(
        st.sampled_from((64, 200, 576, 1500)), min_size=1, max_size=2)))
    starts = st.sampled_from((0.0, 37e-6))
    load = draw(st.sampled_from((1.2, 2.0))) * 1e8 / len(flows)
    trains = [(k, draw(st.integers(0, ports - 1)), j, draw(sizes), load,
               draw(starts)) for j in range(ports) for k in flows]
    return base_config(num_ports=ports, line_rate=1e8, flows=flows), trains


# delays 0-9 ns, registered as lanes or not; few ranks, ports and flows, so
# equal-time entries with lower keys than a lane's tail are common
DELAYS = st.integers(0, 9)
KEYS = st.tuples(st.integers(RANK_CONTROL, RANK_DATA), st.integers(-1, 2),
                 st.integers(-1, 2))
CHILDREN = st.lists(st.tuples(DELAYS, KEYS), max_size=3)


class TestEventKernel:
    @settings(max_examples=200, deadline=None)
    @given(lanes=st.sets(DELAYS, max_size=4),
           first=st.lists(st.tuples(st.integers(0, 20), KEYS), max_size=8),
           plan=st.lists(st.tuples(CHILDREN, st.none() | DELAYS),
                         max_size=40),
           stops=st.lists(st.tuples(st.integers(0, 15), CHILDREN),
                          max_size=4))
    def test_lanes_pop_in_the_heap_order(self, lanes, first, plan, stops):
        assert (replay(EventLoop(), lanes, first, plan, stops)
                == replay(HeapLoop(), lanes, first, plan, stops))

    def test_equal_time_entry_below_a_lane_tail_goes_to_the_heap(self):
        loop = EventLoop()
        loop.lane(10)
        order = []
        loop.at(10, lambda: order.append(2), port=2)
        loop.at(10, lambda: order.append(1), port=1)  # below the lane's tail
        loop.at(10, lambda: order.append(3), port=3)  # above it: appended
        assert (len(loop._heap), len(loop._lanes[10])) == (1, 2)
        loop.run(10)
        assert order == [1, 2, 3]

    def test_entries_beyond_until_stay_pending(self):
        loop = EventLoop()
        loop.lane(5)
        order = []
        loop.at(5, lambda: order.append(5))  # lane
        loop.at(3, lambda: order.append(3))  # heap
        loop.run(4)
        assert order == [3] and loop.now == 4
        loop.at(9, lambda: order.append(9))  # 5 after now: behind 5 in the lane
        loop.at(7, lambda: order.append(7))  # heap
        loop.run(8)
        assert order == [3, 5, 7] and loop.now == 8
        loop.run(9)
        assert order == [3, 5, 7, 9]
        assert not loop._heap and not loop._heads

    def test_time_conversions(self):
        assert ns(1e-3) == 1_000_000
        assert ns(0.2) == 200_000_000
        assert tx_ns(1000, 8e6) == 1_000_000  # 8000 bits at 8 Mb/s = 1 ms

    def test_rank_order_at_same_instant(self):
        loop = EventLoop()
        order = []
        loop.at(10, lambda: order.append("data"), rank=RANK_DATA)
        loop.at(10, lambda: order.append("tick"), rank=RANK_TICK)
        loop.at(10, lambda: order.append("control"), rank=RANK_CONTROL)
        loop.run(10)
        assert order == ["control", "tick", "data"]

    def test_port_flow_tiebreak(self):
        loop = EventLoop()
        order = []
        loop.at(5, lambda: order.append((1, 2)), port=1, flow=2)
        loop.at(5, lambda: order.append((0, 3)), port=0, flow=3)
        loop.at(5, lambda: order.append((0, 1)), port=0, flow=1)
        loop.run(5)
        assert order == [(0, 1), (0, 3), (1, 2)]

    def test_insertion_order_is_stable(self):
        loop = EventLoop()
        order = []
        for i in range(5):
            loop.at(7, lambda i=i: order.append(i), port=0, flow=0)
        loop.run(7)
        assert order == [0, 1, 2, 3, 4]

    def test_no_scheduling_into_past(self):
        loop = EventLoop()
        loop.at(10, lambda: loop.at(5, lambda: None))
        with pytest.raises(ValueError, match="past"):
            loop.run(10)

    def test_no_scheduling_into_past_with_lanes(self):
        # `at` looks a delay's lane up before it checks the time: every
        # lane's delay is non-negative, so the past still reaches the check
        loop = EventLoop()
        for delay in (0, 1, 5):
            loop.lane(delay)
        loop.run(10)
        with pytest.raises(ValueError, match="past"):
            loop.at(loop.now - 1, lambda: None)
        assert not loop._heap and not loop._heads

    def test_negative_lane_refused(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="non-negative"):
            loop.lane(-1)
        assert loop._lanes == {}

    def test_run_advances_to_until(self):
        loop = EventLoop()
        loop.run(123)
        assert loop.now == 123

    def test_named_streams(self):
        a = stream(1, "ingress.0")
        b = stream(1, "ingress.0")
        c = stream(1, "ingress.1")
        d = stream(2, "ingress.0")
        seq_a = [a.random() for _ in range(5)]
        assert seq_a == [b.random() for _ in range(5)]
        assert seq_a != [c.random() for _ in range(5)]
        assert seq_a != [d.random() for _ in range(5)]


class TestConfigValidation:
    def test_valid_config_is_clean(self):
        assert base_config().validate() == []

    def test_collects_every_violation(self):
        cfg = SwitchConfig(num_ports=0, line_rate=-1, speedup=1.0,
                           fabric_memory=0, out_queue_size=0, flows={})
        bad = cfg.validate()
        assert "switch.num_ports: must be at least 1" in bad
        assert "switch.line_rate: must be positive" in bad
        assert "switch.speedup: must exceed 1" in bad
        assert "switch.fabric_memory: must be positive" in bad
        assert "switch.out_queue_size: must be positive" in bad
        assert "flow: at least one flow must be defined" in bad
        assert len(bad) == 6

    def test_flow_and_feedback_violations(self):
        cfg = base_config(
            flows={1: FlowSpec(weight=0.0), 9: FlowSpec(police_rate=-5)},
            feedback=FeedbackConfig(mode="magic", interval=0, alpha=2.0),
        )
        bad = cfg.validate()
        assert "flow.1.weight: must be positive" in bad
        assert "flow.9.police_rate: must be positive" in bad
        assert "switch.feedback.mode: must be off, pi or gearbox" in bad
        assert "switch.feedback.interval: must be positive" in bad
        assert "switch.feedback.alpha: must be in (0, 1]" in bad
        gearbox = base_config(feedback=FeedbackConfig(
            mode="gearbox", d_min=0.2, d_max=0.1, table_size=1)).validate()
        assert "switch.feedback.d_min/d_max: need 0 <= d_min < d_max < 1" in gearbox
        assert "switch.feedback.table_size: must be at least 2" in gearbox
        # only the gear-box reads its band, table and measure
        assert base_config(feedback=FeedbackConfig(
            mode="pi", d_min=0.2, d_max=0.1, table_size=1,
            measure="magic")).validate() == []

    @pytest.mark.parametrize("feedback, message", [
        (FeedbackConfig(delay=-1e-3),
         "switch.feedback.delay: must be non-negative"),
        (FeedbackConfig(mode="pi", gain_p=-0.1),
         "switch.feedback.gain_p: must be non-negative"),
        (FeedbackConfig(mode="pi", gain_i=0.0),
         "switch.feedback.gain_i: must be positive"),
        # a config file refuses the choice before validate() sees it
        (FeedbackConfig(mode="gearbox", measure="magic"),
         "switch.feedback.measure: must be relcong or dropprob"),
    ])
    def test_each_feedback_violation_alone(self, feedback, message):
        assert base_config(feedback=feedback).validate() == [message]

    def test_unknown_class_refused_with_its_key(self):
        bad = base_config(flows={4: FlowSpec(svc_class="gold")}).validate()
        assert bad == ["flow.4.class: must be premium, assured or besteffort"]

    def test_policed_premium_class_is_clean(self):
        cfg = base_config(flows={0: FlowSpec(svc_class="premium",
                                             police_rate=1e5)})
        assert cfg.validate() == []

    def test_red_violations(self):
        cfg = base_config(red=RedParams(max_p=0.0, min_th=5, max_th=5,
                                        weight=0.0, sample_interval=0.0))
        bad = cfg.validate()
        assert "switch.red.max_p: must be in (0, 1]" in bad
        assert "switch.red.min_th/max_th: need 0 <= min_th < max_th" in bad
        assert "switch.red.weight: must be in (0, 1]" in bad
        assert "switch.red.sample_interval: must be positive" in bad

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ValueError, match="invalid switch config"):
            Switch(base_config(speedup=0.5))


class TestIngressAdmit:
    """The ingress dropper on one queue whose drop probability is set by
    hand: no draw at 0 or 1, and a drop when the draw is below it."""

    N = 40_000

    def arrivals(self, prob):
        """Drive N packets through `ingress_arrival`; return the queue and
        whether its ingress port's generator kept its state."""
        sw = Switch(base_config(), [(1, 1)], seed=1)
        oq = sw._queues[1, 1]
        oq.drop_prob = prob
        rng = sw._ingress_rng[0]
        state = rng.getstate()
        for seq in range(self.N):
            sw.ingress_arrival(packet(seq=seq))
        assert oq.injected == self.N * 500
        return oq, rng.getstate() == state

    def test_zero_prob_admits(self):
        oq, undrawn = self.arrivals(0.0)
        assert oq.ingress_dropped == 0
        assert undrawn

    def test_certain_drop(self):
        oq, undrawn = self.arrivals(1.0)
        assert oq.ingress_dropped == oq.injected
        assert undrawn

    def test_admit_fraction_half(self):
        # the admitted fraction of N Bernoulli(0.5) trials has standard
        # deviation 0.5 / sqrt(N) = 0.0025; allow four of them
        oq, undrawn = self.arrivals(0.5)
        admitted = 1 - oq.ingress_dropped / oq.injected
        assert abs(admitted - 0.5) < 4 * 0.5 / self.N ** 0.5
        assert not undrawn


class TestRedCurve:
    PARAMS = RedParams(max_p=0.5, min_th=1000, max_th=3000)

    def test_below_min_is_zero(self):
        assert red_drop_probability(999.0, self.PARAMS) == 0.0
        assert red_drop_probability(1000.0, self.PARAMS) == 0.0

    def test_at_and_above_max_is_certain(self):
        assert red_drop_probability(3000.0, self.PARAMS) == 1.0
        assert red_drop_probability(9999.0, self.PARAMS) == 1.0

    def test_linear_ramp(self):
        assert red_drop_probability(2000.0, self.PARAMS) == 0.25  # midpoint
        assert red_drop_probability(1500.0, self.PARAMS) == 0.125


class TestFabric:
    def small_switch(self):
        cfg = base_config(
            fabric_memory=3000, out_queue_size=100_000,
            flows={0: FlowSpec(svc_class="premium"),
                   1: FlowSpec(svc_class="assured")})
        sw = Switch(cfg, [(1, 0), (1, 1)], seed=1)
        return sw

    def test_same_priority_tail_drop(self):
        sw = self.small_switch()
        for seq in range(10):
            sw.ingress_arrival(packet(flow=1, size=500, seq=seq))
        # one packet is already draining (freed at drain start), the pool
        # holds six more at 500 B, the rest tail-drop
        assert sw._occupancy == 3000
        acct = sw.conservation()[1]
        assert acct["fabric_dropped"] == 3 * 500
        assert acct["balanced"]

    def test_premium_evicts_low_priority(self):
        sw = self.small_switch()
        for seq in range(7):
            sw.ingress_arrival(packet(flow=1, size=500, seq=seq))
        assert sw._occupancy == 3000
        sw.ingress_arrival(packet(flow=0, size=500))
        acct = sw.conservation()
        assert acct[0]["fabric_dropped"] == 0      # premium got in
        assert acct[1]["fabric_dropped"] == 500    # one victim evicted
        assert sw._occupancy <= 3000
        assert acct[0]["balanced"] and acct[1]["balanced"]

    def test_eviction_tie_goes_to_the_lowest_port(self):
        # assured flows 1 and 2 each wait with 1,500 B in the fabric, at
        # egress 1 and egress 2 (a fourth packet each is in drain); the
        # premium arrival must evict from the lowest port's queue
        cfg = base_config(
            num_ports=3, fabric_memory=3000, out_queue_size=100_000,
            flows={0: FlowSpec(svc_class="premium"),
                   1: FlowSpec(svc_class="assured"),
                   2: FlowSpec(svc_class="assured")})
        sw = Switch(cfg, [(1, 0), (1, 1), (2, 2)], seed=1)
        for flow in (1, 2):
            for seq in range(4):
                sw.ingress_arrival(packet(flow=flow, egress=flow, seq=seq))
        assert sw._occupancy == 3000
        sw.ingress_arrival(packet(flow=0, egress=1))
        acct = sw.conservation()
        assert acct[0]["fabric_dropped"] == 0
        assert acct[1]["fabric_dropped"] == 500
        assert acct[2]["fabric_dropped"] == 0

    def test_occupancy_freed_at_drain_start(self):
        sw = self.small_switch()
        sw.ingress_arrival(packet(flow=1, size=500))
        # the head packet went straight into drain, so the pool is empty
        assert sw._occupancy == 0


class TestScheduling:
    def run_two_flow_share(self, w1, w2, rate1, rate2, duration=2.0):
        # speedup 4 keeps the fabric out of the way: the output scheduler
        # is the only bottleneck
        cfg = base_config(speedup=4.0, flows={
            1: FlowSpec(svc_class="assured", weight=w1),
            2: FlowSpec(svc_class="assured", weight=w2)})
        sw = Switch(cfg, [(1, 1), (1, 2)], seed=1)
        feed_cbr(sw, 1, 0, 1, 125, rate1, duration)
        feed_cbr(sw, 2, 0, 1, 125, rate2, duration)
        sw.run(duration)
        acct = sw.conservation()
        return acct[1]["delivered"], acct[2]["delivered"]

    def test_wfq_weighted_share(self):
        # both flows backlogged at weights 6:1: shares 6/7 and 1/7 of the
        # line, within 2 percent
        d1, d2 = self.run_two_flow_share(6.0, 1.0, 0.9e6, 0.9e6)
        line_bytes = 1e6 * 2.0 / 8
        assert d1 == pytest.approx(line_bytes * 6 / 7, rel=0.02)
        assert d2 == pytest.approx(line_bytes * 1 / 7, rel=0.02)

    def test_wfq_equal_weights(self):
        d1, d2 = self.run_two_flow_share(1.0, 1.0, 0.9e6, 0.9e6)
        assert d1 == pytest.approx(d2, rel=0.02)

    def test_unbacklogged_flow_keeps_its_rate(self):
        # flow 2 offers less than its fair share; flow 1 takes the rest
        d1, d2 = self.run_two_flow_share(1.0, 1.0, 1.2e6, 0.05e6)
        assert d2 == pytest.approx(0.05e6 * 2.0 / 8, rel=0.02)
        assert d1 == pytest.approx((1e6 - 0.05e6) * 2.0 / 8, rel=0.03)

    def test_premium_strict_priority(self):
        cfg = base_config(flows={
            0: FlowSpec(svc_class="premium"),
            1: FlowSpec(svc_class="assured")})
        sw = Switch(cfg, [(1, 0), (1, 1)], seed=1)
        order = []

        def deliver(p):
            order.append(p.flow_id)
        # assured backlog builds first, premium arrives later and jumps it
        feed_cbr(sw, 1, 0, 1, 500, 2e6, 0.1, receiver=deliver)
        feed_cbr(sw, 0, 0, 1, 500, 0.2e6, 0.1, start=0.01, receiver=deliver)
        ts = sw.run(0.1)
        assert 0 in order and order.index(0) > 0
        # premium waits for at most one in-service packet per hop (about
        # 14 ms worst case here) while the growing assured backlog pushes
        # the assured delay well past that by the end of the run
        prem = [r.value for r in ts.select("delay_mean_s", 1, 0)]
        assured = [r.value for r in ts.select("delay_mean_s", 1, 1)]
        assert prem and max(prem) < 0.02
        assert assured[-1] > max(prem)

    @settings(max_examples=30, deadline=None)
    @given(wide_outputs())
    def test_every_pick_matches_the_tier_scan(self, outputs):
        cfg, trains = outputs
        sw = Switch(cfg, [(j, k) for k, _, j, *_ in trains], seed=1)
        for flow, ingress, egress, size, rate, start in trains:
            feed_cbr(sw, flow, ingress, egress, size, rate, 5e-3, start)
        select = sw.out_scheduler_select
        picks = []

        def checked(j):
            fid = select(j)
            picks.append((sw.loop.now, j, fid, scan_select(sw, j)))
            return fid
        sw.out_scheduler_select = checked
        sw.run(5e-3)
        assert picks
        assert [p for p in picks if p[2] != p[3]] == []

    def opcodes_per_pick(self, flows):
        """Opcodes run in `out_scheduler_select` and `_start_out` per pick
        on `busy_output(flows)`."""
        sw = busy_output(flows)
        names = {"out_scheduler_select", "_start_out"}
        opcodes, calls = opcodes_in(lambda: sw.run(0.04),
                                    lambda code: code.co_name in names)
        picks = calls["out_scheduler_select"]
        assert picks > 300
        return opcodes / picks

    def test_pick_cost_does_not_grow_with_the_flow_count(self):
        # a scan of every queue of the tier costs 15.4x as much per pick at
        # 256 flows as at 8; a peek at the ready heap and one re-key cost
        # the same opcodes at any width (the heap's sifts run in C)
        narrow, wide = self.opcodes_per_pick(8), self.opcodes_per_pick(256)
        assert wide <= 2 * narrow, (narrow, wide)

    def test_scheduler_select_order(self):
        cfg = base_config(flows={
            0: FlowSpec(svc_class="premium"),
            1: FlowSpec(svc_class="assured"),
            2: FlowSpec(svc_class="besteffort"),
            3: FlowSpec(svc_class="premium")})
        sw = Switch(cfg, [(1, fid) for fid in (0, 1, 2, 3)], seed=1)
        assert sw.out_scheduler_select(1) is None
        assert sw.out_scheduler_select(0) is None
        # a 1500 B assured packet holds the line from 9.4 to 21.4 ms; the
        # other four drain in behind it by 11.9 ms, premium 3 before 0 and
        # best effort before assured, so all four queues wait at once
        served = []
        picks = []

        def deliver(p):
            served.append((p.flow_id, p.seq))
        sw.ingress_arrival(packet(flow=1, size=1500, seq=0, receiver=deliver))
        for fid, seq in ((2, 0), (1, 1), (3, 0), (0, 0)):
            sw.ingress_arrival(packet(flow=fid, size=100, seq=seq,
                                      receiver=deliver))
        sw.loop.at(ns(15e-3), lambda: picks.append(sw.out_scheduler_select(1)))
        sw.run(0.1)
        assert picks == [0]
        assert served == [(1, 0), (0, 0), (3, 0), (1, 1), (2, 0)]


class TestPolicer:
    def test_premium_policed_to_contract(self):
        cfg = base_config(flows={
            0: FlowSpec(svc_class="premium", police_rate=0.5e6,
                        police_burst=1000)})
        sw = Switch(cfg, [(1, 0)], seed=1)
        feed_cbr(sw, 0, 0, 1, 500, 1e6, 1.0)
        sw.run(1.2)
        acct = sw.conservation()[0]
        # 1 Mb/s offered against a 0.5 Mb/s bucket: half the bytes drop at
        # the policer (plus the initial burst allowance)
        contract_bytes = 0.5e6 * 1.0 / 8
        assert acct["delivered"] == pytest.approx(contract_bytes, rel=0.05)
        assert acct["ingress_dropped"] > 0
        assert acct["fabric_dropped"] == 0
        assert acct["balanced"]

    def test_each_ingress_gets_its_own_contract(self):
        # one premium flow policed at 0.25 Mb/s, offered 0.3 Mb/s from each
        # of ingress 0 and 2 into egress 1: the buckets are per (ingress,
        # flow), so each ingress keeps its own contract and the flow gets
        # two, not one shared between them
        cfg = base_config(num_ports=3, flows={
            0: FlowSpec(svc_class="premium", police_rate=0.25e6,
                        police_burst=1000)})
        sw = Switch(cfg, [(1, 0)], seed=1)
        feed_cbr(sw, 0, 0, 1, 500, 0.3e6, 1.0)
        feed_cbr(sw, 0, 2, 1, 500, 0.3e6, 1.0, start=1e-3)
        sw.run(1.2)
        acct = sw.conservation()[0]
        contract_bytes = 0.25e6 * 1.0 / 8
        assert acct["delivered"] == pytest.approx(2 * contract_bytes, rel=0.05)
        assert acct["ingress_dropped"] > 0
        assert acct["balanced"]


class TestFeedbackLoops:
    # 100 B packets at 2 Mb/s against a 1 Mb/s line: 125 packets per 50 ms
    # interval, enough to keep Bernoulli admission noise below the
    # hysteresis band width
    def overload_config(self, mode, **fb_over):
        fb = dict(mode=mode, interval=50e-3, delay=0.0, alpha=0.95,
                  gain_p=0.0, gain_i=0.2, d_max=0.17, d_min=0.02)
        fb.update(fb_over)
        return base_config(
            fabric_memory=50_000, out_queue_size=50_000,
            feedback=FeedbackConfig(**fb))

    def test_gearbox_regulates_to_band(self):
        # 2x overload: fluid balance puts the resting level at 7, where
        # admitted arrivals 2e6 * (1 - beta)^7 = 1.12 Mb/s land between
        # d_min and d_max of the 1 Mb/s drain; the quantized loop hunts
        # around it by a couple of levels
        sw = Switch(self.overload_config("gearbox"), [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 4.0)
        sw.run(4.0)
        level = sw._queues[1, 1].level
        assert 4 <= level <= 10
        beta = derive_beta(0.17, 0.02)
        assert sw._queues[1, 1].drop_prob == drop_level_table(beta, 64)[level]
        acct = sw.conservation()[1]
        # line saturated, and the dropped fraction sits near P_7 = 0.44
        assert acct["delivered"] == pytest.approx(1e6 * 4.0 / 8, rel=0.02)
        assert 0.35 <= acct["ingress_dropped"] / acct["injected"] <= 0.52
        assert acct["fabric_dropped"] == 0
        assert acct["balanced"]

    def test_gearbox_feedback_delay(self):
        # at level 0 admission passes everything, so every 10 ms interval
        # sees 16 fabric enqueues against 12 or 13 line completions and is
        # deterministically congested; the sampler steps the level at once,
        # at 10, 20 and 30 ms, and each step's probability reaches the
        # droppers only delay later
        sw = Switch(self.overload_config(
            "gearbox", interval=10e-3, delay=20e-3), [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 0.1)
        table = drop_level_table(derive_beta(0.17, 0.02), 64)
        probes = []
        for t in (15e-3, 25e-3, 35e-3):
            sw.loop.at(ns(t), lambda: probes.append(
                (sw._queues[1, 1].level, sw._queues[1, 1].drop_prob)))
        sw.run(0.1)
        assert probes == [(1, 0.0), (2, 0.0), (3, table[1])]
        # once the applications still in flight have fired, the droppers
        # apply the probability of the level decided last
        sw.loop.run(ns(0.2))
        assert sw._queues[1, 1].level > 0
        assert sw._queues[1, 1].drop_prob == table[sw._queues[1, 1].level]

    def test_gearbox_saturates_at_both_table_ends(self):
        # a two-level table: 2 Mb/s against the 1 Mb/s line stays above
        # d_max at level 1 (drop beta = 0.08), so each interval steps up
        # past the table's end, which leaves the level at 1 and applies its
        # probability again. A 0.5 Mb/s stream then fits the line: once the
        # backlogs have drained, the level steps down to 0 and, at a
        # congestion below d_min, past that end too
        sw = Switch(self.overload_config("gearbox", table_size=2), [(1, 1)],
                    seed=1)
        applied = []
        apply = sw._apply_prob

        def record(oq, prob):
            applied.append((sw.loop.now / NS, oq.level, prob))
            apply(oq, prob)
        sw._apply_prob = record
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 1.0)
        feed_cbr(sw, 1, 0, 1, 100, 0.5e6, 3.0, start=1.0)
        ts = sw.run(3.0)
        cong = [(r.t, r.value) for r in ts.select("rel_cong", 1, 1)]
        # an application follows every interval outside the band, at once
        assert [t for t, _, _ in applied] == [
            t for t, c in cong if not 0.02 <= c <= 0.17]
        levels = [level for _, level, _ in applied]
        up = levels.count(1)
        assert levels == [1] * up + [0] * (len(levels) - up)
        assert up >= 20 and len(levels) - up >= 20, levels
        beta = derive_beta(0.17, 0.02)
        assert {(level, prob) for _, level, prob in applied} == {
            (0, 0.0), (1, drop_level_table(beta, 2)[1])}
        assert (sw._queues[1, 1].level, sw._queues[1, 1].drop_prob) == (0, 0.0)

    def test_pi_regulates_toward_rate_match(self):
        # fluid equilibrium thins 2 Mb/s to alpha * s * 1 Mb/s, i.e. drop
        # prob 0.392; the sampled loop cycles around it with an upward
        # bias, so assert the band and the saturated line
        sw = Switch(self.overload_config("pi"), [(1, 1)], seed=1)
        probes = []
        for k in range(60, 120):
            sw.loop.at(ns(k * 0.05) + 1,
                       lambda: probes.append(sw._queues[1, 1].drop_prob))
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 6.0)
        ts = sw.run(6.0)
        assert all(0.2 <= p <= 0.8 for p in probes)
        assert sum(probes) / len(probes) == pytest.approx(0.45, abs=0.1)
        cong = [r.value for r in ts.select("rel_cong", 1, 1)][60:]
        assert sum(cong) / len(cong) == pytest.approx(0.16, abs=0.06)
        acct = sw.conservation()[1]
        assert acct["delivered"] == pytest.approx(1e6 * 6.0 / 8, rel=0.02)
        assert acct["balanced"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: once PI drives drop_prob to 1.0, no byte reaches "
        "the output, the sampler sees an empty interval and holds, and the "
        "queue stays latched after its overload ends"))
    @pytest.mark.parametrize("gain_p, gain_i", [(0.0, 0.5), (0.1, 0.3),
                                                (0.5, 0.5)])
    def test_pi_releases_after_overload(self, gain_p, gain_i):
        # a 30 Mb/s burst into a 10 Mb/s best-effort line for 50 ms, under
        # a 2 Mb/s stream that runs on: once the burst ends, the stream
        # alone fits the line, so the queue must deliver again
        cfg = base_config(
            line_rate=1e7, fabric_memory=50_000, out_queue_size=20_000,
            flows={1: FlowSpec(svc_class="besteffort")},
            feedback=FeedbackConfig(mode="pi", interval=1e-3, gain_p=gain_p,
                                    gain_i=gain_i))
        sw = Switch(cfg, [(1, 1)], seed=1)
        late = []

        def deliver(p):
            if sw.loop.now > ns(0.2):
                late.append(p.size)
        feed_cbr(sw, 1, 0, 1, 1000, 3e7, 0.05, receiver=deliver)
        feed_cbr(sw, 1, 1, 1, 1000, 2e6, 0.3, receiver=deliver)
        sw.run(0.3)
        assert sum(late) > 0, sw._queues[1, 1].drop_prob

    def test_feedback_off_holds_zero_prob(self):
        sw = Switch(base_config(), [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 500, 2e6, 0.2)
        sw.run(0.2)
        assert sw._queues[1, 1].drop_prob == 0.0
        assert sw.conservation()[1]["ingress_dropped"] == 0

    def test_sampler_emits_rel_cong_records(self):
        # the interval sampler runs even with the controller off; values
        # never exceed 1 (output cannot be negative)
        sw = Switch(base_config(), [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 500, 0.5e6, 0.1)
        ts = sw.run(0.1)
        cong = ts.select("rel_cong", 1, 1)
        assert cong
        assert all(r.value <= 1.0 for r in cong)

    @pytest.mark.parametrize("mode", ["pi", "gearbox"])
    def test_premium_queue_runs_no_controller(self, mode):
        # an unpoliced premium flow at twice the line rate: the ingress
        # dropper never thins premium traffic, so its queue's congestion is
        # recorded but drives no drop probability and no gear level
        cfg = dataclasses.replace(
            self.overload_config(mode),
            flows={1: FlowSpec(svc_class="premium")})
        sw = Switch(cfg, [(1, 1)], seed=1)
        assert sw._queues[1, 1].step is None
        probes = []
        for k in range(1, 20):
            sw.loop.at(ns(k * 0.05) + 1, lambda: probes.append(
                (sw._queues[1, 1].drop_prob, sw._queues[1, 1].level)))
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 1.0)
        ts = sw.run(1.0)
        assert len(probes) == 19
        assert set(probes) == {(0.0, 0)}
        assert (sw._queues[1, 1].drop_prob, sw._queues[1, 1].level) == (0.0, 0)
        cong = [r.value for r in ts.select("rel_cong", 1, 1)]
        assert len(cong) == 20
        # every interval after the first sits above d_max: a controller
        # would have stepped up each time
        assert min(cong[1:]) > 0.17
        assert sw.conservation()[1]["ingress_dropped"] == 0

    @pytest.mark.parametrize("mode", get_args(FeedbackMode))
    def test_step_chosen_at_setup(self, mode):
        # one queue per service class: each non-premium queue holds the
        # mode's step, bound to its switch; premium queues and every queue
        # under off hold none, so their sampler only records rel_cong
        classes = get_args(ServiceClass)
        cfg = dataclasses.replace(
            self.overload_config(mode),
            flows={k: FlowSpec(svc_class=c) for k, c in enumerate(classes)})
        sw = Switch(cfg, [(1, k) for k in range(len(classes))], seed=1)
        steps = {"pi": sw._pi_step, "gearbox": sw._gearbox_step}
        for k, svc_class in enumerate(classes):
            step = sw._queues[1, k].step
            if mode == "off" or svc_class == "premium":
                assert step is None
            else:
                assert step == steps[mode]  # same function, bound to sw


class TestConservation:
    def test_exact_with_all_drop_kinds(self):
        cfg = base_config(
            fabric_memory=5000, out_queue_size=2000,
            red=RedParams(max_p=0.5, min_th=500, max_th=1500,
                          sample_interval=1e-3),
            feedback=FeedbackConfig(mode="gearbox", interval=10e-3))
        sw = Switch(cfg, [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 500, 3e6, 0.5)
        sw.run(0.5)
        acct = sw.conservation()[1]
        assert acct["ingress_dropped"] > 0
        assert acct["egress_dropped"] > 0
        assert acct["balanced"]
        assert acct["injected"] == (acct["ingress_dropped"]
                                    + acct["fabric_dropped"]
                                    + acct["egress_dropped"]
                                    + acct["delivered"] + acct["resident"])

    def test_totals_records_emitted(self):
        sw = Switch(base_config(), [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 500, 0.5e6, 0.1)
        ts = sw.run(0.1)
        names = {r.metric for r in ts.records}
        for metric in ("injected_bytes_total", "delivered_bytes_total",
                       "ingress_drop_bytes_total", "fabric_drop_bytes_total",
                       "egress_drop_bytes_total", "resident_bytes_total"):
            assert metric in names


class TestDeterminism:
    def run_once(self, seed):
        cfg = base_config(fabric_memory=50_000, out_queue_size=50_000,
                          feedback=FeedbackConfig(mode="gearbox",
                                                  interval=10e-3))
        sw = Switch(cfg, [(1, 1)], seed=seed)
        feed_cbr(sw, 1, 0, 1, 500, 2e6, 0.3)
        return sw.run(0.3).to_csv()

    def test_same_seed_bit_identical_csv(self):
        assert self.run_once(7) == self.run_once(7)

    def test_different_seed_differs(self):
        assert self.run_once(7) != self.run_once(8)


class TestTicks:
    class CountingLoop(EventLoop):
        def __init__(self):
            super().__init__()
            self.ticks = 0

        def at(self, when, fn, rank=RANK_DATA, port=-1, flow=-1):
            self.ticks += rank == RANK_TICK
            super().at(when, fn, rank, port, flow)

    def tick_run(self, ports, flows):
        # 20 ms: 20 sampler periods, 40 RED periods, 10 report windows
        cfg = base_config(
            num_ports=ports, red=RedParams(sample_interval=0.5e-3),
            report_interval=2e-3,
            flows={k: FlowSpec(svc_class="assured")
                   for k in range(flows)},
            feedback=FeedbackConfig(mode="gearbox", interval=1e-3))
        loop = self.CountingLoop()
        # the queues given in reverse key order
        sw = Switch(cfg, [(j, k) for j in reversed(range(ports))
                          for k in reversed(range(flows))],
                    seed=1, loop=loop)
        sampled = []
        run_sample = sw.sample_and_feedback

        def sample(oq):
            sampled.append((oq.egress, oq.flow_id))
            return run_sample(oq)
        sw.sample_and_feedback = sample
        sw.run(0.02)
        return loop.ticks, sampled

    def test_ticks_follow_periods_not_queues(self):
        ticks, sampled = self.tick_run(ports=4, flows=4)
        assert ticks == 20 + 40 + 10
        assert self.tick_run(ports=1, flows=1)[0] == ticks
        # every queue is still sampled once per period, in key order
        queues = [(j, k) for j in range(4) for k in range(4)]
        assert sampled == queues * 20


class TestLifecycle:
    def test_register_unknown_flow(self):
        with pytest.raises(ValueError, match="flow 9 not defined"):
            Switch(base_config(), [(1, 1), (1, 9)], seed=1)

    def test_register_bad_port(self):
        for egress in (5, -1):
            with pytest.raises(ValueError,
                               match=f"egress port {egress} out of range"):
                Switch(base_config(), [(egress, 1)], seed=1)

    def test_sources_sharing_a_queue_build_one(self):
        # two CBR sources, from ingress 0 and 1, into one (egress, flow)
        text = "\n".join([
            "switch.num_ports = 2", "switch.line_rate = 1e6",
            "switch.speedup = 1.28", "switch.fabric_memory = 100000",
            "switch.out_queue_size = 100000", "flow.1.class = assured",
            "experiment.duration = 0.01",
            *(f"source.{i}.{key} = {value}" for i in (0, 1)
              for key, value in (("kind", "cbr"), ("flow", 1), ("ingress", i),
                                 ("egress", 1), ("packet_size", 500),
                                 ("rate", 0.3e6)))])
        experiment = Experiment(build_experiment(parse_pairs(text)))
        assert list(experiment.switch._queues) == [(1, 1)]
        rows = [(r.t, r.port, r.flow) for r in experiment.run().records
                if r.metric == "throughput_bps"]
        # one row per 1 ms report window
        assert rows == [(t / 1000, 1, 1) for t in range(1, 11)]

    def test_red_generators_only_under_red(self):
        queues = [(0, 1), (1, 1)]
        droptail = Switch(base_config(), queues, seed=1)
        assert [oq.red_rng for oq in droptail._queues.values()] == [None, None]
        red = Switch(base_config(red=RedParams()), queues, seed=1)
        rngs = [oq.red_rng for oq in red._queues.values()]
        assert all(type(rng) is random.Random for rng in rngs)
        assert rngs[0] is not rngs[1]

    def test_each_label_built_once(self, monkeypatch):
        # label() makes a new handle on every call, so a label built per
        # row would grow the series' label table with the rows
        monkeypatch.syspath_prepend(str(BENCH))
        from workloads import wide_cbr_pi_text
        config = build_experiment(parse_pairs(wide_cbr_pi_text(1, ports=2)))
        series = Experiment(config).run()
        # 2 x 8 queues of 8 rows, 2 fabric rows, occupancy, 8 flows' 6 totals
        assert len(series._labels) == len(set(series._labels)) == (
            16 * 8 + 2 + 1 + 8 * 6)
        assert set(series._label) <= set(range(len(series._labels)))

    def test_out_of_range_ingress_refused(self):
        # a policed premium flow, so a wrapped index would also skip the
        # policer: no counter may move before the refusal
        cfg = base_config(flows={0: FlowSpec(
            svc_class="premium", police_rate=1e3,
            police_burst=500)})
        sw = Switch(cfg, [(1, 0)], seed=1)
        for ingress in (-1, cfg.num_ports):
            for seq in range(5):
                with pytest.raises(ValueError,
                                   match=f"ingress port {ingress} out of range"):
                    sw.ingress_arrival(packet(flow=0, ingress=ingress,
                                              seq=seq))
        acct = sw.conservation()[0]
        assert acct["injected"] == 0
        assert acct["balanced"]

    def test_run_twice_rejected(self):
        sw = Switch(base_config(), [(1, 1)], seed=1)
        sw.run(0.001)
        with pytest.raises(ValueError, match="only be called once"):
            sw.run(0.001)

    def test_non_float_duration_refused_before_the_run(self):
        sw = Switch(base_config(), [(1, 1)], seed=1)
        feed_cbr(sw, 1, 0, 1, 500, 1e5, 0.1)
        with pytest.raises(TypeError, match="duration must be a float"):
            sw.run(1)
        # the refusal leaves the switch unstarted: a float run still works
        sw.run(0.1)
        assert sw.conservation()[1]["delivered"] > 0

    def test_arrival_without_queue(self):
        sw = Switch(base_config(), seed=1)
        with pytest.raises(ValueError, match="no queue registered"):
            sw.ingress_arrival(packet())


class TestScaling:
    def opcodes_per_injected_kb(self, ports):
        """Opcodes run in foqsim's run-path modules per KB injected, in a
        5 ms run of the benchmark's wide PI config at `ports` ports."""
        from foqsim import control, events, switch, timeseries, traffic
        from workloads import wide_cbr_pi_text
        files = {m.__file__ for m in (control, events, switch, timeseries,
                                      traffic)}
        config = build_experiment(parse_pairs(
            wide_cbr_pi_text(1, ports=ports, duration=0.005)))
        experiment = Experiment(config)
        opcodes, _ = opcodes_in(experiment.run,
                                lambda code: code.co_filename in files)
        injected = sum(oq.injected for oq in experiment.switch._queues.values())
        assert injected > 90_000
        return opcodes / (injected / 1000)

    def test_cost_per_kb_does_not_grow_with_the_flow_count(self):
        # the paper's complexity claim in F: the per-packet switch methods,
        # ingress_arrival through _out_done in source order, cost 3,230.0,
        # 3,244.4 and 3,111.6 opcodes per injected KB on busy_output at 8,
        # 64 and 256 busy flows, a spread of 4.3%. An empty loop over the
        # switch's queues in _enqueue_out alone reads 3,453.6 and 9,110.7
        # at 8 and 256 flows, so the bound is 10%
        methods = list(vars(Switch).values())
        first = methods.index(Switch.ingress_arrival)
        last = methods.index(Switch._out_done)
        codes = {f.__code__ for f in methods[first:last + 1]}
        costs = []
        for flows in (8, 64, 256):
            sw = busy_output(flows)
            opcodes, _ = opcodes_in(lambda: sw.run(0.04), codes.__contains__)
            injected = sum(oq.injected for oq in sw._queues.values())
            costs.append(opcodes / (injected / 1000))
        assert max(costs) <= 1.10 * min(costs), costs

    def test_cost_per_kb_does_not_grow_with_the_port_count(self, monkeypatch):
        # the paper's complexity claim in P: at 2, 8 and 32 ports (8 flows
        # each, so the offered bytes grow with P) the run costs 2,117.2,
        # 2,078.5 and 2,057.1 opcodes per injected KB, a spread of 2.9%. A
        # per-packet step that walks the ports or the queues grows 16-fold
        # from 2 to 32 ports: an empty loop over the ports at each ingress
        # arrival alone spreads the costs by 7.7%, so the bound is 5%
        monkeypatch.syspath_prepend(str(BENCH))
        costs = [self.opcodes_per_injected_kb(p) for p in (2, 8, 32)]
        assert max(costs) <= 1.05 * min(costs), costs
