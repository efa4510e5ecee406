"""Switch behavior tests: event kernel, admission, fabric, scheduling,
feedback loops, byte conservation, determinism."""

import dataclasses

import pytest

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
from foqsim.switch import (
    FeedbackConfig,
    FlowSpec,
    Packet,
    RedParams,
    ServiceClass,
    Switch,
    SwitchConfig,
    ingress_admit,
    red_drop_probability,
)


def packet(flow=1, ingress=0, egress=1, size=500,
           svc=ServiceClass.ASSURED, seq=0):
    return Packet(flow, ingress, egress, size, svc, created_at=0, seq=seq)


def base_config(**over):
    defaults = dict(
        num_ports=2, line_rate=1e6, speedup=1.28, fabric_memory=1_000_000,
        out_queue_size=1_000_000,
        flows={1: FlowSpec(svc_class=ServiceClass.ASSURED)},
    )
    defaults.update(over)
    return SwitchConfig(**defaults)


def feed_cbr(sw, flow, ingress, egress, size, rate_bps, duration,
             svc=ServiceClass.ASSURED, start=0.0):
    """Schedule a deterministic constant-rate packet train into the switch."""
    period = tx_ns(size, rate_bps)
    t = ns(start)
    seq = 0
    while t < ns(duration):
        def arrive(t=t, seq=seq):
            sw.ingress_arrival(Packet(flow, ingress, egress, size, svc,
                                      created_at=t, seq=seq))
        sw.loop.at(t, arrive, port=ingress, flow=flow)
        t += period
        seq += 1


class TestEventKernel:
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
    def test_zero_prob_admits(self):
        assert ingress_admit(packet(), 0.0, stream(1, "x"))

    def test_certain_drop(self):
        assert not ingress_admit(packet(), 1.0, stream(1, "x"))

    def test_premium_bypasses_dropper(self):
        prem = packet(svc=ServiceClass.PREMIUM)
        assert ingress_admit(prem, 1.0, stream(1, "x"))

    def test_admit_fraction_half(self):
        # law of large numbers at a fixed stream: 0.5 +- 0.002 over 1e6
        rng = stream(1, "admit-test")
        pkt = packet()
        admitted = sum(ingress_admit(pkt, 0.5, rng) for _ in range(1_000_000))
        assert abs(admitted / 1e6 - 0.5) < 0.002


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
            flows={0: FlowSpec(svc_class=ServiceClass.PREMIUM),
                   1: FlowSpec(svc_class=ServiceClass.ASSURED)})
        sw = Switch(cfg, seed=1)
        sw.register_flow_queue(1, 0)
        sw.register_flow_queue(1, 1)
        return sw

    def test_same_priority_tail_drop(self):
        sw = self.small_switch()
        for seq in range(10):
            sw.ingress_arrival(packet(flow=1, size=500, seq=seq))
        # one packet is already draining (freed at drain start), the pool
        # holds six more at 500 B, the rest tail-drop
        assert sw.fabric_occupancy == 3000
        acct = sw.conservation()[1]
        assert acct["fabric_dropped"] == 3 * 500
        assert acct["balanced"]

    def test_premium_evicts_low_priority(self):
        sw = self.small_switch()
        for seq in range(7):
            sw.ingress_arrival(packet(flow=1, size=500, seq=seq))
        assert sw.fabric_occupancy == 3000
        sw.ingress_arrival(packet(flow=0, size=500,
                                  svc=ServiceClass.PREMIUM))
        acct = sw.conservation()
        assert acct[0]["fabric_dropped"] == 0      # premium got in
        assert acct[1]["fabric_dropped"] == 500    # one victim evicted
        assert sw.fabric_occupancy <= 3000
        assert acct[0]["balanced"] and acct[1]["balanced"]

    def test_occupancy_freed_at_drain_start(self):
        sw = self.small_switch()
        sw.ingress_arrival(packet(flow=1, size=500))
        # the head packet went straight into drain, so the pool is empty
        assert sw.fabric_occupancy == 0


class TestScheduling:
    def run_two_flow_share(self, w1, w2, rate1, rate2, duration=2.0):
        # speedup 4 keeps the fabric out of the way: the output scheduler
        # is the only bottleneck
        cfg = base_config(speedup=4.0, flows={
            1: FlowSpec(svc_class=ServiceClass.ASSURED, weight=w1),
            2: FlowSpec(svc_class=ServiceClass.ASSURED, weight=w2)})
        sw = Switch(cfg, seed=1)
        sw.register_flow_queue(1, 1)
        sw.register_flow_queue(1, 2)
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
            0: FlowSpec(svc_class=ServiceClass.PREMIUM),
            1: FlowSpec(svc_class=ServiceClass.ASSURED)})
        sw = Switch(cfg, seed=1)
        sw.register_flow_queue(1, 0)
        sw.register_flow_queue(1, 1)
        order = []
        sw.delivery_hooks.append(lambda p: order.append(p.flow_id))
        # assured backlog builds first, premium arrives later and jumps it
        feed_cbr(sw, 1, 0, 1, 500, 2e6, 0.1)
        feed_cbr(sw, 0, 0, 1, 500, 0.2e6, 0.1,
                 svc=ServiceClass.PREMIUM, start=0.01)
        ts = sw.run(0.1)
        assert 0 in order and order.index(0) > 0
        # premium waits for at most one in-service packet per hop (about
        # 14 ms worst case here) while the growing assured backlog pushes
        # the assured delay well past that by the end of the run
        prem = [r.value for r in ts.select("delay_mean_s", 1, 0)]
        assured = [r.value for r in ts.select("delay_mean_s", 1, 1)]
        assert prem and max(prem) < 0.02
        assert assured[-1] > max(prem)

    def test_scheduler_select_order(self):
        cfg = base_config(flows={
            0: FlowSpec(svc_class=ServiceClass.PREMIUM),
            1: FlowSpec(svc_class=ServiceClass.ASSURED),
            2: FlowSpec(svc_class=ServiceClass.BEST_EFFORT)})
        sw = Switch(cfg, seed=1)
        for fid in (0, 1, 2):
            sw.register_flow_queue(1, fid)
        assert sw.out_scheduler_select(1) is None
        assert sw.out_scheduler_select(0) is None


class TestPolicer:
    def test_premium_policed_to_contract(self):
        cfg = base_config(flows={
            0: FlowSpec(svc_class=ServiceClass.PREMIUM, police_rate=0.5e6,
                        police_burst=1000)})
        sw = Switch(cfg, seed=1)
        sw.register_flow_queue(1, 0)
        feed_cbr(sw, 0, 0, 1, 500, 1e6, 1.0, svc=ServiceClass.PREMIUM)
        sw.run(1.2)
        acct = sw.conservation()[0]
        # 1 Mb/s offered against a 0.5 Mb/s bucket: half the bytes drop at
        # the policer (plus the initial burst allowance)
        contract_bytes = 0.5e6 * 1.0 / 8
        assert acct["delivered"] == pytest.approx(contract_bytes, rel=0.05)
        assert acct["ingress_dropped"] > 0
        assert acct["fabric_dropped"] == 0
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
        sw = Switch(self.overload_config("gearbox"), seed=1)
        sw.register_flow_queue(1, 1)
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 4.0)
        sw.run(4.0)
        level = sw.drop_level(1, 1)
        assert 4 <= level <= 10
        beta = derive_beta(0.17, 0.02)
        assert sw.drop_probability(1, 1) == drop_level_table(beta, 64)[level]
        acct = sw.conservation()[1]
        # line saturated, and the dropped fraction sits near P_7 = 0.44
        assert acct["delivered"] == pytest.approx(1e6 * 4.0 / 8, rel=0.02)
        assert 0.35 <= acct["ingress_dropped"] / acct["injected"] <= 0.52
        assert acct["fabric_dropped"] == 0
        assert acct["balanced"]

    def test_gearbox_feedback_delay(self):
        # at level 0 admission passes everything, so every 10 ms interval
        # sees 16 fabric enqueues against 12 or 13 line completions and is
        # deterministically congested; the increase emitted at the first
        # boundary applies only delay later
        sw = Switch(self.overload_config(
            "gearbox", interval=10e-3, delay=20e-3), seed=1)
        sw.register_flow_queue(1, 1)
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 0.1)
        probes = []
        sw.loop.at(ns(0.025), lambda: probes.append(sw.drop_probability(1, 1)))
        sw.loop.at(ns(0.045), lambda: probes.append(sw.drop_probability(1, 1)))
        sw.run(0.1)
        assert probes[0] == 0.0
        assert probes[1] > 0.0

    def test_pi_regulates_toward_rate_match(self):
        # fluid equilibrium thins 2 Mb/s to alpha * s * 1 Mb/s, i.e. drop
        # prob 0.392; the sampled loop cycles around it with an upward
        # bias, so assert the band and the saturated line
        sw = Switch(self.overload_config("pi"), seed=1)
        sw.register_flow_queue(1, 1)
        probes = []
        for k in range(60, 120):
            sw.loop.at(ns(k * 0.05) + 1,
                       lambda: probes.append(sw.drop_probability(1, 1)))
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 6.0)
        ts = sw.run(6.0)
        assert all(0.2 <= p <= 0.8 for p in probes)
        assert sum(probes) / len(probes) == pytest.approx(0.45, abs=0.1)
        cong = [r.value for r in ts.select("rel_cong", 1, 1)][60:]
        assert sum(cong) / len(cong) == pytest.approx(0.16, abs=0.06)
        acct = sw.conservation()[1]
        assert acct["delivered"] == pytest.approx(1e6 * 6.0 / 8, rel=0.02)
        assert acct["balanced"]

    def test_feedback_off_holds_zero_prob(self):
        sw = Switch(base_config(), seed=1)
        sw.register_flow_queue(1, 1)
        feed_cbr(sw, 1, 0, 1, 500, 2e6, 0.2)
        sw.run(0.2)
        assert sw.drop_probability(1, 1) == 0.0
        assert sw.conservation()[1]["ingress_dropped"] == 0

    def test_sampler_emits_rel_cong_records(self):
        # the interval sampler runs even with the controller off; values
        # never exceed 1 (output cannot be negative)
        sw = Switch(base_config(), seed=1)
        sw.register_flow_queue(1, 1)
        feed_cbr(sw, 1, 0, 1, 500, 0.5e6, 0.1)
        ts = sw.run(0.1)
        cong = ts.select("rel_cong", 1, 1)
        assert cong
        assert all(r.value <= 1.0 for r in cong)

    @pytest.mark.parametrize("mode", ["pi", "gearbox"])
    def test_premium_queue_runs_no_controller(self, mode):
        # an unpoliced premium flow at twice the line rate: ingress_admit
        # never thins premium traffic, so its queue's congestion is
        # recorded but drives no drop probability and no gear level
        cfg = dataclasses.replace(
            self.overload_config(mode),
            flows={1: FlowSpec(svc_class=ServiceClass.PREMIUM)})
        sw = Switch(cfg, seed=1)
        sw.register_flow_queue(1, 1)
        probes = []
        for k in range(1, 20):
            sw.loop.at(ns(k * 0.05) + 1, lambda: probes.append(
                (sw.drop_probability(1, 1), sw.drop_level(1, 1))))
        feed_cbr(sw, 1, 0, 1, 100, 2e6, 1.0, svc=ServiceClass.PREMIUM)
        ts = sw.run(1.0)
        assert len(probes) == 19
        assert set(probes) == {(0.0, 0)}
        assert (sw.drop_probability(1, 1), sw.drop_level(1, 1)) == (0.0, 0)
        cong = [r.value for r in ts.select("rel_cong", 1, 1)]
        assert len(cong) == 20
        # every interval after the first sits above d_max: a controller
        # would have stepped up each time
        assert min(cong[1:]) > 0.17
        assert sw.conservation()[1]["ingress_dropped"] == 0


class TestConservation:
    def test_exact_with_all_drop_kinds(self):
        cfg = base_config(
            fabric_memory=5000, out_queue_size=2000,
            red=RedParams(max_p=0.5, min_th=500, max_th=1500,
                          sample_interval=1e-3),
            feedback=FeedbackConfig(mode="gearbox", interval=10e-3))
        sw = Switch(cfg, seed=1)
        sw.register_flow_queue(1, 1)
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
        sw = Switch(base_config(), seed=1)
        sw.register_flow_queue(1, 1)
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
        sw = Switch(cfg, seed=seed)
        sw.register_flow_queue(1, 1)
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
            flows={k: FlowSpec(svc_class=ServiceClass.ASSURED)
                   for k in range(flows)},
            feedback=FeedbackConfig(mode="gearbox", interval=1e-3))
        loop = self.CountingLoop()
        sw = Switch(cfg, seed=1, loop=loop)
        sampled = []
        run_sample = sw.sample_and_feedback

        def sample(j, k):
            sampled.append((j, k))
            return run_sample(j, k)
        sw.sample_and_feedback = sample
        for j in range(ports):
            for k in range(flows):
                sw.register_flow_queue(j, k)
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
        sw = Switch(base_config(), seed=1)
        with pytest.raises(ValueError, match="flow 9 not defined"):
            sw.register_flow_queue(1, 9)

    def test_register_bad_port(self):
        sw = Switch(base_config(), seed=1)
        with pytest.raises(ValueError, match="out of range"):
            sw.register_flow_queue(5, 1)

    def test_register_after_start(self):
        sw = Switch(base_config(), seed=1)
        sw.register_flow_queue(1, 1)
        sw.run(0.001)
        with pytest.raises(ValueError, match="after the run started"):
            sw.register_flow_queue(0, 1)

    def test_run_twice_rejected(self):
        sw = Switch(base_config(), seed=1)
        sw.register_flow_queue(1, 1)
        sw.run(0.001)
        with pytest.raises(ValueError, match="only be called once"):
            sw.run(0.001)

    def test_arrival_without_queue(self):
        sw = Switch(base_config(), seed=1)
        with pytest.raises(ValueError, match="no queue registered"):
            sw.ingress_arrival(packet())
