"""Acceptance gate: one test per shipped claim, each printing a single
pass line with its measured numbers. Tolerances are pinned here and nowhere
else; every expected value was produced by an independent oracle before the
bound was frozen.

1. Closed-form step response matches the brute-force recurrence.
2. The stability boundary 0 < K_I < 2(1 - K) separates bounded from
   divergent behaviour of the recurrence.
3. The hysteresis constants satisfy the fluid-model symmetry.
4. The CBR benchmark lands in its published throughput bands in both
   feedback modes.
5. The staged TCP benchmark shows fabric saturation without feedback and
   regulated ingress dropping with it.
6. Core invariants hold standalone: conservation, WFQ shares, gear-box
   band containment, admit-table composition, pole identities, determinism.
9. Every premium packet is delivered within the non-preemptive-priority
   delay bound of its output, on both shipped CBR configs, on a wide
   config in every feedback mode, and over drawn small configs whose
   policed premium flows have bursts of one to eight packets.

The golden digests (in tests/pins.py, with every other pinned value) pin
the CSV bytes of the four shipped configs across commits, both as the
in-memory series writes them and as the streaming sink wrote them during
the same run; they reuse the runs of criteria 4 and 5, and so do the
pinned TCP counts of the two TCP configs. Small inline configs pin
what the shipped ones leave out: PI mode, a feedback delay, report windows
shorter and longer than the feedback interval, and a RED average sampled at
its own period, over two outputs with three flows each.
"""

import hashlib
import io
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from foqsim.analytic import (
    StepScenario,
    initial_period,
    poles,
    step_response_closed_form,
    step_response_recurrence,
)
from foqsim.config import build_experiment, load_config, parse_pairs
from foqsim.control import (
    admit_level_table,
    d_mid,
    derive_beta,
    drop_level_table,
)
from foqsim.events import NS, ns, tx_ns
from foqsim.experiment import Experiment
from foqsim.switch import (
    FeedbackConfig,
    FlowSpec,
    Packet,
    RedParams,
    Switch,
    SwitchConfig,
)
from foqsim.timeseries import CsvSink, TimeSeries
from pins import (
    GOLDEN_DIGESTS,
    TCP_COUNTS,
    TRACED,
    TRACED_AT_MOST,
    check,
    traced_moved,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BENCH = ROOT / "bench"


def inline_config(switch_lines):
    """A 100 ms CBR run into outputs 2 and 3 of a 4-port RED switch: per
    output a policed premium flow over its contract, a weight-3 assured and
    a best-effort flow, together 1.55x the line."""
    lines = [
        "switch.num_ports = 4",
        "switch.line_rate = 10e6",
        "switch.speedup = 1.28",
        "switch.fabric_memory = 30000",
        "switch.out_queue_size = 8000",
        "switch.queue_mgmt = red",
        "switch.red.min_th = 1000",
        "switch.red.max_th = 6000",
        "switch.red.max_p = 0.2",
        "switch.red.weight = 0.25",
        "flow.0.class = premium",
        "flow.0.police_rate = 1e6",
        "flow.1.class = assured",
        "flow.1.weight = 3",
        "flow.2.class = besteffort",
        "experiment.duration = 0.1",
        "experiment.seed = 7",
    ] + switch_lines
    sid = 0
    for egress in (2, 3):
        for flow, rate, size in ((0, 1.5e6, 200), (1, 8e6, 1000),
                                 (2, 6e6, 576)):
            lines += [f"source.{sid}.kind = cbr",
                      f"source.{sid}.flow = {flow}",
                      f"source.{sid}.ingress = {(sid + egress) % 4}",
                      f"source.{sid}.egress = {egress}",
                      f"source.{sid}.packet_size = {size}",
                      f"source.{sid}.rate = {rate!r}",
                      f"source.{sid}.start = {sid * 37e-6!r}"]
            sid += 1
    return "\n".join(lines) + "\n"


# switch keys of each inline golden config
INLINE = {
    # zero-delay PI applications interleave with the samplers; the report
    # window is half the feedback interval, the RED period neither
    "inline_pi": ["switch.feedback.mode = pi",
                  "switch.feedback.interval = 1e-3",
                  "switch.feedback.gain_i = 0.05",
                  "switch.feedback.gain_p = 0.02",
                  "switch.report_interval = 0.5e-3",
                  "switch.red.sample_interval = 0.7e-3"],
    # a delayed gear-box, measured by drop probability, reported every
    # 2.5 intervals, with the RED average updated every 0.3 ms
    "inline_gearbox": ["switch.feedback.mode = gearbox",
                       "switch.feedback.interval = 1e-3",
                       "switch.feedback.delay = 1.5e-3",
                       "switch.feedback.measure = dropprob",
                       "switch.feedback.d_max = 0.1",
                       "switch.feedback.d_min = 0.01",
                       "switch.report_interval = 2.5e-3",
                       "switch.red.sample_interval = 0.3e-3"],
}

GRID = [(k10 / 10, f / 10 * 2 * (1 - k10 / 10))
        for k10 in range(10) for f in range(1, 10)]  # 90 stable points


class Tee:
    """A sink that hands every row to each of its sinks."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def label(self, *fields):
        return tuple(sink.label(*fields) for sink in self.sinks)

    def extend(self, t, labels, values):
        for n, sink in enumerate(self.sinks):
            sink.extend(t, [label[n] for label in labels], values)


@pytest.fixture(scope="module")
def runs():
    """Shipped or inline config name -> (its series at its seed, the CSV a
    CsvSink streamed from the same run, the Experiment that ran), each run
    at most once per module so the bands, the digests and the TCP counts
    share the simulations."""
    done = {}

    def run(name):
        if name not in done:
            config = (build_experiment(parse_pairs(inline_config(INLINE[name])))
                      if name in INLINE else load_config(CONFIGS / f"{name}.cfg"))
            series, stream = TimeSeries(), io.StringIO()
            experiment = Experiment(config, sink=Tee(series, CsvSink(stream)))
            experiment.run()
            done[name] = series, stream.getvalue(), experiment
        return done[name]
    return run


@pytest.fixture(scope="module")
def shipped(runs):
    """Config name -> its in-memory series."""
    return lambda name: runs(name)[0]


def series_values(ts, metric, port, flow, lo=None, hi=None):
    return [r.value for r in ts.select(metric, port, flow)
            if (lo is None or r.t > lo) and (hi is None or r.t <= hi)]


def mean(xs):
    return sum(xs) / len(xs)


def relative_congestion(ts, port, flow, lo, hi, span):
    """Byte-true 1 - out/in over (lo, hi]: the input side is reconstructed
    from deliveries, egress drops and the backlog change."""
    out_b = sum(series_values(ts, "throughput_bps", port, flow, lo, hi)) * span / 8
    egress_b = sum(series_values(ts, "egress_drop_bps", port, flow, lo, hi)) * span / 8
    backlog = {round(r.t, 6): r.value
               for r in ts.select("out_queue_bytes", port, flow)}
    delta_q = backlog[round(hi, 6)] - backlog[round(lo, 6)]
    return 1.0 - out_b / (out_b + egress_b + delta_q)


def test_criterion_1_closed_form_matches_recurrence():
    # 90 stable gain pairs x 4 step scenarios, 200 intervals each; relative
    # deviation below 1e-9 from one interval past the saturation ramp (the
    # scenarios keep n0 <= 17 so at least 182 intervals are compared)
    t0 = time.perf_counter()
    scenarios = [(1.5, 1.0, 1.28), (1.05, 0.95, 1.0),
                 (0.9, 0.6, 1.0), (1.2, 0.8, 1.0)]
    worst = 0.0
    for lam, ropt, sc in scenarios:
        scale = lam - ropt
        for gain_p, gain_i in GRID:
            scn = StepScenario(lam, ropt, sc, gain_p=gain_p, gain_i=gain_i)
            n0 = initial_period(scn)[0]
            closed = step_response_closed_form(scn, 200).drop_sequence
            rec = step_response_recurrence(scn, 200)
            for n in range(n0 + 1, 200):
                dev = abs(closed[n] - rec[n]) / max(abs(rec[n]), scale)
                worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"criterion 1: PASS (worst rel dev {worst:.2e} over "
          f"{len(GRID) * len(scenarios)} pairs, {elapsed:.2f}s)")


def test_criterion_2_stability_region_boundary():
    # unsaturated scenario so the closed loop governs from the first
    # interval: interior gains stay bounded, gains past either edge of
    # 0 < K_I < 2(1 - K) blow past 1e6 times the rate gap within 1e4 steps
    t0 = time.perf_counter()
    lam, ropt, sc = 0.9, 0.6, 1.0
    gap = lam - ropt
    for gain_p, gain_i in GRID:
        scn = StepScenario(lam, ropt, sc, gain_p=gain_p, gain_i=gain_i)
        bound = max(abs(r) for r in step_response_recurrence(scn, 2000))
        assert bound < 1e3, (gain_p, gain_i, bound)
    diverged = 0
    for k10 in range(10):
        gain_p = k10 / 10
        for gain_i in (2 * (1 - gain_p) + 0.05, 2 * (1 - gain_p) + 1.0,
                       -0.05, -1.0):
            scn = StepScenario(lam, ropt, sc, gain_p=gain_p, gain_i=gain_i)
            seq = step_response_recurrence(scn, 10_000)
            assert any(abs(r) > 1e6 * gap for r in seq), (gain_p, gain_i)
            diverged += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 2: PASS ({len(GRID)} interior bounded, "
          f"{diverged} outside points divergent, {elapsed:.2f}s)")


def test_criterion_3_hysteresis_constants():
    beta = derive_beta(0.17, 0.02)
    mid = d_mid(0.02, 0.17)
    post_increase = 1.0 - (1.0 - 0.17) / (1.0 - beta)
    post_decrease = 1.0 - (1.0 - 0.02) * (1.0 - beta)
    assert abs(post_increase - mid) <= 1e-12
    assert abs(post_decrease - mid) <= 1e-12
    assert mid == pytest.approx(0.0981, abs=1e-4)
    print(f"criterion 3: PASS (beta {beta:.6f}, d_mid {mid:.6f}, "
          f"symmetry residual {max(abs(post_increase - mid), abs(post_decrease - mid)):.1e})")


def criterion_4_bands(ts_off, ts_on):
    """Assert criterion 4 on the series of `cbr_scaled_nofoq` (ts_off) and
    `cbr_scaled` (ts_on); return flow 1's mean rate off and flows 1 and 2's
    mean rates on, in bits/s."""
    # (a) feedback off: flow 1 pinned near its fabric-FIFO share, with the
    # fabric dropping in essentially every steady window
    f1_off = mean(series_values(ts_off, "throughput_bps", 3, 1, lo=0.1))
    assert 59.3e6 * 0.9 <= f1_off <= 59.3e6 * 1.1
    off_drop_windows = sum(
        1 for flow in (1, 2)
        for v in series_values(ts_off, "fabric_drop_bps", 3, flow, lo=0.1)
        if v > 0)
    assert off_drop_windows >= 50

    # (b) gear-box on: weighted shares restored, fabric clean after the
    # 20 ms start-up transient
    f1_on = mean(series_values(ts_on, "throughput_bps", 3, 1, lo=0.1))
    f2_on = mean(series_values(ts_on, "throughput_bps", 3, 2, lo=0.1))
    assert 76.2e6 * 0.9 <= f1_on <= 76.2e6 * 1.1
    assert 13.7e6 * 0.85 <= f2_on <= 13.7e6 * 1.15
    late_fabric = [v for flow in (0, 1, 2)
                   for v in series_values(ts_on, "fabric_drop_bps", 3, flow,
                                          lo=0.02)]
    assert all(v == 0 for v in late_fabric)

    # (c) premium delivered in full, lossless, in both modes
    for ts in (ts_off, ts_on):
        premium = mean(series_values(ts, "throughput_bps", 3, 0, lo=0.1))
        assert premium == pytest.approx(9.52e6, rel=0.02)
        dropped = (ts.select("ingress_drop_bytes_total", None, 0)[-1].value
                   + ts.select("fabric_drop_bytes_total", None, 0)[-1].value
                   + ts.select("egress_drop_bytes_total", None, 0)[-1].value)
        assert dropped == 0
    return f1_off, f1_on, f2_on


def criterion_5_bands(ts_off, ts_on):
    """Assert criterion 5 on the series of `tcp_scaled_nofoq` (ts_off) and
    `tcp_scaled` (ts_on); return the off tail's and the on run's long-run
    relative congestion and the on run's settled ingress drop rates of
    overload stages 2-5, in bits/s."""
    span = 10e-3  # report window of the fixtures

    # (a) feedback off: the output saturates at the speedup bound
    # 1 - 1/1.28 = 0.21875 while the fabric sits at its cap and drops
    c_tail = relative_congestion(ts_off, 5, 0, 8.0, 10.0, span)
    assert c_tail == pytest.approx(0.21875, abs=0.02)
    occupancy = max(r.value for r in
                    ts_off.select("fabric_occupancy_bytes", None, None))
    assert occupancy >= 5000 - 104  # cap minus one packet
    drop_windows = sum(1 for r in ts_off.select("fabric_drop_bps", 5, 0)
                       if r.t > 4.0 and r.value > 0)
    assert drop_windows >= 100

    # (b) gear-box on: judged on the settled tail of each 2 s stage (the
    # last 0.4 s), past the stage-arrival transients
    settled = [(2 * k + 1.6, 2 * k + 2.0) for k in range(5)]
    for lo, hi in settled:
        assert sum(series_values(ts_on, "fabric_drop_bps", 5, 0, lo, hi)) == 0
    ingress = [mean(series_values(ts_on, "ingress_drop_bps", 5, 0, lo, hi))
               for lo, hi in settled[1:]]
    # ingress dropping rises with the overload stages; the final stage
    # swaps half-size latecomers in for incumbent throughput and rests on
    # the other side of the hysteresis band, so it is held only to exceed
    # the first overload stage
    assert ingress[0] < ingress[1] < ingress[2]
    assert ingress[3] >= ingress[0]
    assert all(v > 0 for v in ingress)
    stage_cong = [relative_congestion(ts_on, 5, 0, lo, hi, span)
                  for lo, hi in settled[1:]]
    for c in stage_cong:
        assert 0.07 <= c <= 0.13
    c_long = relative_congestion(ts_on, 5, 0, 2.0, 10.0, span)
    assert 0.07 <= c_long <= 0.13
    return c_tail, c_long, ingress


def test_criterion_4_cbr_experiment_bands(shipped):
    t0 = time.perf_counter()
    f1_off, f1_on, f2_on = criterion_4_bands(shipped("cbr_scaled_nofoq"),
                                             shipped("cbr_scaled"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4: PASS (off {f1_off / 1e6:.1f}, on {f1_on / 1e6:.1f}/"
          f"{f2_on / 1e6:.2f} Mb/s, premium 9.52, {elapsed:.1f}s)")


def test_criterion_5_tcp_experiment_bands(shipped):
    t0 = time.perf_counter()
    c_tail, c_long, ingress = criterion_5_bands(shipped("tcp_scaled_nofoq"),
                                                shipped("tcp_scaled"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 5: PASS (off tail C {c_tail:.4f}, on long-run C "
          f"{c_long:.4f}, ingress Mb/s "
          f"{['%.2f' % (v / 1e6) for v in ingress]}, {elapsed:.1f}s)")


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digest(runs, name):
    series, streamed, _ = runs(name)
    check(*[(f"GOLDEN_DIGESTS[{name!r}] {how}", GOLDEN_DIGESTS[name],
             hashlib.sha256(text.encode()).hexdigest())
            for how, text in (("in memory", series.to_csv()),
                              ("streamed", streamed))])


@pytest.mark.parametrize("name", sorted(TCP_COUNTS))
def test_tcp_counts(runs, name):
    experiment = runs(name)[2]
    sources = experiment.tcp_sources.values()
    check((f"TCP_COUNTS[{name!r}]", TCP_COUNTS[name],
           (sum(s.packets_sent for s in sources),
            sum(s.retransmits for s in sources),
            sum(s.timeouts for s in sources),
            sum(link.dropped_bytes for link in experiment.links))))


@pytest.mark.parametrize("workload", sorted(TRACED))
def test_traced_pins_name_each_moved_value(workload):
    # traced output as bench/run.py prints it, every pin at its value and
    # each bound met exactly; the CI check reads it back as it reads a run
    exact, bounds = TRACED[workload], TRACED_AT_MOST.get(workload, {})
    lines = [f"absent {name}: never seen" for name in exact]
    lines += [f"{name} {value} count"
              for name, value in {**exact, **bounds}.items()]
    assert traced_moved(workload, "\n".join(lines)) == []
    name = "events.fired"
    raised = [f"{name} {exact[name] + 1} count" if line.startswith(name + " ")
              else line for line in lines]
    assert traced_moved(workload, "\n".join(raised)) == [
        f"TRACED[{workload!r}][{name!r}]: pinned {exact[name]}, "
        f"read {exact[name] + 1}"]
    assert traced_moved(workload, "") == [
        f"TRACED[{workload!r}][{name!r}]: pinned {value}, read absent"
        for name, value in exact.items()] + [
        f"TRACED_AT_MOST[{workload!r}][{name!r}]: pinned at most {most}, "
        "read absent" for name, most in bounds.items()]
    for name, most in bounds.items():
        over = lines + [f"{name} {most + 1} count"]
        assert traced_moved(workload, "\n".join(over)) == [
            f"TRACED_AT_MOST[{workload!r}][{name!r}]: pinned at most {most}, "
            f"read {most + 1}"]


def overload_switch(mode, duration, packet=100, rate=2e6, interval=50e-3,
                    seed=1, red=None, fabric=50_000, oq=50_000):
    cfg = SwitchConfig(
        num_ports=2, line_rate=1e6, speedup=1.28, fabric_memory=fabric,
        out_queue_size=oq, red=red,
        flows={1: FlowSpec(svc_class="assured")},
        feedback=FeedbackConfig(mode=mode, interval=interval, alpha=0.95,
                                d_max=0.17, d_min=0.02))
    sw = Switch(cfg, [(1, 1)], seed=seed)
    period = tx_ns(packet, rate)
    t, seq = 0, 0
    while t < ns(duration):
        def arrive(seq=seq, sw=sw):
            sw.ingress_arrival(Packet(1, 0, 1, packet, seq))
        sw.loop.at(t, arrive, port=0, flow=1)
        t += period
        seq += 1
    return sw


def test_criterion_6_property_suite():
    # byte conservation, exactly, with every drop kind active
    sw = overload_switch("gearbox", 0.5, packet=500, rate=3e6,
                         interval=10e-3, fabric=5000, oq=2000,
                         red=RedParams(max_p=0.5, min_th=500, max_th=1500,
                                       sample_interval=1e-3))
    sw.run(0.5)
    acct = sw.conservation()[1]
    assert acct["balanced"]
    assert acct["ingress_dropped"] > 0 and acct["egress_dropped"] > 0
    assert acct["injected"] == (acct["ingress_dropped"]
                                + acct["fabric_dropped"]
                                + acct["egress_dropped"]
                                + acct["delivered"] + acct["resident"])

    # WFQ 6:1 within 2 percent with both flows backlogged
    cfg = SwitchConfig(
        num_ports=2, line_rate=1e6, speedup=4.0, fabric_memory=1_000_000,
        out_queue_size=1_000_000,
        flows={1: FlowSpec(weight=6.0), 2: FlowSpec(weight=1.0)})
    wfq = Switch(cfg, [(1, 1), (1, 2)], seed=1)
    for flow in (1, 2):
        t, seq, period = 0, 0, tx_ns(125, 0.9e6)
        while t < ns(2.0):
            def arrive(seq=seq, flow=flow):
                wfq.ingress_arrival(Packet(flow, 0, 1, 125, seq))
            wfq.loop.at(t, arrive, port=0, flow=flow)
            t += period
            seq += 1
    wfq.run(2.0)
    shares = wfq.conservation()
    line_bytes = 1e6 * 2.0 / 8
    assert shares[1]["delivered"] == pytest.approx(line_bytes * 6 / 7, rel=0.02)
    assert shares[2]["delivered"] == pytest.approx(line_bytes * 1 / 7, rel=0.02)

    # gear-box holds the measured congestion inside [d_min, d_max] on
    # average while hunting around the resting level
    gb = overload_switch("gearbox", 4.0)
    ts = gb.run(4.0)
    cong = [r.value for r in ts.select("rel_cong", 1, 1)]
    tail_mean = mean(cong[len(cong) // 2:])
    assert 0.02 <= tail_mean <= 0.17

    # admit-table composition is exact in the defining direction
    beta = derive_beta(0.17, 0.02)
    admit = admit_level_table(beta, 64)
    drop = drop_level_table(beta, 64)
    for k in range(64):
        assert admit[k] == (1.0 - beta) ** k
        assert drop[k] == 1.0 - admit[k]

    # pole identities: product -K, sum 1 - K - K_I
    for gain_p, gain_i in GRID:
        z1, z2 = poles(gain_p, gain_i)
        assert abs(z1 * z2 + gain_p) <= 1e-12
        assert abs(z1 + z2 - (1.0 - gain_p - gain_i)) <= 1e-12

    # determinism: identical seeds give bit-identical CSV
    runs = [overload_switch("gearbox", 0.3, interval=10e-3, packet=500,
                            seed=7).run(0.3).to_csv() for _ in range(2)]
    assert runs[0] == runs[1]
    other = overload_switch("gearbox", 0.3, interval=10e-3, packet=500,
                            seed=8).run(0.3).to_csv()
    assert other != runs[0]
    print("criterion 6: PASS (conservation exact, WFQ 6:1 within 2%, "
          f"GB tail mean {tail_mean:.4f} in band, admit table exact, "
          "Vieta 1e-12, determinism bit-identical)")


def premium_delay_bound(config, egress):
    """Worst delay, in seconds, of a premium packet at output `egress`, from
    its ingress dropper to the end of its line time, for CBR sources.

    Premium is served first, without preemption, at the fabric drain (rate
    S*C) and at the line (rate C): a premium packet waits at each for at
    most one lower-priority packet already in service (L_lo, the largest
    non-premium packet bound for the output) and for the premium bytes
    ahead of it, and then for itself. So a delay bound D satisfies
    D >= (L_lo + B)/(S*C) + (L_lo + B)/C, where B counts the packet and
    every premium byte that can be ahead of it at either server. Those
    bytes arrived within D before it (each earlier packet is itself within
    D) or, at a line with several premium queues, after it and within D of
    it, so B is at most what reaches the output in a window of 2D. Per
    (ingress, premium flow) that is what its CBR sources emit in the
    window, L*(1 + floor(window/T)) each, capped by its token bucket's
    burst plus its rate times the window (Cruz, "A calculus for network
    delay", 1991; Le Boudec and Thiran, "Network Calculus", 2001). The
    bound is iterated from B = one packet per source until a step no longer
    raises it. Any D that the right-hand side does not exceed is a bound,
    by induction over the premium packets in arrival order. Where a token
    bucket's rate term sets B, each step closes the gap to the fixed point
    only by the factor 2*rate*(1/(S*C) + 1/C), so the iteration takes up to
    a few hundred steps, not a handful. There is no bound when that factor
    reaches 1. With one sparse premium source per output, B is its one
    packet L_p and D = (L_lo + L_p)/(S*C) + (L_lo + L_p)/C.
    """
    sw = config.switch
    premium = {fid for fid, spec in sw.flows.items()
               if spec.svc_class == "premium"}
    sources = [s for s in config.sources if s.egress == egress]
    assert all(s.kind == "cbr" for s in sources if s.flow in premium)
    low = max(s.packet_size for s in sources if s.flow not in premium)
    feeds = {}
    for s in sources:
        if s.flow in premium:
            feeds.setdefault((s.ingress, s.flow), []).append(s)

    def burst(window):
        total = 0.0
        for (_, fid), group in feeds.items():
            sent = sum(s.packet_size * (1 + int(window * s.rate / (8 * s.packet_size)))
                       for s in group)
            spec = sw.flows[fid]
            if spec.police_rate is not None:
                sent = min(sent, spec.police_burst + spec.police_rate * window / 8)
            total += sent
        return total

    per_byte = 8 / (sw.speedup * sw.line_rate) + 8 / sw.line_rate
    bound = 0.0
    for _ in range(1000):
        bound, last = (low + burst(2 * bound)) * per_byte, bound
        if bound <= last:
            return last
    raise AssertionError(f"no premium delay bound at output {egress}")


def worst_premium_delays(config):
    """Run config; return {egress: worst now - arrived_at, in seconds, of a
    premium packet at the end of its line time}. The line handler reaches
    `_out_done` by attribute lookup, so an instance override sees every
    delivery."""
    experiment = Experiment(config)
    sw = experiment.switch
    out_done = sw._out_done
    worst = {}

    def timed(port):
        packet = port.in_tx
        if packet.queue.tier == 0:
            delay = (sw.loop.now - packet.arrived_at) / NS
            worst[port.index] = max(worst.get(port.index, 0.0), delay)
        out_done(port)
    sw._out_done = timed
    experiment.run()
    return worst


def test_criterion_9_premium_delay_bound(monkeypatch):
    # worst delay measured at the parent of this test: cbr_scaled 279.652 us
    # against 285.0, cbr_scaled_nofoq 278.324 us, and 552.3 us (PI) and
    # 587.8 us (off, gear-box) on the wide config against 591.7
    t0 = time.perf_counter()
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import wide_cbr_pi_text
    wide = wide_cbr_pi_text(1)
    configs = {name: load_config(CONFIGS / f"{name}.cfg")
               for name in ("cbr_scaled", "cbr_scaled_nofoq")}
    for mode in ("off", "pi", "gearbox"):
        configs[f"wide_{mode}"] = build_experiment(parse_pairs(wide.replace(
            "switch.feedback.mode = pi", f"switch.feedback.mode = {mode}")))
    margins = {}
    for name, config in configs.items():
        worst = worst_premium_delays(config)
        assert worst, name
        for egress, delay in worst.items():
            bound = premium_delay_bound(config, egress)
            assert delay <= bound, (name, egress, delay, bound)
        egress = max(worst, key=worst.get)
        margins[name] = (worst[egress] * 1e6,
                         premium_delay_bound(config, egress) * 1e6)
    elapsed = time.perf_counter() - t0
    print("criterion 9: PASS (" + ", ".join(
        f"{name} {w:.1f}/{b:.1f} us" for name, (w, b) in margins.items())
        + f", {elapsed:.1f}s)")


@st.composite
def premium_burst_configs(draw):
    """Config text for a 30 ms CBR run into every output of a 2-4 port
    10 Mb/s switch in a drawn feedback mode. Each output has its own
    policed premium flow, whose bucket holds one to eight of its packets
    and whose one source offers 0.5-2x its police rate, and assured CBR at
    1.2-2x the line from one to three sources of 64, 576 or 1500 B packets;
    every source has a drawn ingress and start phase."""
    ports = draw(st.integers(2, 4))
    mode = draw(st.sampled_from(("off", "pi", "gearbox")))
    lines = [
        f"switch.num_ports = {ports}",
        "switch.line_rate = 10e6",
        "switch.speedup = 1.28",
        "switch.fabric_memory = 30000",
        "switch.out_queue_size = 8000",
        f"switch.feedback.mode = {mode}",
        "switch.feedback.interval = 1e-3",
        f"flow.{ports}.class = assured",
        "experiment.duration = 0.03",
        f"experiment.seed = {draw(st.integers(1, 1000))}",
    ]
    sources = []
    for egress in range(ports):
        size = draw(st.sampled_from((64, 200, 576)))
        police = draw(st.floats(0.2e6, 2e6))
        lines += [f"flow.{egress}.class = premium",
                  f"flow.{egress}.police_rate = {police!r}",
                  f"flow.{egress}.police_burst = {size * draw(st.integers(1, 8))}"]
        sources.append((egress, egress, size,
                        police * draw(st.floats(0.5, 2.0))))
        assured = 10e6 * draw(st.floats(1.2, 2.0))
        count = draw(st.integers(1, 3))
        sources += [(ports, egress, draw(st.sampled_from((64, 576, 1500))),
                     assured / count) for _ in range(count)]
    for sid, (flow, egress, size, rate) in enumerate(sources):
        lines += [f"source.{sid}.kind = cbr",
                  f"source.{sid}.flow = {flow}",
                  f"source.{sid}.ingress = {draw(st.integers(0, ports - 1))}",
                  f"source.{sid}.egress = {egress}",
                  f"source.{sid}.packet_size = {size}",
                  f"source.{sid}.rate = {rate!r}",
                  f"source.{sid}.start = {draw(st.integers(0, 1000)) * 1e-6!r}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(premium_burst_configs())
def test_criterion_9_holds_for_drawn_policer_bursts(text):
    config = build_experiment(parse_pairs(text))
    worst = worst_premium_delays(config)
    assert sorted(worst) == list(range(config.switch.num_ports))
    for egress, delay in worst.items():
        assert delay <= premium_delay_bound(config, egress), egress
