"""Invariants over randomized small configs.

A Hypothesis strategy writes config text (1-4 ports; premium, assured and
best-effort flows; RED on and off; every feedback mode and measure; a
nonzero feedback delay; CBR sources and, outside the drained variant, small
TCP groups) that goes through `build_experiment`, and every generated run
must keep exact byte conservation, repeat its CSV for its seed, keep the
controller inside its range and the buffers inside their bounds.
"""

import math
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from foqsim.config import build_experiment, parse_pairs
from foqsim.events import EventLoop, ns
from foqsim.experiment import Experiment

SETTINGS = settings(max_examples=25, deadline=None)

CLASSES = ("premium", "assured", "besteffort")
STAGES = (("throughput_bps", "delivered_bytes_total"),
          ("ingress_drop_bps", "ingress_drop_bytes_total"),
          ("fabric_drop_bps", "fabric_drop_bytes_total"),
          ("egress_drop_bps", "egress_drop_bytes_total"))


@st.composite
def config_texts(draw, drained=False):
    """Config text for a ~20 ms run of traffic sources into a small switch.

    Without drained, up to two TCP groups of 1-4 sources each join them,
    with one-way delays of at most 2 ms so acks return inside the run and
    access-link buffers of a few packets. With drained=True every source is
    CBR and stops at 10 ms, and the buffers are small enough to empty well
    before the last report edge at 40 ms, so every byte meets its fate
    inside a reported window.
    """
    ports = draw(st.integers(1, 4))
    line_rate = draw(st.sampled_from((10e6, 20e6, 50e6)))
    report = draw(st.sampled_from((1e-3, 2e-3)))
    mode = draw(st.sampled_from(("off", "pi", "gearbox")))
    if drained:
        fabric_memory = draw(st.integers(1500, 8000))
        out_queue_size = draw(st.integers(1500, 5000))
        duration = 40e-3
    else:
        fabric_memory = draw(st.integers(1000, 60000))
        out_queue_size = draw(st.integers(1000, 30000))
        duration = draw(st.sampled_from((15e-3, 20e-3, 21.5e-3)))
    lines = [
        f"switch.num_ports = {ports}",
        f"switch.line_rate = {line_rate!r}",
        f"switch.speedup = {draw(st.sampled_from((1.1, 1.28, 2.0)))!r}",
        f"switch.fabric_memory = {fabric_memory}",
        f"switch.out_queue_size = {out_queue_size}",
        f"switch.report_interval = {report!r}",
        f"switch.feedback.mode = {mode}",
        f"switch.feedback.interval = "
        f"{draw(st.sampled_from((1e-3, 2e-3, 3e-3)))!r}",
        f"switch.feedback.delay = {draw(st.sampled_from((0.0, 0.5e-3, 2e-3)))!r}",
        f"switch.feedback.measure = {draw(st.sampled_from(('relcong', 'dropprob')))}",
        f"switch.feedback.table_size = {draw(st.integers(2, 16))}",
        f"switch.feedback.gain_i = {draw(st.sampled_from((0.05, 0.5, 2.0)))!r}",
        f"switch.feedback.gain_p = {draw(st.sampled_from((0.0, 0.3)))!r}",
        f"experiment.duration = {duration!r}",
        f"experiment.seed = {draw(st.integers(1, 1000))}",
    ]
    if draw(st.booleans()):
        min_th = draw(st.integers(0, 3000))
        lines += [
            "switch.queue_mgmt = red",
            f"switch.red.min_th = {min_th}",
            f"switch.red.max_th = {min_th + draw(st.integers(1, 4000))}",
            f"switch.red.max_p = {draw(st.sampled_from((0.1, 0.5, 1.0)))!r}",
            f"switch.red.weight = {draw(st.sampled_from((0.1, 0.5, 1.0)))!r}",
        ]
    flows = draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=4))
    for fid, cls in enumerate(flows):
        lines += [f"flow.{fid}.class = {cls}",
                  f"flow.{fid}.weight = {draw(st.integers(1, 8))}"]
        if cls == "premium" and draw(st.booleans()):
            lines.append(f"flow.{fid}.police_rate = {line_rate * 0.3!r}")
    cbr = draw(st.integers(1, 6))
    tcp = 0 if drained else draw(st.integers(0, 2))
    for sid in range(cbr + tcp):
        lines += [
            f"source.{sid}.flow = {draw(st.integers(0, len(flows) - 1))}",
            f"source.{sid}.ingress = {draw(st.integers(0, ports - 1))}",
            f"source.{sid}.egress = {draw(st.integers(0, ports - 1))}",
            f"source.{sid}.packet_size = "
            f"{draw(st.sampled_from((64, 200, 576, 1500)))}",
        ]
        if sid < cbr:
            start = draw(st.integers(0, 2000)) * 1e-6
            lines += [
                f"source.{sid}.kind = cbr",
                f"source.{sid}.rate = "
                f"{line_rate * draw(st.sampled_from((0.2, 0.6, 1.0, 1.5)))!r}",
                f"source.{sid}.start = {start!r}",
            ]
            if drained:
                lines.append(f"source.{sid}.stop = 10e-3")
        else:
            lines += [
                f"source.{sid}.kind = tcp_group",
                f"source.{sid}.count = {draw(st.integers(1, 4))}",
                f"source.{sid}.link_rate = "
                f"{line_rate * draw(st.sampled_from((0.5, 1.0, 2.0)))!r}",
                f"source.{sid}.link_buffer = {draw(st.integers(1500, 6000))}",
                f"source.{sid}.one_way = "
                f"{draw(st.sampled_from((0.1e-3, 0.5e-3, 2e-3)))!r}",
                f"source.{sid}.window_start = 0",
                f"source.{sid}.window_end = "
                f"{draw(st.integers(0, 5000)) * 1e-6!r}",
            ]
    return "\n".join(lines) + "\n"


PROBE_NS = ns(100e-6)


def run_text(text):
    """Run a config; return the experiment, its series, and the controller
    readings of every queue taken by a probe event every 100 us. A probe
    only reads state, and the run's own events keep their order."""
    experiment = Experiment(build_experiment(parse_pairs(text)))
    sw = experiment.switch
    queues = sorted({(spec.egress, spec.flow)
                     for spec in experiment.config.sources})
    readings = []

    def probe():
        readings.extend((sw._queues[j, k].drop_prob, sw._queues[j, k].level)
                        for j, k in queues)
    for t in range(PROBE_NS, ns(experiment.config.duration) + 1, PROBE_NS):
        sw.loop.at(t, probe)
    series = experiment.run()
    assert readings
    return experiment, series, readings


@SETTINGS
@given(config_texts())
def test_randomized_run_invariants(text):
    experiment, series, readings = run_text(text)
    config = experiment.config.switch
    sw = experiment.switch

    ledger = sw.conservation()
    assert ledger
    assert all(acct["balanced"] for acct in ledger.values()), ledger

    _, again, _ = run_text(text)
    assert again.to_csv() == series.to_csv()

    queues = {(spec.egress, spec.flow) for spec in experiment.config.sources}
    readings += [(sw._queues[j, k].drop_prob, sw._queues[j, k].level)
                 for j, k in queues]
    for prob, level in readings:
        assert 0.0 <= prob <= 1.0
        assert 0 <= level < config.feedback.table_size

    occupancy = series.select("fabric_occupancy_bytes")
    assert occupancy
    assert all(r.value <= config.fabric_memory for r in occupancy)
    backlog = series.select("out_queue_bytes")
    assert backlog
    assert all(r.value <= config.out_queue_size for r in backlog)


@SETTINGS
@given(config_texts(drained=True))
def test_window_rates_sum_to_run_totals(text):
    # every window rate is its byte count * 8 / span; summed back over the
    # windows and queues of a flow it must give that flow's run total
    experiment, series, _ = run_text(text)
    span = experiment.config.switch.report_interval
    for rate, total in STAGES:
        windowed = defaultdict(int)
        for r in series.select(rate):
            windowed[r.flow] += round(r.value * span / 8)
        totals = {r.flow: int(r.value) for r in series.select(total)}
        assert totals
        assert {f: windowed.get(f, 0) for f in totals} == totals, rate
    assert all(acct["resident"] == 0
               for acct in experiment.switch.conservation().values())


LONG_RUN = """\
switch.num_ports = 3
switch.line_rate = 10e6
switch.speedup = 1.28
switch.fabric_memory = 20000
switch.out_queue_size = 8000
switch.queue_mgmt = red
switch.red.sample_interval = 0.3e-3
switch.feedback.mode = gearbox
switch.feedback.interval = 1e-3
switch.feedback.delay = 2.5e-3
switch.report_interval = 0.1e-3
flow.0.class = premium
flow.0.police_rate = 1e6
flow.1.class = assured
flow.2.class = besteffort
experiment.duration = 0.3
"""


def test_event_heap_stays_bounded_over_many_windows(monkeypatch):
    # 3,000 report windows. Pending at once: the three ticks (report,
    # sampler, RED), one emission per CBR source, one fabric drain and one
    # line transmission per port, and per queue the control applications
    # still inside the feedback delay. None of it grows with the windows.
    lines = [LONG_RUN]
    for sid in range(6):
        egress = 1 + sid % 2
        lines += [f"source.{sid}.kind = cbr",
                  f"source.{sid}.flow = {sid % 3}",
                  f"source.{sid}.ingress = {sid % 3}",
                  f"source.{sid}.egress = {egress}",
                  f"source.{sid}.packet_size = {(200, 1000, 576)[sid % 3]}",
                  f"source.{sid}.rate = 6e6",
                  f"source.{sid}.start = {sid * 41e-6!r}"]
    config = build_experiment(parse_pairs("\n".join(lines) + "\n"))
    peak = 0
    push = EventLoop.at

    def at(loop, *args, **kwargs):
        nonlocal peak
        push(loop, *args, **kwargs)
        pending = len(loop._heap) + sum(map(len, loop._lanes.values()))
        peak = max(peak, pending)
    monkeypatch.setattr(EventLoop, "at", at)
    series = Experiment(config).run()

    fb = config.switch.feedback
    sources = len(config.sources)
    queues = {(spec.egress, spec.flow) for spec in config.sources}
    ports = {egress for egress, _ in queues}
    bound = (3 + sources + 2 * len(ports)
             + len(queues) * (math.ceil(fb.delay / fb.interval) + 1))
    assert len(series.select("fabric_occupancy_bytes")) == 3000
    assert 0 < peak <= bound


MIXED = """\
switch.num_ports = 2
switch.line_rate = 10e6
switch.speedup = 1.28
switch.fabric_memory = 30000
switch.out_queue_size = 20000
flow.0.class = assured
flow.1.class = assured
experiment.duration = 0.1
source.1.kind = tcp_group
source.1.flow = 1
source.1.ingress = 1
source.1.egress = 1
source.1.packet_size = 1000
source.1.count = 1
source.1.link_rate = 10e6
source.1.one_way = 2e-3
source.1.window_start = 0
source.1.window_end = 0
source.{cbr}.kind = cbr
source.{cbr}.flow = 0
source.{cbr}.ingress = 0
source.{cbr}.egress = 1
source.{cbr}.packet_size = 500
source.{cbr}.rate = 6e6
"""


def test_cbr_section_id_does_not_reach_a_tcp_receiver():
    # TCP sources are numbered 0, 1, ... apart from the config's section
    # ids, so a CBR section numbered 0 shares its id with TCP source 0; its
    # deliveries must still reach no receiver, whatever its number
    runs = []
    for cbr in (0, 7):
        experiment = Experiment(build_experiment(parse_pairs(
            MIXED.format(cbr=cbr))))
        series = experiment.run()
        (tcp,) = experiment.tcp_sources.values()
        runs.append((series.to_csv(), tcp.packets_sent, tcp.retransmits,
                     tcp.timeouts, tcp.rcv_next,
                     experiment.links[0].dropped_bytes))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0
