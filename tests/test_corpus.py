"""Seeded digest corpus: short generated configs, each pinned by the SHA-256
of its CSV output and, where it has TCP, by what its TCP sources did.

`corpus_text(seed)` builds a config from its seed alone. The seed places
the entry on the shared axes; a generator seeded by it draws the rest:

- shape (`seed % 4`):
  - `width`: 2-8 ports and 2-64 flows per output, every flow of equal
    weight, packet size and phase, so finish tags tie and events from many
    ports share instants; from `WIDE_FROM` on, 64 flows at 3-8 ports with
    weights of 1, 2 or 4, so tags tie only among some of them;
  - `evict`: a policed premium flow into a pool pinned full by identical,
    phase-aligned assured traffic at two or more egresses, so premium
    arrivals evict across ports that hold equal FIFO bytes;
  - `police`: one policed premium flow entering at two ingress ports,
    each offering about its contract, beside assured and best-effort
    traffic;
  - `tcp`: one or two small TCP groups behind shallow access links, beside
    a CBR flow; from `WIDE_FROM` on, the links run at a fifth or a third
    of the line rate, so they drop;
- feedback (`seed // 4 % 4`): off, PI, gear-box on relative congestion and
  gear-box on drop probability;
- RED on or off, zero or non-zero feedback delay, and a report window
  shorter than, equal to or longer than the feedback interval, spread so
  that every shape meets each value.

Each entry also asserts the path it exists for, counted by a probe that
only reads state (a tied eviction happened, finish tags tied, both ingress
contracts were honoured, ...), so the corpus cannot drift to runs that
exercise nothing. The digests and counts are pinned in tests/pins.py,
whose docstring says how a change that moves one records it.
"""

import hashlib
import math
import random

import pytest

from foqsim.config import build_experiment, parse_pairs
from foqsim.events import NS, RANK_DATA, ns, tx_ns
from foqsim.experiment import Experiment
from pins import CORPUS_DIGESTS, CORPUS_TCP_COUNTS, check

SHAPES = ("width", "evict", "police", "tcp")
FEEDBACK = (("off", "relcong"), ("pi", "relcong"), ("gearbox", "relcong"),
            ("gearbox", "dropprob"))
REPORT_SCALE = (0.5, 1.0, 2.5)  # report window / feedback interval
LINE_RATE = 10e6
SEEDS = range(24)
# entries from this seed on draw wider configs: 64 flows of unequal weights
# at three or more ports, and TCP behind access links at a fifth or a third
# of the line rate, which drop; the entries below it keep their draws
WIDE_FROM = 20


def axes(seed):
    """(shape, mode, measure, red, delayed, report scale) of an entry."""
    shape = SHAPES[seed % 4]
    mode, measure = FEEDBACK[seed // 4 % 4]
    red = (seed // 4 + seed % 4 // 2) % 2 == 1
    delayed = (seed + seed // 4) % 2 == 1
    report = REPORT_SCALE[(seed + seed // 4) % 3]
    return shape, mode, measure, red, delayed, report


def corpus_text(seed):
    """Config text of corpus entry `seed`."""
    shape, mode, measure, red, delayed, report = axes(seed)
    rng = random.Random(f"corpus/{seed}")
    wide = seed >= WIDE_FROM
    interval = rng.choice((1e-3, 2e-3))
    out_queue = rng.choice((6000, 12000, 30000))
    speedup = rng.choice((1.1, 1.28, 2.0))
    lines = [
        f"switch.line_rate = {LINE_RATE!r}",
        f"switch.speedup = {speedup!r}",
        f"switch.out_queue_size = {out_queue}",
        f"switch.feedback.mode = {mode}",
        f"switch.feedback.interval = {interval!r}",
        f"switch.report_interval = {interval * report!r}",
        f"experiment.seed = {seed}",
    ]
    if delayed:
        lines.append(f"switch.feedback.delay = {rng.choice((0.5, 1.5, 2.5)) * interval!r}")
    if mode == "pi":
        lines += [f"switch.feedback.gain_p = {rng.choice((0.0, 0.1))!r}",
                  f"switch.feedback.gain_i = {rng.choice((0.05, 0.3))!r}"]
    elif mode == "gearbox":
        lines += [f"switch.feedback.measure = {measure}",
                  f"switch.feedback.d_max = {rng.choice((0.1, 0.17))!r}",
                  f"switch.feedback.d_min = {rng.choice((0.01, 0.02))!r}",
                  f"switch.feedback.table_size = {rng.choice((8, 64))}"]
    if red:
        # a queue of a wide output holds about a packet, so its RED starts
        # at once
        min_th = 0 if shape == "width" else rng.choice((0, 500))
        lines += ["switch.queue_mgmt = red",
                  f"switch.red.min_th = {min_th}",
                  f"switch.red.max_th = {min_th + rng.choice((1500, 4000))}",
                  f"switch.red.max_p = {rng.choice((0.1, 0.5))!r}",
                  f"switch.red.weight = {rng.choice((0.1, 0.5))!r}",
                  f"switch.red.sample_interval = {rng.choice((0.3e-3, 1e-3))!r}"]
    sources = []  # (kind, flow, ingress, egress, size, {key: value})

    def cbr(flow, ingress, egress, size, rate, start=0.0):
        sources.append(("cbr", flow, ingress, egress, size,
                        {"rate": rate, "start": start}))

    if shape == "width":
        ports = rng.randint(3 if wide else 2, 8)
        flows = 64 if wide else rng.choice(
            [f for f in (2, 4, 8, 16, 32, 64) if ports * f <= 128])
        size = rng.choice((200, 576) if wide else (200, 576, 1000))
        weight = rng.randint(1, 4)
        load = rng.choice((1.2, 1.6))
        start = rng.choice((0.0, 37e-6))
        lines += [f"switch.num_ports = {ports}",
                  f"switch.fabric_memory = {ports * rng.choice((8000, 30000))}",
                  f"experiment.duration = {0.1 if wide else 0.04}"]
        for k in range(flows):
            cls = rng.choices(("premium", "assured", "besteffort"), (1, 6, 3))[0]
            if wide:
                weight = rng.choice((1, 2, 4))
            lines += [f"flow.{k}.class = {cls}", f"flow.{k}.weight = {weight}"]
        # every (egress, flow) gets the same size, rate and phase; ingress
        # ports rotate against the egresses, so one instant's arrivals span
        # every port and start drains in falling port order
        for j in range(ports):
            for k in range(flows):
                cbr(k, (ports - 1 - j + k) % ports, j, size,
                    load * LINE_RATE / flows, start)
    elif shape == "evict":
        ports = rng.randint(3, 6)
        size = rng.choice((500, 1000))
        premium_size = rng.choice((200, size))
        lines += [f"switch.num_ports = {ports}",
                  f"switch.fabric_memory = {rng.randint(1, 3) * (ports - 1) * size}",
                  "flow.0.class = premium",
                  f"flow.0.police_rate = {rng.choice((0.2, 0.4)) * LINE_RATE!r}",
                  f"flow.0.police_burst = {2 * premium_size}",
                  "flow.1.class = assured",
                  "experiment.duration = 0.04"]
        # identical assured trains into egresses 1 .. ports - 1, at over
        # twice what each fabric drain takes and with a period prime to
        # the drain time, so no arrival meets a drain: the pool frees and
        # fills a whole packet per egress at a time, and their FIFOs stay
        # equal but for the evictions
        drain = tx_ns(size, speedup * LINE_RATE)
        period = next(n for n in range(drain // 3, drain) if math.gcd(n, drain) == 1)
        for j in range(1, ports):
            cbr(1, j - 1, j, size, size * 8 * NS / period)
        # premium arrivals at egress 0 meet every m-th assured round and
        # follow it (a higher ingress port), so they find the pool full
        m = rng.randint(1, 4)
        cbr(0, ports - 1, 0, premium_size, premium_size * 8 * NS / (m * period))
    elif shape == "police":
        ports = rng.randint(2, 6)
        size = rng.choice((200, 500, 1000))
        contract = rng.choice((0.1, 0.15, 0.2)) * LINE_RATE
        egress = rng.randrange(ports)
        first, second = rng.sample(range(ports), 2)
        lines += [f"switch.num_ports = {ports}",
                  f"switch.fabric_memory = {rng.choice((20000, 60000))}",
                  "flow.0.class = premium",
                  f"flow.0.police_rate = {contract!r}",
                  f"flow.0.police_burst = {2 * size}",
                  "flow.1.class = assured",
                  f"flow.1.weight = {rng.randint(1, 4)}",
                  "flow.2.class = besteffort",
                  "experiment.duration = 0.06"]
        for ingress in (first, second):
            cbr(0, ingress, egress, size, contract * rng.uniform(1.1, 1.4),
                rng.randint(0, 100) * 1e-6)
        cbr(1, rng.randrange(ports), egress, 1000, 0.6 * LINE_RATE)
        cbr(2, rng.randrange(ports), egress, 576, 0.5 * LINE_RATE)
    else:
        ports = rng.randint(2, 4)
        egress = rng.randrange(ports)
        lines += [f"switch.num_ports = {ports}",
                  f"switch.fabric_memory = {rng.choice((20000, 60000))}",
                  "flow.0.class = assured",
                  "flow.1.class = assured",
                  f"flow.1.weight = {rng.randint(1, 4)}",
                  "experiment.duration = 0.3"]
        for _ in range(rng.randint(1, 2)):
            size = rng.choice((500, 1000))
            count = rng.randint(1, 4)
            sources.append(("tcp_group", 0, rng.randrange(ports), egress, size, {
                "count": count,
                "link_rate": rng.choice((0.2, 0.3) if wide else (0.5, 1.0, 2.0))
                             * LINE_RATE,
                # the first windows fit; later ones overflow
                "link_buffer": count * rng.randint(2, 6) * size,
                "one_way": rng.choice((0.2e-3, 1e-3, 2e-3)),
                "window_start": 0.0,
                "window_end": rng.choice((0.0, 5e-3))}))
        cbr(1, rng.randrange(ports), egress, 576, rng.choice((0.3, 0.7)) * LINE_RATE)
    for sid, (kind, flow, ingress, egress, size, extra) in enumerate(sources):
        p = f"source.{sid}."
        lines += [f"{p}kind = {kind}", f"{p}flow = {flow}",
                  f"{p}ingress = {ingress}", f"{p}egress = {egress}",
                  f"{p}packet_size = {size}"]
        lines += [f"{p}{key} = {value!r}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


class Probe:
    """Counts the paths a run takes by wrapping switch and loop methods;
    every wrapper only reads state before calling through."""

    def __init__(self, experiment):
        sw = experiment.switch
        loop = experiment.loop
        self.tag_ties = 0        # WFQ picks whose head tag another queue shares
        self.eviction_ties = 0   # evictions among ports of equal FIFO bytes
        self.red_drops = 0       # egress drops below the hard buffer bound
        self.lane_fallbacks = 0  # equal-time events below their lane's tail
        self.applied = []        # ns of each control application

        select = sw.out_scheduler_select

        def out_scheduler_select(j):
            fid = select(j)
            if fid is not None:
                # the pick is the least entry of the ready heap; a tie is
                # another backlogged queue of its tier with an equal head tag
                ready = sw._ports[j].ready
                key = ready[0][:2]
                if key[0] and sum(1 for entry in ready if entry[:2] == key) > 1:
                    self.tag_ties += 1
            return fid

        evict = sw._evict_low_priority

        def evict_low_priority(needed):
            held = [port.fifo_bytes[1] for port in sw._ports if port.fifos[1]]
            if held and held.count(max(held)) > 1:
                self.eviction_ties += 1
            evict(needed)

        enqueue = sw._enqueue_out
        limit = sw.config.out_queue_size

        def enqueue_out(port, packet):
            oq = packet.queue
            room = oq.backlog + packet.size <= limit
            dropped = oq.egress_dropped
            enqueue(port, packet)
            if room and oq.egress_dropped > dropped:
                self.red_drops += 1

        def applying(apply):
            def wrapper(*args):
                self.applied.append(loop.now)
                apply(*args)
            return wrapper

        at = loop.at

        def schedule(when, fn, rank=RANK_DATA, port=-1, flow=-1):
            lane = loop._lanes.get(when - loop.now)
            if lane and (when, rank, port, flow) < lane[-1][:4]:
                self.lane_fallbacks += 1
            at(when, fn, rank, port, flow)

        sw.out_scheduler_select = out_scheduler_select
        sw._evict_low_priority = evict_low_priority
        sw._enqueue_out = enqueue_out
        sw._apply_probs = applying(sw._apply_probs)
        loop.at = schedule


def tcp_counts(experiment):
    """Segments sent (retransmits not counted), retransmits, timeouts and
    access-link drop bytes, summed; None without TCP."""
    sources = experiment.tcp_sources.values()
    if not sources:
        return None
    return (sum(s.packets_sent for s in sources),
            sum(s.retransmits for s in sources),
            sum(s.timeouts for s in sources),
            sum(link.dropped_bytes for link in experiment.links))


@pytest.fixture(scope="module")
def corpus():
    """Seed -> (experiment, series, CSV text, probe), each run once."""
    done = {}

    def run(seed):
        if seed not in done:
            experiment = Experiment(build_experiment(parse_pairs(corpus_text(seed))))
            probe = Probe(experiment)
            series = experiment.run()
            done[seed] = experiment, series, series.to_csv(), probe
        return done[seed]
    return run


def path_problems(seed, experiment, series, probe):
    """What entry `seed` exists to exercise and did not."""
    shape, mode, _, red, delayed, _ = axes(seed)
    config = experiment.config
    fb = config.switch.feedback
    ledger = experiment.switch.conservation()
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    if shape == "width":
        need(probe.tag_ties > 0, "no tied finish tags")
        need(probe.lane_fallbacks > 0, "no equal-time event below a lane tail")
        if seed >= WIDE_FROM:
            flows = config.switch.flows
            need(len(flows) == 64 and config.switch.num_ports > 2
                 and len({spec.weight for spec in flows.values()}) > 1,
                 "not 64 flows of unequal weights at three or more ports")
    elif shape == "evict":
        need(probe.eviction_ties > 0, "no eviction among tied ports")
    elif shape == "police":
        # two ingress contracts admit well over one contract's bytes
        contract = config.switch.flows[0].police_rate * config.duration / 8
        premium = ledger[0]
        need(premium["ingress_dropped"] > 0, "the policer dropped nothing")
        need(premium["injected"] - premium["ingress_dropped"] > 1.5 * contract,
             "premium admitted one contract, not two")
    else:
        need(all(s.snd_una > 0 for s in experiment.tcp_sources.values()),
             "a TCP source never had a segment acked")
        need(sum(s.retransmits for s in experiment.tcp_sources.values()) > 0,
             "no TCP loss was recovered")
        if seed >= WIDE_FROM:
            need(any(link.dropped_bytes for link in experiment.links),
                 "no access link dropped")
    if mode == "off":
        need(probe.applied == [], "a controller ran with feedback off")
        need(series.select("rel_cong"), "the sampler recorded nothing")
    else:
        need(probe.applied, "no control application")
        need(all((t - ns(fb.delay)) % ns(fb.interval) == 0
                 for t in probe.applied),
             "a control application off its sample instant plus the delay")
    need(delayed == (fb.delay > 0), "the feedback delay is not as placed")
    need((probe.red_drops > 0) == red, "RED early drops do not match RED")
    edges = int(config.duration / config.switch.report_interval + 1e-9)
    need(len(series.select("fabric_occupancy_bytes")) == edges,
         "a report window count that does not follow the window")
    need(all(acct["balanced"] for acct in ledger.values()), "unbalanced bytes")
    return problems


def test_corpus_spans_its_axes():
    seen = [axes(seed) for seed in SEEDS]
    assert {(shape, mode, measure) for shape, mode, measure, *_ in seen} == {
        (shape, mode, measure) for shape in SHAPES for mode, measure in FEEDBACK}
    for shape in SHAPES:
        mine = [a for a in seen if a[0] == shape]
        assert {a[3] for a in mine} == {False, True}, shape  # RED
        assert {a[4] for a in mine} == {False, True}, shape  # delay
        assert {a[5] for a in mine} == set(REPORT_SCALE), shape


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_entry_takes_its_path(corpus, seed):
    experiment, series, _, probe = corpus(seed)
    assert path_problems(seed, experiment, series, probe) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_digest(corpus, seed):
    experiment, _, text, _ = corpus(seed)
    check((f"CORPUS_DIGESTS[{seed}]", CORPUS_DIGESTS[seed],
           hashlib.sha256(text.encode()).hexdigest()),
          (f"CORPUS_TCP_COUNTS[{seed}]", CORPUS_TCP_COUNTS.get(seed),
           tcp_counts(experiment)))
