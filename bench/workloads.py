"""The benchmark's workloads: seeded inputs and the calls that run them.

Each workload is made from its seed alone and drives foqsim only through
public entry points: `parse_pairs` / `build_experiment`, `Experiment` and
`Experiment.run`, `TimeSeries.to_csv` / `from_csv`, and the solvers of
`foqsim.analytic`. A workload splits into `load()` and `build()` (timed
together as setup_s), `run()` (run_s) and `serialise()` (the rest of
wall_s); `check()` is untimed and returns an `Outcome`.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from array import array
from dataclasses import dataclass, field

import src_path
from checks import (
    LEDGER_ROWS,
    MAX_REL_DEVIATION,
    closed_form_deviation,
    conservation_problems,
    oracle_n0,
)
from foqsim import analytic
from foqsim.config import build_experiment, parse_pairs
from foqsim.experiment import Experiment
from foqsim.timeseries import TimeSeries

TCP_CONFIG = src_path.ROOT / "configs" / "tcp_scaled.cfg"

# initial_period's scan limit in the code this benchmark was written
# against; tail scenarios past it are what the sweep reports as failed ops
SCAN_CAP = 10_000_000


@dataclass
class Outcome:
    """What one repetition of a workload did, as seen by the checks."""

    ops: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # must repeat exactly per seed


def _set_key(text: str, key: str, value) -> str:
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    text, hits = pattern.subn(f"{key} = {value}", text)
    if hits != 1:
        raise ValueError(f"expected exactly one {key} line, found {hits}")
    return text


def tcp_staged_text(seed: int, duration: float | None = None) -> str:
    """The shipped staged-TCP config with its seed (and length) replaced."""
    text = _set_key(TCP_CONFIG.read_text(), "experiment.seed", seed)
    if duration is not None:
        text = _set_key(text, "experiment.duration", repr(duration))
    return text


# wide_cbr_pi: every output carries the same byte load and the same mix of
# packet sizes, so all seeds inject the same number of packets per second;
# the seed moves weights, per-flow rates, ports and phases.
WIDE_LINE_RATE = 50e6
WIDE_ASSURED_SIZES = (64, 576, 576, 1500, 1500, 1500, 1500)
WIDE_SIZE_SHARE = {64: 0.10, 576: 0.35, 1500: 0.55}  # of the assured load
WIDE_ASSURED_LOAD = 1.5    # times the line rate, on every output
WIDE_PREMIUM_LOAD = 0.05   # offered by the premium flow
WIDE_PREMIUM_POLICE = 0.045  # policer rate, so the policer also drops
WIDE_PREMIUM_SIZE = 576


def wide_cbr_pi_text(seed: int, ports: int = 16,
                     duration: float = 0.2) -> str:
    """Config text for a ports x 8-flow CBR switch under PI feedback."""
    rng = random.Random(f"wide_cbr_pi/{seed}")
    rate = WIDE_LINE_RATE
    lines = [
        f"switch.num_ports = {ports}",
        f"switch.line_rate = {rate!r}",
        "switch.speedup = 1.28",
        f"switch.fabric_memory = {ports * 30000}",
        "switch.out_queue_size = 30000",
        "switch.queue_mgmt = droptail",
        "switch.report_interval = 1e-3",
        "switch.feedback.mode = pi",
        "switch.feedback.interval = 1e-3",
        "switch.feedback.gain_p = 0.1",
        "switch.feedback.gain_i = 0.3",
        "flow.0.class = premium",
        f"flow.0.police_rate = {WIDE_PREMIUM_POLICE * rate!r}",
    ]
    flows = len(WIDE_ASSURED_SIZES)
    for k in range(1, flows + 1):
        lines += [f"flow.{k}.class = assured",
                  f"flow.{k}.weight = {rng.randint(1, 8)}"]

    sid = 0

    def source(flow, ingress, egress, size, bps):
        nonlocal sid
        p = f"source.{sid}."
        lines.extend([
            f"{p}kind = cbr", f"{p}flow = {flow}", f"{p}ingress = {ingress}",
            f"{p}egress = {egress}", f"{p}packet_size = {size}",
            f"{p}rate = {bps!r}", f"{p}start = {rng.random() * size * 8 / bps!r}",
        ])
        sid += 1

    # one premium source per ingress port: sources sharing an ingress port
    # would share one token bucket
    premium_ingress = list(range(ports))
    rng.shuffle(premium_ingress)
    for j in range(ports):
        source(0, premium_ingress[j], j, WIDE_PREMIUM_SIZE,
               WIDE_PREMIUM_LOAD * rate)
        sizes = list(WIDE_ASSURED_SIZES)
        rng.shuffle(sizes)
        split = [rng.uniform(0.5, 1.5) for _ in sizes]
        per_size = {s: sum(u for u, z in zip(split, sizes) if z == s)
                    for s in WIDE_SIZE_SHARE}
        for k, (size, u) in enumerate(zip(sizes, split), start=1):
            bps = (WIDE_ASSURED_LOAD * rate * WIDE_SIZE_SHARE[size]
                   * u / per_size[size])
            source(k, rng.randrange(ports), j, size, bps)
    lines += [f"experiment.duration = {duration!r}",
              f"experiment.seed = {seed}"]
    return "\n".join(lines) + "\n"


def _sum_by_queue(series, metric) -> dict:
    out: dict = {}
    for r in series.select(metric):
        key = (r.port, r.flow)
        out[key] = out.get(key, 0.0) + r.value
    return out


class Simulation:
    """A config-driven run: parse, build, run, write the CSV."""

    def __init__(self, text: str):
        self.text = text

    def load(self):
        return build_experiment(parse_pairs(self.text))

    def build(self, config) -> Experiment:
        return Experiment(config)

    def run(self, experiment: Experiment) -> TimeSeries:
        return experiment.run()

    def serialise(self, series: TimeSeries) -> str:
        return series.to_csv()

    def check(self, experiment: Experiment, series: TimeSeries, text: str,
              full: bool = True) -> Outcome:
        """Check one repetition's output.

        With full=False, used once an earlier repetition of the same seed
        passed in full, the CSV read-back and the exercise checks are left
        to `output_digest`, which must equal that repetition's.
        """
        problems = []
        ledger = experiment.switch.conservation()
        if full:
            parsed = TimeSeries.from_csv(text)
            if parsed != series:
                problems.append("the CSV does not read back to equal records")
            problems += conservation_problems(parsed, ledger)
            problems += self.exercise_problems(experiment, parsed)
        else:
            problems += conservation_problems(series, ledger)
        data = text.encode()
        counts = {
            "output_digest": hashlib.sha256(data).hexdigest(),
            "timeseries.records": len(series),
            "timeseries.csv_bytes": len(data),
        }
        for field_name in LEDGER_ROWS:
            counts[f"bytes.{field_name}"] = sum(
                led[field_name] for led in ledger.values())
        counts.update(tcp_counts(experiment))
        return Outcome(ops=1, failed=1 if problems else 0,
                       problems=problems, counts=counts)

    def exercise_problems(self, experiment, series) -> list[str]:
        return []


def tcp_counts(experiment: Experiment) -> dict:
    """What the TCP sources and their access links did; empty without TCP."""
    sources = experiment.tcp_sources.values()
    if not sources:
        return {}
    return {
        "traffic.tcp.segments_sent": sum(s.packets_sent for s in sources),
        "traffic.tcp.retransmits": sum(s.retransmits for s in sources),
        "traffic.tcp.timeouts": sum(s.timeouts for s in sources),
        "traffic.access_link.drop_bytes": sum(
            link.dropped_bytes for link in experiment.links),
    }


class TcpStaged(Simulation):
    """configs/tcp_scaled.cfg: 4,500 Reno sources into one RED output."""

    def __init__(self, seed: int, duration: float | None = None):
        super().__init__(tcp_staged_text(seed, duration))

    def exercise_problems(self, experiment, series):
        problems = []
        if tcp_counts(experiment)["traffic.tcp.timeouts"] == 0:
            problems.append("no TCP timeout fired")
        ledger = experiment.switch.conservation()
        if sum(led["ingress_dropped"] for led in ledger.values()) == 0:
            problems.append("the gear box never dropped at the ingress")
        return problems


class WideCbrPi(Simulation):
    """Generated ports x 8 CBR flows, PI feedback on every output queue."""

    def __init__(self, seed: int, ports: int = 16, duration: float = 0.2):
        super().__init__(wide_cbr_pi_text(seed, ports, duration))
        self.queues = {(j, k) for j in range(ports)
                       for k in range(len(WIDE_ASSURED_SIZES) + 1)}

    def exercise_problems(self, experiment, series):
        problems = []
        delivered = _sum_by_queue(series, "throughput_bps")
        idle = sorted(q for q in self.queues if delivered.get(q, 0.0) <= 0.0)
        if idle:
            problems.append(f"{len(idle)} of {len(self.queues)} output queues "
                            f"delivered nothing: {idle[:8]}")
        dropped = _sum_by_queue(series, "ingress_drop_bps")
        ports = sorted({j for j, _ in self.queues})
        calm = [j for j in ports  # flow 0 is premium: its drops are policing
                if sum(v for (p, k), v in dropped.items()
                       if p == j and k != 0) <= 0.0]
        if calm:
            problems.append(f"the PI loop dropped nothing at the ingress of "
                            f"outputs {calm}")
        return problems


@dataclass(frozen=True)
class StepSpec:
    kind: str   # body: closed form + recurrence; tail: initial_period only
    lam: float
    ropt: float
    sc: float
    gain_p: float
    gain_i: float
    horizon: int = 0

    @property
    def args(self):
        return self.lam, self.ropt, self.sc, self.gain_p, self.gain_i


# share of body scenarios whose arrival rate never saturates the fabric
# (lam <= s_c, so n0 = 0): they exercise the solvers' no-ramp path
SWEEP_SATURATION_FREE = 0.1


def _arrival_for_ramp(m: float, sc: float, gap: float, gain_p: float,
                      gain_i: float) -> float:
    """Arrival rate whose backlog quadratic has its positive root at m."""
    return sc + gap * m * (gain_p + (m + 1) * gain_i / 2) / (m + 1)


class AnalyzeSweep:
    """Seeded step scenarios for foqsim.analytic.

    The seed draws every gain, rate and capacity, but the summed ramp
    length of the body and of the tail is fixed, so every seed asks the
    solvers for the same amount of work: a solver's cost grows with n0.
    """

    def __init__(self, seed: int, body: int = 300, tail: int = 5,
                 body_ramp: float = 4e5, tail_ramp: float = 1.5e6,
                 past_cap: int = 1):
        rng = random.Random(f"analyze_sweep/{seed}")
        specs: list[StepSpec] = []

        def base(ki):
            gain_p = rng.uniform(0.0, min(0.9, 1.0 - ki / 1.9))
            sc = rng.uniform(1.0, 1.5)
            ropt = sc * rng.uniform(0.5, 0.95)
            return gain_p, sc, ropt

        # body: stable gains, K_I log-uniform over [1e-4, 1] in strata
        ramps = []
        for i in range(body):
            ki = 10 ** (-4 + 4 * (i + rng.random()) / body)
            gain_p, sc, ropt = base(ki)
            if rng.random() < SWEEP_SATURATION_FREE:
                lam = ropt + (sc - ropt) * rng.uniform(0.1, 0.9)
                specs.append(StepSpec("body", lam, ropt, sc, gain_p, ki, 200))
            else:
                ramps.append((rng.uniform(0.2, 1.0) / ki, ki, gain_p, sc, ropt))
        weight = sum(w for w, *_ in ramps)
        for w, ki, gain_p, sc, ropt in ramps:
            m = body_ramp * w / weight
            lam = _arrival_for_ramp(m, sc, sc - ropt, gain_p, ki)
            specs.append(StepSpec("body", lam, ropt, sc, gain_p, ki,
                                  math.ceil(m) + 200))

        # tail: K_I log-uniform over [1e-7, 1e-5], ramps well inside the cap
        shares = [rng.uniform(0.5, 1.5) for _ in range(tail)]
        for i, share in enumerate(shares):
            ki = 10 ** (-7 + 2 * (i + rng.random()) / tail)
            gain_p, sc, ropt = base(ki)
            m = tail_ramp * share / sum(shares)
            specs.append(StepSpec("tail", _arrival_for_ramp(
                m, sc, sc - ropt, gain_p, ki), ropt, sc, gain_p, ki))
        # and ramps longer than the scan cap
        for _ in range(past_cap):
            ki = 10 ** rng.uniform(-7.0, -6.7)
            gain_p, sc, ropt = base(ki)
            m = rng.uniform(1.2, 3.0) * SCAN_CAP
            specs.append(StepSpec("tail", _arrival_for_ramp(
                m, sc, sc - ropt, gain_p, ki), ropt, sc, gain_p, ki))
        self.specs = specs
        self.oracle = [oracle_n0(*spec.args) for spec in specs]
        # reported ramps may fall short of the requested ones only by the
        # scenarios a solver fails on
        self.ramp_floor = int(0.9 * (body_ramp + tail_ramp))
        self.past_cap = sum(1 for spec, n0 in zip(specs, self.oracle)
                            if spec.kind == "tail" and n0 > SCAN_CAP)

    def load(self) -> list:
        return [(spec, analytic.StepScenario(
            arrival_rate=spec.lam, desired_rate=spec.ropt,
            fabric_capacity=spec.sc, gain_p=spec.gain_p, gain_i=spec.gain_i))
            for spec in self.specs]

    def build(self, scenarios: list) -> list:
        return scenarios

    def run(self, scenarios: list) -> list:
        results = []
        for spec, scenario in scenarios:
            try:
                if spec.kind == "body":
                    results.append((
                        analytic.step_response_closed_form(scenario, spec.horizon),
                        analytic.step_response_recurrence(scenario, spec.horizon)))
                else:
                    results.append(analytic.initial_period(scenario))
            except ValueError as err:
                results.append(err)
        return results

    def serialise(self, results) -> None:
        return None

    def check(self, scenarios, results, text, full: bool = True) -> Outcome:
        """Check every scenario; always in full, as that is cheap next to
        solving them."""
        problems = []
        if len(results) != len(scenarios):
            problems.append(f"{len(results)} results for {len(scenarios)} "
                            f"scenarios")
        failed = 0
        ramp = 0
        digest = hashlib.sha256()
        for i, ((spec, _), result) in enumerate(zip(scenarios, results)):
            want = self.oracle[i]
            if isinstance(result, ValueError):
                failed += 1
                digest.update(f"{i} error {result}\n".encode())
                if want <= SCAN_CAP:
                    problems.append(f"scenario {i} raised ({result}) although "
                                    f"its ramp is inside the scan cap")
                continue
            if spec.kind == "body":
                closed, rec = result
                n0 = closed.n0
                dev = closed_form_deviation(spec.lam, spec.ropt,
                                            closed.drop_sequence, rec, n0)
                if not dev < MAX_REL_DEVIATION:
                    problems.append(f"scenario {i}: closed form deviates from "
                                    f"the recurrence by {dev:.3g}")
                if len(closed.queue_sequence) != n0:
                    problems.append(f"scenario {i}: queue trajectory has "
                                    f"{len(closed.queue_sequence)} points, "
                                    f"n0 = {n0}")
                digest.update(repr((i, n0, closed.s_n0, closed.pole1,
                                    closed.pole2, closed.coeff1, closed.coeff2,
                                    closed.rate_gap)).encode())
                for seq in (closed.drop_sequence, closed.queue_sequence, rec):
                    digest.update(array("d", seq).tobytes())
            else:
                n0 = result[0]
                digest.update(repr((i, result)).encode())
            ramp += n0
            if n0 != want:
                problems.append(f"scenario {i}: n0 = {n0}, the oracle gives "
                                f"{want}")
        if ramp < self.ramp_floor:
            problems.append(f"the solvers covered {ramp} ramp intervals, "
                            f"below the floor of {self.ramp_floor}")
        if self.past_cap == 0:
            problems.append("no tail scenario has a ramp past the scan cap")
        counts = {"output_digest": digest.hexdigest(),
                  "analytic.ramp_intervals": ramp}
        return Outcome(ops=len(results), failed=failed, problems=problems,
                       counts=counts)
