"""Per-layer tracing of foqsim from outside the program.

`Tracer.installed()` replaces public functions and methods of foqsim, and
`EventLoop.at`, with timing wrappers for as long as the `with` block runs.
It must be entered before an `Experiment` is built: sources keep the bound
methods they saw at build time. Every handler the loop schedules is wrapped
so its run is timed when it fires, and classified by its `__qualname__`
and port. Only aggregates are kept per boundary: calls and self time (its
duration minus that of the boundaries entered inside it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import src_path  # noqa: F401
from foqsim import analytic
from foqsim import switch as switch_module
from foqsim.events import RANK_DATA, EventLoop
from foqsim.switch import Switch
from foqsim.timeseries import TimeSeries
from foqsim.traffic import TcpSource

_clock = time.perf_counter

# scheduled handler (by __qualname__) -> boundary
HANDLERS = {
    "CbrSource._emit": "traffic.cbr_emit",
    "AccessLink._next.<locals>.done": "traffic.access_link",
    "TcpSource._arm_timer.<locals>.<lambda>": "traffic.tcp_timer",
    "TcpSource.on_data_arrival.<locals>.<lambda>": "traffic.tcp_ack",
    "TcpSource._try_send": "traffic.tcp_start",
    "Switch._start_drain.<locals>.<lambda>": "switch.fabric_drain",
    "Switch._start_out.<locals>.<lambda>": "switch.egress_done",
    "Switch.sample_and_feedback.<locals>.<lambda>": "control.apply",
}
# the periodic tick runs the report at port -1 and the per-queue sampler
# and RED average at the queue's port
TICK = "Switch.run.<locals>.tick.<locals>.handler"
REPORT = "switch.report"
QUEUE_TICK = "switch.queue_tick"
UNCLASSIFIED = "events.unclassified"
FIRED = sorted(set(HANDLERS.values()) | {REPORT, QUEUE_TICK})

# (owner, attribute, boundary) of every wrapped call
CALLS = (
    (EventLoop, "at", "events.at"),
    (EventLoop, "run", "events.run"),  # self time: popping and dispatching
    # receiver bookkeeping, run as a delivery hook inside switch.egress_done
    (TcpSource, "on_data_arrival", "traffic.tcp_receive"),
    (Switch, "ingress_arrival", "switch.ingress_arrival"),
    (Switch, "fabric_enqueue", "switch.fabric_enqueue"),
    (Switch, "out_scheduler_select", "switch.out_scheduler_select"),
    (Switch, "sample_and_feedback", "switch.sample"),
    (switch_module, "pi_update", "control.pi_update"),
    (switch_module, "gb_signal_from_congestion", "control.gb_signal"),
    (TimeSeries, "append", "timeseries.append"),
    (analytic, "initial_period", "analytic.initial_period"),
    (analytic, "queue_trajectory", "analytic.queue_trajectory"),
    (analytic, "step_response_closed_form", "analytic.closed_form"),
    (analytic, "step_response_recurrence", "analytic.recurrence"),
)
CALLED = [name for _, _, name in CALLS]
DATAPATH = ("switch.ingress_arrival", "switch.fabric_enqueue",
            "switch.fabric_drain", "switch.egress_done")

# every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [("traced_run_s", "s"), ("tracing_overhead_s", "s"),
     ("unattributed_s", "s"), ("events.fired", "count"),
     ("events.heap_peak", "count"), ("events.unclassified.fired", "count")]
    + [(f"{b}.fired", "count") for b in FIRED]
    + [(f"{b}.self_s", "s") for b in FIRED]
    + [(f"{b}.calls", "count") for b in CALLED]
    + [(f"{b}.self_s", "s") for b in CALLED]
    + [("switch.host_ns_per_packet", "ns"),
       ("traffic.tcp_timer.useful_ratio", "ratio"),
       ("traffic.tcp.segments_sent", "count"),
       ("traffic.tcp.retransmits", "count"),
       ("traffic.tcp.timeouts", "count"),
       ("traffic.access_link.drop_bytes", "bytes"),
       ("switch.delivered_ratio", "ratio"),
       ("switch.ingress_drop_ratio", "ratio"),
       ("switch.fabric_drop_ratio", "ratio"),
       ("switch.egress_drop_ratio", "ratio"),
       ("timeseries.records", "count"),
       ("timeseries.csv_bytes", "bytes"),
       ("timeseries.to_csv_s", "s"),
       ("timeseries.from_csv_s", "s"),
       ("config.load_s", "s"),
       ("experiment.build_s", "s"),
       ("analytic.ramp_intervals", "count")])
# values measured in time; every other value must repeat exactly
TIMED = {name for name, unit in PER_LAYER if unit in ("s", "ns")}

# why a metric can be absent, by name prefix (longest match wins)
ABSENT_WHY = {
    "traffic.tcp": "the workload has no TCP sources",
    "traffic.access_link": "the workload has no TCP sources",
    "traffic.cbr_emit": "the workload has no CBR sources",
    "control.pi_update": "the workload's feedback mode is not pi",
    "control.gb_signal": "the workload's feedback mode is not gearbox",
    "control.apply": "the workload applies no feedback",
    "analytic.": "the workload calls no analytic solver",
    "switch.": "the workload runs no simulation",
    "events.": "the workload runs no simulation",
    "timeseries.": "the workload writes no time series",
    "config.": "the workload reads no config",
    "experiment.": "the workload builds no Experiment",
}


def absent_why(name: str) -> str:
    prefix = max((p for p in ABSENT_WHY if name.startswith(p)), key=len)
    return ABSENT_WHY[prefix]


class Boundary:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Calls and self time per boundary, plus the event heap's high-water mark."""

    def __init__(self):
        self.boundaries: dict[str, Boundary] = {}
        self._stack = [0.0]  # summed child time of each open span
        self._kinds: dict[str, Boundary] = {}
        self.reset()

    def reset(self) -> None:
        """Zero every aggregate; installed wrappers stay in place."""
        for b in self.boundaries.values():
            b.calls = 0
            b.self_s = 0.0
        self._stack[:] = [0.0]
        self.pending = 0
        self.heap_peak = 0
        self.ramp_intervals = 0

    def boundary(self, name: str) -> Boundary:
        if name not in self.boundaries:
            self.boundaries[name] = Boundary()
        return self.boundaries[name]

    def _timed(self, fn, b: Boundary):
        stack = self._stack

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                stack[-1] += dt
                b.calls += 1
                b.self_s += dt - child
        return span

    def _classify(self, fn, port: int) -> Boundary:
        name = getattr(fn, "__qualname__", "")
        if name == TICK:
            return self.boundary(REPORT if port == -1 else QUEUE_TICK)
        if name not in self._kinds:
            self._kinds[name] = self.boundary(HANDLERS.get(name, UNCLASSIFIED))
        return self._kinds[name]

    def _wrap(self, name: str, original):
        timed = self._timed(original, self.boundary(name))
        if name == "events.at":
            def at(loop, when, fn, rank=RANK_DATA, port=-1, flow=-1):
                handler = self._timed(fn, self._classify(fn, port))

                def fire():
                    self.pending -= 1
                    handler()
                timed(loop, when, fire, rank, port, flow)
                self.pending += 1
                self.heap_peak = max(self.heap_peak, self.pending)
            return at
        if name == "analytic.initial_period":
            def initial_period(scenario):
                result = timed(scenario)
                self.ramp_intervals += result[0]
                return result
            return initial_period
        return timed

    @contextmanager
    def installed(self):
        """Wrap foqsim's boundaries for the duration of the block."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in CALLS]
        try:
            for (owner, attr, original), (_, _, name) in zip(saved, CALLS):
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def sample(self, run_s: float, counts: dict, phases: dict) -> dict:
        """Per-layer values of the repetition just traced, by metric name.

        A metric whose boundary never ran is left out; `counts` are the
        untraced checks' counts of the same repetition.
        """
        out = {"traced_run_s": run_s}
        ran = {name: b for name, b in self.boundaries.items() if b.calls}
        for name in FIRED:
            if name in ran:
                out[f"{name}.fired"] = ran[name].calls
                out[f"{name}.self_s"] = ran[name].self_s
        for name in CALLED:
            if name in ran:
                out[f"{name}.calls"] = ran[name].calls
                out[f"{name}.self_s"] = ran[name].self_s
        if "events.at" in ran:
            out["events.fired"] = sum(ran[n].calls for n in FIRED + [UNCLASSIFIED]
                                      if n in ran)
            out["events.unclassified.fired"] = self.boundary(UNCLASSIFIED).calls
            out["events.heap_peak"] = self.heap_peak
        attributed = sum(b.self_s for name, b in ran.items()
                         if name != UNCLASSIFIED)
        out["unattributed_s"] = run_s - attributed
        if "switch.ingress_arrival" in ran:
            datapath = sum(ran[n].self_s for n in DATAPATH if n in ran)
            out["switch.host_ns_per_packet"] = (
                datapath / ran["switch.ingress_arrival"].calls * 1e9)
        if "traffic.tcp_timer" in ran:
            out["traffic.tcp_timer.useful_ratio"] = (
                counts["traffic.tcp.timeouts"] / ran["traffic.tcp_timer"].calls)
        if "analytic.initial_period" in ran:
            out["analytic.ramp_intervals"] = self.ramp_intervals
        injected = counts.get("bytes.injected")
        if injected:
            for ratio, stage in (("delivered", "delivered"),
                                 ("ingress_drop", "ingress_dropped"),
                                 ("fabric_drop", "fabric_dropped"),
                                 ("egress_drop", "egress_dropped")):
                out[f"switch.{ratio}_ratio"] = counts[f"bytes.{stage}"] / injected
        for name in ("traffic.tcp.segments_sent", "traffic.tcp.retransmits",
                     "traffic.tcp.timeouts", "traffic.access_link.drop_bytes",
                     "timeseries.records", "timeseries.csv_bytes"):
            if name in counts:
                out[name] = counts[name]
        out.update(phases)
        return out
