"""Assemble a configured experiment: one switch plus its traffic sources.

`Experiment(config).run()` builds everything at construction and runs once.
The start schedule holds one entry per TCP group, its sources and start
window, in build order; `run` draws every source's start time uniformly
inside its group's window from the seed's "starts" stream, one draw per
source in build order, so the schedule depends only on the seed and the
config's groups.
"""

from __future__ import annotations

from .config import ConfigError, ExperimentConfig
from .events import EventLoop, ns, stream
from .switch import Switch
from .timeseries import CsvSink
from .traffic import AccessLink, CbrSource, TcpSource


class Experiment:
    """Owns the loop, the switch, and every source built from the config."""

    def __init__(self, config: ExperimentConfig, seed: int | None = None,
                 sink: CsvSink | None = None):
        # a hand-built config is judged by the rules a parsed one passed
        bad = config.validate()
        if bad:
            raise ConfigError(bad)
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.loop = EventLoop()
        self.switch = Switch(config.switch,
                             [(s.egress, s.flow) for s in config.sources],
                             seed=self.seed, loop=self.loop, sink=sink)
        self.cbr_sources: list[CbrSource] = []
        self.tcp_sources: dict[int, TcpSource] = {}
        self.links: list[AccessLink] = []
        # (group's sources, window start, window end) seconds, in build order
        self._starts: list[tuple[list[TcpSource], float, float]] = []
        self._build()

    def _build(self) -> None:
        loop = self.loop
        next_id = 0
        for spec in sorted(self.config.sources, key=lambda s: s.source_id):
            if spec.kind == "cbr":
                self.cbr_sources.append(CbrSource(
                    loop, self.switch.ingress_arrival, spec.flow,
                    spec.ingress, spec.egress, spec.packet_size, spec.rate,
                    start=spec.start, stop=spec.stop))
            else:
                link = AccessLink(loop, spec.link_rate, spec.link_buffer,
                                  self.switch.ingress_arrival)
                self.links.append(link)
                # the group's round trip: one int and one lane for all of it
                rtt = 2 * ns(spec.one_way)
                loop.lane(rtt)
                flow, ingress, egress = spec.flow, spec.ingress, spec.egress
                size = spec.packet_size
                group = [TcpSource(loop, link, flow, ingress, egress, size, rtt)
                         for _ in range(spec.count)]
                self.tcp_sources.update(enumerate(group, next_id))
                next_id += spec.count
                self._starts.append((group, spec.window_start,
                                     spec.window_end))

    def run(self) -> CsvSink:
        """Start the sources, run the switch for the configured duration
        into the sink (a new TimeSeries by default) and return the sink.
        A second call raises ValueError before it starts any source."""
        self.switch.check_unstarted()
        for src in self.cbr_sources:
            src.start()
        rng = stream(self.seed, "starts")
        for group, t0, t1 in self._starts:
            for src in group:
                src.start_at(ns(t0 + rng.random() * (t1 - t0)))
        return self.switch.run(self.config.duration)
