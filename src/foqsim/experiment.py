"""Assemble a configured experiment: one switch plus its traffic sources."""

from __future__ import annotations

from .config import ExperimentConfig
from .events import EventLoop
from .switch import Switch
from .timeseries import CsvSink, TimeSeries
from .traffic import AccessLink, CbrSource, SubnetGroup, TcpSource, staged_start


class Experiment:
    """Owns the loop, the switch, and every source built from the config."""

    def __init__(self, config: ExperimentConfig, seed: int | None = None,
                 sink: TimeSeries | CsvSink | None = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.loop = EventLoop()
        self.switch = Switch(config.switch, seed=self.seed, loop=self.loop,
                             sink=sink)
        self.cbr_sources: list[CbrSource] = []
        self.tcp_sources: dict[int, TcpSource] = {}
        self.links: list[AccessLink] = []
        self.groups: list[SubnetGroup] = []
        self._build()

    def _build(self) -> None:
        next_tcp_id = 0
        for spec in sorted(self.config.sources, key=lambda s: s.source_id):
            self.switch.register_flow_queue(spec.egress, spec.flow)
            if spec.kind == "cbr":
                self.cbr_sources.append(CbrSource(
                    self.loop, self.switch.ingress_arrival, spec.flow,
                    spec.ingress, spec.egress, spec.packet_size, spec.rate,
                    start=spec.start, stop=spec.stop))
            else:
                link = AccessLink(self.loop, spec.link_rate, spec.link_buffer,
                                  self.switch.ingress_arrival)
                self.links.append(link)
                group = SubnetGroup(window=(spec.window_start, spec.window_end))
                for _ in range(spec.count):
                    src = TcpSource(self.loop, link, next_tcp_id, spec.flow,
                                    spec.ingress, spec.egress,
                                    packet_size=spec.packet_size,
                                    one_way=spec.one_way)
                    self.tcp_sources[next_tcp_id] = src
                    group.sources.append(src)
                    next_tcp_id += 1
                self.groups.append(group)

    def run(self) -> TimeSeries | CsvSink:
        for src in self.cbr_sources:
            src.start()
        if self.groups:
            staged_start(self.groups, self.seed)
        return self.switch.run(self.config.duration)


def run_experiment(config: ExperimentConfig, seed: int | None = None,
                   sink: TimeSeries | CsvSink | None = None) -> TimeSeries | CsvSink:
    """Run the experiment into sink, a new TimeSeries by default, and
    return the sink."""
    return Experiment(config, seed=seed, sink=sink).run()
