"""Assemble a configured experiment: one switch plus its traffic sources."""

from __future__ import annotations

from .config import ExperimentConfig
from .events import EventLoop
from .switch import Switch
from .timeseries import TimeSeries
from .traffic import AccessLink, CbrSource, SubnetGroup, TcpSource, staged_start


class Experiment:
    """Owns the loop, the switch, and every source built from the config."""

    def __init__(self, config: ExperimentConfig, seed: int | None = None):
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.loop = EventLoop()
        self.switch = Switch(config.switch, seed=self.seed, loop=self.loop)
        self.cbr_sources: list[CbrSource] = []
        self.tcp_sources: dict[int, TcpSource] = {}
        self.links: list[AccessLink] = []
        self.groups: list[SubnetGroup] = []
        self._build()

    def _build(self) -> None:
        flows = self.config.switch.flows
        next_tcp_id = 0
        for spec in sorted(self.config.sources, key=lambda s: s.source_id):
            self.switch.register_flow_queue(spec.egress, spec.flow)
            svc = flows[spec.flow].svc_class
            if spec.kind == "cbr":
                self.cbr_sources.append(CbrSource(
                    self.loop, self.switch.ingress_arrival, spec.flow,
                    spec.ingress, spec.egress, spec.packet_size, spec.rate,
                    svc_class=svc, start=spec.start, stop=spec.stop,
                    source_id=spec.source_id))
            else:
                link = AccessLink(self.loop, spec.link_rate, spec.link_buffer,
                                  self.switch.ingress_arrival)
                self.links.append(link)
                group = SubnetGroup(name=f"source.{spec.source_id}",
                                    window=(spec.window_start, spec.window_end))
                for _ in range(spec.count):
                    src = TcpSource(self.loop, link, next_tcp_id, spec.flow,
                                    spec.ingress, spec.egress,
                                    packet_size=spec.packet_size,
                                    one_way=spec.one_way, svc_class=svc)
                    self.tcp_sources[next_tcp_id] = src
                    group.sources.append(src)
                    next_tcp_id += 1
                self.groups.append(group)
        if self.tcp_sources:
            self.switch.delivery_hooks.append(self._route_delivery)

    def _route_delivery(self, packet) -> None:
        src = self.tcp_sources.get(packet.source)
        if src is not None:
            src.on_data_arrival(packet)

    def run(self) -> TimeSeries:
        for src in self.cbr_sources:
            src.start()
        if self.groups:
            staged_start(self.groups, self.seed)
        return self.switch.run(self.config.duration)


def run_experiment(config: ExperimentConfig, seed: int | None = None) -> TimeSeries:
    return Experiment(config, seed=seed).run()
