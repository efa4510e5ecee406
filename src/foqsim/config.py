"""Experiment config files: flat `key = value` lines with dotted keys.

Lines are `key = value`, blank, or `#` comments. Keys group into sections by
their first dotted component: switch.*, flow.<id>.*, source.<id>.*, and
experiment.*. Validation is collecting, not fail-fast: every violation in
the file is reported, each prefixed by the offending key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .switch import FeedbackConfig, FlowSpec, RedParams, ServiceClass, SwitchConfig

_CLASSES = {
    "premium": ServiceClass.PREMIUM,
    "assured": ServiceClass.ASSURED,
    "besteffort": ServiceClass.BEST_EFFORT,
}

_SWITCH_KEYS = {
    "num_ports": "int", "line_rate": "float", "speedup": "float",
    "fabric_memory": "int", "out_queue_size": "int",
    "queue_mgmt": ("droptail", "red"),
    "num_classes": "int", "report_interval": "float",
    "red.max_p": "float", "red.min_th": "int", "red.max_th": "int",
    "red.weight": "float", "red.sample_interval": "float",
    "feedback.mode": ("off", "pi", "gearbox"),
    "feedback.interval": "float", "feedback.delay": "float",
    "feedback.alpha": "float", "feedback.gain_p": "float",
    "feedback.gain_i": "float", "feedback.d_max": "float",
    "feedback.d_min": "float", "feedback.table_size": "int",
    "feedback.measure": ("relcong", "dropprob"),
}
_REQUIRED_SWITCH = ("num_ports", "line_rate", "speedup", "fabric_memory",
                    "out_queue_size")

_FLOW_KEYS = {
    "class": tuple(_CLASSES), "weight": "float",
    "police_rate": "float", "police_burst": "int",
}

_SOURCE_KEYS = {
    "kind": ("cbr", "tcp_group"),
    "flow": "int", "ingress": "int", "egress": "int", "packet_size": "int",
    "rate": "float", "start": "float", "stop": "float",
    "count": "int", "link_rate": "float", "link_buffer": "int",
    "window_start": "float", "window_end": "float", "one_way": "float",
}
_REQUIRED_SOURCE = {
    "cbr": ("flow", "ingress", "egress", "packet_size", "rate"),
    "tcp_group": ("flow", "ingress", "egress", "packet_size", "count",
                  "link_rate", "window_start", "window_end"),
}


class ConfigError(Exception):
    """Schema violations; .violations lists every one found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigSyntaxError(ConfigError):
    """The file could not even be parsed into key = value pairs."""


@dataclass
class SourceSpec:
    source_id: int
    kind: str
    flow: int
    ingress: int
    egress: int
    packet_size: int
    rate: float = 0.0
    start: float = 0.0
    stop: float | None = None
    count: int = 0
    link_rate: float = 0.0
    link_buffer: int = 50000
    window: tuple[float, float] = (0.0, 0.0)
    one_way: float = 20e-3


@dataclass
class ExperimentConfig:
    switch: SwitchConfig
    sources: list[SourceSpec] = field(default_factory=list)
    duration: float = 1.0
    seed: int = 1


def parse_pairs(text: str) -> dict[str, str]:
    """Raw key -> value strings; syntax problems raise immediately."""
    pairs: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key}")
            continue
        pairs[key] = value
    if problems:
        raise ConfigSyntaxError(problems)
    return pairs


class _Reader:
    """Typed access over the raw pairs, accumulating violations."""

    def __init__(self, pairs: dict[str, str], bad: list[str]):
        self.pairs = pairs
        self.bad = bad
        self.seen: set[str] = set()

    def get(self, key, spec, default=None):
        self.seen.add(key)
        raw = self.pairs.get(key)
        if raw is None:
            return default
        if isinstance(spec, tuple):
            if raw not in spec:
                self.bad.append(f"{key}: must be one of {', '.join(spec)}")
                return default
            return raw
        try:
            value = float(raw)
        except ValueError:
            self.bad.append(f"{key}: expected a number, got {raw!r}")
            return default
        if spec == "int":
            if value != int(value):
                self.bad.append(f"{key}: expected an integer, got {raw!r}")
                return default
            return int(value)
        return value

    def require(self, key, spec, section: str):
        if key not in self.pairs:
            self.bad.append(f"{key}: required by {section}")
            return None
        return self.get(key, spec)


def _section_ids(pairs, prefix, bad):
    ids = set()
    for key in pairs:
        if not key.startswith(prefix + "."):
            continue
        part = key.split(".", 2)[1]
        try:
            ids.add(int(part))
        except ValueError:
            bad.append(f"{key}: {prefix} id must be an integer")
    return sorted(ids)


def _given(values: dict, prefix: str, cls) -> dict:
    """Keyword arguments for the fields of cls the file gave a value for;
    the dataclass supplies the rest."""
    return {f.name: values[prefix + f.name] for f in fields(cls)
            if values[prefix + f.name] is not None}


def build_experiment(pairs: dict[str, str]) -> ExperimentConfig:
    """Typed experiment from raw pairs; raises ConfigError with every
    violation when anything is wrong."""
    bad: list[str] = []
    reader = _Reader(pairs, bad)

    if not any(k.startswith("switch.") for k in pairs):
        bad.append("missing switch section")
    for key in _REQUIRED_SWITCH:
        reader.require(f"switch.{key}", _SWITCH_KEYS[key], "the switch section")
    sw_vals = {key: reader.get(f"switch.{key}", spec)
               for key, spec in _SWITCH_KEYS.items()}

    flows: dict[int, FlowSpec] = {}
    for fid in _section_ids(pairs, "flow", bad):
        p = f"flow.{fid}."
        cls = reader.get(p + "class", _FLOW_KEYS["class"], "assured")
        flows[fid] = FlowSpec(
            svc_class=_CLASSES[cls],
            weight=reader.get(p + "weight", "float", 1.0),
            police_rate=reader.get(p + "police_rate", "float"),
            police_burst=reader.get(p + "police_burst", "int", 6000),
        )

    sources: list[SourceSpec] = []
    for sid in _section_ids(pairs, "source", bad):
        p = f"source.{sid}."
        kind = reader.require(p + "kind", _SOURCE_KEYS["kind"], "every source")
        if kind is None:
            continue
        for key in _REQUIRED_SOURCE[kind]:
            reader.require(p + key, _SOURCE_KEYS[key], f"{kind} sources")
        vals = {key: reader.get(p + key, spec)
                for key, spec in _SOURCE_KEYS.items()}
        spec = SourceSpec(
            source_id=sid, kind=kind,
            flow=vals["flow"] if vals["flow"] is not None else -1,
            ingress=vals["ingress"] if vals["ingress"] is not None else 0,
            egress=vals["egress"] if vals["egress"] is not None else 0,
            packet_size=vals["packet_size"] or 0,
            rate=vals["rate"] or 0.0,
            start=vals["start"] or 0.0,
            stop=vals["stop"],
            count=vals["count"] or 0,
            link_rate=vals["link_rate"] or 0.0,
            link_buffer=vals["link_buffer"] if vals["link_buffer"] is not None
            else 50000,
            window=(vals["window_start"] or 0.0, vals["window_end"] or 0.0),
            one_way=vals["one_way"] if vals["one_way"] is not None else 20e-3,
        )
        if kind == "cbr" and spec.rate <= 0 and vals["rate"] is not None:
            bad.append(f"{p}rate: must be positive")
        if kind == "tcp_group":
            if spec.count <= 0 and vals["count"] is not None:
                bad.append(f"{p}count: must be positive")
            if vals["link_rate"] is not None and spec.link_rate <= 0:
                bad.append(f"{p}link_rate: must be positive")
            if spec.window[1] < spec.window[0]:
                bad.append(f"{p}window_end: must not precede window_start")
        if spec.flow >= 0 and flows and spec.flow not in flows:
            bad.append(f"{p}flow: flow {spec.flow} is not defined")
        sources.append(spec)

    duration = reader.require("experiment.duration", "float", "the experiment")
    seed = reader.get("experiment.seed", "int", 1)
    if duration is not None and duration <= 0:
        bad.append("experiment.duration: must be positive")
    reader.seen.add("experiment.duration")
    reader.seen.add("experiment.seed")

    for key in sorted(pairs):
        if key not in reader.seen:
            bad.append(f"{key}: unknown key")

    mgmt = sw_vals["queue_mgmt"] or "droptail"
    if mgmt == "droptail" and any(k.startswith("switch.red.") for k in pairs):
        bad.append("switch.red: red parameters given but queue_mgmt is droptail")

    red = RedParams(**_given(sw_vals, "red.", RedParams)) if mgmt == "red" else None
    feedback = FeedbackConfig(**_given(sw_vals, "feedback.", FeedbackConfig))
    # required keys pass through as parsed (None only when already
    # reported), so validate() judges the value the file gave
    switch = SwitchConfig(
        num_ports=sw_vals["num_ports"],
        line_rate=sw_vals["line_rate"],
        speedup=sw_vals["speedup"],
        fabric_memory=sw_vals["fabric_memory"],
        out_queue_size=sw_vals["out_queue_size"],
        flows=flows,
        red=red,
        feedback=feedback,
        num_classes=sw_vals["num_classes"],
        report_interval=sw_vals["report_interval"],
    )
    if not bad:
        # structural checks only make sense once the numbers themselves parse
        bad.extend(switch.validate())
        for spec in sources:
            p = f"source.{spec.source_id}."
            if switch.num_ports >= 1:  # else validate() named num_ports
                if not 0 <= spec.ingress < switch.num_ports:
                    bad.append(f"{p}ingress: port out of range")
                if not 0 <= spec.egress < switch.num_ports:
                    bad.append(f"{p}egress: port out of range")
            if spec.packet_size <= 0:
                bad.append(f"{p}packet_size: must be positive")
    if bad:
        raise ConfigError(bad)
    return ExperimentConfig(switch=switch, sources=sources,
                            duration=duration, seed=seed)


def load_config(path: str | Path) -> ExperimentConfig:
    return build_experiment(parse_pairs(Path(path).read_text()))
