"""The experiment config contract: every section's dataclass, its keys and
rules, and the reader of config files.

Lines are `key = value`, blank, or `#` comments. Keys group into sections by
their first dotted component: switch.*, flow.<id>.*, source.<id>.*, and
experiment.*. Validation is collecting, not fail-fast: every violation in
the file is reported, each prefixed by the offending key.

The reader makes one pass over the pairs. It files each raw value under
its field in the group of its prefix, everything up to and with the key's
last dot. The flow and source ids are read from those prefixes with int(),
once per prefix. Each section then pops its own fields from the group of
its canonical prefix (`source.1.`, never `source.01.`) and parses each
value once; whatever no section took is an unknown key. The same rules
judge a config built by hand: `ExperimentConfig.validate()`, which
`Experiment` calls, gives the messages this reader gives for a file whose
values all parse, in the same order.

A section's keys are its dataclass's scalar fields, read once at import:
the annotation gives the type (int, float, or a Literal's choices) and
the default the default; a field without one is required.
`metadata={"key": ...}` renames a field's key, and None there means none.
A field annotated `Seconds` is a time, which must also fit the event
loop's integer nanoseconds. Times are judged as the event loop will run
them, in whole nanoseconds: a span that `ns()` rounds to nothing runs
nothing.
"""

from __future__ import annotations

import math
import types
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import (Annotated, ClassVar, Literal, Union, get_args, get_origin,
                    get_type_hints)

from .events import NS, ns, tx_ns

# the annotation of a config field that holds seconds, which ns() must take
Seconds = Annotated[float, "seconds"]

# service classes in tier order: a queue's tier is its class's index
ServiceClass = Literal["premium", "assured", "besteffort"]
_TIER = {svc: tier for tier, svc in enumerate(get_args(ServiceClass))}


def _empty(start: float, end: float) -> bool:
    """Whether the span from start to end holds no whole nanosecond once
    ns() rounds both ends."""
    return ns(end) <= ns(start)


def _short_periods(*periods) -> list[str]:
    """The violation of each (key, seconds) period or duration that ns()
    rounds to 0, which would divide by zero, re-arm its tick at the same
    instant forever or run only t = 0; seconds of None is no period."""
    return [f"{key}: must be "
            + ("positive" if seconds <= 0 else "at least 1 ns")
            for key, seconds in periods
            if seconds is not None and _empty(0.0, seconds)]


@dataclass(frozen=True)
class RedParams:
    """Random early detection on an output queue."""

    max_p: float = 0.5
    min_th: int = 1000   # bytes
    max_th: int = 3000   # bytes
    weight: float = 0.1  # EWMA weight at the sampling cadence
    sample_interval: Seconds = 1e-3


@dataclass(frozen=True)
class FlowSpec:
    svc_class: ServiceClass = field(default="assured",
                                    metadata={"key": "class"})  # flow.<id>.class
    weight: float = 1.0
    police_rate: float | None = None  # bits/s token bucket, premium only
    police_burst: int = 6000          # bytes


FeedbackMode = Literal["off", "pi", "gearbox"]
Measure = Literal["relcong", "dropprob"]


@dataclass(frozen=True)
class FeedbackConfig:
    mode: FeedbackMode = "off"
    interval: Seconds = 1e-3
    delay: Seconds = 0.0  # signal propagation back to the ingress
    alpha: float = 0.95
    gain_p: float = 0.0
    gain_i: float = 0.5
    d_max: float = 0.17
    d_min: float = 0.02
    table_size: int = 64
    measure: Measure = "relcong"


@dataclass(frozen=True)
class SwitchConfig:
    num_ports: int
    line_rate: float           # bits/s per port
    speedup: float             # fabric-to-line ratio, > 1
    fabric_memory: int         # bytes, shared pool
    out_queue_size: int        # bytes per output queue
    flows: dict[int, FlowSpec] = field(default_factory=dict)
    red: RedParams | None = None  # None means plain drop-tail
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    report_interval: Seconds | None = None  # defaults to the feedback interval

    def validate(self) -> list[str]:
        """Every violation, not just the first."""
        bad = [f"switch.{message}" for broken, message in (
            (self.num_ports < 1, "num_ports: must be at least 1"),
            (self.line_rate <= 0, "line_rate: must be positive"),
            (self.speedup <= 1.0, "speedup: must exceed 1"),
            (self.fabric_memory <= 0, "fabric_memory: must be positive"),
            (self.out_queue_size <= 0, "out_queue_size: must be positive"),
        ) if broken]
        if not self.flows:
            bad.append("flow: at least one flow must be defined")
        for fid, spec in self.flows.items():
            if spec.svc_class not in _TIER:
                bad.append(f"flow.{fid}.class: "
                           "must be premium, assured or besteffort")
            if spec.weight <= 0:
                bad.append(f"flow.{fid}.weight: must be positive")
            if spec.police_rate is not None:
                if spec.police_rate <= 0:
                    bad.append(f"flow.{fid}.police_rate: must be positive")
                if spec.svc_class != "premium":
                    bad.append(f"flow.{fid}.police_rate: "
                               "only premium flows are policed")
            if spec.police_burst <= 0:
                bad.append(f"flow.{fid}.police_burst: must be positive")
        # each feedback mode is judged only on the keys it reads; off
        # applies no control, so it reads no delay
        fb = self.feedback
        pi, gearbox = fb.mode == "pi", fb.mode == "gearbox"
        bad += [f"switch.feedback.{message}" for broken, message in (
            (fb.mode not in get_args(FeedbackMode),
             "mode: must be off, pi or gearbox"),
            ((pi or gearbox) and fb.delay < 0, "delay: must be non-negative"),
            (pi and not 0.0 < fb.alpha <= 1.0, "alpha: must be in (0, 1]"),
            (pi and fb.gain_p < 0, "gain_p: must be non-negative"),
            (pi and fb.gain_i <= 0, "gain_i: must be positive"),
            (gearbox and not 0.0 <= fb.d_min < fb.d_max < 1.0,
             "d_min/d_max: need 0 <= d_min < d_max < 1"),
            (gearbox and fb.table_size < 2, "table_size: must be at least 2"),
            (gearbox and fb.measure not in get_args(Measure),
             "measure: must be relcong or dropprob")) if broken]
        red = self.red
        bad += [f"switch.red.{message}" for broken, message in (
            (not 0.0 < red.max_p <= 1.0, "max_p: must be in (0, 1]"),
            (not 0 <= red.min_th < red.max_th,
             "min_th/max_th: need 0 <= min_th < max_th"),
            (not 0.0 < red.weight <= 1.0, "weight: must be in (0, 1]"),
        ) if broken] if red is not None else []
        return bad + _short_periods(
            ("switch.feedback.interval", fb.interval),
            ("switch.report_interval", self.report_interval),
            ("switch.red.sample_interval", red and red.sample_interval))


class ConfigError(Exception):
    """Schema violations; .violations lists every one found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigSyntaxError(ConfigError):
    """The file could not even be parsed into key = value pairs."""


@dataclass
class _Source:
    """The keys every source kind shares."""

    source_id: int = field(metadata={"key": None})  # source.<id>.
    flow: int
    ingress: int
    egress: int
    packet_size: int  # bytes

    def validate(self, num_ports: int | None, flows: dict) -> list[str]:
        """Every violation of this source's values and of its references to
        the switch; ports are judged only against a port count of at least
        1 (None when the file gave no usable one)."""
        bad = self._problems()
        if self.packet_size <= 0:
            bad.append("packet_size: must be positive")
        if flows and self.flow not in flows:
            bad.append(f"flow: flow {self.flow} is not defined")
        spec = flows.get(self.flow)
        if (spec is not None and spec.police_rate is not None
                and self.packet_size > spec.police_burst):
            # a bucket that never holds a packet admits none
            bad.append(f"packet_size: exceeds flow {self.flow}'s police_burst")
        if num_ports is not None and num_ports >= 1:
            for key, port in (("ingress", self.ingress), ("egress", self.egress)):
                if not 0 <= port < num_ports:
                    bad.append(f"{key}: port out of range")
        return [f"source.{self.source_id}.{v}" for v in bad]


@dataclass
class CbrSpec(_Source):
    kind: ClassVar[str] = "cbr"
    rate: float  # bits/s
    start: Seconds = 0.0
    stop: Seconds | None = None

    def _problems(self) -> list[str]:
        bad = []
        if self.rate <= 0:
            bad.append("rate: must be positive")
        elif self.packet_size > 0 and tx_ns(self.packet_size, self.rate) < 1:
            # a period that tx_ns rounds to 0 would emit at the same
            # instant forever
            bad.append("rate: must leave at least 1 ns between packets")
        if self.start < 0:
            bad.append("start: must be non-negative")
        if self.stop is not None and _empty(self.start, self.stop):
            bad.append("stop: must follow start")
        return bad


@dataclass
class TcpGroupSpec(_Source):
    kind: ClassVar[str] = "tcp_group"
    count: int
    link_rate: float  # bits/s of the shared access link
    window_start: Seconds  # each source starts uniformly inside
    window_end: Seconds
    link_buffer: int = 50000  # bytes
    one_way: Seconds = 20e-3  # propagation each way

    def _problems(self) -> list[str]:
        return [message for broken, message in (
            (self.count <= 0, "count: must be positive"),
            (self.link_rate <= 0, "link_rate: must be positive"),
            (self.window_start < 0, "window_start: must be non-negative"),
            (self.window_end < self.window_start,
             "window_end: must not precede window_start"),
            (self.link_buffer < max(self.packet_size, 1),
             "link_buffer: must hold a packet_size segment"),
            (self.one_way < 0, "one_way: must be non-negative")) if broken]


SourceSpec = CbrSpec | TcpGroupSpec
_KINDS = {cls.kind: cls for cls in (CbrSpec, TcpGroupSpec)}


@dataclass
class ExperimentConfig:
    switch: SwitchConfig
    duration: Seconds
    sources: list[SourceSpec] = field(default_factory=list)
    seed: int = 1

    def validate(self) -> list[str]:
        """Every violation of the switch, source and duration rules, in the
        text path's order: a file whose values all parse, with no red key
        under droptail, is refused with these and then its unknown keys."""
        sw = self.switch
        return (sw.validate() + [v for spec in self.sources
                                 for v in spec.validate(sw.num_ports, sw.flows)]
                + _short_periods(("experiment.duration", self.duration)))


def _value_type(hint):
    """int, float, Seconds, or a dict from each allowed string to its value;
    None for a nested section or a collection."""
    if get_origin(hint) in (Union, types.UnionType):  # X | None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if hint in (int, float, Seconds):
        return hint
    if get_origin(hint) is Literal:
        return {choice: choice for choice in get_args(hint)}
    return None


def _schema(cls) -> dict[str, tuple]:
    """Config key -> (field name, value type, default or MISSING)."""
    hints = get_type_hints(cls, include_extras=True)
    schema = {}
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        value_type = _value_type(hints[f.name])
        if key is not None and value_type is not None:
            schema[key] = (f.name, value_type, f.default)
    return schema


_SCHEMAS = {cls: _schema(cls) for cls in (
    SwitchConfig, RedParams, FeedbackConfig, FlowSpec, CbrSpec, TcpGroupSpec,
    ExperimentConfig)}


def parse_pairs(text: str) -> dict[str, str]:
    """Raw key -> value strings; syntax problems raise immediately."""
    pairs: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not (equals and key and value):
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key}")
            continue
        pairs[key] = value
    if problems:
        raise ConfigSyntaxError(problems)
    return pairs


def _parse(raw: str, value_type):
    """raw read as value_type: int, float, Seconds, or a dict from each
    allowed string to its value; ValueError says why it cannot be."""
    if isinstance(value_type, dict):
        if raw not in value_type:
            raise ValueError(f"must be one of {', '.join(value_type)}")
        return value_type[raw]
    if value_type is int:
        try:
            return int(raw)  # exact, where float would round past 2**53
        except ValueError:
            pass  # 1e3 or 2.0 may still name an integer
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    if value_type is int:
        if value != int(value):
            raise ValueError(f"expected an integer, got {raw!r}")
        return int(value)
    if value_type is Seconds and not math.isfinite(value * NS):
        raise ValueError("expected seconds that fit in integer "
                         f"nanoseconds, got {raw!r}")
    return value


def _pop(group, prefix, key, value_type, default, bad, required_by=""):
    """The value of prefix + key, popped from its section's group and
    parsed. A bad value is reported, and so is an absent one whose default
    is MISSING (a required key); either gives the default, None for
    MISSING."""
    raw = group.pop(key, None)
    if raw is None and default is MISSING:
        bad.append(f"{prefix}{key}: required by {required_by}")
    elif raw is not None:
        try:
            return _parse(raw, value_type)
        except ValueError as error:
            bad.append(f"{prefix}{key}: {error}")
    return None if default is MISSING else default


def _section(cls, groups, prefix, bad, required_by="", **given):
    """cls built from the fields it pops from the group of prefix, plus the
    given fields; a required key that is missing or bad leaves its field
    None."""
    group = groups.get(prefix, {})
    for key, (name, value_type, default) in _SCHEMAS[cls].items():
        given[name] = _pop(group, prefix, key, value_type, default, bad,
                           required_by)
    return cls(**given)


def build_experiment(pairs: dict[str, str]) -> ExperimentConfig:
    """Typed experiment from raw pairs; raises ConfigError with every
    violation when anything is wrong."""
    # the one pass: each raw value under its field, in the group of its
    # prefix (everything up to and with its last dot, "" for no dot)
    groups: dict[str, dict[str, str]] = {}
    for key, raw in pairs.items():
        prefix, dot, name = key.rpartition(".")
        groups.setdefault(prefix + dot, {})[name] = raw
    # the flow and source ids, as int() reads them: flow.<id>.<field>
    # holds its id in its prefix, flow.<id> in its field
    ids: dict[str, set[int]] = {"flow": set(), "source": set()}
    unread: set[str] = set()  # the keys of an id int() cannot read
    for prefix, group in groups.items():
        head, _, rest = prefix.partition(".")
        if head in ids:
            # each id text with the fields of its keys
            texts = ({rest.partition(".")[0]: group} if rest
                     else {name: (name,) for name in group})
            for text, names in texts.items():
                try:
                    ids[head].add(int(text))
                except ValueError:
                    unread.update(prefix + name for name in names)

    def refused(head):
        """The keys under head whose id int() cannot read, in file order."""
        return [f"{key}: {head} id must be an integer" for key in pairs
                if key in unread and key.startswith(head + ".")] if unread else []

    bad: list[str] = []
    if not any(prefix.startswith("switch.") for prefix in groups):
        bad.append("missing switch section")
    # the one switch key that is no field: it says whether red is used
    use_red = _pop(groups.get("switch.", {}), "switch.", "queue_mgmt",
                   {"droptail": False, "red": True}, False, bad)
    red = _section(RedParams, groups, "switch.red.", bad)
    if not use_red and any(prefix.startswith("switch.red.") for prefix in groups):
        bad.append("switch.red: red parameters given but queue_mgmt is droptail")
    bad += refused("flow")
    flows = {fid: _section(FlowSpec, groups, f"flow.{fid}.", bad)
             for fid in sorted(ids["flow"])}
    # required keys pass through as parsed (None only when already
    # reported), so validate() judges the value the file gave
    switch = _section(
        SwitchConfig, groups, "switch.", bad, "the switch section",
        flows=flows, red=red if use_red else None,
        feedback=_section(FeedbackConfig, groups, "switch.feedback.", bad))
    # range checks only make sense once every number of the switch parses
    if not bad:
        bad.extend(switch.validate())

    bad += refused("source")
    sources: list[SourceSpec] = []
    for sid in sorted(ids["source"]):
        p = f"source.{sid}."
        cls = _pop(groups.get(p, {}), p, "kind", _KINDS, MISSING, bad,
                   "every source")
        if cls is None:
            # which keys a source takes depends on its kind: report the
            # kind alone, not each other key as unknown
            groups = {q: left for q, left in groups.items() if not q.startswith(p)}
            continue
        parsed = len(bad)
        spec = _section(cls, groups, p, bad, f"{cls.kind} sources", source_id=sid)
        if len(bad) == parsed:
            bad.extend(spec.validate(switch.num_ports, flows))
        sources.append(spec)

    experiment = _section(ExperimentConfig, groups, "experiment.", bad,
                          "the experiment", switch=switch, sources=sources)
    bad += _short_periods(("experiment.duration", experiment.duration))

    # whatever no section took
    bad += [f"{key}: unknown key" for key in sorted(
        prefix + name for prefix, left in groups.items() for name in left)]
    if bad:
        raise ConfigError(bad)
    return experiment


def load_config(path: str | Path) -> ExperimentConfig:
    return build_experiment(parse_pairs(Path(path).read_text()))
