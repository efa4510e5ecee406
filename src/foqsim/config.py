"""Experiment config files: flat `key = value` lines with dotted keys.

Lines are `key = value`, blank, or `#` comments. Keys group into sections by
their first dotted component: switch.*, flow.<id>.*, source.<id>.*, and
experiment.*. Validation is collecting, not fail-fast: every violation in
the file is reported, each prefixed by the offending key.

A section's keys are its dataclass's scalar fields, read once at import:
the annotation gives the type (int, float, or a Literal's or an Enum's
choices) and the default the default; a field without one is required.
`metadata={"key": ...}` renames a field's key, and None there means none.
A field annotated `Seconds` is a time, which must also fit the event
loop's integer nanoseconds.
"""

from __future__ import annotations

import math
import types
from dataclasses import MISSING, dataclass, field, fields
from enum import EnumMeta
from pathlib import Path
from typing import ClassVar, Literal, Union, get_args, get_origin, get_type_hints

from .events import NS, Seconds, tx_ns
from .switch import FeedbackConfig, FlowSpec, RedParams, SwitchConfig


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
        if num_ports is not None and num_ports >= 1:
            for key in ("ingress", "egress"):
                if not 0 <= getattr(self, key) < num_ports:
                    bad.append(f"{key}: port out of range")
        return [f"source.{self.source_id}.{v}" for v in bad]


@dataclass
class CbrSpec(_Source):
    kind: ClassVar[str] = "cbr"
    rate: float  # bits/s
    start: Seconds = 0.0
    stop: Seconds | None = None

    def _problems(self) -> list[str]:
        # a period that tx_ns rounds to 0 would emit at the same instant
        # forever
        return [message for broken, message in (
            (self.rate <= 0, "rate: must be positive"),
            (self.rate > 0 and self.packet_size > 0
             and tx_ns(self.packet_size, self.rate) < 1,
             "rate: must leave at least 1 ns between packets"),
            (self.start < 0, "start: must be non-negative")) if broken]


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
            (self.one_way < 0, "one_way: must be non-negative")) if broken]


SourceSpec = CbrSpec | TcpGroupSpec
_KINDS = {cls.kind: cls for cls in (CbrSpec, TcpGroupSpec)}


@dataclass
class ExperimentConfig:
    switch: SwitchConfig
    duration: Seconds
    sources: list[SourceSpec] = field(default_factory=list)
    seed: int = 1


def _value_type(hint):
    """int, float, Seconds, or a dict from each allowed string to its value;
    None for a nested section or a collection."""
    if get_origin(hint) in (Union, types.UnionType):  # X | None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if hint in (int, float, Seconds):
        return hint
    if get_origin(hint) is Literal:
        return {choice: choice for choice in get_args(hint)}
    if isinstance(hint, EnumMeta):
        return {member.value: member for member in hint}
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


class _Reader:
    """Typed access over the raw pairs, accumulating violations."""

    def __init__(self, pairs: dict[str, str], bad: list[str]):
        self.pairs = pairs
        self.bad = bad
        self.seen: set[str] = set()

    def get(self, key, value_type, default=None):
        """The parsed value, or default when the key is absent or bad;
        value_type is int, float, Seconds or a dict of the allowed strings."""
        self.seen.add(key)
        raw = self.pairs.get(key)
        if raw is None:
            return default
        if isinstance(value_type, dict):
            if raw not in value_type:
                self.bad.append(f"{key}: must be one of {', '.join(value_type)}")
                return default
            return value_type[raw]
        try:
            value = float(raw)
        except ValueError:
            self.bad.append(f"{key}: expected a number, got {raw!r}")
            return default
        if not math.isfinite(value):
            self.bad.append(f"{key}: expected a finite number, got {raw!r}")
            return default
        if value_type is int:
            if value != int(value):
                self.bad.append(f"{key}: expected an integer, got {raw!r}")
                return default
            return int(value)
        if value_type == Seconds and not math.isfinite(value * NS):
            self.bad.append(f"{key}: expected seconds that fit in integer "
                            f"nanoseconds, got {raw!r}")
            return default
        return value

    def require(self, key, value_type, required_by: str):
        if key not in self.pairs:
            self.seen.add(key)
            self.bad.append(f"{key}: required by {required_by}")
            return None
        return self.get(key, value_type)

    def section(self, cls, prefix: str, required_by: str = "", **given):
        """cls built from the keys under prefix plus the given fields; a
        required key that is missing or bad leaves its field None."""
        values = dict(given)
        for key, (name, value_type, default) in _SCHEMAS[cls].items():
            if default is MISSING:
                values[name] = self.require(prefix + key, value_type, required_by)
            else:
                values[name] = self.get(prefix + key, value_type, default)
        return cls(**values)


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


def build_experiment(pairs: dict[str, str]) -> ExperimentConfig:
    """Typed experiment from raw pairs; raises ConfigError with every
    violation when anything is wrong."""
    bad: list[str] = []
    reader = _Reader(pairs, bad)

    if not any(k.startswith("switch.") for k in pairs):
        bad.append("missing switch section")
    # the one switch key that is no field: it says whether red is used
    use_red = reader.get("switch.queue_mgmt", {"droptail": False, "red": True},
                         False)
    red = reader.section(RedParams, "switch.red.")
    if not use_red and any(k.startswith("switch.red.") for k in pairs):
        bad.append("switch.red: red parameters given but queue_mgmt is droptail")
    flows = {fid: reader.section(FlowSpec, f"flow.{fid}.")
             for fid in _section_ids(pairs, "flow", bad)}
    # required keys pass through as parsed (None only when already
    # reported), so validate() judges the value the file gave
    switch = reader.section(
        SwitchConfig, "switch.", "the switch section", flows=flows,
        red=red if use_red else None,
        feedback=reader.section(FeedbackConfig, "switch.feedback."))
    # range checks only make sense once every number of the switch parses
    if not bad:
        bad.extend(switch.validate())

    sources: list[SourceSpec] = []
    for sid in _section_ids(pairs, "source", bad):
        p = f"source.{sid}."
        cls = reader.require(p + "kind", _KINDS, "every source")
        if cls is None:
            continue
        parsed = len(bad)
        spec = reader.section(cls, p, f"{cls.kind} sources", source_id=sid)
        if len(bad) == parsed:
            bad.extend(spec.validate(switch.num_ports, flows))
        sources.append(spec)

    experiment = reader.section(ExperimentConfig, "experiment.", "the experiment",
                                switch=switch, sources=sources)
    if experiment.duration is not None and experiment.duration <= 0:
        bad.append("experiment.duration: must be positive")

    for key in sorted(pairs):
        if key not in reader.seen:
            bad.append(f"{key}: unknown key")
    if bad:
        raise ConfigError(bad)
    return experiment


def load_config(path: str | Path) -> ExperimentConfig:
    return build_experiment(parse_pairs(Path(path).read_text()))
