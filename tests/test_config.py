"""Config file tests: pair syntax, typed building, violation collection,
and the shipped experiment files."""

import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import foqsim
from foqsim.config import (
    ConfigError,
    ConfigSyntaxError,
    build_experiment,
    load_config,
    parse_pairs,
)
from foqsim.config import (_KINDS, _SCHEMAS, CbrSpec, ExperimentConfig,
                           FeedbackConfig, FlowSpec, RedParams, Seconds,
                           SwitchConfig, TcpGroupSpec, _short_periods)
from foqsim.events import NS
from foqsim.experiment import Experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BENCH = ROOT / "bench"

MINIMAL = {
    "switch.num_ports": "2",
    "switch.line_rate": "1e6",
    "switch.speedup": "1.28",
    "switch.fabric_memory": "50000",
    "switch.out_queue_size": "50000",
    "flow.1.class": "assured",
    "experiment.duration": "1.0",
}


CBR = {
    "source.0.kind": "cbr",
    "source.0.flow": "1",
    "source.0.ingress": "0",
    "source.0.egress": "1",
    "source.0.packet_size": "1000",
    "source.0.rate": "1e6",
}

TCP = {
    "source.0.kind": "tcp_group",
    "source.0.flow": "1",
    "source.0.ingress": "0",
    "source.0.egress": "1",
    "source.0.packet_size": "104",
    "source.0.count": "10",
    "source.0.link_rate": "1e6",
    "source.0.window_start": "0",
    "source.0.window_end": "1",
}

# flow 1 made a policed premium flow
POLICED = {"flow.1.class": "premium", "flow.1.police_rate": "1e5"}

# every key of every section with a non-default value: raw text, then the
# value its field must hold
EVERY_KEY = {
    "switch.num_ports": ("3", 3),
    "switch.line_rate": ("2e6", 2e6),
    "switch.speedup": ("1.5", 1.5),
    "switch.fabric_memory": ("70000", 70000),
    "switch.out_queue_size": ("30000", 30000),
    "switch.report_interval": ("4e-3", 4e-3),
    "switch.red.max_p": ("0.3", 0.3),
    "switch.red.min_th": ("2000", 2000),
    "switch.red.max_th": ("5000", 5000),
    "switch.red.weight": ("0.2", 0.2),
    "switch.red.sample_interval": ("2e-3", 2e-3),
    "switch.feedback.mode": ("pi", "pi"),
    "switch.feedback.interval": ("5e-3", 5e-3),
    "switch.feedback.delay": ("1e-3", 1e-3),
    "switch.feedback.alpha": ("0.9", 0.9),
    "switch.feedback.gain_p": ("0.1", 0.1),
    "switch.feedback.gain_i": ("0.4", 0.4),
    "switch.feedback.d_max": ("0.2", 0.2),
    "switch.feedback.d_min": ("0.05", 0.05),
    "switch.feedback.table_size": ("32", 32),
    "switch.feedback.measure": ("dropprob", "dropprob"),
    "flow.0.class": ("premium", "premium"),
    "flow.0.weight": ("2", 2.0),
    "flow.0.police_rate": ("5e5", 5e5),
    "flow.0.police_burst": ("3000", 3000),
    "source.0.flow": ("0", 0),
    "source.0.ingress": ("1", 1),
    "source.0.egress": ("2", 2),
    "source.0.packet_size": ("700", 700),
    "source.0.rate": ("3e5", 3e5),
    "source.0.start": ("1e-3", 1e-3),
    "source.0.stop": ("0.5", 0.5),
    "source.1.flow": ("0", 0),
    "source.1.ingress": ("2", 2),
    "source.1.egress": ("0", 0),
    "source.1.packet_size": ("104", 104),
    "source.1.count": ("3", 3),
    "source.1.link_rate": ("4e6", 4e6),
    "source.1.window_start": ("0.1", 0.1),
    "source.1.window_end": ("0.2", 0.2),
    "source.1.link_buffer": ("9000", 9000),
    "source.1.one_way": ("5e-3", 5e-3),
    "experiment.duration": ("0.7", 0.7),
    "experiment.seed": ("9", 9),
}


def minimal(**over):
    pairs = dict(MINIMAL)
    for key, value in over.items():
        if value is None:
            pairs.pop(key, None)
        else:
            pairs[key] = value
    return pairs


class TestParsePairs:
    def test_comments_blank_lines_and_spacing(self):
        text = """
        # full line comment
        a.b = 1   # trailing comment

        c.d=  two words
        """
        assert parse_pairs(text) == {"a.b": "1", "c.d": "two words"}

    def test_missing_equals(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_pairs("a.b = 1\njust words\n")
        assert exc.value.violations == ["line 2: expected 'key = value'"]

    def test_empty_key_or_value(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_pairs("= 1\nx =\n")
        assert exc.value.violations == [
            "line 1: expected 'key = value'",
            "line 2: expected 'key = value'",
        ]

    def test_duplicate_key(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_pairs("a = 1\na = 2\n")
        assert exc.value.violations == ["line 2: duplicate key a"]

    def test_collects_all_problems(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_pairs("broken\na = 1\na = 2\n=\n")
        assert len(exc.value.violations) == 3


class TestBuildExperiment:
    def test_minimal_defaults(self):
        exp = build_experiment(minimal())
        assert exp.seed == 1
        assert exp.duration == 1.0
        assert exp.switch.red is None  # droptail by default
        assert exp.switch.feedback.mode == "off"
        assert exp.switch.flows[1].svc_class == "assured"
        assert exp.switch.flows[1].weight == 1.0
        assert exp.sources == []

    def test_red_defaults_fill_in(self):
        exp = build_experiment(minimal(**{
            "switch.queue_mgmt": "red", "switch.red.max_p": "0.5"}))
        assert exp.switch.red.max_p == 0.5
        assert exp.switch.red.min_th == RedParams().min_th
        assert exp.switch.red.weight == RedParams().weight

    def test_red_keys_with_droptail_rejected(self):
        with pytest.raises(ConfigError) as exc:
            build_experiment(minimal(**{"switch.red.max_p": "0.5"}))
        assert ("switch.red: red parameters given but queue_mgmt is droptail"
                in exc.value.violations)

    def test_collects_parse_level_violations(self):
        pairs = minimal(**{
            "switch.num_ports": "abc",
            "switch.fabric_memory": "2.5",
            "switch.queue_mgmt": "lifo",
            "experiment.duration": None,
            "mystery.key": "1",
        })
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        bad = exc.value.violations
        assert "switch.num_ports: expected a number, got 'abc'" in bad
        assert "switch.fabric_memory: expected an integer, got '2.5'" in bad
        assert "switch.queue_mgmt: must be one of droptail, red" in bad
        assert "experiment.duration: required by the experiment" in bad
        assert "mystery.key: unknown key" in bad

    def test_collects_structural_violations(self):
        pairs = minimal(**{
            "switch.speedup": "0.5",
            "source.0.kind": "cbr",
            "source.0.flow": "1",
            "source.0.ingress": "9",
            "source.0.egress": "1",
            "source.0.packet_size": "1000",
            "source.0.rate": "1e6",
        })
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        bad = exc.value.violations
        assert "switch.speedup: must exceed 1" in bad
        assert "source.0.ingress: port out of range" in bad

    def test_source_requires_kind_fields(self):
        pairs = minimal(**{"source.0.kind": "cbr", "source.0.flow": "1"})
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        bad = exc.value.violations
        for key in ("ingress", "egress", "packet_size", "rate"):
            assert f"source.0.{key}: required by cbr sources" in bad

    def test_source_undefined_flow(self):
        pairs = minimal(**{
            "source.0.kind": "cbr",
            "source.0.flow": "7",
            "source.0.ingress": "0",
            "source.0.egress": "1",
            "source.0.packet_size": "1000",
            "source.0.rate": "1e6",
        })
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert "source.0.flow: flow 7 is not defined" in exc.value.violations

    def test_tcp_group_window_order(self):
        pairs = minimal(**{
            "source.0.kind": "tcp_group",
            "source.0.flow": "1",
            "source.0.ingress": "0",
            "source.0.egress": "1",
            "source.0.packet_size": "104",
            "source.0.count": "10",
            "source.0.link_rate": "1e6",
            "source.0.window_start": "3",
            "source.0.window_end": "1",
        })
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert ("source.0.window_end: must not precede window_start"
                in exc.value.violations)

    @pytest.mark.parametrize("stop", ["0.2", "0.1", "-1"])
    def test_cbr_stop_must_follow_start(self, stop):
        # a window that closes when or before it opens used to validate ok
        # and send nothing
        pairs = minimal(**{**CBR, "source.0.start": "0.2",
                           "source.0.stop": stop})
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert exc.value.violations == ["source.0.stop: must follow start"]

    def test_cbr_stop_is_judged_in_whole_nanoseconds(self):
        # a stop that ns() rounds onto its start used to validate ok and
        # send nothing
        at_start = minimal(**{**CBR, "source.0.start": "0",
                              "source.0.stop": "0.4e-9"})
        with pytest.raises(ConfigError) as exc:
            build_experiment(at_start)
        assert exc.value.violations == ["source.0.stop: must follow start"]
        one_ns = build_experiment(minimal(**{**CBR, "source.0.start": "0",
                                             "source.0.stop": "0.6e-9"}))
        assert one_ns.sources[0].stop == 0.6e-9

    def test_missing_switch_section(self):
        pairs = {key: value for key, value in minimal().items()
                 if not key.startswith("switch.")}
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert exc.value.violations[0] == "missing switch section"

    def test_source_requires_its_kind(self):
        # without a kind the section's other keys cannot be judged, so
        # the kind is the only violation reported
        for source in (CBR, TCP):
            for kind, message in [
                    (None, "source.0.kind: required by every source"),
                    ("bogus", "source.0.kind: must be one of cbr, tcp_group")]:
                pairs = minimal(**{key: value for key, value in source.items()
                                   if key != "source.0.kind"})
                if kind is not None:
                    pairs["source.0.kind"] = kind
                with pytest.raises(ConfigError) as exc:
                    build_experiment(pairs)
                assert exc.value.violations == [message]

    @pytest.mark.parametrize("over, message", [
        ({**CBR, "source.0.packet_size": "0"},
         "source.0.packet_size: must be positive"),
        ({**TCP, "source.0.packet_size": "0"},
         "source.0.packet_size: must be positive"),
        # each of these used to run and deliver 0 B, or police nothing
        ({**CBR, "flow.1.police_rate": "1e5"},
         "flow.1.police_rate: only premium flows are policed"),
        ({**POLICED, "flow.1.police_burst": "-5"},
         "flow.1.police_burst: must be positive"),
        ({**TCP, "source.0.link_buffer": "0"},
         "source.0.link_buffer: must hold a packet_size segment"),
        ({**TCP, "source.0.link_buffer": "100"},
         "source.0.link_buffer: must hold a packet_size segment"),
        ({**POLICED, **CBR, "flow.1.police_burst": "100",
          "source.0.packet_size": "500"},
         "source.0.packet_size: exceeds flow 1's police_burst"),
    ])
    def test_refused_alone(self, over, message):
        with pytest.raises(ConfigError) as exc:
            build_experiment(minimal(**over))
        assert exc.value.violations == [message]

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError) as exc:
            build_experiment(minimal(**{"experiment.duration": "0"}))
        assert "experiment.duration: must be positive" in exc.value.violations

    @pytest.mark.parametrize("duration", ["1e-10", "0.4e-9"])
    def test_duration_must_be_at_least_1_ns(self, duration):
        # ns() would round it to 0, and the run would simulate only t = 0
        with pytest.raises(ConfigError) as exc:
            build_experiment(minimal(**{"experiment.duration": duration}))
        assert exc.value.violations == [
            "experiment.duration: must be at least 1 ns"]

    def test_duration_of_1_ns_after_rounding_is_taken(self):
        config = build_experiment(minimal(**{"experiment.duration": "0.6e-9"}))
        assert config.duration == 0.6e-9

    def test_bad_section_id(self):
        with pytest.raises(ConfigError) as exc:
            build_experiment(minimal(**{"flow.x.class": "assured"}))
        assert any("flow id must be an integer" in v
                   for v in exc.value.violations)

    @pytest.mark.parametrize("key, value, message", [
        ("num_ports", "0", "must be at least 1"),
        ("line_rate", "0", "must be positive"),
        ("speedup", "0", "must exceed 1"),
        ("fabric_memory", "0", "must be positive"),
        ("out_queue_size", "0", "must be positive"),
    ])
    def test_zero_values_are_judged_not_defaulted(self, key, value, message):
        pairs = minimal(**{
            f"switch.{key}": value,
            "source.0.kind": "cbr",
            "source.0.flow": "1",
            "source.0.ingress": "0",
            "source.0.egress": "1",
            "source.0.packet_size": "1000",
            "source.0.rate": "1e6",
        })
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        # the one violation names the key; a port count of 0 does not also
        # put every source's ports out of range
        assert exc.value.violations == [f"switch.{key}: {message}"]


    @pytest.mark.parametrize("key, value, message", [
        ("switch.report_interval", "0", "must be positive"),
        ("switch.report_interval", "-1e-3", "must be positive"),
        ("switch.feedback.interval", "1e-11", "must be at least 1 ns"),
        ("switch.red.sample_interval", "1e-11", "must be at least 1 ns"),
        # 1000-byte packets 0.5 ns and 0.08 ns apart, which tx_ns rounds to 0
        ("source.0.rate", "1.6e13", "must leave at least 1 ns between packets"),
        ("source.0.rate", "1e14", "must leave at least 1 ns between packets"),
    ])
    def test_periods_are_judged_in_nanoseconds(self, key, value, message):
        # each would pass a seconds check and then fail or never end in run;
        # the configs are only built, never run
        pairs = minimal(**{**CBR, key: value, "switch.queue_mgmt": "red"})
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert exc.value.violations == [f"{key}: {message}"]

    @pytest.mark.parametrize("source, key", [
        (CBR, "start"),
        (TCP, "window_start"),
        (TCP, "one_way"),
    ])
    def test_source_times_must_be_non_negative(self, source, key):
        pairs = minimal(**{**source, f"source.0.{key}": "-1e-3"})
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert exc.value.violations == [f"source.0.{key}: must be non-negative"]

    @pytest.mark.parametrize("source, key", [
        ({}, "switch.report_interval"),
        ({}, "switch.feedback.interval"),
        ({}, "switch.feedback.delay"),
        ({"switch.queue_mgmt": "red"}, "switch.red.sample_interval"),
        ({}, "experiment.duration"),
        (CBR, "source.0.start"),
        (CBR, "source.0.stop"),
        (TCP, "source.0.window_start"),
        (TCP, "source.0.window_end"),
        (TCP, "source.0.one_way"),
    ])
    @pytest.mark.parametrize("value", ["1e300", "-1e300"])
    def test_times_must_fit_in_nanoseconds(self, source, key, value):
        # 1e300 s is finite, but ns() of it overflows to infinity; these
        # configs are only built, never run
        pairs = minimal(**{**source, key: value})
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert exc.value.violations == [
            f"{key}: expected seconds that fit in integer nanoseconds, "
            f"got {value!r}"]

    def test_largest_times_still_build(self):
        pairs = minimal(**{"switch.feedback.interval": "1e299",
                           "experiment.duration": "1e299"})
        assert build_experiment(pairs).duration == 1e299

    def test_integers_keep_their_exact_value(self):
        # 2**53 + 1 has no float: read through float it was 2**53
        exp = build_experiment(minimal(**{
            "experiment.seed": "9007199254740993",
            "switch.fabric_memory": "1e5", "switch.num_ports": "2.0"}))
        assert exp.seed == 9007199254740993
        # the float forms of an integer still parse, to an int
        assert exp.switch.fabric_memory == 100_000
        assert type(exp.switch.num_ports) is int and exp.switch.num_ports == 2

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_numbers_must_be_finite(self, value):
        with pytest.raises(ConfigError) as exc:
            build_experiment(minimal(**{"switch.feedback.interval": value}))
        assert exc.value.violations == [
            f"switch.feedback.interval: expected a finite number, got {value!r}"]

    def test_every_key_reaches_its_field(self):
        pairs = {key: raw for key, (raw, _) in EVERY_KEY.items()}
        pairs.update({"switch.queue_mgmt": "red", "flow.1.class": "besteffort",
                      "source.0.kind": "cbr", "source.1.kind": "tcp_group"})
        exp = build_experiment(pairs)
        sw = exp.switch
        assert sw.red is not None
        assert sw.flows[1].svc_class == "besteffort"
        cbr, tcp = exp.sources
        assert type(cbr) is CbrSpec and type(tcp) is TcpGroupSpec
        # longest prefix first, so switch.red. wins over switch.
        owners = {"switch.red.": sw.red, "switch.feedback.": sw.feedback,
                  "switch.": sw, "flow.0.": sw.flows[0], "source.0.": cbr,
                  "source.1.": tcp, "experiment.": exp}
        checked = {prefix: set() for prefix in owners}
        for key, (_, expected) in EVERY_KEY.items():
            prefix = next(p for p in owners if key.startswith(p))
            name = key[len(prefix):].replace("class", "svc_class")
            owner = owners[prefix]
            default = next(f.default for f in fields(owner) if f.name == name)
            assert expected != default, key
            assert getattr(owner, name) == expected, key
            checked[prefix].add(name)
        # no key-backed field is left out of the table above
        not_keys = {"flows", "red", "feedback", "source_id", "switch", "sources"}
        for prefix, owner in owners.items():
            assert checked[prefix] == {f.name for f in fields(owner)} - not_keys

    @pytest.mark.parametrize("source, key, value", [
        (CBR, "count", "3"),
        (TCP, "rate", "1e6"),
    ])
    def test_other_kinds_keys_are_unknown(self, source, key, value):
        pairs = minimal(**{**source, f"source.0.{key}": value})
        with pytest.raises(ConfigError) as exc:
            build_experiment(pairs)
        assert exc.value.violations == [f"source.0.{key}: unknown key"]


# a valid switch and sources, built by hand as MINIMAL, CBR and TCP read
SWITCH = SwitchConfig(num_ports=2, line_rate=1e6, speedup=1.28,
                      fabric_memory=50000, out_queue_size=50000,
                      flows={1: FlowSpec()})
HAND_CBR = CbrSpec(source_id=0, flow=1, ingress=0, egress=1, packet_size=1000,
                   rate=1e6)
HAND_TCP = TcpGroupSpec(source_id=0, flow=1, ingress=0, egress=1,
                        packet_size=104, count=10, link_rate=1e6,
                        window_start=0.0, window_end=1.0)


def replace_in(config, old, new):
    """config with the section old, one of its own, replaced by new."""
    sw = config.switch
    if old is sw:
        return replace(config, switch=new)
    if old is config:
        return new
    if old in (sw.feedback, sw.red):
        return replace(config, switch=replace(sw, **{
            "feedback" if old is sw.feedback else "red": new}))
    if old in config.sources:
        return replace(config, sources=[new if s is old else s
                                        for s in config.sources])
    fid = next(fid for fid, spec in sw.flows.items() if spec is old)
    return replace(config, switch=replace(sw, flows={**sw.flows, fid: new}))


class TestHandBuiltConfigs:
    """`Experiment` judges a config built from dataclasses by the rules a
    parsed one passed, and refuses it with the text path's messages."""

    def test_the_hand_built_configs_are_the_parsed_ones(self):
        for source, spec in ((CBR, HAND_CBR), (TCP, HAND_TCP)):
            config = ExperimentConfig(SWITCH, 1.0, [spec])
            assert build_experiment(minimal(**source)) == config
            assert config.validate() == []

    @pytest.mark.parametrize("over, hand", [
        # each of these ran and injected 0 B when built by hand
        ({**TCP, "source.0.count": "0"},
         ExperimentConfig(SWITCH, 1.0, [replace(HAND_TCP, count=0)])),
        ({**TCP, "source.0.window_start": "0.5", "source.0.window_end": "0.2"},
         ExperimentConfig(SWITCH, 1.0, [replace(
             HAND_TCP, window_start=0.5, window_end=0.2)])),
        ({**TCP, "source.0.link_buffer": "50"},
         ExperimentConfig(SWITCH, 1.0, [replace(HAND_TCP, link_buffer=50)])),
        ({**CBR, "source.0.start": "0.1", "source.0.stop": "0.1"},
         ExperimentConfig(SWITCH, 1.0, [replace(HAND_CBR, start=0.1,
                                                stop=0.1)])),
        ({"experiment.duration": "0"}, ExperimentConfig(SWITCH, 0.0)),
        ({"switch.speedup": "0.5"},
         ExperimentConfig(replace(SWITCH, speedup=0.5), 1.0)),
    ])
    def test_refused_with_the_text_paths_messages(self, over, hand):
        with pytest.raises(ConfigError) as parsed:
            build_experiment(minimal(**over))
        with pytest.raises(ConfigError) as built:
            Experiment(hand)
        assert built.value.violations == parsed.value.violations
        assert hand.validate() == parsed.value.violations

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_value_by_hand_or_by_text(self, data):
        name = data.draw(st.sampled_from(sorted(SHIPPED)))
        key = data.draw(st.sampled_from(sorted(
            key for key in SHIPPED[name] if not key.endswith(
                ("kind", "mode", "measure", "class", "queue_mgmt")))))
        raw = data.draw(st.sampled_from(["0", "-1", "1", "50", "0.2",
                                         "1e-10", "1e7"]))
        self.check_one_value(name, key, raw)

    def test_a_short_link_buffer_by_hand_or_by_text(self):
        self.check_one_value("tcp_scaled", "source.0.link_buffer", "50")

    @staticmethod
    def check_one_value(name, key, raw):
        """A shipped config with one number changed, in its text and in its
        dataclasses: refused with the same violations, or the same config."""
        parsed = outcome(build_experiment, {**SHIPPED[name], key: raw})
        config = build_experiment(SHIPPED[name])
        prefix, _, field_key = key.rpartition(".")
        owner = {"switch": config.switch, "switch.feedback":
                 config.switch.feedback, "switch.red": config.switch.red,
                 "experiment": config}.get(prefix)
        if owner is None:
            head, fid = prefix.split(".")
            owner = (config.switch.flows[int(fid)] if head == "flow"
                     else config.sources[int(fid)])
        field_name, value_type, _ = _SCHEMAS[type(owner)][field_key]
        if value_type is int and float(raw) != int(float(raw)):
            return  # refused at parse, which a dataclass cannot be
        value = int(float(raw)) if value_type is int else float(raw)
        hand = replace_in(config, owner, replace(owner, **{field_name: value}))
        if isinstance(parsed, ExperimentConfig):
            # Experiment is not built: it could be 1e7 ports wide
            assert parsed == hand and hand.validate() == []
        else:
            assert (ConfigError, hand.validate()) == parsed
            with pytest.raises(ConfigError) as built:
                Experiment(hand)
            assert built.value.violations == hand.validate()

    def test_shipped_configs_pass(self):
        for name in SHIPPED:
            assert load_config(CONFIGS / f"{name}.cfg").validate() == []


class TestShippedConfigs:
    def test_all_fixture_files_load(self):
        for name in ("cbr_scaled.cfg", "cbr_scaled_nofoq.cfg",
                     "tcp_scaled.cfg", "tcp_scaled_nofoq.cfg"):
            load_config(CONFIGS / name)

    def test_cbr_fixture_values(self):
        exp = load_config(CONFIGS / "cbr_scaled.cfg")
        sw = exp.switch
        assert sw.num_ports == 16
        assert sw.line_rate == 100e6
        assert sw.red is None
        assert sw.feedback.mode == "gearbox"
        assert sw.flows[0].svc_class == "premium"
        assert sw.flows[0].police_rate == 9.52e6
        assert sw.flows[1].weight == 6.0
        assert sw.flows[2].weight == 1.0
        assert len(exp.sources) == 3
        assert exp.sources[2].start == 42e-6
        assert exp.duration == 0.2

    def test_cbr_nofoq_differs_only_in_mode(self):
        on = load_config(CONFIGS / "cbr_scaled.cfg")
        off = load_config(CONFIGS / "cbr_scaled_nofoq.cfg")
        assert on.switch.feedback.mode == "gearbox"
        assert off.switch.feedback.mode == "off"
        assert on.switch.flows == off.switch.flows
        assert on.sources == off.sources

    def test_tcp_fixture_values(self):
        exp = load_config(CONFIGS / "tcp_scaled.cfg")
        sw = exp.switch
        assert sw.num_ports == 6
        assert sw.line_rate == 10e6
        assert sw.out_queue_size == 40000
        assert sw.red.min_th == 10000 and sw.red.max_th == 30000
        assert sw.feedback.mode == "gearbox"
        assert sw.feedback.interval == 10e-3
        assert [s.count for s in exp.sources] == [1000, 1000, 1000, 1000, 500]
        assert [(s.window_start, s.window_end) for s in exp.sources] == [
            (0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0), (8.0, 9.0)]
        assert all(s.kind == "tcp_group" for s in exp.sources)
        assert all(s.link_buffer == 200000 for s in exp.sources)
        assert exp.duration == 10.0

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            load_config(CONFIGS / "does_not_exist.cfg")


def test_config_does_not_load_the_switch_model():
    # the config contract sits below the model: reading a config loads
    # only foqsim.config and foqsim.events
    child = ("import sys, foqsim.config\n"
             "print(sorted(m for m in sys.modules if m.startswith('foqsim')))")
    env = dict(os.environ, PYTHONPATH=str(Path(foqsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == str(["foqsim", "foqsim.config",
                                       "foqsim.events"])


# The reader that the one-pass reader in foqsim.config replaced, kept word
# for word as its reference, as HeapLoop is kept for the event kernel: a
# _Reader over the pairs with the set of keys it has read, a whole-file
# scan for each section's ids, and the unread keys reported unknown.

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
        if value_type is int:
            try:
                return int(raw)  # exact, where float would round past 2**53
            except ValueError:
                pass  # 1e3 or 2.0 may still name an integer
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
        if value_type is Seconds and not math.isfinite(value * NS):
            self.bad.append(f"{key}: expected seconds that fit in integer "
                            f"nanoseconds, got {raw!r}")
            return default
        return value

    def require(self, key, value_type, required_by: str):
        if key not in self.pairs:
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


def reference_build_experiment(pairs: dict[str, str]) -> ExperimentConfig:
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

    sources: list = []
    for sid in _section_ids(pairs, "source", bad):
        p = f"source.{sid}."
        cls = reader.require(p + "kind", _KINDS, "every source")
        if cls is None:
            # which keys a source takes depends on its kind: report the
            # kind alone, not each other key as unknown
            reader.seen.update(key for key in pairs if key.startswith(p))
            continue
        parsed = len(bad)
        spec = reader.section(cls, p, f"{cls.kind} sources", source_id=sid)
        if len(bad) == parsed:
            bad.extend(spec.validate(switch.num_ports, flows))
        sources.append(spec)

    experiment = reader.section(ExperimentConfig, "experiment.", "the experiment",
                                switch=switch, sources=sources)
    bad += _short_periods(("experiment.duration", experiment.duration))

    for key in sorted(pairs):
        if key not in reader.seen:
            bad.append(f"{key}: unknown key")
    if bad:
        raise ConfigError(bad)
    return experiment


def outcome(build, pairs):
    """What `build` makes of a copy of pairs: the config, or the type and
    the violations (or text) of what it raised."""
    try:
        return build(dict(pairs))
    except ConfigError as error:
        return type(error), error.violations
    except Exception as error:  # noqa: BLE001 - compared, not hidden
        return type(error), str(error)


@cache
def wide_pairs(seed: int) -> dict[str, str]:
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import wide_cbr_pi_text
    finally:
        sys.path.remove(str(BENCH))
    return parse_pairs(wide_cbr_pi_text(seed, ports=2))


SHIPPED = {name: parse_pairs((CONFIGS / f"{name}.cfg").read_text())
           for name in ("cbr_scaled", "cbr_scaled_nofoq", "tcp_scaled",
                        "tcp_scaled_nofoq")}

# values that parse, parse to a refused value, or do not parse as the
# field's type; "" is one parse_pairs never gives, but a caller may
VALUES = ("abc", "0", "-1", "1", "2.5", "1e300", "inf", "nan", "1e-12",
          "0.5", "65000", "premium", "red", "pi", "cbr", "tcp_group", "")


def _id_forms(sid: str) -> list[str]:
    """Non-canonical spellings that int() reads as the same id."""
    forms = ["0" + sid, "+" + sid]
    if len(sid) > 1:
        forms.append("_".join(sid))
    return forms


@st.composite
def perturbed(draw) -> dict[str, str]:
    """A shipped or wide config with up to three edits."""
    base = draw(st.sampled_from([*SHIPPED, "wide"]))
    pairs = dict(SHIPPED[base] if base != "wide"
                 else wide_pairs(draw(st.integers(1, 200))))
    for _ in range(draw(st.integers(0, 3))):
        keys = sorted(pairs)
        edit = draw(st.sampled_from(["drop", "section", "value", "kind",
                                     "rename", "nested", "dotless", "bad_id"]))
        if edit == "drop":
            del pairs[draw(st.sampled_from(keys))]
        elif edit == "section":
            # every key that shares a drawn key's prefix
            prefix = draw(st.sampled_from(keys)).rpartition(".")[0] + "."
            pairs = {key: raw for key, raw in pairs.items()
                     if key.rpartition(".")[0] + "." != prefix}
        elif edit == "value":
            pairs[draw(st.sampled_from(keys))] = draw(st.sampled_from(VALUES))
        elif edit == "kind":
            kinds = [key for key in keys if key.endswith(".kind")]
            if kinds:
                del pairs[draw(st.sampled_from(kinds))]
        elif edit == "rename":
            # one key, or every key, of a flow or source to another
            # spelling of its id
            ided = [key for key in keys
                    if key.startswith(("flow.", "source."))]
            if not ided:
                continue
            head, sid = draw(st.sampled_from(ided)).split(".")[:2]
            form = draw(st.sampled_from(_id_forms(sid)))
            section = [key for key in keys
                       if key.startswith(f"{head}.{sid}.")]
            if draw(st.booleans()):
                section = [draw(st.sampled_from(section))]
            for key in section:
                pairs[f"{head}.{form}.{key.split('.', 2)[2]}"] = pairs.pop(key)
        elif edit == "nested":
            prefix = draw(st.sampled_from([
                "switch.", "switch.red.", "switch.feedback.", "flow.1.",
                "source.1.", "source.0.", "experiment."]))
            pairs[prefix + "x.y"] = draw(st.sampled_from(VALUES))
        elif edit == "dotless":
            name = draw(st.sampled_from(["mystery", "switch", "flow", "1"]))
            pairs[name] = draw(st.sampled_from(VALUES))
        else:
            key = draw(st.sampled_from([
                "flow.x.class", "flow..class", "source.a.kind",
                "source.1.5.kind", "flow.2", "source.3", "flow.", "source.-1.kind"]))
            pairs[key] = draw(st.sampled_from(VALUES))
    return pairs


# each read from the reference on MINIMAL with these keys added
READ_AT_THE_REFERENCE = [
    ({"source.01.kind": "cbr"},
     ["source.1.kind: required by every source",
      "source.01.kind: unknown key"]),
    ({"source.1.x.y": "1", "source.1.flow": "1"},
     ["source.1.kind: required by every source"]),
    ({"flow.x.class": "assured"},
     ["flow.x.class: flow id must be an integer",
      "flow.x.class: unknown key"]),
    ({"flow.1": "2", "mystery": "1"},
     ["flow.1: unknown key", "mystery: unknown key"]),
    ({"switch.red.max_p": "0.5", "switch.red.foo": "1"},
     ["switch.red: red parameters given but queue_mgmt is droptail",
      "switch.red.foo: unknown key"]),
    ({"source.1_0.kind": "cbr"},
     ["source.10.kind: required by every source",
      "source.1_0.kind: unknown key"]),
]


@pytest.mark.parametrize("added, violations", READ_AT_THE_REFERENCE)
def test_non_canonical_and_stray_keys(added, violations):
    for build in (build_experiment, reference_build_experiment):
        assert outcome(build, minimal(**added)) == (ConfigError, violations)


def _with_examples(test):
    for added, _ in READ_AT_THE_REFERENCE:
        test = example(pairs=minimal(**added))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(pairs=perturbed())
@_with_examples
@example(pairs=SHIPPED["tcp_scaled"])
def test_reader_matches_the_reference(pairs):
    # the same config, or the same violations in the same order
    assert outcome(build_experiment, pairs) == outcome(
        reference_build_experiment, pairs)
