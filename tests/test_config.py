"""Config file tests: pair syntax, typed building, violation collection,
and the shipped experiment files."""

from dataclasses import fields
from pathlib import Path

import pytest

from foqsim.config import (
    ConfigError,
    ConfigSyntaxError,
    build_experiment,
    load_config,
    parse_pairs,
)
from foqsim.config import CbrSpec, TcpGroupSpec
from foqsim.switch import RedParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
