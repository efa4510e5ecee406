"""TimeSeries record keeping, its CSV round trip and the streaming sink."""

import csv
import io
import math
import random
import tracemalloc
from itertools import repeat

import pytest
from hypothesis import given, strategies as st

from foqsim.timeseries import _CHUNK_ROWS, COLUMNS, CsvSink, Record, TimeSeries


def put(sink, t, metric, port, flow, value, unit):
    """Append one 6-tuple row to a TimeSeries or a CsvSink via its label."""
    sink.append(t, sink.label(metric, port, flow, unit), value)


def sample_series() -> TimeSeries:
    ts = TimeSeries()
    put(ts, 0.001, "throughput_bps", 3, 1, 59.3e6, "bps")
    put(ts, 0.001, "fabric_queue_bytes", 3, None, 1000.0, "bytes")
    put(ts, 0.002, "rel_cong", 3, 1, 0.21875, "ratio")
    put(ts, 0.2, "delivered_bytes_total", None, 0, 238000.0, "bytes")
    return ts


class TestSelection:
    def test_select_by_metric(self):
        ts = sample_series()
        rows = ts.select("throughput_bps")
        assert len(rows) == 1
        assert rows[0].value == 59.3e6

    def test_select_narrows_port_and_flow(self):
        ts = sample_series()
        assert len(ts.select("rel_cong", port=3)) == 1
        assert ts.select("rel_cong", port=2) == []
        assert len(ts.select("rel_cong", port=3, flow=1)) == 1
        assert ts.select("rel_cong", flow=2) == []

    def test_len_and_eq(self):
        assert len(sample_series()) == 4
        assert sample_series() == sample_series()
        other = sample_series()
        put(other, 1.0, "x", None, None, 0.0, "bps")
        assert sample_series() != other

    def test_records_equal_only_sequences(self):
        records = sample_series().records
        assert records.__eq__(4) is NotImplemented
        assert records != 4


class TestCsv:
    def test_header(self):
        text = sample_series().to_csv()
        assert text.splitlines()[0] == ",".join(COLUMNS)

    def test_round_trip_exact(self):
        ts = sample_series()
        again = TimeSeries.from_csv(ts.to_csv())
        assert again == ts

    def test_blank_port_is_none(self):
        ts = TimeSeries.from_csv(sample_series().to_csv())
        totals = ts.select("delivered_bytes_total")
        assert totals[0].port is None
        assert totals[0].flow == 0

    def test_repr_floats_are_lossless(self):
        # awkward values must survive the text form bit-exactly
        ts = TimeSeries()
        put(ts, 1 / 3, "x", 0, 0, 0.1 + 0.2, "bps")
        put(ts, 2e-9, "x", 0, 0, 7.105427357601002e-15, "bps")
        again = TimeSeries.from_csv(ts.to_csv())
        assert again.records[0].t == 1 / 3
        assert again.records[0].value == 0.30000000000000004
        assert again.records[1].value == 7.105427357601002e-15

    def test_same_records_same_text(self):
        assert sample_series().to_csv() == sample_series().to_csv()

    def test_unexpected_header_refused(self):
        with pytest.raises(ValueError, match="unexpected header"):
            TimeSeries.from_csv("t,metric,value\n0.1,x,1.0\n")

    def test_lf_newlines(self):
        assert "\r" not in sample_series().to_csv()

    @pytest.mark.parametrize("text", [
        "t_sec,metric,port,flow,value,unit\n0.1,x,1,2,3.0\n",
        "t_sec,metric,port,flow,value,unit\n0.1,x,1,2,3.0,bps,extra\n",
        "t_sec,metric,port,flow,value,unit\nsoon,x,1,2,3.0,bps\n",
        "t_sec,metric,port,flow,value,unit\n0.1,x,1,2,lots,bps\n",
        "t_sec,metric,port,flow,value,unit\n0.1,x,one,2,3.0,bps\n",
        "t_sec,metric,port,flow,value,unit\n0.1,x,1,2.5,3.0,bps\n",
    ])
    def test_malformed_row_refused(self, text):
        with pytest.raises(ValueError):
            TimeSeries.from_csv(text)


class TestRecord:
    def test_frozen(self):
        r = Record(0.0, "x", None, None, 1.0, "bps")
        with pytest.raises(AttributeError):
            r.value = 2.0

    def test_equals_plain_tuple(self):
        r = TimeSeries.from_csv(sample_series().to_csv()).records[1]
        assert r == (0.001, "fabric_queue_bytes", 3, None, 1000.0, "bytes")
        assert r.value == 1000.0


def random_rows(count, seed=5):
    """Rows over a few metrics, ports and flows, blank ones included."""
    rng = random.Random(seed)
    metrics = ("throughput_bps", "rel_cong", "fabric_queue_bytes")
    ids = (None, 0, 1, 2, 300)
    return [(rng.random(), rng.choice(metrics), rng.choice(ids),
             rng.choice(ids), rng.uniform(-1e9, 1e9), rng.choice(("bps", "s")))
            for _ in range(count)]


class TestColumnarStore:
    def test_round_trip_with_blank_ports_and_flows(self):
        ts = TimeSeries(random_rows(200))
        again = TimeSeries.from_csv(ts.to_csv())
        assert again == ts
        assert again.to_csv() == ts.to_csv()
        assert {r.port for r in again.records} >= {None, 300}
        assert {r.flow for r in again.records} >= {None, 300}

    def test_blank_and_zero_ids_differ(self):
        ts = TimeSeries([(0.0, "x", None, 0, 1.0, "bps")])
        other = TimeSeries([(0.0, "x", 0, None, 1.0, "bps")])
        assert ts != other
        assert TimeSeries.from_csv(ts.to_csv()) != other

    def test_records_are_the_plain_rows(self):
        rows = random_rows(50)
        ts = TimeSeries(rows)
        assert len(ts.records) == len(rows)
        for i, row in enumerate(rows):
            assert ts.records[i] == row
            assert type(ts.records[i]) is Record
        assert ts.records[-1] == rows[-1]
        assert ts.records[3:7] == rows[3:7]
        assert list(ts.records) == rows
        assert ts.records == rows
        with pytest.raises(IndexError):
            ts.records[len(rows)]

    def test_records_read_the_live_series(self):
        ts = TimeSeries()
        view = ts.records
        put(ts, 0.5, "x", 1, 2, 3.0, "bps")
        assert view[0] == (0.5, "x", 1, 2, 3.0, "bps")

    @pytest.mark.parametrize("t, value", [(5, 1.0), (1.0, 5), (1.0, True),
                                          (1.0, "1.0"), (1.0, None)])
    def test_refuses_non_float_time_and_value(self, t, value):
        # the float arrays would print 5 as 5.0, so nothing but a float is
        # taken, in the store and in the sink alike
        ts = TimeSeries()
        with pytest.raises(TypeError):
            put(ts, t, "x", 0, 0, value, "bps")
        assert len(ts) == 0
        assert ts.to_csv() == ",".join(COLUMNS) + "\n"
        buf = io.StringIO()
        sink = CsvSink(buf)
        with pytest.raises(TypeError):
            put(sink, t, "x", 0, 0, value, "bps")
        assert buf.getvalue() == ",".join(COLUMNS) + "\n"

    def test_a_row_costs_at_most_32_bytes(self):
        # two float arrays and a list of references to one shared label
        ts = TimeSeries()
        label = ts.label("throughput_bps", 3, 1, "bps")
        rows = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in repeat(None, rows):
                ts.append(0.001, label, 1.0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / rows <= 32

    def test_select_matches_a_full_scan(self):
        ts = TimeSeries(random_rows(500))
        for metric in ("throughput_bps", "rel_cong", "absent"):
            for port in (None, 0, 300, 7):
                for flow in (None, 2, 300):
                    expected = [r for r in ts.records
                                if r.metric == metric
                                and (port is None or r.port == port)
                                and (flow is None or r.flow == flow)]
                    assert ts.select(metric, port, flow) == expected


class TestCsvSink:
    def test_writes_each_row_as_it_arrives(self):
        buf = io.StringIO()
        sink = CsvSink(buf)
        for n, row in enumerate(random_rows(5), start=1):
            put(sink, *row)
            assert buf.getvalue().count("\n") == 1 + n


def reference_csv(rows) -> str:
    """The CSV form as csv.writer writes it, header first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


# labels that need quoting or are empty; ids signed and past 64 bits
AWKWARD_LABELS = ("", ",", '"', "\r", "\n", 'say "a,b"\r\n', "débit µs", " ")
LABELS = st.text() | st.sampled_from(AWKWARD_LABELS)
IDS = (st.none() | st.integers() | st.integers(max_value=-1)
       | st.integers(min_value=2**63))
FLOATS = st.floats() | st.sampled_from(
    (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308))
ROWS = st.lists(st.tuples(FLOATS, LABELS, IDS, IDS, FLOATS, LABELS), max_size=40)


def awkward_rows(count, seed=11):
    """Rows whose labels need quoting and whose times repeat, as in a run."""
    rng = random.Random(seed)
    ids = (None, 0, -1, 3, 2**64)
    rows = []
    for n in range(count):
        t = (0.0, -0.0)[n % 2] if n < 8 else float(n // 50)
        rows.append((t, rng.choice(AWKWARD_LABELS), rng.choice(ids),
                     rng.choice(ids), rng.uniform(-1e9, 1e9),
                     rng.choice(AWKWARD_LABELS)))
    return rows


class TestCsvBytes:
    """The sink writes csv.writer's bytes, which no cache may change."""

    @given(ROWS)
    def test_both_writers_match_csv_writer(self, rows):
        assert TimeSeries(rows).to_csv() == reference_csv(rows)

    @staticmethod
    def check_awkward_rows(count):
        rows = awkward_rows(count)
        expected = reference_csv(rows)
        assert expected.count("\n") > count + 1  # some fields hold newlines
        assert TimeSeries(rows).to_csv() == expected

    def test_awkward_rows(self):
        self.check_awkward_rows(10_007)

    # to_csv joins its rows every _CHUNK_ROWS: one row short of a chunk,
    # exactly one, and one row into the next
    @pytest.mark.parametrize("count", [_CHUNK_ROWS - 1, _CHUNK_ROWS,
                                       _CHUNK_ROWS + 1])
    def test_awkward_rows_at_chunk_edges(self, count):
        self.check_awkward_rows(count)

    def test_negative_zero_time_after_zero(self):
        # equal as floats, and so as memo keys, yet printed differently
        rows = [(0.0, "x", 0, 0, 0.0, "s"), (-0.0, "x", 0, 0, -0.0, "s"),
                (0.0, "x", 0, 0, 0.0, "s")]
        text = TimeSeries(rows).to_csv()
        assert text.splitlines()[1:] == ["0.0,x,0,0,0.0,s", "-0.0,x,0,0,-0.0,s",
                                         "0.0,x,0,0,0.0,s"]
        assert text == reference_csv(rows)

    def test_ids_equal_to_a_cached_int_keep_their_text(self):
        # True and 1.0 hit 1 in a dict, but csv.writer writes them apart
        rows = [(0.0, "x", 1, 0, 1.0, "s"), (0.0, "x", True, 0.0, 1.0, "s"),
                (0.0, "x", 1.0, False, 1.0, "s")]
        expected = reference_csv(rows)
        assert "True,0.0" in expected and "1.0,False" in expected
        assert TimeSeries(rows).to_csv() == expected
