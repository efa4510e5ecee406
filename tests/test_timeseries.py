"""TimeSeries record keeping, its CSV round trip and the streaming sink."""

import csv
import io
import math
import random
import tracemalloc
from array import array
from itertools import repeat
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from foqsim.timeseries import (_CHUNK_ROWS, _SLICE_CHARS, COLUMNS, CsvSink,
                               Record, TimeSeries)


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

    def test_eq_compares_as_printed(self):
        # a nan, of either sign, prints `nan` and equals its own read-back;
        # 0.0 and -0.0 print apart, as a time and as a value
        row = (0.5, "x", 1, 2, math.nan, "s")
        ts = TimeSeries([row])
        assert TimeSeries.from_csv(ts.to_csv()) == ts
        assert TimeSeries([row[:4] + (-math.nan, "s")]) == ts
        assert TimeSeries([(math.nan,) + row[1:]]) == TimeSeries(
            [(-math.nan,) + row[1:]])
        zero = TimeSeries([(0.5, "x", 1, 2, 0.0, "s")])
        assert zero != TimeSeries([(0.5, "x", 1, 2, -0.0, "s")])
        assert TimeSeries([(0.0, "x", 1, 2, 1.0, "s")]) != TimeSeries(
            [(-0.0, "x", 1, 2, 1.0, "s")])

    def test_eq_compares_labels_as_printed(self):
        # True, 1 and 1.0 equal one another, and 0.0 equals -0.0, but each
        # id prints apart, so each makes a series of its own
        ids = (True, 1, 1.0, 0.0, -0.0)
        for field in (2, 3):  # the port, then the flow
            series = []
            for x in ids:
                row = [0.5, "x", 1, 2, 1.0, "s"]
                row[field] = x
                series.append(TimeSeries([tuple(row)]))
            assert len({ts.to_csv() for ts in series}) == len(ids)
            for i, a in enumerate(series):
                for j, b in enumerate(series):
                    assert (a == b) is (i == j), (ids[i], ids[j])

    def test_eq_holds_for_labels_built_in_another_order(self):
        # the same rows under label tables of another order, one with a
        # label no row uses and one with a label made twice
        a, b = TimeSeries(), TimeSeries()
        ax, ay = a.label("x", 1, 2, "s"), a.label("y", None, 2, "bps")
        b.label("unused", 0, 0, "s")
        by, bx = b.label("y", None, 2, "bps"), b.label("x", 1, 2, "s")
        bx2 = b.label("x", 1, 2, "s")
        a.extend(0.5, [ax, ay, ax], [1.0, 2.0, 3.0])
        b.extend(0.5, [bx, by, bx2], [1.0, 2.0, 3.0])
        a.append(1.0, ay, 4.0)
        b.append(1.0, by, 4.0)
        assert a == b and b == a
        assert a.to_csv() == b.to_csv()
        a.append(2.0, ax, 5.0)
        b.append(2.0, by, 5.0)
        assert a != b and b != a

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

    def test_empty_text_refused(self):
        # a bare StopIteration would end a map or generator over texts
        with pytest.raises(ValueError, match="missing header 't_sec,metric"):
            TimeSeries.from_csv("")

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
        # taken, in the store and in the sink alike, row by row or in a
        # block whose other rows are floats
        ts, buf = TimeSeries(), io.StringIO()
        for sink, written in ((ts, lambda: (len(ts), ts.to_csv())),
                              (CsvSink(buf), buf.getvalue)):
            put(sink, 0.5, "x", 0, 0, 1.0, "bps")
            label = sink.label("x", 0, 0, "bps")
            before = written()
            with pytest.raises(TypeError):
                sink.append(t, label, value)
            with pytest.raises(TypeError):
                sink.extend(t, [label] * 3, [1.0, value, 2.0])
            assert written() == before

    @pytest.mark.parametrize("labels, error", [
        ([0, 2], IndexError), ([0, -1], IndexError), ([0, 2**40], IndexError),
        ([0, 1.0], TypeError), ([0, "1"], TypeError), ([0, None], TypeError),
        ([0, 1, 1], ValueError)])
    def test_refuses_a_bad_handle_and_stores_nothing(self, labels, error):
        # a handle must index the series' own table of 2 labels; the error
        # comes at the call, before any row of the block is stored
        ts = TimeSeries()
        first = ts.label("x", 0, 0, "bps")
        ts.label("y", None, 1, "s")
        ts.append(0.5, first, 1.0)
        before = ts.to_csv()
        with pytest.raises(error):
            ts.extend(0.5, labels, [1.0, 2.0])
        if error is not ValueError:  # a length mismatch needs a block
            with pytest.raises(error):
                ts.append(0.5, labels[1], 1.0)
        assert len(ts) == 1
        assert ts.to_csv() == before

    def test_a_handle_past_the_table_is_named(self):
        ts = TimeSeries()
        ts.label("x", 0, 0, "bps")
        with pytest.raises(IndexError, match=r"handle 3 .* table of 1 label"):
            ts.append(0.5, 3, 1.0)
        with pytest.raises(IndexError, match=r"handle 5 .* table of 1 label"):
            ts.extend(0.5, [0, 5, 0], [1.0, 1.0, 1.0])

    @staticmethod
    def bytes_per_row(times) -> float:
        """The traced growth per row of appending a row at each time."""
        ts = TimeSeries()
        label = ts.label("throughput_bps", 3, 1, "bps")

        def fill():
            for t in times:
                ts.append(t, label, 1.0)
        _, _, grown = traced(fill)
        return grown / len(times)

    def test_a_row_costs_at_most_16_bytes(self):
        # a 4-byte handle and an 8-byte value; the time is held once per
        # run, and an array grows by up to 1/16 past what it holds
        assert self.bytes_per_row(list(repeat(0.001, 100_000))) <= 16

    def test_a_row_at_its_own_time_costs_at_most_26_bytes(self):
        # the worst case: a run per row adds its 8-byte time and 4-byte
        # start to the 12 bytes, 24 in all, plus the arrays' growth
        times = array("d", range(100_000))
        assert self.bytes_per_row(times) <= 26

    def test_plain_rows_share_one_label_per_distinct_label(self):
        rows = random_rows(40_000)
        ts = TimeSeries(rows)
        labels = {(metric, port, flow, unit)
                  for _, metric, port, flow, _, unit in rows}
        assert len(ts._labels) == len(labels)
        assert set(ts._labels) == labels
        # a label per row would encode a label text per row
        text, peak, _ = traced(ts.to_csv)
        assert text == reference_csv(rows)
        assert peak <= 1.5 * len(text)

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


def shared_label_series(count, seed=5) -> TimeSeries:
    """random_rows under one label per distinct label, as a run writes them."""
    ts = TimeSeries()
    labels = {}
    for t, metric, port, flow, value, unit in random_rows(count, seed):
        key = (metric, port, flow, unit)
        if key not in labels:  # label() makes a new handle on every call
            labels[key] = ts.label(*key)
        ts.append(t, labels[key], value)
    return ts


def traced(call):
    """call()'s result, and the traced peak and net growth it caused."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, current - before


FILLER = (0.5, "x", 1, 2, 0.25, "s")
FILLER_CHARS = len("0.5,x,1,2,0.25,s\n")


def rows_with_quoted_newline_at(index, newline):
    """Filler rows around one whose quoted metric `a{newline}b` puts its
    "\\n" at character `index` of the CSV text."""
    quoted = (0.5, f"a{newline}b", 1, 2, 0.25, "s")
    # the header and a first filler row, padded to take what whole filler
    # rows leave before the quoted row
    before = (index - len(",".join(COLUMNS) + "\n") - FILLER_CHARS
              - len('0.5,"a' + newline) + 1)
    count, pad = divmod(before, FILLER_CHARS)
    first = (0.5, "x" * (1 + pad), 1, 2, 0.25, "s")
    return [first] + [FILLER] * count + [quoted] + [FILLER] * 3


class TestCsvHeldOnce:
    """to_csv and from_csv hold at most one copy of the text."""

    def test_to_csv_peak_is_near_one_text(self):
        ts = shared_label_series(40_000)
        text, peak, _ = traced(ts.to_csv)
        assert len(text) >= 2_000_000 and text.isascii()
        assert text == reference_csv(ts.records)
        # the text, one chunk and its rows: a list of chunks joined at
        # the end would hold the text twice
        assert peak <= 1.5 * len(text)

    def test_from_csv_peak_above_the_series_is_under_one_text(self):
        ts = shared_label_series(40_000)
        text = ts.to_csv()
        assert len(text) >= 8 * _SLICE_CHARS and text.isascii()
        again, peak, grown = traced(lambda: TimeSeries.from_csv(text))
        assert again == ts
        # one StringIO over the whole text would hold it at 4 bytes a
        # character
        assert peak - grown <= len(text)

    # from_csv cuts its first slice after the first "\n" at or past
    # _SLICE_CHARS: a quoted row one line short of that edge, a quoted
    # newline at it, and a quoted row one line past it
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("lines", [-1, 0, 1])
    def test_quoted_newlines_at_slice_edges(self, newline, lines):
        index = _SLICE_CHARS + FILLER_CHARS * lines
        ts = TimeSeries(rows_with_quoted_newline_at(index, newline))
        text = ts.to_csv()
        assert text[index - len(newline):index + 2] == f"a{newline}b"
        assert (text.find("\n", _SLICE_CHARS) == index) == (lines == 0)
        again = TimeSeries.from_csv(text)
        assert again == ts
        assert again.to_csv() == text


class TestCsvSink:
    def test_writes_each_row_as_it_arrives(self):
        buf = io.StringIO()
        sink = CsvSink(buf)
        for n, row in enumerate(random_rows(5), start=1):
            put(sink, *row)
            assert buf.getvalue().count("\n") == 1 + n

    def test_writes_a_block_in_one_write(self):
        writes = []
        sink = CsvSink(SimpleNamespace(write=writes.append))
        labels = [sink.label("x", port, None, "bps") for port in range(5)]
        sink.extend(0.25, labels, [float(v) for v in range(5)])
        assert writes[1:] == ["".join(f"0.25,x,{v},,{v}.0,bps\n"
                                      for v in range(5))]


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


# rows in runs of one time, a zero time right after a negative zero, nan
# times, and ids that compare equal but print apart
RUN_TIMES = st.sampled_from((0.0, -0.0, math.nan, 0.5, 2.0)) | st.floats()
IDS = (None, 1, 1.0, True, 0, 0.0, -0.0)
EQUAL_IDS = st.sampled_from(IDS)
RUN_ROW = st.tuples(st.sampled_from(("a", "b")), EQUAL_IDS, EQUAL_IDS,
                    FLOATS, st.sampled_from(("s", "bps")))
RUNS = st.lists(
    st.tuples(RUN_TIMES, st.lists(RUN_ROW, min_size=1, max_size=4)),
    max_size=10)


def alike(field) -> list:
    """The ids of IDS that equal field, itself among them."""
    return [x for x in IDS if x == field]


def printed(rows) -> list[tuple]:
    """Each row's fields by repr, so nan matches nan and 0.0 not -0.0."""
    return [tuple(map(repr, row)) for row in rows]


class TestRunsAndHandles:
    """The runs of one time and the label handles read back every row."""

    @given(RUNS)
    @example([(-0.0, [("a", 1, None, 1.0, "s")]),
              (0.0, [("a", 1, None, 1.0, "s")]),
              (math.nan, [("a", True, 1.0, 1.0, "s")] * 2)])
    def test_rows_read_back_as_appended(self, runs):
        rows = [(t, metric, port, flow, value, unit)
                for t, run in runs for metric, port, flow, value, unit in run]
        ts = TimeSeries(rows)
        records = ts.records
        assert len(ts) == len(records) == len(rows)
        assert printed(records) == printed(rows)
        assert printed(records[i] for i in range(-len(rows), len(rows))) == (
            printed(rows + rows))
        assert printed(records[1:-1:2]) == printed(rows[1:-1:2])
        for metric in ("a", "b", "absent"):
            for port in (None, 0, 1):
                for flow in (None, 0, 1, 2):
                    expected = [row for row in rows if row[1] == metric
                                and (port is None or row[2] == port)
                                and (flow is None or row[3] == flow)]
                    assert printed(ts.select(metric, port, flow)) == (
                        printed(expected))
        one_by_one = TimeSeries()
        for row in rows:
            put(one_by_one, *row)
        assert printed(one_by_one.records) == printed(rows)
        assert ts == one_by_one
        assert ts.to_csv() == one_by_one.to_csv() == reference_csv(rows)

    @given(RUNS, st.data())
    def test_equal_exactly_when_printed_alike(self, runs, data):
        # the same rows with some ids swapped for equal ones that may print
        # apart (1 for True, -0.0 for 0.0), under a label table built in
        # reverse order
        rows = [(t, metric, port, flow, value, unit)
                for t, run in runs for metric, port, flow, value, unit in run]
        swapped = [(t, metric, data.draw(st.sampled_from(alike(port))),
                    data.draw(st.sampled_from(alike(flow))), value, unit)
                   for t, metric, port, flow, value, unit in rows]
        labels = {}  # each label by its fields' reprs, first seen first
        for t, metric, port, flow, value, unit in swapped:
            label = (metric, port, flow, unit)
            labels.setdefault(tuple(map(repr, label)), label)
        other = TimeSeries()
        handles = {key: other.label(*label)
                   for key, label in reversed(labels.items())}
        for t, metric, port, flow, value, unit in swapped:
            key = tuple(map(repr, (metric, port, flow, unit)))
            other.append(t, handles[key], value)
        ts = TimeSeries(rows)
        assert (ts == other) is (other == ts) is (ts.to_csv() == other.to_csv())


# a time that starts a run at every row (zeros, nan), one that may continue
# the last run, and any other float
BLOCK_TIMES = (st.sampled_from((0.0, -0.0, math.nan, math.inf, 0.5))
               | st.floats())
BLOCKS = st.lists(st.tuples(
    BLOCK_TIMES, st.lists(st.tuples(st.integers(0, 2), FLOATS), max_size=5),
    st.booleans()), max_size=12)


class TestExtend:
    """A block is stored and written as its rows appended one by one."""

    @given(BLOCKS)
    @example([(0.5, [(0, 1.0)], True), (0.5, [], True),
              (0.5, [(1, 1.0)], False), (-0.0, [(0, 1.0), (1, 2.0)], True),
              (math.nan, [(2, math.nan)] * 3, True)])
    def test_extend_is_row_by_row_append(self, blocks):
        # each block goes in whole or row by row, so appends and blocks
        # continue each other's runs as the reference's appends do; a
        # series' handles are 0, 1 and 2, and a sink's labels their texts
        ts, reference = TimeSeries(), TimeSeries()
        streams = io.StringIO(), io.StringIO()
        sink, reference_sink = map(CsvSink, streams)
        for series in ts, reference:
            for metric in "abc":
                series.label(metric, 0, None, "s")
        texts = [sink.label(metric, 0, None, "s") for metric in "abc"]
        for t, rows, whole in blocks:
            handles = [h for h, _ in rows]
            values = [value for _, value in rows]
            for store, label_of in ((ts, int), (sink, texts.__getitem__)):
                if whole:
                    store.extend(t, list(map(label_of, handles)), values)
                else:
                    for h, value in rows:
                        store.append(t, label_of(h), value)
            for h, value in rows:
                reference.append(t, h, value)
                reference_sink.append(t, texts[h], value)
        for column in ("_times", "_starts", "_label", "_value"):
            assert (getattr(ts, column).tobytes()
                    == getattr(reference, column).tobytes()), column
        assert streams[0].getvalue() == streams[1].getvalue()
        assert ts.to_csv() == streams[0].getvalue()
