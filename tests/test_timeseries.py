"""TimeSeries record keeping, its CSV round trip and the streaming sink."""

import csv
import io
import math
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, strategies as st

from foqsim.timeseries import _SLICE_CHARS, COLUMNS, CsvSink, Record, TimeSeries


def put(sink, t, metric, port, flow, value, unit):
    """Write one 6-tuple row to a TimeSeries or a CsvSink as a one-row
    block under a label of its own."""
    sink.extend(t, [sink.label(metric, port, flow, unit)], [value])


def series_of(rows) -> TimeSeries:
    """A series of 6-tuple rows, written one by one."""
    ts = TimeSeries()
    for row in rows:
        put(ts, *row)
    return ts


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
        ts = series_of([row])
        assert TimeSeries.from_csv(ts.to_csv()) == ts
        assert series_of([row[:4] + (-math.nan, "s")]) == ts
        assert series_of([(math.nan,) + row[1:]]) == series_of(
            [(-math.nan,) + row[1:]])
        zero = series_of([(0.5, "x", 1, 2, 0.0, "s")])
        assert zero != series_of([(0.5, "x", 1, 2, -0.0, "s")])
        assert series_of([(0.0, "x", 1, 2, 1.0, "s")]) != series_of(
            [(-0.0, "x", 1, 2, 1.0, "s")])

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
        first, second = TimeSeries.from_csv(ts.to_csv()).records
        assert first.t == 1 / 3
        assert first.value == 0.30000000000000004
        assert second.value == 7.105427357601002e-15

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
        with pytest.raises(ValueError, match=r"line 2: "):
            TimeSeries.from_csv(text)

    # a quoted bare carriage return parses, but no sink could write it back
    @pytest.mark.parametrize("rows, line", [
        ('0.1,"a\rb",1,2,3.0,bps\n', 2),
        ('0.1,x,1,2,3.0,"a\rb"\n', 2),
        ('0.1,x,1,2,3.0,bps\n0.2,"a\rb",1,2,3.0,bps\n', 3),
    ])
    def test_unwritable_label_refused_with_its_line(self, rows, line):
        text = "t_sec,metric,port,flow,value,unit\n" + rows
        with pytest.raises(ValueError) as refused:
            TimeSeries.from_csv(text)
        assert str(refused.value) == (
            f"line {line}: metric or unit 'a\\rb' holds a bare carriage "
            "return, which csv.writer leaves unquoted")


class TestRecord:
    def test_frozen(self):
        r = Record(0.0, "x", None, None, 1.0, "bps")
        with pytest.raises(AttributeError):
            r.value = 2.0

    def test_equals_plain_tuple(self):
        _, r, *_ = TimeSeries.from_csv(sample_series().to_csv()).records
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


class Counted(TimeSeries):
    """A series that keeps the fields of each `label` call and the row
    count of each `extend` call."""

    def __init__(self):
        super().__init__()
        self.labels = []
        self.blocks = []

    def label(self, *fields):
        self.labels.append(fields)
        return super().label(*fields)

    def extend(self, t, labels, values):
        self.blocks.append(len(values))
        super().extend(t, labels, values)


class TestColumnarStore:
    """The rows a series holds, as its text, and how it reads them."""

    def test_round_trip_with_blank_ports_and_flows(self):
        ts = series_of(random_rows(200))
        again = TimeSeries.from_csv(ts.to_csv())
        assert again == ts
        assert again.to_csv() == ts.to_csv()
        assert {r.port for r in again.records} >= {None, 300}
        assert {r.flow for r in again.records} >= {None, 300}

    def test_blank_and_zero_ids_differ(self):
        ts = series_of([(0.0, "x", None, 0, 1.0, "bps")])
        other = series_of([(0.0, "x", 0, None, 1.0, "bps")])
        assert ts != other
        assert TimeSeries.from_csv(ts.to_csv()) != other

    def test_records_are_the_plain_rows(self):
        rows = random_rows(50)
        ts = series_of(rows)
        for record, row in zip(ts.records, rows, strict=True):
            assert record == row
            assert type(record) is Record
        assert list(ts.records) == rows

    def test_records_read_the_live_series(self):
        # each read iterates the series as it stands, not a copy
        ts = TimeSeries()
        assert list(ts.records) == []
        put(ts, 0.5, "x", 1, 2, 3.0, "bps")
        assert list(ts.records) == [(0.5, "x", 1, 2, 3.0, "bps")]
        put(ts, 0.5, "y", None, None, 4.0, "s")
        assert list(ts.records) == [(0.5, "x", 1, 2, 3.0, "bps"),
                                    (0.5, "y", None, None, 4.0, "s")]

    @pytest.mark.parametrize("t, value", [(5, 1.0), (1.0, 5), (1.0, True),
                                          (1.0, "1.0"), (1.0, None)])
    def test_refuses_non_float_time_and_value(self, t, value):
        # a time or value is written as its repr, and 5 would read back as
        # 5.0, so nothing but a float is taken, by the series and the sink
        # alike, in a one-row block or in a block whose other rows are floats
        ts, buf = TimeSeries(), io.StringIO()
        for sink, written in ((ts, lambda: (len(ts), ts.to_csv())),
                              (CsvSink(buf), buf.getvalue)):
            put(sink, 0.5, "x", 0, 0, 1.0, "bps")
            label = sink.label("x", 0, 0, "bps")
            before = written()
            with pytest.raises(TypeError):
                sink.extend(t, [label], [value])
            with pytest.raises(TypeError):
                sink.extend(t, [label] * 3, [1.0, value, 2.0])
            assert written() == before

    def test_refuses_a_block_of_unequal_lengths_and_writes_nothing(self):
        ts = TimeSeries()
        label = ts.label("x", 0, 0, "bps")
        ts.append(0.5, label, 1.0)
        before = ts.to_csv()
        with pytest.raises(ValueError):
            ts.extend(0.5, [label] * 3, [1.0, 2.0])
        assert (len(ts), ts.to_csv()) == (1, before)

    @pytest.mark.parametrize("t", [0.0, -0.0, math.nan])
    def test_rows_at_zero_or_nan_are_one_run(self, t):
        # each prints alike at every row, though 0.0 equals -0.0 and a nan
        # equals nothing: from_csv reads two blocks at t back as one, and
        # every row keeps its printed time
        ts = TimeSeries()
        label = ts.label("x", 0, 0, "s")
        ts.extend(t, [label] * 3, [1.0, 2.0, 3.0])
        ts.extend(t, [label] * 2, [4.0, 5.0])
        again = Counted.from_csv(ts.to_csv())
        assert again.blocks == [5]
        assert [repr(r.t) for r in again.records] == [repr(t)] * 5
        assert again == ts

    def test_negative_zero_after_zero_starts_a_run(self):
        # 0.0 equals -0.0 but prints apart, so from_csv reads the -0.0 rows
        # back as a block of their own, at their own time
        ts = TimeSeries()
        label = ts.label("x", 0, 0, "s")
        ts.extend(0.0, [label] * 2, [1.0, 2.0])
        ts.extend(-0.0, [label] * 2, [3.0, 4.0])
        ts.extend(-0.0, [label], [5.0])
        again = Counted.from_csv(ts.to_csv())
        assert again.blocks == [2, 3]
        assert [repr(r.t) for r in again.records] == ["0.0"] * 2 + ["-0.0"] * 3
        assert again == ts

    def test_plain_rows_share_one_label_per_distinct_label(self):
        # from_csv builds one label per distinct label text
        rows = random_rows(40_000)
        ts = Counted.from_csv(reference_csv(rows))
        labels = {(metric, port, flow, unit)
                  for _, metric, port, flow, _, unit in rows}
        assert len(ts.labels) == len(set(ts.labels)) == len(labels)
        assert set(ts.labels) == labels
        assert ts.to_csv() == reference_csv(rows)

    def test_select_matches_a_full_scan(self):
        ts = series_of(random_rows(500))
        for metric in ("throughput_bps", "rel_cong", "absent"):
            for port in (None, 0, 300, 7):
                for flow in (None, 2, 300):
                    expected = [r for r in ts.records
                                if r.metric == metric
                                and (port is None or r.port == port)
                                and (flow is None or r.flow == flow)]
                    assert ts.select(metric, port, flow) == expected


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
    """A series holds its text once, and a read holds no second copy."""

    def test_to_csv_peak_is_near_one_text(self):
        ts = series_of(random_rows(40_000))
        text, peak, _ = traced(ts.to_csv)
        assert len(text) >= 2_000_000 and text.isascii()
        assert text == reference_csv(ts.records)
        # the string the series holds, copied nowhere
        assert text is ts.to_csv()
        assert peak <= 0.001 * len(text)

    def test_a_series_peaks_near_its_text(self):
        # the text grows in place, block by block, as the switch writes
        # it; a list of blocks joined at the end would hold it twice
        ts = TimeSeries()
        labels = [ts.label("throughput_bps", port, 1, "bps")
                  for port in range(100)]
        values = [float(v) for v in range(100)]

        def fill():
            for k in range(1024):
                ts.extend(k / 1000, labels, values)
        _, peak, _ = traced(fill)
        assert len(ts) == 102_400
        assert len(ts.to_csv()) >= 3_000_000
        assert peak <= 1.1 * len(ts.to_csv())

    def test_a_full_read_holds_under_one_text(self):
        ts = series_of(random_rows(40_000))
        text = ts.to_csv()
        for read in (lambda: sum(1 for _ in ts.records),
                     lambda: ts.select("absent")):
            _, peak, _ = traced(read)
            assert peak <= len(text)

    def test_from_csv_peak_above_the_series_is_under_one_text(self):
        ts = series_of(random_rows(40_000))
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
        ts = series_of(rows_with_quoted_newline_at(index, newline))
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


def bare_cr(field) -> bool:
    """Whether csv.writer writes field with a carriage return unquoted, which
    csv.reader cannot read back."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([field, ""])
    return "\r" in buf.getvalue() and not buf.getvalue().startswith('"')


# labels that need quoting or are empty, and a carriage return csv.writer
# quotes; ids signed and past 64 bits
AWKWARD_LABELS = ("", ",", '"', ",\r", "\n", 'say "a,b"\r\n', "débit µs", " ")
LABELS = (st.text() | st.sampled_from(AWKWARD_LABELS)).filter(
    lambda field: not bare_cr(field))
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
    """The sink writes csv.writer's bytes."""

    @given(ROWS)
    def test_both_writers_match_csv_writer(self, rows):
        buf = io.StringIO()
        sink = CsvSink(buf)
        for row in rows:
            put(sink, *row)
        assert series_of(rows).to_csv() == buf.getvalue() == reference_csv(rows)

    def test_awkward_rows(self):
        rows = awkward_rows(10_007)
        expected = reference_csv(rows)
        assert expected.count("\n") > 10_007 + 1  # some fields hold newlines
        ts = series_of(rows)
        assert ts.to_csv() == expected
        assert list(TimeSeries.from_csv(expected).records) == rows

    def test_negative_zero_time_after_zero(self):
        # equal as floats, yet printed differently
        rows = [(0.0, "x", 0, 0, 0.0, "s"), (-0.0, "x", 0, 0, -0.0, "s"),
                (0.0, "x", 0, 0, 0.0, "s")]
        text = series_of(rows).to_csv()
        assert text.splitlines()[1:] == ["0.0,x,0,0,0.0,s", "-0.0,x,0,0,-0.0,s",
                                         "0.0,x,0,0,0.0,s"]
        assert text == reference_csv(rows)

    @pytest.mark.parametrize("field", ["", ",", '"', "\n"])
    def test_label_is_csv_writers_text(self, field):
        # the field as the metric and the unit, beside blank, negative and
        # wide ids
        sink = CsvSink(io.StringIO())
        for metric, port, flow, unit in ((field, 1, 2, field),
                                         (field, None, -3, "s"),
                                         ("x", 2**64, None, field)):
            head, tail = sink.label(metric, port, flow, unit)
            row = (0.5, metric, port, flow, 1.0, unit)
            assert reference_csv([]) + f"0.5{head}1.0{tail}" == (
                reference_csv([row])), row


class TestLabel:
    """`label` takes what reads back, and refuses the rest, writing
    nothing."""

    @staticmethod
    def sinks():
        """A series and a streaming sink, each holding one row."""
        ts, buf = TimeSeries(), io.StringIO()
        for sink, written in ((ts, lambda: (len(ts), ts.to_csv())),
                              (CsvSink(buf), buf.getvalue)):
            put(sink, 0.5, "x", 0, 0, 1.0, "bps")
            yield sink, written

    # True and 1.0 equal 1 and -0.0 equals 0, but each prints apart from
    # it; "1" would read back as 1
    @pytest.mark.parametrize("bad", [True, 1.0, "1", -0.0])
    def test_refuses_an_id_that_is_not_an_int(self, bad):
        for sink, written in self.sinks():
            before = written()
            for port, flow in ((bad, 1), (None, bad)):
                with pytest.raises(TypeError) as refused:
                    sink.label("x", port, flow, "s")
                assert str(refused.value) == (
                    "port and flow must be ints or None, got "
                    f"{port!r} and {flow!r}")
            assert written() == before

    @pytest.mark.parametrize("field", ["\r", "a\rb", "x\r"])
    def test_refuses_a_bare_carriage_return(self, field):
        # csv.writer leaves it unquoted, and csv.reader cannot read it
        assert bare_cr(field)
        for sink, written in self.sinks():
            before = written()
            for metric, unit in ((field, "s"), ("x", field)):
                with pytest.raises(ValueError) as refused:
                    sink.label(metric, 1, 2, unit)
                assert str(refused.value) == (
                    f"metric or unit {field!r} holds a bare carriage return, "
                    "which csv.writer leaves unquoted")
            assert written() == before

    @pytest.mark.parametrize("bad", [None, 1, b"x"])
    def test_refuses_a_metric_or_unit_that_is_not_a_str(self, bad):
        for sink, _ in self.sinks():
            for metric, unit in ((bad, "s"), ("x", bad)):
                with pytest.raises(TypeError, match=(
                        f"metric and unit must be str, got {bad!r}$")):
                    sink.label(metric, 1, 2, unit)

    @given(LABELS, LABELS, IDS, IDS)
    def test_a_label_it_takes_reads_back(self, metric, unit, port, flow):
        # csv.reader refuses a line holding NUL before Python 3.11
        assume(sys.version_info >= (3, 11) or "\0" not in metric + unit)
        ts = TimeSeries()
        ts.extend(0.5, [ts.label(metric, port, flow, unit)], [1.0])
        again = TimeSeries.from_csv(ts.to_csv())
        assert list(again.records) == [(0.5, metric, port, flow, 1.0, unit)]
        assert again == ts


# rows in runs of one time, a zero time right after a negative zero, and
# nan times
RUN_TIMES = st.sampled_from((0.0, -0.0, math.nan, 0.5, 2.0)) | st.floats()
RUN_IDS = st.sampled_from((None, 0, 1, 2))
RUN_ROW = st.tuples(st.sampled_from(("a", "b")), RUN_IDS, RUN_IDS,
                    FLOATS, st.sampled_from(("s", "bps")))
RUNS = st.lists(
    st.tuples(RUN_TIMES, st.lists(RUN_ROW, min_size=1, max_size=4)),
    max_size=10)
# each float that equals another but prints apart, or that prints alike
# but equals nothing
ALIKE = {0.0: (0.0, -0.0), -0.0: (0.0, -0.0), "nan": (math.nan, -math.nan)}


def alike(x) -> list:
    """x and the floats that equal it or print as it does."""
    return list(ALIKE.get("nan" if math.isnan(x) else x, (x,)))


def printed(rows) -> list[tuple]:
    """Each row's fields by repr, so nan matches nan and 0.0 not -0.0."""
    return [tuple(map(repr, row)) for row in rows]


def rows_of(runs) -> list[tuple]:
    return [(t, metric, port, flow, value, unit)
            for t, run in runs for metric, port, flow, value, unit in run]


class TestRunsAndHandles:
    """The rows of runs at one time, written in blocks under labels built
    per block, read back as written."""

    @given(RUNS)
    @example([(-0.0, [("a", 1, None, 1.0, "s")]),
              (0.0, [("a", 1, None, 1.0, "s")]),
              (math.nan, [("a", 1, 0, 1.0, "s")] * 2)])
    def test_rows_read_back_as_appended(self, runs):
        rows = rows_of(runs)
        ts = TimeSeries()
        for t, run in runs:
            ts.extend(t, [ts.label(metric, port, flow, unit)
                          for metric, port, flow, _, unit in run],
                      [value for _, _, _, value, _ in run])
        assert len(ts) == len(rows)
        assert printed(ts.records) == printed(rows)
        for metric in ("a", "b", "absent"):
            for port in (None, 0, 1):
                for flow in (None, 0, 1, 2):
                    expected = [row for row in rows if row[1] == metric
                                and (port is None or row[2] == port)
                                and (flow is None or row[3] == flow)]
                    assert printed(ts.select(metric, port, flow)) == (
                        printed(expected))
        one_by_one = series_of(rows)
        assert printed(one_by_one.records) == printed(rows)
        assert ts == one_by_one
        assert ts.to_csv() == one_by_one.to_csv() == reference_csv(rows)
        assert TimeSeries.from_csv(ts.to_csv()) == ts

    @given(RUNS, st.data())
    def test_equal_exactly_when_printed_alike(self, runs, data):
        # the same rows with some times and values swapped for floats that
        # equal them but print apart (-0.0 for 0.0) or that print alike but
        # equal nothing (a nan of the other sign)
        rows = rows_of(runs)
        swapped = [(data.draw(st.sampled_from(alike(t))), metric, port, flow,
                    data.draw(st.sampled_from(alike(value))), unit)
                   for t, metric, port, flow, value, unit in rows]
        ts, other = series_of(rows), series_of(swapped)
        assert (ts == other) is (other == ts) is (
            printed(rows) == printed(swapped))


# times that print alike though they compare apart (nan) or that compare
# equal though they print apart (0.0 and -0.0), one that may continue the
# last block's, and any other float
BLOCK_TIMES = (st.sampled_from((0.0, -0.0, math.nan, math.inf, 0.5))
               | st.floats())
BLOCKS = st.lists(st.tuples(
    BLOCK_TIMES, st.lists(st.tuples(st.integers(0, 2), FLOATS), max_size=5),
    st.booleans()), max_size=12)


class TestExtend:
    """A block is written as its rows one by one."""

    @given(BLOCKS)
    @example([(0.5, [(0, 1.0)], True), (0.5, [], True),
              (0.5, [(1, 1.0)], False), (-0.0, [(0, 1.0), (1, 2.0)], True),
              (math.nan, [(2, math.nan)] * 3, True)])
    def test_extend_is_row_by_row_append(self, blocks):
        # each block goes in whole or as one-row blocks, to a series and to
        # a sink, and the reference takes every row through append
        ts, reference = TimeSeries(), TimeSeries()
        stream = io.StringIO()
        sink = CsvSink(stream)
        texts = [sink.label(metric, 0, None, "s") for metric in "abc"]
        for t, rows, whole in blocks:
            for store in (ts, sink):
                if whole:
                    store.extend(t, [texts[h] for h, _ in rows],
                                 [value for _, value in rows])
                else:
                    for h, value in rows:
                        store.extend(t, [texts[h]], [value])
            for h, value in rows:
                reference.append(t, texts[h], value)
        assert len(ts) == len(reference) == sum(len(r) for _, r, _ in blocks)
        assert ts.to_csv() == stream.getvalue() == reference.to_csv()
        assert ts == reference
        assert printed(reference.records) == printed(
            (t, "abc"[h], 0, None, value, "s")
            for t, rows, _ in blocks for h, value in rows)
