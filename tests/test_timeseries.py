"""TimeSeries record keeping and its CSV round trip."""

import pytest

from foqsim.timeseries import COLUMNS, Record, TimeSeries


def sample_series() -> TimeSeries:
    ts = TimeSeries()
    ts.append(0.001, "throughput_bps", 3, 1, 59.3e6, "bps")
    ts.append(0.001, "fabric_queue_bytes", 3, None, 1000.0, "bytes")
    ts.append(0.002, "rel_cong", 3, 1, 0.21875, "ratio")
    ts.append(0.2, "delivered_bytes_total", None, 0, 238000.0, "bytes")
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

    def test_value_at_end(self):
        ts = sample_series()
        ts.append(0.003, "rel_cong", 3, 1, 0.1, "ratio")
        assert ts.value_at_end("rel_cong", port=3, flow=1) == 0.1
        with pytest.raises(KeyError):
            ts.value_at_end("nonexistent")

    def test_len_and_eq(self):
        assert len(sample_series()) == 4
        assert sample_series() == sample_series()
        other = sample_series()
        other.append(1.0, "x", None, None, 0.0, "bps")
        assert sample_series() != other


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
        ts.append(1 / 3, "x", 0, 0, 0.1 + 0.2, "bps")
        ts.append(2e-9, "x", 0, 0, 7.105427357601002e-15, "bps")
        again = TimeSeries.from_csv(ts.to_csv())
        assert again.records[0].t == 1 / 3
        assert again.records[0].value == 0.30000000000000004
        assert again.records[1].value == 7.105427357601002e-15

    def test_same_records_same_text(self):
        assert sample_series().to_csv() == sample_series().to_csv()

    def test_lf_newlines(self):
        assert "\r" not in sample_series().to_csv()


class TestRecord:
    def test_frozen(self):
        r = Record(0.0, "x", None, None, 1.0, "bps")
        with pytest.raises(AttributeError):
            r.value = 2.0

    def test_equals_plain_tuple(self):
        r = TimeSeries.from_csv(sample_series().to_csv()).records[1]
        assert r == (0.001, "fabric_queue_bytes", 3, None, 1000.0, "bytes")
        assert r.value == 1000.0
