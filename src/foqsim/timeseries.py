"""Measurement records and their CSV form.

One record per (time, metric, port, flow); aggregates leave port/flow blank.
A record is an immutable named tuple in column order, so it compares equal
to the plain 6-tuple of its fields. CSV is UTF-8 with LF newlines and
round-trips exactly: the writer renders floats with repr and None as an
empty field, so equal seeds give bit-identical files.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple

COLUMNS = ("t_sec", "metric", "port", "flow", "value", "unit")


class Record(NamedTuple):
    t: float
    metric: str
    port: int | None
    flow: int | None
    value: float
    unit: str


class TimeSeries:
    """Ordered list of records with selection and CSV helpers."""

    def __init__(self, records: list[Record] | None = None):
        self.records: list[Record] = list(records) if records else []

    def append(self, t, metric, port, flow, value, unit):
        # tuple.__new__ skips the named tuple's keyword-binding constructor
        self.records.append(
            tuple.__new__(Record, (t, metric, port, flow, value, unit)))

    def select(self, metric: str, port: int | None = None,
               flow: int | None = None) -> list[Record]:
        """Records for one metric, optionally narrowed to a port and flow."""
        out = []
        for r in self.records:
            if r.metric != metric:
                continue
            if port is not None and r.port != port:
                continue
            if flow is not None and r.flow != flow:
                continue
            out.append(r)
        return out

    def value_at_end(self, metric: str, port=None, flow=None) -> float:
        rows = self.select(metric, port, flow)
        if not rows:
            raise KeyError(f"no records for {metric}")
        return rows[-1].value

    def __eq__(self, other):
        return isinstance(other, TimeSeries) and self.records == other.records

    def __len__(self):
        return len(self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(self.records)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "TimeSeries":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        records = []
        for row in reader:
            if not row:
                continue
            t, metric, port, flow, value, unit = row
            records.append(tuple.__new__(Record, (
                float(t), metric,
                None if port == "" else int(port),
                None if flow == "" else int(flow),
                float(value), unit,
            )))
        return cls(records)
