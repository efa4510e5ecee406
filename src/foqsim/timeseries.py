"""Measurement rows, held as columns, and their CSV form.

One row per (time, metric, port, flow); aggregates leave port/flow blank.
A sink takes rows in two steps: `label(metric, port, flow, unit)` returns
a handle, built once by whoever writes that series, and
`append(t, label, value)` adds one row under it. A `TimeSeries` keeps its
rows as three columns: times and values in `array('d')`, and a list of
references to the shared `(metric, port, flow, unit)` tuples its `label`
returns, so a row costs about 24 bytes whatever its label. Times and
values must be floats: the arrays would turn an int into a float that
prints differently, so `append` refuses anything else with TypeError.

`records` reads the rows as `Record`s, built on access: immutable named
tuples in column order that compare equal to the plain 6-tuple of their
fields. `select` matches on the labels' metrics before it builds any.

CSV is UTF-8 with LF newlines and round-trips exactly, unless a metric or
unit holds a bare carriage return, which csv.writer leaves unquoted (no
label the switch writes does). Its bytes are `csv.writer`'s with
`lineterminator="\n"`: floats as repr, None as an empty field, other
fields quoted where csv.writer quotes them, so equal seeds give
bit-identical files. One encoder writes them, `CsvSink`: its label is the
label's CSV text, and its `append` writes each row to a stream as it
arrives, holding none of them, so a run streamed to a file keeps bounded
memory however long it is. csv.writer itself encodes each distinct metric,
unit, port and flow once per sink (`_Fields`); every later occurrence is a
dict hit, so the caches grow with the distinct labels and ids, never with
the rows. `TimeSeries.to_csv` is that sink over a list of strings, joined
every 4,096 rows into one chunk: a `StringIO` on Python 3.11 keeps every
written string alive until 100,000 are pending, so it would hold up to
100k row strings at once.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Sequence
from itertools import compress, repeat
from operator import eq, itemgetter
from types import SimpleNamespace
from typing import NamedTuple

COLUMNS = ("t_sec", "metric", "port", "flow", "value", "unit")


class Record(NamedTuple):
    t: float
    metric: str
    port: int | None
    flow: int | None
    value: float
    unit: str


def _record_of(t, label, value) -> Record:
    """A row's Record, skipping the named tuple's keyword binding."""
    metric, port, flow, unit = label
    return tuple.__new__(Record, (t, metric, port, flow, value, unit))


def _refuse(t, value):
    raise TypeError(f"t and value must be floats, got {t!r} and {value!r}")


_HEADER = ",".join(COLUMNS) + "\n"
# rows TimeSeries.to_csv encodes before it joins their strings into one
_CHUNK_ROWS = 4096
# the id types _Fields stores: True and 1.0 equal 1 as dict keys, but
# csv.writer writes them as "True" and "1.0"
_STORED_IDS = frozenset((int, type(None)))


def _encode(field) -> str:
    """One field as csv.writer writes it inside a row.

    A row holding only an empty string is written as `""`, while an empty
    field among others is written as nothing, so the field is written as
    the first of two and the trailing `,\\n` cut off.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((field, ""))
    return buf.getvalue()[:-2]


class _Fields(dict):
    """The CSV text of each metric, unit, port and flow, encoded on first use.

    Keys are metric and unit strings and int or None ids; an id of any
    other type goes through `id_text`, which encodes it on every use.
    """

    def __missing__(self, field):
        text = self[field] = _encode(field)
        return text

    def id_text(self, value) -> str:
        return self[value] if type(value) in _STORED_IDS else _encode(value)


class TimeSeries:
    """Ordered rows, stored by column, with selection and CSV helpers."""

    def __init__(self, records=None):
        self._t = array("d")
        self._label: list[tuple] = []  # shared (metric, port, flow, unit)
        self._value = array("d")
        for t, metric, port, flow, value, unit in records or ():
            self.append(t, self.label(metric, port, flow, unit), value)

    @staticmethod
    def label(metric, port, flow, unit) -> tuple:
        """The label rows are appended under; every row holds a reference."""
        return (metric, port, flow, unit)

    def append(self, t, label, value):
        if type(t) is not float or type(value) is not float:
            _refuse(t, value)
        self._t.append(t)
        self._label.append(label)
        self._value.append(value)

    @property
    def records(self) -> "Rows":
        return Rows(self)

    def select(self, metric: str, port: int | None = None,
               flow: int | None = None) -> list[Record]:
        """Records for one metric, optionally narrowed to a port and flow."""
        t, labels, values = self._t, self._label, self._value
        hits = compress(range(len(t)),
                        map(eq, map(itemgetter(0), labels), repeat(metric)))
        return [_record_of(t[i], labels[i], values[i]) for i in hits
                if (port is None or labels[i][1] == port)
                and (flow is None or labels[i][2] == flow)]

    def __eq__(self, other):
        return isinstance(other, TimeSeries) and (
            (self._t, self._value, self._label)
            == (other._t, other._value, other._label))

    def __len__(self):
        return len(self._t)

    def to_csv(self) -> str:
        # the sink's writes, joined into a chunk every _CHUNK_ROWS rows
        rows: list[str] = []
        sink = CsvSink(SimpleNamespace(write=rows.append))
        append, label_of = sink.append, sink.label
        # each label object's text, keyed by identity: equal labels can
        # print apart (True and 1.0 equal 1); the series keeps every id in use
        texts = {}
        chunks = []
        for start in range(0, len(self._t), _CHUNK_ROWS):
            end = start + _CHUNK_ROWS
            for t, label, value in zip(self._t[start:end],
                                       self._label[start:end],
                                       self._value[start:end]):
                text = texts.get(id(label))
                if text is None:
                    text = texts[id(label)] = label_of(*label)
                append(t, text, value)
            chunks.append("".join(rows))
            rows.clear()
        chunks.append("".join(rows))  # the header of a series with no rows
        return "".join(chunks)

    @classmethod
    def from_csv(cls, text: str) -> "TimeSeries":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        series = cls()
        ts, labels, values = series._t, series._label, series._value
        # equal rows share one label: ids read back are int or None, so
        # labels that compare equal print the same
        shared = {}
        for t, metric, port, flow, value, unit in filter(None, reader):
            ts.append(float(t))
            label = (metric, None if port == "" else int(port),
                     None if flow == "" else int(flow), unit)
            labels.append(shared.setdefault(label, label))
            values.append(float(value))
        return series


class Rows(Sequence):
    """A series' rows as `Record`s, each built when it is read."""

    __slots__ = ("_series",)

    def __init__(self, series: TimeSeries):
        self._series = series

    def __len__(self):
        return len(self._series)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        s = self._series
        return _record_of(s._t[i], s._label[i], s._value[i])

    def __iter__(self):
        s = self._series
        return map(_record_of, s._t, s._label, s._value)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class CsvSink:
    """Takes rows like a TimeSeries and writes their CSV to a text stream.

    The one CSV encoder: `TimeSeries.to_csv` runs its rows through a sink
    over a list of strings. The header is written at once and each row as it
    arrives, in one write; the stream's own buffer, the field cache and the
    last time's text are all the sink holds. The caller owns the stream and
    closes it.
    """

    def __init__(self, stream):
        self._write = stream.write
        self._fields = _Fields()
        self._t = self._t_text = None
        self._write(_HEADER)

    def label(self, metric, port, flow, unit) -> tuple[str, str]:
        """The label rows are appended under: its CSV text, encoded once,
        in two parts, before and after the value."""
        fields = self._fields
        return (f"{fields[metric]},{fields.id_text(port)},"
                f"{fields.id_text(flow)}", fields[unit])

    def append(self, t, label, value):
        if type(t) is not float or type(value) is not float:
            _refuse(t, value)
        # the rows of one time share its text, whether they share one float
        # (a report window) or read equal ones out of an array (to_csv);
        # 0.0 equals -0.0 but prints apart, and a nan never equals itself
        if t != self._t or not t:
            self._t, self._t_text = t, repr(t)
        head, tail = label
        self._write(f"{self._t_text},{head},{value!r},{tail}\n")
