"""Measurement rows, held as columns, and their CSV form.

One row per (time, metric, port, flow); aggregates leave port/flow blank.
A `TimeSeries` keeps its rows as columns: times and values in `array('d')`,
and metric, port, flow and unit as lists of references. A run's rows share
a handful of metric, port, flow and unit objects, so a row it appends costs
about 50 bytes instead of a tuple of boxed values' 130. Times and values
must be floats: the arrays would turn an int into a float that prints
differently, so `append` refuses anything else with TypeError.

`records` reads the rows as `Record`s, built on access: immutable named
tuples in column order that compare equal to the plain 6-tuple of their
fields. `select` matches on the metric column before it builds any.

CSV is UTF-8 with LF newlines and round-trips exactly, unless a metric or
unit holds a bare carriage return, which csv.writer leaves unquoted (no
label the switch writes does). Its bytes are `csv.writer`'s with
`lineterminator="\n"`: floats as repr, None as an empty field, other
fields quoted where csv.writer quotes them, so equal seeds give
bit-identical files. csv.writer itself encodes each distinct metric, unit,
port and flow once per writer (`_Fields`); every later occurrence is a
dict hit, so the caches grow with the distinct labels and ids, never with
the rows. `to_csv` formats its columns a block of rows at a time.
`CsvSink` takes the same `append` and writes the same bytes to a stream
row by row as they arrive, holding none of them, so a run streamed to a
file keeps bounded memory however long it is.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Sequence
from functools import partial
from itertools import compress, repeat
from operator import eq
from typing import NamedTuple

COLUMNS = ("t_sec", "metric", "port", "flow", "value", "unit")


class Record(NamedTuple):
    t: float
    metric: str
    port: int | None
    flow: int | None
    value: float
    unit: str


# a Record from a 6-tuple, skipping the named tuple's keyword binding
_record = partial(tuple.__new__, Record)


def _refuse(t, value):
    raise TypeError(f"t and value must be floats, got {t!r} and {value!r}")


_HEADER = ",".join(COLUMNS) + "\n"
_BLOCK = 4096  # rows to_csv joins at a time: it never lists every line
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

    def id_texts(self, column):
        """The texts of a block of ports or flows."""
        if _STORED_IDS.issuperset(map(type, column)):
            return map(self.__getitem__, column)
        return map(self.id_text, column)


def _time_texts(times):
    """repr of each time in a block, each distinct time rendered once.

    The memo is keyed by the float's bits, since as floats 0.0 == -0.0
    and a nan equals nothing, not even itself.
    """
    keys = memoryview(times).cast("B").cast("Q")
    memo = {key: repr(t) for key, t in dict(zip(keys, times)).items()}
    return map(memo.__getitem__, keys)


class TimeSeries:
    """Ordered rows, stored by column, with selection and CSV helpers."""

    def __init__(self, records=None):
        self._t = array("d")
        self._metric: list[str] = []
        self._port: list[int | None] = []
        self._flow: list[int | None] = []
        self._value = array("d")
        self._unit: list[str] = []
        for row in records or ():
            self.append(*row)

    def append(self, t, metric, port, flow, value, unit):
        if type(t) is not float or type(value) is not float:
            _refuse(t, value)
        self._t.append(t)
        self._metric.append(metric)
        self._port.append(port)
        self._flow.append(flow)
        self._value.append(value)
        self._unit.append(unit)

    def _columns(self):
        return (self._t, self._metric, self._port, self._flow, self._value,
                self._unit)

    def _rows(self):
        """The rows as plain 6-tuples, in order."""
        return zip(*self._columns())

    @property
    def records(self) -> "Rows":
        return Rows(self)

    def select(self, metric: str, port: int | None = None,
               flow: int | None = None) -> list[Record]:
        """Records for one metric, optionally narrowed to a port and flow."""
        t, metrics, ports, flows, values, units = self._columns()
        hits = compress(range(len(t)), map(eq, metrics, repeat(metric)))
        return [_record((t[i], metrics[i], ports[i], flows[i], values[i], units[i]))
                for i in hits
                if (port is None or ports[i] == port)
                and (flow is None or flows[i] == flow)]

    def __eq__(self, other):
        return (isinstance(other, TimeSeries)
                and self._columns() == other._columns())

    def __len__(self):
        return len(self._t)

    def to_csv(self) -> str:
        fields = _Fields()
        label = fields.__getitem__
        t, metrics, ports, flows, values, units = self._columns()
        blocks = [_HEADER]
        for i in range(0, len(t), _BLOCK):
            j = i + _BLOCK
            lines = map(",".join, zip(
                _time_texts(t[i:j]), map(label, metrics[i:j]),
                fields.id_texts(ports[i:j]), fields.id_texts(flows[i:j]),
                map(repr, values[i:j]), map(label, units[i:j])))
            blocks.append("\n".join(lines) + "\n")
        return "".join(blocks)

    @classmethod
    def from_csv(cls, text: str) -> "TimeSeries":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        series = cls()
        ts, metrics, ports, flows, values, units = series._columns()
        for t, metric, port, flow, value, unit in filter(None, reader):
            ts.append(float(t))
            metrics.append(metric)
            ports.append(None if port == "" else int(port))
            flows.append(None if flow == "" else int(flow))
            values.append(float(value))
            units.append(unit)
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
        return _record(tuple(column[i] for column in self._series._columns()))

    def __iter__(self):
        return map(_record, self._series._rows())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class CsvSink:
    """Takes rows like a TimeSeries and writes their CSV to a text stream.

    The header is written at once and each row as it arrives, in one
    write; the stream's own buffer and the field cache are all the sink
    holds. The stream then holds exactly what TimeSeries.to_csv would
    return for the same rows. The caller owns the stream and closes it.
    """

    def __init__(self, stream):
        self._write = stream.write
        self._fields = _Fields()
        # the rows of one report window share one time object
        self._t = self._t_text = None
        self._write(_HEADER)

    def append(self, t, metric, port, flow, value, unit):
        if type(t) is not float or type(value) is not float:
            _refuse(t, value)
        if t is not self._t:
            self._t, self._t_text = t, repr(t)
        fields = self._fields
        self._write(f"{self._t_text},{fields[metric]},{fields.id_text(port)},"
                    f"{fields.id_text(flow)},{value!r},{fields[unit]}\n")
