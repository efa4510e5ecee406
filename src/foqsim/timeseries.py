"""Measurement rows, held as columns, and their CSV form.

One row per (time, metric, port, flow); aggregates leave port/flow blank.
A sink takes rows in two steps: `label(metric, port, flow, unit)` returns
a handle, built once by whoever writes that series, and
`append(t, label, value)` adds one row under it. A `TimeSeries` keeps its
rows by column: each row's value in an `array('d')` and its label as a
4-byte handle in an `array('I')`, indexing the series' own table of
`(metric, port, flow, unit)` tuples; and one time per run of rows at one
time, in an `array('d')`, with the run's first row in an `array('I')`.
A row costs 12 bytes plus 8 bytes a run (a report window writes its rows
at one time), and at most the 24 bytes it costs when each row starts a
run. A handle belongs to its series, and `label` makes a new one on every
call, with no lookup, so a writer builds each label once. Times and
values must be floats: the arrays would turn an int into a float that
prints differently, so `append` refuses anything else with TypeError.

`records` reads the rows as `Record`s, built on access: immutable named
tuples in column order that compare equal to the plain 6-tuple of their
fields. `select` decides once per label which it keeps and builds a
`Record` only for a row under one of those.

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
every 4,096 rows into one chunk (a `StringIO` on Python 3.11 keeps every
written string alive until 100,000 are pending, so it would hold up to
100k row strings at once), and each chunk is added to one string that
CPython grows in place, so the text is held once. It encodes each
handle's label on its first row, into a list indexed by handle.

`TimeSeries.from_csv` reads the text in slices of about 64K characters,
each cut just after a line feed and read through its own `StringIO`. One
`StringIO` over the whole text would hold it again at 4 bytes a
character; one slice and its `StringIO` are all the reader holds beside
the text and the series it builds. It keys its label table on the raw
field text, so a port and flow are parsed once per distinct label.
"""

from __future__ import annotations

import csv
import io
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import eq, sub
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


def _record_builder(labels: list[tuple]):
    """The function that makes a row's Record from its time, its handle
    into `labels` and its value, skipping the named tuple's keyword binding.
    """
    # what it reads is bound as locals, since it runs once per row
    def record(t, handle, value, labels=labels, new=tuple.__new__,
               cls=Record) -> Record:
        metric, port, flow, unit = labels[handle]
        return new(cls, (t, metric, port, flow, value, unit))
    return record


def _refuse(t, value):
    raise TypeError(f"t and value must be floats, got {t!r} and {value!r}")


_HEADER = ",".join(COLUMNS) + "\n"
# rows TimeSeries.to_csv encodes before it joins their strings into one
_CHUNK_ROWS = 4096
# characters of text TimeSeries.from_csv reads through one StringIO
_SLICE_CHARS = 1 << 16
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


def _printed_alike(a: array, b: array) -> bool:
    """Whether two float columns print alike, each float as its repr: equal
    bits do, and so do any two nans, which all print `nan`; 0.0 and -0.0
    do not."""
    return a.tobytes() == b.tobytes() or len(a) == len(b) and all(
        map(eq, map(repr, a), map(repr, b)))


def _slices(text: str):
    """`text` in slices of about _SLICE_CHARS characters, each cut just
    after a line feed.

    A slice runs on to the first line feed at or past _SLICE_CHARS, so it
    holds whole lines, split as one StringIO over all of the text splits
    them, at line feeds alone; csv.reader joins the lines of a quoted
    newline across slices as it does within one.
    """
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE_CHARS) + 1 or size
        yield text[start:end]
        start = end


class TimeSeries:
    """Ordered rows, stored by column, with selection and CSV helpers."""

    def __init__(self, records=None):
        # one entry per run of rows at one time: its time and its first row
        self._times = array("d")
        self._starts = array("I")
        self._last = None  # the time of the last run
        self._labels: list[tuple] = []  # (metric, port, flow, unit) by handle
        self._label = array("I")  # each row's handle
        self._value = array("d")
        # one handle per distinct label whose ids are int or None; an id of
        # another type can equal one that prints apart (True and 1.0 equal
        # 1, -0.0 equals 0.0), so its row gets a label of its own
        handles = {}
        for t, metric, port, flow, value, unit in records or ():
            if type(port) in _STORED_IDS and type(flow) in _STORED_IDS:
                key = (metric, port, flow, unit)
                handle = handles.get(key)
                if handle is None:
                    handle = handles[key] = self.label(*key)
            else:
                handle = self.label(metric, port, flow, unit)
            self.append(t, handle, value)

    def label(self, metric, port, flow, unit) -> int:
        """A new handle rows are appended under, valid in this series only."""
        labels = self._labels
        labels.append((metric, port, flow, unit))
        return len(labels) - 1

    def append(self, t, label, value):
        if type(t) is not float or type(value) is not float:
            _refuse(t, value)
        self._label.append(label)
        # 0.0 equals -0.0 but prints apart, and a nan never equals itself
        if t != self._last or not t:
            self._last = t
            self._times.append(t)
            self._starts.append(len(self._value))
        self._value.append(value)

    def _ends(self):
        """The row after each run's last."""
        return chain(islice(self._starts, 1, None), (len(self._value),))

    def _row_times(self):
        """Each row's time, expanded from the runs at C level."""
        counts = map(sub, self._ends(), self._starts)
        return chain.from_iterable(map(repeat, self._times, counts))

    @property
    def records(self) -> "Rows":
        return Rows(self)

    def select(self, metric: str, port: int | None = None,
               flow: int | None = None) -> list[Record]:
        """Records for one metric, optionally narrowed to a port and flow."""
        # whether each handle's label is kept, so a row costs one lookup
        hit = [label[0] == metric and (port is None or label[1] == port)
               and (flow is None or label[2] == flow)
               for label in self._labels]
        if not any(hit):
            return []
        record = _record_builder(self._labels)
        handles, values = self._label, self._value
        out: list[Record] = []
        for t, start, end in zip(self._times, self._starts, self._ends()):
            out += [record(t, h, value) for h, value
                    in zip(handles[start:end], values[start:end]) if hit[h]]
        return out

    def __eq__(self, other):
        # equal when every row prints alike: times that print alike start
        # runs at the same rows; handles are each series' own, so the labels
        # compare once per pair of handles rows share
        return (isinstance(other, TimeSeries) and self._starts == other._starts
                and _printed_alike(self._times, other._times)
                and _printed_alike(self._value, other._value) and all(
                    self._labels[mine] == other._labels[theirs]
                    for mine, theirs in set(zip(self._label, other._label))))

    def __len__(self):
        return len(self._value)

    def to_csv(self) -> str:
        # the sink's writes, joined into a chunk every _CHUNK_ROWS rows
        rows: list[str] = []
        sink = CsvSink(SimpleNamespace(write=rows.append))
        append, label_of = sink.append, sink.label
        labels, handles, values = self._labels, self._label, self._value
        texts = [None] * len(labels)  # each handle's text, on first use
        times = self._row_times()
        # `out += chunk` resizes `out` in place while this local holds its
        # only reference, so the text is held once, where a list of chunks
        # joined at the end, or a StringIO, holds it twice; this is CPython's
        # doing, as the language promises a new object for each
        # concatenation ("Common Sequence Operations", note 6)
        out = ""
        for start in range(0, len(values), _CHUNK_ROWS):
            end = start + _CHUNK_ROWS
            for t, h, value in zip(islice(times, _CHUNK_ROWS),
                                   handles[start:end], values[start:end]):
                text = texts[h]
                if text is None:
                    text = texts[h] = label_of(*labels[h])
                append(t, text, value)
            out += "".join(rows)
            rows.clear()
        out += "".join(rows)  # the header of a series with no rows
        return out

    @classmethod
    def from_csv(cls, text: str) -> "TimeSeries":
        # each slice through its own StringIO, which stores it at 4 bytes
        # a character: one over the whole text would hold it four times
        lines = chain.from_iterable(map(io.StringIO, _slices(text)))
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"missing header {','.join(COLUMNS)!r}")
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        series = cls()
        label = series.label
        times, starts, handles, values = (series._times, series._starts,
                                          series._label, series._value)
        # one handle per distinct label text: the ids are parsed once each
        known = {}
        last = None
        for t, metric, port, flow, value, unit in filter(None, reader):
            t = float(t)
            key = (metric, port, flow, unit)
            handle = known.get(key)
            if handle is None:
                handle = known[key] = label(
                    metric, None if port == "" else int(port),
                    None if flow == "" else int(flow), unit)
            handles.append(handle)
            # append's run rule, inline, since a call per row costs more
            if t != last or not t:
                last = t
                times.append(t)
                starts.append(len(values))
            values.append(float(value))
        series._last = last
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
        value = s._value[i]
        if i < 0:
            i += len(s._value)
        t = s._times[bisect_right(s._starts, i) - 1]
        return _record_builder(s._labels)(t, s._label[i], value)

    def __iter__(self):
        s = self._series
        return map(_record_builder(s._labels), s._row_times(), s._label,
                   s._value)

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
