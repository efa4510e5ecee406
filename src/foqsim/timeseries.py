"""Measurement rows, held as columns, and their CSV form.

One row per (time, metric, port, flow); aggregates leave port/flow blank.
A sink takes rows through three calls: `label(metric, port, flow, unit)`
returns a handle, built once by whoever writes that series;
`append(t, label, value)` adds one row under it; and
`extend(t, labels, values)` adds the rows of one time as one block, a
handle and a value per row, in order (the switch writes each report
window so). A `TimeSeries` keeps its rows by column: each row's value in
an `array('d')` and its label as a 4-byte handle in an `array('I')`,
indexing the series' own table of `(metric, port, flow, unit)` tuples;
and one time per run of rows at one time, in an `array('d')`, with the
run's first row in an `array('I')`.
A row costs 12 bytes plus 8 bytes a run (a report window writes its rows
at one time), and at most the 24 bytes it costs when each row starts a
run. A handle belongs to its series, and `label` makes a new one on every
call, with no lookup, so a writer builds each label once. Times and
values must be floats: the arrays would turn an int into a float that
prints differently, so `append` and `extend` refuse anything else with
TypeError, and a handle outside the series' table with IndexError, before
they store anything. A handle made by another series that happens to be
in range cannot be told apart, and writes the label it indexes here.

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
label's CSV text, and its `extend` writes a block of rows at one time to a
stream in one write, with the time printed once (`append` is a one-row
block), holding none of them after, so a run streamed to a file keeps
bounded memory however long it is. csv.writer itself encodes each distinct
metric, unit, port and flow once per sink (`_Fields`); every later
occurrence is a dict hit, so the caches grow with the distinct labels and
ids, never with the rows. `TimeSeries.to_csv` encodes every handle's label
once, then hands the sink one block per run of rows at one time, cut where
every 4,096 rows its list of written strings is joined into one chunk (a
`StringIO` on Python 3.11 keeps every written string alive until 100,000
are pending, so it would hold up to 100k row strings at once); each chunk
is added to one string that CPython grows in place, so the text is held
once.

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


def _floats(t, values) -> bool:
    """Whether t and every one of values is a float."""
    return type(t) is float and set(map(type, values)) <= {float}


def _refuse(t, values):
    bad = next(x for x in chain((t,), values) if type(x) is not float)
    raise TypeError(f"t and values must be floats, got {bad!r}")


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


def _text_ids(*tables: list[tuple]) -> list[list[int]]:
    """Each table's labels as ids of their CSV text, as `CsvSink` prints
    it, one id per distinct text across all the tables."""
    sink = CsvSink(SimpleNamespace(write=len))  # its header is dropped
    ids: dict[tuple[str, str], int] = {}
    return [[ids.setdefault(sink.label(*label), len(ids)) for label in table]
            for table in tables]


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

    def _refuse_handle(self, labels):
        size = len(self._labels)
        bad = next(h for h in labels if not 0 <= h < size)
        raise IndexError(f"label handle {bad!r} is outside this series' "
                         f"table of {size} labels")

    def append(self, t, label, value):
        if type(t) is not float or type(value) is not float:
            _refuse(t, (value,))
        if not 0 <= label < len(self._labels):
            self._refuse_handle((label,))
        self._label.append(label)  # a non-int is refused before a store
        # 0.0 equals -0.0 but prints apart, and a nan never equals itself
        if t != self._last or not t:
            self._last = t
            self._times.append(t)
            self._starts.append(len(self._value))
        self._value.append(value)

    def extend(self, t, labels, values):
        """Append one row at time t per handle in labels, with its value in
        values, as appending them one by one would, refusing the whole
        block before it stores any of it."""
        if not _floats(t, values):
            _refuse(t, values)
        if len(labels) != len(values):
            raise ValueError(f"{len(labels)} labels for {len(values)} values")
        if not labels:
            return
        if not (0 <= min(labels) and max(labels) < len(self._labels)):
            self._refuse_handle(labels)
        # fromlist stores all of a list or, refusing a non-int, none of it
        self._label.fromlist(list(labels))
        start = len(self._value)
        # append's run rule: a zero or nan time starts a run at every row
        if t != t or not t:
            self._times.fromlist([t] * len(labels))
            self._starts.fromlist(list(range(start, start + len(labels))))
        elif t != self._last:
            self._times.append(t)
            self._starts.append(start)
        self._last = t
        self._value.fromlist(list(values))

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
        # runs at the same rows; handles are each series' own, so each is
        # mapped to the id of its label's CSV text (True, 1 and 1.0 print
        # apart though they compare equal), and the rows' ids compare at C
        # level
        if not (isinstance(other, TimeSeries) and self._starts == other._starts
                and _printed_alike(self._times, other._times)
                and _printed_alike(self._value, other._value)):
            return False
        mine, theirs = _text_ids(self._labels, other._labels)
        return (array("I", map(mine.__getitem__, self._label))
                == array("I", map(theirs.__getitem__, other._label)))

    def __len__(self):
        return len(self._value)

    def to_csv(self) -> str:
        # the sink's writes, joined into a chunk every _CHUNK_ROWS rows
        rows: list[str] = []
        sink = CsvSink(SimpleNamespace(write=rows.append))
        extend = sink.extend
        text_of = [sink.label(*label) for label in self._labels].__getitem__
        handles, values = self._label, self._value
        # `out += chunk` resizes `out` in place while this local holds its
        # only reference, so the text is held once, where a list of chunks
        # joined at the end, or a StringIO, holds it twice; this is CPython's
        # doing, as the language promises a new object for each
        # concatenation ("Common Sequence Operations", note 6)
        out = ""
        for t, start, end in zip(self._times, self._starts, self._ends()):
            # one block per run, cut where a chunk ends
            while start < end:
                cut = min(end, start - start % _CHUNK_ROWS + _CHUNK_ROWS)
                extend(t, list(map(text_of, handles[start:cut])),
                       values[start:cut])
                if not cut % _CHUNK_ROWS:
                    out += "".join(rows)
                    rows.clear()
                start = cut
        out += "".join(rows)  # the header, and the rows after the last chunk
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
    over a list of strings. The header is written at once and each block of
    rows as it arrives, in one write; the stream's own buffer and the field
    cache are all the sink holds. The caller owns the stream and closes it.
    """

    def __init__(self, stream):
        self._write = stream.write
        self._fields = _Fields()
        self._write(_HEADER)

    def label(self, metric, port, flow, unit) -> tuple[str, str]:
        """The label rows are appended under: its CSV text, encoded once,
        in two parts, between the time and the value and after the value,
        with the separators and the line end they take."""
        fields = self._fields
        return (f",{fields[metric]},{fields.id_text(port)},"
                f"{fields.id_text(flow)},", f",{fields[unit]}\n")

    def append(self, t, label, value):
        self.extend(t, (label,), (value,))

    def extend(self, t, labels, values):
        """Write one row at time t per label in labels, with its value in
        values, in one write, or refuse the block and write nothing."""
        if not _floats(t, values):
            _refuse(t, values)
        t = repr(t)
        self._write("".join([f"{t}{head}{value!r}{tail}"
                             for (head, tail), value
                             in zip(labels, values, strict=True)]))
