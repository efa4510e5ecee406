"""Measurement rows and their CSV text.

One row per (time, metric, port, flow); aggregates leave port/flow blank.
A series is its CSV text: two series are equal when they print the same
bytes.

A sink takes rows through two calls: `label(metric, port, flow, unit)`
returns the label's CSV text, built once by whoever writes that series,
and `extend(t, labels, values)` writes the rows of one time as one block,
a label and a value per row, in order (the switch writes every row so: a
report window, a sampler tick and the run totals are a block each); a
`TimeSeries` also takes one row with `append(t, label, value)`. A label is
the metric's and unit's text as csv.writer writes them, taken from a cache
by the string, and the port and flow printed as ints, None as an empty
field. `label` refuses a port or flow that is not an int or None, and a
metric or unit that is not a str or that holds a carriage return
csv.writer leaves unquoted, since csv.reader cannot read it back; so every
series reads back. Times and values must be floats, as their reprs are
written, and `extend` refuses anything else with TypeError before it
writes any of the block.

CSV is UTF-8 with LF newlines and round-trips exactly. Its bytes are
`csv.writer`'s with `lineterminator="\\n"`: floats as repr, None as an
empty field, other fields quoted where csv.writer quotes them, so equal
seeds give bit-identical files. One encoder writes them, `CsvSink.extend`:
a block's time printed once and each row one f-string, in one write to
its stream, holding none of them after, so a run streamed to a file keeps
bounded memory however long it is. A `TimeSeries` is a `CsvSink` whose
stream is its own string, grown in place, so each row is encoded once, as
it is written, the text is held once, and `to_csv` returns it.

Every read parses the text, with one reader: `records` yields each row as
a `Record`, an immutable named tuple in column order that compares equal
to the plain 6-tuple of its fields; `select` keeps the rows of one
metric, port and flow; and `from_csv` writes the rows it reads through a
new series, a block per run of rows at one time text, so the new series'
text is canonical. Each read costs a full parse, 0.15-0.25 s on the
167,535-row `wide_cbr_pi` series. The reader takes the text in slices of
about 64K characters, each cut just after a line feed and read through
its own `StringIO`: one `StringIO` over the whole text would hold it
again at 4 bytes a character. It parses a port and flow once per
distinct label text and a time once per run of rows at one time text,
and names the line of a row it cannot read.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator
from functools import cache
from itertools import chain, groupby
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


def _need_floats(t, values):
    """Raise TypeError unless t and every one of values is a float."""
    if type(t) is not float or not set(map(type, values)) <= {float}:
        bad = next(x for x in chain((t,), values) if type(x) is not float)
        raise TypeError(f"t and values must be floats, got {bad!r}")


# a csv.writer whose writerow returns the text of its row: that is what
# its stream's write returns, and str returns what it is given
_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
_HEADER = _row(COLUMNS)
# characters of text the reader reads through one StringIO
_SLICE_CHARS = 1 << 16


class _Fields(dict):
    """csv.writer's text of each metric or unit, by the string."""

    def __missing__(self, field):
        if type(field) is not str:
            raise TypeError(f"metric and unit must be str, got {field!r}")
        # beside an empty field, so csv.writer does not quote an empty one
        text = _row((field, ""))[:-2]
        if "\r" in text and text[0] != '"':
            raise ValueError(f"metric or unit {field!r} holds a bare carriage "
                             "return, which csv.writer leaves unquoted")
        return self.setdefault(field, text)


_FIELDS = _Fields()


class _Ids(dict):
    """The text of each port or flow id that `label` has let through: an
    int's digits, None's empty field."""

    def __missing__(self, n):
        return self.setdefault(n, str(n))


_IDS = _Ids({None: ""})


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


def _rows(text: str) -> Iterator[tuple[float, tuple, float]]:
    """Each row of a CSV text as (t, (metric, port, flow, unit), value),
    refusing a row it cannot read, or whose label no sink could write
    back, with ValueError naming its line.

    The rows of a run at one time text share one t, parsed once; the next
    run's t is made while it is held, so no two runs in a row share an id.
    """
    # each slice through its own StringIO, which stores it at 4 bytes a
    # character: one over the whole text would hold it four times
    reader = csv.reader(chain.from_iterable(map(io.StringIO, _slices(text))))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"missing header {','.join(COLUMNS)!r}")
    if tuple(header) != COLUMNS:
        raise ValueError(f"unexpected header {header!r}")
    # each label by its raw fields, so its ids are parsed once
    labels, last = {}, None
    try:
        for raw, metric, port, flow, value, unit in filter(None, reader):
            label = labels.get((metric, port, flow, unit))
            if label is None:
                # build each field's text, or refuse here, with the line,
                # a label no sink could write back
                _FIELDS[metric], _FIELDS[unit]
                label = labels[metric, port, flow, unit] = (
                    metric, None if port == "" else int(port),
                    None if flow == "" else int(flow), unit)
            if raw != last:
                last, t = raw, float(raw)
            yield t, label, float(value)
    except ValueError as error:
        raise ValueError(f"line {reader.line_num}: {error}") from None


class CsvSink:
    """Takes rows and writes their CSV to a text stream.

    The header is written at once and each block of rows as it arrives, in
    one write; the stream's own buffer is all the sink holds. The caller
    owns the stream and closes it.
    """

    def __init__(self, stream):
        self._write = stream.write
        self._write(_HEADER)

    def label(self, metric, port, flow, unit) -> tuple[str, str]:
        """The label rows are written under: its CSV text, in two parts,
        between the time and the value and after the value, with the
        separators and the line end they take."""
        if not ((port is None or type(port) is int)
                and (flow is None or type(flow) is int)):
            raise TypeError("port and flow must be ints or None, got "
                            f"{port!r} and {flow!r}")
        # only an int or None reaches _IDS, where 1.0 or True would find 1
        return (f",{_FIELDS[metric]},{_IDS[port]},{_IDS[flow]},",
                f",{_FIELDS[unit]}\n")

    def extend(self, t, labels, values):
        """Write one row at time t per label in labels, with its value in
        values, in one write, or refuse the block and write nothing."""
        _need_floats(t, values)
        t = repr(t)
        self._write("".join([f"{t}{head}{value!r}{tail}"
                             for (head, tail), value
                             in zip(labels, values, strict=True)]))


class TimeSeries(CsvSink):
    """A `CsvSink` whose stream is its own string, with selection and CSV
    helpers."""

    def __init__(self):
        self._text, self._rows = _HEADER, 0

    def _write(self, block: str) -> None:
        # `text += block` resizes the string in place while this local
        # holds its only reference, so the text is held once; this is
        # CPython's doing, as the language promises a new object for each
        # concatenation ("Common Sequence Operations", note 6)
        text, self._text = self._text, ""
        text += block
        self._text = text

    def append(self, t, label, value):
        self.extend(t, (label,), (value,))

    def extend(self, t, labels, values):
        super().extend(t, labels, values)
        self._rows += len(values)

    @property
    def records(self) -> Iterator[Record]:
        """The rows as `Record`s, in order, each parsed as it is read."""
        new = tuple.__new__
        return (new(Record, (t, metric, port, flow, value, unit))
                for t, (metric, port, flow, unit), value in _rows(self._text))

    def select(self, metric: str, port: int | None = None,
               flow: int | None = None) -> list[Record]:
        """Records for one metric, optionally narrowed to a port and flow."""
        new = tuple.__new__
        return [new(Record, (t, m, p, f, value, unit))
                for t, (m, p, f, unit), value in _rows(self._text)
                if m == metric and (port is None or p == port)
                and (flow is None or f == flow)]

    def __eq__(self, other):
        return isinstance(other, TimeSeries) and self._text == other._text

    def __len__(self):
        return self._rows

    def to_csv(self) -> str:
        return self._text

    @classmethod
    def from_csv(cls, text: str) -> TimeSeries:
        series = cls()
        label = cache(series.label)  # each distinct label built once
        # a block per run of rows at one time text, told apart by their
        # shared t's id: 0.0 equals -0.0 but prints apart
        for _, rows in groupby(_rows(text), lambda row: id(row[0])):
            rows = list(rows)
            series.extend(rows[0][0], [label(*key) for _, key, _ in rows],
                          [value for _, _, value in rows])
        return series
