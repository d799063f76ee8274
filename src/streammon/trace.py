"""CSV event traces.

A trace is UTF-8 CSV, with or without a byte-order mark, with a `time`
column of decimal seconds followed by one column per declared input stream.
An empty cell means the stream has no event on that row, so asynchronous
inputs share one file. A `time input` stream is fed from the time column
itself and must not appear in the header.

`read_trace` reads rows by a loop compiled per header and column types
(`_ROWS`), each column's parser bound by name: it unpacks a row to its width
(`t, c0, c1 = row`), parses the time and each non-empty cell and checks the
time order. A ValueError there (a wrong width, a blank row, a bad time, a
padded bool, a blank or bad cell) hands the row to `_read_row`, the general
rules and their diagnostics, which read any row the fast path reads alike.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Iterator, Sequence

from .ast import ValueType
from .compiler import _code
from .diagnostics import Diagnostic, TraceError
from .engine import Event
from .typecheck import TypedSpec

_BOOL_WORDS = {
    "true": True,
    "false": False,
    "1": True,
    "0": False,
}


def _row_error(message: str, row: int) -> TraceError:
    return TraceError([Diagnostic(f"row {row}: {message}")])


def expected_header(tspec: TypedSpec) -> list[str]:
    return ["time"] + [
        d.name for d in tspec.spec.inputs if not d.is_time
    ]


def read_trace(path: str, tspec: TypedSpec) -> Iterator[Event]:
    """Stream events from a CSV file, validating as it goes.

    Raises TraceError with the offending row number (counted in records,
    the header being row 1) for malformed cells, header mismatches,
    non-finite, negative or decreasing timestamps, and records the csv
    module cannot read, such as one with a cell beyond its field size
    limit. Rows are read by the compiled row loop (see the module docstring).
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        numbers = itertools.count(1)  # drawn by zip before the reader fails
        records = zip(numbers, csv.reader(handle))
        try:
            yield from _row_loop(records, tspec)
        except csv.Error as exc:
            raise _row_error(str(exc), next(numbers) - 1) from None


def _row_loop(records, tspec: TypedSpec) -> Iterator[Event]:
    """The row loop of a trace after its header, which it checks first."""
    try:
        _, header = next(records)
    except StopIteration:
        raise TraceError([Diagnostic("empty trace file: missing header")])
    header = [h.strip() for h in header]
    expected = expected_header(tspec)
    if header[:1] != ["time"]:
        raise _row_error("first column must be 'time'", 1)
    if sorted(header[1:]) != sorted(expected[1:]):
        raise _row_error(
            f"header names {header[1:]} do not match declared inputs "
            f"{expected[1:]}",
            1,
        )
    types = {d.name: d.ty for d in tspec.spec.inputs}
    # one parser per column, chosen here and not per cell
    columns = [(name, _PARSERS[types[name]], types[name]) for name in header[1:]]
    cells = "".join(f", c{k}" for k in range(len(columns)))
    parse = "".join(
        f"\n            if c{k}: bindings[{name!r}] = P{k}(c{k})"
        for k, (name, _, _) in enumerate(columns)
    )
    names = {f"P{k}": column[1] for k, column in enumerate(columns)}
    names.update(Event=Event, SLOW=_read_row, COLUMNS=columns, inf=math.inf)
    exec(_code(_ROWS.format(cells=cells, parse=parse)), names)
    return names["rows"](records)


#: a header's row loop: `cells` unpacks the cells after the time, `parse` binds them
_ROWS = """
def rows(records):
    last_ts = 0.0
    for lineno, row in records:
        try:
            t{cells}, = row
            ts = float(t)
            bindings = {{}}{parse}
        except ValueError:
            event = SLOW(row, lineno, last_ts, COLUMNS)
            if event is not None:  # else a blank row
                last_ts = event.ts
                yield event
            continue
        if not last_ts <= ts < inf:
            SLOW(row, lineno, last_ts, COLUMNS)  # raises the time's diagnostic
        last_ts = ts
        yield Event(ts, bindings)
"""


def _read_row(row: list[str], lineno: int, last_ts: float, columns) -> Event | None:
    """The event of a row after one at last_ts, None for a blank row, or
    the row's TraceError: the reader's rules for any row."""
    try:  # float and int accept the whitespace around a cell
        ts = float(row[0])
    except (IndexError, ValueError):
        if not any(cell.strip() for cell in row):
            return None  # a blank row
        ts = None
    width = len(columns) + 1
    if len(row) != width:
        raise _row_error(f"expected {width} cells, got {len(row)}", lineno)
    if ts is None:
        raise _row_error(f"bad timestamp {row[0]!r}", lineno)
    if not last_ts <= ts < math.inf:
        raise _row_error(_bad_time(row[0], ts, last_ts), lineno)
    bindings = {}
    for (name, parse, ty), cell in zip(columns, row[1:]):
        if cell:
            try:
                bindings[name] = parse(cell)
            except ValueError:
                if not (cell := cell.strip()):
                    continue
                try:
                    bindings[name] = parse(cell)
                except ValueError:
                    raise _row_error(_bad_cell(cell, ty, name), lineno)
    return Event(ts, bindings)


def _bad_time(cell: str, ts: float, last_ts: float) -> str:
    if not math.isfinite(ts):
        return f"non-finite timestamp {cell!r}"
    if ts < 0:
        return f"negative timestamp {ts}"
    return f"timestamp {ts} decreases below {last_ts}"


def _parse_bool(cell: str) -> bool:
    value = _BOOL_WORDS.get(cell.lower())
    if value is None:
        raise ValueError(cell)
    return value


_PARSERS = {ValueType.BOOL: _parse_bool, ValueType.INT: int, ValueType.DOUBLE: float}


def _bad_cell(cell: str, ty: ValueType, name: str) -> str:
    if ty is ValueType.BOOL:
        return f"bad bool {cell!r} for '{name}'"
    return f"bad {ty} value {cell!r} for '{name}'"


def write_trace(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write rows as CSV; None cells become empty, bools lowercase words."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)
