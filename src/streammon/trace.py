"""CSV event traces.

A trace is UTF-8 CSV with a `time` column of decimal seconds followed by one
column per declared input stream. An empty cell means the stream has no
event on that row, so asynchronous inputs share one file. A `time input`
stream is fed from the time column itself and must not appear in the header.
"""

from __future__ import annotations

import csv
import math
from typing import Iterator, Sequence

from .ast import ValueType
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

    Raises TraceError with the offending row number for malformed cells,
    header mismatches, and non-finite, negative or decreasing timestamps.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
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
        last_ts = None
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise _row_error(
                    f"expected {len(header)} cells, got {len(row)}", lineno
                )
            try:
                ts = float(row[0])
            except ValueError:
                raise _row_error(f"bad timestamp {row[0]!r}", lineno)
            if not math.isfinite(ts):
                raise _row_error(f"non-finite timestamp {row[0]!r}", lineno)
            if ts < 0:
                raise _row_error(f"negative timestamp {ts}", lineno)
            if last_ts is not None and ts < last_ts:
                raise _row_error(
                    f"timestamp {ts} decreases below {last_ts}", lineno
                )
            last_ts = ts
            bindings = {}
            for (name, parse, ty), cell in zip(columns, row[1:]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    bindings[name] = parse(cell)
                except ValueError:
                    raise _row_error(_bad_cell(cell, ty, name), lineno)
            yield Event(ts, bindings)


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
