"""Timing shims around the program's public entry points, for the traced run.

`Tracer.installed()` replaces each entry point with a wrapper that records a
span around the call and restores the originals on exit, so the untraced
passes of the same process run the unmodified program. Spans are aggregated
as they close: per span name the call count, the total time and the self time
(the span minus the spans nested in it). Nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns

import streammon
from streammon import engine, trace, windows

import workloads

#: functions of the analysis module that Monitor construction calls; the
#: engine imports them by name, so they are wrapped in its namespace
ANALYSIS_ENTRY_POINTS = (
    "build_adg",
    "default_pane_widths",
    "compute_memory",
    "buffer_plans",
    "classify_efficiently_bound",
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: counts taken at span boundaries, such as panes merged
        self.counts: Counter = Counter()
        self._child_ns = [0]  # open spans' time spent in nested spans

    def reset(self) -> None:
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self.counts.clear()
        self._child_ns[:] = [0]

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span called `name`; `count(args, result)` adds to
        `counts[name]` after the call, still inside the span."""
        stack = self._child_ns
        calls, total, own, counts = self.calls, self.total_ns, self.self_ns, self.counts

        def shim(*args, **kwargs):
            stack.append(0)
            started = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts[name] += count(args, result)
                return result
            finally:
                took = perf_counter_ns() - started
                nested = stack.pop()
                stack[-1] += took
                calls[name] += 1
                total[name] += took
                own[name] += took - nested

        return shim

    def iterate(self, name: str, iterator):
        """Times every `next()` on `iterator` as a span called `name`; the
        count is the number of items it yielded."""
        return _TimedIterator(self.wrap(name, iterator.__next__, _one))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the entry points for the duration of the block."""
        Monitor, PanedWindow = streammon.Monitor, windows.PanedWindow
        patches = [
            (streammon, "parse", "parser.parse", None),
            (streammon, "check_types", "typecheck.check_types", None),
            (Monitor, "__init__", "engine.monitor_init", None),
            (Monitor, "process", "engine.process", None),
            (Monitor, "var_rate_step", "engine.var_step", None),
            (Monitor, "fixed_rate_step", "engine.fixed_step", None),
            (Monitor, "evaluate_triggers", "engine.triggers", _length),
            (PanedWindow, "register", "windows.register", None),
            (PanedWindow, "evaluate", "windows.evaluate", _panes_left),
            (workloads, "verdict_line", "cli.serialize", _one),
        ]
        patches += [
            (engine, fn, "analysis.analyze", None) for fn in ANALYSIS_ENTRY_POINTS
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
        slot_count = PanedWindow.slot_count
        read_trace = trace.read_trace

        def traced_read_trace(*args, **kwargs):
            return self.iterate("trace.read", read_trace(*args, **kwargs))

        try:
            trace.read_trace = traced_read_trace
            for owner, attr, name, count in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            PanedWindow.slot_count = property(
                self.wrap("windows.slot_count", slot_count.fget)
            )
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            PanedWindow.slot_count = slot_count
            trace.read_trace = read_trace


class _TimedIterator:
    __slots__ = ("_next",)

    def __init__(self, next_fn):
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _one(args, result) -> int:
    return 1


def _length(args, result) -> int:
    return len(result)


def _panes_left(args, result) -> int:
    """Panes the evaluation combined: those left after its eviction."""
    return len(args[0].panes)
