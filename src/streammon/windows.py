"""Pane-based incremental sliding-window aggregation.

The time axis is cut into panes of width z against a global zero origin.
Pane i covers the half-open span (i*z, (i+1)*z], mirroring the window
convention (ts - r, ts]: a value produced exactly at a pane boundary belongs
to the pane that *ends* there, so at pane-aligned evaluation times the
retained panes tile the window exactly and consecutive windows of width
equal to the evaluation period never double-count a boundary value.

Registering a value folds it into its pane's summary only; evaluating a
window combines the summaries of the retained panes and lowers the combined
summary to a value. At non-aligned evaluation times the oldest, partially
covered pane is included whole, an approximation of at most z.

Retained panes never exceed ceil(r / z) + 1: registration and evaluation both
evict panes whose entire span lies at or before ts - r.

Cost model, in summary merges (Li et al., "No pane, no gain", SIGMOD Record
2005, for the panes; Tangwongsan, Hirzel and Schneider, "General Incremental
Sliding-Window Aggregation", PVLDB 2015, for their aggregation):

- register: O(1), one `add` into the newest pane, plus one merge when it
  opens a new pane.
- evaluate: O(1) amortized, independent of r / z. The panes form a FIFO
  aggregated with Two-Stacks: a "front" stack of suffix aggregates over the
  oldest closed panes, one running "back" aggregate of the closed panes
  after them, and the newest, still open pane. An evaluation merges these
  three in time order. Eviction pops the front; when the front runs empty,
  the back panes are re-aggregated into a new front, once per pane. Merges
  are only ever applied to adjacent ranges, earlier on the left, so
  summaries need to be associative but neither invertible nor commutative
  (the integral is not commutative), and nothing is ever subtracted.
- median is the exception: its panes keep raw values, and an evaluation
  concatenates all retained panes once and sorts them; a NaN anywhere in
  the window makes the median NaN, as it does min and max.
- slot_count: O(1), kept as a running count. A pane of a combinable
  aggregation is one slot; a median pane holds one slot per value.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from itertools import chain
from typing import Optional

from .ast import AggFn, ValueType
from .diagnostics import Diagnostic, OutOfOrderError
from .values import UNDEFINED, nan_max, nan_min


class Aggregator:
    """Combinable per-pane summary for one aggregation function.

    merge(a, b) requires that a summarizes a time range entirely before b's;
    adjacent-range merging is associative for all of these summaries.
    """

    #: value of an empty window, or None when an empty window is undefined
    empty_value: Optional[object] = None
    #: panes keep raw values: one slot per value, re-merged on evaluation
    raw = False

    def new(self):
        raise NotImplementedError

    def add(self, summary, ts: float, value):
        raise NotImplementedError

    def merge(self, left, right):
        raise NotImplementedError

    def lower(self, summary):
        raise NotImplementedError


class _Count(Aggregator):
    empty_value = 0

    def new(self):
        return 0

    def add(self, summary, ts, value):
        return summary + 1

    def merge(self, left, right):
        return left + right

    def lower(self, summary):
        return summary


class _Sum(Aggregator):
    def __init__(self, out_ty: ValueType):
        self.empty_value = 0 if out_ty is ValueType.INT else 0.0

    def new(self):
        return self.empty_value

    def add(self, summary, ts, value):
        return summary + value

    def merge(self, left, right):
        return left + right

    def lower(self, summary):
        return summary


class _Avg(Aggregator):
    def __init__(self, out_ty: ValueType):
        self.int_result = out_ty is ValueType.INT

    def new(self):
        return (0, 0)

    def add(self, summary, ts, value):
        return (summary[0] + value, summary[1] + 1)

    def merge(self, left, right):
        return (left[0] + right[0], left[1] + right[1])

    def lower(self, summary):
        total, n = summary
        if self.int_result:
            return total // n
        return total / n


class _Extremum(Aggregator):
    def __init__(self, take_max: bool):
        self.pick = nan_max if take_max else nan_min

    def new(self):
        return None

    def add(self, summary, ts, value):
        return value if summary is None else self.pick(summary, value)

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return self.pick(left, right)

    def lower(self, summary):
        return summary


class _Integral(Aggregator):
    """Trapezoidal integral over the piecewise-linear interpolation of the
    samples; no extrapolation beyond the first and last sample in range.
    Summary: (t_first, v_first, t_last, v_last, area)."""

    def new(self):
        return None

    def add(self, summary, ts, value):
        ts = float(ts)
        value = float(value)
        if summary is None:
            return (ts, value, ts, value, 0.0)
        t0, v0, t1, v1, area = summary
        area += (ts - t1) * (v1 + value) / 2.0
        return (t0, v0, ts, value, area)

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        t0, v0, t1, v1, la = left
        u0, w0, u1, w1, ra = right
        bridging = (u0 - t1) * (v1 + w0) / 2.0
        return (t0, v0, u1, w1, la + bridging + ra)

    def lower(self, summary):
        return summary[4]


class _Median(Aggregator):
    """Not pane-combinable: each pane keeps its raw values."""

    raw = True

    def __init__(self, out_ty: ValueType):
        self.int_result = out_ty is ValueType.INT

    def new(self):
        return []

    def add(self, summary, ts, value):
        summary.append(value)
        return summary

    def merge(self, left, right):
        return left + right

    def lower(self, summary):
        if self.int_result:
            return statistics.median_low(summary)
        # sorting with NaN depends on the input order; NaN wins as in min/max
        if any(map(math.isnan, summary)):
            return math.nan
        return statistics.median(summary)


def make_aggregator(agg: AggFn, target_ty: ValueType) -> Aggregator:
    match agg:
        case AggFn.COUNT:
            return _Count()
        case AggFn.SUM:
            return _Sum(target_ty)
        case AggFn.AVG:
            return _Avg(target_ty)
        case AggFn.MIN:
            return _Extremum(take_max=False)
        case AggFn.MAX:
            return _Extremum(take_max=True)
        case AggFn.INTEGRAL:
            return _Integral()
        case AggFn.MEDIAN:
            return _Median(target_ty)
    raise ValueError(f"unknown aggregation {agg!r}")


class PanedWindow:
    """Sliding-window state for one (window expression, target instance).

    `panes` maps pane index to the raw summary of that pane, in ascending
    index order; the last pane is the open one, the only pane that `register`
    still folds values into. For a combinable aggregation, the closed panes
    are also aggregated as Two-Stacks (see the module docstring): `_front`
    holds (pane index, summary of that pane and every later front pane)
    with the oldest pane on top, and `_back` is the summary of the closed
    panes after the front, or None when there are none. `slots` is the
    running count that `slot_count` reports, an attribute that a caller
    charging an evaluation's evictions reads around the call.
    """

    __slots__ = (
        "duration",
        "pane_width",
        "agg",
        "panes",
        "last_ts",
        "_horizon",
        "_open",
        "_front",
        "_back",
        "slots",
    )

    def __init__(self, duration: Fraction, pane_width: Fraction, agg: Aggregator):
        self.duration = duration
        self.pane_width = pane_width
        self.agg = agg
        self.panes: dict[int, object] = {}  # index -> summary, ascending
        self.last_ts = None
        # r and z as integer ratio pieces, for exact pane arithmetic
        rn, rd = duration.numerator, duration.denominator
        zn, zd = pane_width.numerator, pane_width.denominator
        self._horizon = (rn, rd, zn, zd)
        self._open: Optional[int] = None  # index of the newest pane
        self._front: list[tuple[int, object]] = []
        self._back = None
        self.slots = 0

    def register(self, value, ts) -> int:
        """Fold a value into its pane; no window-level aggregation happens.
        Eviction runs only when a new pane opens: folding into an existing
        pane cannot raise the pane count. Returns the change in slot_count,
        so that a caller charging slots need not read it around the call."""
        if self.last_ts is not None and ts < self.last_ts:
            raise OutOfOrderError(
                [Diagnostic(f"window registration at {ts} after {self.last_ts}")]
            )
        self.last_ts = ts
        agg = self.agg
        panes = self.panes
        # the pane (idx*z, (idx+1)*z] that holds ts: ceil(ts / z) - 1, exact;
        # float timestamps are converted losslessly, no Fraction is allocated
        n, d = ts.as_integer_ratio()
        _, _, zn, zd = self._horizon
        idx = -((-n * zd) // (d * zn)) - 1
        opened = self._open
        if idx == opened:
            panes[idx] = agg.add(panes[idx], ts, value)
            if agg.raw:
                self.slots += 1
                return 1
            return 0
        if opened is not None and not agg.raw:
            closed = panes[opened]
            back = self._back
            self._back = closed if back is None else agg.merge(back, closed)
        panes[idx] = agg.add(agg.new(), ts, value)
        self._open = idx
        slots = self.slots
        self.slots = slots + 1
        self._evict(n, d)
        return self.slots - slots

    def evict(self, ts) -> None:
        """Drop every pane whose entire span lies at or before ts - r:
        (i+1)*z <= ts - r, i.e. i + 1 <= floor((ts - r) / z), exactly."""
        n, d = ts.as_integer_ratio()
        self._evict(n, d)

    def _evict(self, n: int, d: int) -> None:
        """evict(ts) for ts = n / d."""
        panes = self.panes
        if not panes:
            return
        rn, rd, zn, zd = self._horizon
        kill = ((n * rd - rn * d) * zd) // (d * rd * zn)
        if self.agg.raw:
            while panes:
                first = next(iter(panes))  # insertion order = ascending index
                if first + 1 > kill:
                    return
                self.slots -= len(panes.pop(first))
            self._open = None
            return
        front = self._front
        while True:
            if not front:
                if self._back is None:
                    # only the open pane is left
                    if self._open + 1 <= kill:
                        panes.clear()
                        self._open = None
                        self.slots = 0
                    return
                self._flip()
            idx = front[-1][0]
            if idx + 1 > kill:
                return
            front.pop()
            del panes[idx]
            self.slots -= 1

    def _flip(self) -> None:
        """Move the back panes to the front as suffix aggregates, newest
        first, so that the oldest pane ends on top. Runs only on an empty
        front, so every pane is flipped at most once."""
        closed = list(self.panes.items())
        closed.pop()  # the open pane
        merge = self.agg.merge
        front = self._front
        suffix = None
        for idx, summary in reversed(closed):
            suffix = summary if suffix is None else merge(summary, suffix)
            front.append((idx, suffix))
        self._back = None

    def evaluate(self, ts):
        """Combine the panes overlapping (ts - r, ts] and lower the result.

        Empty windows yield the aggregation's neutral element when it has one
        (count, sum) and UNDEFINED otherwise.
        """
        if self.last_ts is not None and ts < self.last_ts:
            raise OutOfOrderError(
                [Diagnostic(f"window evaluated at {ts} before {self.last_ts}")]
            )
        n, d = ts.as_integer_ratio()
        self._evict(n, d)
        panes = self.panes
        if not panes:
            empty = self.agg.empty_value
            return UNDEFINED if empty is None else empty
        if self.agg.raw:
            return self.agg.lower(list(chain.from_iterable(panes.values())))
        merge = self.agg.merge
        combined = panes[self._open]
        if self._back is not None:
            combined = merge(self._back, combined)
        if self._front:
            combined = merge(self._front[-1][1], combined)
        return self.agg.lower(combined)

    @property
    def pane_count(self) -> int:
        return len(self.panes)

    @property
    def slot_count(self) -> int:
        return self.slots

    def max_panes(self) -> int:
        return math.ceil(self.duration / self.pane_width) + 1
