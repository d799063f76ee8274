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
- one sweep per instant: a window remembers the instant it last evicted at
  (a registration that opens a pane evicts, and so does an evaluation), so
  an evaluation at that instant skips the exact horizon arithmetic.
- no call per summary operation: each combinable aggregation is defined
  once, as Python source snippets for its empty summary, add, merge and
  lower (`make_aggregator`). `_TEMPLATE` writes them inline into the
  aggregation's register, evict and evaluate functions and into the
  reference methods `new`, `add`, `merge` and `lower`. That code is built
  once per aggregation and process, and `PanedWindow`'s methods delegate to
  it in one call.
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
from functools import lru_cache
from itertools import chain

from .ast import AggFn, ValueType
from .compiler import _code
from .diagnostics import Diagnostic, OutOfOrderError
from .values import UNDEFINED, nan_max, nan_min

#: the functions of a combinable aggregation. In a snippet, s is a summary,
#: ts and v an instant and a value, and a and b the summaries of two adjacent
#: time ranges, a's before b's; {empty} is an empty window's value
_TEMPLATE = """
def new():
    return {new}

def add(s, ts, v):
    return {add}

def merge(a, b):
    return {merge}

def lower(s):
    return {lower}

def register(w, v, ts):
    if ts < w.last_ts:
        raise late(f'window registration at {{ts}} after {{w.last_ts}}')
    w.last_ts = ts
    panes = w.panes
    # the pane (idx*z, (idx+1)*z] that holds ts: ceil(ts / z) - 1, exact;
    # float timestamps are converted losslessly, no Fraction is allocated
    n, d = ts.as_integer_ratio()
    _, _, zn, zd = w._horizon
    idx = -((-n * zd) // (d * zn)) - 1
    opened = w._open
    if idx == opened:
        s = panes[idx]
        panes[idx] = {add}
        return 0
    if opened is not None:
        b = panes[opened]
        a = w._back
        w._back = b if a is None else {merge}
    s = {new}
    panes[idx] = {add}
    w._open = idx
    slots = w.slots
    w.slots = slots + 1
    sweep(w, n, d)
    w.swept = ts
    return w.slots - slots

def evict(w, ts):
    if ts < w.last_ts:
        raise late(f'window swept at {{ts}} before {{w.last_ts}}')
    n, d = ts.as_integer_ratio()
    sweep(w, n, d)
    w.swept = w.last_ts = ts

def sweep(w, n, d):
    panes = w.panes
    if not panes:
        return
    rn, rd, zn, zd = w._horizon
    kill = ((n * rd - rn * d) * zd) // (d * rd * zn)
    front = w._front
    while True:
        if not front:
            if w._back is None:
                # only the open pane is left
                if w._open + 1 <= kill:
                    panes.clear()
                    w._open = None
                    w.slots = 0
                return
            # flip: the closed panes become suffix aggregates, newest first,
            # so that the oldest pane ends on top; each pane flips once
            closed = list(panes.items())
            closed.pop()
            b = None
            for idx, a in reversed(closed):
                if b is not None:
                    a = {merge}
                front.append((idx, a))
                b = a
            w._back = None
        idx = front[-1][0]
        if idx + 1 > kill:
            return
        front.pop()
        del panes[idx]
        w.slots -= 1

def evaluate(w, ts):
    if ts < w.last_ts:
        raise late(f'window evaluated at {{ts}} before {{w.last_ts}}')
    if ts != w.swept:
        n, d = ts.as_integer_ratio()
        sweep(w, n, d)
        w.swept = w.last_ts = ts
    panes = w.panes
    if not panes:
        return {empty}
    b = panes[w._open]
    a = w._back
    if a is not None:
        b = {merge}
    if w._front:
        a = w._front[-1][1]
        b = {merge}
    s = b
    return {lower}
"""


def _late(message: str) -> OutOfOrderError:
    return OutOfOrderError([Diagnostic(message)])


class Aggregator:
    """One combinable aggregation: its summary arithmetic as snippets, and
    the functions `_TEMPLATE` builds from them. merge(a, b) requires that a
    summarizes a time range entirely before b's; adjacent-range merging is
    associative for all of these summaries. `names` are objects the
    snippets read."""

    #: panes keep raw values: one slot per value, re-merged on evaluation
    raw = False

    def __init__(self, empty: str, new: str, add: str, merge: str, lower: str, **names):
        self.snippets = dict(empty=empty, new=new, add=add, merge=merge, lower=lower)
        scope = dict(names, U=UNDEFINED, late=_late, nan_max=nan_max, nan_min=nan_min)
        exec(_code(_TEMPLATE.format(**self.snippets), "exec"), scope)
        for name in ("new", "add", "merge", "lower", "register", "evict", "evaluate"):
            setattr(self, name, scope[name])


class _Median(Aggregator):
    """Not pane-combinable: each pane keeps its raw values."""

    raw = True

    def __init__(self, int_result: bool):
        self.int_result = int_result

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

    def register(self, w, value, ts) -> int:
        if ts < w.last_ts:
            raise _late(f"window registration at {ts} after {w.last_ts}")
        w.last_ts = ts
        n, d = ts.as_integer_ratio()
        _, _, zn, zd = w._horizon
        idx = -((-n * zd) // (d * zn)) - 1
        slots = w.slots
        w.slots = slots + 1
        if idx == w._open:
            w.panes[idx].append(value)
            return 1
        w.panes[idx] = [value]
        w._open = idx
        self.evict(w, ts)
        return w.slots - slots

    def evict(self, w, ts) -> None:
        if ts < w.last_ts:
            raise _late(f"window swept at {ts} before {w.last_ts}")
        w.swept = w.last_ts = ts
        panes = w.panes
        rn, rd, zn, zd = w._horizon
        n, d = ts.as_integer_ratio()
        kill = ((n * rd - rn * d) * zd) // (d * rd * zn)
        while panes:
            first = next(iter(panes))  # insertion order = ascending index
            if first + 1 > kill:
                return
            w.slots -= len(panes.pop(first))
        w._open = None

    def evaluate(self, w, ts):
        self.evict(w, ts)
        if not w.panes:
            return UNDEFINED
        return self.lower(list(chain.from_iterable(w.panes.values())))


#: an integral summary is (t_first, v_first, t_last, v_last, area): the
#: trapezoidal integral over the piecewise-linear interpolation of the
#: samples, with no extrapolation beyond the first and last sample in range
_TRAPEZOIDS = (
    "(float(ts), float(v), float(ts), float(v), 0.0) if s is None else (s[0], "
    "s[1], float(ts), float(v), s[4] + (float(ts) - s[2]) * (s[3] + float(v)) / 2.0)",
    "b if a is None else a if b is None else "
    "(a[0], a[1], b[2], b[3], a[4] + (b[0] - a[2]) * (a[3] + b[1]) / 2.0 + b[4])",
)


@lru_cache(maxsize=None)
def make_aggregator(agg: AggFn, target_ty: ValueType) -> Aggregator:
    """The aggregator of `agg` over `target_ty` values. Aggregators hold no
    state, so each is built once per process and shared by every window."""
    integer = target_ty is ValueType.INT
    match agg:
        case AggFn.COUNT:
            return Aggregator("0", "0", "s + 1", "a + b", "s")
        case AggFn.SUM:
            zero = "0" if integer else "0.0"
            return Aggregator(zero, zero, "s + v", "a + b", "s")
        case AggFn.AVG:
            pair = "(s[0] + v, s[1] + 1)", "(a[0] + b[0], a[1] + b[1])"
            lower = "s[0] // s[1]" if integer else "s[0] / s[1]"
            return Aggregator("U", "(0, 0)", *pair, lower)
        case AggFn.MIN | AggFn.MAX:
            pick = "nan_max" if agg is AggFn.MAX else "nan_min"
            add = f"v if s is None else {pick}(s, v)"
            merge = f"b if a is None else a if b is None else {pick}(a, b)"
            return Aggregator("U", "None", add, merge, "s")
        case AggFn.INTEGRAL:
            return Aggregator("U", "None", *_TRAPEZOIDS, "s[4]")
        case AggFn.MEDIAN:
            return _Median(integer)
    raise ValueError(f"unknown aggregation {agg!r}")


class PanedWindow:
    """Sliding-window state for one (window expression, target instance).

    `panes` maps pane index to the raw summary of that pane, in ascending
    index order; the last pane is the open one, the only pane that `register`
    still folds values into. For a combinable aggregation, the closed panes
    are also aggregated as Two-Stacks (see the module docstring): `_front`
    holds (pane index, summary of that pane and every later front pane)
    with the oldest pane on top, and `_back` is the summary of the closed
    panes after the front, or None when there are none. `last_ts` is the
    latest instant any operation saw, and an operation at an earlier one
    is rejected; `swept` is the instant of the last eviction, at which an
    evaluation evicts nothing. `slots` is the running count that
    `slot_count` reports, an attribute that a caller charging an
    evaluation's evictions reads around the call.

    The methods delegate to the aggregator's functions, one call each.
    """

    __slots__ = (
        "duration",
        "pane_width",
        "agg",
        "panes",
        "last_ts",
        "swept",
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
        self.last_ts = self.swept = -math.inf
        # r and z as integer ratio pieces, for exact pane arithmetic
        rn, rd = duration.numerator, duration.denominator
        zn, zd = pane_width.numerator, pane_width.denominator
        self._horizon = (rn, rd, zn, zd)
        self._open: int | None = None  # index of the newest pane
        self._front: list[tuple[int, object]] = []
        self._back = None
        self.slots = 0

    def register(self, value, ts) -> int:
        """Fold a value into its pane; no window-level aggregation happens.
        Eviction runs only when a new pane opens: folding into an existing
        pane cannot raise the pane count. Returns the change in slot_count,
        so that a caller charging slots need not read it around the call."""
        return self.agg.register(self, value, ts)

    def evict(self, ts) -> None:
        """Drop every pane whose entire span lies at or before ts - r:
        (i+1)*z <= ts - r, i.e. i + 1 <= floor((ts - r) / z), exactly."""
        self.agg.evict(self, ts)

    def evaluate(self, ts):
        """Combine the panes overlapping (ts - r, ts] and lower the result.

        Empty windows yield the aggregation's neutral element when it has one
        (count, sum) and UNDEFINED otherwise.
        """
        return self.agg.evaluate(self, ts)

    @property
    def pane_count(self) -> int:
        return len(self.panes)

    @property
    def slot_count(self) -> int:
        return self.slots

    def max_panes(self) -> int:
        return math.ceil(self.duration / self.pane_width) + 1
