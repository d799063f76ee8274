"""Pane-based incremental sliding-window aggregation.

The time axis is cut into panes of width z against a global zero origin.
Pane i covers the half-open span (i*z, (i+1)*z], mirroring the window
convention (ts - r, ts]: a value produced exactly at a pane boundary belongs
to the pane that *ends* there, so at pane-aligned evaluation times the
retained panes tile the window exactly and consecutive windows of width
equal to the evaluation period never double-count a boundary value.

Registering a value folds it into its pane's summary, and under
Subtract-on-Evict into the window's running summary too; evaluating a window
lowers the summary of the retained panes to a value. At non-aligned
evaluation times the oldest, partially covered pane is included whole, an
approximation of at most z.

Retained panes never exceed ceil(r / z) + 1: registration and evaluation both
evict panes whose entire span lies at or before ts - r.

Cost model, in summary operations (Li et al., "No pane, no gain", SIGMOD
Record 2005, for the panes; Tangwongsan, Hirzel and Schneider, "General
Incremental Sliding-Window Aggregation", PVLDB 2015, for Subtract-on-Evict,
and "In-Order Sliding-Window Aggregation in Worst-Case Constant Time", VLDB
Journal 2021, for the deamortized Two-Stacks; Okasaki, "Simple and efficient
purely functional queues and deques", JFP 1995, for the rotation):

- two schemes, picked by whether the summary has an exact inverse
  (`make_aggregator`): count over any type, sum and avg, and median, whose
  summary is a multiset, subtract on evict; min, max and integral aggregate
  their panes as a deamortized Two-Stacks. Min and max have no inverse, nor
  has the integral's float area. Int `+` and `-` are exact. A float sum
  less its oldest part is not the float sum of the rest (1e20 + 1 - 1e20
  is 0), but every finite double is an integer multiple of 2^-1074, so the
  values of a window, scaled by a power of two, are integers, and float sum
  and avg subtract over those (Neal, "Fast exact summation using small and
  large superaccumulators", arXiv:1505.05571, 2015, for the scaled-integer
  accumulator). Their value is the correctly rounded sum or mean of the
  retained values, whatever the grouping of the panes or the order of
  evictions.
- Subtract-on-Evict: a window keeps its per-pane summaries, a FIFO of the
  retained pane indices, oldest first, and one running summary of all
  retained panes. `register` adds the value to its pane and to the running
  summary; each evicted pane is subtracted from it once (the inverse
  snippet); `evaluate` lowers the running summary. Worst case, independent
  of r / z: `register` does 2 adds and no merge, and over doubles one
  conversion, `evaluate` no add and no merge, each plus one inverse per
  pane it evicts. A step evicts at most
  the ceil(r / z) + 1 retained panes, and each pane is evicted once, so
  over a run the inverses number at most the panes opened. The oldest pane
  comes from the FIFO, not from the pane dict: finding a dict's first key
  walks every entry deleted at its front, a cost that grows with the panes
  the window ever evicted. The FIFO is a list, and a step drops the
  indices it evicted with one `del` of that prefix, a move of at most
  ceil(r / z) + 1 pointers; a deque would cost some 760 bytes per window,
  more than the list for windows of up to about 90 panes.
- exact float sum and avg: a window keeps an exponent E, 0 at first, that
  only grows, with 2^E as an int (`_den`) and, while E <= 1023, as a float
  (`_scale`, else NaN). Its pane summaries and running total are the sums
  of its values times 2^E, exact integers, with the count beside them for
  avg. `register` converts v first, once: y = v * 2^E in floats is exact,
  and if it is an integer, int(y) is the scaled value; otherwise (`_exact`)
  a finite v is converted from `v.as_integer_ratio()`, after raising E to
  v's fraction bits, if it has more, and shifting the running total and
  every retained pane left by as much. E never exceeds 1074, so a window
  rescales at most 1074 times over its life, each time shifting at most
  ceil(r / z) + 2 summaries: a work term bounded per window, not per step.
  A NaN or an infinity is never added: it is counted, in digits of the
  integers far above any finite sum (`_DIGIT`), so that the panes and the
  total count it and eviction subtracts it like any value. `evaluate`
  lowers the total by one correctly rounded int / int division, S / 2^E
  for sum and S / (n * 2^E) for avg, rounded once. A counted NaN or
  infinity puts the quotient past the float range, as does a finite sum
  past it: the division raises OverflowError, and `_overflowed` reads the
  counts, giving NaN for a NaN or infinities of both signs, else the
  infinity counted, else the infinity of the finite sum's sign.
- median (Gray et al., "Data Cube", DMKD 1997: no pane summary of bounded
  size gives it) summarizes a range by its NaN count and its other values,
  sorted, equal ones in arrival order: a pane holds one slot per value, and
  each retained value is referenced twice, by its pane and by the running
  summary. Over n retained values, `register` does 2 inserts of O(log n)
  comparisons each (`bisect.insort`, after the values equal to it), and
  `evaluate` reads O(1) entries: the NaN count, and then the middle one or
  two values, which give `statistics.median_low` over int and
  `statistics.median` over double bit for bit; a NaN anywhere in the
  window makes the median NaN, as it does min and max. Eviction removes
  each value of each evicted pane from the running summary by bisection,
  as the first of the values equal to it: the evicted values are the
  oldest retained, so what is left, down to the order of 0.0 and -0.0, is
  what a stable sort of the remaining values gives.
- Two-Stacks, worst case, independent of r / z: `register` does at most 2
  merges and `evaluate` at most 3, each plus 2 per pane it evicts. A
  registration into the open pane does none.
- the Two-Stacks panes form a FIFO aggregated in two stacks. In time
  order: a "front" stack of suffix aggregates over the oldest closed panes,
  whose top covers them all; while a rotation runs, the "frozen" panes
  after them, with their summary; the "back" panes after those, with
  their running summary; and the newest, still open pane. An evaluation
  merges these from the right, front top + (frozen + (back + open)).
  Closing a pane merges it onto the back, and eviction pops the front.
- rotation: when the back holds more than twice as many panes as the front,
  it is frozen, and a new front is built over front + frozen, one pane per
  step and one merge each, newest first: the frozen panes, then the front's.
  The freeze takes in the newest frozen pane with no merge; one step
  follows each pane closed and two each pane evicted. A rotation that
  starts with f front panes has at most 3f + 2 panes to take in, and the
  old front loses one pane per eviction, so the new front is finished, and
  replaces the old one, before that runs empty; the back, one pane longer
  per close, stays at most twice the new front. Merges are only ever
  applied to adjacent ranges, earlier on the left, so summaries need to be
  associative but neither invertible nor commutative (the integral is not
  commutative), and nothing is ever subtracted.
- one placement and one sweep per instant: the pane that holds ts,
  ceil(ts / z) - 1, and the eviction horizon, floor((ts - r) / z), come from
  one division of ts by z (`_PLACE`). For a float ts on a dyadic width (z =
  zn / zd in lowest terms, zd a power of two) whose r / z is an integer k,
  that division is float arithmetic, and exact: x = ts * zd is exact; with
  |x| below 2^52 and zn at most 2^52, q = x // zn and x % zn are exact (fmod
  is exact, and the quotient is an integer in [-2^52, 2^52)), and with k at
  most 2^52 so are q - 1 and q - k. A window decides at construction whether
  its width qualifies; a Fraction or int instant, a larger |x|, and any
  other width take one exact integer `divmod` of ts's integer ratio. Both
  give the same integers (an index from floats is a float of equal value).
  A window remembers the instant it last evicted at (a registration that
  opens a pane evicts, and so does an evaluation), so an evaluation at that
  instant skips the arithmetic and the out-of-order check; a registration
  into the open pane clears it.
- the open-pane bound: a window keeps `_until`, the end of its open pane,
  set when a pane opens (`_UNTIL`, one rule for every scheme), and a
  registration at ts <= `_until` goes into the open pane with no division:
  no later instant precedes that pane. The bound is set only where a float
  placement put ts, where (idx + 1) * zn / zd is exact, and is -inf
  elsewhere, which no instant is at or before. A bound left from a pane
  that eviction has since dropped lies before the evaluation instant that
  dropped it, and so before every later registration.
- no call per summary operation or rotation step: each aggregation is
  defined once, as Python source snippets for its empty summary, add,
  merge, lower and, if it has one, inverse (`make_aggregator`).
  `_FUNCTIONS` writes them into the reference methods `new`, `add`, `merge`
  and `lower`, and `_SUBTRACT`, or `_TWO_STACKS` with the rotation steps
  (`_ROTATE`), inline into the aggregation's register and evaluate
  functions; only median's inverse, a loop, is a function call
  (`_remove_oldest`), one per evicted pane, and so are the slow paths of
  the exact float conversion and lowering. That code is built once per
  aggregation and process, and `PanedWindow`'s methods delegate to it in
  one call.
- slot_count: O(1), kept as a running count. A pane is one slot, except a
  median pane, which holds one slot per value: that rule is snippet text
  of `_SUBTRACT` too (`_ONE_SLOT`).
"""

from __future__ import annotations

import math
import textwrap
from bisect import bisect_left, insort
from fractions import Fraction
from functools import lru_cache
from operator import setitem

from .ast import AggFn, ValueType
from .compiler import _code
from .diagnostics import Diagnostic, OutOfOrderError
from .values import UNDEFINED, nan_max, nan_min

#: the rotation steps of the deamortized Two-Stacks (see the module
#: docstring), written into the eviction loops of `_TWO_STACKS`: one step for
#: each of `steps`, after a pane closed or evicted, while `due`, twice the
#: front's length less the back's, is negative, as it is while a rotation
#: runs or when the back is to be frozen. A step moves the newest pane not
#: yet in the new front under it; the new front replaces the front once it
#: holds every live pane
_ROTATE = """
            new = w._new
            if new is None:
                # freeze the back: a new front is built over front + frozen,
                # starting with the newest frozen pane
                w._mid = w._back
                w._back = None
                frozen = w._frozen = w._queue
                w._queue = []
                idx = frozen.pop()
                w._new = new = [(idx, panes[idx])]
                j = 0
            else:
                frozen = w._frozen
                j = w._cursor
            for _ in steps:
                if frozen:
                    idx = frozen.pop()
                elif j < len(front):
                    idx = front[j][0]
                    j += 1
                else:
                    break
                a = panes[idx]
                b = new[-1][1]
                new.append((idx, {merge}))
            if frozen or j < len(front):
                w._cursor = j
            else:  # every live pane is in the new front
                w._front = front = new
                w._mid = w._new = None
                due = 2 * len(new) - len(w._queue)
"""

#: the largest |ts * zd|, zn and r / z that a float placement takes (see the
#: module docstring)
_EXACT = 2.0**52

#: the placement of instant ts in window w: q and rem with the pane of ts
#: `q if rem else q - 1`, and the eviction horizon kill; the panes i with
#: i + 1 <= kill are expired. `w._float` is (zd, zn, r / z, z) as floats when
#: the float form is exact for a float ts, else None; f is None after an
#: integer placement
_PLACE = """
    f = w._float
    if f is not None and ts.__class__ is float and -EXACT < (x := ts * f[0]) < EXACT:
        q = x // f[1]
        rem = x % f[1]
        kill = q - f[2]
    else:
        # ts / z = q + rem / (d * zn) and r / z = k + fr / (rd * zn), exactly
        f = None
        n, d = ts.as_integer_ratio()
        zn, zd, k, fr, rd = w._horizon
        q, rem = divmod(n * zd, d * zn)
        kill = q - k - (rem * rd < fr * d)
"""

#: the end of the pane idx that a registration placed at ts just opened, the
#: open-pane bound: exact after a float placement (`(idx + 1) * zn` is an
#: integer below 2^53 in magnitude, and z is zn / zd with zd a power of two),
#: and -inf, which no instant is at or before, after an integer one
_UNTIL = "w._until = -inf if f is None else (idx + 1) * f[3]"

#: the reference functions of every aggregation. In a snippet, s is a
#: summary, ts and v an instant and a value, and a and b the summaries of two
#: adjacent time ranges, a's before b's; {empty} is an empty window's value
_FUNCTIONS = """
def new():
    return {new}

def add(s, ts, v):
    return {add}

def merge(a, b):
    return {merge}

def lower(s):
    return {lower}
"""

#: the window code of the Two-Stacks scheme (see the module docstring)
_TWO_STACKS = """
def clear(w):
    w._front = []
    w._queue = []
    w._back = w._mid = w._frozen = w._new = None
    w._cursor = w._due = 0

def register(w, v, ts):
    if ts < w.last_ts:
        raise late(f'window registration at {{ts}} after {{w.last_ts}}')
    w.last_ts = ts
    panes = w.panes
    opened = w._open
    if ts <= w._until:  # in the open pane
        idx = opened
    else:{placed}
        idx = q if rem else q - 1
    if idx == opened:
        s = panes[idx]
        panes[idx] = {add}
        w.swept = None  # an evaluation must check its instant again
        return 0
    s = {new}
    panes[idx] = {add}
    w._open = idx
    {until}
    w.swept = ts
    if opened is None:  # the window was empty
        w.slots += 1
        return 1
    # the open pane closes onto the back, and the panes i with i + 1 <= kill
    # are evicted; the new pane is not among them
    b = panes[opened]
    w._queue.append(opened)
    a = w._back
    w._back = b if a is None else {merge}
    front = w._front
    due = w._due - 1
    gained = 1
    steps = (1,)  # one step after the close, two after each eviction
    while True:
        if due < 0:{rotate}
        if not front or front[-1][0] >= kill:
            break
        del panes[front.pop()[0]]
        gained -= 1
        due -= 2
        steps = (1, 2)
    w._due = due
    w.slots += gained
    return gained

def sweep(w, ts):
    # evicts the panes i with i + 1 <= kill, oldest first, as `register` does{place}
    panes = w.panes
    front = w._front
    due = w._due
    steps = (1, 2)
    while front and front[-1][0] < kill:
        del panes[front.pop()[0]]
        w.slots -= 1
        due -= 2
        if due < 0:{rotate}
    w._due = due
    if not front and w._open is not None and w._open < kill:
        # only the open pane was left
        panes.clear()
        w._open = None
        w.slots = 0

def evaluate(w, ts):
    if ts != w.swept:
        if ts < w.last_ts:
            raise late(f'window evaluated at {{ts}} before {{w.last_ts}}')
        sweep(w, ts)
        w.swept = w.last_ts = ts
    opened = w._open
    if opened is None:
        return {empty}
    # front top + frozen + back + open pane, merged from the right
    b = w.panes[opened]
    a = w._back
    if a is not None:
        b = {merge}
    a = w._mid
    if a is not None:
        b = {merge}
    front = w._front
    if front:
        a = front[-1][1]
        b = {merge}
    s = b
    return {lower}
"""

#: the window code of the Subtract-on-Evict scheme (see the module
#: docstring). In the inverse snippet, a summarizes a time range and b the
#: oldest part of it; it gives the summary of the rest. The slot rule enters
#: as two snippets: `fold` ends a registration into the open pane and
#: returns the slots it added, and `held` is the slot count after an
#: eviction, of the running summary a and the retained panes `order`
_SUBTRACT = """
def clear(w):
    w._order = []
    w._total = {new}{unscaled}

def register(w, v, ts):
    if ts < w.last_ts:
        raise late(f'window registration at {{ts}} after {{w.last_ts}}')
    w.last_ts = ts{convert}
    panes = w.panes
    opened = w._open
    if ts <= w._until:  # in the open pane
        idx = opened
    else:{placed}
        idx = q if rem else q - 1
    s = w._total
    w._total = {add}
    if idx == opened:
        s = panes[idx]
        panes[idx] = {add}
        w.swept = None  # an evaluation must check its instant again
        {fold}
    s = {new}
    panes[idx] = {add}
    w._open = idx
    {until}
    w.swept = ts
    order = w._order
    order.append(idx)
    # the panes i with i + 1 <= kill are evicted, oldest first; the new pane
    # is not among them
    if order[0] >= kill:
        w.slots += 1
        return 1
    a = w._total
    j = 0
    while order[j] < kill:
        b = panes.pop(order[j])
        a = {inverse}
        j += 1
    del order[:j]
    w._total = a
    gained = {held} - w.slots
    w.slots += gained
    return gained

def sweep(w, ts):
    # evicts the panes i with i + 1 <= kill, oldest first, as `register` does{place}
    order = w._order
    if order and order[0] < kill:
        panes = w.panes
        a = w._total
        n = len(order)
        j = 0
        while j < n and order[j] < kill:
            b = panes.pop(order[j])
            a = {inverse}
            j += 1
        del order[:j]
        w._total = a
        w.slots = {held}
        if not order:
            w._open = None

def evaluate(w, ts):
    if ts != w.swept:
        if ts < w.last_ts:
            raise late(f'window evaluated at {{ts}} before {{w.last_ts}}')
        sweep(w, ts)
        w.swept = w.last_ts = ts
    if w._open is None:
        return {empty}
    s = w._total{lowering}
"""

#: the slot rule of `_SUBTRACT` where a pane is one slot, and where each
#: value is one, with the slot count of the running summary a as `held`
_ONE_SLOT = dict(fold="return 0", held="len(order)")
_VALUE_SLOT = dict(fold="w.slots += 1\n        return 1")

#: `_PLACE` in `register`, one level in
_PLACED = textwrap.indent(_PLACE, "    ")

#: what `_SUBTRACT` adds for an exact aggregation over doubles (see the
#: module docstring): a window starts at the scale 2^0, `register` converts
#: v to the window's scale first, and `evaluate` lowers the running summary
#: by the aggregation's `scaled` snippet, or past the float range by
#: `_overflowed`
_SCALED = dict(
    unscaled="\n    w._scale = 1.0\n    w._den = 1",
    convert="\n    y = v * w._scale\n    v = int(y) if y.is_integer() else exact(w, v)",
    lowering=(
        "\n    try:\n        return {}\n"
        "    except OverflowError:\n        return overflowed(s, w._den)"
    ),
)

#: the digit, in bits above a window's scale 2^E, of the count of +inf values
#: in a scaled sum, and twice it that of -inf; a NaN counts as one of each.
#: The finite part of a sum of fewer than 2^64 doubles, each below 2^1024 in
#: magnitude, stays below half of the first digit's unit, so the counts are
#: read back exactly, and a sum or average that counts one lies past the
#: float range, where lowering it raises OverflowError
_DIGIT = 1100


def _exact(w, v: float) -> int:
    """v at window w's scale 2^E, where v * 2^E is no float integer: for a
    finite v, v * 2^E exactly, E raised first to v's fraction bits if it
    has more, with the running summary and every pane shifted to it; for a
    NaN or an infinity, the unit of its count."""
    den = w._den
    if v - v == 0.0:  # finite
        n, d = v.as_integer_ratio()
        if d > den:  # E <= 1074, so a window is rescaled at most 1074 times
            k = d.bit_length() - den.bit_length()
            w._total = _shifted(w._total, k)
            panes = w.panes
            for i, s in panes.items():
                panes[i] = _shifted(s, k)
            w._den = den = d
            w._scale = float(d) if d.bit_length() <= 1024 else math.nan
        return n * (den // d)
    unit = den << _DIGIT
    return unit if v > 0.0 else unit << _DIGIT if v < 0.0 else unit + (unit << _DIGIT)


def _shifted(s, k: int):
    """The summary s of scaled values, an int or a tuple whose first item is
    that int, at a scale 2^k times finer."""
    return s << k if s.__class__ is int else (s[0] << k, *s[1:])


def _overflowed(s, den: int) -> float:
    """The value of the summary s of scaled values at scale den whose
    lowering left the float range: NaN if it counts a NaN or infinities of
    both signs, the infinity it counts, and else the infinity of the finite
    sum's sign."""
    t = s if s.__class__ is int else s[0]
    unit = den << _DIGIT
    counts = (t + (unit >> 1)) // unit  # the finite part is gone
    pos, neg = counts & ((1 << _DIGIT) - 1), counts >> _DIGIT
    if pos and neg:
        return math.nan
    if pos or neg:
        return math.inf if pos else -math.inf
    return math.inf if t > 0 else -math.inf


def _late(message: str) -> OutOfOrderError:
    return OutOfOrderError([Diagnostic(message)])


def _define(source: str, **names) -> dict:
    """The scope in which `source` ran, its definitions reading `names` and
    what every window function reads by name."""
    scope = dict(
        names,
        U=UNDEFINED,
        late=_late,
        nan_max=nan_max,
        nan_min=nan_min,
        nan=math.nan,
        insort=insort,
        setitem=setitem,
        remove_oldest=_remove_oldest,
        exact=_exact,
        overflowed=_overflowed,
        inf=math.inf,
        EXACT=_EXACT,
    )
    exec(_code(source), scope)
    return scope


class Aggregator:
    """One aggregation: its summary arithmetic as snippets, and the window
    functions built from them. merge(a, b) requires that a summarizes a time
    range entirely before b's; adjacent-range merging is associative for all
    of these summaries. With an `inverse` snippet, which takes the oldest
    part b out of a, the windows subtract each evicted pane from one running
    summary (`_SUBTRACT`); without one, they aggregate the panes as a
    Two-Stacks (`_TWO_STACKS`). A pane is one slot, unless a subtracting
    aggregation gives `slots`, the slot count of a summary a: then each
    value is one. A subtracting aggregation over doubles that gives
    `scaled`, the lowering of a summary s of values scaled by `w._den`, is
    exact: its windows add each value as an integer at their scale and lower
    by `scaled` (see the module docstring). A Two-Stacks built from the
    same snippets without the inverse has no scale and adds the values as
    they come. `names` are objects the snippets read."""

    def __init__(
        self,
        empty: str,
        new: str,
        add: str,
        merge: str,
        lower: str,
        inverse: str | None = None,
        slots: str | None = None,
        scaled: str | None = None,
        **names,
    ):
        self.snippets = dict(empty=empty, new=new, add=add, merge=merge, lower=lower)
        place = dict(place=_PLACE, placed=_PLACED, until=_UNTIL)
        if inverse is None:
            rotate = _ROTATE.format(**self.snippets)
            window = _TWO_STACKS.format(rotate=rotate, **place, **self.snippets)
        else:
            self.snippets["inverse"] = inverse
            rule = _ONE_SLOT
            if slots is not None:
                self.snippets["slots"] = slots
                rule = dict(_VALUE_SLOT, held=slots)
            exact = dict(unscaled="", convert="", lowering=f"\n    return {lower}")
            if scaled is not None:
                self.snippets["scaled"] = scaled
                exact = dict(_SCALED, lowering=_SCALED["lowering"].format(scaled))
            window = _SUBTRACT.format(**place, **rule, **exact, **self.snippets)
        scope = _define(_FUNCTIONS.format(**self.snippets) + window, **names)
        for name in ("new", "add", "merge", "lower", "clear", "register", "evaluate"):
            setattr(self, name, scope[name])


def _remove_oldest(a: list, b: list) -> list:
    """The median summary a less b, the summary of its oldest values: each
    value of b goes as the first of the values in a equal to it."""
    a[0] -= b[0]
    for v in b[1:]:
        del a[bisect_left(a, v, 1)]
    return a


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
    """The aggregator of `agg` over `target_ty` values. Those whose
    summaries have an exact inverse, count over any type, sum and avg, over
    doubles as scaled integers, and median, get an inverse snippet and so
    subtract on eviction; the others aggregate their panes as a Two-Stacks
    (see the module docstring).
    Aggregators hold no state, so each is built once per process and shared
    by every window."""
    integer = target_ty is ValueType.INT
    match agg:
        case AggFn.COUNT:
            return Aggregator("0", "0", "s + 1", "a + b", "s", "a - b")
        case AggFn.SUM:
            empty, scaled = ("0", None) if integer else ("0.0", "s / w._den")
            return Aggregator(empty, "0", "s + v", "a + b", "s", "a - b", scaled=scaled)
        case AggFn.AVG:
            snippets = "(0, 0)", "(s[0] + v, s[1] + 1)", "(a[0] + b[0], a[1] + b[1])"
            inverse = "(a[0] - b[0], a[1] - b[1])"
            if integer:
                return Aggregator("U", *snippets, "s[0] // s[1]", inverse)
            scaled = "s[0] / (s[1] * w._den)"
            return Aggregator("U", *snippets, "s[0] / s[1]", inverse, scaled=scaled)
        case AggFn.MIN | AggFn.MAX:
            pick = "nan_max" if agg is AggFn.MAX else "nan_min"
            add = f"v if s is None else {pick}(s, v)"
            merge = f"b if a is None else a if b is None else {pick}(a, b)"
            return Aggregator("U", "None", add, merge, "s")
        case AggFn.INTEGRAL:
            return Aggregator("U", "None", *_TRAPEZOIDS, "s[4]")
        case AggFn.MEDIAN:
            # [NaN count, *the other values, sorted]; a NaN is only counted
            add = "(insort(s, v, 1) if v == v else setitem(s, 0, s[0] + 1)) or s"
            merge = "[a[0] + b[0], *sorted(a[1:] + b[1:])]"
            mid = "s[len(s) // 2]"  # the middle value, or the lower middle one
            lower = mid if integer else (
                f"nan if s[0] else {mid} if len(s) % 2 == 0 else "
                f"({mid} + s[len(s) // 2 + 1]) / 2"
            )
            inverse, slots = "remove_oldest(a, b)", "a[0] + len(a) - 1"
            return Aggregator("U", "[0]", add, merge, lower, inverse, slots)
    raise ValueError(f"unknown aggregation {agg!r}")


class PanedWindow:
    """Sliding-window state for one (window expression, target instance).

    `panes` maps pane index to the raw summary of that pane, in ascending
    index order; the last pane, `_open`, is the only one that `register`
    still folds values into. The rest of the state depends on the
    aggregator's scheme (see the module docstring), which sets it up
    (`clear`):

    - Subtract-on-Evict: `_order` holds the retained pane indices, oldest
      first, and `_total` is the summary of every retained pane; a median
      value is in its pane's summary and in `_total`. Over doubles, the
      sums of a float sum or avg are scaled by `_den`, 2^E, which is
      `_scale` as a float while it has one and NaN after;
    - Two-Stacks: the closed panes are aggregated in time order front,
      frozen, back. `_front` holds (pane index, summary of that pane and
      every later front pane) with the oldest pane on top. `_queue` holds
      the index of each back pane, oldest first, and `_back` is their
      summary, None when there are none. While a rotation runs, `_mid` is
      the summary of the frozen panes, and None otherwise; `_frozen` holds
      the frozen panes not yet in the new front `_new`, oldest first, and
      `_cursor` counts the front panes that are, from the bottom. `_due`
      is twice the front's length less the back's while no rotation runs,
      and negative while one does.

    `last_ts` is the latest instant any operation saw, and an operation at
    an earlier one is rejected; `swept` is the instant of the last
    eviction, at which an evaluation evicts nothing, or None once a value
    was folded into the open pane after it. `_until` is the end of the
    newest pane where a float placement opened it, and -inf otherwise: once
    eviction has dropped that pane, it lies before `last_ts` (see the
    module docstring). `slots` is the running
    count that `slot_count` reports, an attribute that a caller charging an
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
        "_float",
        "_open",
        "_front",
        "_queue",
        "_back",
        "_mid",
        "_frozen",
        "_new",
        "_cursor",
        "_due",
        "_order",
        "_total",
        "_scale",
        "_den",
        "_until",
        "slots",
    )

    def __init__(self, duration: Fraction, pane_width: Fraction, agg: Aggregator):
        self.duration = duration
        self.pane_width = pane_width
        self.agg = agg
        # z and r / z = k + fr / (rd * zn) as integers, for exact pane arithmetic
        zn, zd = pane_width.numerator, pane_width.denominator
        k, fr = divmod(duration.numerator * zd, duration.denominator * zn)
        self._horizon = (zn, zd, k, fr, duration.denominator)
        dyadic = zd & (zd - 1) == 0 and fr == 0 and max(zn, zd, k) <= _EXACT
        self._float = (float(zd), float(zn), float(k), zn / zd) if dyadic else None
        self._empty()

    def _empty(self) -> None:
        self.panes: dict[int, object] = {}  # index -> summary, ascending
        self.last_ts = self.swept = -math.inf
        self._open: int | None = None  # index of the newest pane
        self._until = -math.inf
        self.slots = 0
        self.agg.clear(self)

    def fresh(self) -> PanedWindow:
        """A new, empty window of this one's duration, width and aggregation,
        sharing its constants: an instance's window costs no arithmetic."""
        w = object.__new__(PanedWindow)
        w.duration, w.pane_width, w.agg = self.duration, self.pane_width, self.agg
        w._horizon, w._float = self._horizon, self._float
        w._empty()
        return w

    def register(self, value, ts) -> int:
        """Fold a value into its pane, and into the running summary of a
        window that subtracts on eviction; no panes are merged. Eviction
        runs only when a new pane opens: folding into an existing
        pane cannot raise the pane count. Returns the change in slot_count,
        so that a caller charging slots need not read it around the call."""
        return self.agg.register(self, value, ts)

    def evaluate(self, ts):
        """Combine the panes overlapping (ts - r, ts] and lower the result,
        after dropping every pane whose entire span lies at or before ts - r:
        (i+1)*z <= ts - r, i.e. i + 1 <= floor((ts - r) / z), exactly.

        Empty windows yield the aggregation's neutral element when it has one
        (count, sum) and UNDEFINED otherwise.
        """
        return self.agg.evaluate(self, ts)

    @property
    def slot_count(self) -> int:
        return self.slots
