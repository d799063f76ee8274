import math
import random
import statistics
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import exact_sum
from streammon import UNDEFINED, OutOfOrderError
from streammon.ast import AggFn, ValueType
from streammon.windows import _PLACE, Aggregator, PanedWindow, _define, make_aggregator


def _window(agg, r, z, ty=ValueType.DOUBLE):
    return PanedWindow(Fraction(r), Fraction(z), make_aggregator(agg, ty))


def _max_panes(w):
    return math.ceil(w.duration / w.pane_width) + 1


#: span(w, ts): the pane that holds ts, ceil(ts / z) - 1, and the eviction
#: horizon floor((ts - r) / z) in window w, by the arithmetic that the window
#: templates write inline
_span = _define(f"def span(w, ts):{_PLACE}    return (q if rem else q - 1), kill")["span"]


# -- oracle: bucket raw events into the same panes, aggregate directly -------
#
# The oracle does its own bucketing and never calls into streammon.windows.
# Times, widths and durations (int, float or Fraction) are taken as their
# exact integer ratios, so every comparison below is exact.


def _pane(t, z):
    """The pane that holds t: the smallest i with t <= (i+1) * z."""
    zn, zd = z.as_integer_ratio()
    tn, td = t.as_integer_ratio()
    return -((-tn * zd) // (td * zn)) - 1


def _retained(events, ts, r, z):
    """Events whose pane overlaps (ts - r, ts]; pane i covers (iz, (i+1)z]."""
    zn, zd = z.as_integer_ratio()
    sn, sd = ts.as_integer_ratio()
    rn, rd = r.as_integer_ratio()
    # (i+1) * zn/zd > sn/sd - rn/rd  <=>  (i+1) * zn*sd*rd > (sn*rd - rn*sd) * zd
    pane_end = zn * sd * rd
    lo = (sn * rd - rn * sd) * zd
    keep = []
    for t, v in events:
        tn, td = t.as_integer_ratio()
        if tn * sd > sn * td:  # t > ts
            continue
        if (_pane(t, z) + 1) * pane_end > lo:
            keep.append((t, v))
    return keep


def _retained_fraction(events, ts, r, z):
    """Reference for _retained: the same selection in Fraction arithmetic."""
    lo = Fraction(ts) - Fraction(r)
    keep = []
    for t, v in events:
        q = Fraction(t) / Fraction(z)
        idx = -((-q.numerator) // q.denominator) - 1
        if (idx + 1) * Fraction(z) > lo and Fraction(t) <= Fraction(ts):
            keep.append((t, v))
    return keep


def _aggregate(agg, kept):
    values = [v for _, v in kept]
    if agg is AggFn.COUNT:
        return len(values)
    if agg is AggFn.SUM:
        return sum(values) if values else 0.0
    if not values:
        return UNDEFINED
    if agg is AggFn.AVG:
        return sum(values) / len(values)
    if agg in (AggFn.MIN, AggFn.MAX):
        if any(math.isnan(v) for v in values):
            return math.nan  # NaN anywhere in the window wins
        return min(values) if agg is AggFn.MIN else max(values)
    if agg is AggFn.MEDIAN:
        if any(math.isnan(v) for v in values):
            return math.nan  # as for min/max
        return statistics.median(values)
    if agg is AggFn.INTEGRAL:
        area = 0.0
        for (t0, v0), (t1, v1) in zip(kept, kept[1:]):
            area += (t1 - t0) * (v0 + v1) / 2.0
        return area
    raise AssertionError(agg)


def _oracle(agg, events, ts, r, z):
    return _aggregate(agg, _retained(events, ts, r, z))


def _close(a, b, tol=1e-9):
    if a is UNDEFINED or b is UNDEFINED:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if a != a or b != b:
        return a != a and b != b  # both NaN
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# -- spec examples ------------------------------------------------------------


def test_register_creates_one_pane_per_second():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    for t in (1, 2, 3):
        w.register(True, t)
    assert sorted(w.panes) == [0, 1, 2]  # pane i covers (i, i+1]
    assert all(n == 1 for n in w.panes.values())


def test_register_folds_into_shared_pane():
    w = _window(AggFn.SUM, 30, 5)
    w.register(2.0, 1)
    w.register(3.0, 4)
    assert len(w.panes) == 1
    assert w.evaluate(4) == 5.0


def test_integral_trapezoid_within_pane():
    w = _window(AggFn.INTEGRAL, 100, 10)
    w.register(1.0, 0)
    w.register(1.0, 2)
    assert w.evaluate(2) == pytest.approx(2.0)


def test_integral_bridges_panes_and_gaps():
    w = _window(AggFn.INTEGRAL, 100, 1)
    points = [(0.5, 0.0), (1.5, 2.0), (4.5, 2.0), (5.0, 0.0)]
    for t, v in points:
        w.register(v, t)
    expected = _oracle(AggFn.INTEGRAL, points, 5.0, 100, 1)
    assert w.evaluate(5.0) == pytest.approx(expected)


def test_avg_example():
    w = _window(AggFn.AVG, 10, 1)
    for i, v in enumerate((1.0, 2.0, 3.0)):
        w.register(v, i + 1)
    assert w.evaluate(3) == 2.0


def test_empty_window_values():
    assert _window(AggFn.COUNT, 10, 1, ValueType.INT).evaluate(5) == 0
    assert _window(AggFn.SUM, 10, 1).evaluate(5) == 0.0
    for agg in (AggFn.AVG, AggFn.MIN, AggFn.MAX, AggFn.INTEGRAL, AggFn.MEDIAN):
        assert _window(agg, 10, 1).evaluate(5) is UNDEFINED


def test_evict_removes_panes_at_or_before_horizon():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    for t in range(21):
        w.register(1, t)
    assert w.evaluate(20) == 10
    assert sorted(w.panes) == list(range(10, 20))


def test_evict_on_fresh_window_is_noop():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    assert w.evaluate(100) == 0
    assert len(w.panes) == 0


def test_burst_stays_in_one_pane():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    for _ in range(10**5):
        w.register(1, 3.25)
    assert len(w.panes) == 1
    assert w.panes[3] == 10**5


def test_out_of_order_registration_rejected():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    w.register(1, 5.0)
    with pytest.raises(OutOfOrderError):
        w.register(1, 4.0)


def test_evaluation_before_last_sweep_rejected():
    """An evaluation at 3.5 evicts pane 0, (0, 1], of a 2 s window; one at
    2.5 afterwards would lack the value that pane held, so it is rejected,
    as is a registration there, and nothing changes."""
    for agg in (AggFn.SUM, AggFn.MEDIAN):
        w = _window(agg, 2, 1)
        w.register(1.0, 1.0)
        w.register(1.0, 2.0)
        fresh = _window(agg, 2, 1)
        fresh.register(1.0, 1.0)
        fresh.register(1.0, 2.0)
        assert fresh.evaluate(2.5) == 2.0 if agg is AggFn.SUM else 1.0
        assert w.evaluate(3.5) == 1.0
        for late in (w.evaluate, lambda ts: w.register(1.0, ts)):
            with pytest.raises(OutOfOrderError):
                late(2.5)
        assert len(w.panes) == 1 and w.evaluate(3.5) == 1.0


def test_evaluation_at_last_sweep_sees_later_registration_rejected():
    """Registering at 1.7 into the pane opened at 1.2 needs no sweep; an
    evaluation back at 1.2, the instant last swept, is still rejected."""
    w = _window(AggFn.SUM, 2, 1)
    w.register(1.0, 1.2)
    w.register(1.0, 1.7)
    with pytest.raises(OutOfOrderError):
        w.evaluate(1.2)
    assert w.evaluate(1.7) == 2.0


def test_median_against_statistics():
    w = _window(AggFn.MEDIAN, 10, 1)
    values = [5.0, 1.0, 3.0, 2.0]
    for i, v in enumerate(values):
        w.register(v, 1 + i * 0.5)
    assert w.evaluate(3.0) == statistics.median(values)


def test_int_aggregations_stay_int():
    w = _window(AggFn.AVG, 10, 1, ValueType.INT)
    for i, v in enumerate((1, 2, 4)):
        w.register(v, i + 1)
    assert w.evaluate(3) == 7 // 3
    w = _window(AggFn.MEDIAN, 10, 1, ValueType.INT)
    for i, v in enumerate((4, 1, 3, 2)):
        w.register(v, 1 + i * 0.25)
    assert w.evaluate(2) == statistics.median_low([1, 2, 3, 4])


# -- properties ----------------------------------------------------------------


_HOMOMORPHIC = [AggFn.COUNT, AggFn.SUM, AggFn.AVG, AggFn.MIN, AggFn.MAX, AggFn.INTEGRAL]


@st.composite
def _traces(draw):
    n = draw(st.integers(1, 120))
    dts = draw(
        st.lists(
            st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    t = 0.0
    events = []
    for dt, v in zip(dts, values):
        t += dt
        events.append((t, v))
    # dyadic widths (float placement where r / z is an integer) and others
    # (integer placement), and durations that are no multiple of the width
    r = Fraction(draw(st.sampled_from([1, 2, 5, 10, "5/2", "7/3"])))
    z = Fraction(draw(st.sampled_from(["1/4", "1/2", "1", "2", "1/3", "2/5", "1/10"])))
    return events, r, min(z, r)


@given(_traces())
@settings(max_examples=250, deadline=None)
def test_integer_retained_equals_fraction_retained(trace):
    events, r, z = trace
    last = events[-1][0]
    middle = Fraction(events[len(events) // 2][0])
    probes = (
        last,
        last + float(r) / 2,
        math.ceil(Fraction(last) / z) * z,  # pane-aligned
        math.floor(middle / z) * z + r,  # ts - r on a pane boundary
    )
    for ts in probes:
        assert _retained(events, ts, r, z) == _retained_fraction(events, ts, r, z), ts


@given(_traces(), st.sampled_from(_HOMOMORPHIC))
@settings(max_examples=250, deadline=None)
def test_paned_equals_bucketing_oracle(trace, agg):
    events, r, z = trace
    w = PanedWindow(r, z, make_aggregator(agg, ValueType.DOUBLE))
    bound = _max_panes(w)
    for i, (t, v) in enumerate(events):
        w.register(v, t)
        assert len(w.panes) <= bound
        if i % 7 == 0:
            got = w.evaluate(t)
            want = _oracle(agg, events[: i + 1], t, r, z)
            assert _close(got, want), (agg, got, want)
    last = events[-1][0]
    for ts in (last, last + float(r) / 2, last + float(r) + 1):
        got = w.evaluate(ts)
        want = _oracle(agg, events, ts, r, z)
        assert _close(got, want), (agg, ts, got, want)
        assert len(w.panes) <= bound


@given(_traces())
@settings(max_examples=150, deadline=None)
def test_median_matches_oracle(trace):
    events, r, z = trace
    w = PanedWindow(r, z, make_aggregator(AggFn.MEDIAN, ValueType.DOUBLE))
    for t, v in events:
        w.register(v, t)
    got = w.evaluate(events[-1][0])
    want = _oracle(AggFn.MEDIAN, events, events[-1][0], r, z)
    assert _close(got, want)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 400),  # quarter-second grid, off pane boundaries
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from([AggFn.COUNT, AggFn.SUM, AggFn.AVG, AggFn.MIN, AggFn.MAX]),
)
@settings(max_examples=200, deadline=None)
def test_result_independent_of_pane_width(raw, agg):
    """count/sum/avg/min/max do not depend on z when evaluation times align
    with both pane grids."""
    events = sorted((k / 4.0 + 1 / 8.0, v) for k, v in raw)
    r = Fraction(8)
    results = []
    ts = 2 * math.ceil(events[-1][0] / 2)  # aligned with all three pane grids
    for z in (Fraction(1), Fraction(2), Fraction(1, 2)):
        w = PanedWindow(r, z, make_aggregator(agg, ValueType.DOUBLE))
        for t, v in events:
            w.register(v, t)
        results.append(w.evaluate(ts))
    assert _close(results[0], results[1]) and _close(results[0], results[2])


@given(_traces())
@settings(max_examples=100, deadline=None)
def test_pane_bound_invariant_after_any_sequence(trace):
    events, r, z = trace
    w = PanedWindow(r, z, make_aggregator(AggFn.COUNT, ValueType.INT))
    bound = _max_panes(w)
    for t, v in events:
        w.register(v, t)
        assert len(w.panes) <= bound
        w.evaluate(t)
        assert len(w.panes) <= bound


def test_evaluation_at_aligned_times_is_exact():
    """At pane-aligned evaluation instants the retained panes tile
    (ts - r, ts] exactly, so pane bucketing introduces no approximation:
    a value at exactly ts - r is excluded, a value at ts is included."""
    r, z = Fraction(10), Fraction(2)
    w = PanedWindow(r, z, make_aggregator(AggFn.COUNT, ValueType.INT))
    events = [(0.5, 1), (3.9, 1), (9.99, 1), (10.0, 1), (12.0, 1), (19.999, 1), (20.0, 1)]
    for t, v in events:
        w.register(v, t)
    ts = 20  # multiple of z
    got = w.evaluate(ts)
    exact = sum(1 for t, _ in events if ts - float(r) < t <= ts)
    assert got == exact == 3


def test_no_double_count_across_period_windows():
    """With window duration equal to the evaluation period, a value produced
    exactly at a tick is seen by exactly one evaluation."""
    r = z = Fraction(1)
    w = PanedWindow(r, z, make_aggregator(AggFn.SUM, ValueType.DOUBLE))
    w.register(5.0, 3.0)
    total = 0.0
    for tick in (3, 4, 5):
        v = w.evaluate(tick)
        total += v
    assert total == 5.0


# -- NaN in min/max/median ----------------------------------------------------


@given(_traces(), st.sampled_from([AggFn.MIN, AggFn.MAX, AggFn.MEDIAN]), st.data())
@settings(max_examples=200, deadline=None)
def test_extremum_nan_wins_wherever_it_arrives(trace, agg, data):
    """A NaN anywhere in the window makes min/max/median NaN, whatever its
    position, so the result depends neither on how the panes are grouped nor
    on the order in which a sort meets the NaN."""
    events, r, z = trace
    nans = data.draw(st.sets(st.integers(0, len(events) - 1)))
    events = [(t, math.nan if i in nans else v) for i, (t, v) in enumerate(events)]
    w = PanedWindow(r, z, make_aggregator(agg, ValueType.DOUBLE))
    for i, (t, v) in enumerate(events):
        w.register(v, t)
        got, want = w.evaluate(t), _oracle(agg, events[: i + 1], t, r, z)
        assert _close(got, want), (agg, t, got, want)
    last = events[-1][0]
    for ts in (last + float(r) / 2, last + float(r) + 1):
        assert _close(w.evaluate(ts), _oracle(agg, events, ts, r, z))


# -- window code against a left-fold re-merge ---------------------------------

#: (aggregation, value type, check): "fold" results must match the left
#: fold of the retained panes bit for bit; "exact" ones, float sum and avg,
#: whose panes hold scaled integers, the correctly rounded sum or mean of the
#: retained values (`oracle.exact_sum`); the integral's, "close", the left
#: fold up to reassociated float additions
_DIFFERENTIAL = [
    (AggFn.COUNT, ValueType.INT, "fold"),
    (AggFn.SUM, ValueType.INT, "fold"),
    (AggFn.SUM, ValueType.DOUBLE, "exact"),
    (AggFn.AVG, ValueType.INT, "fold"),
    (AggFn.AVG, ValueType.DOUBLE, "exact"),
    (AggFn.MIN, ValueType.DOUBLE, "fold"),
    (AggFn.MAX, ValueType.DOUBLE, "fold"),
    (AggFn.INTEGRAL, ValueType.DOUBLE, "close"),
    (AggFn.MEDIAN, ValueType.DOUBLE, "fold"),
    (AggFn.MEDIAN, ValueType.INT, "fold"),
]

_STEP = st.one_of(
    st.just(0.0),  # bursts into one pane
    st.floats(0.0, 0.1),  # several values per pane at r/z = 256
    st.floats(0.0, 3.0),
    st.floats(0.0, 20.0),  # jumps past the whole window
)


def _left_fold(agg, summaries):
    combined = None
    for summary in summaries:
        combined = summary if combined is None else agg.merge(combined, summary)
    return combined


def _magnitude(kept):
    """The integral of the absolute values: float reassociation error is
    relative to this, not to a result that cancellation can bring near 0."""
    return sum(
        (t1 - t0) * (abs(v0) + abs(v1)) / 2.0 for (t0, v0), (t1, v1) in zip(kept, kept[1:])
    )


@given(
    st.sampled_from(_DIFFERENTIAL),
    st.sampled_from([1, 4, 256]),
    st.lists(
        st.tuples(
            st.sampled_from(["register", "register", "evaluate"]),
            _STEP,
            st.integers(-10**6, 10**6),
            st.booleans(),  # at the instant last registered or swept
        ),
        min_size=1,
        max_size=150,
    ),
)
@settings(max_examples=300, deadline=None)
def test_two_stacks_equals_left_fold(case, ratio, ops):
    agg_fn, ty, check = case
    r = Fraction(8)
    z = r / ratio
    agg = make_aggregator(agg_fn, ty)
    w = PanedWindow(r, z, agg)
    events = []
    now = 0.0
    for op, dt, raw, stay in ops:
        if not stay:
            now += dt
        value = raw if ty is ValueType.INT else raw / 7.0
        if op == "register":
            before = w.slot_count
            assert w.register(value, now) == w.slot_count - before
            events.append((now, value))
        else:
            w.evaluate(now)
        got = w.evaluate(now)
        assert len(w.panes) <= _max_panes(w)
        # a median pane is [NaN count, *sorted values], one slot per value
        per_pane = [1 if agg_fn.homomorphic else s[0] + len(s) - 1 for s in w.panes.values()]
        assert w.slot_count == sum(per_pane)
        if not w.panes:
            assert got == (0 if agg_fn in (AggFn.COUNT, AggFn.SUM) else UNDEFINED)
            continue
        kept = _retained(events, now, r, z)
        if check == "exact":
            want = exact_sum([v for _, v in kept], mean=agg_fn is AggFn.AVG)
            assert repr(got) == repr(want), (op, got, want)
            continue
        want = agg.lower(_left_fold(agg, w.panes.values()))
        if check == "fold":
            assert got == want and type(got) is type(want), (op, got, want)
        else:
            scale = max(1.0, abs(want), _magnitude(kept))
            assert abs(got - want) <= 1e-12 * scale, (op, got, want, scale)


#: doubles with both zeros, NaN, both infinities and repeats
_MEDIAN_DOUBLES = (
    st.sampled_from([0.0, -0.0, 1.0])
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.floats()
)


def _median_steps(values):
    """Steps (op, time step, value, at the instant of the last one)."""
    op = st.sampled_from(["register", "register", "evaluate"])
    return st.lists(st.tuples(op, _STEP, values, st.booleans()), min_size=1, max_size=100)


@given(
    st.sampled_from([1, 4, 256, Fraction(5, 2)]),
    st.tuples(st.just(ValueType.DOUBLE), _median_steps(_MEDIAN_DOUBLES))
    | st.tuples(st.just(ValueType.INT), _median_steps(st.integers(-2, 2) | st.integers())),
)
# equal values stay in arrival order: the middle two are -0.0 and 0.0
@example(
    1,
    (
        ValueType.DOUBLE,
        [("register", 0.0, v, True) for v in (-0.0, -0.0, 0.0, 1.0)]
        + [("evaluate", 0.0, 0.0, True)],
    ),
)
# evicting pane 0's 0.0 keeps pane 1's -0.0
@example(
    1,
    (
        ValueType.DOUBLE,
        [("register", 1.0, 0.0, False), ("register", 9.0, -0.0, False)]
        + [("evaluate", 7.0, 0.0, False)],
    ),
)
@settings(max_examples=200, deadline=None)
def test_median_is_bit_identical_to_statistics(ratio, case):
    """Registrations and evaluations of a median window, in any mix: each
    evaluation's repr, down to the sign of a zero, is that of
    `statistics.median` (double) or `median_low` (int) of the retained
    values in arrival order, or NaN if one of them is NaN; and after every
    step the window's slots are the values its panes hold."""
    ty, steps = case
    r = Fraction(8)
    z = r / ratio
    w = PanedWindow(r, z, make_aggregator(AggFn.MEDIAN, ty))
    events, panes = [], []
    now = 0.0
    for op, dt, value, stay in steps:
        if not stay:
            now += dt
        if op == "register":
            w.register(value, now)
            events.append((now, value))
            panes.append(_pane(now, z))
        else:
            got = w.evaluate(now)
            kept = [v for _, v in _retained(events, now, r, z)]
            if not kept:
                assert got is UNDEFINED
            else:
                if any(v != v for v in kept):
                    want = math.nan
                elif ty is ValueType.INT:
                    want = statistics.median_low(kept)
                else:
                    want = statistics.median(kept)
                assert repr(got) == repr(want), (now, kept)
        assert w.slots == sum(p in w.panes for p in panes), (op, now)


# -- exact float sum and avg ---------------------------------------------------

#: doubles with both zeros, subnormals, values whose sums leave the float
#: range, NaN and both infinities
_EXACT_DOUBLES = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 0.1, 1e308, -1e308])
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(-1e3, 1e3)
)


@given(
    st.sampled_from([AggFn.SUM, AggFn.AVG]),
    st.sampled_from([1, 4, 256, Fraction(5, 2)]),
    _median_steps(_EXACT_DOUBLES),
)
# 5e-324 needs 2^1074, past the float scale, after 0.1 and 3.0 are retained
@example(
    AggFn.SUM,
    4,
    [("register", 1.0, v, False) for v in (3.0, 0.1, 5e-324, 0.25)]
    + [("evaluate", 2.5, 0.0, False)],
)
# two values of 1e308 overflow their sum, not their mean; an infinity and a
# NaN are evicted again
@example(
    AggFn.AVG,
    1,
    [("register", 0.0, v, True) for v in (1e308, 1e308, math.inf)]
    + [("register", 9.0, v, False) for v in (math.nan, -math.inf, 2.0)]
    + [("evaluate", 20.0, 0.0, False)],
)
@settings(max_examples=300, deadline=None)
def test_float_sum_and_avg_are_exact(agg_fn, ratio, steps):
    """Registrations and evaluations of a float sum or avg window, in any
    mix: after every step its value, down to the sign of a zero, is the
    correctly rounded sum or mean of the retained values in `repr`, NaN
    with a NaN or infinities of both signs among them, an infinity among
    them, or an infinity past the float range; its slots are its panes."""
    r = Fraction(8)
    z = r / ratio
    w = PanedWindow(r, z, make_aggregator(agg_fn, ValueType.DOUBLE))
    events = []
    now = 0.0
    for op, dt, value, stay in steps:
        if not stay:
            now += dt
        if op == "register":
            w.register(value, now)
            events.append((now, value))
        got = w.evaluate(now)
        kept = [v for _, v in _retained(events, now, r, z)]
        if kept:
            want = exact_sum(kept, mean=agg_fn is AggFn.AVG)
        else:
            want = 0.0 if agg_fn is AggFn.SUM else UNDEFINED
        assert repr(got) == repr(want), (op, now, kept)
        assert w.slots == len(w.panes)


def test_scale_only_grows():
    """A value with more fraction bits than the window's scale raises the
    scale of the retained panes too; evicting it leaves the scale, and the
    sums stay exact, 0.1 + 0.2 + 3.0 where floats give 3.3000000000000003."""
    w = _window(AggFn.SUM, 2, 1)
    values = [(0.5, 3.0), (0.7, 0.2), (1.5, 0.1), (2.5, 2.0**-1074)]
    for t, v in values:
        w.register(v, t)
    assert w._den == 2**1074
    assert w.evaluate(2.5) == float(sum(Fraction(v) for _, v in values))
    assert w.evaluate(3.5) == float(Fraction(0.1) + Fraction(2.0**-1074)) == 0.1
    assert w.evaluate(4.5) == 2.0**-1074
    assert w._den == 2**1074
    w = _window(AggFn.SUM, 2, 1)
    for t, v in [(0.5, 3.0), (0.6, 0.1), (1.5, 0.2)]:
        w.register(v, t)
    assert w.evaluate(1.5) == 3.3 != 3.0 + 0.1 + 0.2


# -- the open-pane bound ---------------------------------------------------------

#: an aggregation of each scheme: Subtract-on-Evict over ints, over scaled
#: doubles and over a sorted multiset (median), and the Two-Stacks
_SCHEMES = [
    (AggFn.COUNT, ValueType.INT),
    (AggFn.SUM, ValueType.DOUBLE),
    (AggFn.MEDIAN, ValueType.DOUBLE),
    (AggFn.MIN, ValueType.DOUBLE),
]

#: (z, r, steps) per case: registrations at an instant, or evaluations
#: ("evaluate", instant)
_BOUND_CASES = {
    "pane end": (
        Fraction(1, 4),
        Fraction(1),
        [0.1, 0.25, math.nextafter(0.25, 1.0), 0.5, 0.5, 0.75, math.nextafter(0.75, 1.0)],
    ),
    "int and Fraction": (
        Fraction(1, 4),
        Fraction(1),
        [0.6, Fraction(3, 4), 0.8, 1, Fraction(9, 8), 1.2, 2, Fraction(5, 2), 2.5, 2.6],
    ),
    "non-dyadic": (
        Fraction(3, 10),
        Fraction(3, 2),
        [0.1, 0.3, Fraction(3, 10), 0.30000000000000004, 0.6, Fraction(7, 10), 0.9],
    ),
    "past 2^52": (
        Fraction(1, 4),
        Fraction(1),
        [2.0**50 - 0.5, 2.0**50 - 0.375, 2.0**50 - 0.25, 2.0**50 - 0.125, 2.0**50]
        + [2.0**50 + 0.125, 2.0**50 + 0.25, 2.0**50 + 0.375],
    ),
    "emptied": (
        Fraction(1, 4),
        Fraction(1),
        [0.1, ("evaluate", 3.0), 3.0, 3.1, ("evaluate", 9.0), 9.25, 9.3],
    ),
}


@pytest.mark.parametrize("agg_fn, ty", _SCHEMES)
@pytest.mark.parametrize("case", sorted(_BOUND_CASES))
def test_open_pane_bound_places_as_the_integer_division(case, agg_fn, ty):
    """A registration at or before the open pane's end, `_until`, goes into
    the open pane without a division. After every registration and
    evaluation the window's panes are those of the retained values, placed
    by integer arithmetic (`_retained`), and its value is the reference's.
    `_until` is the exact end of the open pane where a float instant on a
    dyadic width was placed in floats, and -inf after any other placement:
    an int or Fraction instant, |ts * zd| >= 2^52, the width 3/10."""
    z, r, steps = _BOUND_CASES[case]
    w = PanedWindow(r, z, make_aggregator(agg_fn, ty))
    events = []
    for step in steps:
        if isinstance(step, tuple):
            ts = step[1]
        else:
            ts = step
            value = len(events) % 3 if ty is ValueType.INT else len(events) / 4.0
            opens = not events or _pane(ts, z) != _pane(events[-1][0], z)
            w.register(value, ts)
            events.append((ts, value))
            if opens:
                floats = w._float is not None and ts.__class__ is float
                end = -math.inf
                if floats and abs(ts * z.denominator) < 2**52:
                    end = (_pane(ts, z) + 1) * z
            assert w._until == end, (ts, w._until, end)
        got = w.evaluate(ts)
        kept = _retained(events, ts, r, z)
        assert list(w.panes) == sorted({_pane(t, z) for t, _ in kept}), (ts, list(w.panes))
        assert _close(got, _aggregate(agg_fn, kept)), (ts, got)
        if not isinstance(step, tuple) and opens:
            assert w._until == end


# -- evaluation cost does not grow with r/z -----------------------------------


def _tallied(snippets, *names):
    """The aggregator built from `snippets`, with each evaluation of the
    named snippets that its window code runs counted by name in the
    returned Counter."""
    counts = Counter()

    def tally(name, summary):
        counts[name] += 1
        return summary

    wrapped = {name: f"tally({name!r}, {snippets[name]})" for name in names}
    return Aggregator(**dict(snippets, **wrapped), tally=tally), counts


def _two_stacks(snippets):
    """The snippets of an aggregation without its inverse, if it has one:
    the aggregator built from them is a Two-Stacks."""
    return {name: code for name, code in snippets.items() if name != "inverse"}


def _counting(agg):
    """agg's aggregation as a Two-Stacks, with each merge that its window
    code runs counted under "merge" in the returned Counter."""
    return _tallied(_two_stacks(agg.snippets), "merge")


@pytest.mark.parametrize("ratio", [4, 256])
def test_evaluate_merges_do_not_grow_with_panes(ratio):
    """20k events at about 4 per second into a 10 s avg window, evaluated
    after every registration: a re-merge of the retained panes would take
    about 40 merges per evaluation at r/z = 256. The window's code is built
    with a counter around each merge it performs."""
    r = Fraction(10)
    avg, merges = _counting(make_aggregator(AggFn.AVG, ValueType.DOUBLE))
    w = PanedWindow(r, r / ratio, avg)
    rng = random.Random(7)
    t = 0.0
    n = 20_000
    for _ in range(n):
        t += rng.expovariate(4.0)
        w.register(rng.uniform(-50.0, 50.0), t)
        w.evaluate(t)
    assert 1 <= merges["merge"] / n <= 5, merges["merge"] / n


class _Compared(float):
    """A float that counts the `<` comparisons made on it."""

    count = 0

    def __lt__(self, other):
        _Compared.count += 1
        return float.__lt__(self, other)


@pytest.mark.parametrize("ratio", [4, 256])
def test_median_steps_compare_logarithmically(ratio):
    """30 s of values at 100 Hz, with repeats, both zeros and NaN, into a
    10 s median window, each registration followed by an evaluation at its
    instant. Over n retained values a registration makes its 2 inserts in
    at most bit_length(n) comparisons each, and removes each value it
    evicts in as many; an evaluation compares no value besides those it
    evicts. A sort of the retained values per evaluation, as a median
    without an inverse needs, would make some n log n."""
    r = Fraction(10)
    w = PanedWindow(r, r / ratio, make_aggregator(AggFn.MEDIAN, ValueType.DOUBLE))
    rng = random.Random(11)
    choices = [0.0, -0.0, math.nan, 1.0, 2.0]
    compared = 0
    for k in range(1, 3001):
        t = k / 100
        value = _Compared(rng.choice(choices) if k % 3 else rng.uniform(-5.0, 5.0))
        for step in ("register", "evaluate"):
            before, _Compared.count = w.slots, 0
            if step == "register":
                w.register(value, t)
                evicted = before + 1 - w.slots
                inserts = 2
            else:
                w.evaluate(t)
                evicted, inserts = before - w.slots, 0
            bits = (before + 1).bit_length()
            assert _Compared.count <= (inserts + evicted) * bits, (k, step, _Compared.count)
            compared += _Compared.count
    assert w.slots == 1000  # the values in (20, 30]
    assert compared > 10 * 3000  # the count sees the comparisons


def test_counting_aggregator_counts_every_merge():
    """The counting hook sees every merge of the deamortized Two-Stacks.
    Pane i of a 100 s window with z = 1 holds the value i + 1, registered at
    i + 0.5; nothing expires before the evaluation at 104.5.

    - opening pane 1 closes pane 0, and the back, pane 0 alone, is frozen
      and becomes the new front at once: no merge;
    - closing pane 1 starts the back; closing pane 2 merges onto it: one;
    - closing pane 3 merges onto the back, which then holds more than twice
      the front's panes: it is frozen, the new front starts with pane 3,
      and the close's one step puts pane 2 under it: two;
    - an evaluation merges front top + (frozen + open pane): two;
    - closing pane 4 starts a new back, and its step puts pane 1 under the
      new front: one; an evaluation now merges all four parts: three, the
      most any evaluation that evicts nothing does;
    - closing pane 5 merges onto the back, and its step rebuilds the
      front's pane 0 under the new front, which then holds every live pane
      and replaces the front: two;
    - closing panes 6 to 11 merges each onto the back: one each; closing
      pane 12 freezes the back, panes 4 to 12, as pane 3 did: two; closing
      pane 13 starts a new back, and its step puts pane 10 under the new
      front: one; an evaluation merges all four parts: three;
    - at 104.5 panes 0 to 3 expire: two steps after each of the first three
      evictions build panes 9 to 4, one merge each, and after the fourth
      the new front replaces the front; the evaluation then merges front
      top + (back + open): eight in all;
    - at 111.5 seven panes expire with no rotation running: two.
    """
    avg, merges = _counting(make_aggregator(AggFn.AVG, ValueType.DOUBLE))
    w = PanedWindow(Fraction(100), Fraction(1), avg)
    ops = [("register", i + 0.5) for i in range(5)] + [("evaluate", 4.5)]
    ops += [("register", 5.5), ("evaluate", 5.5)]
    ops += [("register", i + 0.5) for i in range(6, 15)]
    ops += [("evaluate", 14.5), ("evaluate", 104.5), ("evaluate", 111.5)]
    counts, values = [], []
    for op, t in ops:
        before = merges["merge"]
        if op == "register":
            w.register(t + 0.5, t)
        else:
            values.append(w.evaluate(t))
        counts.append(merges["merge"] - before)
    assert counts == [0, 0, 0, 1, 2, 2, 1, 3, 2] + [1] * 6 + [2, 1, 3, 8, 2]
    # averages of 1..5, 1..6, 1..15, 5..15 and 12..15
    assert values == [3.0, 3.5, 8.0, 10.0, 13.5]


#: the most merges a registration and an evaluation do, besides two per
#: pane they evict (windows.py, "worst case")
_C_REGISTER, _C_EVALUATE = 2, 3


def _criterion_3_traces(count):
    """The first `count` event traces of acceptance criterion 3, the same
    seed and draws, with each value truncated to an int: up to 10^4 events
    each, at gaps scaled from 0.03 to 3 s, and each trace's r."""
    rng = random.Random(33)
    for _ in range(count):
        n = int(10 ** rng.uniform(1.0, 4.0))
        scale = 10 ** rng.uniform(-1.5, 0.5)
        t = 0.0
        events = []
        for _ in range(n):
            t += rng.uniform(0.0, 2.0) * scale
            events.append((t, int(rng.uniform(-1e4, 1e4))))
        r = Fraction(rng.choice([1, 2, 5, 10, 60]))
        rng.choice([4, 16, 64, 256])  # criterion 3's pane divisor
        yield f"criterion 3, r={r}", r, events


def _bound_traces():
    rng = random.Random(5)
    yield from _criterion_3_traces(40)
    # the window fills up over 256 s, then slides one pane per event
    yield "fill-up", Fraction(256), [(float(t), t % 7) for t in range(1, 5001)]
    t, poisson = 0.0, []
    for _ in range(8000):
        t += rng.expovariate(4.0)
        poisson.append((t, rng.randrange(100)))
    yield "Poisson 4/s", Fraction(10), poisson
    # 600 s of one event per second, then a gap past the whole window
    gap = [(t + 0.5, 1) for t in range(600)] + [(1e4 + t, 2) for t in range(600)]
    yield "gap", Fraction(256), gap


@pytest.mark.parametrize("ratio", [1, 4, 256, Fraction(5, 2)])
def test_merges_per_step_are_bounded(ratio):
    """No registration does more than _C_REGISTER merges plus two per pane
    it evicts, and no evaluation more than _C_EVALUATE plus two per pane,
    whatever r / z: the Two-Stacks flip that re-merged up to r / z closed
    panes inside one registration is spread over the steps. Each trace
    registers every event and evaluates after it: a registration that
    opens a pane evicts, and after every fourth event the evaluation comes
    a little later and evicts instead.
    With r / z = 5 / 2 (r = 2.5 z) the horizon falls inside panes. Integer
    sums keep the values exact: evaluations equal the left fold of the
    retained panes, and the last one the bucketing oracle. At r / z = 256
    the bounds are reached."""
    agg, merges = _counting(make_aggregator(AggFn.SUM, ValueType.INT))
    worst = {"register": 0, "evaluate": 0}
    for name, r, events in _bound_traces():
        if isinstance(ratio, Fraction):
            r, z = Fraction(5, 2), Fraction(1)
        else:
            z = r / ratio
        w = PanedWindow(r, z, agg)
        bound = {"register": _C_REGISTER, "evaluate": _C_EVALUATE}
        for k, (t, v) in enumerate(events):
            late = t
            if k % 4 == 3:  # a little later, but not after the next event
                late = min([t + float(z) / 3] + [e[0] for e in events[k + 1 : k + 2]])
            newest = next(reversed(w.panes), None)
            for step in ("register", "evaluate"):
                panes, before = len(w.panes), merges["merge"]
                if step == "register":
                    w.register(v, t)
                else:
                    w.evaluate(late)
                evicted = panes - len(w.panes)
                if step == "register":
                    evicted += next(reversed(w.panes)) != newest  # it opened one
                over = merges["merge"] - before - 2 * evicted
                assert over <= bound[step], (name, step, t, over)
                worst[step] = max(worst[step], over)
            if k % 16 == 0:
                assert w.evaluate(late) == sum(w.panes.values()), (name, t)
        assert w.evaluate(late) == _oracle(AggFn.SUM, events, late, r, z), name
    if ratio == 256:
        assert worst == bound  # reached


# -- Subtract-on-Evict against Two-Stacks -------------------------------------

#: the aggregations whose summaries are exact integers, which subtract each
#: evicted pane from a running summary
_SUBTRACTING = [
    (AggFn.COUNT, ValueType.INT),
    (AggFn.COUNT, ValueType.DOUBLE),
    (AggFn.COUNT, ValueType.BOOL),
    (AggFn.SUM, ValueType.INT),
    (AggFn.AVG, ValueType.INT),
]


def _value(raw, ty):
    return {ValueType.INT: raw, ValueType.DOUBLE: raw / 7.0, ValueType.BOOL: raw % 2 == 0}[ty]


@given(
    st.sampled_from(_SUBTRACTING),
    st.sampled_from([1, 4, 256, Fraction(5, 2)]),
    st.lists(
        st.tuples(
            st.sampled_from(["register", "register", "evaluate"]),
            _STEP,
            st.integers(-10**6, 10**6),
            st.booleans(),  # at the instant last registered or swept
        ),
        min_size=1,
        max_size=150,
    ),
)
@settings(max_examples=300, deadline=None)
def test_subtract_on_evict_equals_two_stacks(case, ratio, ops):
    """A window that subtracts evicted panes from its running summary and a
    Two-Stacks window built from the same snippets without the inverse
    agree after every operation: on its result, the value and type of an
    evaluation, the slots and the panes, in order."""
    agg_fn, ty = case
    agg = make_aggregator(agg_fn, ty)
    assert "inverse" in agg.snippets
    r = Fraction(8)
    z = r / ratio
    subtracting = PanedWindow(r, z, agg)
    stacked = PanedWindow(r, z, Aggregator(**_two_stacks(agg.snippets)))
    now = 0.0
    for op, dt, raw, stay in ops:
        if not stay:
            now += dt
        states = []
        for w in (subtracting, stacked):
            if op == "register":
                got = w.register(_value(raw, ty), now)
            else:
                got = getattr(w, op)(now)
            state = (got, type(got), w.slots, list(w.panes.items()))
            value = w.evaluate(now)
            states.append(state + (value, type(value), w.slots, list(w.panes.items())))
        assert states[0] == states[1], (op, now)
        assert list(subtracting._order) == list(subtracting.panes)


def test_subtract_on_evict_merges_nothing():
    """At r / z = 256 a subtracting window, median's included, merges no
    summaries: a registration adds its value to its pane and to the running
    summary, two adds at most, and each pane a registration or an
    evaluation evicts is subtracted once. The steps are those of
    `test_merges_per_step_are_bounded`."""
    traces = list(_bound_traces())
    traces = traces[:10] + traces[-3:]  # ten of criterion 3's and the rest
    medians = [(AggFn.MEDIAN, ValueType.DOUBLE), (AggFn.MEDIAN, ValueType.INT)]
    for agg_fn, ty in _SUBTRACTING + medians:
        agg, counts = _tallied(make_aggregator(agg_fn, ty).snippets, "add", "merge", "inverse")
        for name, r, events in traces:
            z = r / 256
            w = PanedWindow(r, z, agg)
            for k, (t, v) in enumerate(events):
                late = t
                if k % 4 == 3:  # a little later, but not after the next event
                    late = min([t + float(z) / 3] + [e[0] for e in events[k + 1 : k + 2]])
                newest = next(reversed(w.panes), None)
                for step in ("register", "evaluate"):
                    panes = len(w.panes)
                    counts.clear()
                    if step == "register":
                        w.register(_value(v, ty), t)
                    else:
                        w.evaluate(late)
                    evicted = panes - len(w.panes)
                    if step == "register":
                        evicted += next(reversed(w.panes)) != newest  # it opened one
                    assert counts["inverse"] == evicted, (name, step, t)
                    assert counts["add"] <= (2 if step == "register" else 0), (name, step, t)
                    assert counts["merge"] == 0, (name, step, t)


@given(
    st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.fractions(Fraction(1, 1000), Fraction(1000), max_denominator=1000),
    st.fractions(Fraction(1, 1000), Fraction(1000), max_denominator=1000),
)
@example(7.3, Fraction(5, 2), Fraction(1))  # r / z = 2.5
@example(1.0, Fraction(1), Fraction(2, 5))  # a 2.5 Hz pane
@example(2.5, Fraction(5, 2), Fraction(1))  # ts - r on a pane boundary
@settings(max_examples=300, deadline=None)
def test_pane_index_and_horizon_from_one_division(ts, r, z):
    """The pane that holds ts is ceil(ts / z) - 1 and the eviction horizon
    floor((ts - r) / z), exactly, both from one divmod, in `_span` and in
    the code that registers and evicts: a fresh window registers ts into
    that pane, and an evaluation at ts drops pane horizon - 1 and keeps the
    panes from the horizon on."""
    exact = Fraction(ts)
    pane, horizon = math.ceil(exact / z) - 1, math.floor((exact - r) / z)
    for agg_fn in (AggFn.SUM, AggFn.MEDIAN):
        w = PanedWindow(r, z, make_aggregator(agg_fn, ValueType.DOUBLE))
        assert _span(w, ts) == (pane, horizon)
        w.register(1.0, ts)
        assert list(w.panes) == [pane]
        w = PanedWindow(r, z, make_aggregator(agg_fn, ValueType.DOUBLE))
        # the last instant of pane horizon - 1, the first of the next
        # pane's that the window still holds, and ts
        instants = [horizon * z, min((horizon + 1) * z, exact), ts]
        for t in instants:
            w.register(1.0, t)
        w.evaluate(ts)
        kept = {pane, horizon} if (horizon + 1) * z <= exact else {pane}
        assert list(w.panes) == sorted(kept)


#: pane widths: dyadic ones (those of 10 s, 50 s and 8 h windows split into
#: 256 panes, 1 s and 4 Hz panes, a power of two near the float limit) and
#: others (100 ms / 256, 2.5 Hz, 10 Hz, a third, an odd number above 2^52)
_WIDTHS = [
    Fraction(5, 128),
    Fraction(25, 128),
    Fraction(225, 2),
    Fraction(1),
    Fraction(1, 4),
    Fraction(1, 2**52),
    Fraction(2**52),
    Fraction(1, 2560),
    Fraction(2, 5),
    Fraction(1, 10),
    Fraction(1, 3),
    Fraction(2**52 + 1),
]


@st.composite
def _placements(draw):
    """A window's width, its duration (r / z integral or not) and an instant:
    a pane boundary as a float or its neighbours, an int, -0.0, a value near
    2^52 / zd or 2^53 / zd (either sign), or any finite float."""
    z = draw(st.sampled_from(_WIDTHS))
    r = z * Fraction(draw(st.sampled_from([1, 3, 256, "5/2", "257/256"])))
    kind = draw(st.sampled_from(["boundary", "limit", "int", "zero", "any"]))
    if kind == "boundary":
        ts = float(draw(st.integers(-(2**54), 2**54) | st.integers(-300, 300)) * z)
    elif kind == "limit":
        ts = float(Fraction(2 ** draw(st.sampled_from([52, 53])), z.denominator))
        ts = draw(st.sampled_from([ts, -ts]))
    elif kind == "int":
        return z, r, draw(st.integers(-(2**60), 2**60) | st.integers(-300, 300))
    elif kind == "zero":
        return z, r, draw(st.sampled_from([0.0, -0.0]))
    else:
        ts = draw(st.floats(allow_nan=False, allow_infinity=False))
    steps = draw(st.integers(-2, 2))
    for _ in range(abs(steps)):
        ts = math.nextafter(ts, math.copysign(math.inf, steps))
    return z, r, ts if math.isfinite(ts) else math.copysign(sys.float_info.max, ts)


@given(_placements())
@example((Fraction(5, 128), Fraction(10), -0.0))
@example((Fraction(1), Fraction(3), float(-(2**52))))  # the lowest float index
@example((Fraction(1), Fraction(3), math.nextafter(-(2.0**52), 0.0)))
@example((Fraction(1), Fraction(256), math.nextafter(-(2.0**53), 0.0)))
@example((Fraction(2**52), Fraction(2**53), 2.0**104))
@settings(max_examples=400, deadline=None)
def test_float_placement_equals_integer_placement(case):
    """A float instant on a dyadic width with an integral r / z is placed by
    float arithmetic, everything else by one integer division; both give
    the pane ceil(ts / z) - 1 and the horizon floor((ts - r) / z) exactly.
    Each window is checked on both paths (the integer one by clearing its
    float constants), through `_span` and through registering at ts and
    evaluating at ts + r."""
    z, r, ts = case
    exact = Fraction(ts)
    pane, horizon = math.ceil(exact / z) - 1, math.floor((exact - r) / z)
    dyadic = z.denominator & (z.denominator - 1) == 0 and (r / z).denominator == 1
    later = ts + float(r)
    for agg_fn in (AggFn.SUM, AggFn.MEDIAN):
        fast = PanedWindow(r, z, make_aggregator(agg_fn, ValueType.DOUBLE))
        assert (fast._float is not None) == (dyadic and z.numerator <= 2**52)
        slow = PanedWindow(r, z, make_aggregator(agg_fn, ValueType.DOUBLE))
        slow._float = None
        for w in (fast, slow):
            assert _span(w, ts) == (pane, horizon)
            w.register(1.0, ts)
            assert list(w.panes) == [pane]
            if math.isfinite(later) and later >= ts:
                w.evaluate(later)
                kept = pane >= math.floor((Fraction(later) - r) / z)
                assert list(w.panes) == ([pane] if kept else [])


@pytest.mark.parametrize("agg_fn", list(AggFn))
def test_window_code_calls_no_aggregator_method(agg_fn, monkeypatch):
    """The summary arithmetic is inline in the window code: registering and
    evaluating, evictions and flips included, call none of the aggregator's
    reference methods."""
    agg = make_aggregator(agg_fn, ValueType.DOUBLE)
    calls = []
    for name in ("new", "add", "merge", "lower"):
        monkeypatch.setattr(agg, name, lambda *args, _name=name: calls.append(_name))
    w = PanedWindow(Fraction(4), Fraction(1, 2), agg)
    t = 0.0
    for k in range(100):
        t += 0.3
        assert w.register(float(k % 7), t) in (-1, 0, 1)
        w.evaluate(t)
        w.evaluate(t)
        if k % 9 == 0:
            w.evaluate(t + 0.1)
    assert w.evaluate(t + 10) in (0, 0.0, UNDEFINED)
    assert calls == []
