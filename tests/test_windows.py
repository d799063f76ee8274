import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammon import UNDEFINED, OutOfOrderError
from streammon.ast import AggFn, ValueType
from streammon.windows import Aggregator, PanedWindow, make_aggregator


def _window(agg, r, z, ty=ValueType.DOUBLE):
    return PanedWindow(Fraction(r), Fraction(z), make_aggregator(agg, ty))


# -- oracle: bucket raw events into the same panes, aggregate directly -------
#
# The oracle does its own bucketing and never calls into streammon.windows.
# Times, widths and durations (int, float or Fraction) are taken as their
# exact integer ratios, so every comparison below is exact.


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
        idx = -((-tn * zd) // (td * zn)) - 1  # smallest i with t <= (i+1) * z
        if (idx + 1) * pane_end > lo:
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
    assert w.pane_count == 1
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
    w.evict(20)
    assert sorted(w.panes) == list(range(10, 20))


def test_evict_on_fresh_window_is_noop():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    w.evict(100)
    assert w.pane_count == 0


def test_burst_stays_in_one_pane():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    for _ in range(10**5):
        w.register(1, 3.25)
    assert w.pane_count == 1
    assert w.panes[3] == 10**5


def test_out_of_order_registration_rejected():
    w = _window(AggFn.COUNT, 10, 1, ValueType.INT)
    w.register(1, 5.0)
    with pytest.raises(OutOfOrderError):
        w.register(1, 4.0)


def test_evaluation_before_last_sweep_rejected():
    """An evaluation at 3.5 evicts pane 0, (0, 1], of a 2 s window; one at
    2.5 afterwards would lack the value that pane held, so it is rejected,
    as are an eviction and a registration there, and nothing changes."""
    for agg in (AggFn.SUM, AggFn.MEDIAN):
        w = _window(agg, 2, 1)
        w.register(1.0, 1.0)
        w.register(1.0, 2.0)
        fresh = _window(agg, 2, 1)
        fresh.register(1.0, 1.0)
        fresh.register(1.0, 2.0)
        assert fresh.evaluate(2.5) == 2.0 if agg is AggFn.SUM else 1.0
        assert w.evaluate(3.5) == 1.0
        for late in (w.evaluate, w.evict, lambda ts: w.register(1.0, ts)):
            with pytest.raises(OutOfOrderError):
                late(2.5)
        assert w.pane_count == 1 and w.evaluate(3.5) == 1.0


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
    r = draw(st.sampled_from([1, 2, 5, 10]))
    z = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]))
    return events, Fraction(r), min(z, Fraction(r))


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
    bound = w.max_panes()
    for i, (t, v) in enumerate(events):
        w.register(v, t)
        assert w.pane_count <= bound
        if i % 7 == 0:
            got = w.evaluate(t)
            want = _oracle(agg, events[: i + 1], t, r, z)
            assert _close(got, want), (agg, got, want)
    last = events[-1][0]
    for ts in (last, last + float(r) / 2, last + float(r) + 1):
        got = w.evaluate(ts)
        want = _oracle(agg, events, ts, r, z)
        assert _close(got, want), (agg, ts, got, want)
        assert w.pane_count <= bound


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
    bound = w.max_panes()
    for t, v in events:
        w.register(v, t)
        assert w.pane_count <= bound
        w.evict(t)
        assert w.pane_count <= bound


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


# -- Two-Stacks against a left-fold re-merge ----------------------------------

#: (aggregation, value type, exact): exact results must match the left fold
#: bit for bit; the others only reassociate float additions
_DIFFERENTIAL = [
    (AggFn.COUNT, ValueType.INT, True),
    (AggFn.SUM, ValueType.INT, True),
    (AggFn.SUM, ValueType.DOUBLE, False),
    (AggFn.AVG, ValueType.INT, True),
    (AggFn.AVG, ValueType.DOUBLE, False),
    (AggFn.MIN, ValueType.DOUBLE, True),
    (AggFn.MAX, ValueType.DOUBLE, True),
    (AggFn.INTEGRAL, ValueType.DOUBLE, False),
    (AggFn.MEDIAN, ValueType.DOUBLE, True),
    (AggFn.MEDIAN, ValueType.INT, True),
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


def _magnitude(agg, kept):
    """The aggregate of the absolute values: float reassociation error is
    relative to this, not to a result that cancellation can bring near 0."""
    if agg is AggFn.INTEGRAL:
        return sum(
            (t1 - t0) * (abs(v0) + abs(v1)) / 2.0
            for (t0, v0), (t1, v1) in zip(kept, kept[1:])
        )
    total = sum(abs(v) for _, v in kept)
    return total / len(kept) if agg is AggFn.AVG else total


@given(
    st.sampled_from(_DIFFERENTIAL),
    st.sampled_from([1, 4, 256]),
    st.lists(
        st.tuples(
            st.sampled_from(["register", "register", "evaluate", "evict"]),
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
    agg_fn, ty, exact = case
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
        elif op == "evaluate":
            w.evaluate(now)
        else:
            w.evict(now)
        got = w.evaluate(now)
        assert w.pane_count <= w.max_panes()
        per_pane = [len(s) if agg.raw else 1 for s in w.panes.values()]
        assert w.slot_count == sum(per_pane)
        if not w.panes:
            assert got == (0 if agg_fn in (AggFn.COUNT, AggFn.SUM) else UNDEFINED)
            continue
        want = agg.lower(_left_fold(agg, w.panes.values()))
        if exact:
            assert got == want and type(got) is type(want), (op, got, want)
        else:
            kept = _retained(events, now, r, z)
            scale = max(1.0, abs(want), _magnitude(agg_fn, kept))
            assert abs(got - want) <= 1e-12 * scale, (op, got, want, scale)


# -- evaluation cost does not grow with r/z -----------------------------------


def _counting(agg):
    """agg's aggregation with each merge that its window code runs counted
    in the returned list's one element."""
    merges = [0]

    def tally(summary):
        merges[0] += 1
        return summary

    merge = f"tally({agg.snippets['merge']})"
    return Aggregator(**dict(agg.snippets, merge=merge), tally=tally), merges


@pytest.mark.parametrize("ratio", [4, 256])
def test_evaluate_merges_do_not_grow_with_panes(ratio, monkeypatch):
    """20k events at about 4 per second into 10 s avg and median windows,
    evaluated after every registration: a re-merge of the retained panes
    would take about 40 merges per evaluation at r/z = 256. The avg
    window's code is built with a counter around each merge it performs. A
    median concatenates its raw panes once and merges no pair of them."""
    r = Fraction(10)
    avg, merges = _counting(make_aggregator(AggFn.AVG, ValueType.DOUBLE))
    median = make_aggregator(AggFn.MEDIAN, ValueType.DOUBLE)
    median_merges = []
    monkeypatch.setattr(median, "merge", lambda *args: median_merges.append(args))
    windows = [PanedWindow(r, r / ratio, agg) for agg in (avg, median)]
    rng = random.Random(7)
    t = 0.0
    n = 20_000
    for _ in range(n):
        t += rng.expovariate(4.0)
        value = rng.uniform(-50.0, 50.0)
        for w in windows:
            w.register(value, t)
            w.evaluate(t)
    assert 1 <= merges[0] / n <= 5, merges[0] / n
    assert not median_merges, len(median_merges) / n


def test_counting_aggregator_counts_every_merge():
    """The counting hook sees the merges of closing a pane, of evaluating
    and of a flip. Pane i of a 10 s window with z = 1 holds the value i+1;
    the second pane's opening flips the first one alone to the front."""
    avg, merges = _counting(make_aggregator(AggFn.AVG, ValueType.DOUBLE))
    w = PanedWindow(Fraction(10), Fraction(1), avg)
    for t in (0.5, 1.5, 2.5, 3.5):
        w.register(t + 0.5, t)
    assert merges == [1]  # back = pane 1 + pane 2
    assert w.evaluate(3.5) == 2.5  # front top + (back + open)
    assert merges == [3]
    # evicts pane 0, flips panes 1 and 2 with one merge, then merges two
    assert w.evaluate(11.5) == 3.0
    assert merges == [5]


@pytest.mark.parametrize("agg_fn", _HOMOMORPHIC)
def test_window_code_calls_no_aggregator_method(agg_fn, monkeypatch):
    """The summary arithmetic is inline in the window code: registering,
    evicting and evaluating, flips included, call none of the aggregator's
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
            w.evict(t + 0.1)
    assert w.evaluate(t + 10) in (0, 0.0, UNDEFINED)
    assert calls == []
