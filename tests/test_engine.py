import dataclasses
import gc
import itertools
import math
import operator
import random
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from conftest import CARS_SPEC, FLEET_SPEC, INTRO_SPEC, PID_SPEC, typed
from oracle import RefMonitor
from test_differential import _extensions, _settled
from test_golden import BIND_SPEC, _fleet_events, _pid_events
from test_stream_bounds import held
from streammon import (
    AnalysisRefusal,
    EngineError,
    Event,
    Monitor,
    OutOfOrderError,
    analyze,
)
from streammon import compiler, engine
from streammon.engine import Instance, _StreamRT


def drain(monitor, events):
    out = []
    for ev in events:
        out.extend(monitor.process(ev))
    return out


def constant_trace(duration, dt, **streams):
    ts, events = dt, []
    while ts < duration:
        events.append(Event(ts, dict(streams)))
        ts += dt
    return events


# -- invocation and parameterized extension -------------------------------------


def test_cars_event_invokes_both_templates():
    m = Monitor(typed(CARS_SPEC), allow_unbounded=True)
    m.process(Event(0.0, {"CID": 7}))
    assert (7,) in m.streams["offRoadPickUp"].instances
    assert (7,) in m.streams["suspicious"].instances


def test_event_on_unused_input_only_extends_that_input():
    t = typed("input int a\ninput int b\noutput int x := a?0")
    m = Monitor(t)
    m.process(Event(1.0, {"a": 5}))
    assert m.streams["x"].instances[()].buf  # x follows a
    before = len(m.streams["x"].instances[()].buf)
    m.process(Event(2.0, {"b": 9}))
    assert len(m.streams["x"].instances[()].buf) == before
    assert m.streams["b"].instances[()].buf[-1] == (2.0, 9)


def test_suspicious_fires_after_six_offroad_pickups():
    src = CARS_SPEC + "\ntrigger any(suspicious)"
    m = Monitor(typed(src), allow_unbounded=True)
    extensions = _extensions(m)
    verdicts = []
    # keep CID=7 the latest id across six 10s-clock ticks, with off-road
    # pick-up readings latched true
    for k in range(6):
        verdicts += m.process(
            Event(5.0 + 10 * k, {"CID": 7, "offRoad": True, "pickUp": True})
        )
    # six ticks happened (10..60); a fresh CID=7 event extends suspicious(7)
    verdicts += m.process(Event(61.0, {"CID": 7, "offRoad": True, "pickUp": True}))
    fired = [v for v in verdicts if v.kind == "trigger"]
    assert fired and fired[-1].params == (7,)
    # brute-force recount: offRoadPickUp(7) extended at each of the 6 ticks
    hist_len = extensions["offRoadPickUp", (7,)]
    assert hist_len == 6


# -- fixed-rate behavior ----------------------------------------------------------


def test_symmetric_inputs_never_trigger():
    t = typed(INTRO_SPEC)
    m = Monitor(t, mode="fixed", frequency=Fraction(1))
    events = constant_trace(30, 0.21, sensor=3.0, reference=3.0)
    verdicts = drain(m, events)
    assert [v for v in verdicts if v.kind == "trigger"] == []
    errors = [v.value for v in verdicts if v.stream == "error"]
    assert errors and all(v == 0.0 for v in errors)


def test_unit_error_integrates_to_ten_and_fires():
    t = typed(INTRO_SPEC)
    m = Monitor(t, mode="fixed", frequency=Fraction(1))
    events = constant_trace(30, 0.21, sensor=4.0, reference=3.0)
    verdicts = drain(m, events)
    acc = {v.ts: v.value for v in verdicts if v.stream == "acc_error"}
    # trapezoid oracle: error samples at ticks 16..25 lie in (15, 25]; the
    # piecewise-linear interpolation of the constant 1 spans 9 seconds
    assert acc[25.0] == pytest.approx(9.0)
    fired = [v.ts for v in verdicts if v.kind == "trigger"]
    assert fired and min(fired) < 10.0 + float(events[0].ts) + 2


def test_tick_count_is_floor_duration_times_frequency():
    t = typed("input double d\noutput double x : 2Hz := d?0.0")
    m = Monitor(t, mode="variable")
    events = [Event(0.3, {"d": 1.0}), Event(4.25, {"d": 2.0})]
    verdicts = drain(m, events)
    ticks = sorted({v.ts for v in verdicts if v.kind == "output"})
    assert len(ticks) == int(4.25 * 2)
    assert ticks == [0.5 * k for k in range(1, 9)]


def test_empty_trace_no_verdicts():
    t = typed(INTRO_SPEC)
    m = Monitor(t, mode="fixed", frequency=Fraction(1))
    assert drain(m, []) == []
    assert m.peak_slots == 0


def test_fixed_cadence_with_always_true_extend():
    t = typed("input double d\noutput double x : 0.5Hz\n extend: true\n := d?0.0")
    m = Monitor(t)
    events = [Event(0.1, {"d": 1.0}), Event(9.7, {"d": 2.0})]
    verdicts = drain(m, events)
    out = [v.ts for v in verdicts if v.kind == "output" and v.stream == "x"]
    assert out == [2.0, 4.0, 6.0, 8.0]


def test_variable_mode_verdicts_only_at_event_timestamps():
    t = typed(INTRO_SPEC)
    m = Monitor(t, mode="variable")
    events = constant_trace(20, 0.37, sensor=9.0, reference=1.0)
    verdicts = drain(m, events)
    event_times = {e.ts for e in events}
    assert verdicts  # the trigger does fire
    assert all(v.ts in event_times for v in verdicts)


def test_ties_fixed_before_event():
    # an event exactly at a tick: the tick's window excludes the new value
    t = typed("input double d\noutput double s : 1Hz := d[10s, sum]")
    m = Monitor(t)
    verdicts = drain(m, [Event(0.5, {"d": 1.0}), Event(1.0, {"d": 100.0})])
    tick1 = [v for v in verdicts if v.kind == "output" and v.ts == 1.0]
    assert tick1[0].value == 1.0  # the 100.0 at ts=1.0 arrives after the tick


# -- undefined handling ---------------------------------------------------------


def test_undefined_without_default_warns_and_skips():
    t = typed("input double d\noutput double x : 1Hz := d")
    m = Monitor(t)
    verdicts = drain(m, [Event(2.5, {"d": 7.0})])
    kinds = [(v.ts, v.kind) for v in verdicts]
    assert (1.0, "warning") in kinds and (2.0, "warning") in kinds
    message = "x: undefined access without a default; value skipped"
    assert {v.message for v in verdicts if v.kind == "warning"} == {message}
    outs = [v for v in verdicts if v.kind == "output"]
    assert outs == []  # d arrives only after both ticks


def test_default_rescues_undefined():
    t = typed("input double d\noutput double x : 1Hz := d?42.0")
    m = Monitor(t)
    verdicts = drain(m, [Event(2.5, {"d": 7.0})])
    outs = [(v.ts, v.value) for v in verdicts if v.kind == "output"]
    assert outs == [(1.0, 42.0), (2.0, 42.0)]


# -- buffers ------------------------------------------------------------------------


def test_buffer_discipline_discrete_offsets():
    t = typed("input int a\noutput int x := a[-3, 0]")
    m = Monitor(t)
    for k in range(100):
        m.process(Event(float(k), {"a": k}))
    buf = m.streams["a"].instances[()].buf
    assert len(buf) == 4  # depth 3 needs 4 retained values
    assert [v for _, v in buf] == [96, 97, 98, 99]
    assert m.streams["x"].instances[()].buf[-1][1] == 96


def test_buffer_discipline_realtime_offset_fixed_target():
    t = typed(
        "input double raw\n"
        "output double src : 2Hz := raw?0.0\n"
        "output double x : 2Hz := src[-3sec, 0.0]"
    )
    m = Monitor(t)
    for k in range(100):
        m.process(Event(0.26 + k * 0.26, {"raw": float(k)}))
    buf = m.streams["src"].instances[()].buf
    assert len(buf) <= 7  # ceil(3 * 2) + 1


def test_realtime_offset_boundaries_are_exact():
    """Offset cutoffs fall exactly on instants: on a 2.5 Hz clock (Fraction
    ticks, a 1/20 s grid) x reads the value s took at the previous tick; y
    compares 4 Hz ticks with float event times such as 15 * 0.1, and w
    compares cutoffs such as 8/5 with the float 16 * 0.1, which lies above."""
    src = (
        "input double a\n"
        "output double s : 2.5Hz := a?0.0\n"
        "output double x : 2.5Hz := s[-0.4sec, -1.0]\n"
        "output double y : 4Hz := a[-0.75sec, -1.0]\n"
        "output double w : 2.5Hz := a[-0.4sec, -1.0]"
    )
    events = [Event(k * 0.1, {"a": float(k)}) for k in range(1, 246)]
    m = Monitor(typed(src), allow_unbounded=True)  # y reads a variable-rate input
    got = [v for v in drain(m, events) if v.kind == "output"]
    s = [v.value for v in got if v.stream == "s"]
    x = [v.value for v in got if v.stream == "x"]
    assert len(s) == 61 and x == [-1.0] + s[:-1]
    ref = RefMonitor(typed(src))
    ref.run(events)
    want = [(v[1], v[2], v[4]) for v in ref.verdicts if v[0] == "output"]
    assert [(v.ts, v.stream, v.value) for v in got] == want


def test_lola_counter_self_reference():
    t = typed("input int tick\noutput int n := n[-1, 0] + 1")
    m = Monitor(t)
    extensions = _extensions(m)
    for k in range(5):
        m.process(Event(float(k), {"tick": 0}))
    # n ticks on tick's arrivals... n depends only on itself, so it never ticks
    assert extensions["n", ()] == 0
    t = typed("input int tick\noutput int n := n[-1, 0] + 1 + tick - tick")
    m = Monitor(t)
    extensions = _extensions(m)
    for k in range(5):
        m.process(Event(float(k), {"tick": 0}))
    assert extensions["n", ()] == 5
    assert m.streams["n"].instances[()].buf[-1][1] == 5


@pytest.mark.parametrize("repeats", [6, 7])
def test_extend_with_many_disjuncts_matches_reference(repeats):
    """7 repeats expand to 128 disjuncts, past the lookup plan's limit: the
    instances to extend are then found by scanning all of them."""
    extend = " & ".join(["(p = a | p = b)"] * repeats)
    t = typed(
        "input int a\ninput int b\n"
        f"output int x<int p>\n  invoke: a\n  extend: {extend}\n  := b?0\n"
        "trigger any(x > 1)"
    )
    events = [Event(1.0, {"a": 1, "b": 2}), Event(2.0, {"a": 1, "b": 3})]
    m = Monitor(t, allow_unbounded=True)
    got = [(v.kind, v.ts, v.stream, v.params, v.value) for v in drain(m, events)]
    ref = RefMonitor(t)
    ref.run(events)
    assert got == ref.verdicts
    assert len(got) == 2


# -- instance storage ----------------------------------------------------------------


def test_flat_instances_are_not_tracked_by_the_collector():
    """f keeps one value and no window reads it, so each live instance is a
    tuple of atomic values, which the collector untracks: 10,000 of them
    leave almost nothing for its passes to walk."""
    m = Monitor(typed(BIND_SPEC), instance_bounds={"f": 10_000})
    gc.collect()
    before = len(gc.get_objects())
    for k in range(10_000):
        m.process(Event(0.001 * k, {"ID": k}))
    gc.collect()
    assert len(gc.get_objects()) - before < 1000
    f = m.streams["f"].instances
    assert len(f) == 10_000 and f[(9_999,)] == (0.001 * 9_999, 0.0)
    assert not any(map(gc.is_tracked, f.values()))


@pytest.mark.parametrize(
    "spec, kwargs, make_events",
    [
        (PID_SPEC, {"mode": "fixed", "frequency": Fraction(1)}, _pid_events),
        (FLEET_SPEC, {"instance_bounds": {"orp": 60, "suspicious": 60}}, _fleet_events),
    ],
    ids=["pid-fixed", "fleet"],
)
def test_monitors_and_kernels_hold_no_reference_cycle(spec, kwargs, make_events):
    """With the collector off, a monitor whose kernels have run is freed, its
    kernels with it, when the last reference to it goes: nothing a kernel
    holds in its globals or defaults leads back to the monitor."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        m = Monitor(typed(spec), **kwargs)
        drain(m, make_events(7)[:500])
        refs = [weakref.ref(x) for x in (m, m._event_kernel, m._tick_kernel) if x]
        assert len(refs) == (3 if m._clocks else 2)
        del m
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if gc_was_enabled:
            gc.enable()


def test_fleet_suspicious_is_flat_and_windowed_streams_keep_instances(monkeypatch):
    dropped = []
    drop = _StreamRT.drop_instance

    def recording(rt, alpha):
        dropped.append((rt.name, drop(rt, alpha)))
        return dropped[-1][1]

    monkeypatch.setattr(_StreamRT, "drop_instance", recording)
    m = Monitor(typed(FLEET_SPEC), instance_bounds={"orp": 60, "suspicious": 60})
    for ev in _fleet_events(7):
        m.process(ev)
    gc.collect()
    suspicious, orp = m.streams["suspicious"], m.streams["orp"]
    assert suspicious.flat and len(suspicious.instances) == 60
    assert not any(map(gc.is_tracked, suspicious.instances.values()))
    # the retired car's entries, dropped at its retirement
    assert [name for name, _ in dropped] == ["orp", "suspicious"]
    (_, window_instance), (_, entry) = dropped
    assert type(entry) is tuple and len(entry) == 2 and not gc.is_tracked(entry)
    # orp is read by suspicious's window: its instances keep their windows
    assert isinstance(window_instance, Instance) and not orp.flat
    assert all(isinstance(i, Instance) for i in orp.instances.values())


def test_pid_streams_keep_instances():
    m = Monitor(typed(PID_SPEC))
    for ev in _pid_events(7)[:100]:
        m.process(ev)
    for rt in m.streams.values():
        assert not rt.flat
        assert all(isinstance(i, Instance) for i in rt.instances.values())


# -- termination lifecycle -------------------------------------------------------


def test_terminated_instance_never_mentioned_again():
    t = typed(FLEET_SPEC)
    m = Monitor(t, instance_bounds={"orp": 10, "suspicious": 10})
    events = []
    for k in range(7):
        events.append(Event(1.0 + k, {"CID": 1, "offRoad": True, "pickUp": True, "retire": False}))
    events.append(Event(10.0, {"CID": 1, "retire": True}))
    for k in range(5):
        events.append(Event(11.0 + k, {"CID": 1, "offRoad": False, "pickUp": False, "retire": False}))
    verdicts, extensions = [], 0
    for ev in events:
        verdicts += m.process(ev)
        if ev.ts > 10.0:  # a step records the instances it extended
            extensions += m._step_extended.get("suspicious", []).count((1,))
    mentions_after = [
        v for v in verdicts if v.ts > 10.0 and v.params == (1,) and v.stream == "suspicious"
    ]
    assert mentions_after == []
    assert (1,) in m.streams["suspicious"].instances  # re-invoked fresh at 11.0
    assert extensions == 5
    # suspicious keeps one value and no window reads it: a flat entry
    assert m.streams["suspicious"].instances[(1,)] == (15.0, False)


@pytest.mark.parametrize("mode", ["variable", "fixed"])
def test_terminated_plain_template_stays_gone(mode):
    """A plain template's one instance can be terminated; later steps skip
    it, as the reference does, instead of looking it up."""
    src = "input int i\ninput bool p\noutput int x\n  terminate: p\n  := i?(0)\n"
    kwargs = {"mode": "fixed", "frequency": Fraction(1)} if mode == "fixed" else {}
    events = [Event(0.5, {"i": 1}), Event(1.5, {"p": True}), Event(2.5, {"i": 2})]
    events.append(Event(3.5, {"i": 3, "p": False}))
    m, ref = Monitor(typed(src), **kwargs), RefMonitor(typed(src), **kwargs)
    got = [(v.kind, v.ts, v.stream, v.params, v.value) for v in drain(m, events)]
    assert got == ref.run(events)
    assert m.streams["x"].instances == {} and ref.live["x"] == {}


def test_count_trigger():
    src = (
        "input int CID\n"
        "output bool s<int cid>\n invoke: CID\n extend: cid = CID\n := true\n"
        "trigger count(s) > 2"
    )
    m = Monitor(typed(src), instance_bounds={"s": 100})
    verdicts = []
    for k in range(4):
        verdicts += m.process(Event(float(k), {"CID": k}))
    fired = [v for v in verdicts if v.kind == "trigger"]
    assert [v.ts for v in fired] == [2.0, 3.0]  # counts 3 and 4
    assert fired[0].value == 3


def test_invoke_reading_a_stream_twice_invokes_once_per_extension():
    src = (
        "input int ID\n"
        "output bool s<int a, int b>\n invoke: (ID, ID)\n extend: a = ID\n := true\n"
    )
    m = Monitor(typed(src), instance_bounds={"s": 100})
    assert m.streams["ID"].invokes == [m.streams["s"]]
    m.process(Event(0.0, {"ID": 4}))
    assert list(m.streams["s"].instances) == [(4, 4)]


def test_any_trigger_reports_lowest_witness():
    src = (
        "input int CID\ninput int v\n"
        "output int s<int cid>\n invoke: CID\n extend: cid = CID\n := v?0\n"
        "trigger any(s > 10)"
    )
    t = typed(src)
    m = Monitor(t, instance_bounds={"s": 100})
    m.process(Event(0.0, {"CID": 5, "v": 50}))
    m.process(Event(1.0, {"CID": 3, "v": 50}))
    # both instances extend only on their own CID events; witness is per event
    verdicts = m.process(Event(2.0, {"CID": 5, "v": 99}))
    fired = [v for v in verdicts if v.kind == "trigger"]
    assert fired[0].params == (5,)


@pytest.mark.parametrize(
    "template",
    [
        # one event extends both instances, through either disjunct
        "output int s<int cid>\n invoke: A\n extend: cid = A | cid = B\n := v?0",
        # a tick extends the instances in invocation order, the higher id first
        "output int s<int cid> : 1Hz\n invoke: A\n := v?0",
    ],
)
def test_any_trigger_reports_lowest_of_several_witnesses(template):
    src = f"input int A\ninput int B\ninput int v\n{template}\ntrigger any(s > 10)"
    events = [
        Event(0.25, {"A": 5}),
        Event(0.5, {"A": 3}),
        Event(0.75, {"A": 5, "B": 3, "v": 50}),
        Event(1.5, {"v": 60}),
    ]
    m = Monitor(typed(src), instance_bounds={"s": 10})
    fired = [(v.ts, v.params) for v in drain(m, events) if v.kind == "trigger"]
    assert fired and all(params == (3,) for _, params in fired)
    ref = RefMonitor(typed(src))
    ref.run(events)
    assert fired == [(v[1], v[3]) for v in ref.verdicts if v[0] == "trigger"]


#: a shape that compiles to one closure frame, each reading the input x
FOLDED_SHAPES = {
    "param = input": "output bool f<double id>\n invoke: ID\n extend: id = x\n := true",
    "input?const": "output double f := x?0.5",
    "closure op const": "output bool f := (x + 1.0) > 2.0",
    "closure?const": "output double f := (x * 2.0)?0.0",
    "scope read": "output bool f<double id>\n invoke: ID\n extend: id = ID\n := x > 1.0",
    "pinned invoke": "output bool f<double id>\n invoke: x\n extend: id = ID\n := true",
}


@pytest.mark.parametrize("mode", ["variable", "fixed"])
@pytest.mark.parametrize("shape", sorted(FOLDED_SHAPES))
def test_folded_shape_on_missing_or_nan_input_matches_reference(shape, mode):
    src = "input double ID\ninput double x\n" + FOLDED_SHAPES[shape]
    src += "\ntrigger any(f)" if "bool" in src else "\ntrigger f >= 0.5"
    # x has no value yet, then is NaN, then a value, for a live and a new id
    events = [
        Event(0.5, {"ID": 1.0}),
        Event(1.5, {"ID": 1.0}),
        Event(2.5, {"x": math.nan}),
        Event(3.5, {"ID": 1.0, "x": math.nan}),
        Event(4.5, {"ID": 1.0, "x": 1.0}),
        Event(5.5, {"ID": 2.0, "x": 2.0}),
        Event(6.5, {"ID": 2.0}),
    ]
    kwargs = {"mode": mode, "frequency": Fraction(1)} if mode == "fixed" else {}
    # only a parameterized template takes an instance bound
    bounds = {"f": 10} if "<" in FOLDED_SHAPES[shape] else {}
    m = Monitor(typed(src), instance_bounds=bounds, **kwargs)

    def same(value):  # NaN equals NaN here
        return "nan" if value != value else value

    got = [
        (v.kind, v.ts, v.stream, v.params, same(v.value))
        for v in drain(m, events)
        if v.kind != "warning"
    ]
    ref = RefMonitor(typed(src), **kwargs)
    ref.run(events)
    assert got == [(k, ts, s, p, same(v)) for k, ts, s, p, v in ref.verdicts]
    assert any(kind == "trigger" for kind, *_ in got)


def test_no_live_instances_no_any_firing():
    src = (
        "input int CID\n"
        "output bool s<int cid>\n invoke: CID\n extend: cid = CID\n := true\n"
        "trigger any(s)"
    )
    m = Monitor(typed(src), instance_bounds={"s": 10})
    verdicts = m.process(Event(0.0, {"CID": 1}))
    # the instance extends to true at its invocation event, so it does fire
    assert any(v.kind == "trigger" for v in verdicts)
    m2 = Monitor(typed(src.replace(":= true", ":= false")), instance_bounds={"s": 10})
    assert not any(v.kind == "trigger" for v in m2.process(Event(0.0, {"CID": 1})))


# -- reads of streams declared later ------------------------------------------------

# t reads s, declared after it, through a past offset
FORWARD_READ = (
    "input int a\noutput int t := s[-1]?0 + 1\noutput int s := a + 0\ntrigger t > 2"
)


def _count_up(start):
    """a = 1, 2, 3, 4 at start, start + 1, ..."""
    return [Event(start + k, {"a": k + 1}) for k in range(4)]


def test_past_read_of_later_stream_extends_in_the_same_step():
    events = _count_up(0.5)
    m = Monitor(typed(FORWARD_READ))
    fired = []
    for ev in events:
        fired += [v.ts for v in m.process(ev) if v.kind == "trigger"]
        # s goes first, so t = s[-1] + 1 = a extends on every event
        assert m.streams["t"].instances[()].buf == [(ev.ts, ev.bindings["a"])]
    assert fired == [2.5, 3.5]
    ref = RefMonitor(typed(FORWARD_READ))
    ref.run(events)
    assert ref.trigger_times() == fired


def test_past_read_of_later_stream_at_fixed_rate():
    m = Monitor(typed(FORWARD_READ), mode="fixed", frequency=Fraction(1))
    got = [(v.kind, v.ts, v.stream, v.value) for v in drain(m, _count_up(0.5))]
    # ticks 1, 2, 3 see a = 1, 2, 3: s = a and t = s[-1]?0 + 1 = a
    assert got == [
        ("output", 1.0, "s", 1),
        ("output", 1.0, "t", 1),
        ("output", 2.0, "s", 2),
        ("output", 2.0, "t", 2),
        ("output", 3.0, "s", 3),
        ("output", 3.0, "t", 3),
        ("trigger", 3.0, None, True),
    ]


def test_instance_invoked_by_later_stream_extends_in_the_same_step():
    src = (
        "input int a\n"
        "output int u<int k>\n  invoke: s[-1, 0] + 1\n  extend: k = a\n  := k + a\n"
        "output int s := a + 0"
    )
    m = Monitor(typed(src), instance_bounds={"u": 4})
    ref = RefMonitor(typed(src))
    for ev in _count_up(0.5):
        m.process(ev)
        ref.run([ev])
        # s = a invokes u(s[-1] + 1) = u(a), which k = a then extends to 2a
        k = ev.bindings["a"]
        assert held(m.streams["u"].instances[(k,)]) == [(ev.ts, 2 * k)]
        live = m.streams["u"].instances
        assert live.keys() == ref.live["u"].keys()
        assert all(held(live[k]) == ref.live["u"][k].history for k in live)


def test_instance_invoked_at_a_tick_by_later_stream():
    """The case that needed the fixed step's fixpoint loop under an order of
    same-instant reads only: t(2) is invoked by s, declared after t, at the
    tick where both are due. Within a tick the order of verdicts follows
    the evaluation order, so the values are compared per tick."""
    src = (
        "input int a\n"
        "output int t<int k> : 1Hz\n  invoke: s[-1, 0] + 1\n  := k\n"
        "output int s : 1Hz := a[1s, sum]?0"
    )
    events = _count_up(1.5)[:3]
    m = Monitor(typed(src), instance_bounds={"t": 3})
    got = sorted((v.ts, v.stream, v.params, v.value) for v in drain(m, events))
    # s sums the a of the last second: 0, 1, 2, and invokes t(s[-1] + 1)
    assert got == [
        (1.0, "s", (), 0),
        (1.0, "t", (1,), 1),
        (2.0, "s", (), 1),
        (2.0, "t", (1,), 1),
        (3.0, "s", (), 2),
        (3.0, "t", (1,), 1),
        (3.0, "t", (2,), 2),
    ]
    ref = RefMonitor(typed(src))
    ref.run(events)
    assert got == sorted(v[1:] for v in ref.verdicts)


# -- errors -------------------------------------------------------------------------


def test_out_of_order_event_rejected():
    m = Monitor(typed("input int a\noutput int x := a?0"))
    m.process(Event(5.0, {"a": 1}))
    with pytest.raises(OutOfOrderError):
        m.process(Event(4.0, {"a": 2}))


def test_unknown_input_rejected():
    m = Monitor(typed("input int a\ntime input double t\noutput int x := a?0"))
    with pytest.raises(EngineError, match=r"unknown input stream\(s\): zz \("):
        m.process(Event(0.0, {"zz": 1}))
    # the names are sorted, and a valid binding beside them does not help
    with pytest.raises(EngineError, match=r"unknown input stream\(s\): yy, zz \("):
        m.process(Event(0.0, {"zz": 1, "a": 2, "yy": 3}))
    # the time input is fed from the timestamp, never bound by name
    with pytest.raises(EngineError, match=r"unknown input stream\(s\): t \("):
        m.process(Event(0.0, {"t": 0.0}))
    assert m.events_processed == 0 and m.clock_ts is None


@pytest.mark.parametrize(
    "frequency",
    [0, Fraction(0), -1, Fraction(-1, 2), math.nan, math.inf, "abc", True],
)
def test_fixed_mode_rejects_a_frequency_that_is_not_positive(frequency):
    t = typed("input int a\noutput int x := a?0")
    with pytest.raises(EngineError, match="positive frequency"):
        Monitor(t, mode="fixed", frequency=frequency)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "fast"}, "unknown mode 'fast'"),
        ({"mode": "fixed"}, "fixed mode needs a frequency"),
    ],
)
def test_monitor_refuses_an_unknown_mode_and_fixed_mode_without_frequency(kwargs, message):
    t = typed("input int a\noutput int x := a?0")
    with pytest.raises(EngineError) as err:
        Monitor(t, **kwargs)
    assert [d.message for d in err.value.diagnostics] == [message]


def test_a_clock_too_fast_to_replay_is_refused():
    """A monitor runs every tick one by one, so a clock above MAX_FREQUENCY,
    declared or given to fixed mode, ends in a diagnostic, not in a replay
    without end; the analysis still takes it."""
    fast = typed("input double a\noutput double y : 1e400Hz := a?0.0")
    with pytest.raises(EngineError, match="y: cannot replay a clock above"):
        Monitor(fast)
    analyze(fast)
    t = typed("input double a\noutput double y := a?0.0")
    with pytest.raises(EngineError, match="y: cannot replay a clock above"):
        Monitor(t, mode="fixed", frequency=Fraction(10) ** 400)
    m = Monitor(t, mode="fixed", frequency=engine.MAX_FREQUENCY)
    ticks = m.process(Event(2.5e-6, {"a": 1.0}))
    assert [(v.ts, v.value) for v in ticks] == [(1e-6, 0.0), (2e-6, 0.0)]


@pytest.mark.parametrize("hz", [Fraction(1), Fraction(4), Fraction(5, 2)])
def test_an_event_too_far_ahead_is_refused(hz, monkeypatch):
    """A replay runs every tick, so an event that more than MAX_TICKS ticks
    of the fastest clock precede ends in an EngineError naming its timestamp
    and that count, before any tick runs, with the state unchanged; an event
    at most MAX_TICKS ticks ahead runs them all. On the dyadic grids (1 and
    4 Hz) the kernel compares ts * D, on the 2.5 Hz grid an integer."""
    monkeypatch.setattr(engine, "MAX_TICKS", 5)
    spec = "input double a\noutput double y := a[3s, sum]\noutput double c : 0.5Hz := a?0.0"
    m = Monitor(typed(spec), mode="fixed", frequency=hz)
    assert m._dyadic == (hz.denominator == 1)

    def at(k):  # the instant of the fastest clock's k-th tick, as a float
        return float(k / hz)

    def ticks(verdicts):
        return sorted({round(v.ts * hz) for v in verdicts if v.stream == "y"})

    assert ticks(m.process(Event(at(5), {"a": 1.0}))) == [1, 2, 3, 4, 5]
    before = _state(m), [list(c) for c in m._clocks]
    for ts, count in [(at(11), 6), (at(100), 95), (10**12, 10**12 * hz - 5)]:
        message = f"timestamp {ts!r} lies {count} clock ticks ahead"
        with pytest.raises(EngineError, match=re.escape(message)):
            m.process(Event(ts, {"a": 2.0}))
        assert (_state(m), m._clocks) == before
    # ts * D overflows on a dyadic grid: the count is still exact
    top = sys.float_info.max
    count = math.floor(Fraction(top) * hz) - 5
    with pytest.raises(EngineError, match=f"lies {count} clock ticks ahead"):
        m.process(Event(top, {"a": 2.0}))
    assert (_state(m), m._clocks) == before
    assert ticks(m.process(Event(at(10), {"a": 3.0}))) == [6, 7, 8, 9, 10]


def _state(m):
    buffers = {
        name: {alpha: list(inst.buf) for alpha, inst in rt.instances.items()}
        for name, rt in m.streams.items()
    }
    windows = {
        name: {
            alpha: [(w.last_ts, w.slot_count) for w in inst.windows.values()]
            for alpha, inst in rt.instances.items()
        }
        for name, rt in m.streams.items()
    }
    return m.clock_ts, m.events_processed, m.slots, m.peak_slots, buffers, windows


def test_rejected_event_leaves_state_unchanged():
    # d is declared before a, so that a value of d is registered into its
    # window before a's binding is looked at
    m = Monitor(
        typed(
            "input double d\ninput int a\ninput bool p\n"
            "time input double timestamp\n"
            "output int x := a?0\noutput int c : 1Hz := a?0\n"
            "output double s := d[10s, sum]"
        )
    )
    m.process(Event(1.0, {"a": 1, "d": 0.5, "p": False}))
    before = _state(m)
    assert before[4]["a"][()] == [(1.0, 1)]
    bad = [
        {"a": 7, "zz": 1},  # undeclared name beside a valid one
        {"x": 5},  # an output
        {"timestamp": 99.0},  # the time input is fed from ts
        {"a": 7, "timestamp": 99.0},
        # a binding of the wrong type, beside a valid one or alone
        {"d": 1.0, "a": "7"},
        {"d": "x"},
        {"d": None},
        {"d": True},  # a bool is no number here
        {"a": 2.5},
        {"a": math.nan},
        {"a": True},
        {"p": 1},
        {"p": "true"},
    ]
    for bindings in bad:
        with pytest.raises(EngineError):
            m.process(Event(2.0, bindings))
        assert _state(m) == before, bindings
        with pytest.raises(EngineError):
            m.var_rate_step(Event(2.0, bindings))
        assert _state(m) == before, bindings
    # a timestamp is an int or a float by exact class, within the float range
    for ts in ["2.0", None, True, 2**2000, math.nan]:
        for step in (m.process, m.var_rate_step):
            with pytest.raises(EngineError, match="timestamp"):
                step(Event(ts, {"a": 7}))
            assert _state(m) == before, ts
    m.process(Event(2.0, {"a": 7, "d": 3, "p": True}))
    assert m.clock_ts == 2.0
    assert m.streams["a"].instances[()].buf[-1] == (2.0, 7)
    assert m.streams["x"].instances[()].buf[-1] == (2.0, 7)
    # an int is a valid double, stored as a float
    d = m.streams["d"].instances[()].buf[-1]
    assert d == (2.0, 3.0) and type(d[1]) is float
    assert m.streams["s"].instances[()].buf[-1] == (2.0, 3.5)


class _CountedBindings(dict):
    """Bindings that count the reads of their names, which the unknown-name
    check makes once per check of the event."""

    reads = 0

    def keys(self):
        self.reads += 1
        return super().keys()


def test_clocked_process_checks_each_event_once():
    m = Monitor(typed("input int a\noutput int c : 1Hz := a?0"))
    events = [Event(0.5 + k, _CountedBindings(a=k)) for k in range(4)]
    verdicts = drain(m, events)
    assert [v.value for v in verdicts] == [0, 1, 2]  # the ticks at 1, 2, 3 s
    assert [ev.bindings.reads for ev in events] == [1, 1, 1, 1]
    # a variable-rate step called directly checks its event itself
    event = Event(4.0, _CountedBindings(a=9))
    m.var_rate_step(event)
    assert event.bindings.reads == 1
    with pytest.raises(EngineError, match=r"unknown input stream\(s\): b \("):
        m.var_rate_step(Event(5.0, {"b": 1}))


def test_direct_event_step_runs_the_due_ticks_first():
    """A variable-rate step called directly on a clocked monitor runs the
    ticks due at or before its event first, as `process` does, so time never
    goes back to a skipped tick."""
    m = Monitor(typed("input int a\noutput int c : 1Hz := a?0"))
    assert m.process(Event(0.5, {"a": 1})) == []
    verdicts = m.var_rate_step(Event(5.0, {"a": 2}))
    # each tick runs before the event at its instant
    assert [(v.ts, v.value) for v in verdicts] == [(k, 1) for k in range(1, 6)]
    assert m.process(Event(5.5, {"a": 3})) == []
    assert [(v.ts, v.value) for v in m.process(Event(6.0, {"a": 4}))] == [(6.0, 3)]
    assert m.verdicts_emitted == 6 and m.events_processed == 4


def test_rejected_binding_names_input_and_value():
    m = Monitor(typed("input double a\ninput int b\noutput int t := b?0 + 1"))
    with pytest.raises(EngineError, match=r"input b \(int\) got 2\.5"):
        m.process(Event(2.0, {"a": 1.0, "b": 2.5}))
    with pytest.raises(EngineError, match=r"input a \(double\) got 'x'"):
        m.process(Event(2.0, {"a": "x"}))
    assert m.events_processed == 0 and m.clock_ts is None


def _bounded_ticks(m, limit=100):
    """Cap the monitor's clock ticks, so that a timestamp that would make its
    event kernel tick forever fails the test instead of hanging it."""
    step, calls = m.fixed_rate_step, itertools.count(1)

    def bounded(tick):
        if next(calls) > limit:
            raise AssertionError(f"more than {limit} clock ticks")
        return step(tick)

    m.fixed_rate_step = bounded


@pytest.mark.parametrize(
    "ts", [math.nan, math.inf, -math.inf, "1.0", None, True, 2**2000, -(2**2000)]
)
def test_non_finite_timestamp_rejected_with_clock(ts):
    m = Monitor(typed("input int a\noutput int x := a?0\noutput int c : 1Hz := a?0"))
    _bounded_ticks(m)
    m.process(Event(1.0, {"a": 1}))
    before = _state(m)
    with pytest.raises(EngineError):
        m.process(Event(ts, {"a": 7}))
    assert _state(m) == before
    with pytest.raises(EngineError):
        m.var_rate_step(Event(ts, {"a": 7}))
    assert _state(m) == before
    m.process(Event(2.0, {"a": 7}))
    assert m.clock_ts == 2.0


def test_nan_timestamp_cannot_reopen_the_past():
    """Without clocks no tick loop hangs, but a NaN clock would let a later,
    earlier-dated event pass the out-of-order check."""
    m = Monitor(typed("input int a\noutput int x := a"))
    m.process(Event(5.0, {"a": 1}))
    before = _state(m)
    with pytest.raises(EngineError):
        m.process(Event(math.nan, {"a": 2}))
    assert _state(m) == before
    with pytest.raises(OutOfOrderError):
        m.process(Event(1.0, {"a": 3}))
    assert m.clock_ts == 5.0


def test_unbounded_refusal_and_override():
    t = typed("input double a\ninput double b\noutput double d := abs(a - b[-1sec, 0.0])")
    with pytest.raises(AnalysisRefusal):
        Monitor(t)
    m = Monitor(t, allow_unbounded=True)
    m.process(Event(0.0, {"a": 1.0, "b": 2.0}))
    verdicts = m.process(Event(2.0, {"a": 5.0}))
    assert m.streams["d"].instances[()].buf[-1][1] == pytest.approx(3.0)


def test_int_overflow_saturates_with_warning():
    t = typed("input int a\noutput int x := a * a")
    m = Monitor(t)
    verdicts = m.process(Event(0.0, {"a": 2**40}))
    warns = [v for v in verdicts if v.kind == "warning"]
    assert warns and "saturated" in warns[0].message
    assert m.streams["x"].instances[()].buf[-1][1] == 2**63 - 1


@pytest.mark.parametrize("fn", ["min", "max"])
def test_min_max_functions_propagate_nan_in_either_order(fn):
    """Python's min/max keep or drop a NaN by argument order; the functions
    make it win wherever it stands, as window min/max do."""
    src = (
        "input double a\ninput double b\n"
        f"output double x := {fn}(a, b)\noutput double y := {fn}(b, a)"
    )
    events = [
        Event(1.0, {"a": math.nan, "b": 1.0}),
        Event(2.0, {"a": 1.0, "b": math.nan}),
        Event(3.0, {"a": 1.0, "b": 2.0}),
    ]
    m = Monitor(typed(src))
    ref = RefMonitor(typed(src))
    for ev in events:
        m.process(ev)
        ref.run([ev])
        got = [m.streams[s].instances[()].buf[-1][1] for s in "xy"]
        want = [ref.live[s][()].history[-1][1] for s in "xy"]
        if ev.ts < 3.0:
            assert all(math.isnan(v) for v in got + want), (ev, got, want)
        else:
            assert got == want == [1.0 if fn == "min" else 2.0] * 2


# -- determinism ---------------------------------------------------------------------


def test_identical_runs_are_identical():
    t = typed(FLEET_SPEC)
    rng = random.Random(3)
    events = []
    ts = 0.0
    for _ in range(300):
        ts += rng.uniform(0.0, 5.0)
        events.append(
            Event(
                ts,
                {
                    "CID": rng.randrange(5),
                    "offRoad": rng.random() < 0.5,
                    "pickUp": rng.random() < 0.7,
                    "retire": rng.random() < 0.01,
                },
            )
        )

    def run():
        m = Monitor(typed(FLEET_SPEC), instance_bounds={"orp": 10, "suspicious": 10})
        return [v.to_json_dict() for v in drain(m, events)]

    assert run() == run()


# -- against the reference evaluator ---------------------------------------------------


def test_fleet_matches_reference_evaluator():
    rng = random.Random(11)
    events = []
    ts = 0.0
    for _ in range(400):
        ts += rng.uniform(0.1, 30.0)
        events.append(
            Event(
                ts,
                {
                    "CID": rng.randrange(8),
                    "offRoad": rng.random() < 0.4,
                    "pickUp": rng.random() < 0.8,
                    "retire": rng.random() < 0.02,
                },
            )
        )
    t = typed(FLEET_SPEC)
    m = Monitor(t, instance_bounds={"orp": 8, "suspicious": 8})
    got = [
        (v.ts, v.stream, v.params)
        for v in drain(m, events)
        if v.kind == "trigger"
    ]
    ref = RefMonitor(typed(FLEET_SPEC))
    ref.run(events)
    want = [(v[1], v[2], v[3]) for v in ref.verdicts if v[0] == "trigger"]
    assert got == want


def test_kernels_are_bounded_by_the_spec_not_the_trace(monkeypatch):
    """Events binding every non-empty subset of five inputs share one event
    kernel, and ticks of two clocks, due alone or together, one tick kernel;
    each input, template and trigger still runs only when its gate holds."""
    built = Counter()
    kernel = Monitor.__dict__["_kernel"]

    def counted(self, *args, tick=False):
        built[tick] += 1
        return kernel(self, *args, tick=tick)

    monkeypatch.setattr(Monitor, "_kernel", counted)
    src = (
        "input int a\ninput int b\ninput int c\ninput int d\ninput int e\n"
        "output int s := (a)?(0) + (b)?(0) + (c)?(0)\n"
        "output int u : 2Hz := (s)?(0) + (d)?(0)\n"
        "output int w : 0.4Hz := (e)?(0) + w[-1, 0]\n"
        "trigger s > 4\n"
    )
    subsets = [
        names for k in range(1, 6) for names in itertools.combinations("abcde", k)
    ]
    events = [
        Event(0.5 * (n + 1), {name: n % 7 - 2 for name in names})
        for n, names in enumerate(subsets)
    ]
    m = Monitor(typed(src))
    got = [(v.kind, v.ts, v.stream, v.params, v.value) for v in drain(m, events)]
    assert built == {False: 1, True: 1}
    ref = RefMonitor(typed(src))
    ref.run(events)
    assert _settled(got) == _settled(ref.verdicts)
    assert {"output", "trigger"} <= {v[0] for v in got}


def test_intro_fixed_mode_matches_reference_evaluator():
    rng = random.Random(5)
    events = []
    ts = 0.0
    for _ in range(200):
        ts += rng.uniform(0.05, 0.4)
        events.append(
            Event(ts, {"sensor": rng.uniform(0, 4), "reference": rng.uniform(0, 4)})
        )
    t = typed(INTRO_SPEC)
    m = Monitor(t, mode="fixed", frequency=Fraction(1))
    got = [(v.ts, v.stream, round(v.value, 9)) for v in drain(m, events) if v.kind == "output"]
    ref = RefMonitor(typed(INTRO_SPEC), mode="fixed", frequency=Fraction(1))
    ref.run(events)
    want = [(v[1], v[2], round(v[4], 9)) for v in ref.verdicts if v[0] == "output"]
    assert [(g[0], g[1]) for g in got] == [(w[0], w[1]) for w in want]
    for g, w in zip(got, want):
        assert g[2] == pytest.approx(w[2], rel=1e-9, abs=1e-9)


# -- expressions written into the kernels ----------------------------------------------

#: nested operators, defaults, `if`, `&` and `|`, a parameterized access with
#: computed arguments, offsets and windows, and one trigger of each kind
_INLINE_SPEC = """
input double a
input double b
input int i
input bool p
output int f<int k>
  invoke: i
  extend: k = i
  := k * 2 + (i)?(0)
output double w := if p & (a[2s, sum] > 1.0) | !(b?0.0 > 0.5)
  then (f(((i)?(0) + 1) % 3)[-1, 7]?(5) - abs(a?1.0)) * b[-1, 2.0]
  else max(a[-1s, 0.0], sqrt(b?4.0), (a)?(0.0) / (b)?(0.0))
trigger w > 1.0 "w high"
trigger any(f > 4)
trigger count(f) >= 3
"""


def _inline_events():
    rng = random.Random(3)
    events, ts = [], 0.0
    for _ in range(120):
        ts += 0.25
        names = rng.sample("abip", rng.randint(1, 4))
        values = dict(a=rng.randint(-2, 4) / 2, b=rng.randint(-2, 4) / 2)
        values.update(i=rng.randint(-1, 3), p=rng.random() < 0.5)
        events.append(Event(ts, {name: values[name] for name in names}))
    return events


@pytest.mark.parametrize("mode", ["variable", "fixed"])
def test_kernels_evaluate_expressions_without_lambda_frames(mode):
    """Once its kernels are built, a monitor runs every expression and
    trigger check as code written into them: no function of its own per
    expression, operator or trigger is called."""
    kwargs = {"mode": "fixed", "frequency": Fraction(1)} if mode == "fixed" else {}
    m = Monitor(typed(_INLINE_SPEC), allow_unbounded=True, **kwargs)
    events = _inline_events()
    drain(m, events[:10])
    called = Counter()

    def profile(frame, event, arg):
        if event == "call":
            called[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        verdicts = drain(m, events[10:])
    finally:
        sys.setprofile(None)
    assert called["kernel"] >= len(events) - 10
    assert called["triggers"] == called["evaluate_triggers"] > 0
    for closure in ("<lambda>", "any_instance", "plain", "count"):
        assert called[closure] == 0, called
    # every kind of trigger fired
    fired = {v.message for v in verdicts if v.kind == "trigger"}
    assert fired == {"w high", "any(f > 4)", "count(f) >= 3"}
    if mode == "fixed":
        assert {v.stream for v in verdicts if v.kind == "output"} == {"f", "w"}


def test_building_a_monitor_with_triggers_compiles_nothing(monkeypatch):
    """Trigger checks are written into the step kernels, which are built on
    first use: the Monitor itself compiles no code."""
    compiled = []
    code = compiler._code

    def counted(source):
        compiled.append(source)
        return code(source)

    # the engine calls it by the name it imported
    monkeypatch.setattr(compiler, "_code", counted)
    monkeypatch.setattr(engine, "_code", counted)
    monitors = [
        Monitor(typed(_INLINE_SPEC), allow_unbounded=True),
        Monitor(typed(PID_SPEC)),
        Monitor(typed(FLEET_SPEC), instance_bounds={"orp": 60, "suspicious": 60}),
    ]
    assert all(m.tspec.spec.triggers for m in monitors)
    assert not compiled
    drain(monitors[0], _inline_events())
    assert compiled and all("def kernel(" in source for source in compiled)
    assert not [f.name for f in dataclasses.fields(_StreamRT) if f.name.endswith("_fn")]


@pytest.mark.parametrize("mode", ["variable", "fixed"])
def test_pinned_any_trigger_is_one_check(mode, monkeypatch):
    """An any trigger whose scope has no parameters and no terminate clause
    (PID's any(acc_error > 0.016)) is written as one check of whether the
    step extended the scope, then the condition, with () as the witness: no
    loop over the scope's instances. A parameterized scope keeps the loop.
    PID's trigger instants are the reference monitor's."""
    sources = []
    code = compiler._code

    def recorded(source):
        sources.append(source)
        return code(source)

    monkeypatch.setattr(engine, "_code", recorded)
    kwargs = {"mode": "fixed", "frequency": Fraction(1)} if mode == "fixed" else {}
    events = _pid_events(1)[:400]
    m = Monitor(typed(PID_SPEC), **kwargs)
    fired = [v for v in drain(m, events) if v.kind == "trigger"]
    checks = [s[: s.index("def kernel(")] for s in sources if "def triggers(" in s]
    assert checks and all(
        "in extended:" in s and "alphas" not in s and "for alpha" not in s
        for s in checks
    )
    assert fired and all(v.params == () and v.stream == "acc_error" for v in fired)
    ref = RefMonitor(typed(PID_SPEC), **kwargs)
    ref.run(events)
    assert sorted({v.ts for v in fired}) == sorted(set(ref.trigger_times()))
    sources.clear()
    fleet = Monitor(typed(FLEET_SPEC), instance_bounds={"orp": 60, "suspicious": 60})
    drain(fleet, _fleet_events(7)[:50])
    assert any("for alpha in alphas" in s for s in sources)


#: family -> the output's type, its operators and its terms with their
#: values (None: the input's), each drawn in turn along a 1000-term chain
CHAINS = {
    "sum": ("double", "+-", [("a?0.0", None), ("1e16", 1e16), ("0.5", 0.5)]),
    "product": ("double", "*", [("a?1.0", None), ("0.5", 0.5), ("0.75", 0.75)]),
    "quotient": ("double", "/", [("a?1.0", None), ("0.5", 0.5), ("1.25", 1.25)]),
    "int-quotient": ("int", "/", [("i?1", None), ("-1", -1), ("1", 1), ("2", 2)]),
    "remainder": ("double", "%", [("a?1.0", None), ("2.5", 2.5), ("-1.5", -1.5)]),
    "and": ("bool", "&", [("p?false", None), ("true", True), ("p", None)]),
    "or": ("bool", "|", [("!p", False), ("false", False), ("p?true", None)]),
    "mixed": ("double", "*/%*", [("a?1.0", None), ("1.5", 1.5), ("7.0", 7.0)]),
}
#: what the operators do in Python on values the chains never make undefined
FOLD = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
    "&": operator.and_,
    "|": operator.or_,
}
INPUT_VALUES = {"double": 3.0, "int": 7, "bool": True}


@pytest.mark.parametrize("mode", ["variable", "fixed"])
@pytest.mark.parametrize("family", sorted(CHAINS))
def test_long_chain_is_written_flat(family, mode):
    """A left-deep chain of 1000 terms of one operator level is written as
    one test over its operands' temporaries, with the steps Python cannot
    write flat (`/`, `%`) held in temporaries of their own, and `&` and `|`
    as one test over the value so far: the parentheses of the kernel's
    source do not nest with its length (CPython's tokenizer stops at 200
    levels), and no stage recurses once per term. It parses, checks,
    analyzes and runs in both modes at the default recursion limit, and its
    value is the left fold, which for the sum differs from other
    groupings. The reference monitor folds it in a loop too and agrees."""
    ty, ops, terms = CHAINS[family]
    picked = [terms[k % len(terms)] for k in range(1000)]
    source = picked[0][0] + "".join(
        f" {ops[k % len(ops)]} {text}" for k, (text, _) in enumerate(picked[1:])
    )
    spec = f"input double a\ninput int i\ninput bool p\noutput {ty} x := {source}"
    tspec = typed(spec)
    analyze(tspec)
    kwargs = {"mode": "fixed", "frequency": Fraction(1)} if mode == "fixed" else {}
    m, ref = Monitor(tspec, **kwargs), RefMonitor(tspec, **kwargs)
    bound = {"a": 3.0, "i": 7, "p": True}
    events = [Event(0.5, bound), Event(1.5, bound)]
    verdicts = [(v.kind, v.ts, v.stream, v.params, v.value) for v in drain(m, events)]
    assert verdicts == ref.run(events)
    assert m.streams["x"].instances[()].buf[-1][1] == ref.live["x"][()].history[-1][1]
    got = [v[4] for v in verdicts]
    fold = dict(FOLD, **{"/": operator.floordiv if ty == "int" else operator.truediv})
    values = [INPUT_VALUES[ty] if v is None else v for _, v in picked]
    want = values[0]
    for k, value in enumerate(values[1:]):
        want = fold[ops[k % len(ops)]](want, value)
    if family == "sum":  # the order matters
        signs = [1] + [-1 if ops[k % 2] == "-" else 1 for k in range(999)]
        assert want != sum(s * v for s, v in reversed(list(zip(signs, values))))
    if mode == "fixed":
        assert got == [want]  # the tick at 1 s
    else:
        assert got == []  # no output verdicts in variable mode
        assert m.streams["x"].instances[()].buf[-1][1] == want


@pytest.mark.parametrize("op", ["&", "|"])
def test_long_extend_condition_builds_a_monitor(op):
    """An extend condition of 1000 `id = ID` terms joined by `&` or `|`
    classifies, plans and runs: one lookup for the conjunction, a scan of
    the instances for the disjunction, whose normal form is too large. The
    reference monitor agrees."""
    extend = f" {op} ".join(["id = ID"] * 1000)
    spec = (
        "input int ID\ninput double x\noutput double f<int id>\n"
        f"  invoke: ID\n  extend: {extend}\n  := x?0.0\n"
    )
    m, ref = Monitor(typed(spec), instance_bounds={"f": 10}), RefMonitor(typed(spec))
    events = [Event(1.0, {"ID": 3, "x": 2.0}), Event(2.0, {"ID": 3, "x": 5.0})]
    events.append(Event(3.0, {"ID": 4, "x": 1.0}))
    drain(m, events)
    ref.run(events)
    assert m.streams["f"].instances[(3,)] == (2.0, 5.0)
    assert m.streams["f"].instances == {
        alpha: inst.history[-1] for alpha, inst in ref.live["f"].items()
    }
