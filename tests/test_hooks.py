"""The entry points that perfbench's tracer wraps stay where it wraps them.

perfbench/tracing.py times a layer by replacing a method in its class's
`__dict__`. A step that stopped calling such a method, or called another
path, would make that layer's figures read zero without any error. These
tests replay the golden bind and fleet traces with the same kind of wrapper
and check that each method is still found there and called as often as the
work it times.
"""

from collections import Counter
from fractions import Fraction

import pytest

from conftest import FLEET_SPEC, PID_SPEC, typed
from streammon import Monitor
from streammon.windows import PanedWindow
from test_differential import _extensions
from test_golden import BIND_SPEC, _bind_events, _fleet_events, _pid_events

HOOKS = [
    (Monitor, "var_rate_step"),
    (Monitor, "fixed_rate_step"),
    (Monitor, "evaluate_triggers"),
    (PanedWindow, "register"),
    (PanedWindow, "evaluate"),
]


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for owner, name in HOOKS:
        original = owner.__dict__[name]

        def counted(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_bind_calls_step_and_triggers_once_per_event(calls):
    events = _bind_events(7)
    m = Monitor(typed(BIND_SPEC), instance_bounds={"f": 2000})
    for ev in events:
        m.process(ev)
    assert calls["var_rate_step"] == calls["evaluate_triggers"] == len(events)
    assert calls["evaluate"] == 0


def test_fleet_evaluates_one_window_per_window_read(calls):
    events = _fleet_events(7)
    m = Monitor(typed(FLEET_SPEC), instance_bounds={"orp": 60, "suspicious": 60})
    # suspicious reads orp's window once per extension, and always extends
    # (its value has a default); a step records the instances it extended
    reads = 0
    for ev in events:
        m.process(ev)
        reads += len(m._step_extended.get("suspicious", ()))
    assert calls["var_rate_step"] == calls["evaluate_triggers"] == len(events)
    assert calls["evaluate"] == reads > 0


def test_pid_fixed_calls_tick_step_and_register_as_often_as_work(calls):
    events = _pid_events(7)
    m = Monitor(typed(PID_SPEC), mode="fixed", frequency=Fraction(1))
    extensions = _extensions(m)
    for ev in events:
        m.process(ev)
    # at 1 Hz a tick fires every second up to the last event, and the
    # smoothed temperature, whose value has a default, extends at each one
    ticks = int(events[-1].ts)
    assert calls["fixed_rate_step"] == ticks > 0
    assert extensions["smooth_temp", ()] == ticks
    # every extension of a stream registers into each window that reads it
    registrations = sum(
        extensions[name, ()] * len(rt.window_plans) for name, rt in m.streams.items()
    )
    assert calls["register"] == registrations > 0
    assert calls["var_rate_step"] == len(events)
