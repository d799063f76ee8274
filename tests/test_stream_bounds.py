"""Retained slots against the static bound, per stream and after every event.

`compute_memory` gives every stream a per-instance bound, `per_stream[name]`:
its value buffer plus one state per window that reads it. The engine must
never retain more: after every event, the slots a stream holds, summed over
its live instances as `len(buf)` plus each window's `slot_count` (one slot
for a flat entry that has extended), are at most that bound times its
live-instance count, and the sums over all streams equal `Monitor.slots`.
"""

import random
from fractions import Fraction

import pytest

from conftest import CARS_SPEC, FLEET_SPEC, PID_SPEC, typed
from streammon import Event, Monitor
from streammon.engine import Instance
from streammon.scenarios import FleetConfig, PidConfig, generate_fleet, generate_pid

MEDIAN_SPEC = """
input double raw
output double src : 4Hz := raw?0.0
output double x : 4Hz := src[-3sec, 0.0]
output double m : 2Hz := src[5s, median]?0.0
"""


def _pid_events():
    rows = generate_pid(PidConfig(seed=3, duration_s=120.0))
    return [Event(r[0], {"temperature": r[1], "reference": r[2]}) for r in rows]


def _fleet_events():
    rows = generate_fleet(
        FleetConfig(
            seed=3,
            cars=30,
            events=1500,
            duration_s=24 * 3600.0,
            misbehavior=0.6,
            retire_car=4,
            retire_at=0.6 * 24 * 3600.0,
        )
    )
    return [
        Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3], "retire": r[4]})
        for r in rows
    ]


def _cars_events():
    rows = generate_fleet(
        FleetConfig(seed=3, cars=20, events=1500, duration_s=3600.0, misbehavior=0.6)
    )
    return [Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3]}) for r in rows]


def _median_events():
    rng = random.Random(3)
    events, ts = [], 0.0
    for _ in range(3000):
        ts += rng.uniform(0.01, 0.3)
        events.append(Event(ts, {"raw": rng.uniform(-1.0, 1.0)}))
    return events


CASES = {
    "pid-variable": (PID_SPEC, _pid_events, {}),
    "pid-fixed-1Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(1)},
    ),
    "pid-fixed-2.5Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(5, 2)},
    ),
    "fleet-retire": (
        FLEET_SPEC,
        _fleet_events,
        {"instance_bounds": {"orp": 30, "suspicious": 30}},
    ),
    "cars": (
        CARS_SPEC,
        _cars_events,
        {"instance_bounds": {"offRoadPickUp": 20, "suspicious": 20}},
    ),
    "median": (MEDIAN_SPEC, _median_events, {}),
}


def held(entry) -> list:
    """The (ts, value) pairs a live instance holds: an Instance's buffer, or
    a flat entry's one pair, none before its first extension."""
    if isinstance(entry, Instance):
        return list(entry.buf)
    return [entry] if entry else []


def _retained(rt) -> int:
    """The slots rt's live instances hold; each has the shape of its stream."""
    total = 0
    for entry in rt.instances.values():
        assert isinstance(entry, tuple) == rt.flat, (rt.name, entry)
        total += len(held(entry))
        if not rt.flat:
            total += sum(w.slot_count for w in entry.windows.values())
    return total


@pytest.mark.parametrize("name", sorted(CASES))
def test_retained_slots_within_per_stream_bound(name):
    spec, make_events, kwargs = CASES[name]
    m = Monitor(typed(spec), **kwargs)
    bound = m.report.per_stream
    for ev in make_events():
        m.process(ev)
        total = 0
        for stream, rt in m.streams.items():
            held = _retained(rt)
            limit = bound[stream] * len(rt.instances)
            assert held <= limit, (stream, ev.ts, held, limit)
            total += held
        assert total == m.slots, (ev.ts, total, m.slots)
