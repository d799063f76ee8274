"""Golden verdict digests: reduced-size versions of the benchmark workloads.

Each case replays a seeded trace built with `streammon.scenarios` (or, for
efficient binding, a seeded id sequence) and hashes the verdict stream as
`streammon monitor` writes it: one `json.dumps(..., sort_keys=True)` line per
verdict. The digests were recorded from the engine before its expressions
were compiled to closures and its tick scheduler moved to an integer grid, so
any change to a verdict's time, order, value or message shows here. A change
that alters verdicts on purpose records the new digests and says why.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import CARS_SPEC, FLEET_SPEC, PID_SPEC, typed
from streammon import Event, Monitor
from streammon.scenarios import FleetConfig, PidConfig, generate_fleet, generate_pid

BIND_SPEC = """
input int ID
input double x

output double f<int id>
  invoke: ID
  extend: id = ID
  := x?0.0

trigger any(f > 2.0)
"""


def _pid_events(seed):
    rows = generate_pid(PidConfig(seed=seed, duration_s=300.0))
    return [Event(r[0], {"temperature": r[1], "reference": r[2]}) for r in rows]


def _fleet_events(seed):
    rows = generate_fleet(
        FleetConfig(
            seed=seed,
            cars=60,
            events=3000,
            duration_s=24 * 3600.0,
            misbehavior=0.6,
            retire_car=seed % 60,
            retire_at=0.6 * 24 * 3600.0,
        )
    )
    return [
        Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3], "retire": r[4]})
        for r in rows
    ]


def _cars_events(seed):
    rows = generate_fleet(
        FleetConfig(seed=seed, cars=20, events=1500, duration_s=3600.0, misbehavior=0.6)
    )
    return [Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3]}) for r in rows]


def _bind_events(seed):
    rng = random.Random(seed)
    ids = list(range(2000))
    rng.shuffle(ids)
    events, ts = [], 0.0
    for k in ids:
        ts += rng.uniform(0.0005, 0.0015)
        events.append(Event(ts, {"ID": k}))
    for _ in range(2000):
        ts += rng.uniform(0.0005, 0.0015)
        events.append(Event(ts, {"ID": rng.randrange(2000), "x": rng.uniform(0.0, 4.0)}))
    return events


CASES = {
    "pid-variable": (
        PID_SPEC,
        _pid_events,
        {},
        "fc360714d042cc1ebe87d5c65c07e6cc581662a985c95157b0533439006cd390",
    ),
    "pid-fixed-1Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(1)},
        "cef8880eb04eb64bd63a4377935f49f27cc7c706557ec874aeb077f3c12acf3e",
    ),
    # 2.5 Hz: a tick period of 2/5 s, which no float represents exactly
    "pid-fixed-2.5Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(5, 2)},
        "a565f17e4080852c6aadafd6054e2007cf550314124218b28e8b56aca524a20e",
    ),
    "fleet-variable": (
        FLEET_SPEC,
        _fleet_events,
        {"instance_bounds": {"orp": 60, "suspicious": 60}},
        "a27b2b8de305d90e973646ed0ffc6e5d287d3b35cfd1b15507cec9ee0a8b9fd0",
    ),
    # a clocked parameterized template (0.1 Hz) read by an unclocked one
    "cars-0.1Hz": (
        CARS_SPEC,
        _cars_events,
        {"instance_bounds": {"offRoadPickUp": 20, "suspicious": 20}},
        "912e583f7b2580784d66df68af3214c3e76012e3854364bfaf604f946a163ed5",
    ),
    "bind": (
        BIND_SPEC,
        _bind_events,
        {"instance_bounds": {"f": 2000}},
        "83b3c4784317abde1d23ca666931899e191b5c9eb72cebb173a61076e8c292d5",
    ),
}


def _digest(monitor, events) -> str:
    digest = hashlib.sha256()
    for ev in events:
        for verdict in monitor.process(ev):
            digest.update(json.dumps(verdict.to_json_dict(), sort_keys=True).encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_digest_matches_golden(name):
    spec, make_events, kwargs, expected = CASES[name]
    monitor = Monitor(typed(spec), **kwargs)
    assert _digest(monitor, make_events(7)) == expected
