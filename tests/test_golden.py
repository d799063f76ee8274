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
from test_acceptance import _EFFICIENT_SPEC
from streammon import Event, Monitor, engine
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
    # the two fixed-mode PID digests were recorded again when the window
    # aggregation was deamortized: it groups the sums of a window's panes
    # differently, so output values moved in their last bits (at most
    # 1.07e-14 absolute on `error`, a difference of two averages), while
    # every verdict's time, kind, stream and parameters and every trigger
    # stayed the same
    "pid-fixed-1Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(1)},
        "3ec296e8eca8f274eb21b38c01cbbede3285c2e74e975ac17e07868c1db09cd9",
    ),
    # 2.5 Hz: a tick period of 2/5 s, which no float represents exactly
    "pid-fixed-2.5Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(5, 2)},
        "fc8e3aeeb22d93573b6239c06c5e67c4d402f0a449cf8766bc2d5dc85fd5c274",
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


#: the generated event and tick kernel sources of the benchmark's four
#: workloads, as sha256 digests, recorded before the parser, the type checker
#: and the compiler learned chains: the expression pipeline's changes leave
#: the hot path's code as it was
KERNELS = {
    "pid-variable": (
        PID_SPEC,
        {},
        ["2237b8c36baf77594a7a4a536a737b86b6d1fc6e621f9045aa4cf69c85b921c8"],
    ),
    "pid-fixed-1Hz": (
        PID_SPEC,
        {"mode": "fixed", "frequency": Fraction(1)},
        [
            "ed0eba9f0468b2da564a151882cd29c8c1d243dce07603de20cdb5172e480ff4",
            "d2b2b0a71ca489fccdc8313f4b32ace210a50fff4699ec7d95485e78231ef846",
        ],
    ),
    "fleet-bounded": (
        FLEET_SPEC,
        {"instance_bounds": {"orp": 500, "suspicious": 500}},
        ["21ddf4a49026fb7cfca8f0b1def0bb84e4e861b4011939a63b6a0962919c7d17"],
    ),
    "bind": (
        _EFFICIENT_SPEC,
        {"instance_bounds": {"f": 100_000}},
        ["05fdfcfb08134f15bc50ae52280cc8a56cb9f218b8dfe4493f9203cb019daca0"],
    ),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_benchmark_kernel_sources_are_pinned(name, monkeypatch):
    """The event kernel's source, then the tick kernel's when the spec has
    clocks, hash to their recorded digests. A change that alters them on
    purpose records the new digests and says why."""
    spec, kwargs, expected = KERNELS[name]
    sources = []
    code = engine._code
    monkeypatch.setattr(engine, "_code", lambda s: sources.append(s) or code(s))
    monitor = Monitor(typed(spec), **kwargs)
    monitor._kernel(tick=False)
    if monitor._clocks:
        monitor._kernel(tick=True)
    assert [hashlib.sha256(s.encode()).hexdigest() for s in sources] == expected
