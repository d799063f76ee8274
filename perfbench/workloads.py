"""The benchmark's workloads: specifications, seeded inputs, replay loops and
the independent recounts that check each workload's verdicts.

Every input is made from the seed alone. The monitor sees only the generated
events (or the generated CSV file); nothing here inspects engine internals
except the public `Monitor` attributes the CLI also reports.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from time import perf_counter_ns
from typing import Callable, Optional

import streammon
from streammon import Event, SpecError, trace
from streammon.scenarios import (
    PID_HEADER,
    FleetConfig,
    PidConfig,
    generate_fleet,
    generate_pid,
)

import hostspeed

# The PID and fleet specifications are the ones of the acceptance suite
# (tests/conftest.py); the binding spec is acceptance criterion 7's.
PID_SPEC = """
input double temperature
input double reference
time input double timestamp

output double smooth_temp := temperature[10s,avg,0.0]
output double smooth_ref := reference[10s,avg,0.0]

output double error := smooth_temp - smooth_ref
output double acc_error := error[50s, avg, 0.0]

trigger any(acc_error > 0.016)
"""

FLEET_SPEC = """
input int CID
input bool offRoad
input bool pickUp
input bool retire

output int orp<int cid>
  invoke: CID
  extend: cid = CID
  terminate: retire & (cid = CID)
  := if offRoad & pickUp then 1 else 0

output bool suspicious<int cid>
  invoke: CID
  extend: cid = CID
  terminate: retire & (cid = CID)
  := orp(cid)[8h, sum]?0 > 5

trigger any(suspicious) "suspicious vehicle"
"""

BIND_SPEC = """
input int ID
input double x

output double f<int id>
  invoke: ID
  extend: id = ID
  := x?0.0

trigger any(f > 2.0)
"""

PID_DURATION_S = 2000.0
FLEET_CARS = 500
FLEET_EVENTS = 20_000
FLEET_DURATION_S = 24 * 3600.0
FLEET_WINDOW_S = 8 * 3600
#: the engine's default pane divisor: an 8 h window is cut into 256 panes
FLEET_PANES = 256
BIND_INSTANCES = 100_000
BIND_UPDATES = 20_000


@dataclass
class Workload:
    name: str
    why: str
    spec: str
    mode: str
    frequency: Optional[Fraction]
    instance_bounds: dict = field(default_factory=dict)
    #: True when events are read from a CSV file and verdicts written as
    #: JSON lines, exactly as `streammon monitor` does
    csv: bool = False
    #: events between two host-speed probes: about 30 ms of work
    probe_every: int = 400

    def setup(self):
        """The user-visible set-up: parse, type-check, build the monitor."""
        tspec = streammon.check_types(streammon.parse(self.spec))
        return streammon.Monitor(
            tspec,
            mode=self.mode,
            frequency=self.frequency,
            instance_bounds=dict(self.instance_bounds),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pid-variable",
            "PID spec in variable mode from memory: every event registers into "
            "three windows and evaluates three, each of up to 257 panes; "
            "isolates the window layer",
            PID_SPEC,
            "variable",
            None,
            probe_every=200,
        ),
        Workload(
            "pid-fixed-csv",
            "PID spec at fixed 1 Hz through read_trace and JSON-line output as "
            "streammon monitor does: tick scheduler, fixed step, ingestion, "
            "serialization",
            PID_SPEC,
            "fixed",
            Fraction(1),
            csv=True,
        ),
        Workload(
            "fleet-variable",
            "500-car fleet: parameterized invoke, efficiently bound "
            "extend/terminate lookup, per-instance 8 h windows and an any "
            "trigger at moderate state",
            FLEET_SPEC,
            "variable",
            None,
            {"orp": FLEET_CARS, "suspicious": FLEET_CARS},
        ),
        Workload(
            "bind-1e5",
            "invokes 1e5 instances then updates random ids: creation-heavy "
            "instance layer with a map far larger than CPU caches; no windows; "
            "the large-memory workload",
            BIND_SPEC,
            "variable",
            None,
            {"f": BIND_INSTANCES},
            probe_every=1000,
        ),
    )
}


# -- inputs ---------------------------------------------------------------------


def pid_rows(seed: int) -> list[list]:
    return generate_pid(PidConfig(seed=seed, duration_s=PID_DURATION_S))


def pid_events(seed: int) -> list[Event]:
    return [
        Event(r[0], {"temperature": r[1], "reference": r[2]}) for r in pid_rows(seed)
    ]


def fleet_rows(seed: int) -> list[list]:
    """Misbehaving fleet over 24 h, so the 8 h windows slide and evict. One
    car, picked from the seed, retires at 60% of the trace and stays silent
    afterwards, which exercises termination."""
    retire_car = random.Random(seed).randrange(FLEET_CARS)
    retire_at = 0.6 * FLEET_DURATION_S
    rows = generate_fleet(
        FleetConfig(
            seed=seed,
            cars=FLEET_CARS,
            events=FLEET_EVENTS,
            duration_s=FLEET_DURATION_S,
            misbehavior=0.6,
            retire_car=retire_car,
            retire_at=retire_at,
        )
    )
    return [r for r in rows if not (r[1] == retire_car and r[0] > retire_at)]


def fleet_events(rows: list[list]) -> list[Event]:
    return [
        Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3], "retire": r[4]})
        for r in rows
    ]


def bind_events(seed: int) -> list[Event]:
    """1e5 invocations in a seeded id order, then updates of random ids with
    x drawn from [0, 4), so about half of the updates fire the trigger."""
    rng = random.Random(seed)
    ids = list(range(BIND_INSTANCES))
    rng.shuffle(ids)
    events = []
    ts = 0.0
    for k in ids:
        ts += rng.uniform(0.0005, 0.0015)
        events.append(Event(ts, {"ID": k}))
    for _ in range(BIND_UPDATES):
        ts += rng.uniform(0.0005, 0.0015)
        ident = rng.randrange(BIND_INSTANCES)
        events.append(Event(ts, {"ID": ident, "x": rng.uniform(0.0, 4.0)}))
    return events


def make_inputs(name: str, seed: int, csv_path: str):
    """The workload's input and the trigger set an independent recount
    expects (None where the workload has no recount). The CSV workload's
    input is the path of the trace file written to `csv_path`."""
    if name == "pid-variable":
        return pid_events(seed), None
    if name == "pid-fixed-csv":
        trace.write_trace(csv_path, PID_HEADER, pid_rows(seed))
        return csv_path, None
    if name == "fleet-variable":
        rows = fleet_rows(seed)
        return fleet_events(rows), fleet_expected_triggers(rows)
    if name == "bind-1e5":
        events = bind_events(seed)
        return events, bind_expected_triggers(events)
    raise ValueError(f"unknown workload {name!r}")


# -- replay -----------------------------------------------------------------------


def verdict_line(verdict) -> str:
    """One verdict as `streammon monitor` writes it, without the newline."""
    return json.dumps(verdict.to_json_dict(), sort_keys=True)


@dataclass
class Pass:
    """What one closed-loop replay of a workload's trace produced. Times are
    at the reference host speed (see hostspeed.py) but `raw_wall_ns`, which
    is as measured."""

    wall_ns: float = 0
    raw_wall_ns: int = 0
    latencies_ns: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    #: duration of every host-speed probe, in order
    probes_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def replay(
    monitor,
    events,
    probe_every: int,
    out=None,
    after_event: Optional[Callable] = None,
) -> Pass:
    """Closed loop: each event is fed only after the previous `process` call
    returned. Latency runs from the event's arrival at the monitor to its
    verdicts being returned and, with `out`, written as JSON lines exactly as
    `streammon monitor` writes them. The wall time also covers producing the
    events, which for a trace file means reading it.

    The host's speed is probed before the first event and after every
    `probe_every` events, outside the timed spans, and each chunk's times
    are scaled to the reference speed by the probes around it."""
    result = Pass()
    lat = result.latencies_ns
    verdicts = result.verdicts
    probes = result.probes_ns
    process = monitor.process
    events = iter(events)
    probes.append(hostspeed.time_host_work())
    while True:
        first = len(lat)
        attempted = result.attempted
        started = perf_counter_ns()
        for ev in islice(events, probe_every):
            result.attempted += 1
            t0 = perf_counter_ns()
            try:
                produced = process(ev)
            except SpecError:
                result.failed += 1
                continue
            if out is not None:
                for verdict in produced:
                    out.write(verdict_line(verdict))
                    out.write("\n")
            lat.append(perf_counter_ns() - t0)
            verdicts.extend(produced)
            if after_event is not None:
                after_event(monitor)
        took = perf_counter_ns() - started
        result.raw_wall_ns += took
        probes.append(hostspeed.time_host_work())
        factor = hostspeed.scale(probes[-2], probes[-1])
        result.wall_ns += took * factor
        for i in range(first, len(lat)):
            lat[i] *= factor
        if result.attempted - attempted < probe_every:
            break
    return result


def replay_csv(
    monitor, csv_path: str, probe_every: int, out, after_event: Optional[Callable] = None
) -> Pass:
    """`replay` over a CSV trace read through `trace.read_trace`."""
    return replay(
        monitor, trace.read_trace(csv_path, monitor.tspec), probe_every, out, after_event
    )


# -- independent recounts ---------------------------------------------------------


def fleet_expected_triggers(rows: list[list]) -> set:
    """(ts, car) pairs at which a car has more than five off-road pick-ups in
    its trailing 8 h window. The window follows the documented pane
    semantics of `streammon.windows`: panes of width z = 8 h / 256 cover
    (i*z, (i+1)*z], and at time ts every pane with (i+1)*z > ts - 8 h counts
    whole. A retiring car's own row never fires because termination runs
    before triggers."""
    z = Fraction(FLEET_WINDOW_S) / FLEET_PANES
    horizon = Fraction(FLEET_WINDOW_S)
    state: dict[int, deque] = {}
    counts: dict[int, int] = {}
    expected = set()
    for ts, car, off_road, pick_up, retire in rows:
        if retire:
            state.pop(car, None)
            counts.pop(car, None)
            continue
        window = state.setdefault(car, deque())
        hit = 1 if (off_road and pick_up) else 0
        window.append((math.ceil(Fraction(ts) / z) - 1, hit))
        counts[car] = counts.get(car, 0) + hit
        kill = math.floor((Fraction(ts) - horizon) / z)
        while window[0][0] + 1 <= kill:
            counts[car] -= window.popleft()[1]
        if counts[car] > 5:
            expected.add((ts, car))
    return expected


def bind_expected_triggers(events: list[Event]) -> set:
    """(ts, id) for every event that sets x > 2.0 on a live id. No spec
    terminates an instance and every update names an invoked id."""
    live = set()
    expected = set()
    for ev in events:
        ident = ev.bindings["ID"]
        live.add(ident)
        x = ev.bindings.get("x")
        if x is not None and x > 2.0 and ident in live:
            expected.add((ev.ts, ident))
    return expected


def fired_triggers(verdicts) -> set:
    """(ts, first parameter) of every trigger verdict of an `any` trigger."""
    return {(v.ts, v.params[0]) for v in verdicts if v.kind == "trigger"}
