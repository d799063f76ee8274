"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import gc
import json
import random
import string
import time
from fractions import Fraction

import pytest

from conftest import (
    FLEET_SPEC,
    INTRO_SPEC,
    PHI_PPRIME_SPEC,
    PHI_PRIME_SPEC,
    PHI_SPEC,
    PID_SPEC,
    typed,
)
from oracle import RefMonitor
from test_analysis import _micro_spec, _window_mu
from streammon import Event, Monitor, ParseError, parse
from streammon.analysis import UNBOUNDED, Rate, analyze, build_adg
from streammon.ast import AggFn, ValueType
from streammon.engine import _StreamRT
from streammon.scenarios import FleetConfig, PidConfig, generate_fleet, generate_pid
from streammon.windows import PanedWindow, make_aggregator

from test_windows import _aggregate, _close, _retained


def _report(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} ({name}): PASS")


def _drain(monitor, events):
    out = []
    for ev in events:
        out.extend(monitor.process(ev))
    return out


def _pid_events(seed=1):
    rows = generate_pid(PidConfig(seed=seed))
    return [Event(r[0], {"temperature": r[1], "reference": r[2]}) for r in rows]


# -- criterion 1: analyzer ground truth --------------------------------------------


def test_criterion_1_analyzer_ground_truth():
    started = time.perf_counter()

    adg = build_adg(typed(PHI_SPEC))
    assert adg.rate["diff"].is_var and adg.rate["acc"].is_var

    adg = build_adg(typed(PHI_PRIME_SPEC))
    assert adg.rate["diff"] == Rate.fixed(Fraction(1))
    assert adg.rate["acc"] == Rate.fixed(Fraction(1))
    _, report = analyze(typed(PHI_PRIME_SPEC))
    assert report.bounded

    adg, report = analyze(typed(PHI_PPRIME_SPEC))
    assert not report.bounded
    assert report.edge_mu("diff", "b") == [UNBOUNDED]
    assert any("diff -> b" in o for o in report.offenders)

    assert time.perf_counter() - started < 1.0
    _report(1, "analyzer ground truth for the three reference specs")


# -- criterion 2: memory table ---------------------------------------------------


def test_criterion_2_memory_table_cells():
    rng = random.Random(2024)
    combos = 0
    for _ in range(6):
        z = Fraction(rng.choice([1, 2, 5]), rng.choice([1, 2, 4]))
        r = z * rng.randint(1, 50)
        y = Fraction(rng.choice([1, 2, 4, 8]), rng.choice([1, 2]))
        while (y * r).denominator != 1:
            y *= 2
        clock = 1 / z

        mu, _ = _window_mu(_micro_spec(clock, None, "avg", r))
        assert mu == max(1, r / z) and float(mu) == int(mu)

        mu, _ = _window_mu(_micro_spec(clock, None, "median", r))
        assert mu == UNBOUNDED

        mu, _ = _window_mu(_micro_spec(clock, y, "median", r))
        assert mu == y * r and float(mu) == int(mu)

        mu, _ = _window_mu(_micro_spec(clock, y, "avg", r))
        assert mu == min(r / z, r * y) and float(mu) == int(mu)
        combos += 1
    assert combos >= 5
    _report(2, "stored-value table exact for randomized (r, z, y)")


# -- criterion 3: paning correctness ------------------------------------------------


def test_criterion_3_paning_property():
    started = time.perf_counter()
    rng = random.Random(33)
    homomorphic = [a for a in AggFn if a.homomorphic]
    traces = 0
    checks = 0
    while traces < 1000:
        n = int(10 ** rng.uniform(1.0, 4.0))
        scale = 10 ** rng.uniform(-1.5, 0.5)
        t = 0.0
        events = []
        for _ in range(n):
            t += rng.uniform(0.0, 2.0) * scale
            events.append((t, rng.uniform(-1e4, 1e4)))
        r = Fraction(rng.choice([1, 2, 5, 10, 60]))
        z = r / rng.choice([4, 16, 64, 256])
        windows = []
        for agg in homomorphic:
            w = PanedWindow(r, z, make_aggregator(agg, ValueType.DOUBLE))
            bound = w.max_panes()
            for ts, v in events:
                w.register(v, ts)
                assert w.pane_count <= bound
            windows.append((agg, w, bound))
        last = events[-1][0]
        for ts in (last, last + float(r) * 0.37, last + float(r) * 1.01):
            kept = _retained(events, ts, r, z)
            for agg, w, bound in windows:
                got = w.evaluate(ts)
                want = _aggregate(agg, kept)
                assert _close(got, want), (agg, n, ts, got, want)
                assert w.pane_count <= bound
                checks += 1
        traces += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"paning property took {elapsed:.1f}s"
    _report(3, f"paned == bucketing oracle on {traces} traces ({checks} checks, {elapsed:.1f}s)")


# -- criteria 4 + 8: runtime-vs-static bridge and memory trend ------------------------


def _bridge_scenarios():
    pid_events = _pid_events()
    intro_events = []
    ts = 0.05
    rng = random.Random(8)
    while ts < 60:
        intro_events.append(
            Event(ts, {"sensor": rng.uniform(0, 4), "reference": rng.uniform(0, 4)})
        )
        ts += rng.uniform(0.05, 0.5)
    ab_events = []
    ts = 0.0
    for _ in range(500):
        ts += rng.uniform(0.01, 1.0)
        ab_events.append(Event(ts, {"a": rng.uniform(-5, 5), "b": rng.uniform(-5, 5)}))
    fleet_rows = generate_fleet(
        FleetConfig(seed=42, cars=50, events=900, misbehavior=0.5)
    )
    fleet_events = [
        Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3], "retire": r[4]})
        for r in fleet_rows
    ]
    buffer_spec = "input double a\noutput double x := a[-5, 0.0] + a[-2, 0.0]"
    realtime_spec = (
        "input double raw\n"
        "output double src : 2Hz := raw?0.0\n"
        "output double x : 1Hz := src[-3sec, 0.0]"
    )
    scenarios = [
        ("pid fixed 1Hz", PID_SPEC, pid_events, "fixed", Fraction(1), {}),
        ("pid fixed 0.2Hz", PID_SPEC, pid_events, "fixed", Fraction(1, 5), {}),
        ("pid fixed 0.1Hz", PID_SPEC, pid_events, "fixed", Fraction(1, 10), {}),
        ("pid variable", PID_SPEC, pid_events, "variable", None, {}),
        ("intro fixed 1Hz", INTRO_SPEC, intro_events, "fixed", Fraction(1), {}),
        ("phi-prime", PHI_PRIME_SPEC, ab_events, "variable", None, {}),
        (
            "fleet variable",
            FLEET_SPEC,
            fleet_events,
            "variable",
            None,
            {"orp": 50, "suspicious": 50},
        ),
        (
            "buffers",
            buffer_spec,
            [Event(e.ts, {"a": e.bindings["a"]}) for e in ab_events],
            "variable",
            None,
            {},
        ),
        (
            "realtime offset",
            realtime_spec,
            [Event(e.ts, {"raw": e.bindings["a"]}) for e in ab_events],
            "variable",
            None,
            {},
        ),
    ]
    for name, src, events, mode, freq, bounds in scenarios:
        monitor = Monitor(
            typed(src), mode=mode, frequency=freq, instance_bounds=bounds
        )
        _drain(monitor, events)
        yield name, monitor


def test_criterion_4_runtime_within_static_bound():
    checked = 0
    for name, monitor in _bridge_scenarios():
        assert monitor.report.bounded, name
        assert monitor.peak_slots <= monitor.report.total, (
            name,
            monitor.peak_slots,
            monitor.report.total,
        )
        checked += 1
    assert checked == 9
    _report(4, f"peak retained slots within the static total on {checked} runs")


def test_criterion_8_memory_trend_with_frequency():
    events = _pid_events()
    peaks = []
    for freq in (Fraction(1), Fraction(1, 5), Fraction(1, 10)):
        monitor = Monitor(typed(PID_SPEC), mode="fixed", frequency=freq)
        _drain(monitor, events)
        peaks.append(monitor.peak_slots)
    assert peaks[0] >= peaks[1] >= peaks[2], peaks
    _report(8, f"peak slots non-increasing as frequency decreases: {peaks}")


# -- criterion 5: end-to-end controller scenario ---------------------------------------


def test_criterion_5_pid_end_to_end():
    started = time.perf_counter()
    events = _pid_events(seed=1)
    assert 350 <= len(events) <= 450  # "around 400 values"

    monitor = Monitor(typed(PID_SPEC), mode="fixed", frequency=Fraction(1))
    got = sorted(
        {v.ts for v in _drain(monitor, events) if v.kind == "trigger"}
    )
    ref = RefMonitor(typed(PID_SPEC), mode="fixed", frequency=Fraction(1))
    ref.run(events)
    want = sorted(set(ref.trigger_times()))
    assert got == want and got, (len(got), len(want))

    # variable mode agrees with the reference semantics as well
    monitor_v = Monitor(typed(PID_SPEC), mode="variable")
    got_v = sorted({v.ts for v in _drain(monitor_v, events) if v.kind == "trigger"})
    ref_v = RefMonitor(typed(PID_SPEC))
    ref_v.run(events)
    assert got_v == sorted(set(ref_v.trigger_times()))

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(5, f"trigger timestamps equal the pane-free oracle ({len(got)} fixed-mode firings)")


# -- criterion 6: parameterization and lifecycle ------------------------------------------


def test_criterion_6_fleet_lifecycle_against_recount():
    retire_at = 7000.0
    cfg = FleetConfig(
        seed=42,
        cars=50,
        events=900,
        misbehavior=0.5,
        retire_car=7,
        retire_at=retire_at,
    )
    rows = generate_fleet(cfg)
    # the retired car goes silent after retirement
    rows = [r for r in rows if not (r[1] == 7 and r[0] > retire_at)]
    events = [
        Event(r[0], {"CID": r[1], "offRoad": r[2], "pickUp": r[3], "retire": r[4]})
        for r in rows
    ]

    monitor = Monitor(
        typed(FLEET_SPEC), instance_bounds={"orp": 50, "suspicious": 50}
    )
    verdicts = _drain(monitor, events)
    fired = {(v.ts, v.params[0]) for v in verdicts if v.kind == "trigger"}

    # independent per-car recount over the raw rows
    state: dict[int, list] = {}
    dead: set[int] = set()
    expected = set()
    for ts, car, off_road, pick_up, retire in rows:
        if car in dead:
            continue
        if retire:
            # termination happens before triggers are checked
            state.pop(car, None)
            dead.add(car)
            continue
        pickups = state.setdefault(car, [])
        pickups.append((ts, 1 if (off_road and pick_up) else 0))
        window_sum = sum(v for t, v in pickups if ts - 8 * 3600 < t <= ts)
        if window_sum > 5:
            expected.add((ts, car))
    assert fired == expected and expected, (len(fired), len(expected))

    # triggering cars beyond the retired one exist, and car 7 is silent after
    assert any(car != 7 for _, car in fired)
    mentions_after = [
        v
        for v in verdicts
        if v.params == (7,) and v.ts > retire_at
    ]
    assert mentions_after == []
    assert (7,) not in monitor.streams["suspicious"].instances
    _report(6, f"per-car decisions equal brute-force recount ({len(expected)} firings)")


# -- criterion 7: efficient binding -----------------------------------------------------


class _NoIterationDict(dict):
    """Instance map that fails the test if anything iterates over it."""

    armed = False

    def _forbid(self):
        if _NoIterationDict.armed:
            raise AssertionError("instance map was iterated during extension")

    def __iter__(self):
        self._forbid()
        return super().__iter__()

    def keys(self):
        self._forbid()
        return super().keys()

    def values(self):
        self._forbid()
        return super().values()

    def items(self):
        self._forbid()
        return super().items()


_EFFICIENT_SPEC = """
input int ID
input double x

output double f<int id>
  invoke: ID
  extend: id = ID
  := x?0.0

trigger any(f > 2.0)
"""


def _populated_monitor(instances: int) -> Monitor:
    monitor = Monitor(typed(_EFFICIENT_SPEC), instance_bounds={"f": instances})
    ts = 0.0
    for k in range(instances):
        ts += 0.001
        monitor.process(Event(ts, {"ID": k}))
    return monitor, ts


def _time_per_event(monitor: Monitor, start_ts: float, batch: int, repeats: int):
    rng = random.Random(17)
    n = len(monitor.streams["f"].instances)
    best = float("inf")
    ts = start_ts
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            events = []
            for _ in range(batch):
                ts += 0.0005
                events.append(Event(ts, {"ID": rng.randrange(n), "x": 1.0}))
            t0 = time.perf_counter()
            for ev in events:
                monitor.process(ev)
            best = min(best, (time.perf_counter() - t0) / batch)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, ts


def test_criterion_7_efficient_binding(monkeypatch):
    # structural half: no iteration over the instance map while extending.
    # Every stream gets its map when it is made, before the compiled
    # expressions and the step kernels bind it, so they read the armed one.
    make = _StreamRT.__init__

    def with_guarded_map(rt, *args, **kwargs):
        make(rt, *args, **kwargs)
        rt.instances = _NoIterationDict()

    monkeypatch.setattr(_StreamRT, "__init__", with_guarded_map)
    monitor, ts = _populated_monitor(500)
    monkeypatch.undo()
    rt = monitor.streams["f"]
    assert type(rt.instances) is _NoIterationDict
    _NoIterationDict.armed = True
    try:
        for k in range(200):
            ts += 0.01
            monitor.process(Event(ts, {"ID": k % 500, "x": 3.0}))
            if k == 3:
                extended_at = ts
    finally:
        _NoIterationDict.armed = False
    # f(3) extended in the armed loop: its flat entry holds that extension
    assert rt.instances[(3,)] == (extended_at, 3.0)

    # timing half: per-event cost flat within 3x from 1e2 to 1e5 instances
    small, ts_small = _populated_monitor(100)
    cost_small, _ = _time_per_event(small, ts_small, batch=2000, repeats=5)
    large, ts_large = _populated_monitor(100_000)
    cost_large, _ = _time_per_event(large, ts_large, batch=2000, repeats=5)
    ratio = cost_large / cost_small
    assert ratio < 3.0, f"per-event cost grew {ratio:.2f}x"
    _report(
        7,
        f"extension never scans instances; cost ratio 1e5/1e2 = {ratio:.2f}",
    )


# -- criterion 9: determinism and fuzzing ---------------------------------------------------


def test_criterion_9_determinism_and_fuzz():
    # byte-identical verdict streams for identical runs
    events = _pid_events(seed=5)

    def run_bytes(mode, freq):
        monitor = Monitor(typed(PID_SPEC), mode=mode, frequency=freq)
        return "\n".join(
            json.dumps(v.to_json_dict(), sort_keys=True)
            for v in _drain(monitor, events)
        ).encode()

    assert run_bytes("fixed", Fraction(1)) == run_bytes("fixed", Fraction(1))
    assert run_bytes("variable", None) == run_bytes("variable", None)

    # the parser survives 1e5 random inputs without hanging or crashing
    rng = random.Random(99)
    soup = string.printable + "±µ§€ø∞"
    keywords = "input output trigger invoke extend terminate if then else any count time bool int double Hz sec ms min h := ?"
    words = keywords.split() + list("()[]<>,?:=!&|+-*/%#\"")
    survived = 0
    for k in range(100_000):
        style = k % 3
        if style == 0:
            text = "".join(rng.choices(soup, k=rng.randrange(0, 60)))
        elif style == 1:
            text = " ".join(rng.choices(words, k=rng.randrange(0, 25)))
        else:
            text = "".join(
                chr(rng.randrange(1, 0xD7FF)) for _ in range(rng.randrange(0, 20))
            )
        try:
            parse(text)
        except ParseError:
            pass
        survived += 1
    assert survived == 100_000
    _report(9, "byte-identical replays; parser total over 1e5 random inputs")
