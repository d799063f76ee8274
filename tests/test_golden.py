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
import re
from fractions import Fraction

import pytest

from conftest import CARS_SPEC, FLEET_SPEC, PID_SPEC, typed
from test_acceptance import _EFFICIENT_SPEC
from streammon import Event, Monitor, engine
from streammon.analysis import BufferPlan
from streammon.kernel import KernelWriter
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
    # stayed the same. Both were recorded again when float avg came to be
    # exact (a correctly rounded mean of the retained values, by
    # Subtract-on-Evict over scaled integers): every window evaluation of
    # these traces equals the exact mean, 484 of 1254 and 1321 of 3141
    # verdict values moved by at most 3.6e-15 and 7.1e-15, and every
    # verdict's time, kind, stream and parameters stayed the same
    "pid-fixed-1Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(1)},
        "6f0875b79106e1611581ddd3a94a4dac8527b16c9595dd24b802cb1d4e8ed661",
    ),
    # 2.5 Hz: a tick period of 2/5 s, which no float represents exactly
    "pid-fixed-2.5Hz": (
        PID_SPEC,
        _pid_events,
        {"mode": "fixed", "frequency": Fraction(5, 2)},
        "379407ed807213176180ed03c0382d1dffb6734bef284eb50dce1623fb3db7df",
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
#: workloads, as sha256 digests. Recorded again when the kernels learned one
#: lookup key per step, tested lifecycle conditions only where they can fail
#: and dropped the `touched` set no trigger read: every kernel lost that set,
#: the fleet and bind event kernels build each key once and elide the
#: `param = input` test the lookup decided, and fleet tests `retire` once
#: before its terminations' lookups; verdicts did not move (CASES). The
#: fleet and bind kernels were recorded again when an instance of a
#: one-parameter template came to be keyed by its bare value: their keys
#: are `k0 = v` and `alpha`, their flat templates invoke inline, and only
#: their verdicts and warnings build (alpha,); the PID kernels did not move.
#: All were recorded again when a stream keeping one value came to hold it
#: bare: its extension stores v (an Instance's `value`, or a flat entry)
#: where it stored a (ts, v) pair into a one-item list, its read is
#: `.value` or a flat entry mapped to U, and a constant operand is no longer
#: tested for U; verdicts did not move (CASES). Bind and fleet were recorded
#: again when a flat entry read as an operand, or as a condition tested `is
#: True`, came to be tested as it is, not mapped to U and tested again: the
#: bind trigger reads `(U if (t0 := o25(alpha, EMPTY)) is EMPTY else t0 >
#: o26)` and fleet's `o25(alpha, EMPTY) is True`; verdicts did not move
#: (CASES)
KERNELS = {
    "pid-variable": (
        PID_SPEC,
        {},
        ["d1e6d0d9fadc76b40c56dd7cd15e2281ddf4701915818dcab0e65f0968e49c78"],
    ),
    "pid-fixed-1Hz": (
        PID_SPEC,
        {"mode": "fixed", "frequency": Fraction(1)},
        [
            "ca75750fd0543581ce45a8cac2d8c0e0802a447f6de99d5c2165ee51a996bf67",
            "d1a7c82c8a7594dd37f2c489e0a281c7249b60291d13ce1ea068ae253598d043",
        ],
    ),
    "fleet-bounded": (
        FLEET_SPEC,
        {"instance_bounds": {"orp": 500, "suspicious": 500}},
        ["0a790e3b29e7c30ff7a0fc61ab79e8d0e223a03613f356f03550548d6644508e"],
    ),
    "bind": (
        _EFFICIENT_SPEC,
        {"instance_bounds": {"f": 100_000}},
        ["c7e9f4df5cf7d4364c6ad3afa41334fec68f2b6732d10c1b2644cbe1b013a70c"],
    ),
}


def _sources(spec, kwargs, monkeypatch) -> list[str]:
    """The event kernel's source, then the tick kernel's when the spec has
    clocks."""
    sources = []
    code = engine._code
    monkeypatch.setattr(engine, "_code", lambda s: sources.append(s) or code(s))
    monitor = Monitor(typed(spec), **kwargs)
    monitor._kernel(tick=False)
    if monitor._clocks:
        monitor._kernel(tick=True)
    return sources


def _check_kernels(spec, kwargs, expected, monkeypatch):
    """The kernel sources (`_sources`) hash to `expected`. On a mismatch
    each source is printed with its digest, so that a new pin can be read
    in the test's output."""
    sources = _sources(spec, kwargs, monkeypatch)
    digests = [hashlib.sha256(s.encode()).hexdigest() for s in sources]
    if digests != expected:
        for source, digest in zip(sources, digests):
            print(f"--- sha256 {digest}\n{source}")
    assert digests == expected


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_benchmark_kernel_sources_are_pinned(name, monkeypatch):
    """The kernel sources of the benchmark's workloads hash to their
    recorded digests. A change that alters them on purpose records the new
    digests and says why."""
    _check_kernels(*KERNELS[name], monkeypatch)


#: the five inputs and two clocks of
#: test_engine.test_kernels_are_bounded_by_the_spec_not_the_trace: ticks due
#: on either clock, found by the multi-clock loop
_TWO_CLOCKS_SPEC = (
    "input int a\ninput int b\ninput int c\ninput int d\ninput int e\n"
    "output int s := (a)?(0) + (b)?(0) + (c)?(0)\n"
    "output int u : 2Hz := (s)?(0) + (d)?(0)\n"
    "output int w : 0.4Hz := (e)?(0) + w[-1, 0]\n"
    "trigger s > 4\n"
)

#: the snippets no other pinned spec writes: the time input's feed and a
#: template it gates, a time-pruned buffer (c) and a count-pruned one (x), a
#: tuple invoke over two inputs, checked after the last of them, with its
#: instance-bound warning, a flat template (f) whose termination goes through
#: an index, a plain template that terminates, and count, any and time-input
#: triggers
_BRANCHES_SPEC = """
input int A
input int B
input double x
input bool p
time input double t

output double c : 2Hz := x?0.0
output double d : 2Hz := c[-1s, 0.0]
output double e := x[-2, 0.0] + t
output double f<int a, int b>
  invoke: (A, B)
  extend: (a = A) & (b = B)
  terminate: p & (a = B)
  := x?0.0
output int g
  terminate: p
  := A?0

trigger any(f > 1.0)
trigger count(f) >= 2
trigger t > 1000.0
"""

#: event and tick kernel sources of the kernel shapes that KERNELS leaves
#: out, as sha256 digests, recorded again with KERNELS: each lost the
#: `touched` set but branches, whose count trigger reads it; cars shares its
#: invoke and lookup key, and branches builds its tuple key once and tests
#: `p` once per step. Cars was recorded again with the bare keys of KERNELS;
#: branches, whose `f<int a, int b>` keeps its tuple key, did not move. All
#: were recorded again with the bare one-value storage of KERNELS; the
#: buffers of branches' c and x, which offsets read, also keep `value`.
#: Branches was recorded again with bind's single test of a flat entry: its
#: `any(f > 1.0)` trigger reads f's entry as bind's reads f's
SHAPES = {
    "pid-fixed-2.5Hz": (
        CASES["pid-fixed-2.5Hz"][0],
        CASES["pid-fixed-2.5Hz"][2],
        [
            "552f3b23f4e10edb15f2df5099ecbf3207d5690c80a922250125b3dc2f53757e",
            "d1a7c82c8a7594dd37f2c489e0a281c7249b60291d13ce1ea068ae253598d043",
        ],
    ),
    "cars-0.1Hz": (
        CASES["cars-0.1Hz"][0],
        CASES["cars-0.1Hz"][2],
        [
            "527dbd1ac346436e52628c466ff6c74d1a635d38295de11efdcda2a7b7a2aa3e",
            "75998d872b201c30e39c60eeae199434f6094e20efa9b966a1a2100382ff5620",
        ],
    ),
    "two-clocks": (
        _TWO_CLOCKS_SPEC,
        {},
        [
            "48d1b79c3f8dfcef90ed5f6301922090472036038268ea47d092cf1367794e5a",
            "9a25eb7b71fd1bf18cebd3533854dbb3c2a0225210ed76dab3ab5f2d429987d0",
        ],
    ),
    "branches": (
        _BRANCHES_SPEC,
        {"instance_bounds": {"f": 4}},
        [
            "f342a1e823f709e2d32f861f160a0f87ceaa46e1e8baa0e4e4ae82e4a4b61b97",
            "77338066984aeefa19ccc4b1ca60347c1201c24b62454cd0ef61399088ae2a08",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_more_kernel_shapes_are_pinned(name, monkeypatch):
    """As test_benchmark_kernel_sources_are_pinned, for SHAPES."""
    _check_kernels(*SHAPES[name], monkeypatch)


@pytest.mark.parametrize("name", sorted({**KERNELS, **SHAPES}))
def test_one_value_streams_store_no_instant(name, monkeypatch):
    """The pinned kernels store the pair (ts, v) only in the extension of a
    stream that an offset reads, and in each such extension; a stream of
    buffer plan `BufferPlan()` stores its bare value."""
    spec, kwargs, _ = {**KERNELS, **SHAPES}[name]
    written, extend = [], KernelWriter.extend

    def recording(writer, depth, rt, *args, **kw):
        start = len(writer.code)
        extend(writer, depth, rt, *args, **kw)
        written.append((rt, writer.code[start:]))

    monkeypatch.setattr(KernelWriter, "extend", recording)
    sources = _sources(spec, kwargs, monkeypatch)
    pairs = 0
    for rt, lines in written:
        stored = sum(line.count("(ts, v)") for line in lines)
        assert (stored > 0) == (rt.buffer_plan != BufferPlan()), (rt.name, lines)
        pairs += stored
    assert sum(source.count("(ts, v)") for source in sources) == pairs


@pytest.mark.parametrize("name", ["fleet-bounded", "bind", "cars-0.1Hz"])
def test_one_parameter_kernels_build_no_one_item_tuple(name, monkeypatch):
    """The pinned kernels whose templates have one parameter key their
    instances by its value: no source builds a one-item tuple but the
    (alpha,) of a verdict's params or of a warning."""
    spec, kwargs, _ = {**KERNELS, **SHAPES}[name]
    for source in _sources(spec, kwargs, monkeypatch):
        assert {*re.findall(r"\(\w+, ?\)", source)} <= {"(alpha,)"}
        assert "(alpha,)" in source
