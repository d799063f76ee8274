"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that the CSV replay loop writes what `streammon monitor` writes,
that the PID workloads' triggers agree with the pane-free reference monitor
on a short prefix, and that every workload's run passes its checks and
writes a results file of the documented schema.
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR), str(ROOT / "tests")]

import conftest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import RefMonitor  # noqa: E402
from streammon import check_types, cli, parse  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload and keep results out of the real output dir."""
    monkeypatch.setattr(workloads, "PID_DURATION_S", 120.0)
    monkeypatch.setattr(workloads, "FLEET_CARS", 20)
    monkeypatch.setattr(workloads, "FLEET_EVENTS", 600)
    monkeypatch.setattr(workloads, "BIND_INSTANCES", 300)
    monkeypatch.setattr(workloads, "BIND_UPDATES", 300)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 3)
    return tmp_path


def test_specs_match_the_acceptance_suite():
    assert workloads.PID_SPEC == conftest.PID_SPEC
    assert workloads.FLEET_SPEC == conftest.FLEET_SPEC


def test_csv_loop_writes_what_the_cli_writes(small):
    csv_path = small / "pid.csv"
    spec_path = small / "pid.spec"
    spec_path.write_text(workloads.PID_SPEC)
    workloads.make_inputs("pid-fixed-csv", 3, str(csv_path))

    workload = workloads.WORKLOADS["pid-fixed-csv"]
    monitor = workload.setup()
    with open(small / "bench.jsonl", "w", encoding="utf-8", newline="") as out:
        result = workloads.replay_csv(monitor, str(csv_path), workload.probe_every, out)
    assert result.failed == 0 and result.verdicts

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(
            ["monitor", str(spec_path), str(csv_path), "--mode", "fixed", "--frequency", "1Hz"]
        )
    assert code == 0
    assert (small / "bench.jsonl").read_bytes() == stdout.getvalue().encode()


@pytest.mark.parametrize("name", ["pid-variable", "pid-fixed-csv"])
def test_pid_triggers_match_the_reference_monitor(small, name):
    workload = workloads.WORKLOADS[name]
    events = workloads.pid_events(seed=4)
    monitor = workload.setup()
    result = workloads.replay(monitor, events, workload.probe_every)
    got = sorted({v.ts for v in result.verdicts if v.kind == "trigger"})

    ref = RefMonitor(check_types(parse(workload.spec)), mode=workload.mode, frequency=workload.frequency)
    ref.run(events)
    assert got and got == sorted(set(ref.trigger_times()))


def test_replay_scales_times_to_the_reference_speed(small, monkeypatch):
    """On a host at half the reference speed every time is halved; the raw
    wall time is kept as measured."""
    import hostspeed

    monkeypatch.setattr(hostspeed, "time_host_work", lambda: 2 * hostspeed.REFERENCE_NS)
    workload = workloads.WORKLOADS["pid-variable"]
    events = workloads.pid_events(seed=5)
    clock = itertools.count(0, 1000)  # every reading is 1 us after the last
    monkeypatch.setattr(workloads, "perf_counter_ns", lambda: next(clock))
    result = workloads.replay(workload.setup(), events, workload.probe_every)
    assert result.attempted == len(events) == len(result.latencies_ns)
    assert len(result.probes_ns) == len(events) // workload.probe_every + 2
    assert result.wall_ns == result.raw_wall_ns / 2
    assert set(result.latencies_ns) == {500.0}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_checks_and_reports_every_metric(small, capsys, name, trace):
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    line = _last_json(capsys.readouterr().out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))

    record = json.loads((small / f"{name}-seed7-trace{trace}.json").read_text())
    _check_schema(record, name, trace)
    assert record["metrics"] == line["metrics"]

    # a second run of the same workload and seed must reproduce the digest
    assert run.main(argv) == 0
    assert _last_json(capsys.readouterr().out)["correct"] is True


def test_digest_mismatch_fails_the_run(small, capsys):
    argv = ["--workload", "pid-variable", "--seed", "8", "--seconds", "0.01", "--trace", "0"]
    assert run.main(argv) == 0
    store = small / "digests.json"
    known = json.loads(store.read_text())
    store.write_text(json.dumps({key: "0" * 64 for key in known}))
    capsys.readouterr()
    assert run.main(argv) == 1
    assert _last_json(capsys.readouterr().out)["correct"] is False


def _check_schema(record: dict, name: str, trace: int) -> None:
    assert record["schema"] == run.RESULT_SCHEMA
    assert record["workload"] == name and record["why"]
    env = record["env"]
    for key, kind in {
        "source_sha256": str,
        "python": str,
        "platform": str,
        "nproc": int,
        "seed": int,
        "seconds": float,
        "trace": int,
        "load": str,
    }.items():
        assert isinstance(env[key], kind), key
    assert env["git_sha"] is None or isinstance(env["git_sha"], str)
    assert env["trace"] == trace
    assert record["correct"] is True and record["problems"] == []
    assert isinstance(record["attempted"], int) and isinstance(record["failed"], int)
    assert record["failed_share"] == 0.0
    assert len(record["verdict_digest"]) == 64
    passes = record["passes"]
    assert passes["untraced"] and (bool(passes["traced"]) == bool(trace))
    for stats in passes["untraced"] + passes["traced"] + [record["untraced_events"]]:
        assert set(stats) == {
            "events_per_s",
            "event_latency_p50_us",
            "event_latency_p99_us",
            "samples",
            "beyond_p99",
            "wall_s",
            "raw_wall_s",
            "probe_median_ns",
        }
    assert isinstance(record["static_total_slots"], (int, float))
    assert record["setup_reps"] == run.SETUP_REPS
