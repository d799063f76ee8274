import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FLEET_SPEC, PHI_PPRIME_SPEC, PHI_PRIME_SPEC, PID_SPEC, typed
from streammon import TraceError, Verdict
from streammon.cli import main
from streammon.trace import read_trace, write_trace


def run_cli(*argv, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "streammon.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def pid_paths(tmp_path):
    spec = tmp_path / "pid.spec"
    spec.write_text(PID_SPEC)
    trace = tmp_path / "pid.csv"
    code, _, err = run_cli("gen", "pid", "--seed", "1", "-o", str(trace))
    assert code == 0, err
    return spec, trace


# -- trace reading ---------------------------------------------------------------


def test_read_trace_partial_bindings(tmp_path, pid_tspec):
    path = tmp_path / "t.csv"
    path.write_text("time,temperature,reference\n1.5,20.0,\n2.5,,21.0\n")
    events = list(read_trace(str(path), pid_tspec))
    assert events[0].ts == 1.5 and events[0].bindings == {"temperature": 20.0}
    assert events[1].bindings == {"reference": 21.0}


def test_read_trace_rejects_decreasing_ts(tmp_path, pid_tspec):
    path = tmp_path / "t.csv"
    path.write_text("time,temperature,reference\n5.0,20.0,\n4.0,20.0,\n")
    with pytest.raises(TraceError) as err:
        list(read_trace(str(path), pid_tspec))
    assert "row 3" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity"])
def test_read_trace_rejects_non_finite_ts(tmp_path, pid_tspec, cell):
    path = tmp_path / "t.csv"
    path.write_text(f"time,temperature,reference\n1.0,20.0,\n{cell},20.0,\n")
    with pytest.raises(TraceError) as err:
        list(read_trace(str(path), pid_tspec))
    assert "row 3" in str(err.value) and "non-finite" in str(err.value)


def test_read_trace_rejects_bad_header(tmp_path, pid_tspec):
    path = tmp_path / "t.csv"
    path.write_text("time,temperature,wrong\n1.0,20.0,1\n")
    with pytest.raises(TraceError):
        list(read_trace(str(path), pid_tspec))
    # the time input must not have a column of its own
    path.write_text("time,temperature,reference,timestamp\n1.0,20.0,20.0,1.0\n")
    with pytest.raises(TraceError):
        list(read_trace(str(path), pid_tspec))


def test_read_trace_bad_cell_names_row(tmp_path, fleet_tspec):
    path = tmp_path / "t.csv"
    path.write_text(
        "time,CID,offRoad,pickUp,retire\n1.0,7,true,true,false\n2.0,oops,,,\n"
    )
    with pytest.raises(TraceError) as err:
        list(read_trace(str(path), fleet_tspec))
    assert "row 3" in str(err.value)


def test_trace_round_trip(tmp_path, fleet_tspec):
    path = tmp_path / "t.csv"
    rows = [[0.5, 7, True, None, None], [1.25, 3, None, True, False]]
    write_trace(str(path), ["time", "CID", "offRoad", "pickUp", "retire"], rows)
    events = list(read_trace(str(path), fleet_tspec))
    assert events[0].bindings == {"CID": 7, "offRoad": True}
    assert events[1].bindings == {"CID": 3, "pickUp": True, "retire": False}


# -- analyze -----------------------------------------------------------------------


def test_analyze_exit_codes(tmp_path):
    bounded = tmp_path / "phi_prime.spec"
    bounded.write_text(PHI_PRIME_SPEC)
    code, out, _ = run_cli("analyze", str(bounded))
    assert code == 0
    assert "diff" in out and "1Hz" in out

    unbounded = tmp_path / "phi_pprime.spec"
    unbounded.write_text(PHI_PPRIME_SPEC)
    code, out, _ = run_cli("analyze", str(unbounded))
    assert code == 2
    assert "diff -> b" in out

    code, _, err = run_cli("analyze", str(tmp_path / "missing.spec"))
    assert code == 1

    broken = tmp_path / "broken.spec"
    broken.write_text("output bool x := 1 + true")
    code, _, err = run_cli("analyze", str(broken))
    assert code == 1 and "error" in err


def test_analyze_json(tmp_path):
    spec = tmp_path / "phi_prime.spec"
    spec.write_text(PHI_PRIME_SPEC)
    code, out, _ = run_cli("analyze", str(spec), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounded"] is True
    rates = {s["name"]: s["rate"] for s in doc["streams"]}
    assert rates["diff"] == "1Hz" and rates["a"] == "var"


# -- monitor -----------------------------------------------------------------------


def test_monitor_verdict_stream_parses_and_footer(pid_paths):
    spec, trace_path = pid_paths
    code, out, err = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "fixed",
        "--frequency", "1Hz",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert {"ts", "kind", "stream", "params", "value", "message"} <= doc.keys()
    footer = err.strip().splitlines()[-1]
    assert footer.startswith("events=") and "peak_slots=" in footer


def test_monitor_variable_mode_event_timestamps_only(pid_paths, pid_tspec):
    spec, trace_path = pid_paths
    code, out, _ = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "variable"
    )
    assert code == 0
    from streammon.trace import read_trace as rt

    event_times = {e.ts for e in rt(str(trace_path), pid_tspec)}
    for line in out.splitlines():
        assert json.loads(line)["ts"] in event_times


def test_monitor_rejects_unbounded_without_flag(tmp_path):
    spec = tmp_path / "phi_pprime.spec"
    spec.write_text(PHI_PPRIME_SPEC)
    trace_path = tmp_path / "t.csv"
    trace_path.write_text("time,a,b\n0.5,1.0,2.0\n1.5,2.0,\n")
    code, _, err = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "variable"
    )
    assert code == 2
    assert "unbounded" in err.lower()
    code, _, _ = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "variable",
        "--allow-unbounded",
    )
    assert code == 0


def test_monitor_decreasing_trace_names_row(pid_paths, tmp_path):
    spec, _ = pid_paths
    bad = tmp_path / "bad.csv"
    bad.write_text("time,temperature,reference\n5.0,20.0,20.0\n4.0,20.0,20.0\n")
    code, _, err = run_cli(
        "monitor", str(spec), str(bad), "--mode", "variable"
    )
    assert code == 1
    assert "row 3" in err


def test_monitor_fixed_requires_frequency(pid_paths):
    spec, trace_path = pid_paths
    code, _, err = run_cli("monitor", str(spec), str(trace_path), "--mode", "fixed")
    assert code == 1 and "frequency" in err


def _no_constant(name):
    raise ValueError(f"{name} is no strict JSON")


def test_monitor_writes_non_finite_values_as_strict_json(tmp_path):
    spec = tmp_path / "div.spec"
    spec.write_text("input double a\ninput double b\noutput double q := a / b\n")
    trace_path = tmp_path / "t.csv"
    rows = ["0.5,1.0,0.0", "1.5,-1.0,0.0", "2.5,0.0,0.0", "3.5,2.0,4.0", "4.5,1.0,"]
    trace_path.write_text("time,a,b\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "fixed",
        "--frequency", "1Hz",
    )
    assert code == 0, err
    docs = [json.loads(line, parse_constant=_no_constant) for line in out.splitlines()]
    assert [d["value"] for d in docs] == ["Infinity", "-Infinity", "NaN", 0.5]
    verdict = Verdict(1.0, "output", "f", (math.nan, -math.inf, 2.5), math.inf)
    assert verdict.to_json_dict()["params"] == ["NaN", "-Infinity", 2.5]


# -- gen ----------------------------------------------------------------------------


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, err = run_cli(
            "gen", "pid", "--seed", "9", "--duration", "50", "-o", str(path)
        )
        assert code == 0, err
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run_cli("gen", "pid", "--seed", "10", "--duration", "50", "-o", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_gen_fleet_zero_misbehavior_no_triggers(tmp_path):
    spec = tmp_path / "fleet.spec"
    spec.write_text(FLEET_SPEC)
    trace_path = tmp_path / "fleet.csv"
    code, _, err = run_cli(
        "gen", "fleet", "--seed", "4", "--cars", "10", "--events", "200",
        "--misbehavior", "0", "-o", str(trace_path),
    )
    assert code == 0, err
    code, out, _ = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "variable",
        "--max-instances", "orp=10", "--max-instances", "suspicious=10",
    )
    assert code == 0
    assert not any(
        json.loads(l)["kind"] == "trigger" for l in out.splitlines()
    )


def test_gen_fleet_forced_car_triggers_alone(tmp_path):
    spec = tmp_path / "fleet.spec"
    spec.write_text(FLEET_SPEC)
    trace_path = tmp_path / "fleet.csv"
    run_cli(
        "gen", "fleet", "--seed", "4", "--cars", "10", "--events", "200",
        "--misbehavior", "0", "--force-car", "3", "--force-pickups", "6",
        "-o", str(trace_path),
    )
    code, out, _ = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "variable",
        "--max-instances", "orp=10", "--max-instances", "suspicious=10",
    )
    assert code == 0
    witnesses = {
        tuple(json.loads(l)["params"])
        for l in out.splitlines()
        if json.loads(l)["kind"] == "trigger"
    }
    assert witnesses == {(3,)}


def test_gen_invalid_params_exit_1(tmp_path):
    code, _, err = run_cli(
        "gen", "fleet", "--cars", "0", "-o", str(tmp_path / "x.csv")
    )
    assert code == 1 and "error" in err


# -- verdict stream determinism ------------------------------------------------------


def test_monitor_output_is_byte_identical(pid_paths):
    spec, trace_path = pid_paths
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(
            "monitor", str(spec), str(trace_path), "--mode", "fixed",
            "--frequency", "0.2Hz",
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
