import contextlib
import io
import json
import math
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FLEET_SPEC, PHI_PPRIME_SPEC, PHI_PRIME_SPEC, PID_SPEC, typed
from oracle import ref_read_trace
from test_analysis import ARGS_SPEC
from streammon import TraceError, Verdict
from streammon.cli import main
from streammon.parser import MAX_DEPTH
from streammon.scenarios import (
    FLEET_HEADER,
    PID_HEADER,
    FleetConfig,
    PidConfig,
    generate_fleet,
    generate_pid,
)
from streammon.trace import read_trace, write_trace
from streammon.values import jsonable


def run_cli(*argv, cwd=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "streammon.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
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


READER_SPEC = "input int n\ninput double x\ninput bool p\noutput int c := n?0"


@pytest.mark.parametrize(
    "rows, expected",
    [
        # padded cells read as their stripped text
        ([" 1.5 , 3 , 2.5 , true "], [(1.5, {"n": 3, "x": 2.5, "p": True})]),
        (
            ["1,-4,1e3,FALSE", "1, ,\t, 0 "],
            [(1.0, {"n": -4, "x": 1000.0, "p": False}), (1.0, {"p": False})],
        ),
        # an empty or whitespace-only row is skipped; a row may bind only time
        (["", " , ,\t,  ", "2,,,", ",,,"], [(2.0, {})]),
        # the cell count is checked before anything in the row
        (["1,2,3"], "row 2: expected 4 cells, got 3"),
        (["1,,,", "x,,,,"], "row 3: expected 4 cells, got 5"),
        (["abc,1,,"], "row 2: bad timestamp 'abc'"),
        ([" ,1,,"], "row 2: bad timestamp ' '"),
        (["nan,1,,"], "row 2: non-finite timestamp 'nan'"),
        (["1,,,", " -inf ,,,"], "row 3: non-finite timestamp ' -inf '"),
        (["-1.5,1,,"], "row 2: negative timestamp -1.5"),
        (["2,,,", "3,,,", "1.5,,,"], "row 4: timestamp 1.5 decreases below 3.0"),
        (["1, 2.5 ,,"], "row 2: bad int value '2.5' for 'n'"),
        (["1,,abc,"], "row 2: bad double value 'abc' for 'x'"),
        (["1,,, yes "], "row 2: bad bool 'yes' for 'p'"),
    ],
)
def test_read_trace_cells_rows_and_diagnostics(tmp_path, rows, expected):
    path = tmp_path / "t.csv"
    path.write_text("time,n,x,p\n" + "".join(row + "\n" for row in rows))
    events = read_trace(str(path), typed(READER_SPEC))
    if isinstance(expected, str):
        with pytest.raises(TraceError) as err:
            list(events)
        assert [d.message for d in err.value.diagnostics] == [expected]
    else:
        got = [(ev.ts, ev.bindings) for ev in events]
        assert got == expected
        assert [type(v) for _, b in got for v in b.values()] == [
            type(v) for _, b in expected for v in b.values()
        ]


def test_trace_round_trip(tmp_path, fleet_tspec):
    path = tmp_path / "t.csv"
    rows = [[0.5, 7, True, None, None], [1.25, 3, None, True, False]]
    write_trace(str(path), ["time", "CID", "offRoad", "pickUp", "retire"], rows)
    events = list(read_trace(str(path), fleet_tspec))
    assert events[0].bindings == {"CID": 7, "offRoad": True}
    assert events[1].bindings == {"CID": 3, "pickUp": True, "retire": False}


def test_read_trace_skips_a_byte_order_mark(tmp_path):
    text = "time,n,x,p\n1,2,2.5,true\n3,,,FALSE\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    tspec = typed(READER_SPEC)
    events = [(e.ts, e.bindings) for e in read_trace(str(plain), tspec)]
    assert events == [(1.0, {"n": 2, "x": 2.5, "p": True}), (3.0, {"p": False})]
    assert [(e.ts, e.bindings) for e in read_trace(str(marked), tspec)] == events


def test_read_trace_names_the_record_of_an_oversized_cell(tmp_path, pid_tspec):
    """A cell beyond the csv module's field size limit is a diagnostic of
    the record being read, counted in records: row 2's quoted cell spans
    two lines."""
    path = tmp_path / "t.csv"
    huge = "1" * 200_000
    path.write_text(f'time,temperature,reference\n1.0,"2.5\n",\n2.0,"{huge}",\n')
    with pytest.raises(TraceError) as err:
        list(read_trace(str(path), pid_tspec))
    assert [d.message for d in err.value.diagnostics] == [
        "row 3: field larger than field limit (131072)"
    ]
    path.write_text(f"time,{huge}\n")
    with pytest.raises(TraceError) as err:
        list(read_trace(str(path), pid_tspec))
    assert [d.message for d in err.value.diagnostics] == [
        "row 1: field larger than field limit (131072)"
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spec = tmp_path / "pid.spec"
        spec.write_text(PID_SPEC)
        code = main(["monitor", str(spec), str(path), "--mode", "variable"])
    assert code == 1 and "row 1: field larger than field limit" in err.getvalue()


_CELLS = {
    "bool": st.sampled_from(["true", "false", "1", "0", "TRUE", "False", "tRuE"]),
    "int": st.integers(-(10**20), 10**20).map(str),
    "double": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-1000, 1000).map(str),
        st.sampled_from(["nan", "-inf", "1e400", "1_0", ".5"]),
    ),
}
_BAD_CELLS = {"bool": ["yes", "2"], "int": ["2.5", "1e3", "x"], "double": ["abc", "1..5"]}


@st.composite
def _cell(draw, ty):
    """One cell of a column of type ty: empty, whitespace, or a value of it
    or not, maybe padded or quoted."""
    kind = draw(st.sampled_from(["value"] * 6 + ["empty", "blank", "bad"]))
    if kind == "empty":
        return ""
    if kind == "blank":
        return draw(st.sampled_from([" ", "\t", "  "]))
    cell = draw(_CELLS[ty] if kind == "value" else st.sampled_from(_BAD_CELLS[ty]))
    if draw(st.booleans()):
        cell = draw(st.sampled_from([" ", "\t", ""])) + cell + draw(st.sampled_from([" ", ""]))
    return f'"{cell}"' if draw(st.integers(0, 4)) == 0 else cell


@st.composite
def _time_cell(draw, last: list):
    """A time cell after the latest time drawn, last[0]: mostly later, else
    equal (maybe padded), earlier, or not a valid time at all."""
    kind = draw(st.sampled_from(["later"] * 6 + ["equal", "earlier", "earlier", "odd"]))
    if kind == "odd":
        return draw(st.sampled_from(["nan", "inf", " inf", "-inf", "-1.5", "", " ", "x"]))
    if kind == "later":
        last[0] += draw(st.floats(0.0, 10.0))
    elif kind == "earlier":
        return repr(max(last[0] - draw(st.floats(0.001, 5.0)), 0.0))
    return draw(st.sampled_from(["", " "])) + repr(last[0])


@st.composite
def _trace_text(draw):
    """A READER_SPEC-like spec over drawn bool, int and double inputs and a
    CSV trace of its columns in a drawn order: rows of every cell kind,
    blank rows, rows of a wrong width, any line ending."""
    types = draw(st.lists(st.sampled_from(["bool", "int", "double"]), max_size=3))
    spec = "".join(f"input {ty} s{k}\n" for k, ty in enumerate(types)) + "output int c := 1"
    order = draw(st.permutations(range(len(types))))
    lines, last = [",".join(["time"] + [f"s{k}" for k in order])], [0.0]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "narrow", "wide"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", ",".join([" "] * (len(types) + 1))])))
            continue
        cells = [draw(_time_cell(last))] + [draw(_cell(types[k])) for k in order]
        if kind == "narrow":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif kind == "wide":
            cells.append(draw(_cell("double")))
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return spec, end.join(lines) + end


def _read_all(reader, path, tspec):
    """The (ts, bindings, value classes) of each event read, and the
    diagnostics that ended the read, if any."""
    events = []
    try:
        for e in reader(path, tspec):
            events.append((e.ts, e.bindings, [type(v) for v in e.bindings.values()]))
    except TraceError as exc:
        return events, [d.message for d in exc.diagnostics]
    return events, None


_MIXED_SPEC = "input bool p\ninput double x\noutput int c := 1"


@given(_trace_text())
@example(("output int c := 1", "time\n1\n\n1\ninf\n"))
# a row the slow path reads sets the time the next row is checked against
@example((_MIXED_SPEC, "time,p,x\n1,1,\n2, true ,\t\n1.5,0,2\n"))
@example((_MIXED_SPEC, 'time,x,p\r\n1,"-0.0",\r\n 1 , 1e400 ,FALSE\r\n2,1,2\r\n'))
@settings(max_examples=200, deadline=None)
def test_read_trace_equals_the_reference_reader(tmp_path_factory, case):
    """The compiled row loop reads every drawn trace as the per-cell
    reference reader does: the same events, values of the same classes,
    and the same diagnostic at the same row."""
    spec, text = case
    path = tmp_path_factory.mktemp("reader") / "t.csv"
    path.write_bytes(text.encode())
    tspec = typed(spec)
    got = _read_all(read_trace, str(path), tspec)
    want = _read_all(ref_read_trace, str(path), tspec)
    assert repr(got) == repr(want)


_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e300, 2.5, math.nan, math.inf, -math.inf])
_PARAM = st.one_of(st.integers(-(2**63), 2**63 - 1), st.booleans(), _FLOATS)


@given(
    st.builds(
        Verdict,
        st.floats(0, 1e9),
        st.sampled_from(["output", "trigger", "warning"]),
        st.one_of(st.none(), st.sampled_from(["f", "error"])),
        st.one_of(st.none(), st.just(()), st.lists(_PARAM, min_size=1, max_size=3).map(tuple)),
        st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1), st.booleans(), _FLOATS),
        st.one_of(st.none(), st.text(), st.sampled_from(['say "hi"', "température ≥ 5", "\\"])),
    )
)
@settings(max_examples=300, deadline=None)
def test_to_json_dict_equals_the_per_field_form(verdict):
    """The inline cases of `to_json_dict` give the dict, and the JSON bytes
    of it, that `jsonable` gives field by field."""
    want = {
        "ts": verdict.ts,
        "kind": verdict.kind,
        "stream": verdict.stream,
        "params": jsonable(verdict.params),
        "value": jsonable(verdict.value),
        "message": verdict.message,
    }
    got = verdict.to_json_dict()
    assert got == want and repr(got) == repr(want)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


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


@pytest.mark.parametrize("op", ["+", "/", "&"])
def test_analyze_and_monitor_a_long_chain(tmp_path, op):
    """`streammon analyze` and `monitor` take an output of 1000 chained
    terms at the interpreter's default recursion limit."""
    term = "(temperature > 0.0)?true" if op == "&" else "temperature?1.0"
    ty = "bool" if op == "&" else "double"
    spec = tmp_path / "long.spec"
    spec.write_text(f"input double temperature\ninput double reference\n"
                    f"output {ty} x := {f' {op} '.join([term] * 1000)}\n")
    code, out, err = run_cli("analyze", str(spec))
    assert code == 0 and "total:" in out, err
    trace = tmp_path / "t.csv"
    trace.write_text("time,temperature,reference\n1.0,2.0,\n2.0,,1.0\n")
    code, out, err = run_cli(
        "monitor", str(spec), str(trace), "--mode", "fixed", "--frequency", "1Hz"
    )
    # the tick at 1 s runs before the event there, so temperature is unset
    want = {"+": [1000.0, 2000.0], "/": [1.0, 2.0**-998], "&": [True, True]}[op]
    assert code == 0 and [json.loads(v)["value"] for v in out.splitlines()] == want


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


def test_monitor_refuses_a_timestamp_far_ahead(pid_paths, tmp_path):
    """A fixed-mode replay runs every clock tick, so a row far ahead of the
    last one ends in a diagnostic that names its timestamp and the ticks
    between, within a time cap, after the verdicts of the rows before it."""
    spec, _ = pid_paths
    far = tmp_path / "far.csv"
    far.write_text("time,temperature,reference\n1.0,20.0,20.0\n1e12,20.0,20.0\n")
    code, out, err = run_cli(
        "monitor", str(spec), str(far), "--mode", "fixed", "--frequency", "1Hz",
        timeout=60,
    )
    assert code == 1
    assert "timestamp 1000000000000.0 lies 999999999999 clock ticks ahead" in err
    assert "Traceback" not in err
    assert {json.loads(line)["ts"] for line in out.splitlines()} == {1.0}


def test_monitor_fixed_requires_frequency(pid_paths):
    spec, trace_path = pid_paths
    code, _, err = run_cli("monitor", str(spec), str(trace_path), "--mode", "fixed")
    assert code == 1 and "frequency" in err


@pytest.mark.parametrize("frequency", ["0Hz", "-1Hz", "abc"])
def test_monitor_bad_frequency_is_a_diagnostic(pid_paths, frequency):
    spec, trace_path = pid_paths
    code, out, err = run_cli(
        "monitor", str(spec), str(trace_path), "--mode", "fixed",
        f"--frequency={frequency}",
    )
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("1:1: error: expected")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--pane-divisor", "0"], "pane divisor must be a positive integer, got 0"),
        (["--pane-divisor", "-2"], "pane divisor must be a positive integer, got -2"),
        (["--max-instances", "f=-5"], "instance bound for 'f' must be a non-negative"),
        (["--max-instances", "nosuch=4"], "instance bound for 'nosuch'"),
        (["--max-instances", "y=0"], "instance bound for 'y'"),
    ],
)
def test_analyze_rejects_bad_analysis_arguments(tmp_path, args, message):
    spec = tmp_path / "shared.spec"
    spec.write_text(ARGS_SPEC)
    code, out, err = run_cli("analyze", str(spec), *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


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


# -- hostile input through the command line ----------------------------------------

#: corpus spec -> its trace's scenario, both small
_CORPUS = {"pid": (PID_SPEC, PID_HEADER), "fleet": (FLEET_SPEC, FLEET_HEADER)}
_ROWS = {
    "pid": generate_pid(PidConfig(seed=3, duration_s=8.0)),
    "fleet": generate_fleet(FleetConfig(seed=3, cars=5, events=30, duration_s=600.0)),
}
#: a per-example cap on the wall-clock time of both commands, in seconds
_CAP_S = 5.0
_SUFFIX = {"double": " + 0.0", "int": " + 0", "bool": " & true"}


class _TimeUp(BaseException):
    """Raised in a run that exceeds the cap; no handler of the program's
    catches it."""


@st.composite
def _hostile(draw):
    """A corpus spec and its trace as bytes, either of them mutated: a byte
    flipped, the text truncated, a header column duplicated, a timestamp
    moved far ahead, an output's expression nested deep or chained long or
    given a number of thousands of digits, a window's duration or a clock
    made huge or tiny, up to an exponent of ten million."""
    name = draw(st.sampled_from(sorted(_CORPUS)))
    spec, header = _CORPUS[name]
    lines = [",".join(header)] + [
        ",".join("" if c is None else str(c).lower() if isinstance(c, bool) else str(c) for c in row)
        for row in _ROWS[name]
    ]
    trace = ("\n".join(lines) + "\n").encode()
    kinds = ["flip", "truncate", "header", "far", "nest", "chain", "digits", "unit"]
    kind = draw(st.sampled_from(kinds))
    outputs = [k for k, line in enumerate(spec.split("\n")) if ":=" in line]
    if kind in ("flip", "truncate"):
        text = draw(st.sampled_from([spec.encode(), trace]))
        at = draw(st.integers(0, len(text) - 1))
        if kind == "flip":
            mutated = text[:at] + bytes([draw(st.integers(0, 255))]) + text[at + 1 :]
        else:
            mutated = text[:at]
        spec, trace = (mutated, trace) if text is not trace else (spec.encode(), mutated)
        return spec, trace
    if kind == "header":
        column = draw(st.sampled_from(header))
        trace = trace.replace(b"\n", f",{column}\n".encode(), 1)
        return spec.encode(), trace
    if kind == "far":  # e.g. 7.5 -> 7e75: more than MAX_TICKS seconds ahead
        row = draw(st.integers(1, len(lines) - 1))
        cells = lines[row].split(",")
        cells[0] = f"7e{draw(st.integers(7, 300))}"
        lines[row] = ",".join(cells)
        return spec.encode(), ("\n".join(lines) + "\n").encode()
    spec_lines = spec.split("\n")
    k = draw(st.sampled_from(outputs))
    decl = max(j for j in range(k + 1) if spec_lines[j].startswith("output"))
    ty = spec_lines[decl].split()[1]
    head, expr = spec_lines[k].split(":=")
    if kind == "nest":
        depth = draw(st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2))
        opener = draw(st.sampled_from(["(", "-(", "abs("] if ty != "bool" else ["(", "!("]))
        expr = opener * depth + expr + ")" * depth
    elif kind == "chain":
        expr = f"({expr})" + _SUFFIX[ty] * draw(st.integers(100, 1000))
    elif kind == "digits":  # more than the lexer takes
        number = "1" * draw(st.sampled_from([4301, 5000]))
        expr = f"({expr}) + {number}" if ty != "bool" else f"({expr}) & {number} > 0"
    else:
        units = ["1e400Hz", "0.0001ms", "1e-400s", "1e400h", "1e10000000s", "1e10000000Hz"]
        unit = draw(st.sampled_from(units))
        if unit.endswith("Hz"):
            name_end = spec_lines[decl].find(":=")
            line = spec_lines[decl]
            spec_lines[decl] = (
                line + f": {unit}" if name_end < 0 else line.replace(" :=", f": {unit} :=", 1)
            )
            head, expr = spec_lines[k].split(":=")
        else:
            expr = re.sub(r"\[\d+[a-z]+", "[" + unit, expr, count=1)
    spec_lines[k] = head + ":=" + expr
    return "\n".join(spec_lines).encode(), trace


@given(_hostile(), st.sampled_from(["variable", "fixed"]))
@settings(max_examples=80, deadline=None)
def test_hostile_input_ends_in_a_diagnostic(tmp_path_factory, case, mode):
    """Every run of `analyze` and `monitor` on a mutated corpus spec or trace
    ends with exit code 0, 1 or 2 and a diagnostic or report for 1 and 2,
    without an exception and within a time cap."""
    spec, trace = case
    folder = tmp_path_factory.mktemp("hostile")
    (folder / "s.spec").write_bytes(spec)
    (folder / "t.csv").write_bytes(trace)
    spec_path, trace_path = str(folder / "s.spec"), str(folder / "t.csv")
    frequency = ["--frequency", "1Hz"] if mode == "fixed" else []
    for argv in (
        ["analyze", spec_path],
        ["monitor", spec_path, trace_path, "--mode", mode, *frequency, "--allow-unbounded"],
    ):
        out, err = io.StringIO(), io.StringIO()

        def time_up(*_):
            raise _TimeUp(f"{argv[0]} ran longer than {_CAP_S} s")

        previous = signal.signal(signal.SIGALRM, time_up)
        signal.setitimer(signal.ITIMER_REAL, _CAP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # 1 is an error on stderr; analyze's 2, unbounded, is its report
        assert code in (0, 1, 2), argv
        assert code != 1 or err.getvalue().strip(), argv
        assert code != 2 or (out.getvalue() + err.getvalue()).strip(), argv
        assert "Traceback" not in err.getvalue()
