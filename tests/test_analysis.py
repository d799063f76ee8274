import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CARS_SPEC,
    PHI_PPRIME_SPEC,
    PHI_PRIME_SPEC,
    PHI_SPEC,
    typed,
)
from streammon import (
    CycleError,
    Monitor,
    analyze,
    build_adg,
    classify_efficiently_bound,
    compute_memory,
    default_pane_widths,
)
from streammon.analysis import UNBOUNDED, Rate, WindowLabel
from streammon.ast import Binary, ParamRef, StreamAccess


def test_phi_rates_are_variable():
    adg = build_adg(typed(PHI_SPEC))
    assert adg.rate["diff"].is_var
    assert adg.rate["acc"].is_var
    assert adg.rate["a"].is_var and adg.rate["b"].is_var


def test_phi_prime_rates_become_fixed():
    adg = build_adg(typed(PHI_PRIME_SPEC))
    assert adg.rate["diff"] == Rate.fixed(Fraction(1))
    assert adg.rate["acc"] == Rate.fixed(Fraction(1))


def test_phi_prime_fully_bounded_phi_pprime_not():
    _, report = analyze(typed(PHI_PRIME_SPEC))
    assert report.bounded
    adg, report = analyze(typed(PHI_PPRIME_SPEC))
    assert not report.bounded
    # the offending edge is the real-time offset diff -> b
    assert report.edge_mu("diff", "b") == [UNBOUNDED]
    assert any("diff -> b" in o for o in report.offenders)


def test_single_input_graph():
    adg = build_adg(typed("input int a"))
    assert adg.vertices == ["a"] and adg.edges == []
    assert adg.rate["a"].is_var


def test_var_is_top_of_rate_order():
    assert Rate.var() > Rate.fixed(Fraction(10**9))
    assert Rate.fixed(Fraction(2)) > Rate.fixed(Fraction(1))
    assert max(Rate.fixed(Fraction(5)), Rate.var()).is_var


def test_cycle_without_past_offset_rejected():
    with pytest.raises(CycleError) as err:
        build_adg(typed("output int x := y?0\noutput int y := x?0"))
    assert "cycle" in str(err.value)


def test_cycle_broken_by_past_offset_allowed():
    t = typed("output int x := x[-1, 0] + 1")
    adg = build_adg(t)
    assert adg.rate["x"] == Rate.fixed(Fraction(0))  # no clock, no inputs
    t = typed("input int a\noutput int x : 2Hz := x[-1, 0] + a?0")
    adg = build_adg(t)
    assert adg.rate["x"] == Rate.fixed(Fraction(2))


def test_classify_efficiently_bound_examples():
    t = typed(CARS_SPEC)
    assert classify_efficiently_bound(t.templates["offRoadPickUp"], t)
    neg = typed(CARS_SPEC.replace("extend: cid = CID", "extend: !(cid = CID)", 1))
    assert not classify_efficiently_bound(neg.templates["offRoadPickUp"], neg)


def _formula_oracle(expr, t) -> bool:
    """Structural recursion over the formula tree, written independently:
    positive combinations of param = input equalities only."""
    if isinstance(expr, Binary) and expr.op in ("&", "|"):
        return _formula_oracle(expr.left, t) and _formula_oracle(expr.right, t)
    if isinstance(expr, Binary) and expr.op == "=":
        sides = {type(expr.left), type(expr.right)}
        if sides != {ParamRef, StreamAccess}:
            return False
        access = expr.left if isinstance(expr.left, StreamAccess) else expr.right
        return access.stream in t.inputs and not access.args
    return False


@pytest.mark.parametrize(
    "condition,expected",
    [
        ("a = X & b = Y | a = X", True),
        ("(a = X) & (b = Y) | (a = X)", True),
        ("a = X & !(b = Y)", False),
        ("a = X | b > 0", False),
        ("X = a & Y = b", True),
    ],
)
def test_classify_against_structural_oracle(condition, expected):
    src = (
        "input int X\ninput int Y\n"
        f"output int s<int a, int b>\n invoke: (X, Y)\n extend: {condition}\n := 1"
    )
    t = typed(src)
    tpl = t.templates["s"]
    assert _formula_oracle(tpl.extend, t) == expected
    assert classify_efficiently_bound(tpl, t) == expected


def test_zero_parameter_templates_are_efficient():
    t = typed("input int a\noutput int x := a?0")
    assert classify_efficiently_bound(t.templates["x"], t)


def test_default_pane_widths_rules():
    # fixed consumer at 1 Hz, r = 10s -> z = 1s, 10 panes
    t = typed("input double d\noutput double x : 1Hz := d[10s, avg, 0.0]")
    adg = build_adg(t)
    widths = default_pane_widths(adg)
    (z,) = widths.values()
    assert z == 1 and math.ceil(Fraction(10) / z) == 10

    # variable consumer, r = 10s, divisor 256 -> z = 10/256 s
    t = typed("input double d\noutput double x := d[10s, avg, 0.0]")
    (z,) = default_pane_widths(build_adg(t)).values()
    assert z == Fraction(10, 256)

    # consumer at 0.1 Hz, r = 8h -> z = 10s, 2880 panes (hand check: 28800/10)
    t = typed("input double d\noutput double x : 0.1Hz := d[8h, avg, 0.0]")
    (z,) = default_pane_widths(build_adg(t)).values()
    assert z == 10
    assert math.ceil(Fraction(28800) / z) == 2880

    # slow consumer: pane width is capped at the window duration
    t = typed("input double d\noutput double x : 0.01Hz := d[10s, avg, 0.0]")
    (z,) = default_pane_widths(build_adg(t)).values()
    assert z == 10


def _micro_spec(clock_hz: Fraction, target_hz: Fraction | None, agg: str, r: Fraction):
    """Consumer with a window over either a variable input or a clocked stream."""
    lines = ["input double raw"]
    if target_hz is None:
        target = "raw"
    else:
        num = f"{float(target_hz):g}"
        lines.append(f"output double src : {num}Hz := raw?0.0")
        target = "src"
    num = f"{float(clock_hz):g}"
    rs = f"{float(r):g}"
    default = "" if agg == "count" else ", 0.0"
    expr = f"{target}[{rs}s, {agg}{default}]"
    if agg == "count":
        lines.append(f"output int w : {num}Hz := {expr}")
    else:
        lines.append(f"output double w : {num}Hz := {expr}")
    return typed("\n".join(lines))


def _window_mu(tspec):
    adg = build_adg(tspec)
    widths = default_pane_widths(adg)
    report = compute_memory(adg, widths)
    (value,) = [
        mu for e, mu in report.per_edge if isinstance(e.label, WindowLabel)
    ]
    return value, widths


def test_memory_table_cells_randomized():
    rng = random.Random(7)
    for _ in range(8):
        # z = 1 / consumer clock; keep r a multiple of z so r/z is integral
        z = Fraction(rng.choice([1, 2, 5]), rng.choice([1, 2, 4]))
        r = z * rng.randint(1, 40)
        y = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))
        clock = 1 / z

        # variable-rate target, combinable aggregation
        mu, _ = _window_mu(_micro_spec(clock, None, "avg", r))
        assert mu == max(1, r / z)

        # variable-rate target, raw aggregation: unbounded
        mu, _ = _window_mu(_micro_spec(clock, None, "median", r))
        assert mu == UNBOUNDED

        # fixed-rate target, raw aggregation: y * r values
        while (y * r).denominator != 1:
            y *= 2
        mu, _ = _window_mu(_micro_spec(clock, y, "median", r))
        assert mu == y * r

        # fixed-rate target, combinable aggregation
        mu, _ = _window_mu(_micro_spec(clock, y, "avg", r))
        assert mu == min(r / z, r * y)


def test_spec_table_examples():
    # window edge, var target, avg, r=10s, z=1s -> 10 panes
    mu, _ = _window_mu(_micro_spec(Fraction(1), None, "avg", Fraction(10)))
    assert mu == 10
    # window edge, fixed 2 Hz target, median, r=5s -> 10 values
    mu, _ = _window_mu(_micro_spec(Fraction(1), Fraction(2), "median", Fraction(5)))
    assert mu == 10


#: a window, a plain stream and a parameterized template, for the analysis
#: arguments that `analyze` and `Monitor` share
ARGS_SPEC = """input double x
output double y := x[10s, sum]
output double f<int id>
  invoke: 1
  extend: true
  := x?0.0
"""


@pytest.mark.parametrize("divisor", [0, -2, 1.5, True])
def test_pane_divisor_must_be_a_positive_int(divisor):
    with pytest.raises(ValueError, match="pane divisor must be a positive integer"):
        analyze(typed(ARGS_SPEC), divisor, {"f": 1})


def test_monitor_rejects_a_fractional_pane_divisor():
    with pytest.raises(ValueError, match="pane divisor must be a positive integer"):
        Monitor(typed(ARGS_SPEC), pane_divisor=1.5, instance_bounds={"f": 1})


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"f": -5}, "instance bound for 'f' must be a non-negative integer, got -5"),
        ({"f": 2.0}, "instance bound for 'f' must be a non-negative integer"),
        ({"nosuch": 4}, "instance bound for 'nosuch': no parameterized template"),
        ({"y": 0}, "instance bound for 'y': no parameterized template"),
        ({"x": 1}, "instance bound for 'x': no parameterized template"),
    ],
)
def test_instance_bounds_must_name_a_template_and_be_a_count(bounds, message):
    with pytest.raises(ValueError, match=message):
        analyze(typed(ARGS_SPEC), instance_bounds=bounds)
    with pytest.raises(ValueError, match=message):
        Monitor(typed(ARGS_SPEC), instance_bounds=bounds)


def test_zero_instances_is_a_bound():
    _, report = analyze(typed(ARGS_SPEC), instance_bounds={"f": 0})
    assert report.total == 259 and report.contribution["f"] == 0


def test_huge_bound_is_exact():
    """A clock beyond the float range gives a bound beyond it, counted in
    ints: the window over x keeps 10**400 + 1 panes and x one value more."""
    adg, report = analyze(typed("input double x\noutput double y : 1e400Hz := x[1s, sum]"))
    assert report.total == 10**400 + 3 and report.total.__class__ is int
    text = report.render_text(adg)
    assert f"total: {10**400 + 3} value-slots" in text and "1e+400Hz" in text
    assert report.to_json_dict(adg)["total"] == 10**400 + 3


def test_widths_beyond_the_float_range_print_as_exact_ratios():
    """A pane below the float range, or a duration above it, prints as its
    exact ratio in text and JSON, never as 0s or an overflow."""
    adg, report = analyze(typed("input double x\noutput double y : 1e400Hz := x[1s, sum]"))
    tiny = f"1/{10**400}"
    assert f"window x[1s, sum] in y: pane {tiny}s, mu " in report.render_text(adg)
    [window] = json.loads(json.dumps(report.to_json_dict(adg)))["windows"]
    assert window["pane_s"] == tiny and window["duration_s"] == 1.0
    adg, report = analyze(typed("input double x\noutput double y : 1Hz := x[1e400s, sum]"))
    huge = str(10**400)
    assert f"window x[{huge}s, sum] in y: pane 1s, mu " in report.render_text(adg)
    assert f"y -> x [window(sum, {huge}s)]" in [str(e) for e in adg.edges]
    [window] = report.to_json_dict(adg)["windows"]
    assert window["duration_s"] == huge and window["pane_s"] == 1.0


def test_realtime_offset_bounds():
    # fixed-rate target: ceil(d * y) + 1 values
    t = typed(
        "input double raw\n"
        "output double src : 2Hz := raw?0.0\n"
        "output double x := src[-3sec, 0.0]"
    )
    adg = build_adg(t)
    report = compute_memory(adg, default_pane_widths(adg))
    assert report.edge_mu("x", "src") == [7]  # ceil(3*2)+1
    assert report.bounded


def test_discrete_offset_bounds():
    t = typed("input double a\noutput double x := a[-4, 0.0]")
    adg = build_adg(t)
    report = compute_memory(adg, default_pane_widths(adg))
    assert report.edge_mu("x", "a") == [5]


def test_eta_defaults():
    t = typed(CARS_SPEC)
    adg, report = analyze(t)
    assert report.eta["offRoad"] == 1
    assert report.eta["suspicious"] == UNBOUNDED
    assert not report.bounded
    adg, report = analyze(
        t, instance_bounds={"offRoadPickUp": 50, "suspicious": 50}
    )
    assert report.eta["suspicious"] == 50
    assert report.bounded
    assert report.total == sum(report.contribution.values())


def test_report_order_independent():
    src_a = "input double a\ninput double b\noutput double x : 1Hz := a[10s, avg, 0.0] + b?0.0"
    src_b = "input double b\ninput double a\noutput double x : 1Hz := a[10s, avg, 0.0] + b?0.0"
    _, ra = analyze(typed(src_a))
    _, rb = analyze(typed(src_b))
    assert ra.per_stream == rb.per_stream
    assert ra.total == rb.total


@st.composite
def _chain_specs(draw):
    """Linear chains with optional clocks; returns (source, extra_edge_pair)."""
    n = draw(st.integers(2, 5))
    clocks = [draw(st.sampled_from([None, 1, 2])) for _ in range(n)]
    lines = ["input double i0"]
    prev = "i0"
    for k in range(n):
        clock = f" : {clocks[k]}Hz" if clocks[k] else ""
        lines.append(f"output double s{k}{clock} := {prev}?0.0")
        prev = f"s{k}"
    return "\n".join(lines), n


@given(_chain_specs())
@settings(max_examples=60, deadline=None)
def test_rate_monotone_under_added_edges(spec_and_n):
    """Adding a dependency edge never decreases a stream's rate."""
    src, n = spec_and_n
    base = build_adg(typed(src))
    # give the last stream an extra dependency on the variable-rate input
    last_line = [l for l in src.splitlines() if f"s{n-1}" in l][0]
    patched = src.replace(last_line, last_line + " + i0?0.0")
    wide = build_adg(typed(patched))
    for name in base.vertices:
        assert wide.rate[name] >= base.rate[name]


#: how a generated template reads another: at the current instant, through
#: a past or real-time offset, or through a window
READ_FORMS = {
    "now": "{}?0",
    "past": "{}[-1, 0]",
    "delay": "{}[-1s, 0]",
    "window": "{}[1s, count]",
}


@st.composite
def _read_graphs(draw):
    """Up to five int templates t0, t1, ... over input a, each reading some of
    them (itself included) in its value expression and, when parameterized,
    in its invoke. Returns the source and the reads as (reader, read, form)."""
    n = draw(st.integers(1, 5))
    params = [draw(st.booleans()) for _ in range(n)]
    reads, lines = [], ["input int a"]
    read = st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(READ_FORMS)))

    def expr(i, start):
        terms = [start]
        for j, form in draw(st.lists(read, max_size=3)):
            reads.append((f"t{i}", f"t{j}", form))
            terms.append(READ_FORMS[form].format(f"t{j}(0)" if params[j] else f"t{j}"))
        return " + ".join(terms)

    for i in range(n):
        if params[i]:
            invoke, value = expr(i, "a"), expr(i, "k")
            lines += [f"output int t{i}<int k>", f"  invoke: {invoke}", f"  := {value}"]
        else:
            lines.append(f"output int t{i} := {expr(i, 'a')}")
    return "\n".join(lines), reads


def _reach(pairs):
    """Each node of the (reader, read) pairs -> the nodes it reaches over
    them, itself included."""
    reach = {}
    for name in {x for pair in pairs for x in pair}:
        found, todo = {name}, [name]
        while todo:
            v = todo.pop()
            for dep in {w for u, w in pairs if u == v} - found:
                found.add(dep)
                todo.append(dep)
        reach[name] = found
    return reach


@given(_read_graphs())
@settings(max_examples=150, deadline=None)
def test_evaluation_order_puts_what_a_template_reads_first(graph):
    """Every same-instant read comes first, and so does every read through
    a past offset whose target cannot reach its reader; CycleError exactly
    when same-instant reads form a cycle."""
    src, reads = graph
    same = {(u, v) for u, v, form in reads if form in ("now", "window")}
    reach_now = _reach(same)
    if any(u in reach_now[v] for u, v in same):
        with pytest.raises(CycleError):
            build_adg(typed(src))
        return
    position = {name: i for i, name in enumerate(build_adg(typed(src)).order)}
    for u, v in same:
        assert position[v] < position[u], (u, v)
    reach = _reach({(u, v) for u, v, _ in reads})
    for u, v, form in reads:
        if form in ("past", "delay") and u not in reach[v]:
            assert position[v] < position[u], (u, v)
