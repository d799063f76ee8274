from fractions import Fraction

import pytest

from conftest import CARS_SPEC, FLEET_SPEC, INTRO_SPEC, PID_SPEC, typed
from streammon import TypeCheckError, check_types, parse
from streammon.ast import (
    Const,
    Default,
    DiscreteOffset,
    InputDecl,
    ParamRef,
    RealTimeOffset,
    TupleExpr,
    ValueType,
    WindowAccess,
    template_expressions,
    walk,
)


def test_pid_spec_well_typed():
    t = typed(PID_SPEC)
    assert t.templates["acc_error"].ty is ValueType.DOUBLE
    assert t.templates["error"].expr.ty is ValueType.DOUBLE
    assert [d.name for d in t.spec.inputs if d.is_time] == ["timestamp"]


def test_ill_typed_bool_plus_int():
    with pytest.raises(TypeCheckError):
        typed("output bool x := 1 + true")


def test_count_window_types_as_int_with_default():
    t = typed(CARS_SPEC)
    cmp = t.templates["suspicious"].expr  # (window ? 0) > 5
    default = cmp.left
    assert isinstance(default, Default)
    assert default.ty is ValueType.INT
    assert isinstance(default.inner, WindowAccess)
    assert default.inner.ty is ValueType.INT
    assert cmp.ty is ValueType.BOOL


def test_window_typing_rules():
    base = "input int n\ninput double d\ninput bool b\n"
    t = typed(base + "output int x := n[10s, sum]?0")
    assert t.templates["x"].expr.ty is ValueType.INT
    t = typed(base + "output double y := n[10s, integral, 0.0]")
    assert t.templates["y"].expr.inner.ty is ValueType.DOUBLE
    # bool streams admit only count
    with pytest.raises(TypeCheckError):
        typed(base + "output bool z := b[10s, max]?false")
    t = typed(base + "output int c := b[10s, count]")
    assert t.templates["c"].expr.ty is ValueType.INT
    # avg needs numbers
    with pytest.raises(TypeCheckError):
        typed(base + "output double w := b[10s, avg]?0.0")


def test_param_references_are_rewritten():
    t = typed(CARS_SPEC)
    ext = t.templates["offRoadPickUp"].extend
    assert isinstance(ext.left, ParamRef) and ext.left.ty is ValueType.INT


def test_unknown_name():
    with pytest.raises(TypeCheckError) as err:
        typed("output int x := nosuchthing + 1")
    assert "unknown name" in str(err.value)


def test_arity_errors():
    with pytest.raises(TypeCheckError) as err:
        typed(CARS_SPEC + "\noutput bool t := offRoadPickUp")
    assert "argument" in str(err.value)
    with pytest.raises(TypeCheckError):
        typed(CARS_SPEC + "\noutput bool t := offRoadPickUp(1, 2)")


def test_param_type_mismatch():
    with pytest.raises(TypeCheckError):
        typed(CARS_SPEC + "\noutput bool t := offRoadPickUp(true)")


def test_invoke_required_and_typed():
    with pytest.raises(TypeCheckError) as err:
        typed("input int i\noutput int x<int p>\n extend: p = i\n := 1")
    assert "invoke" in str(err.value)
    with pytest.raises(TypeCheckError):
        typed("input bool b\noutput int x<int p>\n invoke: b\n := 1")


def test_invoke_tuple_arity():
    src = (
        "input int i\ninput int j\n"
        "output int x<int p, int q>\n invoke: (i, j)\n extend: p = i & q = j\n := 1"
    )
    t = typed(src)
    assert len(t.templates["x"].params) == 2
    with pytest.raises(TypeCheckError):
        typed(
            "input int i\n"
            "output int x<int p, int q>\n invoke: (i)\n extend: p = i\n := 1"
        )


def test_extend_and_terminate_must_be_bool():
    with pytest.raises(TypeCheckError):
        typed("input int i\noutput int x\n extend: i + 1\n := 1")
    with pytest.raises(TypeCheckError):
        typed("input int i\noutput int x\n terminate: i\n := 1")


def test_future_offsets_rejected():
    from streammon.ast import (
        Const,
        DiscreteOffset,
        InputDecl,
        Specification,
        StreamAccess,
        StreamTemplate,
    )

    spec = Specification(
        inputs=[InputDecl("a", ValueType.INT)],
        outputs=[
            StreamTemplate(
                name="x",
                ty=ValueType.INT,
                expr=Default(
                    StreamAccess("a", [], DiscreteOffset(2)), Const(0)
                ),
            )
        ],
    )
    with pytest.raises(TypeCheckError) as err:
        check_types(spec)
    assert "future" in str(err.value)


def test_unprotected_past_offset_rejected():
    with pytest.raises(TypeCheckError) as err:
        typed("input int a\noutput int x := a[-1]")
    assert "default" in str(err.value)
    # offset 0 is fine bare
    typed("input int a\noutput int x := a")


def test_unprotected_avg_window_rejected():
    with pytest.raises(TypeCheckError):
        typed("input double a\noutput double x := a[10s, avg]")
    # count and sum have neutral elements, no default needed
    typed("input double a\noutput int x := a[10s, count]\noutput double y := a[10s, sum]")
    # a default anywhere above the window protects it
    typed("input double a\noutput double x := (1.0 + a[10s, avg])?0.0")


def test_windows_rejected_in_triggers():
    with pytest.raises(TypeCheckError) as err:
        typed("input double a\ntrigger a[10s, sum] > 5.0")
    assert "trigger" in str(err.value)


def test_trigger_condition_must_be_bool():
    with pytest.raises(TypeCheckError):
        typed("input int a\ntrigger a + 1")


def test_any_trigger_scope_resolution():
    t = typed(FLEET_SPEC)
    assert t.spec.triggers[0].scope == "suspicious"
    t = typed(PID_SPEC)
    assert t.spec.triggers[0].scope == "acc_error"
    with pytest.raises(TypeCheckError) as err:
        typed("input int a\ntrigger any(a > 0)")
    assert "output stream" in str(err.value)


def test_count_trigger_stream_must_be_output():
    with pytest.raises(TypeCheckError):
        typed("input int a\ntrigger count(a) > 2")


def test_int_widens_to_double():
    t = typed("input double d\noutput double x := d[10s, avg, 0] + 1")
    assert t.templates["x"].expr.ty is ValueType.DOUBLE
    # but declared int cannot hold a double expression
    with pytest.raises(TypeCheckError):
        typed("input double d\noutput int x := d + 1")


def test_checking_is_deterministic():
    a = typed(INTRO_SPEC)
    b = typed(INTRO_SPEC)
    assert a.spec == b.spec
    def wkeys(t):
        return [
            node.wkey
            for tpl in t.spec.outputs
            for _, e in template_expressions(tpl)
            for node in walk(e)
            if isinstance(node, WindowAccess)
        ]

    assert wkeys(a) == wkeys(b) != []
    # diagnostics are reproducible too
    def messages(src):
        try:
            typed(src)
        except TypeCheckError as err:
            return [d.message for d in err.diagnostics]
        return []

    bad = "output bool x := 1 + true\noutput int y := zz"
    assert messages(bad) == messages(bad) != []


# -- every diagnostic, pinned -----------------------------------------------------

_X = "input int i\noutput int x<int p>\n invoke: i\n := p\n"


def _patched(source, patch):
    """A spec the parser refuses, built by editing a parsed one in place."""

    def build():
        spec = parse(source)
        patch(spec)
        return spec

    return build


def _set(path, value):
    """A patch setting the attribute at the end of a dotted path, from the
    spec: 'outputs.0.expr.duration'."""

    def patch(spec):
        *head, last = path.split(".")
        node = spec
        for step in head:
            node = node[int(step)] if step.isdigit() else getattr(node, step)
        setattr(node, last, value)

    return patch


#: a spec, as source or as a builder, -> its diagnostics in order, each as
#: (message, line, column, length); line 0 is a declaration-level diagnostic
DIAGNOSTICS = {
    # names and declarations
    "dup-input": (
        _patched("input int a", lambda s: s.inputs.append(InputDecl("a", ValueType.INT))),
        [("duplicate declaration of 'a'", 0, 0, 1)],
    ),
    "dup-input-output": (
        _patched("input int a\noutput int x := 1", _set("outputs.0.name", "a")),
        [("duplicate declaration of 'a'", 0, 0, 1)],
    ),
    "dup-output": (
        _patched("output int x := 1\noutput int y := 2", _set("outputs.1.name", "x")),
        [("duplicate declaration of 'x'", 0, 0, 1)],
    ),
    "time-int": ("time input int t", [("time input 't' must have type double", 0, 0, 1)]),
    "two-times": (
        "time input double t\ntime input int u",
        [
            ("time input 'u' must have type double", 0, 0, 1),
            ("more than one time input declared", 0, 0, 1),
        ],
    ),
    # templates
    "dup-param": (
        "input int i\noutput int x<int p, int p>\n invoke: (i, i)\n extend: p = i\n := 1",
        [("output 'x': duplicate parameter 'p'", 0, 0, 1)],
    ),
    "clock-zero": (
        _patched("output bool x : 1Hz := true", _set("outputs.0.clock", Fraction(0))),
        [("output 'x': clock frequency must be positive", 0, 0, 1)],
    ),
    "no-invoke": (
        "input int i\noutput int x<int p>\n extend: p = i\n := 1",
        [("output 'x': parameterized stream needs an 'invoke' clause", 0, 0, 1)],
    ),
    "invoke-unparameterized": (
        "input int i\noutput int x\n invoke: i\n := 1",
        [("output 'x': 'invoke' is only valid on parameterized streams", 0, 0, 1)],
    ),
    "tuple-invoke-unparameterized": (
        "input int i\ninput int j\noutput int x\n invoke: (i, j)\n := 1",
        [
            ("output 'x': 'invoke' is only valid on parameterized streams", 0, 0, 1),
            ("output 'x': invoke produces 2 values for 0 parameters", 4, 10, 1),
        ],
    ),
    "extend-int": (
        "input int i\noutput int x\n extend: i + 1\n := 1",
        [("output 'x': 'extend' must have type bool, got int", 3, 12, 1)],
    ),
    "terminate-int": (
        _X.replace(" := p", " terminate: p\n := p"),
        [("output 'x': 'terminate' must have type bool, got int", 4, 13, 1)],
    ),
    "declared-type": (
        "input double d\noutput int x := d + 1",
        [("output 'x': declared type int but expression has type double", 2, 19, 1)],
    ),
    # invoke
    "invoke-parenthesized-one": (
        "input int i\noutput int x<int p, int q>\n invoke: (i)\n extend: p = i\n := 1",
        [("output 'x': invoke must be a tuple of 2 expressions", 3, 11, 1)],
    ),
    "invoke-one-for-two": (
        "input int i\noutput int x<int p, int q>\n invoke: i\n extend: p = i\n := 1",
        [("output 'x': invoke must be a tuple of 2 expressions", 3, 10, 1)],
    ),
    "invoke-three-for-two": (
        "input int i\noutput int x<int p, int q>\n invoke: (i, i, i)\n extend: p = i\n := 1",
        [("output 'x': invoke produces 3 values for 2 parameters", 3, 10, 1)],
    ),
    "invoke-component-type": (
        "input int i\ninput bool b\noutput int x<int p, int q>\n"
        " invoke: (i, b)\n extend: p = i\n := 1",
        [("output 'x': invoke component has type bool, parameter expects int", 4, 14, 1)],
    ),
    "invoke-type": (
        "input bool b\noutput int x<int p>\n invoke: b\n := 1",
        [("output 'x': invoke has type bool, parameter expects int", 3, 10, 1)],
    ),
    "invoke-unknown": (
        "input int i\noutput int x<int p>\n invoke: zz\n := p",
        [("output 'x': unknown name 'zz'", 3, 10, 2)],
    ),
    "tuple-invoke-unknown": (
        "input int i\noutput int x<int p>\n invoke: (zz, 1)\n := p",
        [
            ("output 'x': unknown name 'zz'", 3, 11, 2),
            ("output 'x': invoke produces 2 values for 1 parameters", 3, 10, 1),
        ],
    ),
    "tuple-invoke-untyped-component": (
        "input int i\noutput int x<int p, int q>\n invoke: (zz, true)\n extend: p = i\n := 1",
        [
            ("output 'x': unknown name 'zz'", 3, 11, 2),
            ("output 'x': invoke component has type bool, parameter expects int", 3, 15, 4),
        ],
    ),
    # triggers
    "count-input": (
        "input int a\ntrigger count(a) > 2",
        [("trigger: count() needs an output stream, 'a' is not one", 0, 0, 1)],
    ),
    "trigger-int": (
        "input int a\ntrigger a + 1",
        [("trigger condition must have type bool, got int", 2, 11, 1)],
    ),
    "trigger-window": (
        "input double a\ntrigger a[10s, sum] > 5.0",
        [
            (
                "windows are not allowed in trigger conditions; compute them in "
                "an output stream instead",
                2,
                9,
                1,
            )
        ],
    ),
    "trigger-offset": (
        "input int a\ntrigger a[-1]?0 > 0",
        [("trigger conditions read current values only; offsets are not allowed here", 2, 9, 1)],
    ),
    "trigger-bare-template": (
        _X + "trigger x > 0",
        [("trigger: 'x' expects 1 instance argument(s), got 0", 5, 9, 1)],
    ),
    "any-two-scopes": (
        _X + "output int y<int q>\n invoke: i\n := q\ntrigger any(x > y)",
        [
            (
                "any-trigger condition must quantify over exactly one template's "
                "instances, found: x, y",
                0,
                0,
                1,
            ),
            ("trigger: 'y' expects 1 instance argument(s), got 0", 8, 17, 1),
        ],
    ),
    "any-input-only": (
        "input int a\ntrigger any(a > 0)",
        [("any-trigger condition must reference an output stream", 0, 0, 1)],
    ),
    "any-bare-scope": (_X + "trigger any(x > 0)", []),
    "any-scope-parameter": (_X + "trigger any(x > p)", []),
    "any-scope-with-arguments": (_X + "trigger any(x(1) > 0)", []),
    "any-plain-and-parameterized": (
        _X + "output int y := 1\ntrigger any(y > 0 & x > 0)",
        [],
    ),
    "any-scope-argument-type": (
        _X + "trigger any(x(true) > 0)",
        [("trigger: instance argument for 'p' has type bool, expected int", 5, 15, 4)],
    ),
    # the window reads x, which makes x the scope: its faults come first
    "any-scope-window": (
        _X + "trigger any(x[1s, sum] > 0)",
        [
            ("trigger: 'x' expects 1 instance argument(s), got 0", 5, 13, 1),
            (
                "windows are not allowed in trigger conditions; compute them in "
                "an output stream instead",
                5,
                13,
                1,
            ),
        ],
    ),
    "any-unknown": (
        _X + "trigger any(x > 0 & zz)",
        [("trigger: unknown name 'zz'", 5, 21, 2)],
    ),
    # parameters and accesses
    "unknown-parameter": (
        _patched(_X, _set("outputs.0.expr", ParamRef("q"))),
        [("output 'x': unknown parameter 'q'", 0, 0, 1)],
    ),
    "parameter-offset": (
        _X.replace(":= p", ":= p[-1]?0"),
        [("output 'x': 'p' is a parameter; offsets apply to streams only", 4, 5, 1)],
    ),
    "parameter-real-time-offset": (
        _X.replace(":= p", ":= p[-1s]?0"),
        [("output 'x': 'p' is a parameter; offsets apply to streams only", 4, 5, 1)],
    ),
    "parameter-with-arguments": (
        _X.replace(":= p", ":= p(1)"),
        [("output 'x': unknown name 'p'", 4, 5, 1)],
    ),
    "parameter-window": (
        _X.replace(":= p", ":= p[1s, sum]"),
        [("output 'x': unknown name 'p'", 4, 5, 1)],
    ),
    "unknown-in-extend-and-value": (
        _X.replace(":= p", "extend: p = zz\n := q"),
        [
            ("output 'x': unknown name 'zz'", 4, 14, 2),
            ("output 'x': unknown name 'q'", 5, 5, 1),
        ],
    ),
    "future-offset": (
        _patched(
            "input int a\noutput int x := a[-2]?0",
            _set("outputs.0.expr.inner.offset", DiscreteOffset(2)),
        ),
        [
            (
                "output 'x': offset 2 refers to the future; only past references are "
                "allowed",
                2,
                17,
                1,
            )
        ],
    ),
    "real-time-offset-zero": (
        _patched(
            "input int a\noutput int x := a[-1s]?0",
            _set("outputs.0.expr.inner.offset", RealTimeOffset(Fraction(0))),
        ),
        [("output 'x': real-time offsets must lie strictly in the past", 2, 17, 1)],
    ),
    "unknown-name": (
        "output int x := nosuch + 1",
        [("output 'x': unknown name 'nosuch'", 1, 17, 6)],
    ),
    "input-with-arguments": (
        "input int a\noutput int x := a(zz)",
        [
            ("output 'x': unknown name 'zz'", 2, 19, 2),
            ("output 'x': 'a' expects 0 instance argument(s), got 1", 2, 17, 1),
        ],
    ),
    "template-bare": (
        _X + "output int y := x",
        [("output 'y': 'x' expects 1 instance argument(s), got 0", 5, 17, 1)],
    ),
    "template-argument-type": (
        _X + "output int y := x(true)",
        [("output 'y': instance argument for 'p' has type bool, expected int", 5, 19, 4)],
    ),
    # windows
    "window-duration-zero": (
        _patched(
            "input int a\noutput int x := a[1s, sum]",
            _set("outputs.0.expr.duration", Fraction(0)),
        ),
        [("output 'x': window duration must be positive", 2, 17, 1)],
    ),
    "window-unknown": (
        "output int x := nosuch[1s, sum]",
        [("output 'x': unknown name 'nosuch'", 1, 17, 6)],
    ),
    "window-input-with-arguments": (
        "input int a\noutput int x := a(1)[1s, sum]",
        [("output 'x': 'a' expects 0 instance argument(s), got 1", 2, 17, 1)],
    ),
    "window-template-bare": (
        _X + "output int y := x[1s, sum]",
        [("output 'y': 'x' expects 1 instance argument(s), got 0", 5, 17, 1)],
    ),
    "window-argument-type": (
        _X + "output int y := x(1.5)[1s, sum]",
        [("output 'y': instance argument for 'p' has type double, expected int", 5, 19, 3)],
    ),
    "window-bool-max": (
        "input bool b\noutput bool x := b[10s, max]?false",
        [("output 'x': bool stream 'b' admits only the 'count' aggregation, not 'max'", 2, 18, 1)],
    ),
    "window-bool-avg": (
        "input bool b\noutput double x := b[10s, avg]?0.0",
        [("output 'x': bool stream 'b' admits only the 'count' aggregation, not 'avg'", 2, 20, 1)],
    ),
    "window-bool-min-bare": (
        "input bool b\noutput bool x := b[10s, min]",
        [
            (
                "output 'x': bool stream 'b' admits only the 'count' aggregation, not 'min'",
                2,
                18,
                1,
            ),
            ("output 'x' (expr): 'min' window may be undefined; add a '?default'", 2, 18, 1),
        ],
    ),
    "window-bool-count": ("input bool b\noutput int x := b[1s, count]", []),
    # operators and functions
    "not-int": (
        "input bool b\noutput bool x := !1",
        [("output 'x': '!' needs bool, got int", 2, 18, 1)],
    ),
    "minus-bool": (
        "output int x := -true",
        [
            ("output 'x': '-' needs a number, got bool", 1, 17, 1),
            ("output 'x': declared type int but expression has type bool", 1, 17, 1),
        ],
    ),
    # an int literal past int64, which an int64 value never reaches
    "int-literal-range": (
        "input double a\noutput double x := a?0.0 + " + "1" * 400,
        [("output 'x': int literal outside the 64-bit range", 2, 28, 400)],
    ),
    "int-literal-min": ("output int x := -9223372036854775808", []),
    # the parser folds a minus into the literal through parentheses
    "int-literal-min-parenthesized": ("output int x := -(9223372036854775808)", []),
    # a folded negative literal spans from its minus to its end
    "int-literal-below-min": (
        "output int x := -9223372036854775809",
        [("output 'x': int literal outside the 64-bit range", 1, 17, 20)],
    ),
    "int-literal-below-min-parenthesized": (
        "output int x := -(9223372036854775809)",
        [("output 'x': int literal outside the 64-bit range", 1, 17, 22)],
    ),
    "if-int": (
        "output int x := if 1 then true else 2",
        [
            ("output 'x': condition must be bool, got int", 1, 20, 1),
            ("output 'x': branches mixes bool and int", 1, 17, 2),
        ],
    ),
    "tuple-value": (
        _patched(
            "input int i\noutput int x := 1",
            _set("outputs.0.expr", TupleExpr([Const(1), Const(2)])),
        ),
        [("output 'x': tuple expressions are only valid as the invoke clause", 0, 0, 1)],
    ),
    "and-int": ("output bool x := 1 & true", [("output 'x': '&' needs bool operands", 1, 20, 1)]),
    "or-int": ("output bool x := 1 | true", [("output 'x': '|' needs bool operands", 1, 20, 1)]),
    "compare-mixed": (
        "output bool x := (1 = true) & 2",
        [
            ("output 'x': cannot compare int with bool", 1, 21, 1),
            ("output 'x': '&' needs bool operands", 1, 29, 1),
        ],
    ),
    "ordering-bool": (
        "output bool x := true < 1",
        [("output 'x': ordering needs numbers, got bool and int", 1, 23, 1)],
    ),
    "plus-bool-chain": (
        "output int x := 1 + true + zz",
        [
            ("output 'x': '+' needs numeric operands, got int and bool", 1, 19, 1),
            ("output 'x': unknown name 'zz'", 1, 28, 2),
        ],
    ),
    "abs-bool": (
        "output int x := abs(true)",
        [("output 'x': 'abs' needs numeric arguments", 1, 17, 3)],
    ),
    "abs-two": ("output int x := abs(1, 2)", [("output 'x': 'abs' takes one argument", 1, 17, 3)]),
    "sqrt-two": (
        "output double x := sqrt(1, 2)",
        [("output 'x': 'sqrt' takes one argument", 1, 20, 4)],
    ),
    "min-one": (
        "output int x := min(1)",
        [("output 'x': 'min' takes at least two arguments", 1, 17, 3)],
    ),
    "max-unknown": (
        "output double x := max(1, 2.5, zz)",
        [("output 'x': unknown name 'zz'", 1, 32, 2)],
    ),
    "branches-mixed": (
        "output int x := if true then 1 else false",
        [("output 'x': branches mixes int and bool", 1, 17, 2)],
    ),
    "default-mixed": (
        "input int a\noutput int x := a ? true",
        [("output 'x': default value mixes int and bool", 2, 19, 1)],
    ),
    # default coverage
    "avg-bare": (
        "input double a\noutput double x := a[10s, avg]",
        [("output 'x' (expr): 'avg' window may be undefined; add a '?default'", 2, 20, 1)],
    ),
    "median-bare": (
        "input int a\noutput double x := a[10s, median]",
        [("output 'x' (expr): 'median' window may be undefined; add a '?default'", 2, 20, 1)],
    ),
    "past-offsets-bare": (
        "input int a\noutput int x := a[-1s] + a[-1]",
        [
            ("output 'x' (expr): past offset may be undefined; add a '?default'", 2, 17, 1),
            ("output 'x' (expr): past offset may be undefined; add a '?default'", 2, 26, 1),
        ],
    ),
    "past-offset-under-default": ("input int a\noutput int x := (a[-1] + 1)?0", []),
}


@pytest.mark.parametrize("name", list(DIAGNOSTICS))
def test_every_diagnostic_message_and_span(name):
    """Each rule of the checker reports its message at its node's span, in
    the order the checker visits the spec."""
    source, expected = DIAGNOSTICS[name]
    spec = parse(source) if isinstance(source, str) else source()
    try:
        check_types(spec)
        got = []
    except TypeCheckError as err:
        got = [(d.message, d.span.line, d.span.column, d.span.length) for d in err.diagnostics]
    assert got == expected
