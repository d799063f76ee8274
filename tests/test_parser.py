import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CARS_SPEC, INTRO_SPEC, PHI_SPEC, PID_SPEC, typed
from streammon import (
    Event,
    Monitor,
    ParseError,
    analyze,
    format_diagnostics,
    format_spec,
    parse,
    parse_frequency,
)
from streammon.ast import (
    AggFn,
    Binary,
    Const,
    Default,
    DiscreteOffset,
    RealTimeOffset,
    StreamAccess,
    TriggerKind,
    TupleExpr,
    WindowAccess,
)
from streammon.parser import MAX_DEPTH, _expr_str, _Parser
from fractions import Fraction


def test_intro_spec_shape():
    spec = parse(INTRO_SPEC)
    assert [d.name for d in spec.inputs] == ["sensor", "reference", "timestamp"]
    assert [t.name for t in spec.outputs] == ["error", "acc_error"]
    assert len(spec.triggers) == 1
    assert spec.triggers[0].kind is TriggerKind.PLAIN


def test_empty_source_is_empty_spec():
    spec = parse("")
    assert spec.inputs == [] and spec.outputs == [] and spec.triggers == []
    assert parse("   \n # nothing here\n").inputs == []


def test_cars_spec_details():
    spec = parse(CARS_SPEC)
    orp = spec.output("offRoadPickUp")
    assert [(p.ty.value, p.name) for p in orp.params] == [("int", "cid")]
    assert orp.clock == Fraction(1, 10)
    assert isinstance(orp.invoke, StreamAccess) and orp.invoke.stream == "CID"
    assert isinstance(orp.extend, Binary) and orp.extend.op == "="
    susp = spec.output("suspicious")
    window = susp.expr.left.inner  # (window ? 0) > 5
    assert isinstance(window, WindowAccess)
    assert window.duration == Fraction(8 * 3600)
    assert window.agg is AggFn.COUNT


@pytest.mark.parametrize(
    "snippet",
    [
        "sensor[2sec, 0, avg]",
        "sensor[2sec,avg,0]",
        "sensor[2000ms, avg]?0",
        "sensor[2sec, avg, 0.0]",
    ],
)
def test_window_spellings_normalize(snippet):
    spec = parse(f"input double sensor\noutput double x := {snippet}")
    expr = spec.outputs[0].expr
    if isinstance(expr, Default):
        window = expr.inner
    else:
        window = expr
    assert isinstance(window, WindowAccess)
    assert window.duration == 2
    assert window.agg is AggFn.AVG


def test_window_aggregation_argument_moves_to_stream():
    spec = parse(
        "input int CID\n"
        "output int suspicious<int cid>\n"
        "  invoke: CID\n"
        "  extend: CID = cid\n"
        "  := offRoadPickup[8h, count(cid), 0]\n"
        "input bool offRoadPickup"
    )
    expr = spec.output("suspicious").expr
    assert isinstance(expr, Default)
    window = expr.inner
    assert window.stream == "offRoadPickup"
    assert len(window.args) == 1 and window.args[0].stream == "cid"


def test_offset_forms():
    spec = parse(
        "input double b\n"
        "output double x := b[-1, 0]\n"
        "output double y := b[-1sec, 0]\n"
        "output double z := b[-500ms]?1.5"
    )
    x, y, z = (t.expr for t in spec.outputs)
    assert x.inner.offset == DiscreteOffset(-1)
    assert y.inner.offset == RealTimeOffset(Fraction(-1))
    assert z.inner.offset == RealTimeOffset(Fraction(-1, 2))
    assert isinstance(z.fallback, Const) and z.fallback.value == 1.5


def test_duration_units_exact():
    spec = parse("input int c\noutput int x := c[8h, count]")
    assert spec.outputs[0].expr.duration == 28800
    spec = parse("input int c\noutput int x := c[90min, count]")
    assert spec.outputs[0].expr.duration == 5400


def test_trigger_forms():
    spec = parse(
        "input int CID\n"
        "output bool s<int cid>\n invoke: CID\n extend: cid = CID\n := true\n"
        'trigger any(s) "watch out"\n'
        "trigger count(s) > 2\n"
        "trigger 1 < 2\n"
    )
    any_t, count_t, plain_t = spec.triggers
    assert any_t.kind is TriggerKind.ANY and any_t.message == "watch out"
    assert count_t.kind is TriggerKind.COUNT
    assert (count_t.count_stream, count_t.count_cmp, count_t.count_value) == (
        "s",
        ">",
        2,
    )
    assert plain_t.kind is TriggerKind.PLAIN


def _ladder(depth: int) -> str:
    """An expression whose tree nests `depth` levels by cycling a unary
    minus, a product and a sum: `a + a * -(a + a * -a)` nests 6."""
    text = "a"
    for k in range(depth):
        if k % 3 == 0:
            text = f"-{text}" if text == "a" or text[0] == "-" else f"-({text})"
        else:
            text = f"a {'*+'[k % 3 - 1]} {text}"
    return text


def test_operator_precedence():
    spec = parse("input int a\ninput int b\noutput bool x := a + 2 * b < 7 & !(a = b) | true")
    expr = spec.outputs[0].expr
    assert expr.op == "|"
    assert expr.left.op == "&"
    cmp = expr.left.left
    assert cmp.op == "<"
    assert cmp.left.op == "+" and cmp.left.right.op == "*"


@pytest.mark.parametrize(
    "invoke, shape, alphas",
    [
        ("(CID) + 1", "CID + 1", [(4,), (8,)]),
        ("(CID)", "CID", [(3,), (7,)]),
        ("((CID)) * 2 - (1)", "CID * 2 - 1", [(5,), (13,)]),
        ("(CID)?0 + 1", "CID?0 + 1", [(4,), (8,)]),
        ("(CID, CID + 1)", "(CID, CID + 1)", [(3, 4), (7, 8)]),
    ],
)
def test_invoke_clause_goes_on_after_a_parenthesized_item(invoke, shape, alphas):
    """An invoke clause that starts with one parenthesized item is an
    expression that may go on after the ')'; a parenthesized list of more
    items stays a tuple of parameters."""
    arity = len(alphas[0])
    params = ", ".join(f"int p{k}" for k in range(arity))
    text = f"input int CID\noutput int s<{params}>\n  invoke: {invoke}\n  := CID?0\n"
    tpl = parse(text).outputs[0]
    assert isinstance(tpl.invoke, TupleExpr) == (arity == 2)
    assert _expr_str(tpl.invoke) == shape
    monitor = Monitor(typed(text), allow_unbounded=True)
    for cid in (3, 7):
        monitor.process(Event(float(cid), {"CID": cid}))
    assert sorted(monitor.streams["s"].instances) == alphas


@pytest.mark.parametrize("second", ["<", "=", ">="])
def test_comparisons_do_not_chain(second):
    """A second comparison is reported at its operator, also after an
    arithmetic operand and inside a clause."""
    for source in (
        f"input int a\noutput bool x := a < a {second} a",
        f"input int a\noutput bool x := a = a + 1 {second} a",
        f"input int a\noutput bool x<int k>\n  invoke: a\n  extend: k = a {second} a\n"
        "  := true",
    ):
        with pytest.raises(ParseError) as err:
            parse(source)
        (diag,) = err.value.diagnostics
        assert diag.message == "comparisons do not chain; join them with '&'"
        line = source.split("\n")[diag.span.line - 1]
        assert line[diag.span.column - 1 :].startswith(second), source


#: each nesting form at depth d, over `input double a` and `input bool p`,
#: and its value where a = 3.0 and p holds; `operators` nests the tree by
#: precedence, not the source
NESTINGS = {
    "parentheses": (lambda d: "a - (" * d + "a" + ")" * d, lambda d: 3.0 * (d % 2 == 0)),
    "unary": (lambda d: "-" * d + "a", lambda d: 3.0 * (-1) ** d),
    "fallback": (lambda d: "a?" * d + "a", lambda d: 3.0),
    "if": (lambda d: "if p then " * d + "a" + " else a" * d, lambda d: 3.0),
    "call": (lambda d: "abs(" * d + "a" + ")" * d, lambda d: 3.0),
    "window": (lambda d: "a[1s, sum, " * d + "a" + "]" * d, lambda d: 3.0),
    "operators": (_ladder, lambda d: eval(_ladder(d), {"a": 3.0})),
}


@pytest.mark.parametrize("form", sorted(NESTINGS))
def test_every_depth_up_to_the_limit_runs(form):
    """Every depth of each nesting form up to MAX_DEPTH parses, checks,
    analyzes and runs in variable mode, and at the limit in fixed mode; one
    level more is a ParseError at line and column."""
    text, value = NESTINGS[form]
    for depth in range(MAX_DEPTH + 1):
        tspec = typed(f"input double a\ninput bool p\noutput double x := {text(depth)}")
        analyze(tspec)
        fixed = {"mode": "fixed", "frequency": Fraction(1)}
        for kwargs in [{}, fixed] if depth == MAX_DEPTH else [{}]:
            m = Monitor(tspec, **kwargs)
            for ts in (0.5, 1.5):  # fixed mode ticks at 1 s
                m.process(Event(ts, {"a": 3.0, "p": True}))
            assert m.streams["x"].instances[()].buf[-1][1] == value(depth), depth
    with pytest.raises(ParseError) as err:
        parse(f"input double a\ninput bool p\noutput double x := {text(MAX_DEPTH + 1)}")
    (diag,) = err.value.diagnostics
    assert diag.message == f"expression nested more than {MAX_DEPTH} levels deep"
    assert diag.span.line == 3 and diag.span.column > 20


def test_missing_definition_token():
    with pytest.raises(ParseError) as err:
        parse("output double x")
    text = format_diagnostics(err.value.diagnostics)
    assert "':='" in text


def test_unknown_duration_unit():
    with pytest.raises(ParseError) as err:
        parse("input int c\noutput int x := c[5days, count]")
    assert "unknown duration unit" in str(err.value)
    assert "5days" in str(err.value)


def test_unclosed_parameter_list_span():
    source = "output bool x<int cid := true"
    with pytest.raises(ParseError) as err:
        parse(source)
    diag = err.value.diagnostics[0]
    # hand-computed: the ':=' that appears where '>' was expected starts at
    # column 23 of line 1 (0-based index 22)
    assert source[22:24] == ":="
    assert (diag.span.line, diag.span.column) == (1, 23)


@pytest.mark.parametrize(
    "definition",
    ["a[1e10000000s, sum]", "a[-1" + "0" * 4300 + ", 0.0]"],
    ids=["duration", "offset"],
)
def test_a_refused_number_literal_is_its_only_diagnostic(definition):
    """The lexer keeps a number too long to write out as a token of its
    kind, so the parser reports nothing about the tokens after it."""
    with pytest.raises(ParseError) as err:
        parse(f"input double a\noutput double x := {definition}")
    assert [d.message for d in err.value.diagnostics] == [_LONG]


def test_duplicate_declaration_reported():
    with pytest.raises(ParseError) as err:
        parse("input int x\ninput double x")
    assert "duplicate declaration" in str(err.value)


def test_reserved_function_names_rejected():
    with pytest.raises(ParseError) as err:
        parse("input int avg")
    assert "reserved" in str(err.value)


def test_diagnostics_have_excerpt_and_caret():
    try:
        parse("input int c\noutput int x := c[5days, count]")
    except ParseError as err:
        rendered = format_diagnostics(err.value if False else err.diagnostics)
    assert "output int x" in rendered
    assert "^" in rendered


def test_error_recovery_reports_multiple():
    with pytest.raises(ParseError) as err:
        parse("output double x\noutput double y\ninput int ok")
    assert len(err.value.diagnostics) >= 2


@pytest.mark.parametrize("src", [INTRO_SPEC, PID_SPEC, PHI_SPEC, CARS_SPEC])
def test_round_trip_corpus(src):
    spec = parse(src)
    printed = format_spec(spec)
    assert parse(printed) == spec
    # and printing is a fixed point
    assert format_spec(parse(printed)) == printed


# -- generated expression round-trips --------------------------------------

_names = st.sampled_from(["a", "b", "c"])


def _exprs():
    leaves = st.one_of(
        st.integers(-100, 100).map(lambda v: f"{v}"),
        st.sampled_from(["true", "false", "a", "b", "c", "1.5", "0.25"]),
    )

    def compose(children):
        binop = st.tuples(
            children, st.sampled_from(["+", "-", "*", "&", "|", "<", "="]), children
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        unary = children.map(lambda e: f"(!{e})")
        offset = st.tuples(_names, st.integers(1, 3), children).map(
            lambda t: f"{t[0]}[-{t[1]}, {t[2]}]"
        )
        window = st.tuples(
            _names,
            st.sampled_from(["2s", "500ms", "1min"]),
            st.sampled_from(["count", "sum", "avg", "min", "max"]),
            children,
        ).map(lambda t: f"{t[0]}[{t[1]}, {t[2]}, {t[3]}]")
        ite = st.tuples(children, children, children).map(
            lambda t: f"(if {t[0]} then {t[1]} else {t[2]})"
        )
        default = st.tuples(children, children).map(lambda t: f"({t[0]})?({t[1]})")
        return st.one_of(binop, unary, offset, window, ite, default)

    return st.recursive(leaves, compose, max_leaves=12)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_round_trip_generated_expressions(expr_text):
    src = (
        "input double a\ninput double b\ninput double c\n"
        f"output double x := 0.0 + 0.0 * (1.0?({expr_text}?0.0))"
    )
    try:
        spec = parse(src)
    except ParseError:
        return  # some generated combinations are legitimately rejected
    printed = format_spec(spec)
    assert parse(printed) == spec


@given(st.text(max_size=80))
@settings(max_examples=500, deadline=None)
def test_parser_is_total_over_text(junk):
    try:
        parse(junk)
    except ParseError:
        pass


@given(
    st.text(
        alphabet=string.ascii_letters + string.digits + "[](){}<>,.?:=!&|+-*/%\"'# \n\t",
        max_size=120,
    )
)
@settings(max_examples=500, deadline=None)
def test_parser_is_total_over_token_soup(junk):
    try:
        parse(junk)
    except ParseError:
        pass


_LONG = "number literal takes more than 4300 digits written out"
#: source -> its tokens as (kind, value, line, col, length), and its
#: diagnostics as (message, line, col, excerpt)
TOKENS = {
    "2sec": ([("NUMUNIT", (Fraction(2), "sec"), 1, 1, 4), ("EOF", None, 1, 5, 1)], []),
    "1e3s": ([("NUMUNIT", (Fraction(1000), "s"), 1, 1, 4), ("EOF", None, 1, 5, 1)], []),
    "1e400Hz": (
        [("NUMUNIT", (Fraction(10**400), "Hz"), 1, 1, 7), ("EOF", None, 1, 8, 1)],
        [],
    ),
    "2e+x": (
        [("NUMUNIT", (Fraction(2), "e"), 1, 1, 2), ("OP", "+", 1, 3, 1)]
        + [("IDENT", "x", 1, 4, 1), ("EOF", None, 1, 5, 1)],
        [],
    ),
    ".5": ([("FLOAT", 0.5, 1, 1, 2), ("EOF", None, 1, 3, 1)], []),
    "5.": (
        [("INT", 5, 1, 1, 1), ("EOF", None, 1, 3, 1)],
        [("unexpected character '.'", 1, 2, "5.")],
    ),
    "==": ([("OP", "=", 1, 1, 2), ("EOF", None, 1, 3, 1)], []),
    "é": ([("IDENT", "é", 1, 1, 1), ("EOF", None, 1, 2, 1)], []),
    "²x": (
        [("IDENT", "x", 1, 2, 1), ("EOF", None, 1, 3, 1)],
        [("unexpected character '²'", 1, 1, "²x")],
    ),
    "1²": (
        [("INT", 1, 1, 1, 1), ("EOF", None, 1, 3, 1)],
        [("unexpected character '²'", 1, 2, "1²")],
    ),
    "٣": ([("EOF", None, 1, 2, 1)], [("unexpected character '٣'", 1, 1, "٣")]),
    '"a\\"b"': ([("STRING", 'a"b', 1, 1, 6), ("EOF", None, 1, 7, 1)], []),
    '"ab\nx': (
        [("IDENT", "x", 2, 1, 1), ("EOF", None, 2, 2, 1)],
        [("unterminated string literal", 1, 1, '"ab')],
    ),
    '"a\\': ([("EOF", None, 1, 4, 1)], [("unterminated string literal", 1, 1, '"a\\')]),
    '"a\\\nb" x': (
        [("STRING", "a\nb", 1, 1, 2), ("IDENT", "x", 2, 4, 1), ("EOF", None, 2, 5, 1)],
        [],
    ),
    "a\r\nb": (
        [("IDENT", "a", 1, 1, 1), ("IDENT", "b", 2, 1, 1), ("EOF", None, 2, 2, 1)],
        [],
    ),
    "\tx\t:= # c\n\ty": (
        [("IDENT", "x", 1, 2, 1), ("OP", ":=", 1, 4, 2)]
        + [("IDENT", "y", 2, 2, 1), ("EOF", None, 2, 3, 1)],
        [],
    ),
    # an exact number takes at most MAX_DIGITS (4300) digits written out
    "1" * 4300: ([("INT", int("1" * 4300), 1, 1, 4300), ("EOF", None, 1, 4301, 1)], []),
    # a refused number stays a token of its kind, with the placeholder value 1
    "1" * 4301: (
        [("INT", 1, 1, 1, 4301), ("EOF", None, 1, 4302, 1)],
        [(_LONG, 1, 1, "1" * 4301)],
    ),
    "1e4299s": (
        [("NUMUNIT", (Fraction(10**4299), "s"), 1, 1, 7), ("EOF", None, 1, 8, 1)],
        [],
    ),
    "1e4300s x": (
        [("NUMUNIT", (Fraction(1), "s"), 1, 1, 7)]
        + [("IDENT", "x", 1, 9, 1), ("EOF", None, 1, 10, 1)],
        [(_LONG, 1, 1, "1e4300s x")],
    ),
    ".5e-4299s": (
        [("NUMUNIT", (Fraction(1), "s"), 1, 1, 9), ("EOF", None, 1, 10, 1)],
        [(_LONG, 1, 1, ".5e-4299s")],
    ),
    "a[1e10000000s": (
        [("IDENT", "a", 1, 1, 1), ("OP", "[", 1, 2, 1)]
        + [("NUMUNIT", (Fraction(1), "s"), 1, 3, 11), ("EOF", None, 1, 14, 1)],
        [(_LONG, 1, 3, "a[1e10000000s")],
    ),
    "1e" + "9" * 20 + "Hz": (
        [("NUMUNIT", (Fraction(1), "Hz"), 1, 1, 24), ("EOF", None, 1, 25, 1)],
        [(_LONG, 1, 1, "1e" + "9" * 20 + "Hz")],
    ),
    # a float may be inf
    "1e10000000": ([("FLOAT", math.inf, 1, 1, 10), ("EOF", None, 1, 11, 1)], []),
}


@pytest.mark.parametrize("source", list(TOKENS))
def test_tokens_and_lexer_diagnostics(source):
    """Names start with a letter or `_`, numbers are ASCII digits with an
    exponent only where digits follow it, a string ends at its quote, at an
    unescaped newline or at the end, and columns count characters."""
    parser = _Parser(source)
    tokens = [(t.kind, t.value, t.line, t.col, t.length) for t in parser.tokens]
    diagnostics = [
        (d.message, d.span.line, d.span.column, d.line_text) for d in parser.diagnostics
    ]
    assert (tokens, diagnostics) == TOKENS[source]
    assert [type(t[1]) for t in tokens] == [type(t[1]) for t in TOKENS[source][0]]


@pytest.mark.parametrize(
    "literal", ["a[1e-4299s, sum]", "a[1.5e-4298s, sum]", "a[1e4299s, sum]", "a[1e4298ms, sum]"]
)
def test_longest_exact_literals_print_and_read_back(literal):
    """A duration or a clock whose value takes 4300 digits written out is
    printed in full, and that reads back."""
    spec = parse(f"input double a\noutput double x : 1e4299Hz := {literal}")
    printed = format_spec(spec)
    assert max(map(len, printed.split())) > 4300
    assert parse(printed) == spec


@pytest.mark.parametrize(
    "text, message",
    [("1Hz$", "unexpected character '$'"), ("1e10000000Hz", _LONG), ("2.5Hz", None)],
)
def test_parse_frequency_reports_what_the_lexer_refuses(text, message):
    if message is None:
        assert parse_frequency(text) == Fraction(5, 2)
        return
    with pytest.raises(ParseError) as err:
        parse_frequency(text)
    assert [d.message for d in err.value.diagnostics] == [message]


def test_caret_stands_under_the_character_after_tabs():
    with pytest.raises(ParseError) as err:
        parse("input double a\ninput double b\n\toutput double x := a + b$")
    _, excerpt, caret = format_diagnostics(err.value.diagnostics).split("\n")
    assert excerpt.expandtabs()[caret.expandtabs().index("^")] == "$"


_CONSTANTS = st.one_of(
    st.sampled_from(["1e400", "-1e400", "-0.0", ".5", "0", "-3"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_FORMS = ["{c}", "({c})?1.0", "a?{c}", "{c} * a", "if p then {c} else a"]


@given(
    st.lists(st.tuples(_CONSTANTS, st.sampled_from(_FORMS)), min_size=1, max_size=3),
    st.text(st.sampled_from('ab \n\t"\\#é字') | st.characters(), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_printed_constants_and_messages_read_back(definitions, message):
    """The printer spells infinite constants, negative zero and trigger
    messages with newlines, tabs, quotes and backslashes so that they read
    back as they were."""
    source = "input double a\ninput bool p\n" + "".join(
        f"output double x{k} := {form.format(c=c)}\n"
        for k, (c, form) in enumerate(definitions)
    )
    spec = parse(source + "trigger p")
    spec.triggers[0].message = message
    printed = format_spec(spec)
    assert parse(printed) == spec
    assert format_spec(parse(printed)) == printed
