"""The engine's compiled expressions against the reference monitor.

Hypothesis generates output expressions in the shape of
`test_parser._exprs`, widened to what compilation has to get right:
arithmetic including int `/` and `%` by zero, `&` and `|` over undefined
operands, `!` and unary minus, discrete and real-time offsets, windows,
`if`, `?` defaults and the `min`/`max` functions. Each expression that type-checks is
monitored in variable and in fixed mode on a random trace, and every value
the engine produces must equal the reference monitor's (`tests/oracle.py`).

The trace keeps both sides exact. Timestamps are multiples of 1/4 s and
windows last 500 ms, 1 s or 2 s, so every evaluation instant is
pane-aligned and the engine's panes cover exactly the reference's
(ts - r, ts]; real-time offsets of 250 ms to 1.5 s put cutoffs on event
instants as well as between them. Double inputs are small multiples of 1/2, so window sums are
exact in any association order.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import RefMonitor
from streammon import Event, Monitor, TypeCheckError, check_types, parse

INPUTS = "input double a\ninput double b\ninput int i\ninput int j\ninput bool p\n"

#: the type of each generated output; `x` and `z` drive the triggers
OUTPUTS = {"x": "double", "y": "int", "z": "bool"}
STREAMS = {"double": "ab", "int": "ij", "bool": "p"}
LEAVES = {
    "double": ["a", "b", "0.0", "0.25", "1.5"],
    "int": ["i", "j", "0", "1", "2", "-3"],
    "bool": ["p", "true", "false"],
}


@st.composite
def _expr(draw, ty, depth=4):
    """An expression of type `ty`: 'double', 'int' or 'bool'."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(LEAVES[ty]))

    def sub(t):
        return draw(_expr(t, depth - 1))

    num = "bool" != ty
    forms = ["if", "default", "offset", "delay"]
    forms += ["arith", "neg", "window", "call"] if num else ["compare", "logic", "not"]
    form = draw(st.sampled_from(forms))
    if form == "if":
        return f"(if {sub('bool')} then {sub(ty)} else {sub(ty)})"
    if form == "default":
        return f"({sub(ty)})?({sub(ty)})"
    if form == "offset":
        stream = draw(st.sampled_from(STREAMS[ty]))
        return f"{stream}[-{draw(st.integers(1, 3))}, {sub(ty)}]"
    if form == "delay":
        stream = draw(st.sampled_from(STREAMS[ty]))
        delay = draw(st.sampled_from(["250ms", "500ms", "1s", "1.5s"]))
        return f"{stream}[-{delay}, {sub(ty)}]"
    if form in ("arith", "call"):
        # an int operand in a double expression exercises the promotion
        other = draw(st.sampled_from(["double", "int"])) if ty == "double" else ty
        left, right = draw(st.permutations([sub(ty), sub(other)]))
        if form == "call":
            return f"{draw(st.sampled_from(['min', 'max']))}({left}, {right})"
        return f"({left} {draw(st.sampled_from(['+', '-', '*', '/', '%']))} {right})"
    if form == "neg":
        return f"(-{sub(ty)})"
    if form == "window":
        duration = draw(st.sampled_from(["500ms", "1s", "2s"]))
        if ty == "int" and draw(st.booleans()):
            stream, agg = draw(st.sampled_from("abijp")), "count"
        else:
            stream = draw(st.sampled_from(STREAMS[ty]))
            agg = draw(st.sampled_from(["sum", "avg", "min", "max"]))
        return f"{stream}[{duration}, {agg}, {sub(ty)}]"
    if form == "compare":
        t = draw(st.sampled_from(["double", "int"]))
        op = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
        return f"({sub(t)} {op} {sub(t)})"
    if form == "logic":
        return f"({sub('bool')} {draw(st.sampled_from(['&', '|']))} {sub('bool')})"
    return f"(!{sub('bool')})"


def _spec(exprs):
    """The specification with one output per generated expression, or None
    when it does not type-check."""
    src = INPUTS
    for name, text in exprs.items():
        src += f"output {OUTPUTS[name]} {name} := {text}\n"
    src += "trigger z\ntrigger x > 1.0\n"
    try:
        return check_types(parse(src))
    except TypeCheckError:
        return None


def _trace(seed):
    """40 events binding one to three inputs each, so that accesses stay
    undefined for a while; zeros are frequent, so that divisions by zero
    and NaN (0.0 / 0.0) occur."""
    rng = random.Random(seed)
    events, ts = [], 0.0
    for _ in range(40):
        ts += rng.randint(1, 8) / 4
        bindings = {}
        for name in rng.sample("abijp", rng.randint(1, 3)):
            if name in "ab":
                bindings[name] = rng.randint(-2, 3) / 2
            elif name in "ij":
                bindings[name] = rng.randint(-2, 2)
            else:
                bindings[name] = rng.random() < 0.5
        events.append(Event(ts, bindings))
    return events


def _same(u, v):
    if u != u and v != v:  # both NaN
        return True
    return u == v and type(u) is type(v)


def _check(tspec, events, **mode):
    # a real-time offset into an input needs unbounded memory
    engine = Monitor(tspec, allow_unbounded=True, **mode)
    ref = RefMonitor(tspec, **mode)
    got = []
    for ev in events:
        got += engine.process(ev)
        ref.run([ev])
        for name in OUTPUTS:
            inst, history = engine.streams[name].instances[()], ref.live[name][()].history
            assert inst.ext_count == len(history), (name, ev)
            if history:
                (t, u), (s, v) = inst.buf[-1], history[-1]
                assert t == s and _same(u, v), (name, ev, u, v)
    mine = [
        (v.kind, v.ts, v.stream, v.params, v.value) for v in got if v.kind != "warning"
    ]
    assert len(mine) == len(ref.verdicts)
    for m, r in zip(mine, ref.verdicts):
        assert m[:4] == r[:4] and _same(m[4], r[4]), (m, r)


@given(st.fixed_dictionaries({name: _expr(ty) for name, ty in OUTPUTS.items()}), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_compiled_expressions_match_reference(exprs, seed):
    tspec = _spec(exprs)
    if tspec is None:
        return  # ill-typed; the type checker's business
    events = _trace(seed)
    _check(tspec, events)
    _check(tspec, events, mode="fixed", frequency=Fraction(1))
