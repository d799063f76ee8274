"""The engine's compiled expressions against the reference monitor.

Hypothesis generates output expressions in the shape of
`test_parser._exprs`, widened to what compilation has to get right:
arithmetic including int `/` and `%` by zero, `&` and `|` over undefined
operands, `!` and unary minus, discrete and real-time offsets, windows of
all seven aggregations, `if`, `?` defaults and the `min`/`max` functions. Each expression that type-checks is
monitored in variable and in fixed mode on a random trace, and every value
the engine produces must equal the reference monitor's (`tests/oracle.py`).

Later outputs may read earlier ones (`y` reads `x`, `z` reads `x` and `y`),
so a variable-rate step's schedule must gate a template on another
template that may or may not extend, or may be undefined, in that step;
they are declared in a drawn order, which a step must not depend on. A
second property lets earlier outputs read later ones through past offsets
(`x` reads `y` and `z`, `y` reads `z`), which the evaluation order must put
first. A third monitors a parameterized family whose invoke, extend and
terminate conditions bind its parameter to inputs, or bind none so that a
step scans, under the same random binding subsets, and compares every
instance. A fourth invokes a family of two parameters by a tuple of two
inputs, which one event may both bind: the step must invoke one instance
for it, with both values.

The trace keeps both sides exact. Timestamps are multiples of 1/4 s and
windows last 500 ms, 1 s or 2 s, so every evaluation instant is
pane-aligned and the engine's panes cover exactly the reference's
(ts - r, ts]; real-time offsets of 250 ms to 1.5 s put cutoffs on event
instants as well as between them. Double inputs are small multiples of 1/2, so window sums are
exact in any association order, and so are integrals over inputs, whose
trapezoids are multiples of 1/16. A median sorts the same retained values
on both sides.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import RefMonitor
from test_stream_bounds import _retained, held
from streammon import Event, Monitor, TypeCheckError, check_types, parse
from streammon.engine import Instance

INPUTS = "input double a\ninput double b\ninput int i\ninput int j\ninput bool p\n"

#: the type of each generated output; `x` and `z` drive the triggers
OUTPUTS = {"x": "double", "y": "int", "z": "bool"}
#: the earlier outputs each output may read
READS = {"x": "", "y": "x", "z": "xy"}
STREAMS = {"double": "ab", "int": "ij", "bool": "p"}
LEAVES = {
    "double": ["a", "b", "0.0", "0.25", "1.5"],
    "int": ["i", "j", "0", "1", "2", "-3"],
    "bool": ["p", "true", "false"],
}


#: window durations r: 64 s / r is an integer, so that a window split into
#: 256 panes is pane-aligned at every event instant (a multiple of 1/4 s),
#: and r is at most 1 s or a multiple of it, so that a 1 Hz tick is too
DURATIONS = ["500ms", "1s", "2s"]


@st.composite
def _expr(draw, ty, depth=4, reads="", later="", leaves=LEAVES, durations=DURATIONS):
    """An expression of type `ty`: 'double', 'int' or 'bool', over the inputs,
    the outputs named in `reads`, the outputs named in `later` through past
    offsets only, and `leaves`, whose windows last one of `durations`."""
    mine = "".join(o for o in reads if OUTPUTS[o] == ty)
    ahead = "".join(o for o in later if OUTPUTS[o] == ty)
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(leaves[ty] + list(mine)))

    def sub(t):
        return draw(_expr(t, depth - 1, reads, later, leaves, durations))

    num = "bool" != ty
    forms = ["if", "default", "offset", "delay", "chain"]
    forms += ["arith", "neg", "window", "call"] if num else ["compare", "logic", "not"]
    form = draw(st.sampled_from(forms))
    if form == "if":
        return f"(if {sub('bool')} then {sub(ty)} else {sub(ty)})"
    if form == "default":
        return f"({sub(ty)})?({sub(ty)})"
    if form == "offset":
        stream = draw(st.sampled_from(STREAMS[ty] + mine + ahead))
        return f"{stream}[-{draw(st.integers(1, 3))}, {sub(ty)}]"
    if form == "delay":
        stream = draw(st.sampled_from(STREAMS[ty] + mine + ahead))
        delay = draw(st.sampled_from(["250ms", "500ms", "1s", "1.5s"]))
        return f"{stream}[-{delay}, {sub(ty)}]"
    # an int operand in a double expression exercises the promotion
    other = ["double", "int"] if ty == "double" else [ty]
    if form == "chain":
        # a left-deep run of 2 to 6 operators of one level, unparenthesized,
        # over shallower operands
        ops = draw(st.sampled_from(["+-", "*/%"] if num else ["&", "|"]))
        types = [ty] + draw(st.lists(st.sampled_from(other), min_size=2, max_size=6))
        items = [
            draw(_expr(t, max(depth - 2, 0), reads, later, leaves, durations))
            for t in types
        ]
        items = draw(st.permutations(items))
        return "(" + items[0] + "".join(
            f" {draw(st.sampled_from(ops))} {item}" for item in items[1:]
        ) + ")"
    if form in ("arith", "call"):
        left, right = draw(st.permutations([sub(ty), sub(draw(st.sampled_from(other)))]))
        if form == "call":
            return f"{draw(st.sampled_from(['min', 'max']))}({left}, {right})"
        return f"({left} {draw(st.sampled_from(['+', '-', '*', '/', '%']))} {right})"
    if form == "neg":
        return f"(-{sub(ty)})"
    if form == "window":
        duration = draw(st.sampled_from(durations))
        if ty == "int" and draw(st.booleans()):
            stream, agg = draw(st.sampled_from("abijp" + reads)), "count"
        else:
            aggs = ["sum", "avg", "min", "max", "median"]
            agg = draw(st.sampled_from(aggs + ["integral"] * (ty == "double")))
            # an integral's trapezoids are exact over the inputs only
            streams = "abij" if agg == "integral" else STREAMS[ty] + mine
            stream = draw(st.sampled_from(streams))
        return f"{stream}[{duration}, {agg}, {sub(ty)}]"
    if form == "compare":
        t = draw(st.sampled_from(["double", "int"]))
        op = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
        return f"({sub(t)} {op} {sub(t)})"
    if form == "logic":
        return f"({sub('bool')} {draw(st.sampled_from(['&', '|']))} {sub('bool')})"
    return f"(!{sub('bool')})"


def _spec(exprs, order=tuple(OUTPUTS)):
    """The specification with one output per generated expression, declared
    in `order`, or None when it does not type-check."""
    src = INPUTS
    for name in order:
        src += f"output {OUTPUTS[name]} {name} := {exprs[name]}\n"
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


def _extensions(engine, seen=None):
    """Extensions per (stream, alpha) of the engine's live instances, counted
    from each step's record of what it extended; an instance that a step
    drops starts again from zero. The name of each stream that extends is
    added to the set `seen`, if given."""
    counts = Counter()
    seen = set() if seen is None else seen

    def counting(step):
        def counted(*args, **kwargs):
            verdicts = step(*args, **kwargs)
            for name, alphas in engine._step_extended.items():
                counts.update((name, alpha) for alpha in alphas)
                seen.add(name)
            for name, alpha in list(counts):
                if alpha not in engine.streams[name].instances:
                    del counts[name, alpha]
            return verdicts

        return counted

    engine.var_rate_step = counting(engine.var_rate_step)
    engine.fixed_rate_step = counting(engine.fixed_rate_step)
    return counts


def _check(tspec, events, names=OUTPUTS, **mode):
    """Run both monitors; after every event the live instances of the
    streams `names`, their extension counts and latest values, and in the
    end the verdicts other than warnings, must be the same, in the same
    order but for the outputs of one instant (see `_settled`). After every
    event the engine's slot count must equal the slots its instances hold,
    and each stream of finite static bound must hold at most that bound per
    live instance. Returns the engine's verdicts and the names of the
    streams it extended."""
    # a real-time offset into an input needs unbounded memory
    engine = Monitor(tspec, allow_unbounded=True, **mode)
    ref = RefMonitor(tspec, **mode)
    seen = set()
    extensions = _extensions(engine, seen)
    bounds = engine.report.per_stream
    got = []
    for ev in events:
        got += engine.process(ev)
        ref.run([ev])
        total = 0
        for name, rt in engine.streams.items():
            slots = _retained(rt)
            limit = bounds[name] * len(rt.instances)
            assert bounds[name] == math.inf or slots <= limit, (name, ev, slots, limit)
            total += slots
        assert engine.slots == total, ev
        for name in names:
            live, ref_live = engine.streams[name].instances, ref.live[name]
            assert live.keys() == ref_live.keys(), (name, ev)
            # each key is the invoking one, by repr: -0.0 is no 0.0
            assert sorted(map(repr, live)) == sorted(map(repr, ref_live)), (name, ev)
            for alpha, entry in live.items():
                history, count = ref_live[alpha].history, extensions[name, alpha]
                assert count == len(history), (name, alpha, ev)
                if isinstance(entry, Instance):  # each value held was recorded
                    assert min(count, 1) <= len(entry.buf) <= count, (name, alpha, ev)
                if history:
                    (t, u), (s, v) = held(entry)[-1], history[-1]
                    assert t == s and _same(u, v), (name, alpha, ev, u, v)
    mine = [
        (v.kind, v.ts, v.stream, v.params, v.value) for v in got if v.kind != "warning"
    ]
    assert len(mine) == len(ref.verdicts)
    for m, r in zip(_settled(mine), _settled(ref.verdicts)):
        assert m[:3] == r[:3] and repr(m[3]) == repr(r[3]) and _same(m[4], r[4]), (m, r)
    return got, seen


def _settled(verdicts):
    """The verdicts in emitted order, except that each run of consecutive
    output verdicts of one instant is sorted by stream and parameters: the
    engine emits them in dependency order, the reference as it settles them.
    Parameters are sorted by repr, which orders tuples holding NaN too."""
    out = []
    for (outputs, _), run in groupby(verdicts, lambda v: (v[0] == "output", v[1])):
        out += sorted(run, key=lambda v: (v[2], repr(v[3]))) if outputs else run
    return out


@given(
    st.fixed_dictionaries({n: _expr(ty, reads=READS[n]) for n, ty in OUTPUTS.items()}),
    st.permutations(list(OUTPUTS)),
    st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_compiled_expressions_match_reference(exprs, order, seed):
    tspec = _spec(exprs, order)
    if tspec is None:
        return  # ill-typed; the type checker's business
    events = _trace(seed)
    _check(tspec, events)
    _check(tspec, events, mode="fixed", frequency=Fraction(1))


#: clocks off the dyadic grid, whose ticks are Fraction instants, and window
#: durations that are multiples of their period, so that every tick is
#: pane-aligned
CLOCKS = {
    Fraction(5, 2): ["400ms", "800ms", "2s"],
    Fraction(10, 3): ["300ms", "600ms", "1.5s"],
}


@st.composite
def _clocked(draw):
    """A fixed-mode frequency from CLOCKS and expressions over its windows."""
    hz = draw(st.sampled_from(sorted(CLOCKS)))
    exprs = {
        name: draw(_expr(ty, reads=READS[name], durations=CLOCKS[hz]))
        for name, ty in OUTPUTS.items()
    }
    return hz, exprs


@given(_clocked(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_non_dyadic_clocks_match_reference(clocked, seed):
    """Fixed mode at 5/2 Hz and 10/3 Hz: the tick grid is no power of two, so
    the event kernel finds due ticks by integer division and every window,
    buffer and offset sees its ticks as Fraction instants (the integer
    placement), while events stay on multiples of 1/4 s."""
    hz, exprs = clocked
    tspec = _spec(exprs)
    if tspec is None:
        return
    _check(tspec, _trace(seed), mode="fixed", frequency=hz)


#: the later outputs each output may read, through past offsets only
LATER = {"x": "yz", "y": "z", "z": ""}


@given(
    st.fixed_dictionaries({n: _expr(ty, later=LATER[n]) for n, ty in OUTPUTS.items()}),
    st.integers(0, 2**16),
)
@example({"x": "a", "y": "(if z[-1, p] then i else j)", "z": "p"}, 0)
@settings(max_examples=200, deadline=None)
def test_past_reads_of_later_outputs_match_reference(exprs, seed):
    """The dependency order puts an output read through a past offset before
    its reader, so a step extends both, the read one first. No cycles: the
    reference breaks a cycle through a past offset elsewhere than the
    engine."""
    tspec = _spec(exprs)
    if tspec is None:
        return
    events = _trace(seed)
    _check(tspec, events)
    _check(tspec, events, mode="fixed", frequency=Fraction(1))


#: a parameter is an int leaf of a family member's expression; `g` also
#: reads the instance of `f` with its own parameter, which may not exist
FAMILY_LEAVES = {
    "double": LEAVES["double"],
    "int": LEAVES["int"] + ["k"],
    "bool": LEAVES["bool"],
}
G_LEAVES = dict(FAMILY_LEAVES, double=FAMILY_LEAVES["double"] + ["f(k)", "f(k)?(0.5)"])
#: conjunctions also put a conjunct reading no parameter, which a step may
#: test once before its lookup unless a conjunct reads a window, before and
#: after the lookup atoms: a window, a past offset or a defaulted input that
#: may be unbound; the last three leave a disjunct that binds no parameter,
#: so the step scans
BINDS = [
    "k = i",
    "k = j",
    "i = k",
    "(k = i) | (k = j)",
    "(k = i) & (k = j)",
    "(a[1s, sum] > 0.0) & (k = i)",
    "(k = j) & (b[2s, count] > 1)",
    "(j[-1, 0] > 0) & (k = i)",
    "(k = i) & ((b)?(0.0) >= 0.0) & (k = j)",
    "!(k = i)",
    "(j)?(0) > k",
    "(k = i) | ((b)?(0.0) > 0.5)",
]
ENDS = [
    "k = j",
    "p & (k = j)",
    "(k = i) & !p",
    "(k = j) | ((k = i) & p)",
    "p",
    "(k = j) & (a[1s, max] > 0.5)",
    "(p)?(false) & (k = j)",
    "(k = i) & (i[-2, 0] = 1)",
]


@st.composite
def _family(draw):
    """`f<int k>` and `g<int k>`, each invoked by an int input, extended
    when its parameter equals bound inputs and maybe terminated, with an
    `any` trigger over `f` and a `count` trigger over one of them."""
    src = INPUTS
    for name, ty, leaves in (("f", "double", FAMILY_LEAVES), ("g", "bool", G_LEAVES)):
        src += (
            f"output {ty} {name}<int k>\n"
            f"  invoke: {draw(st.sampled_from('ij'))}\n"
            f"  extend: {draw(st.sampled_from(BINDS))}\n"
        )
        ends = draw(st.sampled_from([None] + ENDS))
        if ends is not None:
            src += f"  terminate: {ends}\n"
        src += f"  := {draw(_expr(ty, 3, leaves=leaves))}\n"
    counted = draw(st.sampled_from("fg"))
    return src + f"trigger any(f > 0.5)\ntrigger count({counted}) >= 2\n"


@given(_family(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_parameterized_family_matches_reference(src, seed):
    try:
        tspec = check_types(parse(src))
    except TypeCheckError:
        return
    _check(tspec, _trace(seed), names="fg")


#: extend and terminate conditions of `f<int k, int l>`: one disjunct binds
#: both parameters, one of them, or each of two binds one, so lookups go
#: through the alpha itself and through the partial indexes
PAIR_BINDS = [
    "(k = i) & (l = j)",
    "k = i",
    "l = j",
    "(k = i) | (l = j)",
    "(k = j) & (l = i)",
    "(k = i) & !(l = j)",
]
PAIR_ENDS = [
    "l = j",
    "p & (k = i)",
    "(k = i) & (l = j)",
    "(l = i) | p",
    "p",
    "(b[1s, avg] > 0.0) & (k = i) & (l = j)",
    "(k = i) & (j[-1, 0] != 0) & (l = j)",
    "(l = j) & ((a)?(1.0) > 0.5)",
]
PAIR_LEAVES = dict(FAMILY_LEAVES, int=FAMILY_LEAVES["int"] + ["l"])


@st.composite
def _pair_family(draw):
    """`f<int k, int l>` invoked by `(i, j)`, extended when parameters equal
    bound inputs and maybe terminated, with an `any` and a `count` trigger."""
    src = INPUTS + "output int f<int k, int l>\n  invoke: (i, j)\n"
    src += f"  extend: {draw(st.sampled_from(PAIR_BINDS))}\n"
    ends = draw(st.sampled_from([None] + PAIR_ENDS))
    if ends is not None:
        src += f"  terminate: {ends}\n"
    src += f"  := {draw(_expr('int', 3, leaves=PAIR_LEAVES))}\n"
    return src + "trigger any(f > 1)\ntrigger count(f) >= 3\n"


@given(_pair_family(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_tuple_invoke_over_two_inputs_matches_reference(src, seed):
    """An event binding both `i` and `j` invokes f(i, j) alone, once, and
    one binding either invokes it with the other's latest value."""
    try:
        tspec = check_types(parse(src))
    except TypeCheckError:
        return
    _check(tspec, _trace(seed), names="f")


#: templates that read the time input, which every event step feeds: in
#: variable mode they have no gate
_TIMED = (
    "time input double t\n"
    "output double e := t - (a)?(0.0)\n"
    "output bool q := (t > 20.0) & (p)?(false)\n"
    "output int c<int k>\n  invoke: i\n  extend: k = i\n  := t[2s, count] + k\n"
)


@pytest.mark.parametrize("frequency", [None, Fraction(1), Fraction(5, 2)])
def test_templates_reading_the_time_input_match_reference(frequency):
    tspec = check_types(parse(INPUTS + _TIMED + "trigger any(c > 2)\n"))
    mode = {} if frequency is None else {"mode": "fixed", "frequency": frequency}
    for seed in range(6):
        _check(tspec, _trace(seed), "eqc", **mode)


def _int_a(events):
    """Whole values of `a` bound as ints, which the double input coerces."""
    for ev in events:
        a = ev.bindings.get("a")
        if a is not None and a == int(a):
            ev.bindings["a"] = int(a)
    return events


def _huge_i(events):
    """`i` scaled by 2**62, so that i = 2 overflows int64 and saturates."""
    for ev in events:
        if "i" in ev.bindings:
            ev.bindings["i"] *= 2**62
    return events


_FAMILY = "output double f<int k>\n  invoke: i\n  extend: {}\n{}  := (a)?(0.5)\n"
#: more disjuncts than a lookup plan takes, so the extension scans
_SCAN = " | ".join(["(k = i)", "(k = j)"] * 33)

def _signed_zeros(events):
    """`a` drawn from 0.0, -0.0, 0.5, NaN and 1.0: a double parameter bound
    to it is looked up by a key equal to another (-0.0 = 0.0), or to none."""
    values = {-1.0: -0.0, -0.5: math.nan, 0.0: 0.0, 0.5: 0.5, 1.0: 1.0, 1.5: -0.0}
    for ev in events:
        if "a" in ev.bindings:
            ev.bindings["a"] = values[ev.bindings["a"]]
    return events


#: spec beside INPUTS, the streams compared, and how the trace is changed;
#: together they reach every variant of a kernel's extension and finder
VARIANTS = {
    "double-coercion": (
        "output double d := i?(0)\noutput double e := (a)?(0.0)\n",
        "de",
        _int_a,
    ),
    "int-saturation": ("output bool s := (i > 0)?(false)\n", "s", _huge_i),
    "in-place": ("output int o := i?(0)\n", "o", None),
    "count-pruning": ("output int c := i[-3, 0]\n", "c", None),
    "time-pruning": ("output double t := a[-1s, 0.0]\n", "t", None),
    "windows": (
        "output double w := a[2s, sum]\noutput int n := p[1s, count]\n",
        "wn",
        None,
    ),
    "invoke": ("output int g<int k>\n  invoke: i\n  := k + 1\n", "g", None),
    "single-lookup": (_FAMILY.format("k = i", ""), "f", None),
    "candidates": (_FAMILY.format("(k = i) | (k = j)", ""), "f", None),
    "scan": (_FAMILY.format(_SCAN, "  terminate: p & (k > 0)\n"), "f", None),
    # no extend clause, and an extend condition binding no parameter: every
    # live instance is visited, in invocation order or by a scan
    "scan-extend": (
        "output int g<int k>\n  invoke: i\n  := k + (j)?(0)\n"
        "output double h<int k>\n  invoke: i\n  extend: !(k = j)\n  := (a)?(0.5) + k\n",
        "gh",
        None,
    ),
    # a terminate clause whose operand alone has too many disjuncts
    "nested-scan": (_FAMILY.format("k = i", f"  terminate: ({_SCAN}) & p\n"), "f", None),
    "dynamic-gate": ("output int x := i + j\noutput int y := (x)?(0) + 1\n", "xy", None),
    "undefined": ("output int u := i + j\n", "u", None),
    # strict operators nested on both sides, defaults inside an argument
    # tuple, windows right of a deciding or undefined operand, and offsets
    # read through computed arguments: each operand needs a temporary of its
    # own in the kernel's inline code
    "temporaries": (
        "output int e<int k>\n  invoke: i\n  extend: k = i\n  := k * 2 + (j)?(0)\n"
        "output double h := if (p & (a[1s, sum] > 0.0)) | (j = 1)"
        " then ((i + (j)?(1)) * (i - 2)) - ((a)?(0.0) * ((b)?(1.0) + 1.0))"
        " else e(((i)?(0) + 1) % 3)[-1, 7]?(5) + e((j)?(0))[-1s, 3]\n"
        "output bool q := (p | (b[2s, count] > 1)) & (j + b[2s, count] > 0)\n"
        "output double r := if p then a[2s, max]?(0.0) else -(i / (j)?(0))\n",
        "ehqr",
        None,
    ),
    # chains of each level: `&` and `|` go on evaluating after an undefined
    # first operand (a window then still evicts), and only a defined value
    # so far decides; `/` and `%` steps by zero make the rest undefined
    "chains": (
        "output bool u := p & false & (a[2s, count] > 1) & (j > 0)\n"
        "output bool v := (i > 0) | true | (b[1s, count] > 0) | p\n"
        "output int w := i / j % (i)?(2) * 3 - j + 1 - (j)?(0)\n"
        "output double d := a / b * 2.0 % (b)?(1.5) / 0.5 * j\n",
        "uvwd",
        None,
    ),
    # lifecycle conditions split around their lookup: a conjunct reading no
    # parameter is tested once per step (e and the terminations) unless a
    # conjunct reads a window (f's extend); in fixed mode they scan
    "split": (
        "output double f<int k>\n  invoke: i\n"
        "  extend: ((j)?(0) > 0) & (k = i) & (a[2s, sum] > 0.0)\n"
        "  terminate: (k = j) & (b[-1, 0.0] > 0.0)\n  := (a)?(0.5)\n"
        "output int e<int k>\n  invoke: j\n  extend: (b[-1, 0.0] >= 0.0) & (k = j)\n"
        "  terminate: p & (k = i) & ((i)?(0) > 0)\n  := k + e(k)[-1, 0]\n",
        "fe",
        None,
    ),
    # double and bool parameters: a double's key atom stays per instance,
    # and verdicts name the invoked alpha, 0.0 where -0.0 found it
    "double-bool-params": (
        "output double h<double x>\n  invoke: a\n  extend: x = a\n"
        "  terminate: p & (x = a)\n  := x + (b)?(0.0)\n"
        "output int q<bool r>\n  invoke: p\n  extend: r = p\n"
        "  terminate: (r = p) & ((j)?(0) = 1)\n  := if r then 1 else 0\n"
        "trigger any(h > 0.25)\ntrigger any(q > 0)\n",
        "hq",
        _signed_zeros,
    ),
    # clocks due alone and together; a clocked family ends on its own ticks
    "two-clocks": (
        "output int c : 2Hz := (i)?(0)\noutput int d : 0.4Hz := (c)?(0) + 1\n"
        "output int s<int k> : 0.4Hz\n  invoke: i\n  terminate: p & (k = j)\n"
        "  := k + (d)?(0)\n",
        "cds",
        None,
    ),
    # one trigger of each shape a kernel writes: plain and gated by an input,
    # plain on the time input, whose gate an event step drops, any over a
    # family, which holds for an instance that the step extended and then
    # terminated and must skip it, and count over a clocked family that
    # events invoke and its own ticks terminate
    "triggers": (
        "time input double t\n"
        "output double h<int k>\n  invoke: i\n  extend: k = i\n"
        "  terminate: p & (k = i)\n  := (a)?(0.5)\n"
        "output int s<int k> : 0.4Hz\n  invoke: j\n  terminate: p & (k = i)\n"
        "  := k\n"
        "trigger (b)?(0.0) > 0.5\ntrigger t >= 30.0\n"
        "trigger any(h?(2.0) > 1.0)\ntrigger count(s) = 2\n",
        "hs",
        None,
    ),
}


@pytest.mark.parametrize("mode", ["variable", "fixed"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_kernel_variant_matches_reference(variant, mode):
    src, names, change = VARIANTS[variant]
    tspec = check_types(parse(INPUTS + src + "trigger any(f > 1.0)\n" * ("f" in names)))
    kwargs = {"mode": "fixed", "frequency": Fraction(1)} if mode == "fixed" else {}
    overflows, extended = 0, set()
    for seed in range(6):
        events = _trace(seed)
        if change is not None:
            events = change(events)
        got, seen = _check(tspec, events, names, **kwargs)
        extended |= seen
        # the reference keeps unbounded ints: it has no saturation warning
        saturated = sum("integer overflow" in (v.message or "") for v in got)
        assert saturated == sum(ev.bindings.get("i", 0) > 2**63 - 1 for ev in events)
        overflows += saturated
    assert overflows > 0 or variant != "int-saturation"
    # every compared stream runs; `g := k + 1` reads no stream, so only
    # clocks extend it
    idle = {"g"} if (variant, mode) == ("invoke", "variable") else set()
    assert set(names) - extended == idle, extended
