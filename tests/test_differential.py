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
terminate conditions bind its parameter to inputs, under the same random
binding subsets, and compares every instance.

The trace keeps both sides exact. Timestamps are multiples of 1/4 s and
windows last 500 ms, 1 s or 2 s, so every evaluation instant is
pane-aligned and the engine's panes cover exactly the reference's
(ts - r, ts]; real-time offsets of 250 ms to 1.5 s put cutoffs on event
instants as well as between them. Double inputs are small multiples of 1/2, so window sums are
exact in any association order, and so are integrals over inputs, whose
trapezoids are multiples of 1/16. A median sorts the same retained values
on both sides.
"""

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


@st.composite
def _expr(draw, ty, depth=4, reads="", later="", leaves=LEAVES):
    """An expression of type `ty`: 'double', 'int' or 'bool', over the inputs,
    the outputs named in `reads`, the outputs named in `later` through past
    offsets only, and `leaves`."""
    mine = "".join(o for o in reads if OUTPUTS[o] == ty)
    ahead = "".join(o for o in later if OUTPUTS[o] == ty)
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(leaves[ty] + list(mine)))

    def sub(t):
        return draw(_expr(t, depth - 1, reads, later, leaves))

    num = "bool" != ty
    forms = ["if", "default", "offset", "delay"]
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


def _extensions(engine):
    """Extensions per (stream, alpha) of the engine's live instances, counted
    from each step's record of what it extended; an instance that a step
    drops starts again from zero."""
    counts = Counter()

    def counting(step):
        def counted(*args, **kwargs):
            verdicts = step(*args, **kwargs)
            for name, alphas in engine._step_extended.items():
                counts.update((name, alpha) for alpha in alphas)
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
    event the engine's slot count must equal the slots its instances hold."""
    # a real-time offset into an input needs unbounded memory
    engine = Monitor(tspec, allow_unbounded=True, **mode)
    ref = RefMonitor(tspec, **mode)
    extensions = _extensions(engine)
    got = []
    for ev in events:
        got += engine.process(ev)
        ref.run([ev])
        assert engine.slots == sum(map(_retained, engine.streams.values())), ev
        for name in names:
            live, ref_live = engine.streams[name].instances, ref.live[name]
            assert live.keys() == ref_live.keys(), (name, ev)
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
        assert m[:4] == r[:4] and _same(m[4], r[4]), (m, r)
    return got


def _settled(verdicts):
    """The verdicts in emitted order, except that each run of consecutive
    output verdicts of one instant is sorted by stream and parameters: the
    engine emits them in dependency order, the reference as it settles them."""
    out = []
    for (outputs, _), run in groupby(verdicts, lambda v: (v[0] == "output", v[1])):
        out += sorted(run, key=lambda v: (v[2], v[3] or ())) if outputs else run
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
BINDS = ["k = i", "k = j", "i = k", "(k = i) | (k = j)", "(k = i) & (k = j)"]
ENDS = ["k = j", "p & (k = j)", "(k = i) & !p", "(k = j) | ((k = i) & p)", "p"]


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
    "dynamic-gate": ("output int x := i + j\noutput int y := (x)?(0) + 1\n", "xy", None),
    "undefined": ("output int u := i + j\n", "u", None),
    # clocks due alone and together; a clocked family ends on its own ticks
    "two-clocks": (
        "output int c : 2Hz := (i)?(0)\noutput int d : 0.4Hz := (c)?(0) + 1\n"
        "output int s<int k> : 0.4Hz\n  invoke: i\n  terminate: p & (k = j)\n"
        "  := k + (d)?(0)\n",
        "cds",
        None,
    ),
}


@pytest.mark.parametrize("mode", ["variable", "fixed"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_kernel_variant_matches_reference(variant, mode):
    src, names, change = VARIANTS[variant]
    tspec = check_types(parse(INPUTS + src + "trigger any(f > 1.0)\n" * ("f" in names)))
    kwargs = {"mode": "fixed", "frequency": Fraction(1)} if mode == "fixed" else {}
    overflows = 0
    for seed in range(6):
        events = _trace(seed)
        if change is not None:
            events = change(events)
        got = _check(tspec, events, names, **kwargs)
        # the reference keeps unbounded ints: it has no saturation warning
        saturated = sum("integer overflow" in (v.message or "") for v in got)
        assert saturated == sum(ev.bindings.get("i", 0) > 2**63 - 1 for ev in events)
        overflows += saturated
    assert overflows > 0 or variant != "int-saturation"
