"""Trace-replay evaluation engine.

Two cooperating components execute a specification over a timestamped event
trace:

* the variable-rate step runs once per trace event, by the monitor's event
  kernel: it feeds the inputs the event binds and the time input, then runs
  the unclocked templates that inputs can reach, in dependency order, and
  the terminations and triggers such a step can touch, each when its gate
  holds: an input it reads is bound, a template it reads extended (its
  extend condition may fail or its value be undefined), or it reads the
  time input, fed in every event. A trigger is also checked when the step
  invoked or terminated an instance of a stream it reads; an any trigger
  looks only at the instances of its scope that the step extended. Plain
  unclocked streams tick on the union of their dependencies' extension
  instants.
  Parameterized templates extend here only when efficiently bound (their
  extend condition pins parameters to input values; a single such disjunct
  binding every parameter is one tuple lookup), so the per-event cost is
  independent of how many instances are alive.

* the fixed-rate step runs at every clock tick k/y, by the monitor's tick
  kernel: the instances of each clocked template due at the tick, in
  invocation order, whose extend condition holds are computed and extended.
  Instances whose terminate condition holds are then removed, and triggers
  are checked.

Both steps run one pass, in the dependency order of
`analysis._evaluation_order`, which puts what a template reads before it.
An instance invoked by its own template, or by one that a cycle through a
past offset orders after it, first extends in the next step. An invoke
clause is evaluated once in a step that extends a stream it reads: in that
stream's extension, or after the last of several such streams, so that it
sees every value the step binds. An undefined value is skipped with a
warning where its instance is visited.

Replay is driven by trace time, never wall-clock time: ticks at or before an
event's timestamp are processed before the event itself, so windows closed
at the evaluation instant never see the simultaneous event.

Verdicts are emitted in non-decreasing timestamp order. Output values are
reported for fixed-rate extensions; variable-rate steps report triggers and
warnings only.

Each of the two steps is one function, a kernel, generated on first use
(see `Monitor._kernel`) from fixed source snippets: each stream's extension
is written out inline, with the coercion, pruning (by count, by time, or in
place for a single slot), windows and invocations of that stream, and so
are each template's gate check, instance lookup and its value, extend,
terminate and invoke expressions, which `compiler` writes as Python
expressions. The step's trigger checks, each gate and condition, a count
or an any trigger's loop over the instances its scope extended (a single
check when the scope has one instance for the whole trace), are written
the same way into a second function of the kernel's source, which the
kernel calls by `evaluate_triggers`. A step walks no syntax tree and calls
no function per expression, operator or trigger, and building the Monitor
compiles nothing. Parameters travel as the instance's alpha tuple, indexed
by position. The event kernel first checks the event, so that a rejected
one changes nothing, then runs the clock ticks due at or before it, each by
`fixed_rate_step`, then the event's own step.

A parameterized template that keeps one value and no window (buffer plan
`count_keep == 1`, no `time_keep`) stores each instance flat, as the tuple
(ts, value) of its latest extension, () before the first: no Instance and
no buffer list, so the cyclic collector, which untracks tuples of atomic
values, never walks them. Kernels and reads are generated for each shape.

Clock ticks are integers on a grid of 1/D seconds, D being the least common
multiple of the clock frequencies' numerators, so a clock of p/q Hz ticks
every D*q/p grid units. The scheduler advances integers only. A tick t is due
before an event at ts when t <= ts * D. On a dyadic grid (D a power of two)
the event kernel compares t with the product ts * D itself: it is exact for a
float ts, as a multiple of a float by a power of two is, short of overflowing
to inf, and Python compares an int with a float exactly. On any other grid it
compares t with floor(ts * D) from ts's integer ratio. An event that more
than MAX_TICKS ticks of the fastest clock precede is refused before any tick
runs, so a timestamp far ahead (an inf product included) ends in an
EngineError and not in an endless replay. A tick becomes an instant once,
when its step begins: the float tick / D when D is a power of two (which is
exact), a Fraction otherwise. Windows, buffers and verdicts see that instant.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Optional

from .analysis import (
    AnnotatedDependencyGraph,
    BufferPlan,
    MemoryReport,
    buffer_plans,
    classify_efficiently_bound,
    compute_memory,
    build_adg,
    default_pane_widths,
    param_input_atom,
)
from .ast import (
    Binary,
    Expr,
    StreamAccess,
    StreamTemplate,
    TriggerDecl,
    TriggerKind,
    TupleExpr,
    ValueType,
    accesses,
    chain,
    operands,
)
from .compiler import NAMES, Compiler, _bind, _code, count_until
from .diagnostics import AnalysisRefusal, Diagnostic, EngineError, OutOfOrderError
from .parser import _expr_str
from .typecheck import TypedSpec
from .values import INT64_MAX, INT64_MIN, jsonable, saturate_i64
from .windows import PanedWindow, make_aggregator

__all__ = ["Event", "Verdict", "Monitor"]


@dataclass
class Event:
    """One trace record: at least one input stream gets a value at time ts.

    ts must be an int or a float by exact class (a bool is no time), finite
    and within the float range, and every key of `bindings` must name a
    declared input stream that is not the `time input` (that one is fed from
    ts). Each value must be of its input's type, by exact class: bool for a
    bool input, int for an int input, int or float for a double input.
    Otherwise `Monitor.process` raises EngineError and leaves the monitor's
    state unchanged.
    """

    ts: float
    bindings: dict[str, object]


@dataclass
class Verdict:
    ts: float
    kind: str  # 'output' | 'trigger' | 'warning'
    stream: Optional[str] = None
    params: Optional[tuple] = None
    value: object = None
    message: Optional[str] = None

    def to_json_dict(self) -> dict:
        """The verdict's fields as strict JSON values (see `jsonable`)."""
        return {
            "ts": self.ts,
            "kind": self.kind,
            "stream": self.stream,
            "params": jsonable(self.params),
            "value": jsonable(self.value),
            "message": self.message,
        }


class Instance:
    """Live instance of a stream: bounded value buffer plus the window states
    of every window expression that targets this stream. A parameterized
    template keeping one value and no window stores flat entries instead,
    which the collector does not walk (see `_StreamRT.instances`)."""

    __slots__ = ("alpha", "buf", "windows")

    def __init__(self, alpha: tuple, windows: dict[int, PanedWindow]):
        self.alpha = alpha
        self.buf: list[tuple] = []  # (ts, value), ascending ts
        self.windows = windows


@dataclass
class _WindowPlan:
    wkey: int
    #: an empty window, of which each instance's window is a fresh copy
    proto: PanedWindow

    def new_state(self) -> PanedWindow:
        return self.proto.fresh()


@dataclass
class _Disjunct:
    positions: tuple[int, ...]  # parameter positions bound by this disjunct
    bufs: tuple[list, ...]  # value buffer of the input bound to each position
    full: bool


@dataclass
class _CondPlan:
    """How to find the instances a boolean lifecycle condition can select."""

    gate: frozenset[str]  # evaluate only when one of these streams extended
    #: the disjuncts a lookup goes through; none for a scan
    disjuncts: list[_Disjunct] = field(default_factory=list)


_MAX_DISJUNCTS = 64
#: the fastest clock a monitor runs, in Hz
MAX_FREQUENCY = 10**6
#: the most ticks of its fastest clock that a monitor runs before one event:
#: an event further ahead is refused, since a replay runs every tick
MAX_TICKS = 10**6
#: the windows of every instance of a stream that no window reads
_NO_WINDOWS = MappingProxyType({})


@dataclass(slots=True, eq=False, repr=False)
class _StreamRT:
    """Per-stream runtime state and precomputed plans."""

    name: str
    tpl: Optional[StreamTemplate]  # None for an input
    value_ty: ValueType
    buffer_plan: BufferPlan = field(default_factory=BufferPlan)
    window_plans: list[_WindowPlan] = field(default_factory=list)
    #: alpha -> live instance; when `flat`, the untracked tuple (ts, value)
    #: of its latest extension, () before the first (see the module docstring)
    instances: dict[tuple, Instance | tuple] = field(default_factory=dict)
    flat: bool = False
    #: parameter positions -> their values -> alphas of live instances
    indexes: dict[tuple, dict] = field(default_factory=dict)
    efficient: bool = True
    ext_plan: Optional[_CondPlan] = None
    ter_plan: Optional[_CondPlan] = None
    expr_gate: frozenset[str] = frozenset()
    eta_bound: Optional[int] = None
    eta_warned: bool = False
    period: Optional[int] = None  # clock period in grid ticks
    #: templates whose invoke expression reads this stream
    invokes: list[_StreamRT] = field(default_factory=list)

    def new_instance(self, alpha: tuple) -> None:
        plans = self.window_plans
        windows = {p.wkey: p.new_state() for p in plans} if plans else _NO_WINDOWS
        self.instances[alpha] = () if self.flat else Instance(alpha, windows)
        if self.indexes:
            for subset, index in self.indexes.items():
                index.setdefault(tuple(alpha[i] for i in subset), set()).add(alpha)

    def drop_instance(self, alpha: tuple) -> Instance | tuple:
        inst = self.instances.pop(alpha)
        for subset, index in self.indexes.items():
            key = tuple(alpha[i] for i in subset)
            bucket = index.get(key)
            if bucket:
                bucket.discard(alpha)
                if not bucket:
                    del index[key]
        return inst

    @property
    def pinned(self) -> Optional[Instance]:
        """The instance of an input, or of a plain template without a
        terminate clause, which lives for the whole trace; else None."""
        if self.tpl is not None and (self.tpl.params or self.tpl.terminate):
            return None
        return self.instances[()]


class Monitor:
    """Evaluation state for one specification over one trace replay.

    mode 'variable' evaluates unclocked streams on event arrival; clocked
    streams always tick on their own clocks. mode 'fixed' additionally gives
    every unclocked output stream the supplied frequency as a clock, so all
    outputs are computed on clock ticks.
    """

    def __init__(
        self,
        tspec: TypedSpec,
        mode: str = "variable",
        frequency: Optional[Fraction] = None,
        pane_divisor: int = 256,
        instance_bounds: Optional[dict[str, int]] = None,
        allow_unbounded: bool = False,
    ):
        if mode not in ("variable", "fixed"):
            raise EngineError([Diagnostic(f"unknown mode {mode!r}")])
        if mode == "fixed" and frequency is None:
            raise EngineError([Diagnostic("fixed mode needs a frequency")])
        if mode == "fixed":
            # a number by exact class (a bool is none), positive and finite
            number = frequency.__class__ in (int, float, Fraction)
            if not number or not 0 < frequency < math.inf:
                message = f"fixed mode needs a positive frequency, got {frequency!r}"
                raise EngineError([Diagnostic(message)])
            tspec = _with_clock(tspec, Fraction(frequency))
        for tpl in tspec.spec.outputs:  # a replay runs every tick
            if tpl.clock is not None and tpl.clock > MAX_FREQUENCY:
                message = f"{tpl.name}: cannot replay a clock above {MAX_FREQUENCY}Hz"
                raise EngineError([Diagnostic(message)])
        self.tspec = tspec
        self.mode = mode
        self.adg: AnnotatedDependencyGraph = build_adg(tspec)
        self.pane_widths = default_pane_widths(self.adg, pane_divisor)
        self.report: MemoryReport = compute_memory(
            self.adg, self.pane_widths, instance_bounds
        )
        if not self.report.bounded and not allow_unbounded:
            raise AnalysisRefusal([Diagnostic(m) for m in self.report.offenders])

        self.slots = 0
        self.peak_slots = 0
        self.events_processed = 0
        self.verdicts_emitted = 0
        self.clock_ts = None  # last processed instant

        self._build_runtime(instance_bounds or {})
        #: the step kernels, built on first use by `_kernel`
        self._event_kernel = self._tick_kernel = None

        # per-step scratch: what the step extended, and its warnings
        self._step_extended: dict[str, list[tuple]] = {}
        self._verdicts: list[Verdict] = []

    # -- construction -------------------------------------------------------

    def _build_runtime(self, instance_bounds: dict[str, int]) -> None:
        tspec = self.tspec
        plans = buffer_plans(self.adg, self.pane_widths)
        self.streams: dict[str, _StreamRT] = {}
        for decl in tspec.spec.inputs:
            self.streams[decl.name] = _StreamRT(decl.name, None, decl.ty)
        for tpl in tspec.spec.outputs:
            rt = _StreamRT(tpl.name, tpl, tpl.ty)
            rt.efficient = classify_efficiently_bound(tpl, tspec)
            rt.eta_bound = instance_bounds.get(tpl.name)
            self.streams[tpl.name] = rt

        # window plans, attached to the *target* stream
        for e in self.adg.window_edges:
            target, label = self.streams[e.target], e.label
            width = self.pane_widths[label.wkey]
            agg = make_aggregator(label.agg, target.value_ty)
            proto = PanedWindow(label.duration, width, agg)
            target.window_plans.append(_WindowPlan(label.wkey, proto))

        # inputs and plain outputs exist from the start of the trace
        for rt in self.streams.values():
            rt.buffer_plan = plans[rt.name]
            if rt.tpl is None or not rt.tpl.params:
                rt.new_instance(())
            else:
                rt.flat = rt.buffer_plan == BufferPlan() and not rt.window_plans

        # invoke table and lifecycle plans
        for tpl in tspec.spec.outputs:
            rt = self.streams[tpl.name]
            if tpl.invoke is not None:
                for node in accesses(tpl.invoke):
                    if isinstance(node, StreamAccess):
                        invokes = self.streams[node.stream].invokes
                        if rt not in invokes:  # once however often it reads it
                            invokes.append(rt)
            if tpl.extend is not None and tpl.params:
                rt.ext_plan = self._cond_plan(tpl, tpl.extend)
            if tpl.terminate is not None:
                rt.ter_plan = self._cond_plan(tpl, tpl.terminate)
            rt.expr_gate = frozenset(node.stream for node in accesses(tpl.expr))
            for plan in (rt.ext_plan, rt.ter_plan):
                if plan is not None:
                    for d in plan.disjuncts:
                        if not d.full:
                            rt.indexes[d.positions] = {}

        # evaluation orders: unclocked templates that can extend on an
        # event, clocked templates, and templates that can terminate
        order = [self.streams[name] for name in self.adg.order]
        self._var_order = [
            rt
            for rt in order
            if rt.tpl.clock is None
            and (not rt.tpl.params or (rt.efficient and rt.ext_plan is not None))
        ]
        self._clocked_order = [rt for rt in order if rt.tpl.clock is not None]
        self._with_terminate = [rt for rt in order if rt.tpl.terminate is not None]

        # the tick grid: one [next tick, period] counter per distinct clock
        clocks = {rt.tpl.clock for rt in self._clocked_order}
        self._grid = math.lcm(*(f.numerator for f in clocks))
        self._dyadic = self._grid & (self._grid - 1) == 0
        for rt in self._clocked_order:
            clock = rt.tpl.clock
            rt.period = self._grid * clock.denominator // clock.numerator
        periods = {rt.period for rt in self._clocked_order}
        self._clocks = [[p, p] for p in sorted(periods)]

    def _cond_plan(self, tpl: StreamTemplate, cond: Expr) -> _CondPlan:
        gate = frozenset(node.stream for node in accesses(cond))
        positions = {p.name: i for i, p in enumerate(tpl.params)}
        k = len(tpl.params)
        conjunctions = _dnf(cond)
        if conjunctions is None or not tpl.params or tpl.clock is not None:
            return _CondPlan(gate)
        disjuncts: list[_Disjunct] = []
        for atoms in conjunctions:
            bound: dict[int, str] = {}
            for atom in atoms:
                pair = param_input_atom(atom, self.tspec)
                if pair is not None and pair[0] in positions:
                    bound.setdefault(positions[pair[0]], pair[1])
            if not bound:
                return _CondPlan(gate)
            pos = tuple(sorted(bound))
            bufs = tuple(self.streams[bound[i]].instances[()].buf for i in pos)
            disjuncts.append(_Disjunct(pos, bufs, len(bound) == k))
        return _CondPlan(gate, disjuncts)

    # -- public API -----------------------------------------------------------

    def process(self, event: Event) -> list[Verdict]:
        """Run all due clock ticks, then the event's variable-rate step.

        The timestamp must be a finite number, every binding must name a
        declared input other than the `time input`, and every bound value
        must have its input's type (see `Event`); otherwise this raises
        EngineError before any tick or extension, and the monitor's state is
        unchanged.
        """
        return self.var_rate_step(event)

    def run(self, events: Iterable[Event]) -> Iterator[Verdict]:
        for event in events:
            yield from self.process(event)

    # -- step machinery ---------------------------------------------------------

    def var_rate_step(self, event: Event) -> list[Verdict]:
        """Process one trace event by the monitor's event kernel: check it,
        run every clock tick due at or before its timestamp, each by
        `fixed_rate_step`, then its own step; the ticks' verdicts come
        first."""
        kernel = self._event_kernel or self._kernel(tick=False)
        return kernel(self, event.ts, event.bindings)

    def fixed_rate_step(self, tick: int) -> list[Verdict]:
        """Evaluate every clocked stream due at grid tick `tick`, the instant
        tick / D seconds (see the module docstring)."""
        ts = tick / self._grid if self._dyadic else Fraction(tick, self._grid)
        kernel = self._tick_kernel or self._kernel(tick=True)
        return kernel(self, ts, tick)

    def _kernel(self, tick: bool) -> Callable:
        """Builds and keeps the event kernel, kernel(m, ts, bindings), or
        with `tick` the tick kernel, kernel(m, ts, tick), each returning the
        step's verdicts. The event kernel rejects an invalid event, runs the
        ticks due at or before ts by `m.fixed_rate_step`, feeds the bound
        inputs and the time input, and runs what inputs can reach of the
        unclocked templates and terminations. The tick kernel runs the
        clocked templates and terminations due at `tick` and the other
        terminations. Each runs when its gate holds (see the module
        docstring). The same source defines the step's trigger checks,
        triggers(m, ts, extended, touched), which the kernel calls by
        `m.evaluate_triggers`: every trigger reading a stream that the step
        can extend, invoke or terminate, in declaration order. The source
        depends on the spec's shape only: every object it reads is bound by
        name."""
        names = dict(_KERNEL_NAMES)
        bind = partial(_bind, names)

        def source(expr: Expr, params=(), own=None, scope=None) -> str:
            """expr written inline, reading the kernel's alpha, ts and m."""
            return Compiler(self.streams, params, own, scope).source(expr, names)

        decls = self.tspec.spec.inputs
        inputs = frozenset(d.name for d in decls)
        #: bindable input -> the local holding its value, or MISSING if unbound
        local = {d.name: f"v{k}" for k, d in enumerate(decls) if not d.is_time}
        timed = inputs - local.keys()  # the time input, fed in every event step

        def changed(streams: frozenset, record: str = "extended") -> str:
            return f"not {bind(streams)}.isdisjoint({record})"

        def gate(streams: frozenset) -> Optional[str]:
            """Whether an event step fed or extended one of `streams`."""
            if streams & timed:
                return None
            tests = [f"{v} is not MISSING" for s, v in local.items() if s in streams]
            if streams - inputs:
                tests.append(changed(streams - inputs))
            return " or ".join(tests)

        if tick:
            head, fed = "def kernel(m, ts, tick", []
            every = len(self._clocks) > 1  # else every tick is due
            due = {
                rt: f"not tick % {bind(rt.period)}" if every else None
                for rt in self._clocked_order
            }
            templates = list(due.items())
            ends = [
                (rt, due[rt] if rt.period else changed(rt.ter_plan.gate))
                for rt in self._with_terminate
            ]
        else:
            head = "def kernel(m, ts, bindings"
            fed = [self.streams[d.name] for d in decls]
            reach = set(inputs)  # the streams that can extend in an event step
            templates = []
            for rt in self._var_order:
                streams = rt.expr_gate if rt.ext_plan is None else rt.ext_plan.gate
                if not streams.isdisjoint(reach):
                    reach.add(rt.name)
                    templates.append((rt, gate(streams)))
            ends = [
                (rt, gate(rt.ter_plan.gate))
                for rt in self._with_terminate
                if rt.period is None and rt.ter_plan.gate & reach
            ]
        # the streams the step can invoke or terminate an instance of, and the
        # triggers reading one that it can change
        extending = fed + [rt for rt, _ in templates]
        moved = {dep.name for rt in extending for dep in rt.invokes}
        moved.update(rt.name for rt, _ in ends)
        can = moved.union(rt.name for rt in extending)
        triggers = [
            (trig, reads)
            for trig in self.tspec.spec.triggers
            if (reads := _reads(trig)) & can
        ]
        # each invoke runs once per step: in the extension of the one stream
        # it reads that the step can extend, or after the last of several
        readers: dict[_StreamRT, list[_StreamRT]] = {}
        for rt in extending:
            for dep in rt.invokes:
                readers.setdefault(dep, []).append(rt)
        code: list[str] = []

        def put(depth: int, *lines: str) -> None:
            code.extend("    " * depth + line for line in lines)

        def when(condition: Optional[str]) -> int:
            """Opens a block run when `condition` holds; returns its depth."""
            if condition is None:
                return 1
            put(1, f"if {condition}:")
            return 2

        def fired(reads: frozenset) -> Optional[str]:
            """A trigger's gate: whether the step changed one of `reads`;
            none where the event step feeds the time input."""
            if not tick and reads & timed:
                return None
            tests = [changed(reads)]
            if reads & moved:
                tests.append(changed(reads & moved, "touched"))
            return " or ".join(tests)

        if triggers:
            put(0, "def triggers(m, ts, extended, touched):", "    verdicts = []")
        for trig, reads in triggers:
            loop = False
            if trig.kind is TriggerKind.ANY:  # checked for what its scope extended
                scope = self.streams[trig.scope]
                key = bind(scope.name)
                held = source(trig.condition, scope.tpl.params, scope=scope.name)
                if scope.pinned is not None:  # its one instance, () the witness
                    depth, test = when(f"{key} in extended"), f"{held} is True"
                    fields = f"{key}, (), True"
                else:
                    put(1, f"alphas = extended.get({key})", "if alphas:")
                    # the lowest witness wins
                    alphas = "alphas if len(alphas) == 1 else sorted(set(alphas))"
                    put(2, f"for alpha in {alphas}:")
                    loop, depth = True, 3
                    test = f"alpha in {bind(scope.instances)} and {held} is True"
                    fields = f"{key}, alpha, True"
                default = f"any({_expr_str(trig.condition)})"
            elif trig.kind is TriggerKind.COUNT:
                rt, depth = self.streams[trig.count_stream], when(fired(reads))
                holds = "==" if trig.count_cmp == "=" else trig.count_cmp
                test = f"(n := len({bind(rt.instances)})) {holds} "
                test += bind(trig.count_value)
                fields = f"{bind(rt.name)}, None, n"
                default = f"count({rt.name}) {trig.count_cmp} {trig.count_value}"
            else:
                depth, test = when(fired(reads)), f"{source(trig.condition)} is True"
                fields, default = "None, None, True", _expr_str(trig.condition)
            message = bind(trig.message or default)
            verdict = f"VERDICT(float(ts), 'trigger', {fields}, {message})"
            put(depth, f"if {test}:", f"    verdicts.append({verdict})")
            if loop:
                put(depth, "    break")
        if triggers:
            put(1, "return verdicts")
            head += ", triggers=triggers"  # a default: no cycle through the globals
        put(0, head + "):")

        def find(depth: int, rt: _StreamRT, plan: Optional[_CondPlan]) -> tuple:
            """Opens a block visiting, as alpha, each live instance of rt that
            `plan` can select (None: all, in invocation order); returns its
            depth and whether it loops. Outside a loop, i is the instance."""
            instances = bind(rt.instances)
            if plan is not None and len(plan.disjuncts) == 1 and plan.disjuncts[0].full:
                bufs = [bind(buf) for buf in plan.disjuncts[0].bufs]
                values = "".join(f"{b}[-1][1], " for b in bufs)
                put(depth, f"if {' and '.join(bufs)}:", f"    alpha = ({values})")
                depth += 1
            elif rt.pinned is not None:  # it lives for the whole trace
                put(depth, "alpha = ()", f"i = {bind(rt.pinned)}")
                return depth, False
            elif not rt.tpl.params:
                put(depth, "alpha = ()")
            else:
                found = f"sorted({instances})" if plan else f"list({instances})"
                if plan and plan.disjuncts:
                    found = f"candidates({bind(rt)}, {bind(plan)})"
                put(depth, f"for alpha in {found}:")
                return depth + 1, True
            put(depth, f"i = {instances}.get(alpha)", "if i is not None:")
            return depth + 1, False

        def extend(depth: int, rt: _StreamRT, inst: str, alpha: str, coerce=True):
            """Extends instance `inst` of rt, whose parameters are `alpha`, by
            the value v: coerce, buffer and prune, register into windows,
            charge the slots, record, emit, and try the invocations that
            read rt alone of the streams the step can extend."""
            key, plan = bind(rt.name), rt.buffer_plan
            if rt.value_ty is ValueType.DOUBLE and coerce:
                put(depth, "v = float(v)")
            elif rt.value_ty is ValueType.INT:
                warning = bind(f"{rt.name}: integer overflow, value saturated")
                put(depth, "if not MIN <= v <= MAX:", "    v = saturate(v)")
                put(depth, f"    m._warn(ts, {warning})")
            b = f"b = {inst}.buf"
            if rt.flat:  # the entry is replaced; its one slot is charged once
                put(depth, f"g = 0 if {inst} else 1")
                put(depth, f"{bind(rt.instances)}[{alpha}] = (ts, v)")
            elif plan.time_keep is not None:  # prune by time
                put(depth, b, "b.append((ts, v))", f"d = expired({bind(plan)}, b, ts)")
                put(depth, "if d > 0:", "    del b[:d]", "g = 1 - max(d, 0)")
            elif plan.count_keep == 1:  # a single slot, reused in place
                put(depth, b, "if b:", "    b[0] = (ts, v)", "    g = 0")
                put(depth, "else:", "    b.append((ts, v))", "    g = 1")
            else:  # prune by count
                put(depth, b, "b.append((ts, v))")
                put(depth, f"if len(b) > {bind(plan.count_keep)}:", "    del b[0]")
                put(depth, "    g = 0", "else:", "    g = 1")
            if rt.pinned is not None:  # its windows are bound by name
                for w in rt.pinned.windows.values():
                    put(depth, f"g += {bind(w)}.register(v, ts)")
            elif rt.window_plans:
                put(depth, f"w = {inst}.windows")
                for p in rt.window_plans:
                    put(depth, f"g += w[{bind(p.wkey)}].register(v, ts)")
            put(depth, "if g:", "    s = m.slots = m.slots + g")
            put(depth, "    if s > m.peak_slots:", "        m.peak_slots = s")
            if rt.tpl is None or not rt.tpl.params:  # extends once per step
                put(depth, f"extended[{key}] = PINNED")
            else:
                put(depth, f"extended.setdefault({key}, []).append({alpha})")
            if tick:
                output = f"VERDICT(float(ts), 'output', {key}, {alpha}, v)"
                put(depth, f"verdicts.append({output})")
            for dep in rt.invokes:
                if len(readers[dep]) == 1:
                    invoke(depth, dep)

        def invoke(depth: int, dep: _StreamRT) -> None:
            """Evaluates dep's invoke clause and invokes the instance it
            names if that is new."""
            instances, clause = bind(dep.instances), dep.tpl.invoke
            if not isinstance(clause, TupleExpr):
                clause = TupleExpr(items=[clause])
            put(depth, f"a = {source(clause)}")
            put(depth, f"if a is not U and a not in {instances}:")
            put(depth, f"    {bind(dep.new_instance)}(a)")
            put(depth, f"    touched.add({bind(dep.name)})")
            if dep.eta_bound is not None:
                d, bound = bind(dep), bind(dep.eta_bound)
                message = bind(
                    f"{dep.name}: live instances exceed the declared bound "
                    f"{dep.eta_bound}; the static memory total no longer applies"
                )
                over = f"len({instances}) > {bound}"
                put(depth, f"    if {over} and not {d}.eta_warned:")
                put(depth, f"        {d}.eta_warned = True")
                put(depth, f"        m._warn(ts, {message})")

        def invokes_after(rt: _StreamRT) -> None:
            """The invokes that read several streams the step can extend, rt
            the last of them: each once, if one of them extended."""
            for dep in rt.invokes:
                streams = readers[dep]
                if len(streams) > 1 and streams[-1] is rt:
                    invoke(when(changed(frozenset(s.name for s in streams))), dep)

        if not tick:  # the event's checks; a NaN or inf ts would tick forever
            for name, v in local.items():
                put(1, f"{v} = bindings.get({bind(name)}, MISSING)")
            bindable, unknown = bind(frozenset(local)), bind(_UNKNOWN)
            put(1, f"if not bindings.keys() <= {bindable}:")
            put(1, f"    names = ', '.join(sorted(bindings.keys() - {bindable}))")
            put(1, f"    raise EngineError([Diagnostic({unknown}.format(names))])")
            put(1, "if ts.__class__ not in TIMES or not -MAX_TIME <= ts <= MAX_TIME:")
            put(1, "    message = f'timestamp {ts!r} is no finite number'")
            put(1, "    raise EngineError([Diagnostic(message)])")
            for name, v in local.items():
                ty = self.streams[name].value_ty
                ok = bind(_CLASSES[ty.name])
                got = bind(f"input {name} ({ty.value}) got ")
                put(1, f"if {v}.__class__ not in {ok} and {v} is not MISSING:")
                put(1, f"    raise EngineError([Diagnostic({got} + repr({v}))])")
        put(1, "if m.clock_ts is not None and ts < m.clock_ts:")
        put(1, "    message = f'time regressed from {m.clock_ts} to {ts}'")
        put(1, "    raise OutOfOrderError([Diagnostic(message)])")
        put(1, "verdicts = []")
        ticks = not tick and self._clocks
        if ticks:  # the due ticks, on the integer grid, before the event
            if self._dyadic:  # ts * D is exact (or inf, which the guard refuses)
                put(1, f"last = ts * {self._grid}" if self._grid > 1 else "last = ts")
            else:
                put(1, "n, d = ts.as_integer_ratio()", f"last = n * {self._grid} // d")
            fastest = self._clocks[0]  # the guard: at most MAX_TICKS of its ticks
            c, most = bind(fastest), bind(MAX_TICKS * fastest[1])
            put(1, f"if last >= {c}[0] + {most}:", f"    raise {bind(_far_ahead)}(m, ts)")
            if len(self._clocks) == 1:  # one comparison per event
                put(1, f"while (t := {c}[0]) <= last:", f"    {c}[0] = t + {c}[1]")
            else:
                c = bind(self._clocks)
                put(1, f"while (t := min([c[0] for c in {c}])) <= last:")
                put(2, f"for c in {c}:", "    if c[0] == t:", "        c[0] = t + c[1]")
            put(2, "verdicts += m.fixed_rate_step(t)")
            put(1, "ticked = len(verdicts)")
        put(1, "m._verdicts = verdicts", "m.clock_ts = ts")
        put(1, "extended = m._step_extended = {}", "touched = set()")
        for rt in fed:
            v = local.get(rt.name)
            depth = when(f"{v} is not MISSING" if v else None)
            put(depth, f"v = {v}" if v else "v = float(ts)")
            extend(depth, rt, bind(rt.instances[()]), "()", coerce=v is not None)
            invokes_after(rt)

        # invocations happen inside the extensions or right after them, so
        # invoked instances of later templates are picked up within the same
        # pass
        for rt, condition in templates:
            depth, loop = find(when(condition), rt, None if rt.period else rt.ext_plan)
            if rt.tpl.extend is not None:
                put(depth, f"if {source(rt.tpl.extend, rt.tpl.params)} is True:")
                depth += 1
            value = source(rt.tpl.expr, rt.tpl.params, rt.name)
            put(depth, f"v = {value}", "if v is U:")
            put(depth, f"    m._warn(ts, undefined({bind(rt.name)}, alpha))", "else:")
            if loop:
                put(depth + 1, f"i = {bind(rt.instances)}[alpha]")
            extend(depth + 1, rt, "i", "alpha")
            invokes_after(rt)

        for rt, condition in ends:
            depth, _ = find(when(condition), rt, rt.ter_plan)
            put(depth, f"if {source(rt.tpl.terminate, rt.tpl.params)} is True:")
            depth += 1
            refund = "1 if d else 0" if rt.flat else "len(d.buf)"
            put(depth, f"d = {bind(rt.drop_instance)}(alpha)", f"m.slots -= {refund}")
            if rt.window_plans:
                put(depth, "m.slots -= sum(w.slot_count for w in d.windows.values())")
            put(depth, f"touched.add({bind(rt.name)})")

        if triggers:
            put(1, "verdicts += m.evaluate_triggers(triggers, ts, extended, touched)")
        put(1, f"m.verdicts_emitted += len(verdicts){' - ticked' if ticks else ''}")
        if not tick:
            put(1, "m.events_processed += 1")
        put(1, "return verdicts")
        exec(_code("\n".join(code)), names)
        kernel = names.pop("kernel")  # no cycle through its globals
        names.pop("triggers", None)
        setattr(self, "_tick_kernel" if tick else "_event_kernel", kernel)
        return kernel

    # -- triggers --------------------------------------------------------------------

    def evaluate_triggers(
        self, triggers: Callable, ts, extended: dict, touched: set
    ) -> list[Verdict]:
        """The verdicts of a step's trigger checks, `triggers`, written with
        its kernel (see `_kernel`), given what the step extended and the
        streams it invoked or terminated an instance of. A kernel calls this
        once in every step that has triggers: it is the call boundary at
        which perfbench's tracer and tests/test_hooks.py time and count the
        trigger layer."""
        return triggers(self, ts, extended, touched)

    def _warn(self, ts, message: str) -> None:
        self._verdicts.append(Verdict(float(ts), "warning", message=message))


_CLASSES = dict(BOOL={bool}, INT={int}, DOUBLE={int, float})
#: what an event kernel reads for an input the event does not bind
_MISSING = object()
#: a step's record of the extension of a stream without parameters
_PINNED = ((),)
_UNKNOWN = (
    "unknown input stream(s): {} (an event binds declared inputs only, "
    "never the time input)"
)


def _reads(trig: TriggerDecl) -> frozenset[str]:
    """The streams whose change in a step can change the trigger's verdict."""
    if trig.kind is TriggerKind.COUNT:
        return frozenset([trig.count_stream])
    return frozenset(node.stream for node in accesses(trig.condition))


def _far_ahead(m: Monitor, ts) -> EngineError:
    """The error for an event at ts that more than MAX_TICKS ticks of the
    monitor's fastest clock precede, naming how many."""
    n, d = ts.as_integer_ratio()
    next_tick, period = m._clocks[0]
    count = (n * m._grid // d - next_tick) // period + 1
    message = (
        f"timestamp {ts!r} lies {count} clock ticks ahead; "
        f"a replay runs at most {MAX_TICKS} before one event"
    )
    return EngineError([Diagnostic(message)])


def _candidates(rt: _StreamRT, plan: _CondPlan) -> list[tuple]:
    """The live instances a lookup plan can select, found through the
    indexes without iterating the instance map."""
    found: set[tuple] = set()
    for d in plan.disjuncts:
        values = []
        for buf in d.bufs:
            if not buf:
                break
            values.append(buf[-1][1])
        else:
            # a full disjunct binds positions 0..k-1: the key is the alpha
            key = tuple(values)
            if d.full:
                if key in rt.instances:
                    found.add(key)
            else:
                bucket = rt.indexes[d.positions].get(key)
                if bucket:
                    found.update(bucket)
    return sorted(found)


def _expired(plan: BufferPlan, buf: list, ts) -> int:
    """How many of the oldest buffered values lie beyond the plan's horizon
    ts - time_keep; zero or less when none. A value goes only if the next
    one still lies at or before the horizon (sample-and-hold needs one value
    there), and at least count_keep values stay."""
    n, d = ts.as_integer_ratio()
    kn, kd = plan.time_keep.numerator, plan.time_keep.denominator
    held = count_until(buf, n * kd - kn * d, d * kd)  # at or before ts - keep
    return min(held - 1, len(buf) - plan.count_keep)


def _with_clock(tspec: TypedSpec, clock: Fraction) -> TypedSpec:
    """The spec with `clock` on every unclocked output: shallow copies of
    those templates, sharing their expression nodes, in a new TypedSpec."""
    outputs = [
        tpl if tpl.clock is not None else replace(tpl, clock=clock)
        for tpl in tspec.spec.outputs
    ]
    return replace(
        tspec,
        spec=replace(tspec.spec, outputs=outputs),
        templates={tpl.name: tpl for tpl in outputs},
    )


def _undefined(stream: str, alpha: tuple) -> str:
    """The warning for an undefined value of the instance alpha of stream."""
    name = f"{stream}({', '.join(map(repr, alpha))})" if alpha else stream
    return f"{name}: undefined access without a default; value skipped"


#: what every step kernel reads by name, besides what it binds
_KERNEL_NAMES = dict(
    NAMES,
    MISSING=_MISSING,
    PINNED=_PINNED,
    VERDICT=Verdict,
    TIMES={int, float},
    MAX_TIME=sys.float_info.max,
    MIN=INT64_MIN,
    MAX=INT64_MAX,
    saturate=saturate_i64,
    expired=_expired,
    candidates=_candidates,
    undefined=_undefined,
    EngineError=EngineError,
    OutOfOrderError=OutOfOrderError,
    Diagnostic=Diagnostic,
)


def _dnf(expr: Expr) -> Optional[list[list[Expr]]]:
    """Disjunctive normal form over & and |, with other nodes as atoms.
    Returns None when the expansion would be too large."""
    if not (isinstance(expr, Binary) and expr.op in ("|", "&")):
        return [[expr]]
    first, *rest = operands(chain(expr))
    result = _dnf(first)
    for operand in rest:
        right = _dnf(operand)
        if result is None or right is None:
            return None
        if expr.op == "|":
            result = result + right
        else:
            result = [a + b for a, b in itertools.product(result, right)]
        if len(result) > _MAX_DISJUNCTS:
            return None
    return result

