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
  Parameterized templates find the instances that an extend or terminate
  condition selects by one rule, `Monitor._cond_plan`: a lookup by a key
  when one disjunct binds every parameter to an input (the key of those
  inputs, built once a step and shared with invokes and reads), the partial
  indexes when each binds some, else a scan, whose cost alone grows with
  the live instances; without an extend clause every instance extends. The
  lookup decides its `param = input` atoms for int and bool parameters; a
  double's are tested again, as NaN != NaN. Conjuncts reading no parameter
  are tested once per step, before the lookup or scan, unless one reads a
  window (see `kernel`).

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

Each step is one function, a kernel, written on first use from the named
snippets of `kernel.KernelWriter`, so a step walks no syntax tree and
building the Monitor compiles nothing. Parameters travel as the instance's
key alpha: the one parameter's value, else their tuple indexed by position
(see `kernel`); a verdict's params are always a tuple.

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Optional

from .analysis import (
    AnnotatedDependencyGraph,
    BufferPlan,
    MemoryReport,
    buffer_plans,
    classify_efficiently_bound,  # uncalled; perfbench's tracer wraps it here
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
    ValueType,
    accesses,
    chain,
    operands,
)
from .compiler import _code
from .diagnostics import AnalysisRefusal, Diagnostic, EngineError
from .typecheck import TypedSpec
from .values import UNDEFINED, jsonable
from .windows import PanedWindow, make_aggregator

__all__ = ["Event", "Verdict", "Monitor"]


@dataclass(slots=True)
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


@dataclass(slots=True)
class Verdict:
    ts: float
    kind: str  # 'output' | 'trigger' | 'warning'
    stream: Optional[str] = None
    params: Optional[tuple] = None
    value: object = None
    message: Optional[str] = None

    def to_json_dict(self) -> dict:
        """The verdict's fields as strict JSON values (see `jsonable`), which
        only a non-empty params tuple, a tuple value or a NaN or infinite
        float value goes through: the common cases are written inline."""
        params, value = self.params, self.value
        if params is not None:
            params = jsonable(params) if params else []
        if value.__class__ is float and value - value != 0.0 or value.__class__ is tuple:
            value = jsonable(value)  # a NaN or infinity, or a tuple
        return {
            "ts": self.ts,
            "kind": self.kind,
            "stream": self.stream,
            "params": params,
            "value": value,
            "message": self.message,
        }


class Instance:
    """Live instance of a stream: its latest value, U before the first; its
    (ts, value) buffer, which only a stream that an offset reads keeps (else
    None: a stream of buffer plan `BufferPlan()` holds its one value bare,
    with no instant); and the states of the windows that target it. A
    template keeping one value, no window and no double parameter keeps
    flat entries instead, bare values (see `_StreamRT.instances`)."""

    __slots__ = ("alpha", "value", "buf", "windows")

    def __init__(self, alpha, windows: dict[int, PanedWindow], history: bool):
        self.alpha = alpha
        self.value = UNDEFINED
        self.buf = [] if history else None  # (ts, value), ascending ts
        self.windows = windows


@dataclass
class _Disjunct:
    positions: tuple[int, ...]  # parameter positions bound by this disjunct
    inputs: tuple[Instance, ...]  # instance of the input bound to each position
    full: bool


@dataclass
class _CondPlan:
    """How to find the instances a boolean lifecycle condition can select."""

    gate: frozenset[str]  # evaluate only when one of these streams extended
    #: the disjuncts a lookup goes through; none for a scan
    disjuncts: list[_Disjunct] = field(default_factory=list)
    #: the inputs bound to the parameters in order, if one disjunct binds all
    key: Optional[tuple[str, ...]] = None


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
    #: wkey -> an empty window, of which each instance's is a fresh copy
    window_plans: dict[int, PanedWindow] = field(default_factory=dict)
    #: key alpha (see `kernel`) -> live instance; when `flat` (one value kept,
    #: no window, no double parameter), its bare latest value, () before the
    #: first, which the collector does not track
    instances: dict[object, object] = field(default_factory=dict)
    flat: bool = False
    history: bool = False  # whether an offset reads it: its instances buffer
    #: parameter positions -> their values -> alphas of live instances
    indexes: dict[tuple, dict] = field(default_factory=dict)
    ext_plan: Optional[_CondPlan] = None
    ter_plan: Optional[_CondPlan] = None
    expr_gate: frozenset[str] = frozenset()
    eta_bound: Optional[int] = None
    eta_warned: bool = False
    period: Optional[int] = None  # clock period in grid ticks
    #: templates whose invoke expression reads this stream
    invokes: list[_StreamRT] = field(default_factory=list)

    def new_instance(self, alpha) -> None:
        plans = self.window_plans
        windows = {k: p.fresh() for k, p in plans.items()} if plans else _NO_WINDOWS
        self.instances[alpha] = () if self.flat else Instance(alpha, windows, self.history)
        if self.indexes:
            for subset, index in self.indexes.items():
                index.setdefault(tuple(alpha[i] for i in subset), set()).add(alpha)

    def drop_instance(self, alpha) -> object:
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
        self._step_extended: dict[str, list] = {}
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
            rt.eta_bound = instance_bounds.get(tpl.name)
            self.streams[tpl.name] = rt

        # window plans, attached to the *target* stream
        for e in self.adg.window_edges:
            target, label = self.streams[e.target], e.label
            width = self.pane_widths[label.wkey]
            agg = make_aggregator(label.agg, target.value_ty)
            target.window_plans[label.wkey] = PanedWindow(label.duration, width, agg)

        # inputs and plain outputs exist from the start of the trace
        for rt in self.streams.values():
            plan = rt.buffer_plan = plans[rt.name]
            rt.history = plan.count_keep > 1 or plan.time_keep is not None  # not BufferPlan()
            if rt.tpl is None or not rt.tpl.params:
                rt.new_instance(())
            else:  # an Instance keeps the alpha that a double's lookup names
                rt.flat = not rt.history and not rt.window_plans
                rt.flat &= all(p.ty is not ValueType.DOUBLE for p in rt.tpl.params)

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

        # evaluation orders: unclocked templates, which extend on events,
        # clocked templates, and templates that can terminate
        order = [self.streams[name] for name in self.adg.order]
        self._var_order = [rt for rt in order if rt.tpl.clock is None]
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
            inputs = tuple(self.streams[bound[i]].instances[()] for i in pos)
            disjuncts.append(_Disjunct(pos, inputs, len(bound) == k))
        lookup = len(disjuncts) == 1 and disjuncts[0].full
        return _CondPlan(gate, disjuncts, tuple(map(bound.get, range(k))) if lookup else None)

    # -- public API -----------------------------------------------------------

    def process(self, event: Event) -> list[Verdict]:
        """Run all due clock ticks, then the event's variable-rate step. An
        invalid event (see `Event`) raises EngineError and changes nothing."""
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
        step's verdicts, from the snippets of `kernel.KernelWriter`."""
        from .kernel import KernelWriter  # loaded with the package; reads this module

        writer = KernelWriter(self, tick)
        exec(_code(writer.write()), writer.names)
        kernel = writer.names.pop("kernel")  # no cycle through its globals
        writer.names.pop("triggers", None)
        setattr(self, "_tick_kernel" if tick else "_event_kernel", kernel)
        return kernel

    def evaluate_triggers(
        self, triggers: Callable, ts, extended: dict, touched: set
    ) -> list[Verdict]:
        """The verdicts of a step's trigger checks, `triggers`, written with
        its kernel (see `kernel.KernelWriter.trigger`), given what the step
        extended and the streams it invoked or terminated an instance of. A
        kernel calls this once in every step that has triggers: it is the
        call boundary at which perfbench's tracer and tests/test_hooks.py
        time and count the trigger layer."""
        return triggers(self, ts, extended, touched)

    def _warn(self, ts, message: str) -> None:
        self._verdicts.append(Verdict(float(ts), "warning", message=message))


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

