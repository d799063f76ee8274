"""Trace-replay evaluation engine.

Two cooperating components execute a specification over a timestamped event
trace:

* the variable-rate step runs once per trace event: it extends the bound
  input streams, registers their values in depending windows, invokes
  template instances whose invoke stream produced a fresh parameter value,
  and extends unclocked templates. Parameterized templates extend here only
  when they are efficiently bound (their extend condition pins parameters to
  input values), so the per-event cost is independent of how many instances
  are alive; plain unclocked streams tick on the union of their
  dependencies' extension instants.

* the fixed-rate step runs at every clock tick k/y: due instances whose
  extend condition holds are computed, extended, and registered, repeating
  until a fixpoint; each instance extends at most once per tick. Instances
  whose terminate condition holds are then removed, and triggers are
  checked.

Replay is driven by trace time, never wall-clock time: ticks at or before an
event's timestamp are processed before the event itself, so windows closed
at the evaluation instant never see the simultaneous event.

Verdicts are emitted in non-decreasing timestamp order. Output values are
reported for fixed-rate extensions; variable-rate steps report triggers and
warnings only.

Every template, lifecycle and trigger expression is compiled once, when the
Monitor is built, into a closure over the monitor's streams (see
`compiler`); a step runs those closures and walks no syntax tree. Parameters
travel as the instance's alpha tuple, indexed by position.

Clock ticks are integers on a grid of 1/D seconds, D being the least common
multiple of the clock frequencies' numerators, so a clock of p/q Hz ticks
every D*q/p grid units. The scheduler compares and advances integers only. A
tick becomes an instant once, when its step begins: the float tick / D when D
is a power of two (which is exact), a Fraction otherwise. Windows, buffers
and verdicts see that instant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
    AggFn,
    Binary,
    Expr,
    StreamAccess,
    StreamTemplate,
    TriggerDecl,
    TriggerKind,
    ValueType,
    accesses,
)
from .compiler import OPERATORS, Compiled, Compiler, count_until
from .diagnostics import (
    AnalysisRefusal,
    Diagnostic,
    EngineError,
    OutOfOrderError,
)
from .parser import _expr_str
from .typecheck import TypedSpec
from .values import UNDEFINED, saturate_i64
from .windows import PanedWindow, make_aggregator

__all__ = ["Event", "Verdict", "Monitor", "run"]


@dataclass
class Event:
    """One trace record: at least one input stream gets a value at time ts.

    ts must be finite, and every key of `bindings` must name a declared input
    stream that is not the `time input` (that one is fed from ts). Otherwise
    `Monitor.process` raises EngineError and leaves the monitor's state
    unchanged.
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
        return {
            "ts": self.ts,
            "kind": self.kind,
            "stream": self.stream,
            "params": list(self.params) if self.params is not None else None,
            "value": self.value,
            "message": self.message,
        }


class Instance:
    """Live instance of a stream: bounded value buffer plus the window states
    of every window expression that targets this stream."""

    __slots__ = ("alpha", "buf", "windows", "ext_count")

    def __init__(self, alpha: tuple, windows: dict[int, PanedWindow]):
        self.alpha = alpha
        self.buf: list[tuple] = []  # (ts, value), ascending ts
        self.windows = windows
        self.ext_count = 0


@dataclass
class _WindowPlan:
    wkey: int
    duration: Fraction
    pane_width: Fraction
    agg: AggFn
    target_ty: ValueType

    def new_state(self) -> PanedWindow:
        return PanedWindow(
            self.duration, self.pane_width, make_aggregator(self.agg, self.target_ty)
        )


@dataclass
class _Disjunct:
    positions: tuple[int, ...]  # parameter positions bound by this disjunct
    bufs: tuple[list, ...]  # value buffer of the input bound to each position
    full: bool


@dataclass
class _CondPlan:
    """How to find the instances a boolean lifecycle condition can select."""

    gate: frozenset[str]  # evaluate only when one of these streams extended
    mode: str  # 'lookup' | 'scan'
    disjuncts: list[_Disjunct] = field(default_factory=list)


_MAX_DISJUNCTS = 64


class _StreamRT:
    """Per-stream runtime state, precomputed plans and compiled expressions."""

    __slots__ = (
        "name",
        "tpl",
        "value_ty",
        "buffer_plan",
        "window_plans",
        "instances",
        "indexes",
        "efficient",
        "ext_plan",
        "ter_plan",
        "expr_gate",
        "eta_bound",
        "eta_warned",
        "period",
        "invokes",
        "invoke_fn",
        "extend_fn",
        "terminate_fn",
        "expr_fn",
    )

    def __init__(self, name: str, tpl, value_ty):
        self.name = name
        self.tpl: Optional[StreamTemplate] = tpl  # None for an input
        self.value_ty: ValueType = value_ty
        self.buffer_plan = BufferPlan()
        self.window_plans: list[_WindowPlan] = []
        self.instances: dict[tuple, Instance] = {}
        #: parameter positions -> their values -> alphas of live instances
        self.indexes: dict[tuple, dict] = {}
        self.efficient = True
        self.ext_plan: Optional[_CondPlan] = None
        self.ter_plan: Optional[_CondPlan] = None
        self.expr_gate: frozenset[str] = frozenset()
        self.eta_bound: Optional[int] = None
        self.eta_warned = False
        self.period: Optional[int] = None  # clock period in grid ticks
        #: templates whose invoke expression reads this stream
        self.invokes: list[_StreamRT] = []
        #: compiled invoke, extend, terminate and value expressions; invoke
        #: yields the parameter tuple of the instance to invoke
        self.invoke_fn: Optional[Compiled] = None
        self.extend_fn: Optional[Compiled] = None
        self.terminate_fn: Optional[Compiled] = None
        self.expr_fn: Optional[Compiled] = None

    def new_instance(self, alpha: tuple) -> Instance:
        inst = Instance(alpha, {p.wkey: p.new_state() for p in self.window_plans})
        self.instances[alpha] = inst
        for subset, index in self.indexes.items():
            index.setdefault(tuple(alpha[i] for i in subset), set()).add(alpha)
        return inst

    def drop_instance(self, alpha: tuple) -> Instance:
        inst = self.instances.pop(alpha)
        for subset, index in self.indexes.items():
            key = tuple(alpha[i] for i in subset)
            bucket = index.get(key)
            if bucket:
                bucket.discard(alpha)
                if not bucket:
                    del index[key]
        return inst


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
            tspec = _with_clock(tspec, Fraction(frequency))
        self.tspec = tspec
        self.mode = mode
        self.adg: AnnotatedDependencyGraph = build_adg(tspec)
        self.pane_widths = default_pane_widths(self.adg, pane_divisor)
        self.report: MemoryReport = compute_memory(
            self.adg, self.pane_widths, instance_bounds
        )
        if not self.report.bounded and not allow_unbounded:
            raise AnalysisRefusal(
                [Diagnostic(m) for m in self.report.offenders]
                or [Diagnostic("memory requirement is unbounded")]
            )

        self.slots = 0
        self.peak_slots = 0
        self.events_processed = 0
        self.verdicts_emitted = 0
        self.clock_ts = None  # last processed instant

        self._build_runtime(instance_bounds or {})
        self._bindable = frozenset(
            d.name for d in tspec.spec.inputs if not d.is_time
        )

        # per-step scratch
        self._step_extended: dict[str, list[tuple]] = {}
        self._step_invoked: dict[str, list[tuple]] = {}
        self._step_terminated: dict[str, list[tuple]] = {}
        self._step_done: set[tuple[str, tuple]] = set()
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
        for name, rt in self.streams.items():
            rt.buffer_plan = plans[name]

        # window plans, attached to the *target* stream
        for e in self.adg.window_edges:
            target, label = self.streams[e.target], e.label
            target.window_plans.append(
                _WindowPlan(
                    label.wkey,
                    label.duration,
                    self.pane_widths[label.wkey],
                    label.agg,
                    target.value_ty,
                )
            )

        # inputs and plain outputs exist from the start of the trace
        for rt in self.streams.values():
            if rt.tpl is None or not rt.tpl.params:
                rt.new_instance(())
        #: (stream, its instance, binding name or None for the time input),
        #: in declaration order
        self._inputs = []
        for decl in tspec.spec.inputs:
            rt = self.streams[decl.name]
            name = None if decl.is_time else decl.name
            self._inputs.append((rt, rt.instances[()], name))

        # invoke table, lifecycle plans and compiled expressions
        for tpl in tspec.spec.outputs:
            rt = self.streams[tpl.name]
            if tpl.invoke is not None:
                for node in accesses(tpl.invoke):
                    if isinstance(node, StreamAccess):
                        self.streams[node.stream].invokes.append(rt)
                rt.invoke_fn = Compiler(self).compile_invoke(tpl.invoke)
            if tpl.extend is not None:
                rt.extend_fn = Compiler(self, tpl.params).compile(tpl.extend)
                if tpl.params:
                    rt.ext_plan = self._cond_plan(tpl, tpl.extend)
            if tpl.terminate is not None:
                rt.terminate_fn = Compiler(self, tpl.params).compile(tpl.terminate)
                rt.ter_plan = self._cond_plan(tpl, tpl.terminate)
            rt.expr_fn = Compiler(self, tpl.params, own=tpl.name).compile(tpl.expr)
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
        self._clocks = [
            [p, p] for p in sorted({rt.period for rt in self._clocked_order})
        ]

        self._triggers = [self._compile_trigger(t) for t in tspec.spec.triggers]

    def _cond_plan(self, tpl: StreamTemplate, cond: Expr) -> _CondPlan:
        gate = frozenset(node.stream for node in accesses(cond))
        positions = {p.name: i for i, p in enumerate(tpl.params)}
        k = len(tpl.params)
        conjunctions = _dnf(cond)
        if conjunctions is None or not tpl.params:
            return _CondPlan(gate, "scan")
        disjuncts: list[_Disjunct] = []
        for atoms in conjunctions:
            bound: dict[int, str] = {}
            for atom in atoms:
                pair = param_input_atom(atom, self.tspec)
                if pair is not None and pair[0] in positions:
                    bound.setdefault(positions[pair[0]], pair[1])
            if not bound:
                return _CondPlan(gate, "scan")
            pos = tuple(sorted(bound))
            bufs = tuple(self.streams[bound[i]].instances[()].buf for i in pos)
            disjuncts.append(_Disjunct(pos, bufs, len(bound) == k))
        return _CondPlan(gate, "lookup", disjuncts)

    def _compile_trigger(self, trig: TriggerDecl) -> tuple[frozenset, Callable]:
        """The trigger's gate, the streams whose change in a step makes it
        checked, and its check(ts, extended) -> Verdict or None, with the
        message fixed here."""
        if trig.kind is TriggerKind.COUNT:
            counted = self.streams[trig.count_stream]
            holds, bound = OPERATORS[trig.count_cmp], trig.count_value
            message = trig.message or (
                f"count({trig.count_stream}) {trig.count_cmp} {trig.count_value}"
            )

            def count(ts, extended):
                n = len(counted.instances)
                if holds(n, bound):
                    return Verdict(float(ts), "trigger", counted.name, None, n, message)
                return None

            return frozenset([trig.count_stream]), count

        gate = frozenset(node.stream for node in accesses(trig.condition))
        text = _expr_str(trig.condition)
        if trig.kind is TriggerKind.ANY:
            scope = self.streams[trig.scope]
            cond = Compiler(self, scope.tpl.params, scope=scope.name).compile(
                trig.condition
            )
            message = trig.message or f"any({text})"

            def any_instance(ts, extended):
                alphas = extended.get(scope.name)
                if not alphas:
                    return None
                instances = scope.instances
                for alpha in sorted(set(alphas)):
                    if alpha in instances and cond(alpha, ts) is True:
                        return Verdict(
                            float(ts), "trigger", scope.name, alpha, True, message
                        )
                return None

            return gate, any_instance

        cond = Compiler(self).compile(trig.condition)
        message = trig.message or text

        def plain(ts, extended):
            if cond((), ts) is True:
                return Verdict(float(ts), "trigger", None, None, True, message)
            return None

        return gate, plain

    # -- public API -----------------------------------------------------------

    def process(self, event: Event) -> list[Verdict]:
        """Run all due clock ticks, then the event's variable-rate step.

        The timestamp must be finite and every binding must name a declared
        input other than the `time input`; otherwise this raises EngineError
        before any tick or extension, and the monitor's state is unchanged.
        """
        out: list[Verdict] = []
        if self._clocks:
            self._check_event(event)  # before any tick; var_rate_step checks too
            for tick in self._ticks_until(event.ts):
                out.extend(self.fixed_rate_step(tick))
        out.extend(self.var_rate_step(event))
        return out

    def run(self, events: Iterable[Event]) -> Iterator[Verdict]:
        for event in events:
            yield from self.process(event)

    def _ticks_until(self, ts) -> Iterator[int]:
        """The grid ticks at or before instant ts, in order."""
        clocks = self._clocks
        n, d = ts.as_integer_ratio()
        last = n * self._grid // d
        while clocks:
            due = min([c[0] for c in clocks])
            if due > last:
                return
            for counter in clocks:
                if counter[0] == due:
                    counter[0] = due + counter[1]
            yield due

    def _check_event(self, event: Event) -> None:
        # NaN would pass every later order check and make _ticks_until yield
        # ticks forever, as would +inf
        if not -math.inf < event.ts < math.inf:
            raise EngineError([Diagnostic(f"non-finite timestamp {event.ts}")])
        if not self._bindable.issuperset(event.bindings):
            unknown = ", ".join(sorted(set(event.bindings) - self._bindable))
            raise EngineError(
                [
                    Diagnostic(
                        f"unknown input stream(s): {unknown} (an event binds "
                        "declared inputs only, never the time input)"
                    )
                ]
            )

    # -- step machinery ---------------------------------------------------------

    def _begin_step(self, ts) -> None:
        if self.clock_ts is not None and ts < self.clock_ts:
            raise OutOfOrderError(
                [Diagnostic(f"time regressed from {self.clock_ts} to {ts}")]
            )
        self.clock_ts = ts
        self._step_extended = {}
        self._step_invoked = {}
        self._step_terminated = {}
        self._step_done = set()
        self._verdicts = []

    def var_rate_step(self, event: Event) -> list[Verdict]:
        """Process one trace event."""
        self._check_event(event)
        ts = event.ts
        self._begin_step(ts)
        self.events_processed += 1

        # 1: extend bound inputs, register into depending windows
        bindings = event.bindings
        for rt, inst, name in self._inputs:
            if name is None:
                value = float(ts)
            elif name in bindings:
                value = bindings[name]
            else:
                continue
            self._extend(rt, inst, ts, value, False)

        # 2 + 3: extend unclocked templates in dependency order; invocations
        # happen inside _extend, so invoked instances of later templates are
        # picked up within the same pass
        extended, done = self._step_extended, self._step_done
        for rt in self._var_order:
            plan = rt.ext_plan
            if plan is None:  # a plain stream
                if rt.expr_gate.isdisjoint(extended):
                    continue
                if rt.extend_fn is not None and rt.extend_fn((), ts) is not True:
                    continue
                inst = rt.instances.get(())
                if inst is not None and (rt.name, ()) not in done:
                    self._compute_and_extend(rt, inst, ts, (), False)
                continue
            if plan.gate.isdisjoint(extended):
                continue
            instances = rt.instances
            for alpha in self._candidates(rt, plan):
                inst = instances.get(alpha)
                if inst is None or (rt.name, alpha) in done:
                    continue
                if rt.extend_fn(alpha, ts) is not True:
                    continue
                self._compute_and_extend(rt, inst, ts, alpha, False)

        # 4: terminations of unclocked templates whose condition deps ticked
        self._run_terminations(ts, None)

        # 5: triggers
        self._verdicts.extend(self.evaluate_triggers(ts))
        self.verdicts_emitted += len(self._verdicts)
        return self._verdicts

    def fixed_rate_step(self, tick: int) -> list[Verdict]:
        """Evaluate every clocked stream due at grid tick `tick`, the instant
        tick / D seconds (see the module docstring)."""
        grid = self._grid
        ts = tick / grid if self._dyadic else Fraction(tick, grid)
        self._begin_step(ts)
        due = [rt for rt in self._clocked_order if tick % rt.period == 0]
        done = self._step_done
        undefined_skips: list[tuple[_StreamRT, Instance]] = []
        progress = True
        while progress:
            progress = False
            for rt in due:
                name, extend_fn, instances = rt.name, rt.extend_fn, rt.instances
                for alpha in list(instances):
                    if (name, alpha) in done:
                        continue
                    inst = instances.get(alpha)
                    if inst is None:
                        continue
                    if extend_fn is not None and extend_fn(alpha, ts) is not True:
                        continue
                    if self._compute_and_extend(rt, inst, ts, alpha, True):
                        progress = True
                    else:
                        undefined_skips.append((rt, inst))
        for rt, inst in undefined_skips:
            if (rt.name, inst.alpha) not in done:
                done.add((rt.name, inst.alpha))
                self._warn(
                    ts,
                    f"{_instance_name(rt.name, inst.alpha)}: undefined access "
                    "without a default; value skipped for this tick",
                )
        self._run_terminations(ts, due)
        self._verdicts.extend(self.evaluate_triggers(ts))
        self.verdicts_emitted += len(self._verdicts)
        return self._verdicts

    # -- extension ---------------------------------------------------------------

    def _compute_and_extend(
        self, rt: _StreamRT, inst: Instance, ts, alpha: tuple, emit: bool
    ) -> bool:
        """Evaluate the template expression and extend; returns False when the
        value is undefined (variable-rate steps warn immediately, fixed-rate
        steps retry until the tick's fixpoint)."""
        value = rt.expr_fn(alpha, ts)
        if value is UNDEFINED:
            if not emit:
                self._step_done.add((rt.name, inst.alpha))
                self._warn(
                    ts,
                    f"{_instance_name(rt.name, inst.alpha)}: undefined access "
                    "without a default; value skipped",
                )
            return False
        self._step_done.add((rt.name, inst.alpha))
        self._extend(rt, inst, ts, value, emit)
        return True

    def _extend(self, rt: _StreamRT, inst: Instance, ts, value, emit: bool) -> None:
        ty = rt.value_ty
        if ty is ValueType.DOUBLE:
            value = float(value)
        elif ty is ValueType.INT:
            value, overflowed = saturate_i64(value)
            if overflowed:
                self._warn(ts, f"{rt.name}: integer overflow, value saturated")
        buf = inst.buf
        buf.append((ts, value))
        inst.ext_count += 1
        plan = rt.buffer_plan
        if plan.time_keep is None:
            drop = len(buf) - plan.count_keep
            if drop > 0:
                del buf[:drop]
                slots = self.slots + 1 - drop
            else:
                slots = self.slots + 1
        else:
            slots = self.slots + 1 - _prune_by_time(plan, buf, ts)
        for w in inst.windows.values():
            before = w.slot_count
            w.register(value, ts)
            slots += w.slot_count - before
        self.slots = slots
        if slots > self.peak_slots:
            self.peak_slots = slots
        self._step_extended.setdefault(rt.name, []).append(inst.alpha)
        if emit:
            self._verdicts.append(
                Verdict(float(ts), "output", rt.name, inst.alpha, value)
            )
        for dependent in rt.invokes:
            self._try_invoke(dependent, ts)

    def _try_invoke(self, rt: _StreamRT, ts) -> None:
        alpha = rt.invoke_fn((), ts)
        if alpha is UNDEFINED or alpha in rt.instances:
            return
        rt.new_instance(alpha)
        self._step_invoked.setdefault(rt.name, []).append(alpha)
        if (
            rt.eta_bound is not None
            and len(rt.instances) > rt.eta_bound
            and not rt.eta_warned
        ):
            rt.eta_warned = True
            self._warn(
                ts,
                f"{rt.name}: live instances exceed the declared bound "
                f"{rt.eta_bound}; the static memory total no longer applies",
            )

    # -- termination ---------------------------------------------------------------

    def _run_terminations(self, ts, due: Optional[list[_StreamRT]]) -> None:
        """`due` holds the clocked streams due at this tick; None in a
        variable-rate step."""
        extended = self._step_extended
        for rt in self._with_terminate:
            if rt.period is not None:
                # a clocked template checks terminate on its own ticks only
                if due is None or rt not in due:
                    continue
                candidates = sorted(rt.instances)
            else:
                plan = rt.ter_plan
                if plan.gate.isdisjoint(extended):
                    continue
                candidates = self._candidates(rt, plan)
            for alpha in candidates:
                if alpha in rt.instances and rt.terminate_fn(alpha, ts) is True:
                    dropped = rt.drop_instance(alpha)
                    self.slots -= len(dropped.buf)
                    self.slots -= sum(
                        w.slot_count for w in dropped.windows.values()
                    )
                    self._step_terminated.setdefault(rt.name, []).append(alpha)

    @staticmethod
    def _candidates(rt: _StreamRT, plan: _CondPlan) -> list[tuple]:
        """Instances a lifecycle condition can currently select, found without
        iterating the instance map unless the plan is a scan."""
        if plan.mode == "scan":
            return sorted(rt.instances)
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

    # -- triggers --------------------------------------------------------------------

    def evaluate_triggers(self, ts) -> list[Verdict]:
        """Check triggers whose targets were touched during the current step."""
        extended = self._step_extended
        invoked = self._step_invoked
        terminated = self._step_terminated
        out: list[Verdict] = []
        for gate, check in self._triggers:
            if (
                gate.isdisjoint(extended)
                and gate.isdisjoint(invoked)
                and gate.isdisjoint(terminated)
            ):
                continue
            verdict = check(ts, extended)
            if verdict is not None:
                out.append(verdict)
        return out

    def _warn(self, ts, message: str) -> None:
        self._verdicts.append(Verdict(float(ts), "warning", message=message))


def _prune_by_time(plan: BufferPlan, buf: list, ts) -> int:
    """Drop buffered values older than the plan's horizon ts - time_keep and
    return how many. A value goes only if the next one still lies at or
    before the horizon (sample-and-hold needs one value there), and at least
    count_keep values stay."""
    n, d = ts.as_integer_ratio()
    kn, kd = plan.time_keep.numerator, plan.time_keep.denominator
    held = count_until(buf, n * kd - kn * d, d * kd)  # at or before ts - keep
    drop = min(held - 1, len(buf) - plan.count_keep)
    if drop <= 0:
        return 0
    del buf[:drop]
    return drop


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


def _instance_name(stream: str, alpha: tuple) -> str:
    if not alpha:
        return stream
    return f"{stream}({', '.join(map(repr, alpha))})"


def _dnf(expr: Expr) -> Optional[list[list[Expr]]]:
    """Disjunctive normal form over & and |, with other nodes as atoms.
    Returns None when the expansion would be too large."""
    match expr:
        case Binary(op="|", left=l, right=r):
            left, right = _dnf(l), _dnf(r)
            if left is None or right is None:
                return None
            result = left + right
        case Binary(op="&", left=l, right=r):
            left, right = _dnf(l), _dnf(r)
            if left is None or right is None:
                return None
            result = [a + b for a, b in itertools.product(left, right)]
        case _:
            result = [[expr]]
    if len(result) > _MAX_DISJUNCTS:
        return None
    return result


def run(
    tspec: TypedSpec,
    events: Iterable[Event],
    mode: str = "variable",
    **kwargs,
) -> Iterator[Verdict]:
    """Replay a trace through a fresh Monitor, yielding verdicts in time order."""
    monitor = Monitor(tspec, mode=mode, **kwargs)
    yield from monitor.run(events)
