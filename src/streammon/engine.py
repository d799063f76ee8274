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
"""

from __future__ import annotations

import copy
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .analysis import (
    AnnotatedDependencyGraph,
    BufferPlan,
    MemoryReport,
    buffer_plans,
    classify_efficiently_bound,
    compute_memory,
    build_adg,
    default_pane_widths,
)
from .ast import (
    AggFn,
    Binary,
    Const,
    Default,
    DiscreteOffset,
    Expr,
    FnCall,
    IfThenElse,
    ParamRef,
    RealTimeOffset,
    StreamAccess,
    StreamTemplate,
    TriggerDecl,
    TriggerKind,
    TupleExpr,
    Unary,
    ValueType,
    WindowAccess,
    accesses,
    template_expressions,
    walk,
)
from .diagnostics import (
    AnalysisRefusal,
    Diagnostic,
    EngineError,
    OutOfOrderError,
)
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
    inputs: tuple[str, ...]  # input stream bound to each position
    full: bool


@dataclass
class _CondPlan:
    """How to find the instances a boolean lifecycle condition can select."""

    gate: frozenset[str]  # evaluate only when one of these streams extended
    mode: str  # 'lookup' | 'scan'
    disjuncts: list[_Disjunct] = field(default_factory=list)


_MAX_DISJUNCTS = 64


class _StreamRT:
    """Per-stream runtime state and precomputed plans."""

    __slots__ = (
        "name",
        "is_input",
        "tpl",
        "value_ty",
        "buffer_plan",
        "window_plans",
        "instances",
        "indexes",
        "index_subsets",
        "efficient",
        "ext_plan",
        "ter_plan",
        "expr_gate",
        "eta_bound",
        "eta_warned",
    )

    def __init__(self, name: str, is_input: bool, tpl, value_ty):
        self.name = name
        self.is_input = is_input
        self.tpl: Optional[StreamTemplate] = tpl
        self.value_ty: ValueType = value_ty
        self.buffer_plan = BufferPlan()
        self.window_plans: list[_WindowPlan] = []
        self.instances: dict[tuple, Instance] = {}
        self.indexes: dict[tuple, dict] = {}
        self.index_subsets: list[tuple[int, ...]] = []
        self.efficient = True
        self.ext_plan: Optional[_CondPlan] = None
        self.ter_plan: Optional[_CondPlan] = None
        self.expr_gate: frozenset[str] = frozenset()
        self.eta_bound: Optional[int] = None
        self.eta_warned = False

    def new_instance(self, alpha: tuple) -> Instance:
        inst = Instance(alpha, {p.wkey: p.new_state() for p in self.window_plans})
        self.instances[alpha] = inst
        for subset in self.index_subsets:
            key = tuple(alpha[i] for i in subset)
            self.indexes[subset].setdefault(key, set()).add(alpha)
        return inst

    def drop_instance(self, alpha: tuple) -> Instance:
        inst = self.instances.pop(alpha)
        for subset in self.index_subsets:
            key = tuple(alpha[i] for i in subset)
            bucket = self.indexes[subset].get(key)
            if bucket:
                bucket.discard(alpha)
                if not bucket:
                    del self.indexes[subset][key]
        return inst


class _Env:
    __slots__ = ("alpha", "ts", "scope_name", "scope_inst", "self_key")

    def __init__(
        self, alpha=None, ts=0.0, scope_name=None, scope_inst=None, self_key=None
    ):
        self.alpha = alpha or {}
        self.ts = ts
        self.scope_name = scope_name
        self.scope_inst = scope_inst
        #: (stream, alpha) whose value is being computed right now; its own
        #: in-flight value counts as the latest for self-offsets
        self.self_key = self_key


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


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
        tspec = copy.deepcopy(tspec)
        if mode == "fixed":
            for tpl in tspec.spec.outputs:
                if tpl.clock is None:
                    tpl.clock = Fraction(frequency)
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

        # Tick schedule: one counter per distinct clock frequency.
        freqs = sorted(
            {tpl.clock for tpl in tspec.spec.outputs if tpl.clock is not None}
        )
        self._tick_counters: list[list] = [[f, 1] for f in freqs]

        # per-step scratch
        self._step_extended: dict[str, list[tuple]] = {}
        self._step_invoked: dict[str, list[tuple]] = {}
        self._step_terminated: dict[str, list[tuple]] = {}
        self._step_done: set[tuple[str, tuple]] = set()
        self._verdicts: list[Verdict] = []

    # -- construction -------------------------------------------------------

    def _build_runtime(self, instance_bounds: dict[str, int]) -> None:
        tspec = self.tspec
        plans = buffer_plans(self.adg)
        self.streams: dict[str, _StreamRT] = {}
        self.stream_order: list[str] = []
        for decl in tspec.spec.inputs:
            rt = _StreamRT(decl.name, True, None, decl.ty)
            self.streams[decl.name] = rt
            self.stream_order.append(decl.name)
        for tpl in tspec.spec.outputs:
            rt = _StreamRT(tpl.name, False, tpl, tpl.ty)
            rt.efficient = classify_efficiently_bound(tpl, tspec)
            rt.eta_bound = instance_bounds.get(tpl.name)
            self.streams[tpl.name] = rt
            self.stream_order.append(tpl.name)
        for name, rt in self.streams.items():
            rt.buffer_plan = plans[name]

        # window plans, attached to the *target* stream
        for tpl in tspec.spec.outputs:
            for _, expr in template_expressions(tpl):
                for node in walk(expr):
                    if isinstance(node, WindowAccess):
                        target = self.streams[node.stream]
                        target.window_plans.append(
                            _WindowPlan(
                                node.wkey,
                                node.duration,
                                self.pane_widths[node.wkey],
                                node.agg,
                                target.value_ty,
                            )
                        )

        # invoke table and lifecycle plans
        self.invoked_by: dict[str, list[str]] = {name: [] for name in self.streams}
        for tpl in tspec.spec.outputs:
            rt = self.streams[tpl.name]
            if tpl.invoke is not None:
                for node in accesses(tpl.invoke):
                    if isinstance(node, StreamAccess):
                        self.invoked_by[node.stream].append(tpl.name)
            if tpl.extend is not None and tpl.params:
                rt.ext_plan = self._cond_plan(tpl, tpl.extend)
            if tpl.terminate is not None:
                rt.ter_plan = self._cond_plan(tpl, tpl.terminate)
            rt.expr_gate = frozenset(
                node.stream for node in accesses(tpl.expr)
            )
            for subset in {
                d.positions
                for plan in (rt.ext_plan, rt.ter_plan)
                if plan is not None
                for d in plan.disjuncts
                if not d.full
            }:
                rt.index_subsets.append(subset)
                rt.indexes[subset] = {}

        # evaluation orders
        order = self.adg.template_order()
        self._var_order = [
            name for name in order if self.streams[name].tpl.clock is None
        ]
        self._clocked_order = [
            name for name in order if self.streams[name].tpl.clock is not None
        ]
        self._with_terminate = [
            name for name in order if self.streams[name].tpl.terminate is not None
        ]

        # trigger dependency sets
        self._trigger_gates: list[frozenset[str]] = []
        for trig in tspec.spec.triggers:
            if trig.kind is TriggerKind.COUNT:
                self._trigger_gates.append(frozenset([trig.count_stream]))
            else:
                self._trigger_gates.append(
                    frozenset(node.stream for node in accesses(trig.condition))
                )

        # inputs and plain outputs exist from the start of the trace
        for name in self.stream_order:
            rt = self.streams[name]
            if rt.is_input or not rt.tpl.params:
                rt.new_instance(())

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
                pair = _param_input_atom(atom, positions, self.tspec)
                if pair is not None and pair[0] not in bound:
                    bound[pair[0]] = pair[1]
            if not bound:
                return _CondPlan(gate, "scan")
            pos = tuple(sorted(bound))
            disjuncts.append(
                _Disjunct(pos, tuple(bound[i] for i in pos), len(bound) == k)
            )
        return _CondPlan(gate, "lookup", disjuncts)

    # -- public API -----------------------------------------------------------

    def process(self, event: Event) -> list[Verdict]:
        """Run all due clock ticks, then the event's variable-rate step.

        The timestamp must be finite and every binding must name a declared
        input other than the `time input`; otherwise this raises EngineError
        before any tick or extension, and the monitor's state is unchanged.
        """
        self._check_event(event)
        out: list[Verdict] = []
        for tick in self._ticks_until(event.ts):
            out.extend(self.fixed_rate_step(tick))
        out.extend(self.var_rate_step(event))
        return out

    def run(self, events: Iterable[Event]) -> Iterator[Verdict]:
        for event in events:
            yield from self.process(event)

    def _ticks_until(self, ts) -> Iterator[Fraction]:
        while self._tick_counters:
            due = min(k / f for f, k in self._tick_counters)
            if due > ts:
                return
            for counter in self._tick_counters:
                f, k = counter
                if k / f == due:
                    counter[1] = k + 1
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
        for name in self.stream_order:
            rt = self.streams[name]
            if not rt.is_input:
                continue
            if self.tspec.time_input == name:
                value = float(ts)
            elif name in event.bindings:
                value = event.bindings[name]
            else:
                continue
            self._extend(rt, rt.instances[()], ts, value, emit=False)

        # 2 + 3: extend unclocked templates in dependency order; invocations
        # happen inside _extend, so invoked instances of later templates are
        # picked up within the same pass
        for name in self._var_order:
            rt = self.streams[name]
            tpl = rt.tpl
            if tpl.params:
                if not rt.efficient or rt.ext_plan is None:
                    continue
                plan = rt.ext_plan
                if not (plan.gate & self._step_extended.keys()):
                    continue
                for alpha in self._candidates(rt, plan):
                    inst = rt.instances.get(alpha)
                    if inst is None or (name, alpha) in self._step_done:
                        continue
                    env = _Env(dict(zip((p.name for p in tpl.params), alpha)), ts)
                    if self._eval(tpl.extend, env) is not True:
                        continue
                    self._compute_and_extend(rt, inst, ts, env, emit=False)
            else:
                if not (rt.expr_gate & self._step_extended.keys()):
                    continue
                if tpl.extend is not None:
                    if self._eval(tpl.extend, _Env({}, ts)) is not True:
                        continue
                inst = rt.instances.get(())
                if inst is not None and (name, ()) not in self._step_done:
                    self._compute_and_extend(rt, inst, ts, _Env({}, ts), emit=False)

        # 4: terminations of unclocked templates whose condition deps ticked
        self._run_terminations(ts, due=None)

        # 5: triggers
        self._verdicts.extend(self.evaluate_triggers(ts))
        self.verdicts_emitted += len(self._verdicts)
        return self._verdicts

    def fixed_rate_step(self, ts: Fraction) -> list[Verdict]:
        """Evaluate every clocked stream due at tick time ts (= k/y)."""
        self._begin_step(ts)
        due = [name for name in self._clocked_order if self._due(name, ts)]
        undefined_skips: list[tuple[_StreamRT, Instance]] = []
        progress = True
        while progress:
            progress = False
            for name in due:
                rt = self.streams[name]
                tpl = rt.tpl
                for alpha in list(rt.instances.keys()):
                    if (name, alpha) in self._step_done:
                        continue
                    inst = rt.instances.get(alpha)
                    if inst is None:
                        continue
                    env = _Env(
                        dict(zip((p.name for p in tpl.params), alpha)), ts
                    )
                    if tpl.extend is not None and self._eval(tpl.extend, env) is not True:
                        continue
                    if self._compute_and_extend(rt, inst, ts, env, emit=True):
                        progress = True
                    else:
                        undefined_skips.append((rt, inst))
        for rt, inst in undefined_skips:
            if (rt.name, inst.alpha) not in self._step_done:
                self._step_done.add((rt.name, inst.alpha))
                self._warn(
                    ts,
                    f"{_instance_name(rt.name, inst.alpha)}: undefined access "
                    "without a default; value skipped for this tick",
                )
        self._run_terminations(ts, due=set(due))
        self._verdicts.extend(self.evaluate_triggers(ts))
        self.verdicts_emitted += len(self._verdicts)
        return self._verdicts

    def _due(self, name: str, ts: Fraction) -> bool:
        clock = self.streams[name].tpl.clock
        k = Fraction(ts) * clock
        return k.denominator == 1 and k >= 1

    # -- extension ---------------------------------------------------------------

    def _compute_and_extend(
        self, rt: _StreamRT, inst: Instance, ts, env: _Env, emit: bool
    ) -> bool:
        """Evaluate the template expression and extend; returns False when the
        value is undefined (variable-rate steps warn immediately, fixed-rate
        steps retry until the tick's fixpoint)."""
        env.self_key = (rt.name, inst.alpha)
        value = self._eval(rt.tpl.expr, env)
        env.self_key = None
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
        value = self._coerce(rt, ts, value)
        inst.buf.append((ts, value))
        inst.ext_count += 1
        self.slots += 1
        self._prune_buffer(rt, inst, ts)
        for plan in rt.window_plans:
            w = inst.windows[plan.wkey]
            before = w.slot_count
            w.register(value, ts)
            self.slots += w.slot_count - before
        if self.slots > self.peak_slots:
            self.peak_slots = self.slots
        self._step_extended.setdefault(rt.name, []).append(inst.alpha)
        if emit:
            self._verdicts.append(
                Verdict(float(ts), "output", rt.name, inst.alpha, value)
            )
        for dependent in self.invoked_by[rt.name]:
            self._try_invoke(self.streams[dependent], ts)

    def _coerce(self, rt: _StreamRT, ts, value):
        if rt.value_ty is ValueType.DOUBLE:
            return float(value)
        if rt.value_ty is ValueType.INT:
            clamped, overflowed = saturate_i64(value)
            if overflowed:
                self._warn(
                    ts, f"{rt.name}: integer overflow, value saturated"
                )
            return clamped
        return value

    def _prune_buffer(self, rt: _StreamRT, inst: Instance, ts) -> None:
        plan = rt.buffer_plan
        buf = inst.buf
        keep = plan.count_keep
        horizon = None
        if plan.time_keep is not None:
            horizon = Fraction(ts) - plan.time_keep
        drop = 0
        n = len(buf)
        while n - drop > keep:
            if horizon is None:
                drop += 1
                continue
            # buf[drop] may be dropped only if the *next* entry still covers
            # the horizon (sample-and-hold needs one value at or before it)
            if buf[drop + 1][0] <= horizon:
                drop += 1
            else:
                break
        if drop:
            del buf[:drop]
            self.slots -= drop

    def _try_invoke(self, rt: _StreamRT, ts) -> None:
        tpl = rt.tpl
        if tpl is None or tpl.invoke is None:
            return
        invoke = tpl.invoke
        env = _Env({}, ts)
        if isinstance(invoke, TupleExpr):
            values = []
            for item in invoke.items:
                v = self._eval(item, env)
                if v is UNDEFINED:
                    return
                values.append(v)
            alpha = tuple(values)
        else:
            v = self._eval(invoke, env)
            if v is UNDEFINED:
                return
            alpha = (v,)
        if alpha in rt.instances:
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

    def _run_terminations(self, ts, due: Optional[set[str]]) -> None:
        for name in self._with_terminate:
            rt = self.streams[name]
            tpl = rt.tpl
            plan = rt.ter_plan
            if due is not None and tpl.clock is not None:
                # fixed-rate step: a clocked template checks terminate on its
                # own ticks
                if name not in due:
                    continue
                candidates = sorted(rt.instances.keys())
            elif tpl.clock is not None:
                continue  # clocked templates terminate on ticks only
            else:
                if not (plan.gate & self._step_extended.keys()):
                    continue
                if plan.mode == "scan":
                    candidates = sorted(rt.instances.keys())
                else:
                    candidates = self._candidates(rt, plan)
            for alpha in candidates:
                inst = rt.instances.get(alpha)
                if inst is None:
                    continue
                env = _Env(dict(zip((p.name for p in tpl.params), alpha)), ts)
                if self._eval(tpl.terminate, env) is True:
                    dropped = rt.drop_instance(alpha)
                    self.slots -= len(dropped.buf)
                    self.slots -= sum(
                        w.slot_count for w in dropped.windows.values()
                    )
                    self._step_terminated.setdefault(name, []).append(alpha)

    def _candidates(self, rt: _StreamRT, plan: _CondPlan) -> list[tuple]:
        """Instances a lifecycle condition can currently select, found without
        iterating the instance map."""
        k = len(rt.tpl.params)
        found: set[tuple] = set()
        for d in plan.disjuncts:
            values = []
            ok = True
            for inp in d.inputs:
                v = self._latest(inp)
                if v is UNDEFINED:
                    ok = False
                    break
                values.append(v)
            if not ok:
                continue
            if d.full:
                alpha_parts = [None] * k
                for pos, v in zip(d.positions, values):
                    alpha_parts[pos] = v
                alpha = tuple(alpha_parts)
                if alpha in rt.instances:
                    found.add(alpha)
            else:
                bucket = rt.indexes[d.positions].get(tuple(values))
                if bucket:
                    found.update(bucket)
        return sorted(found)

    def _latest(self, stream: str):
        inst = self.streams[stream].instances.get(())
        if inst is None or not inst.buf:
            return UNDEFINED
        return inst.buf[-1][1]

    # -- triggers --------------------------------------------------------------------

    def evaluate_triggers(self, ts) -> list[Verdict]:
        """Check triggers whose targets were touched during the current step."""
        touched = (
            self._step_extended.keys()
            | self._step_invoked.keys()
            | self._step_terminated.keys()
        )
        out: list[Verdict] = []
        for trig, gate in zip(self.tspec.spec.triggers, self._trigger_gates):
            if not (gate & touched):
                continue
            verdict = self._check_trigger(trig, ts)
            if verdict is not None:
                out.append(verdict)
        return out

    def _check_trigger(self, trig: TriggerDecl, ts) -> Optional[Verdict]:
        if trig.kind is TriggerKind.COUNT:
            rt = self.streams[trig.count_stream]
            n = len(rt.instances)
            if _CMP[trig.count_cmp](n, trig.count_value):
                message = trig.message or (
                    f"count({trig.count_stream}) {trig.count_cmp} "
                    f"{trig.count_value}"
                )
                return Verdict(float(ts), "trigger", trig.count_stream, None, n, message)
            return None
        if trig.kind is TriggerKind.ANY:
            scope_rt = self.streams[trig.scope]
            extended = self._step_extended.get(trig.scope, ())
            for alpha in sorted(set(extended)):
                inst = scope_rt.instances.get(alpha)
                if inst is None:
                    continue
                env = _Env(
                    dict(zip((p.name for p in scope_rt.tpl.params), alpha)),
                    ts,
                    scope_name=trig.scope,
                    scope_inst=inst,
                )
                if self._eval(trig.condition, env) is True:
                    return Verdict(
                        float(ts),
                        "trigger",
                        trig.scope,
                        alpha,
                        True,
                        trig.message or self._describe_trigger(trig),
                    )
            return None
        if self._eval(trig.condition, _Env({}, ts)) is True:
            return Verdict(
                float(ts),
                "trigger",
                None,
                None,
                True,
                trig.message or self._describe_trigger(trig),
            )
        return None

    def _describe_trigger(self, trig: TriggerDecl) -> str:
        from .parser import _expr_str

        text = _expr_str(trig.condition)
        if trig.kind is TriggerKind.ANY:
            return f"any({text})"
        return text

    def _warn(self, ts, message: str) -> None:
        self._verdicts.append(Verdict(float(ts), "warning", message=message))

    # -- expression evaluation ----------------------------------------------------------

    def _eval(self, expr: Expr, env: _Env):
        match expr:
            case Const(value=v):
                return v
            case ParamRef(name=name):
                return env.alpha[name]
            case StreamAccess():
                return self._eval_access(expr, env)
            case WindowAccess():
                return self._eval_window(expr, env)
            case Default(inner=inner, fallback=fb):
                v = self._eval(inner, env)
                if v is UNDEFINED:
                    return self._eval(fb, env)
                return v
            case Unary(op=op, operand=operand):
                v = self._eval(operand, env)
                if v is UNDEFINED:
                    return UNDEFINED
                return (not v) if op == "!" else -v
            case Binary():
                return self._eval_binary(expr, env)
            case IfThenElse(cond=c, then_branch=t, else_branch=e):
                cv = self._eval(c, env)
                if cv is UNDEFINED:
                    return UNDEFINED
                return self._eval(t if cv else e, env)
            case FnCall(fn=fn, args=args):
                values = []
                for a in args:
                    v = self._eval(a, env)
                    if v is UNDEFINED:
                        return UNDEFINED
                    values.append(v)
                return self._eval_fn(expr, fn, values)
        raise EngineError([Diagnostic(f"cannot evaluate {expr!r}")])

    def _resolve_instance(self, stream: str, args: list[Expr], env: _Env):
        rt = self.streams[stream]
        if args:
            alpha = []
            for a in args:
                v = self._eval(a, env)
                if v is UNDEFINED:
                    return rt, None
                alpha.append(v)
            return rt, rt.instances.get(tuple(alpha))
        if env.scope_name == stream and rt.tpl is not None and rt.tpl.params:
            return rt, env.scope_inst
        return rt, rt.instances.get(())

    def _eval_access(self, access: StreamAccess, env: _Env):
        rt, inst = self._resolve_instance(access.stream, access.args, env)
        if inst is None:
            return UNDEFINED
        buf = inst.buf
        match access.offset:
            case DiscreteOffset(steps=0):
                return buf[-1][1] if buf else UNDEFINED
            case DiscreteOffset(steps=n):
                back = -n
                if env.self_key == (access.stream, inst.alpha):
                    # the value being computed occupies the latest slot
                    back -= 1
                if inst.ext_count <= back or len(buf) <= back:
                    return UNDEFINED
                return buf[-1 - back][1]
            case RealTimeOffset(seconds=d):
                cutoff = Fraction(env.ts) + d  # d is negative
                i = bisect_right(buf, cutoff, key=lambda entry: entry[0])
                if i == 0:
                    return UNDEFINED
                return buf[i - 1][1]
        raise EngineError([Diagnostic(f"bad offset {access.offset!r}")])

    def _eval_window(self, window: WindowAccess, env: _Env):
        rt, inst = self._resolve_instance(window.stream, window.args, env)
        if inst is None:
            return UNDEFINED
        w = inst.windows[window.wkey]
        before = w.slot_count
        value = w.evaluate(env.ts)
        self.slots += w.slot_count - before
        return value

    def _eval_binary(self, expr: Binary, env: _Env):
        op = expr.op
        if op == "&":
            left = self._eval(expr.left, env)
            if left is False:
                return False
            right = self._eval(expr.right, env)
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return left and right
        if op == "|":
            left = self._eval(expr.left, env)
            if left is True:
                return True
            right = self._eval(expr.right, env)
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return left or right
        left = self._eval(expr.left, env)
        if left is UNDEFINED:
            return UNDEFINED
        right = self._eval(expr.right, env)
        if right is UNDEFINED:
            return UNDEFINED
        if op in _CMP:
            return _CMP[op](left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if expr.ty is ValueType.INT:
                return left // right if right != 0 else UNDEFINED
            left, right = float(left), float(right)
            if right == 0.0:
                if left == 0.0:
                    return math.nan
                return math.copysign(math.inf, left) * math.copysign(1.0, right)
            return left / right
        if op == "%":
            if right == 0:
                return UNDEFINED
            return left % right
        raise EngineError([Diagnostic(f"unknown operator {op!r}")])

    @staticmethod
    def _eval_fn(node: FnCall, fn: str, values: list):
        if fn == "abs":
            return abs(values[0])
        if fn == "sqrt":
            x = float(values[0])
            return math.sqrt(x) if x >= 0 else math.nan
        result = min(values) if fn == "min" else max(values)
        if node.ty is ValueType.DOUBLE:
            return float(result)
        return result


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


def _param_input_atom(
    atom: Expr, positions: dict[str, int], tspec: TypedSpec
) -> Optional[tuple[int, str]]:
    if not (isinstance(atom, Binary) and atom.op == "="):
        return None
    for a, b in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(a, ParamRef)
            and a.name in positions
            and isinstance(b, StreamAccess)
            and not b.args
            and b.offset == DiscreteOffset(0)
            and b.stream in tspec.inputs
        ):
            return positions[a.name], b.stream
    return None


def run(
    tspec: TypedSpec,
    events: Iterable[Event],
    mode: str = "variable",
    **kwargs,
) -> Iterator[Verdict]:
    """Replay a trace through a fresh Monitor, yielding verdicts in time order."""
    monitor = Monitor(tspec, mode=mode, **kwargs)
    yield from monitor.run(events)
