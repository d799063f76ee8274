"""The source of the step kernels, written from named snippets.

`KernelWriter` writes a monitor's event kernel, kernel(m, ts, bindings), or
tick kernel, kernel(m, ts, tick) (see the `engine` module docstring), one
snippet a method: `trigger_function`, the step's trigger checks (`trigger`
each), a second function the kernel calls by `Monitor.evaluate_triggers`;
`event_checks`, refusing a bad event before anything changes; `due_ticks`,
the loop over the ticks due before an event; `feed`, an input's feed;
`extend`, a stream's extension (coercion, saturation, pruning, window
registration, slot charge, the store of v, bare unless an offset reads the
stream, extension record and invokes); `invoke`, and
`invokes_after` for an invoke placed after the last of several streams it
reads; `step`, a template's step (gate, instances by `find`, value);
`terminate`, a termination.

An instance's key, alpha, is its parameter's value when its template has
one parameter, the tuple of its values when it has more, and () when it
has none (`compiler.bare_key`, which every place that keys, reads or names
an instance asks). The tuple (alpha,) is built only where an instance
leaves the engine: a verdict's params, which are always a tuple, and the
undefined-value warning. A double key behaves as its 1-tuple did: -0.0
and 0.0 find each other, and a NaN key is found only by identity.

`find` visits what the plan of `engine.Monitor._cond_plan` selects: the
instance of a lookup key, the candidates of the partial indexes, or all.
A lookup key is the key of the inputs that an extend or terminate plan's
one full disjunct binds (`_CondPlan.key`), or that an invoke clause lists.
Each is one local k{n} per step that invokes, finds and reads by those
inputs share: a key of one input is built in its feed (and in its else
branch, by its value, if a lookup's block is not gated by the feed); any
other before the first block that reads it. A template keeping flat
entries and no index invokes by a store of () into its map, not by
`new_instance`: on bind-1e5, where five events in six invoke, that is
1.03x the events per second of calling it. An access by the reader's own
parameters in order reads through alpha. `find` splits a conjunctive
extend or terminate condition three ways: the `param = input` atoms of
int and bool parameters that the lookup bound are not written; conjuncts
reading no parameter and not the template itself are tested once, before
the lookup or scan; the rest per instance, in order. A double's atom stays,
as NaN != NaN though the lookup finds a NaN key by identity, and alpha is
then the instance's own (0.0 where the key holds -0.0). A condition with a
window keeps every conjunct per instance: a hoisted test that failed would
skip an evaluation, and with it the evictions the slot count records.

Every object the source reads is bound by name in `names`, so the source
depends on the spec's shape only. Bind order is part of the source: `bind`
names an object o{n}, n counting the names bound before it, so binding the
same objects in another order writes another source.
"""

from __future__ import annotations

import sys
from typing import Optional

from . import engine
from .analysis import BufferPlan, param_input_atom
from .ast import Binary, Expr, ParamRef, TriggerDecl, TriggerKind, TupleExpr, ValueType
from .ast import StreamAccess, WindowAccess, accesses, chain, operands, walk
from .compiler import NAMES, Compiler, _bind, bare_key, count_until, input_key, key_format
from .diagnostics import Diagnostic, EngineError, OutOfOrderError
from .parser import _expr_str
from .values import INT64_MAX, INT64_MIN, UNDEFINED, saturate_i64

_CLASSES = dict(BOOL={bool}, INT={int}, DOUBLE={int, float})
#: what an event kernel reads for an input the event does not bind
_MISSING = object()
#: a step's record of the extension of a stream without parameters
_PINNED = ((),)
_UNKNOWN = (
    "unknown input stream(s): {} (an event binds declared inputs only, "
    "never the time input)"
)


class KernelWriter:
    """Writes monitor m's event kernel, or with `tick` its tick kernel."""

    def __init__(self, m: engine.Monitor, tick: bool):
        self.m, self.tick = m, tick
        self.names = dict(_KERNEL_NAMES)
        self.code: list[str] = []
        decls = m.tspec.spec.inputs
        self.inputs = inputs = frozenset(d.name for d in decls)
        #: bindable input -> the local holding its value, or MISSING if unbound
        self.local = {d.name: f"v{k}" for k, d in enumerate(decls) if not d.is_time}
        self.timed = inputs - self.local.keys()  # the time input, fed in every event
        if tick:
            self.fed, every = [], len(m._clocks) > 1  # else every tick is due
            due = {
                rt: f"not tick % {self.bind(rt.period)}" if every else None
                for rt in m._clocked_order
            }
            self.templates = list(due.items())
            self.ends = [
                (rt, due[rt] if rt.period else self.changed(rt.ter_plan.gate))
                for rt in m._with_terminate
            ]
        else:
            self.fed = [m.streams[d.name] for d in decls]
            reach = set(inputs)  # the streams that can extend in an event step
            self.templates = []
            for rt in m._var_order:
                streams = rt.expr_gate if rt.ext_plan is None else rt.ext_plan.gate
                if not streams.isdisjoint(reach):
                    reach.add(rt.name)
                    self.templates.append((rt, self.gate(streams)))
            self.ends = [
                (rt, self.gate(rt.ter_plan.gate))
                for rt in m._with_terminate
                if rt.period is None and rt.ter_plan.gate & reach
            ]
        # the streams the step can invoke or terminate an instance of, and the
        # triggers reading one that it can change
        extending = self.fed + [rt for rt, _ in self.templates]
        self.moved = {dep.name for rt in extending for dep in rt.invokes}
        self.moved.update(rt.name for rt, _ in self.ends)
        can = self.moved.union(rt.name for rt in extending)
        triggers = m.tspec.spec.triggers
        self.triggers = [(t, reads) for t in triggers if (reads := _reads(t)) & can]
        # each invoke runs once per step: in the extension of the one stream
        # it reads that the step can extend, or after the last of several
        self.readers: dict[engine._StreamRT, list[engine._StreamRT]] = {}
        for rt in extending:
            for dep in rt.invokes:
                self.readers.setdefault(dep, []).append(rt)
        # lookup keys (see the module docstring): inputs -> the local k{n};
        # the (key, block condition) of each lookup, and dep -> the inputs
        # its invoke clause lists, if it lists inputs only
        uses = [(None if rt.period else rt.ext_plan, c) for rt, c in self.templates]
        uses += [(rt.ter_plan, c) for rt, c in self.ends]
        lookups = [(plan.key, c) for plan, c in uses if plan and plan.key]
        clauses = {dep: dep.tpl.invoke for dep in self.readers}
        self.invoked = {d: input_key(getattr(c, "items", [c]), m.streams) for d, c in clauses.items()}
        keys = [*filter(None, self.invoked.values()), *(k for k, _ in lookups)]
        self.keys = {k: f"k{n}" for n, k in enumerate(dict.fromkeys(keys))}
        #: built key -> the condition of the feed building it, None: every path
        self.built: dict[tuple, Optional[str]] = {}
        #: the keys of one input that a lookup reads in a block its feed does
        #: not gate: the feed's else branch builds them too
        self.otherwise = {k for k, c in lookups if c != self.gate({k[0]})}
        #: the condition of the block being written; whether a gate reads `touched`
        self.condition, self.touching = None, False

    def write(self) -> str:
        """The source: the trigger function, if any, then the kernel, whose
        `touched` set exists only when a trigger's gate reads it."""
        put, tick = self.put, self.tick
        head = "def kernel(m, ts, tick" if tick else "def kernel(m, ts, bindings"
        if self.triggers:
            self.trigger_function()
            head += ", triggers=triggers"  # a default: no cycle through the globals
        put(0, head + "):")
        if not tick:
            self.event_checks()
        put(1, "if m.clock_ts is not None and ts < m.clock_ts:")
        put(1, "    message = f'time regressed from {m.clock_ts} to {ts}'")
        put(1, "    raise OutOfOrderError([Diagnostic(message)])")
        put(1, "verdicts = []")
        if ticks := not tick and self.m._clocks:
            self.due_ticks()
        put(1, "m._verdicts = verdicts", "m.clock_ts = ts")
        put(1, "extended = m._step_extended = {}", *["touched = set()"] * self.touching)
        for rt in self.fed:
            self.feed(rt)
        # invoked instances of later templates extend within the same pass
        for rt, condition in self.templates:
            self.step(rt, condition)
        for rt, condition in self.ends:
            self.terminate(rt, condition)
        if self.triggers:
            touched = "touched" if self.touching else "None"  # no set read
            put(1, f"verdicts += m.evaluate_triggers(triggers, ts, extended, {touched})")
        put(1, f"m.verdicts_emitted += len(verdicts){' - ticked' if ticks else ''}")
        if not tick:
            put(1, "m.events_processed += 1")
        put(1, "return verdicts")
        return "\n".join(self.code)

    def bind(self, obj) -> str:
        return _bind(self.names, obj)

    def put(self, depth: int, *lines: str) -> None:
        self.code.extend("    " * depth + line for line in lines)

    def when(self, condition: Optional[str]) -> int:
        """Opens a block run when `condition` holds; returns its depth."""
        self.condition = condition
        if condition is None:
            return 1
        self.put(1, f"if {condition}:")
        return 2

    def source(self, expr: Expr, params=(), own=None, scope=None) -> str:
        """expr written inline, reading the kernel's alpha, ts, m and the
        lookup keys built on every path to the block being written."""
        return self.compiler(params, own, scope).source(expr, self.names)

    def holds(self, expr: Expr, params=(), scope=None) -> str:
        """The test that the condition expr holds, as `source` writes it:
        `is True`, which U and a flat entry's EMPTY both fail, so a flat
        entry read bare is tested as it is (`Compiler.truth`)."""
        return f"{self.compiler(params, None, scope).truth(expr, self.names)} is True"

    def compiler(self, params=(), own=None, scope=None) -> Compiler:
        """A compiler over the lookup keys built on every path to the block
        being written."""
        keys = {k: self.keys[k] for k, c in self.built.items() if c in (None, self.condition)}
        return Compiler(self.m.streams, params, own, scope, keys)

    def key(self, inputs: Optional[tuple]) -> Optional[str]:
        """The local of the key of `inputs`, if any, built here if not yet."""
        if inputs in self.keys and inputs not in self.built:
            self.put(1, f"{self.keys[inputs]} = {self.stored(inputs)}")
            self.built[inputs] = None
        return self.keys.get(inputs)

    def stored(self, inputs: tuple) -> str:
        """The key of `inputs` from their values, U while one has none."""
        return self.source(TupleExpr(items=[StreamAccess(stream=x) for x in inputs]))

    def changed(self, streams: frozenset, record: str = "extended") -> str:
        return f"not {self.bind(streams)}.isdisjoint({record})"

    def gate(self, streams: frozenset) -> Optional[str]:
        """Whether an event step fed or extended one of `streams`."""
        if streams & self.timed:
            return None
        tests = [f"{v} is not MISSING" for s, v in self.local.items() if s in streams]
        if streams - self.inputs:
            tests.append(self.changed(streams - self.inputs))
        return " or ".join(tests)

    def fired(self, reads: frozenset) -> Optional[str]:
        """A trigger's gate: whether the step changed one of `reads`."""
        if not self.tick and reads & self.timed:
            return None
        tests = [self.changed(reads)]
        if reads & self.moved:
            tests.append(self.changed(reads & self.moved, "touched"))
            self.touching = True
        return " or ".join(tests)

    def trigger_function(self) -> None:
        """triggers(m, ts, extended, touched): the step's trigger checks."""
        self.put(0, "def triggers(m, ts, extended, touched):", "    verdicts = []")
        for trig, reads in self.triggers:
            self.trigger(trig, reads)
        self.put(1, "return verdicts")

    def trigger(self, trig: TriggerDecl, reads: frozenset) -> None:
        """One trigger check; an any trigger's lowest witness wins."""
        bind, put, loop = self.bind, self.put, False
        if trig.kind is TriggerKind.ANY:  # checked for what its scope extended
            scope = self.m.streams[trig.scope]
            key = bind(scope.name)
            held = self.holds(trig.condition, scope.tpl.params, scope=scope.name)
            if scope.pinned is not None:  # its one instance, () the witness
                depth, test = self.when(f"{key} in extended"), held
                fields = f"{key}, (), True"
            else:
                put(1, f"alphas = extended.get({key})", "if alphas:")
                alphas = "alphas if len(alphas) == 1 else sorted(set(alphas))"
                put(2, f"for alpha in {alphas}:")
                loop, depth = True, 3
                test = f"alpha in {bind(scope.instances)} and {held}"
                fields = f"{key}, {_params(scope, 'alpha')}, True"
            default = f"any({_expr_str(trig.condition)})"
        elif trig.kind is TriggerKind.COUNT:
            rt, depth = self.m.streams[trig.count_stream], self.when(self.fired(reads))
            holds = "==" if trig.count_cmp == "=" else trig.count_cmp
            test = f"(n := len({bind(rt.instances)})) {holds} {bind(trig.count_value)}"
            fields = f"{bind(rt.name)}, None, n"
            default = f"count({rt.name}) {trig.count_cmp} {trig.count_value}"
        else:
            depth = self.when(self.fired(reads))
            test = self.holds(trig.condition)
            fields, default = "None, None, True", _expr_str(trig.condition)
        message = bind(trig.message or default)
        verdict = f"VERDICT(float(ts), 'trigger', {fields}, {message})"
        put(depth, f"if {test}:", f"    verdicts.append({verdict})")
        if loop:
            put(depth, "    break")

    def event_checks(self) -> None:
        """Refuses an event binding an unknown name, a timestamp that is no
        finite number (it would tick forever) or a value of a wrong class."""
        bind, put = self.bind, self.put
        for name, v in self.local.items():
            put(1, f"{v} = bindings.get({bind(name)}, MISSING)")
        bindable, unknown = bind(frozenset(self.local)), bind(_UNKNOWN)
        put(1, f"if not bindings.keys() <= {bindable}:")
        put(1, f"    names = ', '.join(sorted(bindings.keys() - {bindable}))")
        put(1, f"    raise EngineError([Diagnostic({unknown}.format(names))])")
        put(1, "if ts.__class__ not in TIMES or not -MAX_TIME <= ts <= MAX_TIME:")
        put(1, "    message = f'timestamp {ts!r} is no finite number'")
        put(1, "    raise EngineError([Diagnostic(message)])")
        for name, v in self.local.items():
            ty = self.m.streams[name].value_ty
            ok, got = bind(_CLASSES[ty.name]), bind(f"input {name} ({ty.value}) got ")
            put(1, f"if {v}.__class__ not in {ok} and {v} is not MISSING:")
            put(1, f"    raise EngineError([Diagnostic({got} + repr({v}))])")

    def due_ticks(self) -> None:
        """Runs the ticks due at or before ts, refusing one too far ahead."""
        m, bind, put = self.m, self.bind, self.put
        if m._dyadic:  # ts * D is exact (or inf, which the guard refuses)
            put(1, f"last = ts * {m._grid}" if m._grid > 1 else "last = ts")
        else:
            put(1, "n, d = ts.as_integer_ratio()", f"last = n * {m._grid} // d")
        fastest = m._clocks[0]  # the guard: at most MAX_TICKS of its ticks
        c, most = bind(fastest), bind(engine.MAX_TICKS * fastest[1])
        put(1, f"if last >= {c}[0] + {most}:", f"    raise {bind(_far_ahead)}(m, ts)")
        if len(m._clocks) == 1:  # one comparison per event
            put(1, f"while (t := {c}[0]) <= last:", f"    {c}[0] = t + {c}[1]")
        else:
            c = bind(m._clocks)
            put(1, f"while (t := min([c[0] for c in {c}])) <= last:")
            put(2, f"for c in {c}:", "    if c[0] == t:", "        c[0] = t + c[1]")
        put(2, "verdicts += m.fixed_rate_step(t)")
        put(1, "ticked = len(verdicts)")

    def feed(self, rt: engine._StreamRT) -> None:
        """Extends input rt by its value in the event, the time input by ts."""
        v = self.local.get(rt.name)
        depth = self.when(f"{v} is not MISSING" if v else None)
        self.put(depth, f"v = {v}" if v else "v = float(ts)")
        self.extend(depth, rt, self.bind(rt.instances[()]), "()", coerce=v is not None)
        if otherwise := [k for k in self.otherwise if {*k} == {rt.name} and v]:
            self.put(1, "else:")
        for k in otherwise:
            self.put(2, f"{self.keys[k]} = {self.stored(k)}")
            self.built[k] = None
        self.invokes_after(rt)

    def extend(self, depth: int, rt, inst: str, alpha: str, coerce=True) -> None:
        """Extends instance `inst` of rt, whose parameters are `alpha`, by the
        value v, builds the keys of input rt alone and runs the invokes
        reading rt (see `readers`)."""
        bind, put = self.bind, self.put
        key, plan = bind(rt.name), rt.buffer_plan
        if rt.value_ty is ValueType.DOUBLE and coerce:
            put(depth, "v = float(v)")
        elif rt.value_ty is ValueType.INT:
            warning = bind(f"{rt.name}: integer overflow, value saturated")
            put(depth, "if not MIN <= v <= MAX:", "    v = saturate(v)")
            put(depth, f"    m._warn(ts, {warning})")
        b, unset = f"b = {inst}.buf", _unset(rt, inst)
        if plan.time_keep is not None:  # prune by time
            put(depth, b, "b.append((ts, v))", f"d = expired({bind(plan)}, b, ts)")
            put(depth, "if d > 0:", "    del b[:d]", "g = 1 - max(d, 0)")
        elif rt.history:  # prune by count
            put(depth, b, "b.append((ts, v))")
            put(depth, f"if len(b) > {bind(plan.count_keep)}:", "    del b[0]")
            put(depth, "    g = 0", "else:", "    g = 1")
        elif rt.window_plans:  # else the one value, held bare, is charged below
            put(depth, f"g = 1 if {unset} else 0")
        if rt.pinned is not None:  # its windows are bound by name
            for w in rt.pinned.windows.values():
                put(depth, f"g += {bind(w)}.register(v, ts)")
        elif rt.window_plans:
            put(depth, f"w = {inst}.windows")
            for wkey in rt.window_plans:
                put(depth, f"g += w[{bind(wkey)}].register(v, ts)")
        # g, else the one slot of a bare value that had none
        test, g = ("g", "g") if rt.history or rt.window_plans else (unset, "1")
        put(depth, f"if {test}:", f"    s = m.slots = m.slots + {g}")
        put(depth, "    if s > m.peak_slots:", "        m.peak_slots = s")
        put(depth, f"{bind(rt.instances)}[{alpha}] = v" if rt.flat else f"{inst}.value = v")
        if rt.tpl is None or not rt.tpl.params:  # extends once per step
            put(depth, f"extended[{key}] = PINNED")
        else:
            put(depth, f"extended.setdefault({key}, []).append({alpha})")
        if self.tick:
            output = f"VERDICT(float(ts), 'output', {key}, {_params(rt, alpha)}, v)"
            put(depth, f"verdicts.append({output})")
        for k in (k for k in self.keys if {*k} == {rt.name}):
            put(depth, f"{self.keys[k]} = " + key_format(len(k)).format(*["v"] * len(k)))
            self.built[k] = self.condition
        for dep in rt.invokes:
            if len(self.readers[dep]) == 1:
                self.invoke(depth, dep)

    def invoke(self, depth: int, dep: engine._StreamRT) -> None:
        """Evaluates dep's invoke clause and invokes the instance it names if
        that is new, warning once past dep's declared instance bound."""
        bind, put = self.bind, self.put
        instances = bind(dep.instances)
        if (key := self.key(inputs := self.invoked[dep])) is None:
            put(depth, f"a = {self.source(dep.tpl.invoke)}")
        a, defined = key or "a", key and self.built[inputs]  # fed here: v or (v, ...)
        put(depth, f"if {'' if defined else f'{a} is not U and '}{a} not in {instances}:")
        if dep.flat and not dep.indexes:  # no Instance and no index to fill
            put(depth, f"    {instances}[{a}] = ()")
        else:
            put(depth, f"    {bind(dep.new_instance)}({a})")
        if self.touching:
            put(depth, f"    touched.add({bind(dep.name)})")
        if dep.eta_bound is not None:
            d, bound = bind(dep), bind(dep.eta_bound)
            message = bind(
                f"{dep.name}: live instances exceed the declared bound "
                f"{dep.eta_bound}; the static memory total no longer applies"
            )
            put(depth, f"    if len({instances}) > {bound} and not {d}.eta_warned:")
            put(depth, f"        {d}.eta_warned = True")
            put(depth, f"        m._warn(ts, {message})")

    def invokes_after(self, rt: engine._StreamRT) -> None:
        """The invokes reading several streams the step can extend, rt last."""
        for dep in rt.invokes:
            streams = self.readers[dep]
            if len(streams) > 1 and streams[-1] is rt:
                names = frozenset(s.name for s in streams)
                self.key(self.invoked[dep])
                self.invoke(self.when(self.changed(names)), dep)

    def step(self, rt: engine._StreamRT, condition: Optional[str]) -> None:
        """Extends the instances of template rt that its extend condition
        selects, when `condition` holds."""
        plan = None if rt.period else rt.ext_plan
        depth, loop = self.find(condition, rt, plan, rt.tpl.extend)
        value = self.source(rt.tpl.expr, rt.tpl.params, rt.name)
        undefined = f"    m._warn(ts, undefined({self.bind(rt.name)}, {_params(rt, 'alpha')}))"
        self.put(depth, f"v = {value}", "if v is U:", undefined, "else:")
        if loop:
            self.put(depth + 1, f"i = {self.bind(rt.instances)}[alpha]")
        self.extend(depth + 1, rt, "i", "alpha")
        self.invokes_after(rt)

    def terminate(self, rt: engine._StreamRT, condition: Optional[str]) -> None:
        """Drops each instance of rt whose terminate condition holds."""
        put = self.put
        depth, _ = self.find(condition, rt, rt.ter_plan, rt.tpl.terminate)
        refund = "len(d.buf)" if rt.history else f"0 if {_unset(rt, 'd')} else 1"
        put(depth, f"d = {self.bind(rt.drop_instance)}(alpha)", f"m.slots -= {refund}")
        if rt.window_plans:
            put(depth, "m.slots -= sum(w.slot_count for w in d.windows.values())")
        if self.touching:
            put(depth, f"touched.add({self.bind(rt.name)})")

    def split(self, rt, cond: Optional[Expr], plan) -> tuple[list, Optional[Expr]]:
        """The conjuncts of cond tested once per step, and the conjunction of
        those tested per instance, None if none (see the module docstring)."""
        top = getattr(cond, "op", None) == "&"
        conjuncts = operands(chain(cond)) if top else [cond] if cond else []
        pairs = zip(rt.tpl.params, plan.key if plan and plan.key else ())
        decided = {(p.name, x) for p, x in pairs if p.ty is not ValueType.DOUBLE}
        kept = [c for c in conjuncts if param_input_atom(c, self.m.tspec) not in decided]
        pure = not any(isinstance(n, WindowAccess) for c in kept for n in walk(c))
        once = [c for c in kept if pure and not any(_reads_param(n, rt.name) for n in walk(c))]
        each = [c for c in kept if c not in once]
        if each and len(each) < len(conjuncts):  # a chain of its own
            cond = each[0]
            for c in each[1:]:
                cond = Binary(op="&", left=cond, right=c)
        return once, cond if each else None

    def find(self, condition, rt, plan: Optional[engine._CondPlan], cond) -> tuple:
        """Opens a block run when `condition` holds, visiting as alpha each
        live instance of rt that `plan` selects (None: all) and lifecycle
        condition `cond` holds, i outside a loop; returns (depth, loops)."""
        bind, put = self.bind, self.put
        instances, params = bind(rt.instances), rt.tpl.params
        once, each = self.split(rt, cond, plan)
        key = self.key(plan and plan.key)  # built before the block if not yet
        depth = self.when(condition)
        if once:
            tests = " and ".join(self.holds(c, params) for c in once)
            put(depth, f"if {tests}:")
            depth += 1
        loop = False
        if key is not None or not params and rt.pinned is None:
            put(depth, f"alpha = {key or '()'}", f"i = {instances}.get(alpha)")
            put(depth, "if i is not None:")
            depth += 1
        elif rt.pinned is not None:  # it lives for the whole trace
            put(depth, "alpha = ()", f"i = {bind(rt.pinned)}")
        else:
            found = f"sorted({instances})" if plan else f"list({instances})"
            if plan and plan.disjuncts:
                found = f"candidates({bind(rt)}, {bind(plan)})"
            put(depth, f"for alpha in {found}:")
            depth, loop = depth + 1, True
        if key is not None and any(p.ty is ValueType.DOUBLE for p in params):
            put(depth, "alpha = i.alpha")  # an equal key may be -0.0 for 0.0
        if each is not None:
            put(depth, f"if {self.holds(each, params)}:")
            depth += 1
        return depth, loop


def _params(rt: engine._StreamRT, alpha: str) -> str:
    """The params, a tuple, that a verdict or warning gives rt's instance
    keyed by `alpha` (see the module docstring)."""
    return f"({alpha},)" if bare_key(len(rt.tpl.params)) else alpha


def _unset(rt: engine._StreamRT, inst: str) -> str:
    """The test, as source, that `inst`, a live instance of rt, has no value."""
    return f"{inst} is EMPTY" if rt.flat else f"{inst}.value is U"


def _reads_param(node: Expr, own: str) -> bool:
    """Whether node is a parameter or an access to the stream `own`."""
    return isinstance(node, ParamRef) or getattr(node, "stream", None) == own


def _reads(trig: TriggerDecl) -> frozenset[str]:
    """The streams whose change in a step can change the trigger's verdict."""
    if trig.kind is TriggerKind.COUNT:
        return frozenset([trig.count_stream])
    return frozenset(node.stream for node in accesses(trig.condition))


def _far_ahead(m: engine.Monitor, ts) -> EngineError:
    """The error for an event at ts that more than MAX_TICKS ticks of the
    monitor's fastest clock precede, naming how many."""
    n, d = ts.as_integer_ratio()
    next_tick, period = m._clocks[0]
    count = (n * m._grid // d - next_tick) // period + 1
    message = (
        f"timestamp {ts!r} lies {count} clock ticks ahead; "
        f"a replay runs at most {engine.MAX_TICKS} before one event"
    )
    return EngineError([Diagnostic(message)])


def _candidates(rt: engine._StreamRT, plan: engine._CondPlan) -> list:
    """The live instances a lookup plan can select, found through the
    indexes without iterating the instance map."""
    found: set[tuple] = set()
    for d in plan.disjuncts:
        key = tuple(i.value for i in d.inputs)
        if UNDEFINED not in key:
            if not d.full:  # of two or more parameters
                found.update(rt.indexes[d.positions].get(key, ()))
                continue
            key = key[0] if bare_key(len(key)) else key  # an instance's key
            if (i := rt.instances.get(key)) is not None:  # key names the alpha
                found.add(key if rt.flat else i.alpha)  # a double's may be -0.0
    return sorted(found)


def _expired(plan: BufferPlan, buf: list, ts) -> int:
    """How many of the oldest buffered values lie beyond the horizon ts -
    time_keep, zero or less when none: a value goes only if the next one lies
    at or before it (sample-and-hold), and count_keep values stay."""
    n, d = ts.as_integer_ratio()
    kn, kd = plan.time_keep.numerator, plan.time_keep.denominator
    held = count_until(buf, n * kd - kn * d, d * kd)  # at or before ts - keep
    return min(held - 1, len(buf) - plan.count_keep)


def _undefined(stream: str, alpha: tuple) -> str:
    """The warning for an undefined value of the instance alpha of stream."""
    name = f"{stream}({', '.join(map(repr, alpha))})" if alpha else stream
    return f"{name}: undefined access without a default; value skipped"


#: what every step kernel reads by name, besides what it binds
_KERNEL_NAMES = dict(
    NAMES,
    MISSING=_MISSING,
    PINNED=_PINNED,
    VERDICT=engine.Verdict,
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
