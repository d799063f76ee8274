"""Reference evaluator used as an independent oracle in tests.

Deliberately structured nothing like the engine: every stream instance keeps
its full value history, sliding windows are aggregated directly from raw
samples over (ts - r, ts], instances are found by scanning all of them, and
same-instant dependencies are settled by demand-driven recursion instead of
a precomputed evaluation order.
"""

from __future__ import annotations

import csv
import math
import statistics
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction

from streammon.ast import (
    AggFn,
    Binary,
    Const,
    Default,
    DiscreteOffset,
    FnCall,
    IfThenElse,
    ParamRef,
    RealTimeOffset,
    StreamAccess,
    TriggerKind,
    TupleExpr,
    Unary,
    ValueType,
    WindowAccess,
    accesses,
    chain,
)
from streammon.diagnostics import Diagnostic, TraceError
from streammon.engine import Event

UNDEF = object()


class RefInstance:
    def __init__(self, alpha):
        self.alpha = alpha
        self.history: list[tuple] = []  # (ts, value), full, never pruned


class RefMonitor:
    """Pane-free reference semantics for a typed specification."""

    def __init__(self, tspec, mode="variable", frequency=None):
        if mode == "fixed":  # clocked copies of the unclocked templates
            outputs = [
                replace(tpl, clock=Fraction(frequency)) if tpl.clock is None else tpl
                for tpl in tspec.spec.outputs
            ]
            tspec = replace(tspec, spec=replace(tspec.spec, outputs=outputs))
        self.tspec = tspec
        self.templates = {t.name: t for t in tspec.spec.outputs}
        self.inputs = {d.name: d for d in tspec.spec.inputs}
        self.live: dict[str, dict[tuple, RefInstance]] = {}
        for name in list(self.inputs) + list(self.templates):
            self.live[name] = {}
            tpl = self.templates.get(name)
            if tpl is None or not tpl.params:
                self.live[name][()] = RefInstance(())
        self.verdicts: list[tuple] = []
        self._freqs = sorted(
            {t.clock for t in tspec.spec.outputs if t.clock is not None}
        )
        self._next_k = {f: 1 for f in self._freqs}

    # -- driving ---------------------------------------------------------

    def run(self, events):
        for ev in events:
            while self._freqs:
                due_ts = min(k / f for f, k in self._next_k.items())
                if due_ts > ev.ts:
                    break
                self._fixed_step(due_ts)
                for f in self._freqs:
                    if self._next_k[f] / f == due_ts:
                        self._next_k[f] += 1
            self._var_step(ev)
        return self.verdicts

    def trigger_times(self):
        return [v[1] for v in self.verdicts if v[0] == "trigger"]

    # -- shared step plumbing ----------------------------------------------

    def _begin(self, ts, emit_outputs):
        self.ts = ts
        self.emit_outputs = emit_outputs
        self.extended: dict[str, list[tuple]] = {}
        self.invoked: dict[str, list[tuple]] = {}
        self.terminated: dict[str, list[tuple]] = {}
        self.decided: dict[tuple, bool] = {}  # (name, alpha) -> extended?
        self.visiting: set[tuple] = set()
        self.due: set[str] = set()
        self.in_flight: tuple | None = None

    def _note_extend(self, name, alpha, value):
        self.live[name][alpha].history.append((self.ts, value))
        self.extended.setdefault(name, []).append(alpha)

    def _var_step(self, ev):
        self._begin(ev.ts, emit_outputs=False)
        for decl in self.tspec.spec.inputs:
            if decl.is_time:
                self._note_extend(decl.name, (), float(ev.ts))
            elif decl.name in ev.bindings:
                self._note_extend(decl.name, (), ev.bindings[decl.name])
        self._closure()
        self._terminations()
        self._triggers()

    def _fixed_step(self, ts):
        self._begin(ts, emit_outputs=True)
        self.due = {
            name
            for name, tpl in self.templates.items()
            if tpl.clock is not None
            and (Fraction(ts) * tpl.clock).denominator == 1
            and Fraction(ts) * tpl.clock >= 1
        }
        self._closure()
        self._terminations()
        self._triggers()

    def _closure(self):
        changed = True
        while changed:
            changed = False
            for name, tpl in self.templates.items():
                if tpl.invoke is not None and self._gate(tpl.invoke):
                    alpha = self._invoke_value(tpl)
                    if alpha is not None and alpha not in self.live[name]:
                        self.live[name][alpha] = RefInstance(alpha)
                        self.invoked.setdefault(name, []).append(alpha)
                        changed = True
                for alpha in sorted(self.live[name].keys()):
                    key = (name, alpha)
                    if key in self.decided:
                        continue
                    if self._settle(name, alpha):
                        changed = True

    def _gate(self, expr) -> bool:
        return any(node.stream in self.extended for node in accesses(expr))

    def _invoke_value(self, tpl):
        items = (
            tpl.invoke.items
            if isinstance(tpl.invoke, TupleExpr)
            else [tpl.invoke]
        )
        values = []
        for item in items:
            v = self._eval(item, {})
            if v is UNDEF:
                return None
            values.append(v)
        return tuple(values)

    # -- extension by demand-driven settling ----------------------------------

    def _should_tick(self, name, alpha) -> bool:
        tpl = self.templates[name]
        env = dict(zip((p.name for p in tpl.params), alpha))
        if tpl.clock is not None:
            if name not in self.due:
                return False
            return tpl.extend is None or self._eval(tpl.extend, env) is True
        if tpl.params and tpl.extend is not None:
            return self._gate(tpl.extend) and self._eval(tpl.extend, env) is True
        if not self._gate_current(tpl):
            return False
        if tpl.extend is not None and self._eval(tpl.extend, env) is not True:
            return False
        return True

    def _gate_current(self, tpl) -> bool:
        """A plain stream ticks when any stream in its expression extended;
        same-instant dependencies must be settled before asking."""
        for node in accesses(tpl.expr):
            target = node.stream
            if target in self.templates:
                for beta in sorted(self.live[target].keys()):
                    self._settle(target, beta)
            if target in self.extended:
                return True
        return False

    def _settle(self, name, alpha) -> bool:
        """Extend (name, alpha) if it ticks this step; returns whether it
        extended. Safe to call repeatedly."""
        key = (name, alpha)
        if key in self.decided:
            return self.decided[key]
        if key in self.visiting:
            return False  # cycle through a same-instant reference
        if name not in self.templates or alpha not in self.live[name]:
            return False
        self.visiting.add(key)
        try:
            if not self._should_tick(name, alpha):
                # leave undecided: a later extension may still make it tick
                return False
            tpl = self.templates[name]
            env = dict(zip((p.name for p in tpl.params), alpha))
            previous = self.in_flight
            self.in_flight = key
            try:
                value = self._eval(tpl.expr, env)
            finally:
                self.in_flight = previous
            if value is UNDEF:
                self.decided[key] = False
                return False
            if tpl.ty is ValueType.DOUBLE:
                value = float(value)
            self.decided[key] = True
            self._note_extend(name, alpha, value)
            if self.emit_outputs:
                self.verdicts.append(("output", float(self.ts), name, alpha, value))
            return True
        finally:
            self.visiting.discard(key)

    # -- termination and triggers -----------------------------------------------

    def _terminations(self):
        for name, tpl in self.templates.items():
            if tpl.terminate is None:
                continue
            if tpl.clock is not None:
                if name not in self.due:
                    continue
            elif not self._gate(tpl.terminate):
                continue
            for alpha in sorted(self.live[name].keys()):
                env = dict(zip((p.name for p in tpl.params), alpha))
                if self._eval(tpl.terminate, env) is True:
                    del self.live[name][alpha]
                    self.terminated.setdefault(name, []).append(alpha)

    def _triggers(self):
        touched = (
            self.extended.keys() | self.invoked.keys() | self.terminated.keys()
        )
        for trig in self.tspec.spec.triggers:
            if trig.kind is TriggerKind.COUNT:
                if trig.count_stream not in touched:
                    continue
                n = len(self.live[trig.count_stream])
                if _cmp(trig.count_cmp, n, trig.count_value):
                    self.verdicts.append(
                        ("trigger", float(self.ts), trig.count_stream, None, n)
                    )
                continue
            deps = {node.stream for node in accesses(trig.condition)}
            if not (deps & touched):
                continue
            if trig.kind is TriggerKind.ANY:
                scope = trig.scope
                tpl = self.templates[scope]
                for alpha in sorted(set(self.extended.get(scope, ()))):
                    if alpha not in self.live[scope]:
                        continue
                    env = dict(zip((p.name for p in tpl.params), alpha))
                    if (
                        self._eval(trig.condition, env, scope=(scope, alpha))
                        is True
                    ):
                        self.verdicts.append(
                            ("trigger", float(self.ts), scope, alpha, True)
                        )
                        break
            else:
                if self._eval(trig.condition, {}) is True:
                    self.verdicts.append(
                        ("trigger", float(self.ts), None, None, True)
                    )

    # -- expression evaluation ------------------------------------------------------

    def _history(self, name, alpha):
        inst = self.live[name].get(alpha)
        return inst.history if inst is not None else None

    def _eval(self, expr, env, scope=None):
        ts = self.ts
        match expr:
            case Const(value=v):
                return v
            case ParamRef(name=name):
                return env[name]
            case StreamAccess(stream=s, args=args, offset=off):
                if scope is not None and s == scope[0] and not args:
                    alpha = scope[1]
                else:
                    alpha = []
                    for a in args:
                        v = self._eval(a, env, scope)
                        if v is UNDEF:
                            return UNDEF
                        alpha.append(v)
                    alpha = tuple(alpha)
                if s in self.templates:
                    self._settle(s, alpha)
                hist = self._history(s, alpha)
                if hist is None or not hist:
                    return UNDEF
                match off:
                    case DiscreteOffset(steps=0):
                        return hist[-1][1]
                    case DiscreteOffset(steps=n):
                        back = -n
                        if self.in_flight == (s, alpha):
                            back -= 1  # the value being computed is the latest
                        return hist[-1 - back][1] if len(hist) > back else UNDEF
                    case RealTimeOffset(seconds=d):
                        cutoff = Fraction(ts) + d
                        i = bisect_right(hist, cutoff, key=lambda e: e[0])
                        return hist[i - 1][1] if i else UNDEF
            case WindowAccess(stream=s, args=args, duration=r, agg=agg):
                alpha = []
                for a in args:
                    v = self._eval(a, env, scope)
                    if v is UNDEF:
                        return UNDEF
                    alpha.append(v)
                if s in self.templates:
                    self._settle(s, tuple(alpha))
                hist = self._history(s, tuple(alpha))
                if hist is None:
                    return UNDEF
                lo = Fraction(ts) - r
                samples = [(t, v) for t, v in hist if lo < Fraction(t) <= ts]
                return _aggregate(agg, samples, expr.ty)
            case Default(inner=inner, fallback=fb):
                v = self._eval(inner, env, scope)
                return self._eval(fb, env, scope) if v is UNDEF else v
            case Unary(op=op, operand=x):
                v = self._eval(x, env, scope)
                if v is UNDEF:
                    return UNDEF
                return (not v) if op == "!" else -v
            case Binary():
                # a left-deep run of one level, folded left to right
                run = chain(expr)
                lv = self._eval(run[0].left, env, scope)
                for node in run:
                    if node.op == "&" and lv is False or node.op == "|" and lv is True:
                        continue  # short-circuit: the right operand is not read
                    rv = self._eval(node.right, env, scope)
                    if lv is not UNDEF:
                        lv = UNDEF if rv is UNDEF else _binop(node.op, lv, rv, node.ty)
                return lv
            case IfThenElse(cond=c, then_branch=t, else_branch=e):
                cv = self._eval(c, env, scope)
                if cv is UNDEF:
                    return UNDEF
                return self._eval(t if cv else e, env, scope)
            case FnCall(fn=fn, args=args):
                vals = []
                for a in args:
                    v = self._eval(a, env, scope)
                    if v is UNDEF:
                        return UNDEF
                    vals.append(v)
                if fn == "abs":
                    return abs(vals[0])
                if fn == "sqrt":
                    return vals[0] ** 0.5 if vals[0] >= 0 else float("nan")
                if any(v != v for v in vals):
                    return float("nan")  # NaN wins, as in window min/max
                picked = min(vals) if fn == "min" else max(vals)
                return float(picked) if expr.ty is ValueType.DOUBLE else picked
        raise AssertionError(f"cannot evaluate {expr!r}")


def _cmp(op, a, b):
    return {
        "=": a == b,
        "!=": a != b,
        "<": a < b,
        "<=": a <= b,
        ">": a > b,
        ">=": a >= b,
    }[op]


def _binop(op, a, b, ty):
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return _cmp(op, a, b)
    if op == "&":
        return a and b
    if op == "|":
        return a or b
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if ty is ValueType.INT:
            return a // b if b != 0 else UNDEF
        if float(b) == 0.0:
            # IEEE 754: the sign of a zero divisor counts, 0/0 and NaN/0 are NaN
            if a == 0 or a != a:
                return float("nan")
            negative = (a < 0) != (math.copysign(1.0, b) < 0)
            return float("-inf") if negative else float("inf")
        return a / b
    if op == "%":
        return a % b if b != 0 else UNDEF
    raise AssertionError(op)


def exact_sum(values, mean=False) -> float:
    """The sum of doubles, or with `mean` their mean, as one correctly
    rounded result: NaN if one of them is NaN or two are infinities of
    opposite signs, else an infinity among them, else the exact rational
    sum or mean rounded once, an infinity of its sign past the float range."""
    infinities = {v for v in values if math.isinf(v)}
    if any(v != v for v in values) or len(infinities) > 1:
        return math.nan
    if infinities:
        return infinities.pop()
    exact = sum(map(Fraction, values), Fraction(0))
    if mean:
        exact /= len(values)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _aggregate(agg, samples, out_ty):
    values = [v for _, v in samples]
    if agg is AggFn.COUNT:
        return len(values)
    if agg is AggFn.SUM:
        if not values:
            return 0 if out_ty is ValueType.INT else 0.0
        return sum(values) if out_ty is ValueType.INT else exact_sum(values)
    if not values:
        return UNDEF
    if agg is AggFn.AVG:
        if out_ty is ValueType.INT:
            return sum(values) // len(values)
        return exact_sum(values, mean=True)
    if agg in (AggFn.MIN, AggFn.MAX):
        if any(v != v for v in values):
            return float("nan")  # NaN anywhere in the window wins
        return min(values) if agg is AggFn.MIN else max(values)
    if agg is AggFn.MEDIAN:
        if out_ty is ValueType.INT:
            return statistics.median_low(sorted(values))
        if any(v != v for v in values):
            return float("nan")  # as for min/max
        return statistics.median(values)
    if agg is AggFn.INTEGRAL:
        area = 0.0
        for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
            area += (float(t1) - float(t0)) * (float(v0) + float(v1)) / 2.0
        return area
    raise AssertionError(agg)



# -- reference CSV reader ----------------------------------------------------------

_REF_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def _ref_bool(cell: str) -> bool:
    value = _REF_BOOLS.get(cell.lower())
    if value is None:
        raise ValueError(cell)
    return value


_REF_PARSERS = {ValueType.BOOL: _ref_bool, ValueType.INT: int, ValueType.DOUBLE: float}


def ref_read_trace(path: str, tspec):
    """The trace reader as a per-cell loop over every row: the events of the
    CSV trace at path, or its TraceError, by the rules `trace.read_trace`
    compiles into a row loop per header."""
    def error(message, row):
        return TraceError([Diagnostic(f"row {row}: {message}")])

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError([Diagnostic("empty trace file: missing header")])
        header = [h.strip() for h in header]
        declared = [d.name for d in tspec.spec.inputs if not d.is_time]
        if header[:1] != ["time"]:
            raise error("first column must be 'time'", 1)
        if sorted(header[1:]) != sorted(declared):
            raise error(
                f"header names {header[1:]} do not match declared inputs {declared}", 1
            )
        types = {d.name: d.ty for d in tspec.spec.inputs}
        columns = [(name, _REF_PARSERS[types[name]], types[name]) for name in header[1:]]
        width, last_ts = len(header), 0.0
        for lineno, row in enumerate(reader, start=2):
            try:
                ts = float(row[0])
            except (IndexError, ValueError):
                if not any(cell.strip() for cell in row):
                    continue
                ts = None
            if len(row) != width:
                raise error(f"expected {width} cells, got {len(row)}", lineno)
            if ts is None:
                raise error(f"bad timestamp {row[0]!r}", lineno)
            if not last_ts <= ts < math.inf:
                if not math.isfinite(ts):
                    message = f"non-finite timestamp {row[0]!r}"
                elif ts < 0:
                    message = f"negative timestamp {ts}"
                else:
                    message = f"timestamp {ts} decreases below {last_ts}"
                raise error(message, lineno)
            last_ts = ts
            bindings = {}
            for (name, parse, ty), cell in zip(columns, row[1:]):
                if cell:
                    try:
                        bindings[name] = parse(cell)
                    except ValueError:
                        if not (cell := cell.strip()):
                            continue
                        try:
                            bindings[name] = parse(cell)
                        except ValueError:
                            what = "bool" if ty is ValueType.BOOL else f"{ty} value"
                            raise error(f"bad {what} {cell!r} for '{name}'", lineno)
            yield Event(ts, bindings)
