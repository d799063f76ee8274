"""Compilation of typed expressions into Python closures.

The engine compiles every template, lifecycle (invoke, extend, terminate) and
trigger expression once, when its Monitor is built. Each expression becomes
a closure `f(alpha, ts)`: alpha is the tuple of the evaluated instance's
parameter values, indexed by position, and ts the instant of the step. The
stream and instance an access reads, parameter positions, offsets, operators
and the `/`-by-type rule are resolved here, so evaluation dispatches on no
syntax node.

A closure evaluates its operands in the language's order and stops where the
language does: `&` and `|` at a deciding left operand, every other operator
and function at the first undefined operand, which makes the result
UNDEFINED. The order matters because evaluating a window evicts its expired
panes, which the monitor's slot count records.

An operator, a `?` default or an invoke is one closure frame whatever its
operands: each operand that is a leaf is read inline, and any other operand
is a call of its own closure. A leaf is an operand whose read has no side
effect and needs no call: a constant, a parameter, the current value of a
pinned stream (an input, or a plain template without a terminate clause,
whose one instance lives for the whole trace) and, in an any trigger, the
current value of the scope's instance. The closure is made from a fixed
Python source template by `eval`, with every object it reads bound by name.

The engine makes its two step kernels the same way (`engine.Monitor._kernel`):
it joins fixed source snippets into one function, binding every object by
name with `_bind`, so its source depends on the spec's shape only and
`_code` compiles it once for every monitor of a spec of that shape.
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import lru_cache, reduce
from types import SimpleNamespace
from typing import Callable, Iterable, Optional

from .ast import (
    Binary,
    Const,
    Default,
    DiscreteOffset,
    Expr,
    FnCall,
    IfThenElse,
    Param,
    ParamRef,
    RealTimeOffset,
    StreamAccess,
    TupleExpr,
    Unary,
    ValueType,
    WindowAccess,
)
from .diagnostics import Diagnostic, EngineError
from .values import UNDEFINED, nan_max, nan_min

#: a compiled expression: (parameter values, instant) -> value or UNDEFINED
Compiled = Callable[[tuple, object], object]

OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Compiler:
    """Compiles expressions over one monitor's streams.

    `params` are the parameters that alpha holds values for, by position: the
    template's, or an any-trigger scope's. `own` names the template whose
    value expression is compiled: its own value, still being computed, counts
    as its latest for past offsets. A bare access to the any-trigger `scope`
    reads the instance alpha identifies.
    """

    def __init__(
        self,
        monitor,
        params: Iterable[Param] = (),
        own: Optional[str] = None,
        scope: Optional[str] = None,
    ):
        self.streams = monitor.streams
        # window evaluations update the monitor's slot count; a proxy avoids
        # a reference cycle through the closures the monitor holds
        self.monitor = weakref.proxy(monitor)
        self.positions = {p.name: i for i, p in enumerate(params)}
        self.own = own
        self.scope = scope

    def compile(self, expr: Expr) -> Compiled:
        if self._leaf(expr, {}) is not None:
            return self._fold("{0}", [expr])
        match expr:
            case ParamRef(name=name):
                raise EngineError(
                    [Diagnostic(f"parameter '{name}' has no value here", expr.span)]
                )
            case StreamAccess():
                return self._access(expr)
            case WindowAccess():
                return self._window(expr)
            case Default(inner=inner, fallback=fallback):
                return self._fold("{1} if (v0 := {0}) is U else v0", [inner, fallback])
            case Unary(op=op, operand=operand):
                fn = operator.not_ if op == "!" else operator.neg
                return self._strict(fn, [operand])
            case Binary(op="&" | "|" as op, left=left, right=right):
                # the left value that decides the result; else a boolean left
                # value leaves the result to the right one
                d = op == "|"
                return self._fold(
                    f"{d} if (v0 := {{0}}) is {d} else "
                    "U if (v1 := {1}) is U or v0 is U else v1",
                    [left, right],
                )
            case Binary(op=op, left=left, right=right):
                return self._strict(_binary_fn(op, expr.ty), [left, right])
            case IfThenElse(cond=cond, then_branch=then, else_branch=other):
                return self._fold(
                    "U if (v0 := {0}) is U else {1} if v0 else {2}", [cond, then, other]
                )
            case FnCall(fn=name, args=args):
                return self._strict(_function(name, expr.ty), args)
        raise EngineError([Diagnostic(f"cannot evaluate {expr!r}")])

    def compile_invoke(self, invoke: Expr) -> Compiled:
        """The parameter tuple an invoke expression yields, or UNDEFINED."""
        items = invoke.items if isinstance(invoke, TupleExpr) else [invoke]
        return self._strict(None, items, "({},)")

    def _leaf(self, expr: Expr, names: dict) -> Optional[str]:
        """The source of a leaf's read, with the objects it reads bound in
        `names`; None when expr is no leaf."""
        match expr:
            case Const(value=v):
                return _bind(names, v)
            case ParamRef(name=name) if name in self.positions:
                return f"alpha[{self.positions[name]}]"
            case StreamAccess(args=[], offset=DiscreteOffset(steps=0)):
                pinned = self._pinned(expr)
                if pinned is not None:  # its buffer is pruned in place
                    return f"({_bind(names, pinned.buf)} or NO_VALUE)[-1][1]"
                rt = self.streams[expr.stream]
                if expr.stream == self.scope and rt.tpl.params:
                    get = _bind(names, rt.instances.get)
                    if rt.flat:  # the entry is the latest (ts, value)
                        return f"({get}(alpha) or {_bind(names, _NO_ENTRY)})[1]"
                    return f"({get}(alpha, NO_INSTANCE).buf or NO_VALUE)[-1][1]"
        return None

    def _strict(self, fn, operands: list[Expr], result: str = "fn({})") -> Compiled:
        """`result` over the operands' values v0, v1, ..., by default fn of
        them, evaluated left to right; UNDEFINED as soon as one of them is."""
        checks = " or ".join(f"(v{i} := {{{i}}}) is U" for i in range(len(operands)))
        values = ", ".join(f"v{i}" for i in range(len(operands)))
        return self._fold(f"U if {checks} else {result.format(values)}", operands, fn)

    def _fold(self, template: str, operands: list[Expr], fn=None) -> Compiled:
        """One closure evaluating `template`, Python source in which {i}
        stands for the i-th operand's value: a leaf's read, inline, or a call
        of the operand's own closure. The objects read are bound by name, so
        no value of the specification is written into the source."""
        names = dict(U=UNDEFINED, NO_VALUE=_NO_VALUE, NO_INSTANCE=_NO_INSTANCE, fn=fn)
        sources = []
        for e in operands:
            leaf = self._leaf(e, names)
            sources.append(leaf or f"{_bind(names, self.compile(e))}(alpha, ts)")
        return eval(_code(f"lambda alpha, ts: {template.format(*sources)}"), names)

    def _pinned(self, node):
        """The instance a bare access always reads, when that instance lives
        for the whole trace: an input's, or a plain template's without a
        terminate clause."""
        return None if node.args else self.streams[node.stream].pinned

    def _instance(self, node) -> Compiled:
        """(alpha, ts) -> the instance or flat entry the access reads; None
        or UNDEFINED when there is none."""
        pinned = self._pinned(node)
        if pinned is not None:
            return lambda alpha, ts: pinned
        rt = self.streams[node.stream]
        if node.args:
            return self._strict(rt.instances.get, node.args, "fn(({},))")
        if node.stream == self.scope and rt.tpl.params:
            return lambda alpha, ts: rt.instances.get(alpha)
        return lambda alpha, ts: rt.instances.get(())

    def _access(self, node: StreamAccess) -> Compiled:
        offset = node.offset
        find = self._instance(node)
        match offset:
            case DiscreteOffset(steps=0):
                if self.streams[node.stream].flat:  # no offset reads it
                    return lambda alpha, ts: (find(alpha, ts) or _NO_ENTRY)[1]

                def current(alpha, ts):
                    inst = find(alpha, ts)
                    return inst.buf[-1][1] if inst and inst.buf else UNDEFINED

                return current
            case DiscreteOffset(steps=n):
                own = node.stream == self.own

                def past(alpha, ts):
                    inst = find(alpha, ts)
                    if not inst:
                        return UNDEFINED
                    back = -n
                    if own and inst.alpha == alpha:
                        back -= 1  # the value being computed is the latest
                    if len(inst.buf) <= back:
                        return UNDEFINED
                    return inst.buf[-1 - back][1]

                return past
            case RealTimeOffset(seconds=d):
                dn, dd = d.numerator, d.denominator  # d is negative

                def at_time(alpha, ts):
                    inst = find(alpha, ts)
                    if not inst:
                        return UNDEFINED
                    n, m = ts.as_integer_ratio()
                    i = count_until(inst.buf, n * dd + dn * m, m * dd)  # ts + d
                    return inst.buf[i - 1][1] if i else UNDEFINED

                return at_time
        raise EngineError([Diagnostic(f"bad offset {offset!r}")])

    def _window(self, node: WindowAccess) -> Compiled:
        """An evaluation of the window that charges the monitor's slot count
        with its evictions only when it evicted, since the monitor is a
        proxy. A pinned instance's window is bound once, with no lookup."""
        wkey, monitor, pinned = node.wkey, self.monitor, self._pinned(node)
        find, fixed = self._instance(node), pinned and pinned.windows[wkey]

        def window(alpha, ts):
            w = fixed
            if w is None:
                inst = find(alpha, ts)
                if not inst:
                    return UNDEFINED
                w = inst.windows[wkey]
            before = w.slots
            value = w.evaluate(ts)
            if w.slots != before:
                monitor.slots += w.slots - before
            return value

        return window


def count_until(buf: list, n: int, d: int) -> int:
    """How many entries of `buf`, (ts, value) pairs in ascending ts, lie at
    or before the instant n / d (d > 0). Float and Fraction instants are
    compared exactly, in integers, as the window layer does."""
    lo, hi = 0, len(buf)
    while lo < hi:
        mid = (lo + hi) // 2
        tn, td = buf[mid][0].as_integer_ratio()
        if tn * d > n * td:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bind(names: dict, obj) -> str:
    """A fresh name for obj in `names`."""
    name = f"o{len(names)}"
    names[name] = obj
    return name


#: what a leaf's read of a stream or flat entry without a value looks up
_NO_ENTRY = (None, UNDEFINED)
_NO_VALUE = (_NO_ENTRY,)
_NO_INSTANCE = SimpleNamespace(buf=())


@lru_cache(maxsize=512)
def _code(source: str, mode: str = "eval"):
    return compile(source, "<compiled expression>", mode)


def _binary_fn(op: str, ty: Optional[ValueType]) -> Callable:
    if op == "/":
        return _int_div if ty is ValueType.INT else _float_div
    if op == "%":
        return _mod
    if op in OPERATORS:
        return OPERATORS[op]
    raise EngineError([Diagnostic(f"unknown operator {op!r}")])


def _int_div(a, b):
    return a // b if b != 0 else UNDEFINED


def _float_div(a, b):
    """IEEE 754 division, which Python's raises on a zero divisor: x / ±0 is
    NaN for x = 0 or NaN, and otherwise an infinity signed by both signs."""
    a, b = float(a), float(b)
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _mod(a, b):
    return UNDEFINED if b == 0 else a % b


def _function(name: str, ty: Optional[ValueType]) -> Callable:
    if name == "abs":
        return abs
    if name == "sqrt":
        return _sqrt
    # NaN-propagating, as window min and max are
    pick = nan_min if name == "min" else nan_max
    if ty is ValueType.DOUBLE:
        return lambda *values: float(reduce(pick, values))
    return lambda *values: reduce(pick, values)


def _sqrt(v):
    x = float(v)
    return math.sqrt(x) if x >= 0 else math.nan
