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
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import reduce
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
        match expr:
            case Const(value=v):
                return lambda alpha, ts: v
            case ParamRef(name=name):
                if name not in self.positions:
                    raise EngineError(
                        [Diagnostic(f"parameter '{name}' has no value here", expr.span)]
                    )
                i = self.positions[name]
                return lambda alpha, ts: alpha[i]
            case StreamAccess():
                return self._access(expr)
            case WindowAccess():
                return self._window(expr)
            case Default(inner=inner, fallback=fallback):
                inner, fallback = self.compile(inner), self.compile(fallback)

                def default(alpha, ts):
                    v = inner(alpha, ts)
                    return fallback(alpha, ts) if v is UNDEFINED else v

                return default
            case Unary(op=op, operand=operand):
                fn = operator.not_ if op == "!" else operator.neg
                return _strict(fn, [self.compile(operand)])
            case Binary(op="&" | "|" as op, left=left, right=right):
                left, right = self.compile(left), self.compile(right)
                decided = op == "|"  # the left value that decides the result

                def logical(alpha, ts):
                    a = left(alpha, ts)
                    if a is decided:
                        return decided
                    b = right(alpha, ts)
                    if a is UNDEFINED or b is UNDEFINED:
                        return UNDEFINED
                    return b  # a is the boolean that leaves the result to b

                return logical
            case Binary(op=op, left=left, right=right):
                fn = _binary_fn(op, expr.ty)
                return _strict(fn, [self.compile(left), self.compile(right)])
            case IfThenElse(cond=cond, then_branch=then, else_branch=other):
                cond, then, other = map(self.compile, (cond, then, other))

                def choice(alpha, ts):
                    v = cond(alpha, ts)
                    if v is UNDEFINED:
                        return UNDEFINED
                    return then(alpha, ts) if v else other(alpha, ts)

                return choice
            case FnCall(fn=name, args=args):
                fn = _function(name, expr.ty)
                return _strict(fn, [self.compile(a) for a in args])
        raise EngineError([Diagnostic(f"cannot evaluate {expr!r}")])

    def compile_invoke(self, invoke: Expr) -> Compiled:
        """The parameter tuple an invoke expression yields, or UNDEFINED."""
        items = invoke.items if isinstance(invoke, TupleExpr) else [invoke]
        return _strict(_pack, [self.compile(e) for e in items])

    def _pinned(self, node):
        """The instance a bare access always reads, when that instance lives
        for the whole trace: an input's, or a plain template's without a
        terminate clause."""
        tpl = self.streams[node.stream].tpl
        if node.args or (tpl is not None and (tpl.params or tpl.terminate)):
            return None
        return self.streams[node.stream].instances[()]

    def _instance(self, node) -> Compiled:
        """(alpha, ts) -> the instance the access reads; None or UNDEFINED
        when there is none."""
        pinned = self._pinned(node)
        if pinned is not None:
            return lambda alpha, ts: pinned
        rt = self.streams[node.stream]
        if node.args:
            args = [self.compile(a) for a in node.args]
            return _strict(lambda *key: rt.instances.get(key), args)
        if node.stream == self.scope and rt.tpl.params:
            return lambda alpha, ts: rt.instances.get(alpha)
        return lambda alpha, ts: rt.instances.get(())

    def _access(self, node: StreamAccess) -> Compiled:
        offset = node.offset
        pinned = self._pinned(node)
        if offset == DiscreteOffset(0) and pinned is not None:
            buf = pinned.buf  # pruned in place, never replaced
            return lambda alpha, ts: buf[-1][1] if buf else UNDEFINED
        find = self._instance(node)
        match offset:
            case DiscreteOffset(steps=0):

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
                    if inst.ext_count <= back or len(inst.buf) <= back:
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
        wkey, monitor, find = node.wkey, self.monitor, self._instance(node)

        def window(alpha, ts):
            inst = find(alpha, ts)
            if not inst:
                return UNDEFINED
            w = inst.windows[wkey]
            before = w.slot_count
            value = w.evaluate(ts)
            monitor.slots += w.slot_count - before
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


def _strict(fn: Callable, operands: list[Compiled]) -> Compiled:
    """fn of the operands' values, evaluated left to right; UNDEFINED as soon
    as one of them is."""
    if len(operands) == 1:
        (x,) = operands

        def strict1(alpha, ts):
            v = x(alpha, ts)
            return UNDEFINED if v is UNDEFINED else fn(v)

        return strict1
    if len(operands) == 2:
        x, y = operands

        def strict2(alpha, ts):
            a = x(alpha, ts)
            if a is UNDEFINED:
                return UNDEFINED
            b = y(alpha, ts)
            return UNDEFINED if b is UNDEFINED else fn(a, b)

        return strict2

    def strict(alpha, ts):
        values = []
        for x in operands:
            v = x(alpha, ts)
            if v is UNDEFINED:
                return UNDEFINED
            values.append(v)
        return fn(*values)

    return strict


def _pack(*values) -> tuple:
    return values


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
