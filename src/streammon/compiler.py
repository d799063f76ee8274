"""Python source for typed expressions.

`Compiler.source` writes an expression as one Python expression over the
locals `alpha`, the tuple of the evaluated instance's parameter values,
indexed by position, `ts`, the instant of the step, and `m`, the monitor,
whose slot count a window evaluation charges. Stream instances, parameter
positions, offsets, operators and the `/`-by-type rule are resolved here,
so evaluation dispatches on no syntax node and calls no function per
operator. Every object of the specification the source reads is bound by
name in the caller's `names` (`_bind`), so the source depends on the spec's
shape only and `_code` compiles it once for every monitor of a spec of that
shape. `kernel.KernelWriter` writes each template's value, extend,
terminate and invoke expression and each trigger condition into the step
kernels this way; nothing else compiles an expression.

The source evaluates operands in the language's order and stops where the
language does: `&` and `|` at a deciding left operand, every other operator,
function and parameterized access at the first undefined operand, which
makes the result UNDEFINED. The order matters because evaluating a window
evicts its expired panes, which the monitor's slot count records. Each
operand's value is held in a walrus temporary, `t0`, `t1`, ..., fresh within
the expression and a name no kernel local uses. A chain, a left-deep run of
one level's operators (`ast.chain`), is written as one test over its
operands, `U if (t0 := a) is U or (t1 := b) is U or ... else t0 + t1 ...`,
with `/` and `%` steps held in temporaries of their own, or as one test
carrying the value so far for `&` and `|`. Every operand is then two
parentheses in, so the source nests with the expression's depth, not with
its length.

`Compiler._read` writes every stream or window access in one shape: first
the instance, bound by name when it is pinned (an input's, or a plain
template's without a terminate clause, which lives for the whole trace) and
otherwise looked up by its parameter tuple; then the read, the current value
inline and a past offset, a real-time offset or a window evaluation as a
call of one helper each. A window evaluated at the instant it last swept
evicts nothing, and is evaluated by a direct call instead (`_evaluate`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterable, Optional

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
    chain,
    operands,
)
from .diagnostics import Diagnostic, EngineError
from .values import UNDEFINED, nan_max, nan_min

#: the binary operators Python writes as the language does, but `=`: a
#: chain's run of them is written flat, left-associative as in the language
_OPERATORS = frozenset(["+", "-", "*", "=", "!=", "<", "<=", ">", ">="])


class Compiler:
    """Writes expressions over one monitor's streams.

    `params` are the parameters that alpha holds values for, by position: the
    template's, or an any-trigger scope's. `own` names the template whose
    value expression is written: its own value, still being computed, counts
    as its latest for past offsets. A bare access to the any-trigger `scope`
    reads the instance alpha identifies.
    """

    def __init__(
        self,
        streams: dict,
        params: Iterable[Param] = (),
        own: Optional[str] = None,
        scope: Optional[str] = None,
    ):
        self.streams = streams
        self.positions = {p.name: i for i, p in enumerate(params)}
        self.own = own
        self.scope = scope
        self.temps = 0

    def source(self, expr: Expr, names: dict) -> str:
        """expr's value, or UNDEFINED, as Python source that stands as an
        operand anywhere (a name, call, subscription or parenthesized form),
        with the objects it reads bound in `names`. An invoke's TupleExpr
        gives the parameter tuple."""
        match expr:
            case Const(value=v):
                return _bind(names, v)
            case ParamRef(name=name) if name in self.positions:
                return f"alpha[{self.positions[name]}]"
            case ParamRef(name=name):
                raise EngineError(
                    [Diagnostic(f"parameter '{name}' has no value here", expr.span)]
                )
            case StreamAccess() | WindowAccess():
                return self._read(expr, names)
            case Default(inner=inner, fallback=fallback):
                value, other = self.source(inner, names), self.source(fallback, names)
                t = self._temp()
                return f"({other} if ({t} := {value}) is U else {t})"
            case Unary(op=op, operand=operand):
                return self._strict([operand], names, "not {}" if op == "!" else "-{}")
            case Binary(op="&" | "|"):
                return self._logic(chain(expr), names)
            case Binary():
                return self._arithmetic(chain(expr), names)
            case IfThenElse(cond=cond, then_branch=then, else_branch=other):
                c, a, b = (self.source(e, names) for e in (cond, then, other))
                t = self._temp()
                return f"(U if ({t} := {c}) is U else {a} if {t} else {b})"
            case FnCall(fn=name, args=args):
                return self._strict(args, names, _function(name, expr.ty, len(args)))
            case TupleExpr(items=items):
                return self._strict(items, names, _tuple(len(items)))
        raise EngineError([Diagnostic(f"cannot evaluate {expr!r}")])

    def _temp(self) -> str:
        """A temporary name fresh within the expressions this compiler writes."""
        self.temps += 1
        return f"t{self.temps - 1}"

    def _strict(self, exprs: list[Expr], names: dict, result: str) -> str:
        """`result`, a format over the temporaries of exprs, once each of them,
        evaluated left to right, is defined; UNDEFINED as soon as one is
        not."""
        temps, checks = zip(*(self._defined(e, names) for e in exprs))
        return f"(U if {' or '.join(checks)} else {result.format(*temps)})"

    def _defined(self, expr: Expr, names: dict) -> tuple[str, str]:
        """A fresh temporary, and the test that assigns it expr's value and
        holds when that value is undefined."""
        t = self._temp()
        return t, f"({t} := {self.source(expr, names)}) is U"

    def _logic(self, run: list[Binary], names: dict) -> str:
        """A chain of `&` or of `|`, d being the value that decides it: `ta`
        holds the value so far, the result once it is d. A later operand,
        in `tb`, decides it unless it is undefined, which it then stays,
        while every later operand is still evaluated."""
        d = run[0].op == "|"
        first, *rest, last = (self.source(e, names) for e in operands(run))
        ta, tb = self._temp(), self._temp()
        step = f"is {d} and {ta} is not U or {tb} is U and ({ta} := U) is {d}"
        tests = [f"({ta} := {first}) is {d}"]
        tests += [f"({tb} := {b}) {step}" for b in rest]
        return (
            f"({d} if {' or '.join(tests)} else "
            f"U if ({tb} := {last}) is U or {ta} is U else {tb})"
        )

    def _arithmetic(self, run: list[Binary], names: dict) -> str:
        """A chain of one strict level, or a comparison: UNDEFINED once an
        operand or a step is. A run of operators Python writes as the
        language does is written flat; any other step's value is held in a
        temporary and checked, unless it is the last, which is the result."""
        first, *rest = operands(run)
        value, check = self._defined(first, names)
        checks = [check]
        for node, operand in zip(run, rest):
            t, check = self._defined(operand, names)
            checks.append(check)
            value = _operation(node.op, node.ty).format(value, t)
            if node.op not in _OPERATORS and node is not run[-1]:
                held = self._temp()
                checks.append(f"({held} := {value}) is U")
                value = held
        return f"(U if {' or '.join(checks)} else {value})"

    def _read(self, node: StreamAccess | WindowAccess, names: dict) -> str:
        """The access's value: how to get the instance, then how to read it.
        A pinned instance is bound by name; any other is looked up by the key
        alpha for the any-trigger scope, () for a plain stream, or else the
        strict tuple of the access's arguments."""
        rt = self.streams[node.stream]
        pinned = None if node.args else rt.pinned
        match node:
            case WindowAccess(wkey=wkey) if pinned is not None:
                return _evaluate(_bind(names, pinned.windows[wkey]))
            case StreamAccess(offset=DiscreteOffset(steps=0)) if pinned is not None:
                # its buffer is pruned in place
                return f"({_bind(names, pinned.buf)} or NO_VALUE)[-1][1]"
        if pinned is not None:
            inst = _bind(names, pinned)
        else:
            key = _tuple(len(node.args)) if node.args else "()"
            if node.stream == self.scope and rt.tpl.params and not node.args:
                key = "alpha"
            get = _bind(names, rt.instances.get)
            inst = f"{get}({key}, NO_INSTANCE)"
        match node:
            case WindowAccess(wkey=wkey):
                w = self._temp()
                window = f"({w} := {inst}.windows.get({_bind(names, wkey)}))"
                read = f"(U if {window} is None else {_evaluate(w)})"
            case StreamAccess(offset=DiscreteOffset(steps=0)) if rt.flat:
                # the entry is the latest (ts, value); no offset reads it
                read = f"({get}({key}) or NO_ENTRY)[1]"
            case StreamAccess(offset=DiscreteOffset(steps=0)):
                read = f"({inst}.buf or NO_VALUE)[-1][1]"
            case StreamAccess(offset=DiscreteOffset(steps=n)):
                own = "alpha" if node.stream == self.own else "None"
                read = f"past({inst}, {_bind(names, -n)}, {own})"
            case StreamAccess(offset=RealTimeOffset(seconds=d)):
                dn, dd = _bind(names, d.numerator), _bind(names, d.denominator)
                read = f"at_time({inst}, ts, {dn}, {dd})"
        return self._strict(node.args, names, read) if node.args else read


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


def _past(inst, back: int, own: Optional[tuple]):
    """The value `back` extensions before the latest of `inst`, or
    UNDEFINED. `own` is the alpha whose value the reading template is
    computing: when inst is that instance, the value counts as its latest."""
    if own is not None and inst.alpha == own:
        back -= 1
    buf = inst.buf
    return buf[-1 - back][1] if len(buf) > back else UNDEFINED


def _at_time(inst, ts, dn: int, dd: int):
    """The value `inst` held at the instant ts + dn / dd, or UNDEFINED."""
    buf = inst.buf
    n, d = ts.as_integer_ratio()
    i = count_until(buf, n * dd + dn * d, d * dd)
    return buf[i - 1][1] if i else UNDEFINED


def _evaluate(w: str) -> str:
    """The value at ts of the window named w. An evaluation at the instant
    of the window's last sweep evicts nothing, so it is called directly; any
    other goes through `_window`, which charges its evictions."""
    return f"({w}.evaluate(ts) if {w}.swept == ts else window({w}, ts, m))"


def _window(w, ts, m):
    """The value of window `w` at ts. The monitor m's slot count is charged
    with the evaluation's evictions, if any."""
    before = w.slots
    value = w.evaluate(ts)
    if w.slots != before:
        m.slots += w.slots - before
    return value


def _bind(names: dict, obj) -> str:
    """A fresh name for obj in `names`."""
    name = f"o{len(names)}"
    names[name] = obj
    return name


@lru_cache(maxsize=512)
def _code(source: str):
    """The code object of the statements `source`, compiled once."""
    return compile(source, "<compiled expression>", "exec")


def _tuple(n: int) -> str:
    """A tuple of n > 0 items, as a format."""
    return "({},)".format(", ".join(["{}"] * n))


def _operation(op: str, ty: Optional[ValueType]) -> str:
    """A binary operator over its operands' temporaries, as a format."""
    if op == "/" and ty is ValueType.INT:
        return "({0} // {1} if {1} != 0 else U)"
    if op == "/":
        return "float_div({}, {})"
    if op == "%":
        return "(U if {1} == 0 else {0} % {1})"
    if op in _OPERATORS:
        return f"{{}} {'==' if op == '=' else op} {{}}"
    raise EngineError([Diagnostic(f"unknown operator {op!r}")])


def _float_div(a, b):
    """IEEE 754 division, which Python's raises on a zero divisor: x / ±0 is
    NaN for x = 0 or NaN, and otherwise an infinity signed by both signs."""
    a, b = float(a), float(b)
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _function(name: str, ty: Optional[ValueType], arity: int) -> str:
    """A function call over its arguments' temporaries, as a format."""
    if name in ("abs", "sqrt"):
        return f"{name}({{}})"
    # a left fold, NaN-propagating as window min and max are
    call = "{}"
    for _ in range(arity - 1):
        call = f"nan_{name}({call}, {{}})"
    return f"float({call})" if ty is ValueType.DOUBLE else call


def _sqrt(v):
    x = float(v)
    return math.sqrt(x) if x >= 0 else math.nan


#: what a read of a stream, flat entry or instance without a value looks up
_NO_ENTRY = (None, UNDEFINED)
_NO_VALUE = (_NO_ENTRY,)
_NO_INSTANCE = SimpleNamespace(alpha=None, buf=(), windows={})

#: what every written expression reads by name, besides what it binds
NAMES = dict(
    U=UNDEFINED,
    NO_ENTRY=_NO_ENTRY,
    NO_VALUE=_NO_VALUE,
    NO_INSTANCE=_NO_INSTANCE,
    past=_past,
    at_time=_at_time,
    window=_window,
    float_div=_float_div,
    sqrt=_sqrt,
    nan_min=nan_min,
    nan_max=nan_max,
)
