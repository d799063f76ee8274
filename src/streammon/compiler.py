"""Python source for typed expressions.

`Compiler.source` writes an expression as one Python expression over the
locals `alpha`, the key of the evaluated instance (its one parameter's
value, else the tuple of its values, indexed by position: see `kernel`),
`ts`, the instant of the step, and `m`, the monitor,
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
carrying the value so far for `&` and `|`; a constant is never tested.
Every operand is then two parentheses in, so the source nests with the
expression's depth, not with its length.

`Compiler._read` writes every stream or window access in one shape: first
the instance, bound by name when it is pinned (an input's, or a plain
template's without a terminate clause, which lives for the whole trace) and
otherwise looked up by its key; then the read: the current value inline, as
the instance's `value` or a flat entry (EMPTY read as U, except where an
operand, a `?` default or an `if` condition tests the entry itself against
EMPTY, once, and where a condition is tested `is True`, which EMPTY fails
too: `truth`), and a past offset, a real-time offset or a window evaluation
as a call of one helper each. A
window evaluated at the instant it last swept evicts nothing, and is
evaluated by a direct call instead (`_evaluate`).
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
        keys: Optional[dict] = None,
    ):
        self.streams = streams
        self.positions = {p.name: i for i, p in enumerate(params)}
        self.own = own
        self.scope = scope
        self.keys = keys or {}  # inputs -> the local holding their key
        self.temps = 0

    def source(self, expr: Expr, names: dict) -> str:
        """expr's value, or UNDEFINED, as Python source that stands as an
        operand anywhere (a name, call, subscription or parenthesized form),
        with the objects it reads bound in `names`. An invoke's TupleExpr
        gives the instance's key, the one item's value itself."""
        match expr:
            case Const(value=v):
                return _bind(names, v)
            case ParamRef(name=name) if bare_key(len(self.positions)) and name in self.positions:
                return "alpha"
            case ParamRef(name=name) if name in self.positions:
                return f"alpha[{self.positions[name]}]"
            case ParamRef(name=name):
                raise EngineError(
                    [Diagnostic(f"parameter '{name}' has no value here", expr.span)]
                )
            case StreamAccess() | WindowAccess():
                return self._read(expr, names)
            case Default(inner=inner, fallback=fallback):
                value, missing = self._tested(inner, names)
                other = self.source(fallback, names)
                t = self._temp()
                return f"({other} if ({t} := {value}) is {missing} else {t})"
            case Unary(op=op, operand=operand):
                return self._strict([operand], names, "not {}" if op == "!" else "-{}")
            case Binary(op="&" | "|"):
                return self._logic(chain(expr), names)
            case Binary():
                return self._arithmetic(chain(expr), names)
            case IfThenElse(cond=cond, then_branch=then, else_branch=other):
                c, missing = self._tested(cond, names)
                a, b = self.source(then, names), self.source(other, names)
                t = self._temp()
                return f"(U if ({t} := {c}) is {missing} else {a} if {t} else {b})"
            case FnCall(fn=name, args=args):
                return self._strict(args, names, _function(name, expr.ty, len(args)))
            case TupleExpr(items=items) if bare_key(len(items)):
                return self.source(items[0], names)
            case TupleExpr(items=items):
                return self._strict(items, names, key_format(len(items)))
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
        return _unless(checks, result.format(*temps))

    def _defined(self, expr: Expr, names: dict) -> tuple[str, Optional[str]]:
        """A fresh temporary, and the test that assigns it expr's value and
        holds when that value is undefined; for a constant, which is never
        undefined, its name and no test."""
        if isinstance(expr, Const):
            return self.source(expr, names), None
        t = self._temp()
        value, missing = self._tested(expr, names)
        return t, f"({t} := {value}) is {missing}"

    def truth(self, expr: Expr, names: dict) -> str:
        """expr's source for a test `is True`, which U and a flat entry's
        EMPTY both fail: a flat entry read bare is not mapped to U."""
        return self._tested(expr, names)[0]

    def _tested(self, expr: Expr, names: dict) -> tuple[str, str]:
        """expr's source and what it gives when expr is undefined: EMPTY for
        a flat entry read bare, which is never U (see `_access`), else U. A
        caller that tests the source once against it needs no U mapping."""
        if isinstance(expr, (StreamAccess, WindowAccess)):
            return self._access(expr, names)
        return self.source(expr, names), "U"

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
        return _unless(checks, value)

    def _read(self, node: StreamAccess | WindowAccess, names: dict) -> str:
        """The access's value (`_access`), a flat entry's EMPTY read as U."""
        read, missing = self._access(node, names)
        return read if missing == "U" else self._found(read)

    def _found(self, entry: str) -> str:
        """The flat entry `entry`, EMPTY read as U."""
        t = self._temp()
        return f"(U if ({t} := {entry}) is EMPTY else {t})"

    def _access(self, node: StreamAccess | WindowAccess, names: dict) -> tuple[str, str]:
        """The access: how to get the instance, then how to read it, and what
        the read gives when the value is undefined (`_tested`). A pinned
        instance is bound by name; any other is looked up by a key `_key`
        names, or else by the strict key of the access's arguments."""
        rt = self.streams[node.stream]
        pinned, args = None if node.args else rt.pinned, None
        if isinstance(node, WindowAccess) and pinned is not None:
            return _evaluate(_bind(names, pinned.windows[node.wkey])), "U"
        if pinned is not None:
            inst = _bind(names, pinned)
        else:
            key = self._key(node, rt)
            if key is None:
                key, args = key_format(len(node.args)), node.args
            get = _bind(names, rt.instances.get)
            inst = f"{get}({key}, NO_INSTANCE)"
        match node:
            case WindowAccess(wkey=wkey):
                w = self._temp()
                window = f"({w} := {inst}.windows.get({_bind(names, wkey)}))"
                read = f"(U if {window} is None else {_evaluate(w)})"
            case StreamAccess(offset=DiscreteOffset(steps=0)) if rt.flat:
                # the entry is the bare latest value, EMPTY before the first
                if not args:
                    return f"{get}({key}, EMPTY)", "EMPTY"
                read = self._found(f"{get}({key}, EMPTY)")
            case StreamAccess(offset=DiscreteOffset(steps=0)):
                read = f"{inst}.value"
            case StreamAccess(offset=DiscreteOffset(steps=n)):
                own = "alpha" if node.stream == self.own else "None"
                read = f"past({inst}, {_bind(names, -n)}, {own})"
            case StreamAccess(offset=RealTimeOffset(seconds=d)):
                dn, dd = _bind(names, d.numerator), _bind(names, d.denominator)
                read = f"at_time({inst}, ts, {dn}, {dd})"
        return (self._strict(args, names, read) if args else read), "U"

    def _key(self, node: StreamAccess | WindowAccess, rt) -> Optional[str]:
        """What holds the key of node's instance, if anything does: () for a
        plain stream, alpha for the any-trigger scope and for the reader's own
        parameters in order, or a key the kernel built (U finds none)."""
        if not node.args:
            return "alpha" if node.stream == self.scope and rt.tpl.params else "()"
        if [getattr(a, "name", None) for a in node.args] == [*self.positions]:
            return "alpha"
        return self.keys.get(input_key(node.args, self.streams))


def _unless(checks: Iterable[Optional[str]], value: str) -> str:
    """value, or U as soon as one of the tests `checks` (None: none) holds."""
    tests = " or ".join(filter(None, checks))
    return f"(U if {tests} else {value})" if tests else f"({value})"


def input_key(items: list[Expr], streams: dict) -> Optional[tuple[str, ...]]:
    """The inputs `items` read, if each is a bare current read of an input."""
    bare = [e for e in items if isinstance(e, StreamAccess) and e.offset == DiscreteOffset(0)]
    if len(bare) == len(items) and all(streams[e.stream].tpl is None for e in bare):
        return tuple(e.stream for e in bare)
    return None


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


def _past(inst, back: int, own):
    """The value `back` extensions before the latest of `inst`, or
    UNDEFINED. `own` is the alpha whose value the reading template is
    computing: when inst is that instance, the value counts as its latest."""
    if own is not None and (inst.alpha is own or inst.alpha == own):  # NaN is own
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


def bare_key(n: int) -> bool:
    """Whether an instance of a template of n parameters is keyed by its
    one parameter's value rather than by the tuple of its values: the key
    rule of `kernel`, which every place that keys, reads or names an
    instance asks."""
    return n == 1


def key_format(n: int) -> str:
    """The key of an instance of n > 0 parameters, as a format over their
    values (`bare_key`)."""
    return "{}" if bare_key(n) else "({},)".format(", ".join(["{}"] * n))


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


#: what a read of a missing instance finds: no value, no history, no window
_NO_INSTANCE = SimpleNamespace(alpha=None, value=UNDEFINED, buf=(), windows={})

#: what every written expression reads by name, besides what it binds
NAMES = dict(
    U=UNDEFINED,
    EMPTY=(),  # a flat entry before its first extension
    NO_INSTANCE=_NO_INSTANCE,
    past=_past,
    at_time=_at_time,
    window=_window,
    float_div=_float_div,
    sqrt=_sqrt,
    nan_min=nan_min,
    nan_max=nan_max,
)
