"""Typed abstract syntax for stream-monitoring specifications.

A specification is a list of typed input streams, a list of output stream
templates (possibly parameterized, with invoke/extend/terminate lifecycle
expressions and an optional fixed-frequency clock), and a list of triggers.
Spans compare as equal everywhere so that structural equality ignores layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Union

from .diagnostics import SourceSpan


class ValueType(enum.Enum):
    BOOL = "bool"
    INT = "int"
    DOUBLE = "double"

    @property
    def is_numeric(self) -> bool:
        return self in (ValueType.INT, ValueType.DOUBLE)

    def __str__(self) -> str:
        return self.value


class AggFn(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    INTEGRAL = "integral"
    MEDIAN = "median"

    @property
    def homomorphic(self) -> bool:
        """Whether per-pane summaries combine into the whole-window result."""
        return self is not AggFn.MEDIAN

    def __str__(self) -> str:
        return self.value


AGG_BY_NAME = {a.value: a for a in AggFn}


@dataclass(frozen=True)
class DiscreteOffset:
    """A reference `steps` extensions into the past; 0 means the latest value."""

    steps: int = 0


@dataclass(frozen=True)
class RealTimeOffset:
    """A reference `seconds` into the past (negative, exact rational seconds)."""

    seconds: Fraction


Offset = Union[DiscreteOffset, RealTimeOffset]


@dataclass
class Expr:
    span: SourceSpan = field(
        default_factory=SourceSpan, compare=False, repr=False, kw_only=True
    )
    #: concrete value type, filled in by the type checker
    ty: Optional[ValueType] = field(default=None, repr=False, kw_only=True)


@dataclass
class Const(Expr):
    value: object  # bool, int, or float


@dataclass
class ParamRef(Expr):
    """Reference to a parameter of the enclosing template (post-resolution)."""

    name: str


@dataclass
class StreamAccess(Expr):
    """Value of a stream instance: `s`, `s(args)`, `s[-n]`, `s[-3s]`.

    The parser emits StreamAccess for every bare name; the type checker
    rewrites accesses that actually name a template parameter into ParamRef.
    """

    stream: str
    args: list[Expr] = field(default_factory=list)
    offset: Offset = DiscreteOffset(0)


@dataclass
class WindowAccess(Expr):
    """Sliding-window aggregation over the last `duration` seconds of a stream."""

    stream: str
    args: list[Expr]
    duration: Fraction  # seconds, > 0
    agg: AggFn
    #: stable identifier assigned by the type checker, used to key window state
    wkey: Optional[int] = field(default=None, compare=False, kw_only=True)


@dataclass
class Default(Expr):
    """`inner?fallback`: the fallback is used when inner is undefined."""

    inner: Expr
    fallback: Expr


@dataclass
class Unary(Expr):
    op: str  # '-' or '!'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # + - * / % & | = != < <= > >=
    left: Expr
    right: Expr


@dataclass
class IfThenElse(Expr):
    cond: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass
class FnCall(Expr):
    fn: str  # abs, sqrt, min, max
    args: list[Expr] = field(default_factory=list)


@dataclass
class TupleExpr(Expr):
    """Tuple literal; only valid as the invoke expression of a template."""

    items: list[Expr] = field(default_factory=list)


BUILTIN_FNS = ("abs", "sqrt", "min", "max")


@dataclass
class InputDecl:
    name: str
    ty: ValueType
    #: declared with the `time` keyword: bound to the event timestamp itself
    is_time: bool = False
    span: SourceSpan = field(default_factory=SourceSpan, compare=False, repr=False)


@dataclass(frozen=True)
class Param:
    name: str
    ty: ValueType


@dataclass
class StreamTemplate:
    """An output stream declaration. Zero parameters model a plain output
    stream with a single instance that exists from the start of the trace."""

    name: str
    ty: ValueType
    params: list[Param] = field(default_factory=list)
    clock: Optional[Fraction] = None  # Hz, positive
    invoke: Optional[Expr] = None
    extend: Optional[Expr] = None
    terminate: Optional[Expr] = None
    expr: Expr = field(default_factory=lambda: Const(0))
    span: SourceSpan = field(default_factory=SourceSpan, compare=False, repr=False)

    @property
    def parameterized(self) -> bool:
        return bool(self.params)


class TriggerKind(enum.Enum):
    PLAIN = "plain"
    ANY = "any"
    COUNT = "count"


@dataclass
class TriggerDecl:
    kind: TriggerKind
    condition: Optional[Expr] = None  # PLAIN and ANY
    count_stream: Optional[str] = None  # COUNT
    count_cmp: Optional[str] = None
    count_value: Optional[int] = None
    message: Optional[str] = None
    #: for ANY triggers: the template whose live instances are quantified over
    scope: Optional[str] = field(default=None, compare=False)
    span: SourceSpan = field(default_factory=SourceSpan, compare=False, repr=False)


@dataclass
class Specification:
    inputs: list[InputDecl] = field(default_factory=list)
    outputs: list[StreamTemplate] = field(default_factory=list)
    triggers: list[TriggerDecl] = field(default_factory=list)

    def output(self, name: str) -> Optional[StreamTemplate]:
        for decl in self.outputs:
            if decl.name == name:
                return decl
        return None

    @property
    def stream_names(self) -> list[str]:
        return [d.name for d in self.inputs] + [d.name for d in self.outputs]


def children(expr: Expr) -> list[Expr]:
    match expr:
        case StreamAccess(args=args) | WindowAccess(args=args) | FnCall(args=args):
            return list(args)
        case Default(inner=a, fallback=b) | Binary(left=a, right=b):
            return [a, b]
        case Unary(operand=a):
            return [a]
        case IfThenElse(cond=c, then_branch=t, else_branch=e):
            return [c, t, e]
        case TupleExpr(items=items):
            return list(items)
        case _:
            return []


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def accesses(expr: Expr) -> Iterator[Expr]:
    """All StreamAccess and WindowAccess nodes in an expression."""
    for node in walk(expr):
        if isinstance(node, (StreamAccess, WindowAccess)):
            yield node


def template_expressions(tpl: StreamTemplate) -> Iterator[tuple[str, Expr]]:
    """The auxiliary and value expressions of a template, in a fixed order."""
    if tpl.invoke is not None:
        yield "invoke", tpl.invoke
    if tpl.extend is not None:
        yield "extend", tpl.extend
    if tpl.terminate is not None:
        yield "terminate", tpl.terminate
    yield "expr", tpl.expr
