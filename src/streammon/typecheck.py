"""Name resolution and type checking.

Produces a TypedSpec in which every expression node carries a concrete value
type, bare names that denote template parameters have been rewritten to
ParamRef, every window access has a stable `wkey`, and any-trigger scopes are
resolved. Checking is deterministic: the same input yields the same typed
tree and the same diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ast import (
    AggFn,
    Binary,
    Const,
    Default,
    DiscreteOffset,
    Expr,
    FnCall,
    IfThenElse,
    InputDecl,
    ParamRef,
    RealTimeOffset,
    Specification,
    StreamAccess,
    StreamTemplate,
    TriggerDecl,
    TriggerKind,
    TupleExpr,
    Unary,
    ValueType,
    WindowAccess,
    children,
    template_expressions,
    walk,
)
from .diagnostics import Diagnostic, TypeCheckError

BOOL, INT, DOUBLE = ValueType.BOOL, ValueType.INT, ValueType.DOUBLE

#: aggregations that have a neutral element and therefore never evaluate to
#: undefined on an empty window
TOTAL_AGGS = frozenset([AggFn.COUNT, AggFn.SUM])


@dataclass
class TypedSpec:
    """A validated specification plus lookup tables used by later stages."""

    spec: Specification
    inputs: dict[str, InputDecl]
    templates: dict[str, StreamTemplate]
    time_input: Optional[str]
    window_count: int


@dataclass
class _Ctx:
    params: dict[str, ValueType] = field(default_factory=dict)
    where: str = ""


class _Checker:
    def __init__(self, spec: Specification):
        self.spec = spec
        self.diagnostics: list[Diagnostic] = []
        self.inputs: dict[str, InputDecl] = {}
        self.templates: dict[str, StreamTemplate] = {}
        self.next_wkey = 0

    def error(self, message: str, node: Optional[Expr] = None) -> None:
        span = node.span if node is not None else None
        self.diagnostics.append(Diagnostic(message, span) if span else Diagnostic(message))

    def run(self) -> TypedSpec:
        time_input = self._collect_names()
        for tpl in self.spec.outputs:
            self._check_template(tpl)
        for trig in self.spec.triggers:
            self._check_trigger(trig)
        if self.diagnostics:
            raise TypeCheckError(self.diagnostics)
        return TypedSpec(
            self.spec, self.inputs, self.templates, time_input, self.next_wkey
        )

    def _collect_names(self) -> Optional[str]:
        time_input = None
        for decl in self.spec.inputs:
            if decl.name in self.inputs or decl.name in self.templates:
                self.error(f"duplicate declaration of '{decl.name}'")
                continue
            self.inputs[decl.name] = decl
            if decl.is_time:
                if decl.ty is not DOUBLE:
                    self.error(f"time input '{decl.name}' must have type double")
                if time_input is not None:
                    self.error("more than one time input declared")
                time_input = decl.name
        for tpl in self.spec.outputs:
            if tpl.name in self.inputs or tpl.name in self.templates:
                self.error(f"duplicate declaration of '{tpl.name}'")
                continue
            self.templates[tpl.name] = tpl
        return time_input

    # -- templates ----------------------------------------------------------

    def _check_template(self, tpl: StreamTemplate) -> None:
        where = f"output '{tpl.name}'"
        seen = set()
        for p in tpl.params:
            if p.name in seen:
                self.error(f"{where}: duplicate parameter '{p.name}'")
            seen.add(p.name)
        if tpl.clock is not None and tpl.clock <= 0:
            self.error(f"{where}: clock frequency must be positive")
        ctx = _Ctx({p.name: p.ty for p in tpl.params}, where)

        if tpl.params and tpl.invoke is None:
            self.error(f"{where}: parameterized stream needs an 'invoke' clause")
        if not tpl.params and tpl.invoke is not None:
            self.error(f"{where}: 'invoke' is only valid on parameterized streams")

        if tpl.invoke is not None:
            tpl.invoke = self._check_invoke(tpl, ctx)
        for label in ("extend", "terminate"):
            e = getattr(tpl, label)
            if e is None:
                continue
            e = self._resolve(e, ctx)
            setattr(tpl, label, e)
            if e.ty is not None and e.ty is not BOOL:
                self.error(f"{where}: '{label}' must have type bool, got {e.ty}", e)
        tpl.expr = self._resolve(tpl.expr, ctx)
        if tpl.expr.ty is not None and not self._assignable(tpl.expr.ty, tpl.ty):
            self.error(
                f"{where}: declared type {tpl.ty} but expression has type "
                f"{tpl.expr.ty}",
                tpl.expr,
            )
        self._check_default_coverage(tpl, ctx)

    def _check_invoke(self, tpl: StreamTemplate, ctx: _Ctx) -> Expr:
        invoke = tpl.invoke
        param_tys = [p.ty for p in tpl.params]
        if isinstance(invoke, TupleExpr):
            items = [self._resolve(item, ctx) for item in invoke.items]
            invoke.items = items
            if len(items) != len(param_tys):
                self.error(
                    f"{ctx.where}: invoke produces {len(items)} values for "
                    f"{len(param_tys)} parameters",
                    invoke,
                )
            else:
                for item, pty in zip(items, param_tys):
                    if item.ty is not None and item.ty is not pty:
                        self.error(
                            f"{ctx.where}: invoke component has type {item.ty}, "
                            f"parameter expects {pty}",
                            item,
                        )
            invoke.ty = None
            return invoke
        invoke = self._resolve(invoke, ctx)
        if len(param_tys) == 1:
            if invoke.ty is not None and invoke.ty is not param_tys[0]:
                self.error(
                    f"{ctx.where}: invoke has type {invoke.ty}, parameter "
                    f"expects {param_tys[0]}",
                    invoke,
                )
        elif len(param_tys) > 1:
            self.error(
                f"{ctx.where}: invoke must be a tuple of {len(param_tys)} "
                "expressions",
                invoke,
            )
        return invoke

    # -- triggers -------------------------------------------------------------

    def _check_trigger(self, trig: TriggerDecl) -> None:
        if trig.kind is TriggerKind.COUNT:
            if trig.count_stream not in self.templates:
                self.error(
                    f"trigger: count() needs an output stream, "
                    f"'{trig.count_stream}' is not one"
                )
            return
        ctx = _Ctx({}, "trigger")
        if trig.kind is TriggerKind.ANY:
            scope = self._any_scope(trig)
            if scope is not None:
                trig.scope = scope.name
                ctx.params = {p.name: p.ty for p in scope.params}
        trig.condition = self._resolve(trig.condition, ctx, trigger_scope=trig.scope)
        cond = trig.condition
        if cond.ty is not None and cond.ty is not BOOL:
            self.error(f"trigger condition must have type bool, got {cond.ty}", cond)
        for node in _walk_resolved(cond):
            if isinstance(node, WindowAccess):
                self.error(
                    "windows are not allowed in trigger conditions; compute "
                    "them in an output stream instead",
                    node,
                )
            if isinstance(node, StreamAccess) and node.offset != DiscreteOffset(0):
                self.error(
                    "trigger conditions read current values only; offsets are "
                    "not allowed here",
                    node,
                )

    def _any_scope(self, trig: TriggerDecl) -> Optional[StreamTemplate]:
        bare_parameterized = []
        first_output = None
        for node in _walk_resolved(trig.condition):
            if not isinstance(node, StreamAccess):
                continue
            tpl = self.templates.get(node.stream)
            if tpl is None:
                continue
            if first_output is None:
                first_output = tpl
            if tpl.params and not node.args:
                if tpl not in bare_parameterized:
                    bare_parameterized.append(tpl)
        if len(bare_parameterized) > 1:
            names = ", ".join(t.name for t in bare_parameterized)
            self.error(
                f"any-trigger condition must quantify over exactly one "
                f"template's instances, found: {names}"
            )
            return bare_parameterized[0]
        if bare_parameterized:
            return bare_parameterized[0]
        if first_output is not None:
            return first_output
        self.error("any-trigger condition must reference an output stream")
        return None

    # -- expressions ----------------------------------------------------------

    def _resolve(
        self, expr: Expr, ctx: _Ctx, trigger_scope: Optional[str] = None
    ) -> Expr:
        match expr:
            case Const(value=v):
                if isinstance(v, bool):
                    expr.ty = BOOL
                elif isinstance(v, int):
                    expr.ty = INT
                else:
                    expr.ty = DOUBLE
                return expr
            case ParamRef(name=name):
                expr.ty = ctx.params.get(name)
                if expr.ty is None:
                    self.error(f"{ctx.where}: unknown parameter '{name}'", expr)
                return expr
            case StreamAccess(stream=name, args=args, offset=offset):
                if name in ctx.params and not args:
                    if offset != DiscreteOffset(0):
                        self.error(
                            f"{ctx.where}: '{name}' is a parameter; offsets "
                            "apply to streams only",
                            expr,
                        )
                    ref = ParamRef(name, span=expr.span)
                    ref.ty = ctx.params[name]
                    return ref
                expr.args = [self._resolve(a, ctx, trigger_scope) for a in args]
                self._check_offset(expr, ctx)
                expr.ty = self._access_type(expr, ctx, trigger_scope)
                return expr
            case WindowAccess():
                expr.args = [self._resolve(a, ctx, trigger_scope) for a in expr.args]
                expr.wkey = self.next_wkey
                self.next_wkey += 1
                expr.ty = self._window_type(expr, ctx, trigger_scope)
                return expr
            case Default(inner=inner, fallback=fb):
                expr.inner = self._resolve(inner, ctx, trigger_scope)
                expr.fallback = self._resolve(fb, ctx, trigger_scope)
                expr.ty = self._unify(
                    expr.inner.ty, expr.fallback.ty, expr, "default value", ctx
                )
                return expr
            case Unary(op=op, operand=operand):
                expr.operand = self._resolve(operand, ctx, trigger_scope)
                ity = expr.operand.ty
                if op == "!":
                    if ity is not None and ity is not BOOL:
                        self.error(f"{ctx.where}: '!' needs bool, got {ity}", expr)
                    expr.ty = BOOL
                else:
                    if ity is not None and not ity.is_numeric:
                        self.error(f"{ctx.where}: '-' needs a number, got {ity}", expr)
                    expr.ty = ity
                return expr
            case Binary(op=op):
                expr.left = self._resolve(expr.left, ctx, trigger_scope)
                expr.right = self._resolve(expr.right, ctx, trigger_scope)
                expr.ty = self._binary_type(expr, ctx)
                return expr
            case IfThenElse():
                expr.cond = self._resolve(expr.cond, ctx, trigger_scope)
                expr.then_branch = self._resolve(expr.then_branch, ctx, trigger_scope)
                expr.else_branch = self._resolve(expr.else_branch, ctx, trigger_scope)
                if expr.cond.ty is not None and expr.cond.ty is not BOOL:
                    self.error(
                        f"{ctx.where}: condition must be bool, got {expr.cond.ty}",
                        expr.cond,
                    )
                expr.ty = self._unify(
                    expr.then_branch.ty, expr.else_branch.ty, expr, "branches", ctx
                )
                return expr
            case FnCall(fn=fn):
                expr.args = [self._resolve(a, ctx, trigger_scope) for a in expr.args]
                expr.ty = self._fn_type(expr, ctx)
                return expr
            case TupleExpr():
                self.error(
                    f"{ctx.where}: tuple expressions are only valid as the "
                    "invoke clause",
                    expr,
                )
                return expr
        raise TypeError(f"unhandled expression {expr!r}")

    def _check_offset(self, access: StreamAccess, ctx: _Ctx) -> None:
        match access.offset:
            case DiscreteOffset(steps=n) if n > 0:
                self.error(
                    f"{ctx.where}: offset {n} refers to the future; only past "
                    "references are allowed",
                    access,
                )
            case RealTimeOffset(seconds=d) if d >= 0:
                self.error(
                    f"{ctx.where}: real-time offsets must lie strictly in the "
                    "past",
                    access,
                )

    def _target(self, name: str) -> Optional[tuple[ValueType, tuple]]:
        if name in self.inputs:
            return self.inputs[name].ty, ()
        if name in self.templates:
            tpl = self.templates[name]
            return tpl.ty, tuple(tpl.params)
        return None

    def _access_type(
        self, access: StreamAccess, ctx: _Ctx, trigger_scope: Optional[str]
    ) -> Optional[ValueType]:
        target = self._target(access.stream)
        if target is None:
            self.error(f"{ctx.where}: unknown name '{access.stream}'", access)
            return None
        ty, params = target
        if access.stream == trigger_scope and not access.args:
            # inside an any-trigger the quantified template is read directly
            return ty
        self._check_args(access.stream, access.args, params, ctx, access)
        return ty

    def _window_type(
        self, window: WindowAccess, ctx: _Ctx, trigger_scope: Optional[str]
    ) -> Optional[ValueType]:
        if window.duration <= 0:
            self.error(f"{ctx.where}: window duration must be positive", window)
        target = self._target(window.stream)
        if target is None:
            self.error(f"{ctx.where}: unknown name '{window.stream}'", window)
            return None
        ty, params = target
        self._check_args(window.stream, window.args, params, ctx, window)
        agg = window.agg
        if ty is BOOL and agg is not AggFn.COUNT:
            self.error(
                f"{ctx.where}: bool stream '{window.stream}' admits only the "
                f"'count' aggregation, not '{agg}'",
                window,
            )
            return None
        if agg in (AggFn.AVG, AggFn.INTEGRAL, AggFn.MEDIAN) and not ty.is_numeric:
            self.error(
                f"{ctx.where}: '{agg}' needs a numeric stream", window
            )
            return None
        if agg is AggFn.COUNT:
            return INT
        if agg is AggFn.INTEGRAL:
            return DOUBLE
        return ty

    def _check_args(
        self,
        name: str,
        args: list[Expr],
        params: tuple,
        ctx: _Ctx,
        node: Expr,
    ) -> None:
        if len(args) != len(params):
            self.error(
                f"{ctx.where}: '{name}' expects {len(params)} instance "
                f"argument(s), got {len(args)}",
                node,
            )
            return
        for arg, p in zip(args, params):
            if arg.ty is not None and arg.ty is not p.ty:
                self.error(
                    f"{ctx.where}: instance argument for '{p.name}' has type "
                    f"{arg.ty}, expected {p.ty}",
                    arg,
                )

    def _binary_type(self, expr: Binary, ctx: _Ctx) -> Optional[ValueType]:
        lt, rt = expr.left.ty, expr.right.ty
        op = expr.op
        if lt is None or rt is None:
            return None
        if op in ("&", "|"):
            if lt is not BOOL or rt is not BOOL:
                self.error(f"{ctx.where}: '{op}' needs bool operands", expr)
            return BOOL
        if op in ("=", "!="):
            if lt is rt:
                return BOOL
            if lt.is_numeric and rt.is_numeric:
                return BOOL
            self.error(
                f"{ctx.where}: cannot compare {lt} with {rt}", expr
            )
            return BOOL
        if op in ("<", "<=", ">", ">="):
            if not (lt.is_numeric and rt.is_numeric):
                self.error(f"{ctx.where}: ordering needs numbers, got {lt} and {rt}", expr)
            return BOOL
        # arithmetic
        if not (lt.is_numeric and rt.is_numeric):
            self.error(
                f"{ctx.where}: '{op}' needs numeric operands, got {lt} and {rt}",
                expr,
            )
            return None
        return DOUBLE if DOUBLE in (lt, rt) else INT

    def _fn_type(self, call: FnCall, ctx: _Ctx) -> Optional[ValueType]:
        tys = [a.ty for a in call.args]
        if any(t is not None and not t.is_numeric for t in tys):
            self.error(f"{ctx.where}: '{call.fn}' needs numeric arguments", call)
            return None
        if call.fn == "abs":
            if len(call.args) != 1:
                self.error(f"{ctx.where}: 'abs' takes one argument", call)
                return None
            return tys[0]
        if call.fn == "sqrt":
            if len(call.args) != 1:
                self.error(f"{ctx.where}: 'sqrt' takes one argument", call)
            return DOUBLE
        if len(call.args) < 2:
            self.error(f"{ctx.where}: '{call.fn}' takes at least two arguments", call)
            return None
        if any(t is None for t in tys):
            return None
        return DOUBLE if DOUBLE in tys else INT

    def _unify(
        self,
        a: Optional[ValueType],
        b: Optional[ValueType],
        node: Expr,
        what: str,
        ctx: _Ctx,
    ) -> Optional[ValueType]:
        if a is None or b is None:
            return a or b
        if a is b:
            return a
        if a.is_numeric and b.is_numeric:
            return DOUBLE
        self.error(f"{ctx.where}: {what} mixes {a} and {b}", node)
        return None

    @staticmethod
    def _assignable(have: ValueType, want: ValueType) -> bool:
        return have is want or (have is INT and want is DOUBLE)

    # -- default coverage -------------------------------------------------------

    def _check_default_coverage(self, tpl: StreamTemplate, ctx: _Ctx) -> None:
        """Accesses that can be undefined must sit under a `?default`:
        windows without a neutral element, and every strictly-past offset.
        Offset-0 accesses are permitted bare; the engine reports a warning and
        skips the tick if such an access has no value yet."""
        for label, e in template_expressions(tpl):
            self._coverage(e, protected=False, where=f"{ctx.where} ({label})")

    def _coverage(self, expr: Expr, protected: bool, where: str) -> None:
        match expr:
            case Default(inner=inner, fallback=fb):
                self._coverage(inner, True, where)
                self._coverage(fb, protected, where)
                return
            case WindowAccess(agg=agg):
                if not protected and agg not in TOTAL_AGGS:
                    self.error(
                        f"{where}: '{agg}' window may be undefined; add a "
                        "'?default'",
                        expr,
                    )
            case StreamAccess(offset=off):
                past = (
                    isinstance(off, RealTimeOffset)
                    or (isinstance(off, DiscreteOffset) and off.steps < 0)
                )
                if past and not protected:
                    self.error(
                        f"{where}: past offset may be undefined; add a "
                        "'?default'",
                        expr,
                    )
        for child in children(expr):
            self._coverage(child, protected, where)


def _walk_resolved(expr: Expr):
    yield from walk(expr)


def check_types(spec: Specification) -> TypedSpec:
    """Validate and annotate a parsed specification.

    Raises TypeCheckError with one diagnostic per problem; on success every
    expression node carries its concrete type.
    """
    return _Checker(spec).run()
