"""Static analysis: dependency graph, stream rates, and memory bounds.

The annotated dependency graph has one vertex per stream (inputs and output
templates) and one labeled edge per access: a discrete offset, a real-time
offset, or a sliding window. Rates are `var` for inputs and anything that
depends on them, or a fixed frequency in Hz; `var` dominates every fixed
rate.

Each edge asks its *target* for stored values. One rule, `_edge_need`,
gives both numbers from the edge label, the target's rate and, for a window
of duration r, its pane width z: the paper's table entry, and the slots the
engine keeps for the edge in every instance of the target. A window keeps
one boundary pane more, because the evaluation instant and the window start
may each cut a pane.

    edge label             | target | table entry        | slots, boundary pane incl.
    -----------------------+--------+--------------------+---------------------------
    discrete offset -n     | any    | n + 1              | n + 1
    real-time offset -d s  | var    | unbounded          | unbounded
                           | y Hz   | ceil(d*y) + 1      | ceil(d*y) + 1
    window r, combinable   | var    | max(1, ceil(r/z))  | ceil(r/z) + 1
                           | y Hz   | min(ceil(r/z),     | min(ceil(r/z) + 1,
                           |        |     ceil(y*r))     |     ceil(y*(r+z)) + 1)
    window r, raw (median) | var    | unbounded          | unbounded
                           | y Hz   | ceil(y*r)          | ceil(y*(r+z)) + 1

Offsets share the one value buffer of a target instance, which keeps the
largest count (n + 1) and the longest time (d seconds) they ask for; each
window keeps a state of its own. A vertex thus needs mu(v) = max(1, offset
slots) + the sum of its window slots per instance, a true upper bound for
what the engine retains.

The total is sum over vertices of mu(v) * eta(v), where eta is the maximal
instance count: 1 for inputs and plain outputs, user-supplied (default
unbounded) for parameterized templates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .ast import (
    AggFn,
    Binary,
    DiscreteOffset,
    Expr,
    ParamRef,
    RealTimeOffset,
    StreamAccess,
    StreamTemplate,
    WindowAccess,
    chain,
    operands,
    template_expressions,
    walk,
)
from .diagnostics import CycleError, Diagnostic
from .typecheck import TypedSpec

UNBOUNDED = math.inf


@dataclass(frozen=True, order=True)
class Rate:
    """Stream extension rate; ordering puts `var` above every fixed rate."""

    sort_key: tuple = field(repr=False)
    hz: Optional[Fraction] = None

    @classmethod
    def var(cls) -> "Rate":
        return cls((1, Fraction(0)), None)

    @classmethod
    def fixed(cls, hz: Fraction) -> "Rate":
        return cls((0, Fraction(hz)), Fraction(hz))

    @property
    def is_var(self) -> bool:
        return self.hz is None

    def __str__(self) -> str:
        if self.is_var:
            return "var"
        hz = self.hz
        try:
            return f"{hz.numerator / hz.denominator:g}Hz"
        except OverflowError:  # beyond the float range, in the same notation
            hz = Context(prec=6).divide(hz.numerator, hz.denominator).normalize()
            return f"{hz:g}Hz".replace("E", "e")


@dataclass(frozen=True)
class WindowLabel:
    agg: AggFn
    duration: Fraction  # seconds
    wkey: int


EdgeLabel = Union[DiscreteOffset, RealTimeOffset, WindowLabel]


@dataclass(frozen=True)
class Edge:
    source: str  # the dependent stream
    target: str  # the stream whose values are needed
    label: EdgeLabel

    def __str__(self) -> str:
        match self.label:
            case DiscreteOffset(steps=n):
                lab = str(n)
            case RealTimeOffset(seconds=d):
                lab = f"{_seconds_text(d)}s"
            case WindowLabel(agg=agg, duration=r):
                lab = f"window({agg}, {_seconds_text(r)}s)"
        return f"{self.source} -> {self.target} [{lab}]"


@dataclass
class AnnotatedDependencyGraph:
    tspec: TypedSpec
    vertices: list[str]
    edges: list[Edge]
    rate: dict[str, Rate]
    #: templates sorted so that their dependencies come first: those read at
    #: the same instant and, unless they close a cycle, those read through a
    #: past or real-time offset (in any expression, invoke included)
    order: list[str]

    @property
    def window_edges(self) -> list[Edge]:
        return [e for e in self.edges if isinstance(e.label, WindowLabel)]


def build_adg(tspec: TypedSpec) -> AnnotatedDependencyGraph:
    """Construct the dependency graph and infer rates.

    Raises CycleError for a dependency cycle not broken by a strictly-past
    discrete or real-time offset.
    """
    spec = tspec.spec
    vertices = spec.stream_names
    edges: list[Edge] = []
    seen: set[tuple] = set()
    for tpl in spec.outputs:
        for _, expr in template_expressions(tpl):
            for node in walk(expr):
                if isinstance(node, StreamAccess):
                    edge = Edge(tpl.name, node.stream, node.offset)
                elif isinstance(node, WindowAccess):
                    edge = Edge(
                        tpl.name,
                        node.stream,
                        WindowLabel(node.agg, node.duration, node.wkey),
                    )
                else:
                    continue
                # every window edge stays, in walk order: the engine builds
                # one window state per window edge, in this order
                key = (edge.source, edge.target, edge.label)
                if isinstance(edge.label, WindowLabel) or key not in seen:
                    seen.add(key)
                    edges.append(edge)

    order = _evaluation_order(tspec, edges)

    rate: dict[str, Rate] = {}
    for decl in spec.inputs:
        rate[decl.name] = Rate.var()
    pending: list[StreamTemplate] = []
    for tpl in spec.outputs:
        if tpl.clock is not None:
            rate[tpl.name] = Rate.fixed(tpl.clock)
        else:
            rate[tpl.name] = Rate.fixed(Fraction(0))
            pending.append(tpl)
    out_edges: dict[str, list[str]] = {v: [] for v in vertices}
    for e in edges:
        out_edges[e.source].append(e.target)
    changed = True
    while changed:
        changed = False
        for tpl in pending:
            succ = out_edges[tpl.name]
            if not succ:
                continue
            new = max(rate[s] for s in succ)
            if new > rate[tpl.name]:
                rate[tpl.name] = new
                changed = True
    return AnnotatedDependencyGraph(tspec, vertices, edges, rate, order)


def _evaluation_order(tspec: TypedSpec, edges: list[Edge]) -> list[str]:
    """Templates in declaration order, each after its dependencies, by one
    depth-first pass that visits them in sorted order and raises CycleError
    on a cycle of same-instant reads (offset 0 or window). Same-instant
    dependencies come first; so does each template read through a past or
    real-time offset, unless it can reach a template on the current path
    over reads of either kind (the read closes a cycle the offset breaks)."""
    now: dict[str, set[str]] = {t.name: set() for t in tspec.spec.outputs}
    past: dict[str, set[str]] = {name: set() for name in now}
    for e in edges:
        if e.target in now:
            same = isinstance(e.label, WindowLabel) or e.label == DiscreteOffset(0)
            (now if same else past)[e.source].add(e.target)
    reach: dict[str, set[str]] = {}  # the templates each reaches, itself included
    for name in now:
        found, todo = {name}, [name]
        while todo:
            v = todo.pop()
            for dep in (now[v] | past[v]) - found:
                found.add(dep)
                todo.append(dep)
        reach[name] = found
    order: list[str] = []
    path: list[str] = []  # the templates being visited, outermost first
    state: dict[str, int] = {}  # 1 while on the path, 2 once ordered

    def visit(name: str) -> None:
        state[name] = 1
        path.append(name)
        for dep in sorted(now[name]):
            if state.get(dep) == 1:
                cycle = " -> ".join(path[path.index(dep) :] + [dep])
                message = f"dependency cycle without a strictly-past offset: {cycle}"
                raise CycleError([Diagnostic(message)])
            if dep not in state:
                visit(dep)
        for dep in sorted(past[name]):
            if dep not in state and reach[dep].isdisjoint(path):
                visit(dep)
        path.pop()
        state[name] = 2
        order.append(name)

    for name in now:
        if name not in state:
            visit(name)
    return order


def param_input_atom(atom: Expr, tspec: TypedSpec) -> Optional[tuple[str, str]]:
    """(parameter, input) when `atom` is `parameter = input`, either way
    round, with a bare current access to an input stream; None otherwise."""
    if not (isinstance(atom, Binary) and atom.op == "="):
        return None
    for a, b in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(a, ParamRef)
            and isinstance(b, StreamAccess)
            and not b.args
            and b.offset == DiscreteOffset(0)
            and b.stream in tspec.inputs
        ):
            return a.name, b.stream
    return None


def classify_efficiently_bound(tpl: StreamTemplate, tspec: TypedSpec) -> bool:
    """Whether at most one instance of the template can extend per event.

    True when the extend condition is a positive boolean combination of
    `parameter = inputStream` equalities (no negation), and trivially true
    for zero-parameter templates.
    """
    if not tpl.params:
        return True
    if tpl.extend is None:
        return False

    def positive(e) -> bool:
        if isinstance(e, Binary) and e.op in ("&", "|"):
            return all(positive(operand) for operand in operands(chain(e)))
        return param_input_atom(e, tspec) is not None

    return positive(tpl.extend)


def default_pane_widths(
    adg: AnnotatedDependencyGraph, divisor: int = 256
) -> dict[int, Fraction]:
    """Pane width per window, keyed by the window's wkey.

    A fixed-rate consumer gets one pane per evaluation period (capped at the
    window duration); a variable-rate consumer splits the window into
    `divisor` panes. Raises ValueError unless `divisor` is a positive int.
    """
    if divisor.__class__ is not int or divisor < 1:
        raise ValueError(f"pane divisor must be a positive integer, got {divisor!r}")
    widths: dict[int, Fraction] = {}
    for e in adg.window_edges:
        label = e.label
        consumer = adg.rate[e.source]
        if consumer.is_var or consumer.hz == 0:
            z = (
                label.duration / divisor
                if consumer.is_var
                else label.duration
            )
        else:
            z = min(Fraction(1) / consumer.hz, label.duration)
        widths[label.wkey] = z
    return widths


@dataclass
class MemoryReport:
    """Stored-value bounds; counts are value slots, not bytes."""

    per_edge: list[tuple[Edge, float]]  # table values, exact per edge
    per_stream: dict[str, float]  # vertex totals incl. boundary panes
    eta: dict[str, float]
    contribution: dict[str, float]
    total: float
    pane_widths: dict[int, Fraction]
    offenders: list[str]

    @property
    def bounded(self) -> bool:
        return self.total != UNBOUNDED

    def edge_mu(self, source: str, target: str) -> list[float]:
        return [
            mu
            for e, mu in self.per_edge
            if e.source == source and e.target == target
        ]

    def render_text(self, adg: AnnotatedDependencyGraph) -> str:
        rows = [("stream", "rate", "mu", "eta", "contribution")]
        for name in adg.vertices:
            rows.append(
                (
                    name,
                    str(adg.rate[name]),
                    _fmt(self.per_stream[name]),
                    _fmt(self.eta[name]),
                    _fmt(self.contribution[name]),
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        for e, mu in self.per_edge:
            if isinstance(e.label, WindowLabel):
                z = self.pane_widths[e.label.wkey]
                lines.append(
                    f"window {e.target}[{_seconds_text(e.label.duration)}s, "
                    f"{e.label.agg}] in {e.source}: pane {_seconds_text(z)}s, "
                    f"mu {_fmt(mu)}"
                )
        lines.append(
            "total: "
            + (f"{int(self.total)} value-slots" if self.bounded else "unbounded")
        )
        for reason in self.offenders:
            lines.append(f"unbounded: {reason}")
        return "\n".join(lines)

    def to_json_dict(self, adg: AnnotatedDependencyGraph) -> dict:
        return {
            "streams": [
                {
                    "name": name,
                    "rate": str(adg.rate[name]),
                    "mu": _json_num(self.per_stream[name]),
                    "eta": _json_num(self.eta[name]),
                    "contribution": _json_num(self.contribution[name]),
                }
                for name in adg.vertices
            ],
            "windows": [
                {
                    "consumer": e.source,
                    "target": e.target,
                    "aggregation": str(e.label.agg),
                    "duration_s": _seconds(e.label.duration),
                    "pane_s": _seconds(self.pane_widths[e.label.wkey]),
                    "mu": _json_num(mu),
                }
                for e, mu in self.per_edge
                if isinstance(e.label, WindowLabel)
            ],
            "edges": [
                {"from": e.source, "to": e.target, "mu": _json_num(mu)}
                for e, mu in self.per_edge
            ],
            "total": _json_num(self.total),
            "bounded": self.bounded,
            "offenders": self.offenders,
        }


def _seconds(q: Fraction) -> float | str:
    """q seconds as a float, or as the exact ratio where the float would
    read as zero or overflow."""
    try:
        x = q.numerator / q.denominator
    except OverflowError:
        return str(q)
    return x if x or not q else str(q)


def _seconds_text(q: Fraction) -> str:
    x = _seconds(q)
    return x if isinstance(x, str) else f"{x:g}"


def _fmt(value: float) -> str:
    return "unbounded" if value == UNBOUNDED else str(int(value))


def _json_num(value: float):
    return None if value == UNBOUNDED else int(value)


class EdgeNeed(NamedTuple):
    """What one edge asks of its target stream (see the module docstring)."""

    edge: Edge
    table: float  # the paper's table entry
    slots: float  # kept in every target instance, boundary pane included
    window: bool  # a window state of its own; offsets share the buffer
    keep: int = 1  # values the target's buffer keeps by count
    horizon: Optional[Fraction] = None  # seconds it keeps by time
    reason: Optional[str] = None  # why the need is unbounded


def _edge_need(e: Edge, rate: Rate, pane_widths: dict[int, Fraction]) -> EdgeNeed:
    """The stored values edge `e` needs from its target, whose rate is `rate`."""
    match e.label:
        case DiscreteOffset(steps=n):
            return EdgeNeed(e, abs(n) + 1, abs(n) + 1, False, keep=abs(n) + 1)
        case RealTimeOffset(seconds=d):
            if rate.is_var:
                reason = f"edge {e}: real-time offset into a variable-rate stream"
                return EdgeNeed(
                    e, UNBOUNDED, UNBOUNDED, False, horizon=-d, reason=reason
                )
            mu = math.ceil(-d * rate.hz) + 1
            return EdgeNeed(e, mu, mu, False, horizon=-d)
        case WindowLabel(agg=agg, duration=r, wkey=wkey):
            z = pane_widths[wkey]
            panes = math.ceil(r / z)
            if rate.is_var:
                if agg.homomorphic:
                    return EdgeNeed(e, max(1, panes), panes + 1, True)
                reason = (
                    f"edge {e}: '{agg}' stores every value of a variable-rate stream"
                )
                return EdgeNeed(e, UNBOUNDED, UNBOUNDED, True, reason=reason)
            values = math.ceil(rate.hz * (r + z)) + 1
            if agg.homomorphic:
                return EdgeNeed(
                    e, min(panes, math.ceil(r * rate.hz)), min(panes + 1, values), True
                )
            return EdgeNeed(e, math.ceil(r * rate.hz), values, True)
    raise TypeError(f"unknown edge label {e.label!r}")


def _edge_needs(
    adg: AnnotatedDependencyGraph, pane_widths: dict[int, Fraction]
) -> list[EdgeNeed]:
    return [_edge_need(e, adg.rate[e.target], pane_widths) for e in adg.edges]


def compute_memory(
    adg: AnnotatedDependencyGraph,
    pane_widths: dict[int, Fraction],
    instance_bounds: Optional[dict[str, int]] = None,
) -> MemoryReport:
    """Per-edge and per-stream stored-value bounds and their total.

    `instance_bounds` caps the live-instance count of parameterized
    templates; without a cap their contribution is unbounded. Raises
    ValueError for a bound that is not a non-negative int or that names no
    parameterized template. Counts are exact ints; UNBOUNDED is the only
    float.
    """
    instance_bounds = instance_bounds or {}
    for name, bound in instance_bounds.items():
        tpl = adg.tspec.templates.get(name)
        if tpl is None or not tpl.parameterized:
            raise ValueError(
                f"instance bound for '{name}': no parameterized template of that name"
            )
        if bound.__class__ is not int or bound < 0:
            raise ValueError(
                f"instance bound for '{name}' must be a non-negative integer, "
                f"got {bound!r}"
            )
    needs = _edge_needs(adg, pane_widths)
    per_edge = [(n.edge, n.table) for n in needs]
    offenders = [n.reason for n in needs if n.reason is not None]
    buffer = dict.fromkeys(adg.vertices, 1)
    windows = dict.fromkeys(adg.vertices, 0)
    for n in needs:
        target = n.edge.target
        if n.window:
            windows[target] = _add(windows[target], n.slots)
        else:
            buffer[target] = max(buffer[target], n.slots)

    per_stream: dict[str, float] = {}
    eta: dict[str, float] = {}
    contribution: dict[str, float] = {}
    for name in adg.vertices:
        per_stream[name] = _add(buffer[name], windows[name])
        tpl = adg.tspec.templates.get(name)
        if tpl is not None and tpl.parameterized:
            eta[name] = instance_bounds.get(name, UNBOUNDED)
            if eta[name] == UNBOUNDED:
                offenders.append(
                    f"stream '{name}': instance count unbounded "
                    "(no --max-instances bound given)"
                )
        else:
            eta[name] = 1
        contribution[name] = (  # mu >= 1
            UNBOUNDED
            if UNBOUNDED in (per_stream[name], eta[name])
            else per_stream[name] * eta[name]
        )
    values = contribution.values()
    total = UNBOUNDED if UNBOUNDED in values else sum(values)
    return MemoryReport(
        per_edge, per_stream, eta, contribution, total, dict(pane_widths), offenders
    )


def _add(a, b):
    """a + b for slot counts: exact for ints, UNBOUNDED if either is, with no
    int converted to a float."""
    return UNBOUNDED if UNBOUNDED in (a, b) else a + b


@dataclass
class BufferPlan:
    """Retention policy for one stream's per-instance value buffer."""

    count_keep: int = 1
    time_keep: Optional[Fraction] = None  # seconds into the past


def buffer_plans(
    adg: AnnotatedDependencyGraph, pane_widths: dict[int, Fraction]
) -> dict[str, BufferPlan]:
    plans: dict[str, BufferPlan] = {name: BufferPlan() for name in adg.vertices}
    for n in _edge_needs(adg, pane_widths):
        plan = plans[n.edge.target]
        plan.count_keep = max(plan.count_keep, n.keep)
        if n.horizon is not None and (
            plan.time_keep is None or n.horizon > plan.time_keep
        ):
            plan.time_keep = n.horizon
    return plans


def analyze(
    tspec: TypedSpec,
    pane_divisor: int = 256,
    instance_bounds: Optional[dict[str, int]] = None,
) -> tuple[AnnotatedDependencyGraph, MemoryReport]:
    """Convenience wrapper: graph, default pane widths, memory report."""
    adg = build_adg(tspec)
    widths = default_pane_widths(adg, pane_divisor)
    report = compute_memory(adg, widths, instance_bounds)
    return adg, report
