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
        return f"{hz.numerator / hz.denominator:g}Hz"


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
                lab = f"{float(d):g}s"
            case WindowLabel(agg=agg, duration=r):
                lab = f"window({agg}, {float(r):g}s)"
        return f"{self.source} -> {self.target} [{lab}]"


@dataclass
class AnnotatedDependencyGraph:
    tspec: TypedSpec
    vertices: list[str]
    edges: list[Edge]
    rate: dict[str, Rate]
    #: templates sorted so that every same-instant dependency (offset 0 or
    #: window, including invoke/extend/terminate accesses) comes first
    order: list[str]

    @property
    def window_edges(self) -> list[Edge]:
        return [e for e in self.edges if isinstance(e.label, WindowLabel)]


def _same_instant(label: EdgeLabel) -> bool:
    """Whether the dependency reads the target at the current instant (so a
    cycle through it cannot be evaluated)."""
    match label:
        case DiscreteOffset(steps=0):
            return True
        case WindowLabel():
            return True
        case _:
            return False


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
    """Templates in declaration order, each after its same-instant
    dependencies (visited in sorted order), by one depth-first pass that
    raises CycleError on a same-instant cycle."""
    deps: dict[str, set[str]] = {t.name: set() for t in tspec.spec.outputs}
    for e in edges:
        if e.target in deps and _same_instant(e.label):
            deps[e.source].add(e.target)
    order: list[str] = []
    path: list[str] = []  # the templates being visited, outermost first
    state: dict[str, int] = {}  # 1 while on the path, 2 once ordered

    def visit(name: str) -> None:
        state[name] = 1
        path.append(name)
        for dep in sorted(deps[name]):
            if state.get(dep) == 1:
                cycle = " -> ".join(path[path.index(dep) :] + [dep])
                message = f"dependency cycle without a strictly-past offset: {cycle}"
                raise CycleError([Diagnostic(message)])
            if dep not in state:
                visit(dep)
        path.pop()
        state[name] = 2
        order.append(name)

    for name in deps:
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
        match e:
            case Binary(op="&" | "|", left=l, right=r):
                return positive(l) and positive(r)
        return param_input_atom(e, tspec) is not None

    return positive(tpl.extend)


def default_pane_widths(
    adg: AnnotatedDependencyGraph, divisor: int = 256
) -> dict[int, Fraction]:
    """Pane width per window, keyed by the window's wkey.

    A fixed-rate consumer gets one pane per evaluation period (capped at the
    window duration); a variable-rate consumer splits the window into
    `divisor` panes.
    """
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
                    f"window {e.target}[{float(e.label.duration):g}s, "
                    f"{e.label.agg}] in {e.source}: pane {float(z):g}s, "
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
                    "duration_s": float(e.label.duration),
                    "pane_s": float(self.pane_widths[e.label.wkey]),
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
    templates; without a cap their contribution is unbounded.
    """
    instance_bounds = instance_bounds or {}
    needs = _edge_needs(adg, pane_widths)
    per_edge = [(n.edge, n.table) for n in needs]
    offenders = [n.reason for n in needs if n.reason is not None]
    buffer = dict.fromkeys(adg.vertices, 1.0)
    windows = dict.fromkeys(adg.vertices, 0.0)
    for n in needs:
        target = n.edge.target
        if n.window:
            windows[target] += n.slots
        else:
            buffer[target] = max(buffer[target], n.slots)

    per_stream: dict[str, float] = {}
    eta: dict[str, float] = {}
    contribution: dict[str, float] = {}
    for name in adg.vertices:
        per_stream[name] = buffer[name] + windows[name]
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
        contribution[name] = per_stream[name] * eta[name]  # mu >= 1
    total = sum(contribution.values())
    return MemoryReport(
        per_edge, per_stream, eta, contribution, total, dict(pane_widths), offenders
    )


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
