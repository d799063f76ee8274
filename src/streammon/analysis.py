"""Static analysis: dependency graph, stream rates, and memory bounds.

The annotated dependency graph has one vertex per stream (inputs and output
templates) and one labeled edge per access: a discrete offset, a real-time
offset, or a sliding window. Rates are `var` for inputs and anything that
depends on them, or a fixed frequency in Hz; `var` dominates every fixed
rate.

Stored-value bounds follow from the edge label and the *target* rate:

    target rate | raw aggregation      | pane-combinable aggregation
    ------------+----------------------+----------------------------
    var         | unbounded            | max(1, ceil(r / z))
    y Hz        | ceil(y * r) values   | min(ceil(r / z), ceil(y * r))

Real-time offsets need ceil(d * y) + 1 retained values against a fixed-rate
target and are unbounded against a variable-rate one; a discrete offset of
depth n needs n + 1 values. Per-vertex totals add one boundary pane per
window (the evaluation instant and the window start may cover partial panes)
so that the static total is a true upper bound for what the engine retains.

The total is sum over vertices of mu(v) * eta(v), where eta is the maximal
instance count: 1 for inputs and plain outputs, user-supplied (default
unbounded) for parameterized templates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .ast import (
    AggFn,
    Binary,
    DiscreteOffset,
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

    @property
    def window_edges(self) -> list[Edge]:
        return [e for e in self.edges if isinstance(e.label, WindowLabel)]

    def edges_into(self, target: str) -> list[Edge]:
        return [e for e in self.edges if e.target == target]

    def template_order(self) -> list[str]:
        """Templates sorted so that every same-instant dependency (offset 0 or
        window, including invoke/extend/terminate accesses) comes first."""
        templates = [t.name for t in self.tspec.spec.outputs]
        tset = set(templates)
        deps: dict[str, set[str]] = {name: set() for name in templates}
        for e in self.edges:
            if e.source in tset and e.target in tset and _same_instant(e.label):
                deps[e.source].add(e.target)
        order: list[str] = []
        state: dict[str, int] = {}

        def visit(name: str) -> None:
            state[name] = 1
            for dep in sorted(deps[name]):
                if state.get(dep, 0) == 0:
                    visit(dep)
            state[name] = 2
            order.append(name)

        for name in templates:
            if state.get(name, 0) == 0:
                visit(name)
        return order


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
                key = (edge.source, edge.target, edge.label)
                if isinstance(edge.label, WindowLabel) or key not in seen:
                    seen.add(key)
                    edges.append(edge)

    _reject_same_instant_cycles(tspec, edges)

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
    return AnnotatedDependencyGraph(tspec, vertices, edges, rate)


def _reject_same_instant_cycles(tspec: TypedSpec, edges: list[Edge]) -> None:
    adj: dict[str, list[str]] = {}
    for e in edges:
        if _same_instant(e.label) and e.target not in tspec.inputs:
            adj.setdefault(e.source, []).append(e.target)
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(v: str) -> None:
        state[v] = 1
        stack.append(v)
        for w in adj.get(v, ()):
            if state.get(w, 0) == 1:
                cycle = stack[stack.index(w) :] + [w]
                raise CycleError(
                    [
                        Diagnostic(
                            "dependency cycle without a strictly-past offset: "
                            + " -> ".join(cycle)
                        )
                    ]
                )
            if state.get(w, 0) == 0:
                visit(w)
        stack.pop()
        state[v] = 2

    for v in list(adj):
        if state.get(v, 0) == 0:
            visit(v)


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
            case Binary(op="=", left=l, right=r):
                for a, b in ((l, r), (r, l)):
                    if (
                        isinstance(a, ParamRef)
                        and isinstance(b, StreamAccess)
                        and not b.args
                        and b.offset == DiscreteOffset(0)
                        and b.stream in tspec.inputs
                    ):
                        return True
                return False
            case _:
                return False

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
    tspec = adg.tspec
    per_edge: list[tuple[Edge, float]] = []
    offenders: list[str] = []
    for e in adg.edges:
        mu = _edge_mu(e, adg.rate[e.target], pane_widths)
        per_edge.append((e, mu))
        if mu == UNBOUNDED:
            match e.label:
                case RealTimeOffset():
                    offenders.append(
                        f"edge {e}: real-time offset into a variable-rate stream"
                    )
                case WindowLabel(agg=agg):
                    offenders.append(
                        f"edge {e}: '{agg}' stores every value of a "
                        "variable-rate stream"
                    )

    per_stream: dict[str, float] = {}
    eta: dict[str, float] = {}
    contribution: dict[str, float] = {}
    for name in adg.vertices:
        per_stream[name] = _vertex_mu(name, adg, pane_widths)
        tpl = tspec.templates.get(name)
        if tpl is not None and tpl.parameterized:
            eta[name] = instance_bounds.get(name, UNBOUNDED)
            if eta[name] == UNBOUNDED:
                offenders.append(
                    f"stream '{name}': instance count unbounded "
                    "(no --max-instances bound given)"
                )
        else:
            eta[name] = 1
        contribution[name] = (
            per_stream[name] * eta[name] if per_stream[name] else 0
        )
    total = sum(contribution.values())
    return MemoryReport(
        per_edge, per_stream, eta, contribution, total, dict(pane_widths), offenders
    )


def _edge_mu(e: Edge, target_rate: Rate, pane_widths: dict[int, Fraction]) -> float:
    match e.label:
        case DiscreteOffset(steps=n):
            return abs(n) + 1
        case RealTimeOffset(seconds=d):
            if target_rate.is_var:
                return UNBOUNDED
            return math.ceil(-d * target_rate.hz) + 1
        case WindowLabel(agg=agg, duration=r, wkey=wkey):
            z = pane_widths[wkey]
            panes = math.ceil(r / z)
            if agg.homomorphic:
                if target_rate.is_var:
                    return max(1, panes)
                return min(panes, math.ceil(r * target_rate.hz))
            if target_rate.is_var:
                return UNBOUNDED
            return math.ceil(r * target_rate.hz)
    raise TypeError(f"unknown edge label {e.label!r}")


def _vertex_mu(
    name: str, adg: AnnotatedDependencyGraph, pane_widths: dict[int, Fraction]
) -> float:
    """Values retained on behalf of stream `name`: its shared instance buffer
    plus one window state per incoming window edge (boundary pane included)."""
    rate = adg.rate[name]
    buffer_slots = 1.0
    window_slots = 0.0
    for e in adg.edges_into(name):
        match e.label:
            case DiscreteOffset(steps=n):
                buffer_slots = max(buffer_slots, abs(n) + 1)
            case RealTimeOffset(seconds=d):
                if rate.is_var:
                    buffer_slots = UNBOUNDED
                else:
                    buffer_slots = max(
                        buffer_slots, math.ceil(-d * rate.hz) + 1
                    )
            case WindowLabel(agg=agg, duration=r, wkey=wkey):
                z = pane_widths[wkey]
                panes = math.ceil(r / z) + 1  # +1: boundary pane
                if agg.homomorphic:
                    if rate.is_var:
                        window_slots += panes
                    else:
                        window_slots += min(
                            panes, math.ceil(rate.hz * (r + z)) + 1
                        )
                else:
                    if rate.is_var:
                        window_slots = UNBOUNDED
                    else:
                        window_slots += math.ceil(rate.hz * (r + z)) + 1
    return buffer_slots + window_slots


@dataclass
class BufferPlan:
    """Retention policy for one stream's per-instance value buffer."""

    count_keep: int = 1
    time_keep: Optional[Fraction] = None  # seconds into the past


def buffer_plans(adg: AnnotatedDependencyGraph) -> dict[str, BufferPlan]:
    plans: dict[str, BufferPlan] = {name: BufferPlan() for name in adg.vertices}
    for e in adg.edges:
        plan = plans[e.target]
        match e.label:
            case DiscreteOffset(steps=n):
                plan.count_keep = max(plan.count_keep, abs(n) + 1)
            case RealTimeOffset(seconds=d):
                keep = -d
                if plan.time_keep is None or keep > plan.time_keep:
                    plan.time_keep = keep
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
