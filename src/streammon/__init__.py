"""Real-time stream monitoring: specification language, static rate and
memory analysis, pane-based sliding windows, and a trace-replay engine."""

from .analysis import (
    AnnotatedDependencyGraph,
    MemoryReport,
    Rate,
    analyze,
    build_adg,
    classify_efficiently_bound,
    compute_memory,
    default_pane_widths,
)
from .diagnostics import (
    AnalysisRefusal,
    CycleError,
    Diagnostic,
    EngineError,
    OutOfOrderError,
    ParseError,
    SourceSpan,
    SpecError,
    TraceError,
    TypeCheckError,
    format_diagnostics,
)
from .engine import Event, Monitor, Verdict
from . import kernel  # noqa: F401  loaded here, not by a first event
from .parser import format_spec, parse, parse_frequency
from .typecheck import TypedSpec, check_types
from .values import UNDEFINED

__all__ = [
    "AnalysisRefusal",
    "AnnotatedDependencyGraph",
    "CycleError",
    "Diagnostic",
    "EngineError",
    "Event",
    "MemoryReport",
    "Monitor",
    "OutOfOrderError",
    "ParseError",
    "Rate",
    "SourceSpan",
    "SpecError",
    "TraceError",
    "TypeCheckError",
    "TypedSpec",
    "UNDEFINED",
    "Verdict",
    "analyze",
    "build_adg",
    "check_types",
    "classify_efficiently_bound",
    "compute_memory",
    "default_pane_widths",
    "format_diagnostics",
    "format_spec",
    "parse",
    "parse_frequency",
]
