"""Source positions, diagnostics, and the error hierarchy shared by all stages."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    """A position in the specification source. line/column are 1-based;
    line 0 marks a synthetic node with no source location."""

    line: int = 0
    column: int = 0
    length: int = 1

    def __str__(self) -> str:
        if self.line == 0:
            return "<synthetic>"
        return f"{self.line}:{self.column}"


@dataclass
class Diagnostic:
    message: str
    span: SourceSpan = field(default_factory=SourceSpan)
    line_text: str | None = None
    severity: str = "error"

    def render(self) -> str:
        head = f"{self.span}: {self.severity}: {self.message}"
        if self.line_text is None:
            return head
        # the excerpt's tabs stay under it, so the caret lines up where they expand
        width = self.span.column - 1
        lead = "".join(c if c == "\t" else " " for c in self.line_text[:width])
        caret = lead.ljust(width) + "^" * max(1, self.span.length)
        return f"{head}\n  {self.line_text}\n  {caret}"


def format_diagnostics(errors: list[Diagnostic]) -> str:
    """Human-readable rendering, one entry per diagnostic, with excerpt and caret."""
    return "\n".join(d.render() for d in errors)


class SpecError(Exception):
    """Base class for failures in any processing stage; carries diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic] | str):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(diagnostics)]
        self.diagnostics = diagnostics
        super().__init__(format_diagnostics(diagnostics))


class ParseError(SpecError):
    pass


class TypeCheckError(SpecError):
    pass


class CycleError(SpecError):
    """A dependency cycle not broken by a strictly-past reference."""


class AnalysisRefusal(SpecError):
    """The static analysis reported an unbounded memory requirement and the
    caller did not opt in to running anyway."""


class TraceError(SpecError):
    pass


class EngineError(SpecError):
    pass


class OutOfOrderError(EngineError):
    """Timestamps regressed: events and evaluations must be time-ordered."""
