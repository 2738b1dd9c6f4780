"""Diagnostic codes, severities, source spans, and validation reports.

Every structural or semantic problem anywhere in the toolchain is reported
as a :class:`Diagnostic` carrying one of the stable codes below, so tools
consuming reports can match on codes rather than message text.
"""

from __future__ import annotations

from dataclasses import dataclass

# Closed catalog of diagnostic codes.
REF_UNRESOLVED = "REF_UNRESOLVED"
NEST_CYCLE = "NEST_CYCLE"
DUP_NAME = "DUP_NAME"
FLOW_ILLEGAL = "FLOW_ILLEGAL"
TRIGGER_ILLEGAL = "TRIGGER_ILLEGAL"
STAGE_ORPHAN = "STAGE_ORPHAN"
SINK_RELEASE = "SINK_RELEASE"
TRANSFER_UNPAIRED = "TRANSFER_UNPAIRED"
REGION_EMPTY = "REGION_EMPTY"
REGION_DISCONNECTED = "REGION_DISCONNECTED"
BEHAVIOR_INCONSISTENT = "BEHAVIOR_INCONSISTENT"

ERROR = "error"
WARNING = "warning"


@dataclass(slots=True, unsafe_hash=True)
class Span:
    """Source range: 1-based line/column of the start, character offsets [start, end)."""

    line: int
    column: int
    start: int
    end: int

    def to_json_dict(self) -> dict:
        return {"line": self.line, "column": self.column, "start": self.start, "end": self.end}


@dataclass(frozen=True)
class Diagnostic:
    """One problem found: a stable code, a severity, a message, and where it is."""

    code: str
    severity: str
    message: str
    element: str | None = None
    span: Span | None = None

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "element": self.element,
            "span": self.span.to_json_dict() if self.span else None,
        }

    def __str__(self) -> str:
        where = f" [{self.element}]" if self.element else ""
        return f"{self.severity} {self.code}: {self.message}{where}"


def error(code: str, message: str, element: str | None = None, span: Span | None = None) -> Diagnostic:
    return Diagnostic(code, ERROR, message, element, span)


def warning(code: str, message: str, element: str | None = None, span: Span | None = None) -> Diagnostic:
    return Diagnostic(code, WARNING, message, element, span)


@dataclass(frozen=True)
class ValidationReport:
    """Ordered diagnostics from one or more checks; ok when nothing is error-severity."""

    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return all(d.severity != ERROR for d in self.diagnostics)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "diagnostics": [d.to_json_dict() for d in self.diagnostics]}


class TmError(Exception):
    """Base class for toolchain errors."""


class ModelError(TmError):
    """Raised when declarations cannot produce a well-formed model.

    Carries the full diagnostic list; construction never stops at the
    first problem.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "invalid model")

    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)


class NotEnabledError(TmError):
    """Raised when a stale simulation candidate is executed."""
