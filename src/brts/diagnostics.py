"""Source positions, diagnostics and the stable error-code table."""

from __future__ import annotations

from typing import Optional

from .record import record


@record(frozen=True)
class Span:
    line: int
    col: int
    end_line: int = 0
    end_col: int = 0

    def covers(self, line: int, col: int) -> bool:
        el = self.end_line or self.line
        ec = self.end_col or self.col
        if (line, col) < (self.line, self.col):
            return False
        return (line, col) <= (el, ec)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span(0, 0)

# One code per error case; golden tests pin these.
CODES = {
    "LexError": "BRTS001",
    "ParseError": "BRTS002",
    "DuplicateState": "BRTS003",
    "UnknownParent": "BRTS004",
    "CyclicStateHierarchy": "BRTS005",
    "NoMainState": "BRTS006",
    "NoSuchMethod": "BRTS007",
    "IllKindedFamily": "BRTS008",
    "StateOutOfFamily": "BRTS009",
    "IllFormedFormula": "BRTS010",
    "UnboundVariable": "BRTS011",
    "NotADepInstance": "BRTS012",
    "PreconditionViolation": "BRTS013",
    "PostconditionUnsatisfiable": "BRTS014",
    "MatchArmNotSubstate": "BRTS015",
    "InvariantNotEstablished": "BRTS016",
    "InvariantNotPreserved": "BRTS017",
    "ContradictoryContext": "BRTS018",
    "BodyBreaksPostcondition": "BRTS019",
    "IllFormedType": "BRTS020",
    "PermissionViolation": "BRTS021",
    "DuplicateMember": "BRTS022",
    "ArityMismatch": "BRTS023",
    "TypeMismatch": "BRTS024",
    "UnsupportedRelation": "BRTS025",
}


@record
class Diagnostic:
    severity: str              # "error" | "warning" | "note"
    kind: str                  # key into CODES
    message: str
    span: Span = NO_SPAN
    note: Optional[str] = None  # usually the offending constraint formula

    @property
    def code(self) -> str:
        return CODES[self.kind]

    def render(self, filename: str = "<input>") -> str:
        head = f"{filename}:{self.span.line}:{self.span.col}: {self.severity}: {self.message} [{self.code}]"
        if self.note:
            head += f"\n    note: {self.note}"
        return head

    def to_json(self, filename: str = "<input>") -> dict:
        out = {
            "file": filename,
            "line": self.span.line,
            "col": self.span.col,
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.note:
            out["note"] = self.note
        return out


class BrtsError(Exception):
    """Raised for unrecoverable front-end failures; carries one diagnostic."""

    def __init__(self, kind: str, message: str, span: Span = NO_SPAN, note: str | None = None):
        super().__init__(message)
        self.diagnostic = Diagnostic("error", kind, message, span, note)

    @property
    def kind(self) -> str:
        return self.diagnostic.kind

    @property
    def span(self) -> Span:
        return self.diagnostic.span
