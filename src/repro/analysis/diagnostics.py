"""The diagnostic data model of the static cacheability analyzer.

A :class:`Diagnostic` is one structured finding: a stable code
(``FP101`` ... ``FP3xx``, see :mod:`repro.analysis.codes`), a severity,
a human-readable message, an optional :class:`SourceSpan` pointing into
the text the finding is about (template XML, query SQL, or a Python
source file), and an optional fix hint.  An :class:`AnalysisReport`
collects the diagnostics of one analysis run and renders them in the
classic ``path:line:col: CODE severity: message`` compiler style.

Nothing here imports the rest of the repository, so every layer
(templates, webapp, CLI, the repo linter) can depend on it freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a template unregistrable; ``WARNING`` and
    ``INFO`` findings are advisory and never block registration.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class SourceSpan:
    """A half-open character range ``[start, end)`` into some text.

    ``source`` labels the text (a template id, a function name, or a
    file path); ``line``/``column`` are 1-based and refer to ``start``.
    ``snippet`` carries the spanned text itself so a report is readable
    without the original document at hand.
    """

    source: str
    start: int
    end: int
    line: int
    column: int
    snippet: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "line": self.line,
            "column": self.column,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset into ``text``."""
    prefix = text[:offset]
    line = prefix.count("\n") + 1
    last_newline = prefix.rfind("\n")
    column = offset - last_newline  # works for -1 too: offset + 1
    return line, column


def span_at(
    text: str, start: int, end: int, source: str = "<text>"
) -> SourceSpan:
    """A span for an explicit character range of ``text``."""
    start = max(0, min(start, len(text)))
    end = max(start, min(end, len(text)))
    line, column = _line_column(text, start)
    snippet = text[start:end]
    if len(snippet) > 80:
        snippet = snippet[:77] + "..."
    return SourceSpan(
        source=source,
        start=start,
        end=end,
        line=line,
        column=column,
        snippet=snippet,
    )


def span_of(
    text: str, needle: str, source: str = "<text>"
) -> SourceSpan | None:
    """The span of the first occurrence of ``needle`` in ``text``.

    The analyzer uses this to anchor findings into template XML and SQL
    text without a position-tracking parser; when the needle cannot be
    found (e.g. the finding is about something *absent* from the text),
    the caller falls back to :func:`whole_span` or no span at all.
    """
    if not needle:
        return None
    index = text.find(needle)
    if index < 0:
        return None
    return span_at(text, index, index + len(needle), source)


def whole_span(text: str, source: str = "<text>") -> SourceSpan:
    """A span covering all of ``text``."""
    return span_at(text, 0, len(text), source)


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str
    severity: Severity
    message: str
    subject: str = ""
    span: SourceSpan | None = None
    hint: str = ""

    def format(self) -> str:
        """The compiler-style one-or-two-line rendering."""
        where = str(self.span) if self.span is not None else self.subject
        prefix = f"{where}: " if where else ""
        text = f"{prefix}{self.code} {self.severity.value}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "subject": self.subject,
            "span": None if self.span is None else self.span.to_dict(),
            "hint": self.hint,
        }


@dataclass
class AnalysisReport:
    """The diagnostics of one analysis run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    # --------------------------------------------------------- filtering
    def with_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.with_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.with_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    # --------------------------------------------------------- rendering
    def summary(self) -> str:
        n_errors = len(self.errors)
        n_warnings = len(self.warnings)
        n_info = len(self.with_severity(Severity.INFO))
        return (
            f"{n_errors} error(s), {n_warnings} warning(s), "
            f"{n_info} info"
        )

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        lines = [d.format() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "info": len(self.with_severity(Severity.INFO)),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def merge_reports(reports: Iterable[AnalysisReport]) -> AnalysisReport:
    """One report holding every diagnostic of ``reports``, in order."""
    merged = AnalysisReport()
    for report in reports:
        merged.extend(report)
    return merged
