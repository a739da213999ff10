"""Static cacheability analysis: a diagnostics engine for templates.

The paper's correctness argument rests on four statically-checkable
properties (Section 3.1): determinism, spatial region selection
semantics, semantics-preserving joins, and result attribute
availability.  A template that silently violates one produces *wrong
cache answers* at runtime; this package verifies all four — and more —
at admission time and turns every violation into a structured
:class:`Diagnostic` with a stable code, a severity, a source span, and
a fix hint.

The analyzer (``analyze_*``) is a set of pass pipelines over function
template XML, query templates, and info files (codes ``FP1xx`` /
``FP2xx``), wired into :class:`repro.templates.manager.TemplateManager`
registration (an error rejects the template; the manager keeps every
diagnostic, which the Flask apps' ``GET /analyze`` serves), and the
offline CLI ``python -m repro.analysis``.
The repository's own lint (``FP3xx`` / ``FP401``) lives outside the
package, in ``tools/lint.py``; it shares this package's diagnostic
model and code registry.

Diagnostic counts feed the metrics registry as
``analysis_diagnostics_total{code=...,severity=...}``.
"""

from repro.analysis.analyzer import (
    analyze_function_template,
    analyze_function_template_xml,
    analyze_info_file,
    analyze_info_file_xml,
    analyze_path,
    analyze_query_template,
)
from repro.analysis.codes import CODES, CodeInfo, code_info, severity_of
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceSpan,
    merge_reports,
    span_at,
    span_of,
    whole_span,
)

__all__ = [
    "AnalysisReport",
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "Severity",
    "SourceSpan",
    "analyze_function_template",
    "analyze_function_template_xml",
    "analyze_info_file",
    "analyze_info_file_xml",
    "analyze_path",
    "analyze_query_template",
    "code_info",
    "merge_reports",
    "severity_of",
    "span_at",
    "span_of",
    "whole_span",
]
