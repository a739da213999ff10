"""Entry points of the static cacheability analyzer.

Each ``analyze_*`` function builds a :class:`PassContext`, runs the
relevant pass pipeline, and returns an :class:`AnalysisReport`.  The
callers are:

* :class:`repro.templates.manager.TemplateManager` — at registration,
  rejecting artifacts with error diagnostics and keeping every
  diagnostic, which the Flask apps' ``GET /analyze`` and startup log
  serve;
* the offline CLI, ``python -m repro.analysis``.

The XML entry points (``analyze_function_template_xml``,
``analyze_info_file_xml`` and ``analyze_path``) parse nothing
themselves: they run the document's one reader, the one ``from_xml``
runs (:mod:`repro.templates.document`), with a sink that turns each
problem into a diagnostic anchored in the text.
"""

from __future__ import annotations

import pathlib

from repro.analysis.diagnostics import AnalysisReport, merge_reports
from repro.analysis.passes import (
    FUNCTION_TEMPLATE_PASSES,
    FunctionCatalog,
    PassContext,
    analyze_query_template_passes,
    check_info_file,
)
from repro.templates.function_template import (
    FunctionTemplate,
    read_function_template,
)
from repro.templates.info_file import TemplateInfoFile, read_info_file
from repro.templates.query_template import QueryTemplate


def analyze_function_template(
    template: FunctionTemplate,
    registry: FunctionCatalog | None = None,
) -> AnalysisReport:
    """Semantic passes (FP107–FP111) over a constructed template.

    Spans anchor into the template's XML serialization, which is also
    what a registered template round-trips through.
    """
    ctx = PassContext(
        subject=template.name,
        text=template.to_xml(),
        source=f"{template.name}.xml",
        registry=registry,
    )
    for semantic_pass in FUNCTION_TEMPLATE_PASSES:
        semantic_pass(template, ctx)
    return ctx.report


def analyze_function_template_xml(
    text: str,
    source: str = "<function-template>",
    registry: FunctionCatalog | None = None,
) -> AnalysisReport:
    """The document's reader (FP101–FP106) over raw XML text, then the
    semantic passes (FP107–FP111) over the template it built."""
    ctx = PassContext(
        subject=source, text=text, source=source, registry=registry
    )
    template = read_function_template(text, ctx.emit_at)
    if template is not None:
        ctx.subject = template.name
        for semantic_pass in FUNCTION_TEMPLATE_PASSES:
            semantic_pass(template, ctx)
    return ctx.report


def analyze_query_template(
    template: QueryTemplate,
    registry: FunctionCatalog | None = None,
) -> AnalysisReport:
    """Property passes (FP202–FP211) over a parsed query template."""
    ctx = PassContext(
        subject=template.template_id,
        text=template.sql,
        source=f"{template.template_id}.sql",
        registry=registry,
    )
    analyze_query_template_passes(template, ctx)
    return ctx.report


def analyze_info_file(
    info: TemplateInfoFile,
    template: QueryTemplate | None,
) -> AnalysisReport:
    """Binding passes (FP212–FP214) over an info file.

    ``template`` is the query template the info file names, or None
    when it is not registered (FP212).
    """
    ctx = PassContext(subject=info.form_name)
    check_info_file(info, template, ctx)
    return ctx.report


def analyze_info_file_xml(
    text: str, source: str = "<info-file>"
) -> AnalysisReport:
    """The document's reader (FP101 / FP102) over raw info-file XML.

    Cross-references (FP212–FP214) need a template registry, so the
    offline linter only validates the document shape.
    """
    ctx = PassContext(subject=source, text=text, source=source)
    read_info_file(text, ctx.emit_at)
    return ctx.report


def analyze_path(path: str | pathlib.Path) -> AnalysisReport:
    """Lint one template/info XML file (or a directory of them).

    The document kind is sniffed from the root element; files that are
    neither function templates nor info files get an FP102.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        return merge_reports(
            analyze_path(child) for child in sorted(path.rglob("*.xml"))
        )
    text = path.read_text(encoding="utf-8")
    source = str(path)
    stripped = text.lstrip()
    if stripped.startswith("<?"):
        stripped = stripped.split("?>", 1)[-1].lstrip()
    if stripped.startswith("<TemplateInfo"):
        return analyze_info_file_xml(text, source)
    return analyze_function_template_xml(text, source)
