"""The template manager and bound (concrete) queries.

The template manager is the proxy component of Figure 4 that holds the
registered function templates, query templates, and info files, and
turns incoming requests into :class:`BoundQuery` objects — the unit the
cache manager and query processor operate on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.geometry.regions import Region
from repro.locking import guarded_by, named_lock, read_only
from repro.sqlparser.ast import SelectStatement
from repro.templates.errors import TemplateAnalysisError, TemplateError
from repro.templates.function_template import FunctionTemplate
from repro.templates.info_file import TemplateInfoFile
from repro.templates.query_template import QueryTemplate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.diagnostics import AnalysisReport, Diagnostic
    from repro.udf.registry import FunctionRegistry


# Not frozen: a frozen dataclass sets each field through
# ``object.__setattr__``, a fifth of a bind.  Nothing rebinds a field.
@dataclass
class BoundQuery:
    """A concrete instance of a query template.

    Everything downstream derives from here: the region the cache
    reasoning uses, the function call's arguments local evaluation
    recomputes the function's columns from and the origin's plan calls
    the function with, and the residual predicate's signature.
    """

    template: QueryTemplate
    params: dict[str, Any]
    function_params: dict[str, Any]
    region: Region
    #: The residual predicate's text (the bound WHERE clause, ``""``
    #: without one): cached entries answer this query only under an
    #: equal one.
    signature: str

    @property
    def template_id(self) -> str:
        return self.template.template_id

    @cached_property
    def statement(self) -> SelectStatement:
        """The template with these values for its parameters, built on
        first use and kept.  No serve path builds it — the origin runs
        the template's plan with ``params`` — the benchmark's oracle
        reads it (its ORDER BY, TOP, source and select list), and so
        do tests that compare the plan with the free-SQL path over its
        text."""
        return self.template.statement.bind(self.params)

    @property
    def key_column(self) -> str:
        return self.template.key_column

    @property
    def top(self) -> int | None:
        return self.template.statement.top

    def cache_key(self) -> tuple:
        """Exact-match identity: template plus parameter values."""
        return (
            self.template_id,
            tuple(sorted(self.params.items())),
        )

    def __repr__(self) -> str:
        return f"<BoundQuery {self.template_id} {self.params}>"


@guarded_by(
    "proxy.templates",
    "_function_templates",
    "_query_templates",
    "_info_files",
    "_analysis_log",
    "_observers",
)
@read_only("functions")
class TemplateManager:
    """Registry of templates and info files; builds bound queries.

    Registration (and the analysis log it feeds) mutates under the
    ``proxy.templates`` named lock, so concurrent registrations and
    serve-path lookups never observe a half-registered template;
    lookups and ``bind`` read without the lock (dict gets are atomic).

    Every registration runs the static cacheability analyzer
    (:mod:`repro.analysis`); an error diagnostic rejects the template
    with :class:`TemplateAnalysisError`, so every registered template
    may be cached.  ``functions`` is the registry of the functions the
    templates call: with it, registration also decides determinism
    (paper property 1) and refuses a template over a non-deterministic
    or unregistered function.  A site passes its catalog's registry; a
    proxy that learned its templates from a site passes none, because
    that site already decided.  All diagnostics (including warnings)
    are kept in :meth:`analysis_diagnostics` and streamed to observers
    registered via :meth:`add_analysis_observer`, which is how they
    reach the metrics registry.
    """

    def __init__(self, functions: "FunctionRegistry | None" = None) -> None:
        self.functions = functions
        self._lock = named_lock("proxy.templates")
        self._function_templates: dict[str, FunctionTemplate] = {}
        self._query_templates: dict[str, QueryTemplate] = {}
        self._info_files: dict[str, TemplateInfoFile] = {}
        self._analysis_log: list[Diagnostic] = []
        #: Each observer behind a call that returns it, or ``None`` once
        #: a bound method's object has been collected.
        self._observers: list[Callable[[], Any]] = []

    # -------------------------------------------------- analysis plumbing
    def _record_report(self, report: "AnalysisReport") -> None:
        for diagnostic in report:
            self._analysis_log.append(diagnostic)
            for ref in self._observers:
                observer = ref()
                if observer is not None:
                    observer(diagnostic)

    def _admit(self, subject: str, report: "AnalysisReport") -> None:
        """Record a report; raise if it holds an error."""
        self._record_report(report)
        if report.has_errors:
            raise TemplateAnalysisError(subject, report)

    def add_analysis_observer(
        self, observer: Callable[["Diagnostic"], None]
    ) -> None:
        """Stream every future diagnostic to ``observer``.

        A bound method is held weakly, so registering one does not keep
        its object (a proxy's instrumentation) alive; other callables
        are held as given.
        """
        ref: Callable[[], Any]
        try:
            ref = weakref.WeakMethod(observer)
        except TypeError:  # a function, or a builtin's bound method
            ref = lambda: observer  # noqa: E731
        with self._lock:
            self._observers = [
                live for live in self._observers if live() is not None
            ]
            self._observers.append(ref)

    def analysis_diagnostics(self) -> list["Diagnostic"]:
        """Every diagnostic recorded by registrations so far."""
        with self._lock:
            return list(self._analysis_log)

    # ------------------------------------------------------ registration
    def register_function_template(self, template: FunctionTemplate) -> None:
        with self._lock:
            key = template.name.lower()
            if key in self._function_templates:
                raise TemplateError(
                    f"function template {template.name!r} already registered"
                )
            from repro.analysis.analyzer import analyze_function_template

            self._admit(
                template.name,
                analyze_function_template(template, self.functions),
            )
            self._function_templates[key] = template

    def register_query_template(self, template: QueryTemplate) -> None:
        with self._lock:
            key = template.template_id.lower()
            if key in self._query_templates:
                raise TemplateError(
                    f"query template {template.template_id!r} "
                    f"already registered"
                )
            from repro.analysis.analyzer import analyze_query_template

            self._admit(
                template.template_id,
                analyze_query_template(template, self.functions),
            )
            template.binder  # generated here, once, not on a first query
            self._query_templates[key] = template

    def register_info_file(self, info: TemplateInfoFile) -> None:
        with self._lock:
            key = info.form_name.lower()
            if key in self._info_files:
                raise TemplateError(
                    f"info file for form {info.form_name!r} "
                    f"already registered"
                )
            if info.template_id.lower() not in self._query_templates:
                raise TemplateError(
                    f"info file {info.form_name!r} references unknown query "
                    f"template {info.template_id!r}"
                )
            from repro.analysis.analyzer import analyze_info_file

            template = self._query_templates[info.template_id.lower()]
            self._admit(info.form_name, analyze_info_file(info, template))
            self._info_files[key] = info

    # ------------------------------------------------------------ lookup
    def function_template(self, name: str) -> FunctionTemplate:
        try:
            return self._function_templates[name.lower()]
        except KeyError:
            raise TemplateError(
                f"no function template for {name!r}"
            ) from None

    def query_template(self, template_id: str) -> QueryTemplate:
        try:
            return self._query_templates[template_id.lower()]
        except KeyError:
            raise TemplateError(
                f"no query template {template_id!r}"
            ) from None

    def info_file(self, form_name: str) -> TemplateInfoFile:
        try:
            return self._info_files[form_name.lower()]
        except KeyError:
            raise TemplateError(
                f"no info file for form {form_name!r}"
            ) from None

    def query_template_ids(self) -> list[str]:
        return [t.template_id for t in self._query_templates.values()]

    def info_files(self) -> list[TemplateInfoFile]:
        return list(self._info_files.values())

    # ----------------------------------------------------------- binding
    def bind(
        self, template_id: str, params: Mapping[str, Any]
    ) -> BoundQuery:
        """A concrete query from a template id and parameter values."""
        template = self.query_template(template_id)
        params = dict(params)
        return BoundQuery(template, params, *template.binder(params))

    def bind_form(
        self, form_name: str, form_values: Mapping[str, str]
    ) -> BoundQuery:
        """A concrete query from raw HTML form fields."""
        info = self.info_file(form_name)
        params = info.bind_form(form_values)
        return self.bind(info.template_id, params)
