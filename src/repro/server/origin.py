"""The origin server.

Each origin carries an
:class:`~repro.obs.instrument.OriginInstrumentation` — request counts,
simulated server cost and result-size histograms by request kind, and
a data-version gauge — surfaced by the origin web app's ``/metrics``.
Pass a bundle with a real tracer or profiler to also trace or profile
every execution.

A query template is planned once (:class:`~repro.relational.executor.Plan`)
and its plan serves every form submission, forward and remainder of
it: a forward runs the plan with the query's values, a remainder runs
the same plan with its holes as a row filter (:func:`hole_filter`).
Free SQL is planned per statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import add
from typing import Any, Callable, Sequence

from repro.geometry.regions import (
    ConvexPolytope,
    HyperRect,
    HyperSphere,
    Region,
)
from repro.obs.instrument import OriginInstrumentation
from repro.relational.catalog import Catalog
from repro.relational.executor import Executor, Plan
from repro.relational.result import ResultTable
from repro.server.costs import ServerCostModel
from repro.skydata.generator import SkyCatalogConfig, build_sky_catalog
from repro.sqlparser.ast import SelectStatement
from repro.sqlparser.parser import parse_select
from repro.templates.errors import TemplateError
from repro.templates.manager import BoundQuery, TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import register_skyserver_templates
from repro.udf.skyserver import register_skyserver_functions

Point = Sequence[Any]


def hole_filter(
    holes: Sequence[Region], dims: int
) -> Callable[[Point], bool]:
    """Whether a point lies in any of a remainder's ``holes``.

    Exactly what the remainder's ``AND NOT <hole>`` SQL conjuncts
    decided, not :meth:`Region.point_test` (which widens every shape by
    ``EPSILON``): the same float operations in the same order — terms
    ``(x - c) * (x - c)`` or ``coefficient * x`` summed left to right,
    a sphere's limit ``radius ** 2``, a box's bounds inclusive — and
    SQL's NULL rule: a hole whose predicate is NULL (a NULL coordinate;
    for a box, only when no axis is outside) excludes the row, as
    ``NOT NULL`` is not true.
    """
    if not holes:
        raise TemplateError("a remainder query needs at least one hole")
    tests = [_hole_test(hole, dims) for hole in holes]
    return lambda point: any(test(point) for test in tests)


def _hole_test(hole: Region, dims: int) -> Callable[[Point], bool]:
    if hole.dims != dims:
        raise TemplateError(f"a {hole.dims}-d remainder hole, {dims}-d points")
    if isinstance(hole, HyperRect):
        bounds = tuple(zip(hole.lows, hole.highs))
        return lambda point: all(
            x is None or lo <= x <= hi for x, (lo, hi) in zip(point, bounds)
        )
    if isinstance(hole, HyperSphere):
        center, limit = hole.center, hole.radius**2
        return lambda point: None in point or reduce(
            add, [(x - c) * (x - c) for x, c in zip(point, center)]
        ) <= limit
    if isinstance(hole, ConvexPolytope):
        halfspaces = [(h.normal, h.offset) for h in hole.halfspaces]
        return lambda point: None in point or all(
            reduce(add, [a * x for a, x in zip(normal, point)]) <= offset
            for normal, offset in halfspaces
        )
    raise TemplateError(
        f"a remainder hole must be a sphere, box or polytope, not "
        f"{type(hole).__name__}"
    )


class _TemplatePlan:
    """A query template planned at the origin: the statement's plan,
    and the reader of the point each of its rows represents (built by
    the template's first remainder — a template that cannot locate its
    points still serves forwards)."""

    def __init__(self, template: QueryTemplate, catalog: Catalog) -> None:
        self.template = template
        self.plan = Plan(catalog, template.statement, slots=True)

    @cached_property
    def points(self) -> Callable[[tuple[Any, ...]], tuple[Any, ...]]:
        return self.plan.reader(self.template.function_template.point_exprs)


@dataclass(frozen=True)
class OriginResponse:
    """A query answer plus the simulated server time it cost."""

    result: ResultTable
    server_ms: float


class OriginServer:
    """The database-backed web site the proxy fronts.

    ``templates`` is the site's own application logic (HTML forms bound
    to parameterized queries).  The same template objects are shared
    with the proxy in experiments — exactly the paper's setup, where
    the site publishes its templates for registration at the proxy.
    """

    def __init__(
        self,
        catalog: Catalog,
        templates: TemplateManager,
        costs: ServerCostModel | None = None,
        instrumentation: OriginInstrumentation | None = None,
    ) -> None:
        self.catalog = catalog
        self.templates = templates
        self.costs = costs or ServerCostModel()
        self.instrumentation = instrumentation or OriginInstrumentation()
        self.queries_served = 0
        self.remainders_served = 0
        self.data_version = 1
        #: One plan per registered template, by id (:meth:`_run`).
        self._plans: dict[str, _TemplatePlan] = {}

    def bump_data_version(self) -> int:
        """Announce that base data changed.

        The paper's determinism property (Section 3.1) holds "given a
        fixed database"; when the database does change (a data load, a
        reprocessing run), the site bumps this version and caching
        proxies flush — the coarse-grained coherence scheme real
        deployments of the SkyServer era used (whole-cache invalidation
        on data release).
        """
        self.data_version += 1
        self.instrumentation.data_version.set(self.data_version)
        return self.data_version

    @staticmethod
    def skyserver(
        config: SkyCatalogConfig | None = None,
        costs: ServerCostModel | None = None,
    ) -> "OriginServer":
        """A ready-to-serve synthetic SkyServer."""
        catalog = build_sky_catalog(config)
        register_skyserver_functions(
            catalog.functions, catalog.table("PhotoPrimary")
        )
        templates = TemplateManager()
        register_skyserver_templates(templates)
        server = OriginServer(catalog, templates, costs)
        for template_id in templates.query_template_ids():
            templates.query_template(template_id).validate(catalog.functions)
        return server

    # ----------------------------------------------------------- serving
    def _execute(
        self, run: Callable[[Any], ResultTable], kind: str, **attrs: Any
    ) -> OriginResponse:
        """``run(profiler)`` under an ``origin.<kind>`` stage, counted
        and charged: the remainder price for a stage with ``holes``,
        the query price otherwise."""
        obs = self.instrumentation
        with obs.scope(f"origin.{kind}", **attrs) as stage:
            # The operator counters go to whatever profiler the bundle
            # holds now (web apps swap one in after construction).
            result = run(obs.profiler)
            stage.count("rows", len(result))
            stage.annotate(rows=len(result))
        self.queries_served += 1
        if "holes" in attrs:
            self.remainders_served += 1
            server_ms = self.costs.remainder_ms(len(result), attrs["holes"])
        else:
            server_ms = self.costs.query_ms(len(result))
        obs.observe(kind, result.byte_size(), server_ms)
        return OriginResponse(result, server_ms)

    def _run(
        self, bound: BoundQuery, inside: Callable[[Point], bool] | None,
        profiler: Any,
    ) -> ResultTable:
        """``bound`` through its template's plan, without the rows whose
        point ``inside`` is true of.  The plan is built on the
        template's first query and reused only for the template object
        it was built from; two threads building one at once store
        equal plans, and the last write wins."""
        template = bound.template
        entry = self._plans.get(template.template_id)
        if entry is None or entry.template is not template:
            entry = _TemplatePlan(template, self.catalog)
            self._plans[template.template_id] = entry
        exclude = None
        if inside is not None:
            points = entry.points
            exclude = lambda row: inside(points(row))  # noqa: E731
        arguments = list(bound.function_params.values())
        return entry.plan.run(arguments, bound.params, exclude, profiler)

    def execute_bound(self, bound: BoundQuery) -> OriginResponse:
        """Execute a concrete template query (a form submission, or a
        proxy's forward — in process or through the origin app)."""
        run = partial(self._run, bound, None)
        return self._execute(run, "form", template=bound.template_id)

    def execute_remainder(
        self, bound: BoundQuery, holes: Sequence[Region]
    ) -> OriginResponse:
        """Execute ``bound`` minus the rows whose points lie in
        ``holes`` (the cached regions of a remainder query), costed
        separately per the model's surcharge.  A hole that is no
        sphere, box or polytope of the template's dimensions is a
        :class:`TemplateError`."""
        inside = hole_filter(holes, bound.template.function_template.dims)
        run = partial(self._run, bound, inside)
        return self._execute(run, "remainder", holes=len(holes))

    def execute_statement(self, statement: SelectStatement) -> OriginResponse:
        """Execute a parsed statement through the free-SQL facility."""
        return self._execute(
            lambda profiler: Executor(self.catalog, profiler).execute(
                statement
            ),
            "sql",
        )

    def execute_sql(self, sql: str) -> OriginResponse:
        """Execute raw SQL text (the public free-SQL search page).

        Raises :class:`~repro.sqlparser.errors.ParseError` /
        :class:`~repro.relational.errors.RelationalError` for bad input;
        the origin app maps those to a 400 response.
        """
        return self.execute_statement(parse_select(sql))

    def execute_form(self, form_name: str, form_values) -> OriginResponse:
        """Serve a raw HTML form submission end to end."""
        bound = self.templates.bind_form(form_name, form_values)
        return self.execute_bound(bound)


__all__ = ["OriginResponse", "OriginServer"]
