"""The origin server.

Each origin carries an
:class:`~repro.obs.instrument.OriginInstrumentation` — request counts,
simulated server cost and result-size histograms by request kind, and
a data-version gauge — surfaced by the origin web app's ``/metrics``.
Pass a bundle with a real tracer or profiler to also trace or profile
every execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.instrument import OriginInstrumentation
from repro.relational.catalog import Catalog
from repro.relational.executor import Executor
from repro.relational.result import ResultTable
from repro.server.costs import ServerCostModel
from repro.skydata.generator import SkyCatalogConfig, build_sky_catalog
from repro.sqlparser.ast import SelectStatement
from repro.sqlparser.parser import parse_select
from repro.templates.manager import BoundQuery, TemplateManager
from repro.templates.skyserver_templates import register_skyserver_templates
from repro.udf.skyserver import register_skyserver_functions


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
        self, statement: SelectStatement, kind: str, **attrs
    ) -> OriginResponse:
        """Execute one statement under an ``origin.<kind>`` stage, count
        it and charge it: the remainder price for a stage with
        ``holes``, the query price otherwise."""
        obs = self.instrumentation
        with obs.scope(f"origin.{kind}", **attrs) as stage:
            # The operator counters go to whatever profiler the bundle
            # holds now (web apps swap one in after construction).
            result = Executor(self.catalog, obs.profiler).execute(statement)
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

    def execute_bound(self, bound: BoundQuery) -> OriginResponse:
        """Execute a concrete template query (a form submission, or a
        proxy's forward — in process or through the origin app)."""
        return self._execute(
            bound.statement, "form", template=bound.template_id
        )

    def execute_statement(self, statement: SelectStatement) -> OriginResponse:
        """Execute a parsed statement through the free-SQL facility."""
        return self._execute(statement, "sql")

    def execute_sql(self, sql: str) -> OriginResponse:
        """Execute raw SQL text (the public free-SQL search page).

        Raises :class:`~repro.sqlparser.errors.ParseError` /
        :class:`~repro.relational.errors.RelationalError` for bad input;
        the origin app maps those to a 400 response.
        """
        return self.execute_statement(parse_select(sql))

    def execute_remainder(
        self, statement: SelectStatement, n_holes: int
    ) -> OriginResponse:
        """Execute a remainder query (a rewritten query with excluded
        regions); costed separately per the model's surcharge."""
        return self._execute(statement, "remainder", holes=n_holes)

    def execute_form(self, form_name: str, form_values) -> OriginResponse:
        """Serve a raw HTML form submission end to end."""
        bound = self.templates.bind_form(form_name, form_values)
        return self.execute_bound(bound)


__all__ = ["OriginResponse", "OriginServer"]
