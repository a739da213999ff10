"""An origin-server adapter that forwards over HTTP.

:class:`HttpOriginClient` implements the same ``execute_bound`` /
``execute_remainder`` surface as
:class:`~repro.server.origin.OriginServer`, but ships the query to a
remote origin app (:mod:`repro.webapp.origin_app`) and parses the XML
response.  A :class:`~repro.core.proxy.FunctionProxy` constructed with
this client fronts a genuinely separate origin process, completing the
browser -> proxy -> web-site HTTP chain of the paper's Figure 4.

A bound query travels as its template id and parameter values, JSON
to ``POST /query`` — a forward or a tunnel as that, a remainder with
its holes besides (``"holes"``, each region in
:func:`~repro.geometry.regions.region_to_dict`'s form): the site binds
it with its own templates and runs their plans, so neither side renders
or parses SQL for it.  Only a free statement travels as SQL, to
``POST /sql``.

The simulated server cost is carried back in the ``X-Server-Ms``
response header, so experiment timing composes identically in both
deployments.  The proxy also needs a catalog for its determinism check;
the client fetches the origin's template registry (and its data
version) once, in one request, and exposes a minimal
``catalog.functions`` shim backed by the declared metadata.

Data-version coherence over HTTP is *eventually consistent*: the
client updates ``data_version`` from the ``X-Data-Version`` header of
each origin response, so the proxy notices a flush-worthy change on
its next origin contact (a cache-only stretch keeps serving the prior
snapshot — the same window any TTL-free HTTP cache has).

Failures take the types the proxy's resilience layer already reacts
to (:mod:`repro.faults.errors`), so a real outage retries, backs off,
trips the breaker and ends as a structured ``failed`` outcome exactly
like an injected one: a refused / reset / unresolvable connection or
an origin 5xx is ``OriginUnavailableError(reason="unreachable")``, a
connect or read timeout is ``OriginTimeoutError``, and an origin 4xx
is :class:`HttpOriginError`, a ``RelationalError`` (``query-error``,
not retried, breaker untouched).

Trace propagation: :meth:`HttpOriginClient.bind_scopes` attaches the
proxy's stage stack (the :class:`~repro.core.proxy.FunctionProxy`
constructor does this automatically); every remainder/full fetch then
carries the W3C ``traceparent`` header for the currently open stage, so
the origin app parents its execution spans under the proxy's
``origin`` phase and both ``/trace/recent`` endpoints stitch into one
end-to-end tree.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from types import SimpleNamespace
from typing import Sequence

from repro.faults.errors import OriginTimeoutError, OriginUnavailableError
from repro.geometry.regions import Region, region_to_dict
from repro.relational.errors import RelationalError
from repro.relational.result import ResultTable
from repro.server.origin import OriginResponse
from repro.sqlparser.ast import SelectStatement
from repro.templates.function_template import FunctionTemplate
from repro.templates.info_file import TemplateInfoFile
from repro.templates.manager import BoundQuery, TemplateManager
from repro.templates.query_template import QueryTemplate


class HttpOriginError(RelationalError):
    """The remote origin rejected a request (a 4xx): the origin is
    alive and the query is bad, which is what the engine's own errors
    mean in process — hence the shared root."""


class _RemoteFunctions:
    """Determinism metadata for remote functions.

    The proxy only asks ``is_deterministic``; templates fetched from
    ``/templates`` are by construction deterministic (the origin
    validates property 1 before publishing), so any function named by
    a registered template answers True and everything else errors.
    """

    def __init__(self, function_names: set[str]) -> None:
        self._names = {name.lower() for name in function_names}

    def is_deterministic(self, name: str) -> bool:
        if name.lower() not in self._names:
            raise HttpOriginError(f"unknown remote function {name!r}")
        return True


class HttpOriginClient:
    """Speaks the origin app's HTTP protocol."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.templates = TemplateManager()
        self._scopes = None
        self._bootstrap_templates()

    def bind_scopes(self, scopes) -> None:
        """Propagate ``scopes``' open trace context on every fetch.

        The proxy calls this with its instrumentation bundle; each
        subsequent origin request carries the W3C ``traceparent``
        header for the stage open at fetch time (the ``origin``
        phase), stitching proxy- and origin-side stages into one tree.
        """
        self._scopes = scopes

    # ---------------------------------------------------------- protocol
    def _bootstrap_templates(self) -> None:
        with urllib.request.urlopen(
            f"{self.base_url}/templates", timeout=self.timeout_s
        ) as response:
            payload = json.loads(response.read().decode("utf-8"))
        function_names: set[str] = set()
        for entry in payload["query_templates"]:
            function_template = FunctionTemplate.from_xml(
                entry["function_template"]
            )
            # Two query templates may share a function template.
            if function_template.name.lower() not in function_names:
                self.templates.register_function_template(function_template)
                function_names.add(function_template.name.lower())
            self.templates.register_query_template(
                QueryTemplate.from_sql(
                    template_id=entry["template_id"],
                    sql=entry["sql"],
                    function_template=function_template,
                    key_column=entry["key_column"],
                    description=entry.get("description", ""),
                )
            )
        for info_xml in payload.get("info_files", ()):
            self.templates.register_info_file(
                TemplateInfoFile.from_xml(info_xml)
            )
        functions = _RemoteFunctions(function_names)
        self.catalog = SimpleNamespace(functions=functions)
        self.data_version: int = payload["data_version"]

    def _post(
        self, path: str, body: str, content_type: str = "text/plain"
    ) -> OriginResponse:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body.encode("utf-8"),
            method="POST",
            headers={"Content-Type": content_type},
        )
        if self._scopes is not None:
            traceparent = self._scopes.current_traceparent()
            if traceparent is not None:
                request.add_header("traceparent", traceparent)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                body = response.read().decode("utf-8")
                server_ms = float(response.headers.get("X-Server-Ms", "0"))
                version = response.headers.get("X-Data-Version")
                if version is not None:
                    self.data_version = int(version)
        except urllib.error.HTTPError as exc:
            detail = f"({exc.code}): {exc.read().decode('utf-8', 'replace')}"
            if exc.code >= 500:
                raise OriginUnavailableError(
                    f"origin failed {detail}", reason="unreachable"
                ) from None
            raise HttpOriginError(f"origin rejected query {detail}") from None
        except (OSError, http.client.HTTPException) as exc:
            # Refused, reset, unresolvable, cut off mid-response — or,
            # raw or as a URLError's reason, a connect / read timeout.
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise OriginTimeoutError(f"origin timed out: {exc}") from None
            raise OriginUnavailableError(
                f"origin unreachable: {exc}", reason="unreachable"
            ) from None
        return OriginResponse(ResultTable.from_xml(body), server_ms)

    # ------------------------------------------- OriginServer interface
    def execute_bound(self, bound: BoundQuery) -> OriginResponse:
        body = {"template_id": bound.template_id, "params": bound.params}
        return self._post("/query", json.dumps(body), "application/json")

    def execute_statement(self, statement: SelectStatement) -> OriginResponse:
        return self._post("/sql", statement.to_sql())

    def execute_remainder(
        self, bound: BoundQuery, holes: Sequence[Region]
    ) -> OriginResponse:
        body = {
            "template_id": bound.template_id,
            "params": bound.params,
            "holes": [region_to_dict(hole) for hole in holes],
        }
        return self._post("/query", json.dumps(body), "application/json")
