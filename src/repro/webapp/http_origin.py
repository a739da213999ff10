"""An origin-server adapter that forwards over HTTP.

:class:`HttpOriginClient` implements the same ``execute_bound`` /
``execute_remainder`` surface as
:class:`~repro.server.origin.OriginServer`, but ships the query to a
remote origin app (:mod:`repro.webapp.origin_app`) and decodes the
answer by its media type: the binary table (``ResultTable.from_bytes``)
the site sends for a bound query, XML for a free statement.  A
:class:`~repro.core.proxy.FunctionProxy` constructed with this client
fronts a genuinely separate origin process, completing the
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
deployments.  The client fetches the origin's templates (and its data
version) once, in one request, and registers them into a manager that
holds no function registry: the origin checked each template against
its functions (determinism, paper property 1) before publishing it.

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


#: The media type of an answer that is a result's binary table.
BINARY_TABLE = "application/octet-stream"


class HttpOriginError(RelationalError):
    """The remote origin rejected a request (a 4xx): the origin is
    alive and the query is bad, which is what the engine's own errors
    mean in process — hence the shared root."""


class HttpOriginClient:
    """Speaks the origin app's HTTP protocol to ``base_url``
    (``http://host:port``)."""

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
        _headers, answer = self._request("GET", "/templates", None, {})
        payload = json.loads(answer.decode("utf-8"))
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
        self.data_version: int = payload["data_version"]

    def _request(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[http.client.HTTPMessage, bytes]:
        """One request on its own connection (the origin may speak
        HTTP/1.0); the answer's headers and body, or the failure mapped
        onto the resilience layer's types."""
        connection = http.client.HTTPConnection(
            self.base_url.split("://", 1)[-1], timeout=self.timeout_s
        )
        try:
            connection.request(method, path, body, headers)
            response = connection.getresponse()
            answer = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Refused, reset, unresolvable, cut off mid-response, or a
            # connect / read timeout.
            if isinstance(exc, TimeoutError):
                raise OriginTimeoutError(f"origin timed out: {exc}") from None
            raise OriginUnavailableError(
                f"origin unreachable: {exc}", reason="unreachable"
            ) from None
        finally:
            connection.close()
        if response.status >= 400:
            text = answer.decode("utf-8", "replace")
            detail = f"({response.status}): {text}"
            if response.status >= 500:
                raise OriginUnavailableError(
                    f"origin failed {detail}", reason="unreachable"
                )
            raise HttpOriginError(f"origin rejected query {detail}")
        return response.msg, answer

    def _post(
        self, path: str, body: str, content_type: str = "text/plain"
    ) -> OriginResponse:
        headers = {"Content-Type": content_type}
        if self._scopes is not None:
            traceparent = self._scopes.current_traceparent()
            if traceparent is not None:
                headers["traceparent"] = traceparent
        response_headers, answer = self._request(
            "POST", path, body.encode("utf-8"), headers
        )
        server_ms = float(response_headers.get("X-Server-Ms", "0"))
        version = response_headers.get("X-Data-Version")
        if version is not None:
            self.data_version = int(version)
        if response_headers.get_content_type() == BINARY_TABLE:
            return OriginResponse(ResultTable.from_bytes(answer), server_ms)
        return OriginResponse(
            ResultTable.from_xml(answer.decode("utf-8")), server_ms
        )

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
