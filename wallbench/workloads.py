"""The five workloads: what each one builds and how a query is issued.

A :class:`Workload` is data; an :class:`Environment` is what one
workload's process sets up once (origin, generated queries); a target
is one *fresh* deployment with an empty cache — every pass gets its
own, because the paper measures the first N queries from cold and
cache fill is part of the work.

The program under test sees only the generated queries: ``--seed``
feeds :class:`~repro.workload.generator.RadialTraceConfig` and nothing
else.
"""

from __future__ import annotations

import http.client
import logging
import shutil
import tempfile
import threading
import urllib.parse
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence
from wsgiref.simple_server import WSGIRequestHandler, make_server

from repro import CachingScheme, FunctionProxy, OriginServer
from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.stats import QueryOutcome, QueryRecord
from repro.harness.config import ExperimentScale
from repro.obs import ProxyInstrumentation
from repro.persistence.persister import CachePersister
from repro.relational.result import ResultTable
from repro.templates.skyserver_templates import RADIAL_FORM, RADIAL_TEMPLATE_ID
from repro.webapp import HttpOriginClient, create_origin_app, create_proxy_app
from repro.workload.generator import generate_radial_trace

#: The router's spatial partition cell for the radial template — the
#: ``repro.harness.shard_availability`` value; without it every radial
#: query lands on one shard.
REGION_CELL = 0.02
N_SHARDS = 4


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the deployment it runs against."""

    name: str
    queries: int
    why: str
    #: ``RadialTraceConfig`` fields replaced for this workload.
    moves: Mapping[str, float] = field(default_factory=dict)
    deployment: str = "proxy"  # "proxy" | "http" | "shards"
    cache_bytes: int | None = None
    persistent: bool = False
    #: Whether the everything-on telemetry pass runs for this workload.
    full_on: bool = False
    #: Independent traces the queries are drawn from, replayed back to
    #: back into one deployment.  One trace for the paper's mix; more
    #: where a single trace's random walk would decide the cost.
    segments: int = 1
    #: Nominal wall seconds of one timed pass at the commit that added
    #: the benchmark; turns a ``--seconds`` budget into a pass count.
    pass_seconds: float = 0.0


_ALL_FRESH = {"p_repeat": 0.0, "p_zoom": 0.0, "p_pan": 0.0, "p_zoom_out": 0.0}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="radial_mix",
            queries=2000,
            why=(
                "the paper-calibrated Radial trace on the default proxy: "
                "description probe and region geometry dominate"
            ),
            full_on=True,
            pass_seconds=8.0,
        ),
        Workload(
            name="hot_hits",
            queries=8000,
            why=(
                "99% answered from under 50 cached regions: per-query "
                "fixed cost (binding, telemetry, local evaluation); "
                "bypasses the description index"
            ),
            # Steady across seeds (README, "hot_hits"): 0.3 % fresh keeps
            # the few forwarded queries beyond the p99 band instead of
            # inside it; one fresh radius instead of a 64x range of
            # areas keeps a handful of hot regions from deciding the
            # cost of 8,000 local evaluations.
            moves={
                **_ALL_FRESH,
                "p_repeat": 0.60,
                "p_zoom": 0.3985,
                "radius_min_arcmin": 6.0,
                "radius_max_arcmin": 6.0,
            },
            full_on=True,
            # Zooms nest, so within one trace the radii (and with them
            # the rows per local evaluation) shrink along a random
            # walk that differs wildly between seeds; eight shorter
            # walks average that out.
            segments=8,
            pass_seconds=6.0,
        ),
        Workload(
            name="cold_churn",
            queries=1200,
            why=(
                "all-fresh queries into a cache 1/8 of the result bytes "
                "with a journal: store, evict, description updates, "
                "checkpoints, origin executor on every query"
            ),
            moves=_ALL_FRESH,
            cache_bytes=300_000,
            persistent=True,
            pass_seconds=4.5,
        ),
        Workload(
            name="http_chain",
            queries=1200,
            why=(
                "the radial mix over loopback HTTP, client to proxy app "
                "to origin app: prices form parsing, XML and SQL re-parse"
            ),
            deployment="http",
            pass_seconds=6.0,
        ),
        Workload(
            name="shard_tier",
            queries=4000,
            why=(
                "the radial mix through the 4-shard router: ring hash, "
                "health evaluation, decision log over smaller caches"
            ),
            deployment="shards",
            pass_seconds=8.5,
        ),
    )
}


# ------------------------------------------------------------------ targets


class InProcessTarget:
    """``bind`` + ``serve`` on a proxy or a shard router, in process."""

    def __init__(
        self,
        environment: "Environment",
        server: FunctionProxy | ShardRouter,
        proxies: Sequence[FunctionProxy],
        persist_dir: Path | None = None,
    ) -> None:
        self._templates = environment.origin.templates
        self._params = environment.params
        self._server = server
        self._environment = environment
        self._persist_dir = persist_dir
        self.proxies = list(proxies)
        self.apps: dict[str, Any] = {}

    def issue(self, index: int) -> Any:
        """The timed call: one query, bound and served."""
        # Methods are looked up per call, so the traced pass's wrappers
        # (installed on the classes after this target is built) are seen.
        return self._server.serve(
            self._templates.bind(RADIAL_TEMPLATE_ID, self._params[index])
        )

    @staticmethod
    def ok(response: Any) -> bool:
        return response.record.outcome is QueryOutcome.SERVED

    @staticmethod
    def rows(response: Any) -> list[tuple]:
        return [tuple(row) for row in response.result.rows]

    def records(self) -> list[QueryRecord]:
        """Every served query's record (per proxy, in serve order)."""
        return [
            record
            for proxy in self.proxies
            for record in proxy.stats.records
        ]

    def warm_restart(self) -> tuple[int, int] | None:
        """Restart the proxy from its persistence directory.

        Returns ``(entries restored, entries live at shutdown)``, or
        None for a target without persistence.
        """
        if self._persist_dir is None:
            return None
        live = len(self.proxies[0].cache)
        restarted = self._environment.build_proxy(self._persist_dir)
        report = restarted.recovery_report
        return (0 if report is None else report.entries_restored), live

    def close(self) -> None:
        if self._persist_dir is not None:
            shutil.rmtree(self._persist_dir, ignore_errors=True)


class _QuietHandler(WSGIRequestHandler):
    """wsgiref's handler without the per-request stderr line."""

    def log_message(self, format: str, *args: Any) -> None:
        pass


class _Server:
    """One WSGI app on a ``wsgiref`` thread, on a free loopback port."""

    def __init__(
        self, app: Any, thread_context: Callable[[], AbstractContextManager]
    ) -> None:
        self._server = make_server(
            "127.0.0.1", 0, app, handler_class=_QuietHandler
        )
        self.port = self._server.server_port
        self._context = thread_context
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with self._context():
            self._server.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()


class HttpTarget:
    """Client -> proxy app -> ``HttpOriginClient`` -> origin app.

    Loopback, HTTP/1.0 (``wsgiref``), one connection per request on
    both hops.  ``thread_context`` is entered inside each server
    thread (the counting pass profiles the threads with it).
    """

    def __init__(
        self,
        environment: "Environment",
        instrumentation: ProxyInstrumentation | None,
        thread_context: Callable[[], AbstractContextManager] = nullcontext,
    ) -> None:
        self._paths = environment.paths
        # Each app logs its start-up template analysis (info findings
        # at WARNING); keep the benchmark's stderr for real trouble.
        for app_name in ("repro-origin", "repro-proxy"):
            logging.getLogger(app_name).setLevel(logging.ERROR)
        origin_app = create_origin_app(environment.origin)
        self._origin_server = _Server(origin_app, thread_context)
        try:
            client = HttpOriginClient(
                f"http://127.0.0.1:{self._origin_server.port}"
            )
            proxy = FunctionProxy(
                client, client.templates, instrumentation=instrumentation
            )
            proxy_app = create_proxy_app(proxy)
            self._proxy_server = _Server(proxy_app, thread_context)
        except BaseException:
            self._origin_server.stop()
            raise
        self._port = self._proxy_server.port
        self.proxies = [proxy]
        self.apps = {
            "webapp.proxy_app": proxy_app,
            "webapp.origin_app": origin_app,
        }

    def issue(self, index: int) -> tuple[int, bytes]:
        """The timed call: one whole HTTP request, body read."""
        connection = http.client.HTTPConnection("127.0.0.1", self._port)
        try:
            connection.request("GET", self._paths[index])
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    @staticmethod
    def ok(response: tuple[int, bytes]) -> bool:
        return response[0] == 200

    @staticmethod
    def rows(response: tuple[int, bytes]) -> list[tuple]:
        table = ResultTable.from_xml(response[1].decode("utf-8"))
        return [tuple(row) for row in table.rows]

    def records(self) -> list[QueryRecord]:
        return list(self.proxies[0].stats.records)

    def warm_restart(self) -> None:
        return None

    def close(self) -> None:
        self._proxy_server.stop()
        self._origin_server.stop()


# -------------------------------------------------------------- environment


class Environment:
    """What one workload's process sets up once."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        out_dir: Path,
        queries: int | None = None,
    ) -> None:
        self.workload = workload
        self.out_dir = out_dir
        scale = ExperimentScale.default()
        self.origin = OriginServer.skyserver(scale.sky, scale.server_costs)
        total = queries or workload.queries
        segments = min(workload.segments, total)
        #: The generated inputs, in the two forms a client hands over.
        self.params = [
            query.param_dict()
            for segment in range(segments)
            for query in generate_radial_trace(
                replace(
                    scale.trace,
                    n_queries=total // segments
                    + (1 if segment < total % segments else 0),
                    # With one segment this is ``--seed`` itself.
                    seed=seed * segments + segment,
                    **workload.moves,
                )
            )
        ]
        self.paths = [
            f"/search/{RADIAL_FORM}?"
            + urllib.parse.urlencode(
                {key: params[key] for key in ("ra", "dec", "radius")}
            )
            for params in self.params
        ]

    def __len__(self) -> int:
        return len(self.params)

    def build_proxy(
        self,
        persist_dir: Path | None = None,
        instrumentation: ProxyInstrumentation | None = None,
    ) -> FunctionProxy:
        """The default proxy a user gets, plus the workload's budget."""
        persistence = (
            None if persist_dir is None else CachePersister(persist_dir)
        )
        return FunctionProxy(
            self.origin,
            self.origin.templates,
            cache_bytes=self.workload.cache_bytes,
            instrumentation=instrumentation,
            persistence=persistence,
        )

    def target(
        self,
        instrumentation: ProxyInstrumentation | None = None,
        thread_context: Callable[[], AbstractContextManager] = nullcontext,
    ) -> InProcessTarget | HttpTarget:
        """A fresh deployment with an empty cache."""
        deployment = self.workload.deployment
        if deployment == "http":
            return HttpTarget(self, instrumentation, thread_context)
        if deployment == "shards":
            shards = [
                Shard(f"shard-{index}", self.build_proxy())
                for index in range(N_SHARDS)
            ]
            fallback = FunctionProxy(
                self.origin,
                self.origin.templates,
                scheme=CachingScheme.NO_CACHE,
            )
            router = ShardRouter(
                shards,
                fallback=fallback,
                config=RouterConfig(
                    region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL}
                ),
            )
            return InProcessTarget(
                self, router, [shard.proxy for shard in shards] + [fallback]
            )
        persist_dir = None
        if self.workload.persistent:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            persist_dir = Path(
                tempfile.mkdtemp(prefix="persist-", dir=self.out_dir)
            )
        proxy = self.build_proxy(persist_dir, instrumentation)
        return InProcessTarget(
            self, proxy, [proxy], persist_dir=persist_dir
        )
