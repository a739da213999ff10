"""Spans recorded from outside: wrappers around layer entry points.

The program is not edited.  For one traced pass, wallbench replaces
the public functions each layer is entered through with wrappers that
record ``(name, start_ns, end_ns, parent, query_id)`` into an
in-memory list, take counts (candidates, pairs, tuples, rows, records,
bytes) at the same boundaries, and are removed again before any other
pass runs.  A layer's time is its spans' *self* time: duration minus
the part its child spans cover.

One stack serves every thread.  That is sound only because the load
is a closed loop with one client: at any instant exactly one thread of
the client -> proxy app -> origin app chain is making progress, so
spans open and close in strict LIFO order across threads.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.core.proxy as proxy_module
from repro.cluster.router import ShardRouter
from repro.core.cache import CacheManager
from repro.core.evaluation import LocalEvaluator
from repro.core.proxy import FunctionProxy
from repro.faults.resilience import OriginGateway
from repro.geometry.relations import RegionRelation
from repro.obs.decisions import DecisionLog
from repro.obs.instrument import ProxyInstrumentation
from repro.persistence.persister import CachePersister
from repro.relational.result import ResultTable
from repro.server.origin import OriginServer
from repro.templates.manager import TemplateManager
from repro.webapp.http_origin import HttpOriginClient

# Span field positions.
NAME, START, END, PARENT, QUERY = range(5)

RELATE_SPAN = "geometry.relate"


class SpanRecorder:
    """The in-memory span list, the open-span stack and the counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.query_id = -1
        self._stack: list[int] = []
        # geometry.relate runs once per candidate; its calls inside one
        # query are folded into one span starting at the first call.
        self._relate_ns = 0
        self._relate_start = 0
        self._relate_parent = -1

    # ------------------------------------------------------------ recording
    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        count: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``function`` recorded as a span named ``name``.

        A call made while a span of the same name is already the
        innermost open one (``bind_form`` calling ``bind``,
        ``execute_sql`` calling ``execute_statement``) is passed
        through unrecorded, so each entry into a layer is one span.
        ``count(counts, result, *args)`` runs after a recorded call.
        """
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][NAME] == name:
                return function(*args, **kwargs)
            span = [name, 0, 0, parent, self.query_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                count(counts, result, *args)
            return result

        wrapper.wallbench_wrapper = True  # type: ignore[attr-defined]
        return wrapper

    def wrap_relate(self, relate: Callable[..., Any]) -> Callable[..., Any]:
        """``relate`` timed per call, recorded as one span per query."""
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns
        disjoint = RegionRelation.DISJOINT

        def wrapper(a: Any, b: Any) -> Any:
            start = clock()
            relation = relate(a, b)
            end = clock()
            if not self._relate_start:
                self._relate_start = start
                self._relate_parent = stack[-1] if stack else -1
            self._relate_ns += end - start
            counts["relate_pairs"] += 1
            if relation is not disjoint:
                counts["relate_useful"] += 1
            return relation

        wrapper.wallbench_wrapper = True  # type: ignore[attr-defined]
        return wrapper

    def end_query(self) -> None:
        """Close the query: flush its folded ``geometry.relate`` span."""
        if self._relate_start:
            self.spans.append(
                [
                    RELATE_SPAN,
                    self._relate_start,
                    self._relate_start + self._relate_ns,
                    self._relate_parent,
                    self.query_id,
                ]
            )
            self._relate_ns = self._relate_start = 0
        self.query_id = -1

    # -------------------------------------------------------------- reading
    def self_ns(self) -> list[int]:
        """Each span's self time: duration minus its children's."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def duration_ns(self, index: int) -> int:
        span = self.spans[index]
        return span[END] - span[START]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start_ns": span[START],
                            "end_ns": span[END],
                            "parent": span[PARENT],
                            "query": span[QUERY],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------- counts at boundaries
# Each hook is ``(counts, result, *call args)``; for methods args[0] is
# the instance.


def _count_candidates(counts: Any, result: Any, *args: Any) -> None:
    counts["probes"] += 1
    counts["candidates"] += len(result[0])


def _count_exact(counts: Any, result: Any, *args: Any) -> None:
    counts["exact_lookups"] += 1
    if result is not None:
        counts["exact_hits"] += 1


def _count_store(counts: Any, result: Any, *args: Any) -> None:
    entry, report = result
    counts["stores"] += 1
    counts["evictions"] += report.evicted_entries
    if entry is not None:
        counts["admitted_entries"] += 1


def _count_select(counts: Any, result: Any, *args: Any) -> None:
    counts["tuples_read"] += result.tuples_read
    counts["tuples_selected"] += len(result.result)


def _count_remainder(counts: Any, result: Any, *args: Any) -> None:
    counts["remainders"] += 1
    counts["holes"] += result.n_holes


def _count_gateway(counts: Any, result: Any, *args: Any) -> None:
    counts["gateway_calls"] += 1
    counts["gateway_retries"] += result[1]


def _count_origin(counts: Any, result: Any, *args: Any) -> None:
    counts["origin_calls"] += 1
    counts["origin_rows"] += len(result.result)


def _count_admitted(counts: Any, result: Any, *args: Any) -> None:
    persister, entry = args[0], args[1]
    if not persister.suspended:
        counts["journal_records"] += 1
        counts["admitted_bytes"] += entry.byte_size


def _count_removed(counts: Any, result: Any, *args: Any) -> None:
    if not args[0].suspended:
        counts["journal_records"] += 1


def _count_checkpoint(counts: Any, result: Any, *args: Any) -> None:
    # The snapshot just written; the journal bytes it truncated were
    # noted by the wrapper installed around ``checkpoint`` (below).
    counts["snapshot_bytes"] += args[0].snapshot_path.stat().st_size


def _count_route(counts: Any, result: Any, *args: Any) -> None:
    counts["routes"] += 1
    counts[f"shard:{result.dispatched}"] += 1
    if result.rerouted:
        counts["failovers"] += 1


#: ``(owner, attribute, span name, count hook)`` for every class- and
#: module-level entry point.  Descriptions and Flask apps are wrapped
#: per instance (see ``install_wrappers``).
_ENTRY_POINTS: tuple[tuple[Any, str, str, Any], ...] = (
    (TemplateManager, "bind", "templates.bind", None),
    (TemplateManager, "bind_form", "templates.bind", None),
    (FunctionProxy, "serve", "core.proxy.serve", None),
    (CacheManager, "exact_match_pinned", "core.cache.exact", _count_exact),
    (CacheManager, "store", "core.cache.store", _count_store),
    (CacheManager, "remove", "core.cache.remove", None),
    (LocalEvaluator, "select_in_region", "core.evaluation.local_eval",
     _count_select),
    (LocalEvaluator, "finalize", "core.evaluation.local_eval", None),
    (ResultTable, "merge_dedup", "relational.result.merge", None),
    (proxy_module, "build_remainder", "core.remainder.build",
     _count_remainder),
    (OriginGateway, "call", "faults.gateway.call", _count_gateway),
    (OriginServer, "execute_bound", "server.origin.execute", _count_origin),
    (OriginServer, "execute_remainder", "server.origin.execute",
     _count_origin),
    (OriginServer, "execute_statement", "server.origin.execute",
     _count_origin),
    (OriginServer, "execute_sql", "server.origin.execute", _count_origin),
    (OriginServer, "execute_form", "server.origin.execute", _count_origin),
    (HttpOriginClient, "execute_bound", "webapp.http_origin", None),
    (HttpOriginClient, "execute_remainder", "webapp.http_origin", None),
    (HttpOriginClient, "execute_statement", "webapp.http_origin", None),
    (CachePersister, "admitted", "persistence.append", _count_admitted),
    (CachePersister, "removed", "persistence.append", _count_removed),
    (CachePersister, "checkpoint", "persistence.checkpoint",
     _count_checkpoint),
    (proxy_module, "recover_cache", "persistence.recover", None),
    (ProxyInstrumentation, "observe_record", "obs.observe_record", None),
    (ProxyInstrumentation, "sample_telemetry", "obs.sample_telemetry", None),
    (DecisionLog, "begin", "obs.decisions.begin", None),
    (DecisionLog, "record", "obs.decisions.record", None),
    (ShardRouter, "route", "cluster.router.route", _count_route),
    (ShardRouter, "serve", "cluster.router.serve", None),
)

#: The span names that make up ``obs.respond_us``.
OBS_RESPOND_SPANS = (
    "obs.observe_record",
    "obs.sample_telemetry",
    "obs.decisions.begin",
    "obs.decisions.record",
)


def _journal_bytes_before(
    counts: Any, checkpoint: Callable[..., Any]
) -> Callable[..., Any]:
    """Note the journal bytes a checkpoint is about to truncate."""

    def wrapper(persister: Any, *args: Any, **kwargs: Any) -> Any:
        counts["journal_bytes"] += persister.journal.size_bytes
        return checkpoint(persister, *args, **kwargs)

    return wrapper


@contextmanager
def install_wrappers(recorder: SpanRecorder, target: Any) -> Iterator[None]:
    """Install every wrapper for ``target``; remove them all on exit."""
    patched: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, replacement: Any) -> None:
        patched.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, replacement)

    try:
        for owner, attribute, name, count in _ENTRY_POINTS:
            original = getattr(owner, attribute)
            if (owner, attribute) == (CachePersister, "checkpoint"):
                original = _journal_bytes_before(recorder.counts, original)
            patch(owner, attribute, recorder.wrap(name, original, count))
        patch(proxy_module, "relate", recorder.wrap_relate(proxy_module.relate))
        for proxy in target.proxies:
            description = proxy.cache.description
            patch(
                description,
                "candidates",
                recorder.wrap(
                    "core.description.probe",
                    description.candidates,
                    _count_candidates,
                ),
            )
            for attribute in ("add", "remove"):
                patch(
                    description,
                    attribute,
                    recorder.wrap(
                        "core.description.update",
                        getattr(description, attribute),
                    ),
                )
        for name, app in target.apps.items():
            patch(app, "wsgi_app", recorder.wrap(name, app.wsgi_app))
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


_ABSENT = object()


def wrappers_installed() -> list[str]:
    """Entry points that still carry a wallbench wrapper (for tests)."""
    entry_points = [row[:2] for row in _ENTRY_POINTS]
    return [
        f"{owner.__name__}.{attribute}"
        for owner, attribute in entry_points + [(proxy_module, "relate")]
        if hasattr(getattr(owner, attribute), "wallbench_wrapper")
    ]
