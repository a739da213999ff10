"""A deterministic hierarchical profiler for the hot paths.

Where the tracer keeps *individual* query lifecycles (a tree per
query, bounded ring buffer), the profiler *aggregates*: one
:class:`StageStats` per named stage, accumulating call counts,
cumulative and self time on both clocks (simulated milliseconds charged
by the cost models, real wall-clock milliseconds measured around the
stage), and free-form operator counters (rows read, regions probed,
tuples merged).  It does not time anything itself: the serve path
builds one :class:`~repro.obs.spans.Stage` tree per query and
:meth:`Profiler.fold` reads the finished tree when its root closes.
``GET /profile`` serves the aggregate as JSON or a ``pprof``-style flat
text table, and the harness writes it per run as
``profile-<label>.json``.

Self vs cumulative follows the classic profiler convention: a stage's
*cumulative* time includes the stages opened inside it, its *self* time
excludes them.  Re-entrant stages (the same name open twice on the
stack) count one call per entry but contribute to cumulative time only
at the outermost one, so recursion cannot double-count.  An
instantaneous simulated charge (a ``flat`` stage) whose name equals an
enclosing open stage's lands on that stage's own time and counts no
call (the gateway charging ``origin`` inside the ``origin`` phase); any
other charge is a flat call of its own (``parse``, ``read``,
``transfer``).

Rows that are counts rather than scopes — cache mutations, journal
writes, relational operator counters, the origin's simulated server
cost — are written directly with :meth:`Profiler.hit` /
:meth:`~Profiler.count` / :meth:`~Profiler.add_sim`.

The profiler also keeps the top-K *slowest queries* by simulated
response time — the capture that turns "p95 moved" into "these are the
queries that moved it".

:class:`NullProfiler` is the disabled default: every writer checks
``enabled`` first, and it serves the pinned "disabled" payloads.

Stage names are stable identifiers (pinned in DESIGN.md, like the
diagnostic codes): renaming one is a breaking change for anything
filtering profiles or baselines by stage.  All aggregate state is
guarded by the ``proxy.telemetry`` named lock (a pure sink: nothing is
acquired under it), so threaded serves fold concurrently.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.locking import guarded_by, named_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.spans import Stage

#: The stable stage-name registry (see DESIGN.md).  Instrumented code
#: is not limited to these, but the hot-path stages the acceptance
#: criteria and baselines key on must keep these exact names.
STAGE_NAMES = (
    "query",            # one served (or turned away) query, root scope
    "bind",             # form binding ahead of a query (``serve_form``)
    "recovery",         # warm-restart replay, root scope
    "snapshot_load",    # recovery: reading the snapshot
    "journal_replay",   # recovery: walking the journal's intact prefix
    "materialize",      # recovery: re-admitting the surviving entries
    "admit.queue",      # simulated wait in the admission accept queue
    "admit.shed",       # admission turn-away bookkeeping (count-only)
    "parse",            # query parsing charge
    "check",            # cache-description check (region probe phase)
    "probe.array",      # array description probe inside `check`
    "probe.rtree",      # R-tree description probe inside `check`
    "relate",           # exact region-relation checks inside `check`
    "local_eval",       # local evaluation over cached results
    "read",             # cached-tuple read charge
    "remainder_build",  # remainder-query construction
    "origin",           # resilient origin fetch (proxy side)
    "transfer",         # WAN transfer charge
    "merge",            # remainder merge (probe result + origin rows)
    "maintenance",      # cache admission / consolidation / eviction
    "cache.insert",     # cache-manager mutation events (count-only)
    "cache.evict",
    "cache.remove",
    "cache.clear",
    "journal.append",   # persistence journal writes (count-only)
    "journal.replay",
    "origin.form",      # origin-side execution, by request kind
    "origin.sql",
    "origin.remainder",
    "executor.scan",    # relational operator counters (count-only)
    "executor.join",
    "executor.filter",
    "executor.aggregate",
    "executor.project",
)


class StageStats:
    """Aggregated measurements for one named stage."""

    __slots__ = (
        "name",
        "calls",
        "cum_sim_ms",
        "self_sim_ms",
        "cum_wall_ms",
        "self_wall_ms",
        "counters",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum_sim_ms = 0.0
        self.self_sim_ms = 0.0
        self.cum_wall_ms = 0.0
        self.self_wall_ms = 0.0
        self.counters: dict[str, float] = {}

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "calls": self.calls,
            "cum_sim_ms": round(self.cum_sim_ms, 6),
            "self_sim_ms": round(self.self_sim_ms, 6),
            "cum_wall_ms": round(self.cum_wall_ms, 6),
            "self_wall_ms": round(self.self_wall_ms, 6),
        }
        if self.counters:
            payload["counters"] = {
                key: self.counters[key] for key in sorted(self.counters)
            }
        return payload

    def __repr__(self) -> str:
        return (
            f"<StageStats {self.name!r} calls={self.calls} "
            f"cum_sim={self.cum_sim_ms:.3f}ms>"
        )


@guarded_by("proxy.telemetry", "_stats", "_slowest")
class Profiler:
    """Aggregating hierarchical profiler (see the module docstring)."""

    enabled = True

    def __init__(
        self,
        top_k: int = 10,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be positive: {top_k}")
        self.top_k = top_k
        #: What a :class:`~repro.obs.spans.ScopeStack` times its
        #: stages on when this profiler is its only enabled reader.
        self._clock = clock
        self._lock = named_lock("proxy.telemetry")
        self._stats: dict[str, StageStats] = {}
        #: Slowest queries, sorted slowest first.
        self._slowest: list[dict[str, Any]] = []

    def _stats_for(self, name: str) -> StageStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = StageStats(name)
        return stats

    # -------------------------------------------------------------- fold
    def fold(self, root: "Stage") -> None:
        """Aggregate one finished stage tree (a closed root)."""
        with self._lock:
            self._fold(root, [], [])

    def _fold(
        self, stage: "Stage", names: list[str], routed: list[float]
    ) -> float:
        """Fold ``stage`` under its open ancestors — ``names``, and the
        charges ``routed`` to each so far; returns the simulated time
        it adds to its parent's cumulative.

        Children fold before their parent and in order, so each row's
        sums run in the order the stages closed.
        """
        name = stage.name
        if stage.flat:
            if name in names:
                innermost = len(names) - 1 - names[::-1].index(name)
                routed[innermost] += stage.sim_ms
            else:
                self._add_sim(name, stage.sim_ms, 1)
            return 0.0
        names.append(name)
        routed.append(0.0)
        child_sim = child_wall = 0.0
        for child in stage.children:
            child_sim += self._fold(child, names, routed)
            child_wall += child.wall_ms
        names.pop()
        own_sim = routed.pop() + stage.sim_ms
        total_sim = own_sim + child_sim
        stats = self._stats_for(name)
        stats.calls += 1
        stats.self_sim_ms += own_sim
        stats.self_wall_ms += max(0.0, stage.wall_ms - child_wall)
        if name not in names:
            # Outermost stage of this name: cumulative time counts once
            # however deep the re-entrancy went.
            stats.cum_sim_ms += total_sim
            stats.cum_wall_ms += stage.wall_ms
        if stage.counters:
            for counter, n in stage.counters.items():
                stats.counters[counter] = stats.counters.get(counter, 0) + n
        return total_sim

    # --------------------------------------------------- direct count rows
    def _add_sim(self, name: str, sim_ms: float, calls: int) -> None:
        stats = self._stats_for(name)
        stats.calls += calls
        stats.self_sim_ms += sim_ms
        stats.cum_sim_ms += sim_ms

    def add_sim(self, name: str, sim_ms: float, calls: int = 1) -> None:
        """Flat accumulation: ``sim_ms`` and ``calls`` onto ``name``."""
        with self._lock:
            self._add_sim(name, sim_ms, calls)

    def hit(self, name: str, n: int = 1) -> None:
        """Count ``n`` calls of a stage that carries no time of its own
        (cache mutation events, journal writes)."""
        with self._lock:
            self._stats_for(name).calls += n

    def count(self, name: str, counter: str, n: float = 1) -> None:
        """Bump an operator counter (rows, regions, tuples) on a stage."""
        with self._lock:
            counters = self._stats_for(name).counters
            counters[counter] = counters.get(counter, 0) + n

    # ---------------------------------------------------- slowest queries
    def record_query(
        self,
        index: int,
        template_id: str,
        sim_ms: float,
        status: str = "",
    ) -> None:
        """Offer one finished query to the top-K slowest capture.

        Kept slowest-first; once full, the fastest retained query is
        evicted when a slower one arrives.
        """
        entry = {
            "index": index,
            "template": template_id,
            "response_sim_ms": round(sim_ms, 6),
        }
        if status:
            entry["status"] = status
        with self._lock:
            slowest = self._slowest
            position = len(slowest)
            while position > 0 and (
                float(slowest[position - 1]["response_sim_ms"]) < sim_ms
            ):
                position -= 1
            slowest.insert(position, entry)
            if len(slowest) > self.top_k:
                slowest.pop()

    # ------------------------------------------------------------ export
    def snapshot(self) -> dict[str, Any]:
        """The whole profile as a JSON-able dict."""
        with self._lock:
            return {
                "enabled": True,
                "top_k": self.top_k,
                "stages": {
                    name: self._stats[name].to_dict()
                    for name in sorted(self._stats)
                },
                "slowest_queries": [
                    dict(entry) for entry in self._slowest
                ],
            }

    def render_text(self, sort: str = "cum") -> str:
        """A ``pprof``-style flat table of every stage.

        ``sort`` orders rows by ``cum`` (cumulative simulated time,
        the default), ``self`` (self simulated time), ``wall``
        (cumulative wall time), or ``calls``.
        """
        key_for: dict[str, Callable[[StageStats], float]] = {
            "cum": lambda s: s.cum_sim_ms,
            "self": lambda s: s.self_sim_ms,
            "wall": lambda s: s.cum_wall_ms,
            "calls": lambda s: float(s.calls),
        }
        key = key_for.get(sort)
        if key is None:
            raise ValueError(
                f"unknown sort {sort!r}; use cum, self, wall, or calls"
            )
        header = (
            f"{'stage':<18} {'calls':>8} {'self_sim_ms':>12} "
            f"{'cum_sim_ms':>12} {'self_wall_ms':>13} {'cum_wall_ms':>12}"
        )
        lines = [f"profile (sorted by {sort})", header, "-" * len(header)]
        with self._lock:
            ordered = sorted(self._stats.values(), key=key, reverse=True)
        for stats in ordered:
            lines.append(
                f"{stats.name:<18} {stats.calls:>8} "
                f"{stats.self_sim_ms:>12.3f} {stats.cum_sim_ms:>12.3f} "
                f"{stats.self_wall_ms:>13.3f} {stats.cum_wall_ms:>12.3f}"
            )
        counter_lines = []
        for stats in ordered:
            for counter in sorted(stats.counters):
                counter_lines.append(
                    f"{stats.name}.{counter:<24} "
                    f"{stats.counters[counter]:>14g}"
                )
        if counter_lines:
            lines.append("")
            lines.append("operator counters")
            lines.extend(counter_lines)
        if self._slowest:
            lines.append("")
            lines.append(f"slowest queries (top {self.top_k})")
            for entry in self._slowest:
                status = entry.get("status", "")
                suffix = f" [{status}]" if status else ""
                lines.append(
                    f"#{entry['index']} {entry['template']}"
                    f" {entry['response_sim_ms']:.3f}ms{suffix}"
                )
        return "\n".join(lines) + "\n"

    def stats(self, name: str) -> StageStats | None:
        """The aggregated stats of one stage, if it ever ran."""
        return self._stats.get(name)


class NullProfiler:
    """The disabled profiler: nothing is folded into it or counted on
    it (every writer checks ``enabled``); it serves the pinned
    "disabled" payloads."""

    enabled = False
    _clock = staticmethod(time.perf_counter)

    def snapshot(self) -> dict[str, Any]:
        return {
            "enabled": False,
            "top_k": 0,
            "stages": {},
            "slowest_queries": [],
        }

    def render_text(self, sort: str = "cum") -> str:
        return "profiler disabled (no-op default)\n"


#: The singleton no-op profiler instrumentation defaults to.
NULL_PROFILER = NullProfiler()
