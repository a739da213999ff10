"""One timed scope, the per-thread stack that nests it, and the tracer.

A :class:`Stage` is one named piece of work: a wall-clock duration
(the clock is read once on enter and once on exit), an accumulated
simulated-clock charge, free-form attributes, operator counters, and
child stages.  It is the only scope implementation on the serve path;
``/trace/recent``, ``/profile`` and ``QueryRecord.steps_ms`` are three
readers of the same finished tree.

Stages nest on a :class:`ScopeStack` — one open-stage stack per
thread.  When a *root* stage closes, the finished tree is handed once
to whichever readers are enabled: the tracer retains it (ring buffer,
``/trace/recent``, JSONL), the profiler folds it into its per-stage
aggregate (:meth:`repro.obs.profiling.Profiler.fold`).  With both off
the tree is simply dropped — it has already timed the description
check and filled ``steps_ms`` — and a query builds only its root and
phases: its sub-stages are the shared :data:`NULL_STAGE` and its flat
charges make no stage (``repro.obs.instrument.QueryObservation``).

When tracing is on every visible stage carries distributed-tracing
identity: a 128-bit trace id shared by the whole tree and a 64-bit
span id of its own (:mod:`repro.obs.propagation`), drawn in
stage-open order.  A root stage normally mints a fresh trace id;
opened under :meth:`ScopeStack.remote_context` it instead joins the
caller's trace — that is how the origin's execution stages parent
under the proxy's ``origin`` phase across the HTTP hop.
:meth:`ScopeStack.current_traceparent` renders the W3C header the HTTP
client injects on outbound requests.

Two flags shape what the readers see.  A ``hidden`` stage
(``probe.<kind>``, ``admit.shed``) is profile-only: it draws no ids
and is left out of the rendered trace, so it must be a leaf of the
traced tree.  A ``flat`` stage is an instantaneous simulated charge
(:meth:`ScopeStack.event`): a zero-wall child in the trace, and in the
profile either a flat call or — when an enclosing open stage has the
same name — part of that stage's own time.

Thread model: the open-stage stack (and the adopted remote parent) is
per-thread state, and a :class:`Stage` belongs to the one thread that
opened it (the ``unshared`` registration below).  The tracer's
finished-root ring and its ``spans_started`` counter are shared and
guarded by the ``proxy.trace`` named lock, taken once per finished
root.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from types import TracebackType
from typing import Any, Callable, Iterator

from repro.locking import guarded_by, named_lock, read_only, unshared
from repro.obs.events import newest
from repro.obs.profiling import NULL_PROFILER
from repro.obs.propagation import IdGenerator, TraceContext


@unshared(
    "attrs",
    "counters",
    "children",
    "wall_ms",
    "sim_ms",
    "trace_id",
    "span_id",
    "parent_id",
    "flat",
    "_open",
    "_parent",
    "_start",
    "_steps",
)
class Stage:
    """One stage of work; a context manager bound to its stack."""

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "children",
        "wall_ms",
        "sim_ms",
        "trace_id",
        "span_id",
        "parent_id",
        "hidden",
        "flat",
        "_open",
        "_parent",
        "_start",
        "_steps",
        "_sim_clock",
    )

    def __init__(
        self,
        open_: "_OpenStages",
        name: str,
        attrs: dict[str, Any],
        hidden: bool = False,
        steps: dict[str, float] | None = None,
        sim_clock: Any = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, float] | None = None
        self.children: list[Stage] = []
        self.wall_ms = 0.0
        self.sim_ms = 0.0
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.hidden = hidden
        self.flat = False
        #: The opening thread's side of the stack (a stage is entered
        #: and exited on the thread that created it).
        self._open = open_
        #: The stage open on this thread when this one was entered —
        #: the open-stage stack is this chain, innermost first.
        self._parent: Stage | None = None
        self._start = 0.0
        #: Set on a query's phases: the query's step charges, which
        #: this stage's own charge joins when it closes, and the
        #: simulated clock every charge advances at once.
        self._steps = steps
        self._sim_clock = sim_clock

    def __enter__(self) -> "Stage":
        open_ = self._open
        owner = open_.owner
        tracer = owner.tracer
        if tracer.enabled and not self.hidden:
            tracer._identify(self, open_.top or open_.remote_parent)
        self._parent = open_.top
        open_.top = self
        self._start = owner._clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        open_ = self._open
        owner = open_.owner
        self.wall_ms = (owner._clock() - self._start) * 1000.0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        steps = self._steps
        if steps is not None:
            self.attrs["wall_ms"] = round(self.wall_ms, 6)
            # A phase that raised before charging leaves no step key.
            if exc_type is None or self.sim_ms:
                steps[self.name] = steps.get(self.name, 0.0) + self.sim_ms
        # Tolerate out-of-order exits: whatever was opened above this
        # stage and never closed is unwound with it (and dropped); a
        # stage that was itself unwound earlier closes as a root.
        node = open_.top
        while node is not None and node is not self:
            node = node._parent
        parent = open_.top = self._parent if node is self else None
        self._parent = None  # no parent <-> child cycle outlives the exit
        if parent is not None:
            parent.children.append(self)
        else:
            owner._hand_off(self)
        return False

    def annotate(self, **attrs: Any) -> "Stage":
        """Attach attributes (status, counts, ...) to this stage."""
        self.attrs.update(attrs)
        return self

    def charge(self, sim_ms: float) -> None:
        """Accumulate simulated-clock milliseconds onto this stage.

        A query phase advances the query's simulated clock right away,
        so time-dependent machinery (fault windows, breaker cooldowns)
        sees intra-phase progress in charge order.
        """
        self.sim_ms += sim_ms
        if self._sim_clock is not None:
            self._sim_clock.advance(sim_ms)

    def count(self, counter: str, n: float = 1) -> None:
        """Bump an operator counter (rows, regions, tuples)."""
        counters = self.counters
        if counters is None:
            self.counters = {counter: n}
        else:
            counters[counter] = counters.get(counter, 0) + n

    def context(self) -> TraceContext | None:
        """This stage's trace context (``None`` when it carries no
        identity: tracing off, hidden, or not yet entered)."""
        if self.trace_id is None or self.span_id is None:
            return None
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms, 6),
            "sim_ms": round(self.sim_ms, 6),
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        children = [c.to_dict() for c in self.children if not c.hidden]
        if children:
            payload["children"] = children
        return payload

    def __repr__(self) -> str:
        return (
            f"<Stage {self.name!r} wall={self.wall_ms:.3f}ms "
            f"sim={self.sim_ms:.3f}ms children={len(self.children)}>"
        )


class NullStage:
    """What a query's sub-stage is when nothing reads the tree: one
    shared object whose enter, exit and count do nothing."""

    __slots__ = ()

    def __enter__(self) -> "NullStage":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def count(self, counter: str, n: float = 1) -> None:
        pass


NULL_STAGE = NullStage()


class NullTracer:
    """The disabled tracer: retains nothing, serves empty exports."""

    enabled = False
    spans_started = 0

    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        return []

    def export_jsonl(self) -> str:
        return ""


@unshared("top", "remote_parent")
class _OpenStages:
    """One thread's side of a stack: its innermost open stage and the
    remote caller it adopted."""

    __slots__ = ("owner", "top", "remote_parent")

    def __init__(self, owner: "ScopeStack") -> None:
        self.owner = owner
        self.top: Stage | None = None
        self.remote_parent: TraceContext | None = None

    def event(self, name: str, sim_ms: float, attrs: dict[str, Any]) -> None:
        """A zero-wall-duration child of the innermost open stage (an
        instantaneous charge); a root of its own when none is open."""
        stage = Stage(self, name, attrs)
        stage.sim_ms = sim_ms
        stage.flat = True
        owner = self.owner
        if owner.tracer.enabled:
            owner.tracer._identify(stage, self.top or self.remote_parent)
        if self.top is not None:
            self.top.children.append(stage)
        else:
            owner._hand_off(stage)


@unshared("_local")
@read_only("tracer", "profiler", "_clock")
class ScopeStack:
    """The per-thread open-stage stack and the hand-off at root close.

    ``tracer`` and ``profiler`` are the two readers of a finished
    tree, fixed at construction.  Stages are timed on the tracer's
    clock when tracing is on and on the profiler's otherwise (the
    disabled profiler reads ``time.perf_counter``); the choice is made
    here, once.
    """

    def __init__(self, tracer: Any = None, profiler: Any = None) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._clock: Callable[[], float] = (
            self.tracer._clock if self.tracer.enabled else self.profiler._clock
        )
        #: Bound only here; the state behind it is thread-local by
        #: construction.
        self._local = threading.local()

    def _opened(self) -> _OpenStages:
        """The calling thread's open stages."""
        try:
            open_: _OpenStages = self._local.open
        except AttributeError:
            open_ = self._local.open = _OpenStages(self)
        return open_

    # ------------------------------------------------------------ record
    def scope(self, name: str, hidden: bool = False, **attrs: Any) -> Stage:
        """A new stage; nests under the currently open one when
        entered.  ``hidden`` keeps it out of the trace (profile-only)."""
        return Stage(self._opened(), name, attrs, hidden)

    def event(self, name: str, sim_ms: float = 0.0, **attrs: Any) -> None:
        """A zero-wall-duration child (an instantaneous charge)."""
        self._opened().event(name, sim_ms, attrs)

    def _hand_off(self, root: Stage) -> None:
        """A root closed: each enabled reader gets the finished tree."""
        if self.tracer.enabled and not root.hidden:
            self.tracer.retain(root)
        if self.profiler.enabled:
            self.profiler.fold(root)

    # ------------------------------------------------------- propagation
    def current_traceparent(self) -> str | None:
        """The W3C ``traceparent`` header of the innermost open stage.

        With no stage open but a remote parent adopted, the remote
        context itself is current — an instrumentation-free stretch of
        a request still belongs to its caller's trace.
        """
        open_ = self._opened()
        top = open_.top
        context = open_.remote_parent if top is None else top.context()
        return None if context is None else context.to_traceparent()

    @contextmanager
    def remote_context(
        self, context: TraceContext | None
    ) -> Iterator[None]:
        """Adopt a caller's trace context for the duration of the block.

        Root stages opened inside join ``context``'s trace with the
        caller's span as their parent.  ``None`` is a no-op, so the
        receiving side can pass ``parse_traceparent(...)`` straight in.
        """
        if context is None:
            yield
            return
        open_ = self._opened()
        previous = open_.remote_parent
        open_.remote_parent = context
        try:
            yield
        finally:
            open_.remote_parent = previous


@guarded_by("proxy.trace", "_finished", "spans_started")
class SpanTracer:
    """Keeps the last ``capacity`` finished roots and mints trace ids.

    A reader of a :class:`ScopeStack`: the stack asks it for ids and
    hands it finished roots.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 256,
        clock: Callable[[], float] = time.perf_counter,
        ids: IdGenerator | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        #: The ring-buffer bound on retained root stages.
        self.capacity = capacity
        self._clock = clock
        self._ids = ids if ids is not None else IdGenerator()
        self._lock = named_lock("proxy.trace")
        self._finished: deque[Stage] = deque(maxlen=capacity)
        self.spans_started = 0

    # ------------------------------------------------------------ record
    def _identify(
        self, stage: Stage, parent: Stage | TraceContext | None
    ) -> None:
        stage.span_id = self._ids.span_id()
        if parent is None:
            stage.trace_id = self._ids.trace_id()
        else:
            stage.trace_id = parent.trace_id
            stage.parent_id = parent.span_id

    def retain(self, root: Stage) -> None:
        """Keep one finished root (evicting the oldest when full)."""
        started, pending = 0, [root]
        while pending:
            stage = pending.pop()
            if not stage.hidden:
                started += 1
                pending.extend(stage.children)
        with self._lock:
            self._finished.append(root)
            self.spans_started += started

    # ------------------------------------------------------------ export
    def recent(self, n: int | None = None) -> list[dict[str, Any]]:
        """The most recent finished roots, oldest first.

        ``n`` bounds the result; zero and negative values yield [].
        """
        with self._lock:  # snapshot: renders happen outside the lock
            roots = list(self._finished)
        return [root.to_dict() for root in newest(roots, n)]

    def iter_jsonl(self) -> Iterator[str]:
        with self._lock:
            roots = list(self._finished)
        for root in roots:
            yield json.dumps(root.to_dict(), sort_keys=True)

    def export_jsonl(self) -> str:
        """Finished roots as JSON Lines (one root per line)."""
        lines = list(self.iter_jsonl())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: Any) -> int:
        """Append finished roots to ``path``; returns roots written."""
        lines = list(self.iter_jsonl())
        if lines:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        return len(lines)
