"""Named locks, guarded-state registration, and the order sanitizer.

The concurrency-safety story has two legs, and this module is the
runtime one (the other is ``tools/lint.py``: ``FP309`` makes every lock
a :class:`NamedLock`, ``FP401`` makes every piece of shared serve-path
state carry a registration):

* :func:`named_lock` is the **one sanctioned way to construct a lock**.
  Every lock carries a stable *role name* (``"proxy.cache"``,
  ``"persistence.journal"``, ...) so :data:`LOCK_ORDER`, the
  registrations and the runtime sanitizer all talk about acquisition
  order in the same vocabulary.  Constructing ``threading.Lock()`` /
  ``threading.RLock()`` anywhere else in the repository is flagged as
  ``FP309``.

* :func:`guarded_by` / :func:`unshared` / :func:`read_only` register a
  class's shared mutable attributes (the decorator form of the
  ``# guarded-by: <lock>`` comment convention); ``FP401`` reads them.
  The decorators also leave the registration on the class
  (``__concurrency_guards__``) so tests and tooling can introspect it.

* :data:`LOCK_ORDER` is the **declared acquisition order**: every
  ``(outer, inner)`` pair of roles the code may nest.  It is the only
  statement of lock order in the repository.

* :class:`LockOrderSanitizer` is the **debug-mode runtime check**: when
  enabled (tests; never the default), every :class:`NamedLock`
  acquisition records *held-lock -> acquired-lock* edges on a
  per-thread stack and raises :class:`LockOrderError` the moment two
  locks are taken in both orders — or in the reverse of a declared
  :data:`LOCK_ORDER` pair, at its first acquisition — catching
  interleavings that a deadlock would otherwise only reveal under load.

Lock names are roles, not instances: every ``CacheManager`` constructs
its own ``named_lock("proxy.cache")``.  Re-acquiring a *name* a thread
already holds is treated as reentrant (all named locks are RLocks), so
two same-role locks nested — e.g. two caches in one process — do not
trip the sanitizer.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, TypeVar

_T = TypeVar("_T")

#: Registration kinds a class can declare for an attribute.
GUARDED = "guarded"
UNSHARED = "unshared"
READ_ONLY = "read-only"

#: The declared lock-acquisition order: ``(outer, inner)`` means code
#: may acquire ``inner`` while holding ``outer``, never the reverse.
#: Acyclic.  ``proxy.telemetry`` and ``proxy.trace`` are pure sinks:
#: entered under any role, never holding one (DESIGN.md, lock roles).
LOCK_ORDER: frozenset[tuple[str, str]] = frozenset(
    {
        # every journal append writes the file under the journal lock
        ("persistence.journal", "persistence.journal.file"),
        # admissions and evictions are journaled under the cache lock
        ("proxy.cache", "persistence.journal"),
        ("proxy.cache", "persistence.journal.file"),
        # the data-version fence: admits and flushes under proxy.state
        ("proxy.state", "persistence.journal"),
        ("proxy.state", "persistence.journal.file"),
        ("proxy.state", "proxy.cache"),
    }
)


class LockOrderError(RuntimeError):
    """Two locks were acquired in both orders (potential deadlock)."""


class LockOrderSanitizer:
    """Records actual lock-acquisition order and flags inversions.

    Keeps one held-lock stack per thread and a process-wide set of
    observed ``(outer, inner)`` name pairs.  Acquiring ``B`` while
    holding ``A`` records ``A -> B`` for every held ``A``; if ``B -> A``
    was ever observed (or declared via ``edges``), the acquisition
    raises :class:`LockOrderError` instead of deadlocking later.  The
    observed set — declared edges are not in it — is what tests assert
    is a subset of :data:`LOCK_ORDER`.
    """

    def __init__(
        self, edges: Iterable[tuple[str, str]] = ()
    ) -> None:
        # The sanitizer's own lock is infrastructure, not a registry
        # lock: it guards the observed-edge set below and must never
        # itself participate in ordering.
        self._mutex = threading.Lock()
        self._held = threading.local()  # unshared: per-thread stack
        self._declared = frozenset(
            (str(outer), str(inner)) for outer, inner in edges
        )
        self._observed: set[tuple[str, str]] = set()  # guarded-by: _mutex

    # ------------------------------------------------------------ state
    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def held(self) -> tuple[str, ...]:
        """The lock names the calling thread currently holds."""
        return tuple(self._stack())

    def observed_edges(self) -> set[tuple[str, str]]:
        """Every ``(outer, inner)`` acquisition pair seen so far."""
        with self._mutex:
            return set(self._observed)

    # ------------------------------------------------------- lifecycle
    def acquiring(self, name: str) -> list[tuple[str, str]]:
        """Called by :class:`NamedLock` before an acquire attempt.

        Validates every edge of the attempt against the observed set
        *before* committing any of them, so a rejected acquisition
        never leaves a partial record behind (an edge committed ahead
        of a later inverse would turn into a false positive for some
        other thread).  Returns the edges this attempt newly added;
        :meth:`abandoned` takes them back if the acquire then fails.
        """
        stack = self._stack()
        if name in stack:  # reentrant by role name: no new edges
            stack.append(name)
            return []
        attempt = [(held, name) for held in dict.fromkeys(stack)]
        with self._mutex:
            for edge in attempt:
                inverse = (edge[1], edge[0])
                if inverse in self._observed or inverse in self._declared:
                    raise LockOrderError(
                        f"lock order inversion: acquiring {name!r} while "
                        f"holding {edge[0]!r}, but {inverse[0]!r} -> "
                        f"{inverse[1]!r} was previously "
                        "observed or declared"
                    )
            added = [
                edge for edge in attempt if edge not in self._observed
            ]
            self._observed.update(added)
        stack.append(name)
        return added

    def abandoned(self, name: str, edges: list[tuple[str, str]]) -> None:
        """Called by :class:`NamedLock` after a *failed* non-blocking
        acquire: unwind the stack entry and retract the edges the
        attempt recorded — an ordering that was never established must
        not later trip a false :class:`LockOrderError`.

        Best-effort on a concurrent duplicate: another thread that
        established the same edge between this attempt and its
        retraction loses the record too (debug-mode tooling; the next
        successful acquisition re-records it).
        """
        self.released(name)
        if edges:
            with self._mutex:
                self._observed.difference_update(edges)

    def released(self, name: str) -> None:
        """Called by :class:`NamedLock` after a release."""
        stack = self._stack()
        # Unwind the most recent acquisition of this name; releases out
        # of acquisition order are tolerated the same way the span
        # tracer tolerates out-of-order exits.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def assert_consistent_with(
        self, edges: Iterable[tuple[str, str]] = LOCK_ORDER
    ) -> None:
        """Every observed edge must appear in ``edges``.

        An observed edge outside the declared order is a nesting the
        code acquired but nobody declared.
        """
        declared = {(str(a), str(b)) for a, b in edges}
        unexpected = sorted(self.observed_edges() - declared)
        if unexpected:
            raise LockOrderError(
                "runtime acquisition edges missing from the declared "
                f"lock order: {unexpected}"
            )


#: The process-wide sanitizer, or None (the default: zero overhead
#: beyond one attribute read per acquire).  Installed by tests via
#: enable_lock_sanitizer(); never enabled on the production hot path.
_sanitizer: LockOrderSanitizer | None = None  # unshared: installed once, before threads start


def enable_lock_sanitizer(
    edges: Iterable[tuple[str, str]] | None = None,
) -> LockOrderSanitizer:
    """Install (and return) a fresh process-wide sanitizer.

    ``edges`` (default :data:`LOCK_ORDER`) pre-declares the acquisition
    order, so an inversion of a *declared* edge trips even if the
    straight order was never exercised at runtime.
    """
    global _sanitizer
    _sanitizer = LockOrderSanitizer(LOCK_ORDER if edges is None else edges)
    return _sanitizer


def disable_lock_sanitizer() -> None:
    """Remove the process-wide sanitizer."""
    global _sanitizer
    _sanitizer = None


def current_sanitizer() -> LockOrderSanitizer | None:
    """The installed sanitizer, if any."""
    return _sanitizer


class NamedLock:
    """A reentrant lock with a stable role name.

    The name is the unit of lock identity: a ``# guarded-by:
    proxy.cache`` annotation and a :data:`LOCK_ORDER` pair refer to
    whichever :class:`NamedLock` instance carries that role.  Use as a
    context manager (``with self._lock:``).
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("a lock needs a non-empty role name")
        self.name = name
        self._lock = threading.RLock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        sanitizer = _sanitizer
        attempt_edges: list[tuple[str, str]] = []
        if sanitizer is not None:
            attempt_edges = sanitizer.acquiring(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if not acquired and sanitizer is not None:
            sanitizer.abandoned(self.name, attempt_edges)
        return acquired

    def release(self) -> None:
        self._lock.release()
        sanitizer = _sanitizer
        if sanitizer is not None:
            sanitizer.released(self.name)

    def __enter__(self) -> "NamedLock":
        # One frame when no sanitizer is installed (the serve path).
        if _sanitizer is None:
            self._lock.acquire()
        else:
            self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()
        sanitizer = _sanitizer
        if sanitizer is not None:
            sanitizer.released(self.name)

    def __repr__(self) -> str:
        return f"<NamedLock {self.name!r}>"


def named_lock(name: str) -> NamedLock:
    """The one sanctioned lock constructor (see FP309).

    A raw ``threading.Lock()`` is anonymous: the sanitizer cannot see
    it, so no :data:`LOCK_ORDER` pair can be checked against it.
    """
    return NamedLock(name)


def _register(
    cls: type[_T], kind: str, lock: str | None, attrs: tuple[str, ...]
) -> type[_T]:
    guards = dict(getattr(cls, "__concurrency_guards__", {}))
    for attr in attrs:
        guards[attr] = (kind, lock)
    cls.__concurrency_guards__ = guards  # type: ignore[attr-defined]
    return cls


def guarded_by(
    lock: str, *attrs: str
) -> Callable[[type[_T]], type[_T]]:
    """Class decorator: ``attrs`` may only be written under ``lock``.

    The decorator form of the ``# guarded-by: <lock>`` comment; FP401
    reads either.  ``lock`` is a role name constructed somewhere via
    :func:`named_lock`.
    """

    def decorate(cls: type[_T]) -> type[_T]:
        return _register(cls, GUARDED, lock, attrs)

    return decorate


def unshared(*attrs: str) -> Callable[[type[_T]], type[_T]]:
    """Class decorator: ``attrs`` are never shared across threads.

    The explicit waiver for per-query / per-thread state (spans,
    decision traces in flight): FP401 counts the attribute as
    registered.
    """

    def decorate(cls: type[_T]) -> type[_T]:
        return _register(cls, UNSHARED, None, attrs)

    return decorate


def read_only(*attrs: str) -> Callable[[type[_T]], type[_T]]:
    """Class decorator: ``attrs`` are set during init and never again."""

    def decorate(cls: type[_T]) -> type[_T]:
        return _register(cls, READ_ONLY, None, attrs)

    return decorate


__all__ = [
    "GUARDED",
    "LOCK_ORDER",
    "LockOrderError",
    "LockOrderSanitizer",
    "NamedLock",
    "READ_ONLY",
    "UNSHARED",
    "current_sanitizer",
    "disable_lock_sanitizer",
    "enable_lock_sanitizer",
    "guarded_by",
    "named_lock",
    "read_only",
    "unshared",
]
