"""Fault-injecting wrappers for the origin server and the topology.

Both wrappers are transparent when no fault is scheduled: they delegate
to the wrapped object and return its answers unchanged.  When the plan
says otherwise they *simulate* the failure — raising the retryable
errors of :mod:`repro.faults.errors` or scaling the simulated costs —
and every injected delay flows through the existing instrumentation
paths (``server_ms`` on the origin response, ``transfer_ms`` via the
topology's recorder), so :class:`~repro.core.stats.QueryRecord`
timings stay honest.

Time comes exclusively from the proxy's
:class:`~repro.network.clock.SimulatedClock`; the wrappers never read
the wall clock (lint rule FP301, ``tools/lint.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.faults.errors import OriginTimeoutError, OriginUnavailableError
from repro.faults.plan import FaultKind, FaultSession
from repro.network.clock import SimulatedClock
from repro.network.link import Topology
from repro.server.origin import OriginResponse, OriginServer
from repro.sqlparser.ast import SelectStatement
from repro.templates.manager import BoundQuery


class FaultyOrigin:
    """An origin server wrapper that fails on the plan's schedule.

    Implements the ``execute_*`` surface of
    :class:`~repro.server.origin.OriginServer` (and of the HTTP client
    that mirrors it); everything else — ``catalog``, ``templates``,
    ``costs`` — is delegated untouched.  ``data_version`` additionally
    applies any version bumps the plan scheduled at or before the
    current simulated time, which is how a plan flips the data version
    mid-trace.
    """

    def __init__(
        self,
        inner: OriginServer,
        session: FaultSession,
        clock: SimulatedClock,
    ) -> None:
        self._inner = inner
        self._session = session
        self._clock = clock

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def inner(self) -> OriginServer:
        return self._inner

    @property
    def data_version(self) -> int:
        for _ in range(self._session.due_version_bumps(self._clock.now_ms)):
            self._inner.bump_data_version()
        return self._inner.data_version

    # ----------------------------------------------------- fault gating
    def _guarded(
        self, fn: Callable[[], OriginResponse]
    ) -> OriginResponse:
        decision = self._session.origin_attempt(self._clock.now_ms)
        if decision.kind is FaultKind.OUTAGE:
            raise OriginUnavailableError(
                "origin outage window active", reason="outage"
            )
        if decision.kind is FaultKind.TIMEOUT:
            raise OriginTimeoutError()
        if decision.kind is FaultKind.ERROR:
            raise OriginUnavailableError("injected transient failure")
        response = fn()
        if decision.slowdown > 1.0:
            response = OriginResponse(
                response.result, response.server_ms * decision.slowdown
            )
        return response

    # ------------------------------------------- OriginServer interface
    def execute_bound(self, bound: BoundQuery) -> OriginResponse:
        return self._guarded(lambda: self._inner.execute_bound(bound))

    def execute_statement(
        self, statement: SelectStatement
    ) -> OriginResponse:
        return self._guarded(
            lambda: self._inner.execute_statement(statement)
        )

    def execute_sql(self, sql: str) -> OriginResponse:
        return self._guarded(lambda: self._inner.execute_sql(sql))

    def execute_remainder(
        self, statement: SelectStatement, n_holes: int
    ) -> OriginResponse:
        return self._guarded(
            lambda: self._inner.execute_remainder(statement, n_holes)
        )

    def execute_form(
        self, form_name: str, form_values: Mapping[str, str]
    ) -> OriginResponse:
        return self._guarded(
            lambda: self._inner.execute_form(form_name, form_values)
        )


class FaultyTopology:
    """A topology wrapper that stretches the proxy -> origin hop.

    During a slowdown window every origin round trip is multiplied by
    the window's factor, charged through
    :meth:`~repro.network.link.Topology.origin_round_trip_ms`'s own
    recorder path.  The client hop (browser -- proxy, a LAN) is never
    scaled.
    """

    def __init__(
        self,
        inner: Topology,
        session: FaultSession,
        clock: SimulatedClock,
    ) -> None:
        self._inner = inner
        self._session = session
        self._clock = clock

    @property
    def inner(self) -> Topology:
        return self._inner

    @property
    def request_bytes(self) -> int:
        return self._inner.request_bytes

    def instrumented(self, recorder: Any) -> "FaultyTopology":
        return FaultyTopology(
            self._inner.instrumented(recorder), self._session, self._clock
        )

    def origin_round_trip_ms(self, response_bytes: int) -> float:
        return self._inner.origin_round_trip_ms(
            response_bytes,
            factor=self._session.slowdown_factor(self._clock.now_ms),
        )

    def client_round_trip_ms(self, response_bytes: int) -> float:
        return self._inner.client_round_trip_ms(response_bytes)
