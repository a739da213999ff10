"""The fault subsystem's error hierarchy.

Two families, deliberately distinct:

* **Attempt failures** — what one origin attempt raises, injected by
  the :class:`~repro.faults.resilience.OriginGateway` on a fault plan's
  schedule or by a transport that really failed
  (:class:`OriginUnavailableError`, :class:`OriginTimeoutError`).  These
  are retryable: the gateway catches them, backs off, and tries again.
* **Structured outcomes** — what the gateway raises *after* resilience
  gave up (:class:`OriginUnavailable`) or when the origin answered with
  a query-level error that retrying cannot fix
  (:class:`OriginQueryError`).  The proxy converts these into a
  :class:`~repro.core.stats.QueryRecord` with a non-``served`` outcome
  instead of letting them escape ``FunctionProxy.serve``.
"""

from __future__ import annotations


class FaultError(Exception):
    """Root of everything the fault subsystem raises."""


class FaultPlanError(FaultError):
    """A fault plan is malformed (bad window, rate, or payload)."""


class OriginUnavailableError(FaultError):
    """An injected transient failure of the proxy -> origin hop.

    ``reason`` distinguishes the injection mechanism (``"outage"`` for a
    scheduled outage window, ``"transient"`` for a probabilistic error).
    Retryable: a later attempt may succeed.
    """

    def __init__(self, message: str, reason: str = "transient") -> None:
        super().__init__(message)
        self.reason = reason


class OriginTimeoutError(OriginUnavailableError):
    """An injected hang: the origin never answers within the attempt
    timeout.  The gateway charges the full per-attempt timeout for it."""

    def __init__(self, message: str = "origin attempt timed out") -> None:
        super().__init__(message, reason="timeout")


class OriginUnavailable(FaultError):
    """Terminal, structured outcome: the origin could not be reached.

    Raised by the gateway once retries are exhausted or the circuit
    breaker refuses the hop; the proxy maps it to a ``failed`` (or
    degraded) query outcome, never to an uncaught exception.
    """

    def __init__(self, reason: str, retries: int = 0) -> None:
        super().__init__(f"origin unavailable ({reason})")
        self.reason = reason
        self.retries = retries


class OriginQueryError(FaultError):
    """The origin answered, but with a query-level error (parse or
    execution failure).  Not retryable — the same query would fail
    again — and not a breaker failure: the origin is alive."""

    def __init__(self, message: str, retries: int = 0) -> None:
        super().__init__(message)
        self.reason = "query-error"
        self.retries = retries

