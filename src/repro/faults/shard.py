"""Seeded shard-level fault plans for the sharded proxy tier.

A :class:`ShardCrashPlan` schedules what goes wrong *inside the tier*
— a shard worker crashing, hanging, or slowing mid-trace — on the same
simulated clock and with the same determinism contract as the origin
:class:`~repro.faults.plan.FaultPlan`: plans are immutable, and a
plan's session is the same
:class:`~repro.faults.plan.FaultSession`, with shard ids as targets —
one seeded rng draw per routing attempt regardless of the configured
rates.  Nothing here may read the wall clock (FP301) or use unseeded
randomness (FP305; both ``tools/lint.py``).

Fault kinds, per window:

* ``crash`` — the shard is dead for the window (forever when the
  window is open-ended): the router must not dispatch to it and its
  cache is gone unless a warm handoff exported it first;
* ``hang`` — the shard accepts nothing for the window but keeps its
  cache: attempts are unreachable, recovery is in place;
* ``slow`` — the shard serves at ``factor``× its normal simulated
  response time for the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.errors import FaultPlanError
from repro.faults.plan import FaultSession, check_window

#: The pinned shard-fault kinds (wire values of ``ShardFaultWindow.kind``).
SHARD_FAULT_KINDS = ("crash", "hang", "slow")


@dataclass(frozen=True)
class ShardFaultWindow:
    """One shard's scheduled misbehaviour over a half-open interval.

    ``end_ms=None`` leaves the window open-ended — the idiom for a
    mid-trace crash the shard never comes back from.
    """

    shard_id: str
    kind: str
    start_ms: float
    end_ms: float | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.shard_id:
            raise FaultPlanError("shard fault window needs a shard id")
        if self.kind not in SHARD_FAULT_KINDS:
            raise FaultPlanError(
                f"unknown shard fault kind {self.kind!r}; expected one "
                f"of {SHARD_FAULT_KINDS}"
            )
        check_window(self.start_ms, self.end_ms)
        if self.kind == "slow" and self.factor < 1.0:
            raise FaultPlanError(
                f"slowdown factor must be >= 1: {self.factor}"
            )

    def active(self, now_ms: float) -> bool:
        if now_ms < self.start_ms:
            return False
        return self.end_ms is None or now_ms < self.end_ms


@dataclass(frozen=True)
class ShardCrashPlan:
    """A seeded, simulated-clock-driven shard fault schedule."""

    seed: int = 0
    faults: tuple[ShardFaultWindow, ...] = ()
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise FaultPlanError(
                f"error_rate must be in [0, 1]: {self.error_rate}"
            )

    def session(self) -> FaultSession:
        """A fresh, mutable execution of this plan."""
        return FaultSession(
            self.seed,
            [(w.shard_id, w.kind, w) for w in self.faults],
            error_rate=self.error_rate,
        )

