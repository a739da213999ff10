"""Seeded shard-level fault plans for the sharded proxy tier.

A :class:`ShardCrashPlan` schedules what goes wrong *inside the tier*
— a shard worker crashing, hanging, or slowing mid-trace — on the same
simulated clock and with the same determinism contract as the origin
:class:`~repro.faults.plan.FaultPlan`: plans are immutable and
JSON-round-trippable, a :class:`ShardCrashSession` owns the seeded
``random.Random``, and :meth:`ShardCrashSession.route_attempt` draws
exactly one random number per routing attempt regardless of the
configured rates, so enabling one fault kind never perturbs another's
draws.  Nothing here may read the wall clock (FP301) or use unseeded
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

import enum
from dataclasses import dataclass
from random import Random
from typing import Any, Mapping

from repro.faults.errors import FaultPlanError
from repro.faults.plan import check_window, parse_plan

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

    def session(self) -> "ShardCrashSession":
        """A fresh, mutable execution of this plan."""
        return ShardCrashSession(self)

    # -------------------------------------------------------- wire form
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [
                {
                    "shard_id": w.shard_id,
                    "kind": w.kind,
                    "start_ms": w.start_ms,
                    "end_ms": w.end_ms,
                    "factor": w.factor,
                }
                for w in self.faults
            ],
            "error_rate": self.error_rate,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ShardCrashPlan":
        """Parse a wire-form plan; raises :class:`FaultPlanError` on
        anything malformed."""

        def build(payload: Mapping[str, Any]) -> ShardCrashPlan:
            faults = tuple(
                ShardFaultWindow(
                    shard_id=str(w["shard_id"]),
                    kind=str(w["kind"]),
                    start_ms=float(w["start_ms"]),
                    end_ms=(
                        None
                        if w.get("end_ms") is None
                        else float(w["end_ms"])
                    ),
                    factor=float(w.get("factor", 1.0)),
                )
                for w in payload.get("faults", ())
            )
            return ShardCrashPlan(
                seed=int(payload.get("seed", 0)),
                faults=faults,
                error_rate=float(payload.get("error_rate", 0.0)),
            )

        return parse_plan(
            "shard crash plan",
            payload,
            {"seed", "faults", "error_rate"},
            build,
        )


class ShardFaultKind(enum.Enum):
    """What a single routing attempt at one shard runs into."""

    NONE = "none"
    CRASH = "crash"
    HANG = "hang"
    ERROR = "transient"


@dataclass(frozen=True)
class ShardDecision:
    """One routing attempt's injected fate plus the slowdown factor."""

    kind: ShardFaultKind
    slowdown: float = 1.0


class ShardCrashSession:
    """Mutable per-run state of a plan: the seeded rng plus the set of
    shard-down transitions not yet reported (for EV12)."""

    def __init__(self, plan: ShardCrashPlan) -> None:
        self.plan = plan
        self._rng = Random(plan.seed)
        self._reported: set[int] = set()

    def slowdown_factor(self, shard_id: str, now_ms: float) -> float:
        """Product of every slow window active on ``shard_id``."""
        factor = 1.0
        for window in self.plan.faults:
            if (
                window.shard_id == shard_id
                and window.kind == "slow"
                and window.active(now_ms)
            ):
                factor *= window.factor
        return factor

    def down(self, shard_id: str, now_ms: float) -> bool:
        """Whether ``shard_id`` is crashed or hung at ``now_ms``."""
        return any(
            window.shard_id == shard_id
            and window.kind in ("crash", "hang")
            and window.active(now_ms)
            for window in self.plan.faults
        )

    def crashed(self, shard_id: str, now_ms: float) -> bool:
        """Whether ``shard_id`` is inside a crash window (cache lost)."""
        return any(
            window.shard_id == shard_id
            and window.kind == "crash"
            and window.active(now_ms)
            for window in self.plan.faults
        )

    def route_attempt(
        self, shard_id: str, now_ms: float
    ) -> ShardDecision:
        """Decide the fate of one router -> shard attempt at ``now_ms``.

        Exactly one rng draw happens per attempt (even when the error
        rate is zero), so decision streams stay aligned across plan
        variants that share a seed.
        """
        slowdown = self.slowdown_factor(shard_id, now_ms)
        draw = self._rng.random()
        for window in self.plan.faults:
            if window.shard_id != shard_id or not window.active(now_ms):
                continue
            if window.kind == "crash":
                return ShardDecision(ShardFaultKind.CRASH, slowdown)
            if window.kind == "hang":
                return ShardDecision(ShardFaultKind.HANG, slowdown)
        if draw < self.plan.error_rate:
            return ShardDecision(ShardFaultKind.ERROR, slowdown)
        return ShardDecision(ShardFaultKind.NONE, slowdown)

    def newly_down(
        self, now_ms: float
    ) -> list[tuple[str, str, float]]:
        """Crash/hang windows that began at or before ``now_ms`` and
        were not reported yet, as ``(shard_id, kind, start_ms)`` rows
        in schedule order — each one maps to an ``EV12`` emission."""
        due = []
        for index, window in enumerate(self.plan.faults):
            if (
                window.kind in ("crash", "hang")
                and index not in self._reported
                and window.start_ms <= now_ms
            ):
                self._reported.add(index)
                due.append((window.shard_id, window.kind, window.start_ms))
        due.sort(key=lambda row: (row[2], row[0]))
        return due
