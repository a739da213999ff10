"""Deterministic fault plans: what goes wrong, and when.

A :class:`FaultPlan` is a *schedule* over the simulated clock — outage
windows, latency-multiplier windows, per-attempt error/timeout
probabilities, and data-version bump times — plus a seed.  Plans are
immutable and JSON-round-trippable (the proxy app's ``POST /faults``
body is :meth:`FaultPlan.to_dict` output).

A :class:`FaultSession` is one *execution* of a plan: it owns the
seeded ``random.Random`` and the set of version bumps not yet applied.
Determinism contract: given the same plan and the same sequence of
``origin_attempt(now_ms)`` calls, a session makes identical decisions
— it draws exactly one random number per attempt regardless of the
configured rates, so enabling one fault kind never perturbs another's
draws.  Nothing in this module may read the wall clock (lint rule
FP301) or use unseeded randomness (lint rule FP305; ``tools/lint.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Iterable, Mapping, TypeVar

from repro.faults.errors import FaultPlanError

_Plan = TypeVar("_Plan")


def check_window(start_ms: float, end_ms: float | None) -> None:
    """Validate a half-open window; ``end_ms=None`` is open-ended."""
    if start_ms < 0:
        raise FaultPlanError(f"window starts before t=0: {start_ms}")
    if end_ms is not None and end_ms <= start_ms:
        raise FaultPlanError(
            f"empty or inverted window: [{start_ms}, {end_ms})"
        )


def parse_plan(
    label: str,
    payload: Any,
    known: set[str],
    build: Callable[[Mapping[str, Any]], _Plan],
) -> _Plan:
    """The envelope every plan's ``from_dict`` shares.

    The wire form must be a JSON object carrying only ``known``
    fields; whatever ``build`` trips over while reading them surfaces
    as a :class:`FaultPlanError` naming the plan kind (``label``).
    """
    if not isinstance(payload, Mapping):
        raise FaultPlanError(
            f"{label} must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - known
    if unknown:
        raise FaultPlanError(f"unknown {label} fields: {sorted(unknown)}")
    try:
        return build(payload)
    except FaultPlanError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FaultPlanError(f"malformed {label}: {exc}") from exc


@dataclass(frozen=True)
class OutageWindow:
    """A half-open interval of simulated ms during which the origin is
    down: every attempt fails immediately with an outage error."""

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        check_window(self.start_ms, self.end_ms)

    def active(self, now_ms: float) -> bool:
        return self.start_ms <= now_ms < self.end_ms


@dataclass(frozen=True)
class SlowdownWindow:
    """A window during which the proxy -> origin hop runs ``factor``
    times slower (applied to both network latency and server time)."""

    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self) -> None:
        check_window(self.start_ms, self.end_ms)
        if self.factor < 1.0:
            raise FaultPlanError(
                f"slowdown factor must be >= 1: {self.factor}"
            )

    def active(self, now_ms: float) -> bool:
        return self.start_ms <= now_ms < self.end_ms


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be in [0, 1]: {value}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, simulated-clock-driven fault schedule."""

    seed: int = 0
    outages: tuple[OutageWindow, ...] = ()
    slowdowns: tuple[SlowdownWindow, ...] = ()
    error_rate: float = 0.0
    timeout_rate: float = 0.0
    version_bumps: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_rate("error_rate", self.error_rate)
        _check_rate("timeout_rate", self.timeout_rate)
        if self.error_rate + self.timeout_rate > 1.0:
            raise FaultPlanError(
                "error_rate + timeout_rate exceeds 1: "
                f"{self.error_rate} + {self.timeout_rate}"
            )
        for bump_ms in self.version_bumps:
            if bump_ms < 0:
                raise FaultPlanError(
                    f"version bump before t=0: {bump_ms}"
                )

    def session(self) -> "FaultSession":
        """A fresh, mutable execution of this plan."""
        return FaultSession(self)

    # -------------------------------------------------------- wire form
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "outages": [
                {"start_ms": w.start_ms, "end_ms": w.end_ms}
                for w in self.outages
            ],
            "slowdowns": [
                {
                    "start_ms": w.start_ms,
                    "end_ms": w.end_ms,
                    "factor": w.factor,
                }
                for w in self.slowdowns
            ],
            "error_rate": self.error_rate,
            "timeout_rate": self.timeout_rate,
            "version_bumps": list(self.version_bumps),
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "FaultPlan":
        """Parse the ``POST /faults`` body; raises
        :class:`FaultPlanError` on anything malformed."""
        known = {
            "seed", "outages", "slowdowns", "error_rate", "timeout_rate",
            "version_bumps",
        }

        def build(payload: Mapping[str, Any]) -> FaultPlan:
            outages = tuple(
                OutageWindow(
                    start_ms=float(w["start_ms"]),
                    end_ms=float(w["end_ms"]),
                )
                for w in payload.get("outages", ())
            )
            slowdowns = tuple(
                SlowdownWindow(
                    start_ms=float(w["start_ms"]),
                    end_ms=float(w["end_ms"]),
                    factor=float(w["factor"]),
                )
                for w in payload.get("slowdowns", ())
            )
            return FaultPlan(
                seed=int(payload.get("seed", 0)),
                outages=outages,
                slowdowns=slowdowns,
                error_rate=float(payload.get("error_rate", 0.0)),
                timeout_rate=float(payload.get("timeout_rate", 0.0)),
                version_bumps=tuple(
                    float(b) for b in payload.get("version_bumps", ())
                ),
            )

        return parse_plan("fault plan", payload, known, build)


class FaultKind(enum.Enum):
    """What a single origin attempt runs into."""

    NONE = "none"
    OUTAGE = "outage"
    ERROR = "transient"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class FaultDecision:
    """One attempt's injected fate plus the active slowdown factor."""

    kind: FaultKind
    slowdown: float = 1.0


class FaultSession:
    """Mutable per-run state of a plan: seeded rng + pending bumps."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = Random(plan.seed)
        self._pending_bumps = sorted(plan.version_bumps)

    def slowdown_factor(self, now_ms: float) -> float:
        """Product of every slowdown window active at ``now_ms``."""
        factor = 1.0
        for window in self.plan.slowdowns:
            if window.active(now_ms):
                factor *= window.factor
        return factor

    def origin_attempt(self, now_ms: float) -> FaultDecision:
        """Decide the fate of one proxy -> origin attempt at ``now_ms``.

        Exactly one rng draw happens per attempt (even when both rates
        are zero), so decision streams stay aligned across plan
        variants that share a seed.
        """
        slowdown = self.slowdown_factor(now_ms)
        draw = self._rng.random()
        if any(window.active(now_ms) for window in self.plan.outages):
            return FaultDecision(FaultKind.OUTAGE, slowdown)
        if draw < self.plan.timeout_rate:
            return FaultDecision(FaultKind.TIMEOUT, slowdown)
        if draw < self.plan.timeout_rate + self.plan.error_rate:
            return FaultDecision(FaultKind.ERROR, slowdown)
        return FaultDecision(FaultKind.NONE, slowdown)

    def due_version_bumps(self, now_ms: float) -> int:
        """Pop and count the version bumps scheduled at or before
        ``now_ms``; each one maps to an ``origin.bump_data_version()``."""
        due = 0
        while self._pending_bumps and self._pending_bumps[0] <= now_ms:
            self._pending_bumps.pop(0)
            due += 1
        return due

    def pending_version_bumps(self) -> Iterable[float]:
        return tuple(self._pending_bumps)
