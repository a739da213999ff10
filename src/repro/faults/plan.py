"""Deterministic fault plans: what goes wrong, and when.

A :class:`FaultPlan` is a *schedule* over the simulated clock — outage
windows, latency-multiplier windows, per-attempt error/timeout
probabilities, and data-version bump times — plus a seed.  Plans are
immutable and JSON-round-trippable (the proxy app's ``POST /faults``
body is :meth:`FaultPlan.to_dict` output).

A :class:`FaultSession` is one *execution* of a plan — this module's
origin plan or a :class:`~repro.faults.shard.ShardCrashPlan`: it owns
the seeded ``random.Random``, the version bumps not yet applied and the
down windows not yet reported.  Determinism contract: given the same
plan and the same sequence of ``attempt(target, now_ms)`` calls, a
session makes identical decisions — it draws exactly one random number
per attempt regardless of the configured rates, so enabling one fault
kind never perturbs another's draws.  Nothing in this module may read
the wall clock (lint rule FP301) or use unseeded randomness (lint rule
FP305; ``tools/lint.py``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field, fields
from random import Random
from typing import Any, Iterable, Mapping

from repro.faults.errors import FaultPlanError

#: The target an origin plan's windows and draws apply to; a shard
#: plan's targets are shard ids.
ORIGIN = "origin"


def check_window(start_ms: float, end_ms: float | None) -> None:
    """Validate a half-open window; ``end_ms=None`` is open-ended."""
    if math.isnan(start_ms) or (end_ms is not None and math.isnan(end_ms)):
        raise FaultPlanError(f"window bound is NaN: [{start_ms}, {end_ms})")
    if start_ms < 0:
        raise FaultPlanError(f"window starts before t=0: {start_ms}")
    if end_ms is not None and end_ms <= start_ms:
        raise FaultPlanError(
            f"empty or inverted window: [{start_ms}, {end_ms})"
        )


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
        return FaultSession(
            self.seed,
            [(ORIGIN, "outage", w) for w in self.outages]
            + [(ORIGIN, "slow", w) for w in self.slowdowns],
            timeout_rate=self.timeout_rate,
            error_rate=self.error_rate,
            version_bumps=self.version_bumps,
        )

    # -------------------------------------------------------- wire form
    def to_dict(self) -> dict[str, Any]:
        """The ``POST /faults`` body: every field in declaration order,
        windows as objects, tuples as arrays."""
        return asdict(
            self,
            dict_factory=lambda items: {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in items
            },
        )

    @staticmethod
    def from_dict(payload: Any) -> "FaultPlan":
        """Parse the ``POST /faults`` body; raises
        :class:`FaultPlanError` on anything malformed.

        The body must be a JSON object carrying only the plan's fields,
        each list field a JSON array when present; whatever the
        constructors trip over while reading them is malformed too.
        """
        if not isinstance(payload, Mapping):
            raise FaultPlanError(
                "fault plan must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = set(payload) - {f.name for f in fields(FaultPlan)}
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan fields: {sorted(unknown)}"
            )
        for name in ("outages", "slowdowns", "version_bumps"):
            if not isinstance(payload.get(name, []), (list, tuple)):
                raise FaultPlanError(
                    f"fault plan field {name!r} must be an array"
                )
        try:
            return FaultPlan(
                seed=int(payload.get("seed", 0)),
                outages=tuple(
                    OutageWindow(
                        start_ms=float(w["start_ms"]),
                        end_ms=float(w["end_ms"]),
                    )
                    for w in payload.get("outages", ())
                ),
                slowdowns=tuple(
                    SlowdownWindow(
                        start_ms=float(w["start_ms"]),
                        end_ms=float(w["end_ms"]),
                        factor=float(w["factor"]),
                    )
                    for w in payload.get("slowdowns", ())
                ),
                error_rate=float(payload.get("error_rate", 0.0)),
                timeout_rate=float(payload.get("timeout_rate", 0.0)),
                version_bumps=tuple(
                    float(b) for b in payload.get("version_bumps", ())
                ),
            )
        except FaultPlanError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc


class Fate(enum.Enum):
    """What one attempt at a target (the origin or a shard) runs into.

    The values are the words the shard router writes into
    ``RouteAttempt.fate`` and the gateway into a failure ``reason``.
    """

    NONE = "none"
    OUTAGE = "outage"
    CRASH = "crash"
    HANG = "hang"
    TIMEOUT = "timeout"
    TRANSIENT = "transient"


class FaultSession:
    """Mutable per-run state of a plan: seeded rng, pending version
    bumps and the down windows already reported.

    ``windows`` are ``(target, kind, window)`` triples in plan order:
    ``kind`` is ``"slow"`` (the window's ``factor`` scales the target's
    time) or the :class:`Fate` value of a window that takes the target
    down (``"outage"``, ``"crash"``, ``"hang"``).
    """

    def __init__(
        self,
        seed: int,
        windows: Iterable[tuple[str, str, Any]],
        timeout_rate: float = 0.0,
        error_rate: float = 0.0,
        version_bumps: Iterable[float] = (),
    ) -> None:
        self._rng = Random(seed)
        self._windows = tuple(windows)
        self._timeout_rate = timeout_rate
        self._error_rate = error_rate
        self._pending_bumps = sorted(version_bumps)
        self._reported: set[int] = set()

    def slowdown(self, target: str, now_ms: float) -> float:
        """Product of every slow window active on ``target``."""
        factor = 1.0
        for on, kind, window in self._windows:
            if on == target and kind == "slow" and window.active(now_ms):
                factor *= window.factor
        return factor

    def down(self, target: str, now_ms: float) -> str | None:
        """The kind of the first down window active on ``target`` at
        ``now_ms`` (in plan order), or ``None`` while it is up."""
        for on, kind, window in self._windows:
            if on == target and kind != "slow" and window.active(now_ms):
                return kind
        return None

    def attempt(self, target: str, now_ms: float) -> tuple[Fate, float]:
        """Decide the fate of one attempt at ``target`` at ``now_ms``;
        returns it with the slowdown factor active then.

        Exactly one rng draw happens per attempt (even when both rates
        are zero, and inside a down window), so decision streams stay
        aligned across plan variants that share a seed.
        """
        slowdown = self.slowdown(target, now_ms)
        draw = self._rng.random()
        down = self.down(target, now_ms)
        if down is not None:
            return Fate(down), slowdown
        if draw < self._timeout_rate:
            return Fate.TIMEOUT, slowdown
        if draw < self._timeout_rate + self._error_rate:
            return Fate.TRANSIENT, slowdown
        return Fate.NONE, slowdown

    def due_version_bumps(self, now_ms: float) -> int:
        """Pop and count the version bumps scheduled at or before
        ``now_ms``; each one maps to an ``origin.bump_data_version()``."""
        due = 0
        while self._pending_bumps and self._pending_bumps[0] <= now_ms:
            self._pending_bumps.pop(0)
            due += 1
        return due

    def newly_down(self, now_ms: float) -> list[tuple[str, str, float]]:
        """Down windows that began at or before ``now_ms`` and were not
        reported yet, as ``(target, kind, start_ms)`` rows in start
        order — each shard crash or hang maps to an ``EV12`` emission."""
        due = []
        for index, (target, kind, window) in enumerate(self._windows):
            if (
                kind != "slow"
                and index not in self._reported
                and window.start_ms <= now_ms
            ):
                self._reported.add(index)
                due.append((target, kind, window.start_ms))
        due.sort(key=lambda row: (row[2], row[0]))
        return due
