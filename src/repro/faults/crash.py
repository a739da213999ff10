"""Deterministic crash plans: when the proxy dies, and how the tail
of its journal gets mangled.

A :class:`CrashPlan` extends the fault vocabulary of
:mod:`repro.faults.plan` from the origin to the *proxy itself*: it
schedules process deaths at journal-record offsets and describes the
torn-write damage the crash leaves behind on the cache journal
(:mod:`repro.persistence.journal`).  Like a
:class:`~repro.faults.plan.FaultPlan`, a crash plan is a frozen,
JSON-round-trippable dataclass, and seeded — the same
plan applied to the same journal bytes produces the same damage, so
every crash-recovery experiment replays bit-identically.

Damage kinds:

* ``truncate`` — chop a seeded number of bytes off the journal tail,
  the classic torn append (the filesystem persisted a prefix of the
  final write);
* ``bitflip`` — flip one seeded bit inside the tail window, modelling
  a corrupted-but-complete final write (caught by the record CRC);
* ``none`` — a clean kill: the journal survives intact and recovery
  loses nothing.

A :class:`CrashSession` is one execution: it owns the seeded RNG and
the queue of crash points not yet fired.  The persister asks
``should_crash`` after every journal append and, when told yes,
applies the damage and raises
:class:`~repro.faults.errors.SimulatedCrash`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Mapping

from repro.faults.errors import FaultPlanError
from repro.faults.plan import parse_plan, wire_form

#: The damage kinds a crash can inflict on the journal tail.
DAMAGE_KINDS = ("none", "truncate", "bitflip")


def _record_offset(point: Any) -> int:
    """A crash point as a whole journal-record count."""
    offset = int(point)
    if offset != point:
        raise FaultPlanError(f"crash point is not a whole record: {point!r}")
    return offset


@dataclass(frozen=True)
class CrashPlan:
    """A seeded schedule of proxy deaths at journal-record offsets."""

    seed: int = 0
    crash_after_records: tuple[int, ...] = ()
    damage: str = "truncate"
    tail_window_bytes: int = 64

    def __post_init__(self) -> None:
        if self.damage not in DAMAGE_KINDS:
            raise FaultPlanError(
                f"damage must be one of {DAMAGE_KINDS}, not {self.damage!r}"
            )
        if self.tail_window_bytes < 1:
            raise FaultPlanError(
                "tail window must be at least 1 byte: "
                f"{self.tail_window_bytes}"
            )
        points = tuple(
            sorted(_record_offset(p) for p in self.crash_after_records)
        )
        for point in points:
            if point < 1:
                raise FaultPlanError(
                    f"crash point before the first record: {point}"
                )
        if len(set(points)) != len(points):
            raise FaultPlanError(f"duplicate crash points: {points}")
        object.__setattr__(self, "crash_after_records", points)

    def session(self) -> "CrashSession":
        """A fresh, mutable execution of this plan."""
        return CrashSession(self)

    # -------------------------------------------------------- wire form
    def to_dict(self) -> dict[str, Any]:
        return wire_form(self)

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "CrashPlan":
        known = {
            "seed", "crash_after_records", "damage", "tail_window_bytes",
        }

        def build(payload: Mapping[str, Any]) -> CrashPlan:
            return CrashPlan(
                seed=int(payload.get("seed", 0)),
                crash_after_records=tuple(
                    payload.get("crash_after_records", ())
                ),
                damage=str(payload.get("damage", "truncate")),
                tail_window_bytes=int(payload.get("tail_window_bytes", 64)),
            )

        return parse_plan(
            "crash plan",
            payload,
            known,
            build,
            arrays=("crash_after_records",),
        )


class CrashSession:
    """One execution of a crash plan: seeded RNG + pending crash points."""

    def __init__(self, plan: CrashPlan) -> None:
        self.plan = plan
        self._rng = Random(plan.seed)
        self._pending = list(plan.crash_after_records)
        self.crashes_fired = 0

    def pending_crash_points(self) -> tuple[int, ...]:
        return tuple(self._pending)

    def should_crash(self, records_appended: int) -> bool:
        """Whether the append that just made the journal
        ``records_appended`` records long is the fatal one."""
        if self._pending and records_appended >= self._pending[0]:
            self._pending.pop(0)
            self.crashes_fired += 1
            return True
        return False

    def apply_damage(self, journal_path: str | Path) -> dict[str, Any]:
        """Mangle the journal tail per the plan; returns what was done.

        Deterministic: the byte counts and bit positions come from the
        session's seeded RNG.  A missing or empty journal absorbs any
        damage kind as a no-op (there is no tail to tear).
        """
        path = Path(journal_path)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if self.plan.damage == "none" or size == 0:
            return {"damage": "none", "bytes": 0}
        if self.plan.damage == "truncate":
            cut = self._rng.randint(
                1, min(self.plan.tail_window_bytes, size)
            )
            os.truncate(path, size - cut)
            return {"damage": "truncate", "bytes": cut}
        # bitflip: one bit inside the tail window.
        window = min(self.plan.tail_window_bytes, size)
        offset = size - window + self._rng.randrange(window)
        bit = self._rng.randrange(8)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << bit)]))
        return {"damage": "bitflip", "offset": offset, "bit": bit}
