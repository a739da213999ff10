"""Deterministic crash damage: how a proxy's death mangles the tail of
its journal.

A :class:`CrashPlan` extends the fault vocabulary of
:mod:`repro.faults.plan` from the origin to the *proxy itself*.  A
crash is a state of the disk: the caller stops the proxy wherever the
crash is meant to land and then applies the plan to the cache journal
(:mod:`repro.persistence.journal`), leaving the torn-write damage a
kill mid-append would.  The plan is a frozen, seeded dataclass — the
same plan applied to the same journal bytes produces the same damage,
so every crash-recovery experiment replays bit-identically.

Damage kinds:

* ``truncate`` — chop a seeded number of bytes off the journal tail,
  the classic torn append (the filesystem persisted a prefix of the
  final write);
* ``bitflip`` — flip one seeded bit inside the tail window, modelling
  a corrupted-but-complete final write (caught by the record CRC);
* ``none`` — a clean kill: the journal survives intact and recovery
  loses nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any

from repro.faults.errors import FaultPlanError

#: The damage kinds a crash can inflict on the journal tail.
DAMAGE_KINDS = ("none", "truncate", "bitflip")


@dataclass(frozen=True)
class CrashPlan:
    """The seeded tail damage one proxy death leaves on its journal."""

    seed: int = 0
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

    def apply_damage(
        self, journal_path: str | Path, rng: Random | None = None
    ) -> dict[str, Any]:
        """Mangle the journal tail per the plan; returns what was done.

        Deterministic: the byte counts and bit positions come from
        ``rng``, a fresh ``Random(seed)`` unless the caller passes one
        to draw successive crashes from a single seeded stream.  A
        missing or empty journal absorbs any damage kind as a no-op
        (there is no tail to tear).
        """
        if rng is None:
            rng = Random(self.seed)
        path = Path(journal_path)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if self.damage == "none" or size == 0:
            return {"damage": "none", "bytes": 0}
        window = min(self.tail_window_bytes, size)
        if self.damage == "truncate":
            cut = rng.randint(1, window)
            os.truncate(path, size - cut)
            return {"damage": "truncate", "bytes": cut}
        # bitflip: one bit inside the tail window.
        offset = size - window + rng.randrange(window)
        bit = rng.randrange(8)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << bit)]))
        return {"damage": "bitflip", "offset": offset, "bit": bit}
