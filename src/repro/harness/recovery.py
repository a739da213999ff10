"""Warm vs cold restart: what crash-consistent persistence buys.

Not a paper table — the paper's proxy loses its whole cache with the
process.  This experiment measures the hit-ratio recovery the
persistence subsystem (:mod:`repro.persistence`) provides after a
mid-trace crash, per caching scheme.

Protocol, per scheme:

1. **Warm-up** — replay the first ``crash_fraction`` of the measured
   trace through a proxy journaling every cache mutation to a fresh
   persistence directory.
2. **Crash** — stop the proxy at that query (the scheduled kill) and
   apply a seeded :class:`~repro.faults.crash.CrashPlan`'s tail damage
   to the journal: by default a torn final append (``truncate``), so
   recovery must stop cleanly at the tear.
3. **Warm restart** — build a new proxy over the damaged directory;
   construction runs :func:`~repro.persistence.recovery.recover_cache`
   and the report lands on ``proxy.recovery_report``.  Replay the rest
   of the trace.
4. **Cold restart** — replay the same remainder through a proxy with
   an empty cache (what every restart looked like before this
   subsystem existed).

The headline is ``warm_hit_ratio`` vs ``cold_hit_ratio`` on the
post-crash remainder: for the caching schemes, the recovered cache
answers repeats and contained queries that the cold proxy must forward
again.  The no-cache scheme journals nothing and recovers nothing —
its row is the experiment's control.

Everything is seeded and simulated-clock-driven, so the whole table is
deterministic, including the exact bytes the crash tears off.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from repro.core.schemes import CachingScheme
from repro.faults.crash import CrashPlan
from repro.harness.render import Result, render_table
from repro.harness.runner import ExperimentRunner
from repro.persistence import CachePersister
from repro.workload.rbe import BrowserEmulator
from repro.workload.trace import Trace

#: The schemes compared: no caching (control), passive, full semantic.
SCHEMES = (
    CachingScheme.NO_CACHE,
    CachingScheme.PASSIVE,
    CachingScheme.FULL_SEMANTIC,
)


@dataclass(frozen=True)
class SchemeRecovery(Result):
    """One scheme's crash-and-restart measurements."""

    DERIVED = ("restored_fraction", "warm_advantage")

    scheme: CachingScheme
    pre_crash_queries: int
    pre_crash_hit_ratio: float
    entries_at_crash: int
    journal_records: int
    damage: dict
    entries_restored: int
    entries_stale: int
    records_replayed: int
    stop_reason: str | None
    warm_hit_ratio: float
    cold_hit_ratio: float
    recovery_report: dict

    @property
    def warm_advantage(self) -> float:
        """Post-restart hit-ratio gain of recovering vs starting cold."""
        return self.warm_hit_ratio - self.cold_hit_ratio

    @property
    def restored_fraction(self) -> float:
        """Share of the pre-crash cache the warm restart got back."""
        if self.entries_at_crash == 0:
            return 0.0
        return self.entries_restored / self.entries_at_crash


@dataclass(frozen=True)
class RecoveryExperimentResult(Result):
    """The warm-vs-cold restart table across caching schemes."""

    schemes: dict[str, SchemeRecovery]
    crash_fraction: float
    damage: str
    seed: int
    snapshot_every: int

    def render(self) -> str:
        columns = [
            ("Scheme", lambda row: row.scheme.value),
            ("entries", attrgetter("entries_at_crash")),
            ("restored", attrgetter("entries_restored")),
            ("stop", lambda row: row.stop_reason or "clean"),
            ("warm hit", attrgetter("warm_hit_ratio")),
            ("cold hit", attrgetter("cold_hit_ratio")),
            ("advantage", attrgetter("warm_advantage")),
        ]
        return render_table(
            "Crash recovery: post-restart hit ratio, warm (recovered "
            f"journal, {self.damage} tail damage) vs cold, after a crash "
            f"at {self.crash_fraction:.0%} of the trace",
            columns,
            self.schemes.values(),
        )


def run_recovery(
    runner: ExperimentRunner,
    crash_fraction: float = 0.5,
    damage: str = "truncate",
    seed: int = 11,
    snapshot_every: int = 32,
    state_dir: str | Path | None = None,
) -> RecoveryExperimentResult:
    """Run the warm-vs-cold restart comparison.

    ``state_dir`` keeps each scheme's persistence directory (under
    ``<state_dir>/<scheme>``) instead of a temporary one — the CI smoke
    job uses this to upload the damaged journals with the report.
    """
    if not 0.0 < crash_fraction < 1.0:
        raise ValueError(
            f"crash_fraction must be inside (0, 1): {crash_fraction}"
        )
    total = min(runner.scale.measure_queries, len(runner.trace))
    crash_at = max(1, int(total * crash_fraction))
    head = runner.trace[:crash_at]
    tail = runner.trace[crash_at:total]
    plan = CrashPlan(seed=seed, damage=damage)
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        root = Path(tmp if state_dir is None else state_dir)
        schemes = {
            scheme.value: _run_scheme(
                runner, scheme, head, tail, root / scheme.value,
                plan, snapshot_every,
            )
            for scheme in SCHEMES
        }
    return RecoveryExperimentResult(
        schemes=schemes,
        crash_fraction=crash_fraction,
        damage=damage,
        seed=seed,
        snapshot_every=snapshot_every,
    )


def _run_scheme(
    runner: ExperimentRunner,
    scheme: CachingScheme,
    head: Trace,
    tail: Trace,
    directory: Path,
    plan: CrashPlan,
    snapshot_every: int,
) -> SchemeRecovery:
    # Phase 1: warm-up with journaling.
    persister = CachePersister(directory, snapshot_every=snapshot_every)
    proxy = runner.build_proxy(
        scheme, "array", cache_fraction=None, persistence=persister
    )
    pre_stats = BrowserEmulator(proxy).run(head)
    entries_at_crash = len(proxy.cache)
    journal_records = persister.total_records

    # Phase 2: the crash — the proxy stops here and the plan's seeded
    # damage tears the journal tail the way a kill mid-append would.
    damage_report = plan.session().apply_damage(persister.journal.path)

    # Phase 3: warm restart over the damaged directory.
    warm_persister = CachePersister(directory, snapshot_every=snapshot_every)
    warm_proxy = runner.build_proxy(
        scheme, "array", cache_fraction=None, persistence=warm_persister
    )
    report = warm_proxy.recovery_report
    assert report is not None  # persistence implies recovery
    warm_stats = BrowserEmulator(warm_proxy).run(tail)

    # Phase 4: cold restart — the pre-persistence baseline.
    cold_proxy = runner.build_proxy(scheme, "array", cache_fraction=None)
    cold_stats = BrowserEmulator(cold_proxy).run(tail)

    return SchemeRecovery(
        scheme=scheme,
        pre_crash_queries=len(head),
        pre_crash_hit_ratio=pre_stats.hit_ratio,
        entries_at_crash=entries_at_crash,
        journal_records=journal_records,
        damage=damage_report,
        entries_restored=report.entries_restored,
        entries_stale=report.entries_stale,
        records_replayed=report.records_replayed,
        stop_reason=report.stop_reason,
        warm_hit_ratio=warm_stats.hit_ratio,
        cold_hit_ratio=cold_stats.hit_ratio,
        recovery_report=report.to_dict(),
    )
