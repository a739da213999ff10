"""Table 1: average cache efficiency of AC and PC across cache sizes.

Paper values (Section 4.2)::

    Cache Size   1/6    1/3    1/2    1
    AC           0.531  0.565  0.582  0.593
    PC           0.290  0.305  0.311  0.313

Shape to reproduce: active caching's efficiency is roughly double
passive caching's, and grows more as the cache grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schemes import CachingScheme
from repro.harness.render import Result, fraction_columns, render_table
from repro.harness.runner import ExperimentRunner

PAPER_AC = {1 / 6: 0.531, 1 / 3: 0.565, 1 / 2: 0.582, 1.0: 0.593}
PAPER_PC = {1 / 6: 0.290, 1 / 3: 0.305, 1 / 2: 0.311, 1.0: 0.313}


@dataclass(frozen=True)
class Table1Result(Result):
    """Measured efficiencies keyed by cache fraction."""

    ac: dict[float, float]
    pc: dict[float, float]

    def render(self) -> str:
        rows = (
            ("AC (measured)", self.ac),
            ("AC (paper)", PAPER_AC),
            ("PC (measured)", self.pc),
            ("PC (paper)", PAPER_PC),
        )
        return render_table(
            "Table 1: average cache efficiency of AC and PC",
            fraction_columns("Cache Size", self.ac),
            rows,
        )


def run_table1(runner: ExperimentRunner) -> Table1Result:
    """Measure Table 1 (AC = full semantic caching, array description)."""
    ac: dict[float, float] = {}
    pc: dict[float, float] = {}
    for fraction in runner.scale.cache_fractions:
        ac[fraction] = runner.run(
            CachingScheme.FULL_SEMANTIC, "array", fraction
        ).stats.average_cache_efficiency
        pc[fraction] = runner.run(
            CachingScheme.PASSIVE, "array", fraction
        ).stats.average_cache_efficiency
    return Table1Result(ac=ac, pc=pc)
