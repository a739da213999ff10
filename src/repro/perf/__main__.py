"""The bench gate's command line.

::

    python -m repro.perf compare --baseline DIR|FILE --current DIR|FILE
                                 [--bench BENCH_ID ...]

``compare`` is the CI gate.  It loads and schema-checks every document
under both paths, then requires each selected golden (every baseline
document, or just the ``--bench`` ids) to have a current counterpart
that matches it exactly: the same ``run.scale`` and the same
``{name: (unit, value)}``.  Any violation exits 1.  Current results
without a golden are reported but never fail.

After an intended change to a simulated number, regenerate its golden
and commit it::

    cp benchmarks/results/<bench_id>.bench.json benchmarks/results/baselines/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.perf.compare import compare_results
from repro.perf.schema import (
    BenchResult,
    PerfSchemaError,
    load_result,
    load_results_dir,
)


def _load(path: Path) -> dict[str, BenchResult]:
    """Bench results at ``path`` (one file, or every file in a dir)."""
    if path.is_dir():
        return load_results_dir(path)
    result = load_result(path)
    return {result.bench_id: result}


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        baselines = _load(Path(args.baseline))
        currents = _load(Path(args.current))
    except (PerfSchemaError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    if not baselines:
        print(f"error: no *.bench.json baselines under {args.baseline}")
        return 1
    wanted = sorted(args.bench_ids or baselines)
    unknown = [b for b in wanted if b not in baselines]
    if unknown:
        print(
            f"error: no baseline for {', '.join(unknown)} under "
            f"{args.baseline}"
        )
        return 1
    failures = 0
    for bench_id in wanted:
        current = currents.get(bench_id)
        if current is None:
            print(
                f"{bench_id}: REGRESSED (baseline has no current "
                f"result under {args.current})"
            )
            failures += 1
            continue
        comparisons = compare_results(baselines[bench_id], current)
        differing = [c for c in comparisons if c.regressed]
        for comparison in differing:
            print(comparison.format())
        if not differing:
            print(f"{bench_id}: ok ({len(comparisons)} metrics equal)")
        failures += len(differing)
    if not args.bench_ids:
        for bench_id in sorted(set(currents) - set(baselines)):
            print(f"{bench_id}: no baseline yet (not gated)")
    if failures:
        print(f"\n{failures} difference(s) from the baselines")
        return 1
    print("\nevery gated bench equals its baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="the bench gate: current results equal the baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    compare = sub.add_parser(
        "compare", help="gate current results against baselines"
    )
    compare.add_argument("--baseline", required=True)
    compare.add_argument("--current", required=True)
    compare.add_argument(
        "--bench", action="append", dest="bench_ids", metavar="BENCH_ID",
        help="gate only this bench id (repeatable; default: every "
        "baseline document)",
    )
    compare.set_defaults(func=_cmd_compare)
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
