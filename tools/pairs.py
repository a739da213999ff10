#!/usr/bin/env python
"""Alternating parent/change pairs of one wallbench workload.

A speed claim compares two checkouts on the same machine at the same
time: each pair runs the workload once in each tree, and which tree
goes first alternates from pair to pair, so drift in the machine's
speed falls on both sides alike.  Each side runs::

    python3 -m wallbench --workload W --seed S --seconds 17 --trace 0 \\
        --out <absolute dir>

in its own tree, and the last line it prints (the driver's JSON line)
is appended to the log, one JSON object per run.  After the runs, and
with ``--summarize`` for a log written earlier, it prints per
end-to-end metric of ``BENCHMARK.json``: how many pairs the change won
(ties count for neither side), each side's median and quartiles, the
change in the median, each side's median by its position in the pair
(the run that went first, the run that went second), and failed /
attempted operations per side.

    python tools/pairs.py --parent DIR --change DIR --workload hot_hits \\
        --seed 339 --pairs 10 --log pairs.jsonl
    python tools/pairs.py --summarize pairs.jsonl

Stdlib only; it reads ``BENCHMARK.json`` and writes nothing but the
log and the runs' output directories beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_benchmark(path: Path = REPO_ROOT / "BENCHMARK.json") -> dict[str, Any]:
    return json.loads(path.read_text())


def run_side(tree: Path, workload: str, seed: int, seconds: float,
             out: Path) -> dict[str, Any] | None:
    """One wallbench run in ``tree``; its driver line, or None when it
    printed none (the run crashed)."""
    command = [
        "python3", "-m", "wallbench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--out", str(out.resolve()),
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_pairs(args: argparse.Namespace, benchmark: dict[str, Any]) -> None:
    log = args.log.resolve()
    runs = log.parent / f"{log.name}.runs"
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = [m["name"] for m in benchmark["end_to_end"]]
    # A log that already holds pairs of this workload and seed goes on
    # from its last pair, keeping the alternation.
    done = max(
        (
            entry["pair"]
            for entry in (read_log(log) if log.exists() else [])
            if (entry["workload"], entry["seed"]) == (args.workload, args.seed)
        ),
        default=0,
    )
    for pair in range(done + 1, done + args.pairs + 1):
        order = SIDES if first_side(pair) == "parent" else SIDES[::-1]
        row = {}
        for side in order:
            result = run_side(
                trees[side], args.workload, args.seed,
                benchmark["run_seconds"], runs / f"pair-{pair:02d}-{side}",
            )
            entry = {"pair": pair, "side": side, "workload": args.workload,
                     "seed": args.seed, "result": result}
            with log.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            row[side] = result
        print(pair_row(pair, order[0], row, names), flush=True)


def first_side(pair: int) -> str:
    """Which tree runs first in ``pair``: the parent in odd pairs."""
    return "parent" if pair % 2 else "change"


def value(result: dict[str, Any] | None, metric: str) -> float | None:
    if not result:
        return None
    cell = result.get("metrics", {}).get(metric)
    return None if cell is None else float(cell["value"])


def pair_row(pair: int, first: str, row: dict[str, Any],
             names: list[str]) -> str:
    cells = [
        f"{name} {_fmt(value(row.get('parent'), name))} -> "
        f"{_fmt(value(row.get('change'), name))}"
        for name in names
    ]
    return f"pair {pair:>2} ({first} first): " + "; ".join(cells)


def _fmt(number: float | None) -> str:
    return "-" if number is None else f"{number:.6g}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def read_log(path: Path) -> list[dict[str, Any]]:
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def summarize(entries: list[dict[str, Any]],
              benchmark: dict[str, Any]) -> list[str]:
    """The summary of a log, one section per workload and seed."""
    groups: dict[tuple[str, int], dict[int, dict[str, Any]]] = {}
    for entry in entries:
        pairs = groups.setdefault((entry["workload"], entry["seed"]), {})
        pairs.setdefault(entry["pair"], {})[entry["side"]] = entry["result"]
    lines = []
    for (workload, seed), pairs in sorted(groups.items()):
        lines.append(f"== {workload}, seed {seed}: {len(pairs)} pairs")
        lines.extend(summarize_pairs(pairs, benchmark["end_to_end"]))
    return lines


def summarize_pairs(pairs: dict[int, dict[str, Any]],
                    metrics: list[dict[str, Any]]) -> list[str]:
    lines = [
        pair_row(pair, first_side(pair), row, [m["name"] for m in metrics])
        for pair, row in sorted(pairs.items())
    ]
    for side in SIDES:
        results = [row.get(side) for row in pairs.values()]
        attempted = sum(r["attempted"] for r in results if r)
        failed = sum(r["failed"] for r in results if r)
        crashed = sum(1 for r in results if not r)
        lines.append(
            f"{side}: failed/attempted {failed}/{attempted}, "
            f"runs without a result {crashed}/{len(results)}"
        )
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        wins = losses = 0
        # Each side's values by position: the first run of a pair,
        # then the second.
        positions: dict[str, tuple[list[float], list[float]]] = {
            side: ([], []) for side in SIDES
        }
        for pair, row in pairs.items():
            parent, change = (value(row.get(side), name) for side in SIDES)
            for side, number in zip(SIDES, (parent, change)):
                if number is not None:
                    slot = 0 if side == first_side(pair) else 1
                    positions[side][slot].append(number)
            if parent is None or change is None or parent == change:
                continue
            if (change > parent) == higher:
                wins += 1
            else:
                losses += 1
        sides = {side: first + second
                 for side, (first, second) in positions.items()}
        if not (sides["parent"] and sides["change"]):
            lines.append(f"{name}: no complete pair")
            continue
        (p1, pm, p3), (c1, cm, c3) = (
            quartiles(sides[side]) for side in SIDES
        )
        delta = (cm - pm) / pm if pm else 0.0
        lines.append(
            f"{name} ({metric['better']} is better): change wins {wins}, "
            f"parent wins {losses}, of {len(pairs)} pairs; parent median "
            f"{pm:.6g} [q1 {p1:.6g}, q3 {p3:.6g}, iqr {p3 - p1:.6g}]; "
            f"change median {cm:.6g} [q1 {c1:.6g}, q3 {c3:.6g}]; "
            f"median delta {delta:+.2%}"
        )
        lines.append(f"{name} by position: " + "; ".join(
            f"{side} first {_median(first)}, second {_median(second)}"
            for side, (first, second) in positions.items()
        ))
    return lines


def _median(values: list[float]) -> str:
    """``median (n runs)``, or ``-`` for no run."""
    if not values:
        return "-"
    return f"{statistics.median(values):.6g} ({len(values)} runs)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=339)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--log", type=Path)
    parser.add_argument("--summarize", type=Path, metavar="LOG")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.summarize is None:
        missing = [
            flag for flag in ("parent", "change", "workload", "log")
            if getattr(args, flag) is None
        ]
        if missing:
            parser.error(f"missing --{', --'.join(missing)}")
        run_pairs(args, benchmark)
    log = args.summarize or args.log
    for line in summarize(read_log(log), benchmark):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
