"""Command line: ``python3 -m wallbench --workload <name|all> --seed <int>``.

Run from the repository root.  Each workload runs in its own process
(``--workload all`` and ``--selfcheck`` spawn one child per run), so
set-up time and peak memory belong to one workload.

With ``--trace 0|1`` the command follows the benchmark driver's
contract: ``--trace 0`` measures and prints only the end-to-end
metrics, ``--trace 1`` only the per-layer metrics, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--trace`` both families are
measured and printed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent
# The program under test is built from source in the checkout.
sys.path.insert(0, str(REPO_ROOT / "src"))

from wallbench import EXACT_METRICS  # noqa: E402
from wallbench.calibrate import calibrated_seconds  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m wallbench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=339)
    parser.add_argument("--out", type=Path, default=PACKAGE_DIR / "out")
    parser.add_argument(
        "--passes", type=int, default=None,
        help="timed passes, each on a fresh proxy (default 2)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="budget for the timed passes when --passes is not given: "
        "whole passes at the workload's nominal pass time, 1 or 2",
    )
    parser.add_argument(
        "--queries", type=int, default=None,
        help="shorten every workload (smoke tests only: it redefines "
        "the exact metrics)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run every workload twice and compare against the bounds",
    )
    return parser


def _print_report(report: dict) -> None:
    name = report["workload"]
    print(
        f"# {name}: seed {report['seed']}, {report['queries']} queries, "
        f"{report['passes']} timed passes, {report['latency_samples']} "
        f"latency samples; {report['load']}; python {report['python']}, "
        f"nproc {report['nproc']}"
    )
    for metric, cell in report["metrics"].items():
        print(f"{name:<12} {metric:<44} {cell['value']:>16.6g} {cell['unit']}")
    for problem in report["problems"]:
        print(f"{name}: WRONG: {problem}")


def _run_one(args: argparse.Namespace) -> int:
    """One workload in this process."""
    try:
        import_s, runner = calibrated_seconds(
            lambda: importlib.import_module("wallbench.runner")
        )
    except ModuleNotFoundError as exc:
        if exc.name != "repro":
            raise
        print(
            f"the program is not here: no src/repro under {REPO_ROOT}",
            file=sys.stderr,
        )
        return 3
    from wallbench.metrics import END_TO_END, PER_LAYER
    from wallbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2
    report = runner.run_workload(
        args.workload,
        abs(args.seed),
        args.out,
        end_to_end=args.trace != 1,
        layers=args.trace != 0,
        passes=args.passes
        or runner.passes_for(WORKLOADS[args.workload], args.seconds),
        queries=args.queries,
        import_s=import_s,
    )
    if args.trace is not None:
        family = PER_LAYER if args.trace else END_TO_END
        report.metrics = {
            metric.name: report.metrics[metric.name] for metric in family
        }
    payload = report.to_dict()
    (args.out / f"{args.workload}.json").write_text(
        json.dumps(payload, indent=1) + "\n"
    )
    _print_report(payload)
    if args.trace is not None:
        print(
            json.dumps(
                {
                    "correct": report.correct,
                    "attempted": report.attempted,
                    "failed": report.failed,
                    "metrics": payload["metrics"],
                }
            )
        )
    return 0 if report.correct else 1


def _spawn(args: argparse.Namespace, workload: str, out: Path) -> int:
    command = [
        sys.executable, "-m", "wallbench",
        "--workload", workload, "--seed", str(args.seed), "--out", str(out),
    ]
    for flag in ("passes", "seconds", "queries", "trace"):
        value = getattr(args, flag)
        if value is not None:
            command += [f"--{flag}", str(value)]
    return subprocess.run(command, cwd=REPO_ROOT, check=False).returncode


def _benchmark() -> dict:
    # Workload names and bounds come from BENCHMARK.json, so the parent
    # process never imports the program.
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _run_all(args: argparse.Namespace) -> int:
    return max(
        _spawn(args, workload["name"], args.out)
        for workload in _benchmark()["workloads"]
    )


def _selfcheck(args: argparse.Namespace) -> int:
    """A/A: every workload twice; differences against the bounds."""
    benchmark = _benchmark()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    worst = 0
    for name in (workload["name"] for workload in benchmark["workloads"]):
        runs = []
        for side in ("a", "b"):
            out = args.out / f"selfcheck-{side}"
            worst = max(worst, _spawn(args, name, out))
            runs.append(json.loads((out / f"{name}.json").read_text()))
        first, second = (run["metrics"] for run in runs)
        for metric in (*bounds, *EXACT_METRICS):
            a, b = first[metric]["value"], second[metric]["value"]
            difference = abs(a - b) / abs(a) if a else abs(b)
            allowed = bounds.get(metric, 0.0)
            verdict = "ok" if difference <= allowed else "FAIL"
            if verdict == "FAIL":
                worst = max(worst, 1)
            print(
                f"selfcheck {name:<12} {metric:<28} {a:>14.6g} {b:>14.6g} "
                f"diff {difference:8.4f} bound {allowed:5.2f} {verdict}"
            )
    return worst


def _pin_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` unless the caller set one.

    String hashing is randomised per process; it decides dict and set
    layouts all over the program, which moved whole-process throughput
    by several percent between otherwise identical runs and would make
    the exact call counts differ.
    """
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(
            sys.executable, [sys.executable, "-m", "wallbench", *sys.argv[1:]]
        )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if argv is None:
        _pin_hash_seed()
    if args.selfcheck:
        return _selfcheck(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
