"""Offline template linter: ``python -m repro.analysis [paths...]``.

Lints function-template and info-file XML documents (the document kind
is sniffed from the root element) and exits nonzero when any
error-severity diagnostic is found — the admission check a fleet
operator runs before shipping templates to proxies.

With no paths (or ``--builtin``) the shipped SkyServer templates are
analyzed, which is what CI runs to keep the built-in templates clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.analyzer import analyze_manager, analyze_path
from repro.analysis.diagnostics import AnalysisReport, merge_reports


def _builtin_report() -> AnalysisReport:
    """Analyze the shipped SkyServer templates against the SkyServer
    function library (bound to an empty PhotoPrimary); a built-in that
    registration refuses reports only its own diagnostics."""
    from repro.relational.table import Table
    from repro.skydata.generator import PHOTO_PRIMARY_SCHEMA
    from repro.templates.errors import TemplateAnalysisError
    from repro.templates.manager import TemplateManager
    from repro.templates.skyserver_templates import (
        register_skyserver_templates,
    )
    from repro.udf.registry import FunctionRegistry
    from repro.udf.skyserver import register_skyserver_functions

    functions = FunctionRegistry()
    register_skyserver_functions(
        functions, Table("PhotoPrimary", PHOTO_PRIMARY_SCHEMA)
    )
    manager = TemplateManager()
    try:
        register_skyserver_templates(manager)
    except TemplateAnalysisError as exc:
        # Registration is strict: a broken built-in stops it, and the
        # refusal carries the failing template's full report.
        return exc.report
    return analyze_manager(manager, functions)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Statically analyze function-template / info-file XML for "
            "cacheability violations (paper Section 3.1 properties)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="template/info XML files or directories of them; "
        "default: the built-in SkyServer templates",
    )
    parser.add_argument(
        "--builtin",
        action="store_true",
        help="also analyze the built-in SkyServer templates",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    args = parser.parse_args(argv)

    reports: list[AnalysisReport] = []
    if args.builtin or not args.paths:
        reports.append(_builtin_report())
    for path in args.paths:
        try:
            reports.append(analyze_path(path))
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
    report = merge_reports(reports)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 1 if report.has_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
