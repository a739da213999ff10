"""One record per query, verified by absence.

``core/proxy.py`` creates a query's :class:`QueryRecord` in one place,
the steps write their facts onto it, and ``_respond`` — called from
``serve_admitted`` and ``reject`` and nowhere else — closes it and makes
every hand-over.  The record used to be assembled at the end from ten
keyword arguments that each cache case re-stated by hand; this is the
acceptance grep as a test, so the keywords cannot quietly come back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PROXY = SRC / "core" / "proxy.py"
#: Facts that are written on the record where they happen, never
#: carried to the end of the query as arguments.
RECORD_FACTS = {
    "contacted_origin", "origin_bytes", "failure_reason", "tuples_from_cache",
}
GONE = {"_respond_failure", "_serve_partial"}


def _calls(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _callee(call: ast.Call) -> str:
    """Dotted name of what is called, as far as it is spelled out."""
    parts = []
    node = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_a_record_is_constructed_in_one_place():
    sites = [
        f"{path.relative_to(SRC)}:{call.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")))
        if _callee(call).split(".")[-1] == "QueryRecord"
    ]
    assert len(sites) == 1 and sites[0].startswith("core/proxy.py"), sites


def test_the_record_leaves_the_serve_path_in_one_place():
    tree = ast.parse(PROXY.read_text(encoding="utf-8"))
    callers = {
        function.name: [_callee(call) for call in _calls(function)]
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
    }
    assert sorted(
        name
        for name, calls in callers.items()
        for callee in calls
        if callee == "self._respond"
    ) == ["reject", "serve_admitted"]
    for hand_over in (
        "self.obs.decisions.record",
        "self.obs.observe_record",
        "self.obs.sample_telemetry",
        "self.stats.add",
    ):
        assert [
            name for name, calls in callers.items() if hand_over in calls
        ] == ["_respond"], hand_over
    assert [
        name
        for name, calls in callers.items()
        if "self.obs.decisions.begin" in calls
    ] == ["_open_record"]
    assert not GONE & set(callers)


def test_no_call_restates_a_record_fact():
    tree = ast.parse(PROXY.read_text(encoding="utf-8"))
    offenders = [
        f"{call.lineno}: {keyword.arg}="
        for call in _calls(tree)
        for keyword in call.keywords
        if keyword.arg in RECORD_FACTS
    ]
    assert offenders == []


def test_the_proxy_renders_no_region_for_the_explain_trace():
    """The trace is handed regions and renders them when it is read."""
    tree = ast.parse(PROXY.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "region_summary" not in imported
    assert "region_summary" not in {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }


def test_nothing_above_the_proxy_edits_an_emitted_record():
    """``_respond`` already gave the record to ``/metrics``, the SLO
    tracker, the time series and ``stats``: a later write would make
    the shard's account and its record disagree."""
    offenders = []
    for package in ("cluster", "sched"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "response_ms"
                    ):
                        offenders.append(f"{path.name}:{target.lineno}")
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "steps_ms"
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
