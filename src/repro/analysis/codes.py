"""The stable diagnostic-code registry.

Every finding the analyzer or the repository lint can produce is declared
here with a fixed code, default severity, one-line title, and — where
applicable — the paper property (Section 3.1) it enforces:

* **property 1** — determinism;
* **property 2** — spatial region selection semantics;
* **property 3** — semantics-preserving joins;
* **property 4** — result attribute availability.

Code blocks:

* ``FP1xx`` — function-template structure and semantics (XML layer);
* ``FP2xx`` — query-template / info-file checks against the properties;
* ``FP3xx`` — repository lint rules (``tools/lint.py``);
* ``FP4xx`` — the shared-state inventory (``tools/lint.py``).

The table is pinned by a golden test; changing a code's meaning is a
breaking change for anyone filtering diagnostics by code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Severity


@dataclass(frozen=True)
class CodeInfo:
    """The registry entry for one diagnostic code."""

    code: str
    severity: Severity
    title: str
    paper_property: int | None = None


_E = Severity.ERROR
_W = Severity.WARNING
_I = Severity.INFO

#: All diagnostic codes, in numeric order.
CODES: dict[str, CodeInfo] = {
    info.code: info
    for info in (
        # ----------------------------------------- FP1xx: function templates
        CodeInfo("FP101", _E, "function template XML is not well-formed"),
        CodeInfo("FP102", _E, "missing or empty required template element"),
        CodeInfo("FP103", _E, "unknown region shape"),
        CodeInfo("FP104", _E, "invalid dimension count"),
        CodeInfo("FP105", _E, "expression arity does not match dimensions"),
        CodeInfo("FP106", _E, "unparseable template expression"),
        CodeInfo(
            "FP107", _E,
            "region expression references an undeclared $-parameter", 2,
        ),
        CodeInfo(
            "FP108", _W,
            "declared parameter unused by every region expression", 2,
        ),
        CodeInfo(
            "FP109", _E,
            "point expression references a $-parameter", 4,
        ),
        CodeInfo(
            "FP110", _E,
            "non-deterministic function in a template expression", 1,
        ),
        CodeInfo(
            "FP111", _W,
            "unknown scalar function in a template expression", 1,
        ),
        # ------------------------------------- FP2xx: query templates / info
        CodeInfo("FP201", _E, "query template SQL does not parse"),
        CodeInfo(
            "FP202", _E,
            "FROM clause is not a table-valued function call", 2,
        ),
        CodeInfo(
            "FP203", _E,
            "embedded function does not match the function template", 2,
        ),
        CodeInfo(
            "FP204", _E,
            "function call arity differs from the function template", 2,
        ),
        CodeInfo(
            "FP205", _E,
            "join is not a semantics-preserving key equi-join", 3,
        ),
        CodeInfo(
            "FP206", _E,
            "point attribute missing from the select list", 4,
        ),
        CodeInfo("FP207", _E, "key column missing from the select list"),
        CodeInfo(
            "FP208", _I,
            "TOP-N template caches truncated results (exact match only)",
        ),
        CodeInfo(
            "FP209", _E,
            "embedded function is not registered at the origin", 1,
        ),
        CodeInfo(
            "FP210", _E,
            "embedded table-valued function is non-deterministic", 1,
        ),
        CodeInfo(
            "FP211", _E,
            "non-deterministic scalar function in the query template", 1,
        ),
        CodeInfo(
            "FP212", _E, "info file references an unknown query template",
        ),
        CodeInfo(
            "FP213", _E,
            "info file leaves a template parameter unbound",
        ),
        CodeInfo(
            "FP214", _W,
            "info file maps a field to an undeclared parameter",
        ),
        CodeInfo(
            "FP215", _E,
            "query-dependent function column selected without an "
            "output rule", 4,
        ),
        # ------------------------------------------- FP3xx: repository lint
        CodeInfo(
            "FP301", _E,
            "wall-clock call outside network/clock.py and obs/",
        ),
        CodeInfo("FP304", _E, "Python source file does not parse"),
        CodeInfo(
            "FP305", _E,
            "unseeded or module-level randomness outside tests", 1,
        ),
        CodeInfo(
            "FP307", _E,
            "non-atomic whole-file write outside persistence/",
        ),
        CodeInfo(
            "FP309", _E,
            "raw threading.Lock/RLock outside repro/locking.py",
        ),
        # ------------------------------------- FP4xx: shared-state inventory
        CodeInfo(
            "FP401", _E,
            "shared mutable state without a concurrency registration",
        ),
    )
}


def code_info(code: str) -> CodeInfo:
    """Look up a code; unknown codes are a programming error."""
    try:
        return CODES[code]
    except KeyError:
        raise KeyError(f"unknown diagnostic code {code!r}") from None


def severity_of(code: str) -> Severity:
    return code_info(code).severity
