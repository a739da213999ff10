"""Golden pin of the diagnostic-code registry.

Codes are a public contract — operators filter ``/analyze`` output and
metrics by them — so any change to a code's existence, severity, or
paper-property mapping must consciously update this table.
"""

import pytest

from repro.analysis.codes import CODES, code_info, severity_of
from repro.analysis.diagnostics import Severity

#: code -> (severity, paper property or None)
GOLDEN = {
    "FP101": (Severity.ERROR, None),
    "FP102": (Severity.ERROR, None),
    "FP103": (Severity.ERROR, None),
    "FP104": (Severity.ERROR, None),
    "FP105": (Severity.ERROR, None),
    "FP106": (Severity.ERROR, None),
    "FP107": (Severity.ERROR, 2),
    "FP108": (Severity.WARNING, 2),
    "FP109": (Severity.ERROR, 4),
    "FP110": (Severity.ERROR, 1),
    "FP111": (Severity.WARNING, 1),
    "FP201": (Severity.ERROR, None),
    "FP202": (Severity.ERROR, 2),
    "FP203": (Severity.ERROR, 2),
    "FP204": (Severity.ERROR, 2),
    "FP205": (Severity.ERROR, 3),
    "FP206": (Severity.ERROR, 4),
    "FP207": (Severity.ERROR, None),
    "FP208": (Severity.INFO, None),
    "FP209": (Severity.ERROR, 1),
    "FP210": (Severity.ERROR, 1),
    "FP211": (Severity.ERROR, 1),
    "FP212": (Severity.ERROR, None),
    "FP213": (Severity.ERROR, None),
    "FP214": (Severity.WARNING, None),
    "FP215": (Severity.ERROR, 4),
    "FP301": (Severity.ERROR, None),
    "FP304": (Severity.ERROR, None),
    "FP305": (Severity.ERROR, 1),
    "FP307": (Severity.ERROR, None),
    "FP309": (Severity.ERROR, None),
    "FP401": (Severity.ERROR, None),
}


def test_every_code_is_pinned():
    assert set(CODES) == set(GOLDEN)


@pytest.mark.parametrize("code", sorted(GOLDEN))
def test_severity_and_property(code):
    severity, paper_property = GOLDEN[code]
    info = code_info(code)
    assert info.severity is severity
    assert info.paper_property == paper_property
    assert severity_of(code) is severity
    assert info.title  # every code documents itself


def test_codes_are_numerically_ordered_and_blocked():
    numbers = [int(code[2:]) for code in CODES]
    assert numbers == sorted(numbers)
    for code in CODES:
        # template / query / repo-lint / shared-state blocks
        assert code[2] in "1234"


def test_unknown_code_is_a_programming_error():
    with pytest.raises(KeyError):
        code_info("FP999")
