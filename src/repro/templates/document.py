"""What the two template-document readers share.

The site hands the proxy its function templates and information files
as XML documents (paper Section 2).  Each layout has one reader, in the
module that writes it (``read_function_template`` beside
``FunctionTemplate.to_xml``, ``read_info_file`` beside
``TemplateInfoFile.to_xml``).  A reader walks the document once and
reports every problem it finds to a *sink* as ``(code, message, anchor,
hint)``:

* ``code`` is the analyzer's diagnostic code (FP101–FP106, see
  :mod:`repro.analysis.codes`): FP102 for a missing or empty element or
  attribute, FP106 for a value that does not parse;
* ``anchor`` places the problem in the text: a snippet of it, the
  character offset of a syntax error, or None;
* ``hint`` says how to fix it, or is empty.

It builds the object only when nothing was reported.  The loader
(``from_xml``) reads through :func:`read_strictly`, whose sink raises
one :class:`TemplateError` naming every problem; the linter
(:mod:`repro.analysis`) reads through a sink that emits diagnostics.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Callable, TypeVar

from repro.templates.errors import TemplateError

Anchor = str | int | None
Sink = Callable[[str, str, Anchor, str], None]
T = TypeVar("T")


class Problems:
    """A reader's view of its sink: it counts what it forwards, so the
    reader knows whether it may build."""

    def __init__(self, sink: Sink) -> None:
        self.sink = sink
        self.count = 0

    def __call__(
        self, code: str, message: str, anchor: Anchor = None, hint: str = ""
    ) -> None:
        self.count += 1
        self.sink(code, message, anchor, hint)

    def root(self, text: str, tag: str) -> ET.Element | None:
        """The document element of ``text``, when it parses and is a
        ``<tag>``."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            line, column = exc.position
            offset = column + sum(
                len(row) + 1 for row in text.split("\n")[: line - 1]
            )
            self("FP101", f"<{tag}> XML is not well-formed: {exc}", offset)
            return None
        if root.tag != tag:
            self(
                "FP102",
                f"expected root element <{tag}>, got <{root.tag}>",
                f"<{root.tag}",
            )
            return None
        return root

    def text_of(self, parent: ET.Element, tag: str) -> str | None:
        """The stripped text of ``parent``'s ``<tag>`` child, which must
        be there and not be blank."""
        child = parent.find(tag)
        text = (child.text or "").strip() if child is not None else ""
        if not text:
            self("FP102", f"missing or empty <{tag}> element")
            return None
        return text


def read_strictly(reader: Callable[[str, Sink], T | None], text: str) -> T:
    """``reader`` over ``text``, refusing the document with one
    :class:`TemplateError` that names every problem."""
    problems: list[str] = []
    built = reader(
        text, lambda code, message, *_: problems.append(f"[{code}] {message}")
    )
    if built is None:
        raise TemplateError("; ".join(problems))
    return built
