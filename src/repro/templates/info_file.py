"""Template information files: HTML form -> query template binding.

The paper (Section 2): "we use information files to associate an HTML
search form with a function-embedded query template".  An info file
names the form, the query template it drives, how form field names map
to template parameter names, and default values for parameters the form
may omit (the Radial form's result limit, for instance).
:func:`read_info_file` is the one reader of the XML form, for the loader
and the linter alike (see :mod:`repro.templates.document`).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.templates.document import Problems, Sink, read_strictly
from repro.templates.errors import TemplateError


def _parse_value(text: str) -> Any:
    """Form values arrive as strings; recover int/float when they look
    numeric (the same coercion the web tier of the original site does)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class TemplateInfoFile:
    """Association of one search form with one query template."""

    form_name: str
    template_id: str
    field_map: Mapping[str, str]  # form field name -> template parameter
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def bind_form(self, form_values: Mapping[str, str]) -> dict[str, Any]:
        """Translate raw form fields into template parameter values.

        Unknown form fields are ignored (forms carry submit buttons and
        the like); missing fields fall back to defaults; a parameter
        with neither raises :class:`TemplateError`.
        """
        params: dict[str, Any] = dict(self.defaults)
        for form_field, parameter in self.field_map.items():
            if form_field in form_values:
                raw = form_values[form_field]
                params[parameter] = (
                    _parse_value(raw) if isinstance(raw, str) else raw
                )
        missing = [
            parameter
            for parameter in self.field_map.values()
            if parameter not in params
        ]
        if missing:
            raise TemplateError(
                f"form {self.form_name!r}: missing value(s) for "
                f"{', '.join(missing)}"
            )
        return params

    # --------------------------------------------------------------- XML
    def to_xml(self) -> str:
        root = ET.Element("TemplateInfo")
        ET.SubElement(root, "FormName").text = self.form_name
        ET.SubElement(root, "TemplateId").text = self.template_id
        fields_el = ET.SubElement(root, "Fields")
        for form_field, parameter in self.field_map.items():
            ET.SubElement(
                fields_el, "Field", name=form_field, param=parameter
            )
        defaults_el = ET.SubElement(root, "Defaults")
        for parameter, value in self.defaults.items():
            ET.SubElement(
                defaults_el, "Default", param=parameter, value=str(value)
            )
        return ET.tostring(root, encoding="unicode")

    @staticmethod
    def from_xml(text: str) -> "TemplateInfoFile":
        """The info file ``text`` describes; a :class:`TemplateError`
        naming every problem of the document otherwise."""
        return read_strictly(read_info_file, text)


def read_info_file(text: str, sink: Sink) -> TemplateInfoFile | None:
    """The one reader of info-file XML (see
    :mod:`repro.templates.document`): every problem of ``text`` to
    ``sink``, and the info file when there was none."""
    problem = Problems(sink)
    root = problem.root(text, "TemplateInfo")
    if root is None:
        return None
    form_name = problem.text_of(root, "FormName")
    template_id = problem.text_of(root, "TemplateId")
    field_map = {}
    for field_el in root.iterfind("Fields/Field"):
        form_field, parameter = field_el.get("name"), field_el.get("param")
        if form_field and parameter:
            field_map[form_field] = parameter
        else:
            problem(
                "FP102",
                "<Field> needs both a name and a param attribute",
                "<Field",
            )
    defaults = {}
    for default_el in root.iterfind("Defaults/Default"):
        parameter, value = default_el.get("param"), default_el.get("value")
        if parameter and value:
            defaults[parameter] = _parse_value(value)
        else:
            problem(
                "FP102",
                "<Default> needs both a param and a value attribute",
                "<Default",
            )
    if problem.count or form_name is None or template_id is None:
        return None
    return TemplateInfoFile(form_name, template_id, field_map, defaults)
