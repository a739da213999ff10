"""One reader per template document: the loader (``from_xml``) and the
linter read function-template and info-file XML through the same code,
so the loader refuses exactly the documents in which the linter finds a
structural error (FP101–FP106)."""

import xml.etree.ElementTree as ET

import pytest

from repro.analysis.analyzer import (
    analyze_function_template_xml,
    analyze_info_file_xml,
)
from repro.extensions.triangle import triangle_function_template
from repro.templates.errors import TemplateError
from repro.templates.function_template import FunctionTemplate
from repro.templates.info_file import TemplateInfoFile
from repro.templates.skyserver_templates import (
    nearest_info_file,
    radial_function_template,
    radial_info_file,
    rect_function_template,
    rect_info_file,
)

#: kind -> (loader, linter)
READERS = {
    "template": (FunctionTemplate.from_xml, analyze_function_template_xml),
    "info": (TemplateInfoFile.from_xml, analyze_info_file_xml),
}
SHIPPED = {
    "radial": ("template", radial_function_template),
    "rect": ("template", rect_function_template),
    "triangle": ("template", triangle_function_template),
    "radial-info": ("info", radial_info_file),
    "rect-info": ("info", rect_info_file),
    "nearest-info": ("info", nearest_info_file),
}
STRUCTURAL = {f"FP10{digit}" for digit in range(1, 7)}
RADIAL = radial_function_template().to_xml()
RADIAL_INFO = radial_info_file().to_xml()


def structural_errors(report):
    return {d.code for d in report.errors} & STRUCTURAL


def refuses(load, text):
    try:
        load(text)
    except TemplateError:
        return True
    return False


#: (kind, document, the code the linter reports, or None for a clean one)
CASES = {
    "dimensions-three": (
        "template",
        RADIAL.replace("<NumDimensions>3<", "<NumDimensions>three<"),
        "FP104",
    ),
    "blank-name": (
        "template",
        RADIAL.replace("<Name>fGetNearbyObjEq<", "<Name> <"),
        "FP102",
    ),
    "field-without-param": (
        "info",
        RADIAL_INFO.replace(' name="ra" param="ra"', ' name="ra"'),
        "FP102",
    ),
    "blank-form-name": (
        "info",
        RADIAL_INFO.replace("<FormName>Radial<", "<FormName> <"),
        "FP102",
    ),
    "default-without-param-or-value": (
        "info",
        RADIAL_INFO.replace('param="r_min" value="-9999.0"', ""),
        "FP102",
    ),
    "default-without-value": (
        "info",
        RADIAL_INFO.replace(' value="-9999.0"', ""),
        "FP102",
    ),
    "output-without-name": (
        "template",
        RADIAL.replace(' name="distance"', ""),
        "FP102",
    ),
    "domain-not-a-number": (
        "template",
        RADIAL.replace('max="10800.0"', 'max="wide"'),
        "FP106",
    ),
    "domain-inverted": (
        "template",
        RADIAL.replace('max="10800.0"', 'min="5" max="1"'),
        "FP106",
    ),
    "radius-does-not-parse": (
        "template",
        RADIAL.replace("<Radius>(2.0 * ", "<Radius>(2.0 * * "),
        "FP106",
    ),
    "center-arity": (
        "template",
        RADIAL.replace("<Expr>sin(radians($dec))</Expr>", ""),
        "FP105",
    ),
    "unknown-shape": (
        "template", RADIAL.replace(">hypersphere<", ">blob<"), "FP103",
    ),
    "not-well-formed": ("info", RADIAL_INFO[:-5], "FP101"),
    "wrong-root": ("template", RADIAL_INFO, "FP102"),
    # Only a warning (FP108): both accept it.
    "unused-parameter": (
        "template",
        RADIAL.replace("<Param>dec", "<Param>x</Param><Param>dec"),
        None,
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_the_loader_refuses_exactly_what_the_linter_calls_an_error(case):
    kind, text, code = CASES[case]
    load, lint = READERS[kind]
    report = lint(text)
    assert refuses(load, text) == report.has_errors == (code is not None)
    if code is not None:
        assert code in {d.code for d in report.errors}


def test_one_error_names_every_problem():
    text = RADIAL.replace("<Name>fGetNearbyObjEq<", "<Name><").replace(
        ">hypersphere<", ">blob<"
    )
    with pytest.raises(TemplateError) as refused:
        FunctionTemplate.from_xml(text)
    assert "[FP102] missing or empty <Name>" in str(refused.value)
    assert "[FP103] unknown shape 'blob'" in str(refused.value)


def mutations(text):
    """``text`` with one element removed or blanked, or the attributes of
    one element dropped or blanked, for every element in it."""
    for at in range(len(list(ET.fromstring(text).iter()))):
        for edit in ("remove", "blank", "drop-attrs", "blank-attrs"):
            root = ET.fromstring(text)
            element = list(root.iter())[at]
            if edit == "remove":
                for parent in root.iter():
                    if element in parent:
                        parent.remove(element)
                        break
            elif edit == "blank":
                element.text = " "
            elif edit == "drop-attrs":
                element.attrib.clear()
            else:
                element.attrib = dict.fromkeys(element.attrib, "")
            yield ET.tostring(root, encoding="unicode")


@pytest.mark.parametrize("name", list(SHIPPED))
def test_parity_over_every_single_edit_of_a_shipped_document(name):
    kind, factory = SHIPPED[name]
    load, lint = READERS[kind]
    for text in mutations(factory().to_xml()):
        refused = refuses(load, text)
        assert refused == bool(structural_errors(lint(text))), text


@pytest.mark.parametrize("name", list(SHIPPED))
def test_shipped_documents_round_trip_and_lint_clean(name):
    kind, factory = SHIPPED[name]
    load, lint = READERS[kind]
    xml = factory().to_xml()
    assert load(xml).to_xml() == xml
    assert not lint(xml).has_errors
