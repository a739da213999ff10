"""Function templates: the spatial abstraction of a table-valued function.

A function template declares (paper Figure 3):

* the function's name and parameter names;
* the region **shape** (hypersphere, hyperrect, or polytope) and its
  dimensionality;
* expressions, over the ``$``-parameters, that compute the region from a
  concrete call — e.g. for ``fGetNearbyObjEq`` the center is the unit
  vector ``(cos(ra)cos(dec), sin(ra)cos(dec), sin(dec))`` and the radius
  is the chord subtending the angular radius;
* expressions, over the *result attributes*, that compute the point a
  result tuple represents (the paper's property 4 requires those
  attributes to be present in cached results);
* output rules for the function's *query-dependent* columns — a
  distance from the call's centre — over the ``$``-parameters and the
  result attributes, so a row cached for one call can be answered for
  another with that column recomputed (``<Output name="...">``).

Templates serialize to XML.  The paper's example uses numbered child
tags (``<1>``, ``<2>``); we use repeated ``<Expr>`` elements, which is
well-formed XML carrying the same information.  :meth:`FunctionTemplate.to_xml`
writes it and :func:`read_function_template` is its one reader: the
loader (:meth:`FunctionTemplate.from_xml`) and the linter
(:mod:`repro.analysis`) both run it, with different sinks for the
problems it finds (see :mod:`repro.templates.document`).
"""

from __future__ import annotations

import enum
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.geometry.regions import Region
from repro.relational.expressions import Compiled, Expression
from repro.relational.types import is_finite
from repro.sqlparser.ast import Parameter
from repro.sqlparser.errors import ParseError
from repro.sqlparser.parser import parse_expression
from repro.templates.binding import compile_region
from repro.templates.document import Problems, Sink, read_strictly
from repro.templates.errors import TemplateError


class Shape(enum.Enum):
    """Region shapes a function template may declare."""

    HYPERSPHERE = "hypersphere"
    HYPERRECT = "hyperrect"
    POLYTOPE = "polytope"


@dataclass(frozen=True)
class HalfspaceSpec:
    """One polytope face: normal component expressions and an offset."""

    normal: tuple[Expression, ...]
    offset: Expression


@dataclass(frozen=True)
class FunctionTemplate:
    """The registered spatial semantics of one table-valued function.

    ``point_exprs``, over result columns, recover a result tuple's point
    in region space.  For the shape expressions, exactly the fields
    matching the declared shape must be provided:

    * HYPERSPHERE: ``center_exprs`` (one per dimension) and ``radius_expr``
    * HYPERRECT: ``low_exprs`` and ``high_exprs`` (one per dimension)
    * POLYTOPE: ``halfspace_specs`` plus ``low_exprs``/``high_exprs``
      giving an enclosing box (used for the R-tree description)

    ``domains`` are optional ``(param, low, high)`` closed numeric
    ranges (``-inf`` / ``inf`` for an open side; ``min`` / ``max``
    attributes of ``<Param>`` in the XML form): the calls the region
    expressions describe.  Outside one the expressions may still
    evaluate (a chord folds back past 180 degrees) to a region that is
    not what the function selects, so :attr:`region_for` refuses the
    call instead.

    ``outputs`` are ``(column, expression)`` rules for the result
    columns the function computes relative to its own call (paper
    property 4: such a column is available from the cache only if the
    proxy can recompute it).
    """

    name: str
    params: tuple[str, ...]
    shape: Shape
    dims: int
    point_exprs: tuple[Expression, ...]
    center_exprs: tuple[Expression, ...] = ()
    radius_expr: Expression | None = None
    low_exprs: tuple[Expression, ...] = ()
    high_exprs: tuple[Expression, ...] = ()
    halfspace_specs: tuple[HalfspaceSpec, ...] = ()
    description: str = ""
    domains: tuple[tuple[str, float, float], ...] = ()
    outputs: tuple[tuple[str, Expression], ...] = ()

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise TemplateError(f"dims must be positive, got {self.dims}")
        for param, low, high in self.domains:
            if param not in self.params or not low <= high:
                raise TemplateError(
                    f"{self.name}: bad domain [{low}, {high}] for {param!r}"
                )
        if len(self.point_exprs) != self.dims:
            raise TemplateError(
                f"{self.name}: need {self.dims} point expressions, "
                f"got {len(self.point_exprs)}"
            )
        if self.shape is Shape.HYPERSPHERE:
            if len(self.center_exprs) != self.dims or self.radius_expr is None:
                raise TemplateError(
                    f"{self.name}: hypersphere needs {self.dims} center "
                    "expressions and a radius expression"
                )
        elif self.shape is Shape.HYPERRECT:
            if len(self.low_exprs) != self.dims or (
                len(self.high_exprs) != self.dims
            ):
                raise TemplateError(
                    f"{self.name}: hyperrect needs {self.dims} low and "
                    f"{self.dims} high bound expressions"
                )
        elif self.shape is Shape.POLYTOPE:
            if not self.halfspace_specs:
                raise TemplateError(
                    f"{self.name}: polytope needs at least one halfspace"
                )
            if len(self.low_exprs) != self.dims or (
                len(self.high_exprs) != self.dims
            ):
                raise TemplateError(
                    f"{self.name}: polytope needs an enclosing box "
                    "(low/high bound expressions)"
                )
            for spec in self.halfspace_specs:
                if len(spec.normal) != self.dims:
                    raise TemplateError(
                        f"{self.name}: halfspace normal has "
                        f"{len(spec.normal)} components, expected {self.dims}"
                    )

    # ------------------------------------------------------------ region
    @property
    def region_exprs(self) -> tuple[Expression, ...]:
        """Every expression that shapes the region, in declared order:
        centre, then radius; or lows, highs, then each face's normal and
        offset."""
        if self.shape is Shape.HYPERSPHERE:
            radius = () if self.radius_expr is None else (self.radius_expr,)
            return (*self.center_exprs, *radius)
        faces = [(*spec.normal, spec.offset) for spec in self.halfspace_specs]
        return (*self.low_exprs, *self.high_exprs, *chain.from_iterable(faces))

    @cached_property
    def region_for(self) -> Callable[[Mapping[str, Any]], Region]:
        """The region selected by a concrete call, from the call's
        parameters: the template's generated region code
        (:mod:`repro.templates.binding`), which every query template
        over it binds with."""
        return compile_region(self)

    def _parameter(self, node: Expression) -> Compiled | None:
        """The compiler's leaf: a declared parameter reads the call's
        value; any other stays unbound."""
        if isinstance(node, Parameter) and node.name in self.params:
            return itemgetter(node.name)
        return None

    def point_attribute_names(self) -> set[str]:
        """Result attributes the point expressions depend on.

        The proxy checks these against a query template's select list to
        enforce the paper's *result attribute availability* property.
        """
        names: set[str] = set()
        for expr in self.point_exprs:
            names |= expr.column_refs()
        return names

    # --------------------------------------------------------------- XML
    def to_xml(self) -> str:
        root = ET.Element("FunctionTemplate")
        ET.SubElement(root, "Name").text = self.name
        params_el = ET.SubElement(root, "Params")
        for param in self.params:
            ET.SubElement(params_el, "Param").text = param
        for param, *bounds in self.domains:
            for attr, bound in zip(("min", "max"), bounds):
                if is_finite(bound):
                    params_el[self.params.index(param)].set(attr, repr(bound))
        ET.SubElement(root, "Shape").text = self.shape.value
        ET.SubElement(root, "NumDimensions").text = str(self.dims)
        if self.shape is Shape.HYPERSPHERE:
            center_el = ET.SubElement(root, "CenterCoordinate")
            for expr in self.center_exprs:
                ET.SubElement(center_el, "Expr").text = expr.to_sql()
            ET.SubElement(root, "Radius").text = self.radius_expr.to_sql()
        else:
            low_el = ET.SubElement(root, "LowBound")
            for expr in self.low_exprs:
                ET.SubElement(low_el, "Expr").text = expr.to_sql()
            high_el = ET.SubElement(root, "HighBound")
            for expr in self.high_exprs:
                ET.SubElement(high_el, "Expr").text = expr.to_sql()
        if self.shape is Shape.POLYTOPE:
            faces_el = ET.SubElement(root, "Halfspaces")
            for spec in self.halfspace_specs:
                face_el = ET.SubElement(faces_el, "Halfspace")
                normal_el = ET.SubElement(face_el, "Normal")
                for expr in spec.normal:
                    ET.SubElement(normal_el, "Expr").text = expr.to_sql()
                ET.SubElement(face_el, "Offset").text = spec.offset.to_sql()
        point_el = ET.SubElement(root, "PointCoordinate")
        for expr in self.point_exprs:
            ET.SubElement(point_el, "Expr").text = expr.to_sql()
        for column, expr in self.outputs:
            ET.SubElement(root, "Output", name=column).text = expr.to_sql()
        if self.description:
            ET.SubElement(root, "Description").text = self.description
        return ET.tostring(root, encoding="unicode")

    @staticmethod
    def from_xml(text: str) -> "FunctionTemplate":
        """The template ``text`` describes; a :class:`TemplateError`
        naming every problem of the document otherwise."""
        return read_strictly(read_function_template, text)


def read_function_template(text: str, sink: Sink) -> FunctionTemplate | None:
    """The one reader of function-template XML (see
    :mod:`repro.templates.document`): every problem of ``text`` to
    ``sink``, and the template when there was none."""
    problem = Problems(sink)
    root = problem.root(text, "FunctionTemplate")
    if root is None:
        return None

    name = problem.text_of(root, "Name")
    if root.find("Params") is None:
        problem(
            "FP102",
            "missing <Params> element",
            None,
            "declare the function's parameters, one <Param> each",
        )
    params: list[str] = []
    domains: list[tuple[str, float, float]] = []
    for param_el in root.iterfind("Params/Param"):
        param = (param_el.text or "").strip()
        params.append(param)
        if not param:
            problem("FP102", "missing or empty <Param>", "<Param")
        if "min" not in param_el.attrib and "max" not in param_el.attrib:
            continue
        bounds = (param_el.get("min", "-inf"), param_el.get("max", "inf"))
        try:
            low, high = map(float, bounds)
        except ValueError:
            low = high = math.nan  # refused below, as a NaN bound is
        if not low <= high:
            problem(
                "FP106",
                f"bad domain [{', '.join(bounds)}] for {param!r}",
                f"{param}</Param>",
            )
        domains.append((param, low, high))

    shape: Shape | None = None
    shape_text = problem.text_of(root, "Shape")
    if shape_text is not None:
        try:
            shape = Shape(shape_text)
        except ValueError:
            known = ", ".join(s.value for s in Shape)
            problem(
                "FP103",
                f"unknown shape {shape_text!r}; expected one of {known}",
                shape_text,
            )
    dims: int | None = None
    dims_text = problem.text_of(root, "NumDimensions")
    if dims_text is not None:
        dims = int(dims_text) if dims_text.isdecimal() else 0
        if dims < 1:
            problem(
                "FP104",
                f"<NumDimensions> must be a positive integer, "
                f"got {dims_text!r}",
                dims_text,
            )
            dims = None

    def parsed(
        element: ET.Element | None, label: str, anchor: str | None = None
    ) -> Expression | None:
        source = (element.text or "").strip() if element is not None else ""
        if not source:
            problem("FP102", f"missing or empty {label}", anchor)
            return None
        try:
            return parse_expression(source)
        except (ParseError, RecursionError) as exc:
            problem("FP106", f"cannot parse {label} {source!r}: {exc}", source)
            return None

    def exprs_of(
        parent: ET.Element, tag: str, outer: str = ""
    ) -> tuple[Expression, ...]:
        label = f"{outer}<{tag}>"
        container = parent.find(tag)
        if container is None:
            problem(
                "FP102",
                f"missing {label} element",
                f"<{parent.tag}",
                f"declare {label} with one <Expr> per dimension",
            )
            return ()
        children = container.findall("Expr")
        if dims is not None and len(children) != dims:
            problem(
                "FP105",
                f"{label} has {len(children)} <Expr> element(s), expected "
                f"{dims} (one per dimension)",
                f"<{tag}>",
                "match the expression count to <NumDimensions>",
            )
        exprs = [
            parsed(child, f"<Expr> in {label}", f"<{tag}>")
            for child in children
        ]
        return tuple(expr for expr in exprs if expr is not None)

    shaped: dict[str, Any] = {}  # the shape's own fields
    if shape is Shape.HYPERSPHERE:
        shaped["center_exprs"] = exprs_of(root, "CenterCoordinate")
        shaped["radius_expr"] = parsed(root.find("Radius"), "<Radius>")
    elif shape is not None:
        shaped["low_exprs"] = exprs_of(root, "LowBound")
        shaped["high_exprs"] = exprs_of(root, "HighBound")
    if shape is Shape.POLYTOPE:
        face_els = root.findall("Halfspaces/Halfspace")
        if not face_els:
            problem(
                "FP102",
                "polytope template needs <Halfspaces> with at least one "
                "<Halfspace>",
            )
        faces = []
        for face_el in face_els:
            normal = exprs_of(face_el, "Normal", "<Halfspace>")
            offset = parsed(face_el.find("Offset"), "<Offset> in <Halfspace>")
            if offset is not None:
                faces.append(HalfspaceSpec(normal, offset))
        shaped["halfspace_specs"] = tuple(faces)
    point = exprs_of(root, "PointCoordinate")
    outputs = []
    for output_el in root.findall("Output"):
        column = output_el.get("name", "")
        rule = parsed(output_el, f"<Output name={column!r}>", "<Output")
        if not column:
            problem("FP102", "<Output> needs a name attribute", "<Output")
        elif rule is not None:
            outputs.append((column, rule))

    if problem.count or name is None or shape is None or dims is None:
        return None
    return FunctionTemplate(
        name=name,
        params=tuple(params),
        shape=shape,
        dims=dims,
        point_exprs=point,
        description=(root.findtext("Description") or "").strip(),
        domains=tuple(domains),
        outputs=tuple(outputs),
        **shaped,
    )
