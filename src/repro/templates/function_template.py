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
well-formed XML carrying the same information.
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.geometry.regions import (
    ConvexPolytope,
    Halfspace,
    HyperRect,
    HyperSphere,
    Region,
)
from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    Compiled,
    Expression,
    compile_expression,
)
from repro.relational.types import is_finite
from repro.sqlparser.ast import Parameter
from repro.sqlparser.parser import parse_expression
from repro.templates.errors import TemplateError


class Shape(enum.Enum):
    """Region shapes a function template may declare."""

    HYPERSPHERE = "hypersphere"
    HYPERRECT = "hyperrect"
    POLYTOPE = "polytope"


def _parse(text: str) -> Expression:
    try:
        return parse_expression(text)
    except Exception as exc:
        raise TemplateError(f"bad template expression {text!r}: {exc}") from exc


def _evaluate_constant(
    expr: Expression, function: Compiled, params: Mapping[str, Any]
) -> float:
    """Evaluate a region expression, compiled to ``function``, for one
    call's ``$``-parameter values.

    Every centre, radius, bound, normal and offset of every shape comes
    through here, so this is where a region is kept finite.
    """
    try:
        value = function(params)
    except ExecutionError as exc:
        raise TemplateError(f"cannot evaluate {expr.to_sql()}: {exc}") from exc
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TemplateError(
            f"template expression {expr.to_sql()} produced {value!r}, "
            "expected a number"
        )
    if not is_finite(value):
        raise TemplateError(
            f"template expression {expr.to_sql()} produced {value!r}, "
            "expected a finite number"
        )
    return float(value)


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
    not what the function selects, so :meth:`region_for` refuses the
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
    def region_for(self, params: Mapping[str, Any]) -> Region:
        """The region selected by a concrete call with ``params``."""
        missing = [p for p in self.params if p not in params]
        if missing:
            raise TemplateError(
                f"{self.name}: missing parameter(s) {', '.join(missing)}"
            )
        for param, low, high in self.domains:
            value = params[param]
            # Only a finite number is judged here; anything else is
            # refused, with its own message, when it is evaluated.
            finite = isinstance(value, (int, float)) and is_finite(value)
            if finite and not low <= value <= high:
                raise TemplateError(
                    f"{self.name}: ${param}={value!r} is outside "
                    f"[{low}, {high}]"
                )
        return self._construct(params)

    @cached_property
    def _construct(self) -> Callable[[Mapping[str, Any]], Region]:
        """The region of one call, past :meth:`region_for`'s parameter
        checks: every shape expression compiled once, into one
        constructor over their values in declared order (centre, then
        radius; or lows, highs, then each face's normal and offset),
        each checked in that order, so the first bad one is the one
        refused."""
        name, dims = self.name, self.dims
        if self.shape is Shape.HYPERSPHERE:
            exprs = [*self.center_exprs, self.radius_expr]

            def build(values: list[float]) -> Region:
                if values[dims] < 0:
                    raise TemplateError(
                        f"{name}: negative radius {values[dims]}"
                    )
                return HyperSphere(tuple(values[:dims]), values[dims])

        else:
            exprs = [*self.low_exprs, *self.high_exprs]
            for spec in self.halfspace_specs:
                exprs += [*spec.normal, spec.offset]
            polytope = self.shape is Shape.POLYTOPE

            def build(values: list[float]) -> Region:
                box = HyperRect(
                    tuple(values[:dims]), tuple(values[dims:2 * dims])
                )
                if not polytope:
                    return box
                faces = range(2 * dims, len(values), dims + 1)
                return ConvexPolytope(
                    tuple(
                        Halfspace(tuple(values[at:at + dims]), values[at + dims])
                        for at in faces
                    ),
                    box,
                )

        compiled = [
            (expr, compile_expression(expr, self._parameter)) for expr in exprs
        ]

        def construct(params: Mapping[str, Any]) -> Region:
            return build([
                _evaluate_constant(expr, function, params)
                for expr, function in compiled
            ])

        return construct

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
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise TemplateError(f"malformed template XML: {exc}") from None
        if root.tag != "FunctionTemplate":
            raise TemplateError(f"expected <FunctionTemplate>, got <{root.tag}>")

        def text_of(tag: str, required: bool = True) -> str | None:
            element = root.find(tag)
            if element is None or element.text is None:
                if required:
                    raise TemplateError(f"missing <{tag}> in template")
                return None
            return element.text.strip()

        def exprs_of(tag: str, parent: ET.Element | None = None) -> tuple:
            container = (parent or root).find(tag)
            if container is None:
                return ()
            return tuple(
                _parse(child.text or "") for child in container.findall("Expr")
            )

        name = text_of("Name")
        params_el = root.find("Params")
        if params_el is None:
            raise TemplateError("missing <Params> in template")
        params = tuple(
            (child.text or "").strip() for child in params_el.findall("Param")
        )
        try:
            domains = tuple(
                (p, float(el.get("min", "-inf")), float(el.get("max", "inf")))
                for p, el in zip(params, params_el.findall("Param"))
                if {"min", "max"} & set(el.keys())
            )
        except ValueError:
            raise TemplateError("<Param> min / max: not a number") from None
        try:
            shape = Shape(text_of("Shape"))
        except ValueError:
            raise TemplateError(
                f"unknown shape {text_of('Shape')!r}"
            ) from None
        dims = int(text_of("NumDimensions"))

        radius_text = text_of("Radius", required=False)
        halfspace_specs = []
        faces_el = root.find("Halfspaces")
        if faces_el is not None:
            for face_el in faces_el.findall("Halfspace"):
                offset_el = face_el.find("Offset")
                if offset_el is None or offset_el.text is None:
                    raise TemplateError("halfspace missing <Offset>")
                halfspace_specs.append(
                    HalfspaceSpec(
                        normal=exprs_of("Normal", face_el),
                        offset=_parse(offset_el.text),
                    )
                )
        description_el = root.find("Description")
        outputs = tuple(
            (el.get("name", ""), _parse(el.text or ""))
            for el in root.findall("Output")
        )
        if not all(column for column, _ in outputs):
            raise TemplateError("<Output> needs a name attribute")
        return FunctionTemplate(
            name=name,
            params=params,
            shape=shape,
            dims=dims,
            point_exprs=exprs_of("PointCoordinate"),
            center_exprs=exprs_of("CenterCoordinate"),
            radius_expr=_parse(radius_text) if radius_text else None,
            low_exprs=exprs_of("LowBound"),
            high_exprs=exprs_of("HighBound"),
            halfspace_specs=tuple(halfspace_specs),
            description=(description_el.text or "").strip()
            if description_el is not None
            else "",
            domains=domains,
            outputs=outputs,
        )
