"""Registry of scalar and table-valued user-defined functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.relational.errors import RelationalError
from repro.relational.schema import Schema


class UdfError(RelationalError):
    """Unknown functions, arity mismatches, registration conflicts, and
    arguments a function rejects.

    A :class:`~repro.relational.errors.RelationalError`, because that
    is how it reaches a caller — through the executor running a query
    — and every layer above (origin app, gateway, proxy) already turns
    that root into a 400 / ``query-error`` instead of a crash.
    """


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar UDF: ``impl(args) -> value``.

    ``impl`` must not consult external state unless ``deterministic`` is
    False; the registry cannot verify this, so the flag is a declared
    contract (exactly as in a real DBMS's CREATE FUNCTION options).
    """

    name: str
    params: tuple[str, ...]
    impl: Callable[..., Any]
    deterministic: bool = True
    description: str = ""


@dataclass(frozen=True)
class TableFunction:
    """A table-valued UDF: ``impl(catalog, args) -> list of row tuples``.

    The implementation receives the catalog because TVFs like
    ``fGetNearbyObjEq`` select from base tables.  ``schema`` declares the
    shape of the returned tuples; the executor wraps them in a
    :class:`~repro.relational.result.ResultTable`.  ``query_dependent``
    names the output columns computed relative to the call's own
    arguments (a distance from the search centre): a cached row carries
    them for the call that fetched it, not for the next one.
    """

    name: str
    params: tuple[str, ...]
    schema: Schema
    impl: Callable[..., list[tuple[Any, ...]]]
    deterministic: bool = True
    description: str = ""
    query_dependent: tuple[str, ...] = ()


class FunctionRegistry:
    """Case-insensitive name resolution for UDFs.

    A single namespace covers both kinds (as in SQL Server, the paper's
    host DBMS): registering a table function named like an existing
    scalar function is a conflict.
    """

    def __init__(self) -> None:
        self._scalars: dict[str, ScalarFunction] = {}
        self._tables: dict[str, TableFunction] = {}

    # --------------------------------------------------------- register
    def register_scalar(self, function: ScalarFunction) -> None:
        self._check_free(function.name)
        self._scalars[function.name.lower()] = function

    def register_table(self, function: TableFunction) -> None:
        self._check_free(function.name)
        self._tables[function.name.lower()] = function

    def _check_free(self, name: str) -> None:
        key = name.lower()
        if key in self._scalars or key in self._tables:
            raise UdfError(f"function {name!r} is already registered")

    # ---------------------------------------------------------- resolve
    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def scalar(self, name: str) -> ScalarFunction:
        try:
            return self._scalars[name.lower()]
        except KeyError:
            raise UdfError(f"unknown scalar function {name!r}") from None

    def table(self, name: str) -> TableFunction:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UdfError(f"unknown table function {name!r}") from None

    def is_deterministic(self, name: str) -> bool:
        key = name.lower()
        if key in self._scalars:
            return self._scalars[key].deterministic
        if key in self._tables:
            return self._tables[key].deterministic
        raise UdfError(f"unknown function {name!r}")

    # ------------------------------------------------------------- call
    def call_scalar(self, name: str, args: Sequence[Any]) -> Any:
        function = self.scalar(name)
        if len(args) != len(function.params):
            raise UdfError(
                f"{function.name} expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        return function.impl(*args)

    def call_table(
        self, name: str, catalog, args: Sequence[Any]
    ) -> list[tuple[Any, ...]]:
        function = self.table(name)
        if len(args) != len(function.params):
            raise UdfError(
                f"{function.name} expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        return function.impl(catalog, list(args))
