#!/usr/bin/env python
"""The repository's own lint: FP3xx rules and the FP401 inventory.

Per-file rules (each skips the package that owns the discipline):

* **FP301 — simulated time only.**  Nothing outside
  ``network/clock.py`` and ``obs/`` reads the wall clock; a stopwatch
  comes from :mod:`repro.obs.wallclock`.
* **FP304** — the file does not parse.
* **FP305 — seeded randomness only.**  Outside tests, no draw from
  the process-global ``random`` state and no ``Random()`` without a
  seed: replays (paper property 1, fault plans) must not diverge.
* **FP307 — atomic artifact writes.**  Outside ``persistence/`` (and
  tests) a whole-file write (``open(path, "w"/"x")``,
  ``Path.write_text`` / ``write_bytes``) goes through
  :func:`repro.persistence.atomic.atomic_write_text` /
  ``atomic_write_bytes``; append and update modes are fine.
* **FP309 — every lock has a name.**  Outside ``repro/locking.py``
  (and tests) locks come from :func:`repro.locking.named_lock`, so the
  runtime sanitizer sees every one of them and
  :data:`repro.locking.LOCK_ORDER` can be checked against them.

Across files:

* **FP401 — shared state is registered.**  Every module-level mutable,
  and every attribute a serve-path class writes outside ``__init__``,
  carries ``@guarded_by("<lock>", ...)`` / ``@unshared`` /
  ``@read_only`` (or the comment forms ``# guarded-by: <lock>`` /
  ``# unshared`` / ``# read-only``).  Serve-path classes are those in
  :data:`SERVE_PATH_MODULES`, in a module whose first lines carry the
  ``# concurrency: serve-path`` pragma, or holding any registration or
  named lock.  Writes are found through ``self``, typed parameters,
  attribute types (constructor calls, annotations, ``# lock-class:
  <Class>`` comments) and local aliases; a receiver that does not
  resolve is not checked, and a class name defined in two modules
  resolves to nothing.

Prints ``path:line:col: CODE severity: message`` and exits nonzero on
any error.

Usage::

    python tools/lint.py [--json] [paths...]   # default: src/repro benchmarks
"""

from __future__ import annotations

import ast
import collections
import io
import json
import pathlib
import re
import sys
import tokenize
from typing import Callable, Iterator, NamedTuple, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.codes import severity_of  # noqa: E402
from repro.analysis.diagnostics import (  # noqa: E402
    AnalysisReport,
    Diagnostic,
    SourceSpan,
)

#: Wall-clock reads: ``time`` functions, ``datetime`` class methods.
WALL_CLOCK_TIME_FUNCS = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
))
WALL_CLOCK_DATETIME_FUNCS = frozenset(("now", "utcnow", "today"))

#: Lock-ish constructors of the ``threading`` module FP309 covers.
THREADING_LOCK_FACTORIES = frozenset(
    ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore")
)

#: Modules (repro-relative) whose classes are on the serve path.
#: ``core/description.py`` is deliberately absent: the description is
#: owned by ``CacheManager`` and mutated only under ``proxy.cache``.
SERVE_PATH_MODULES = frozenset((
    "admission/controller.py", "core/cache.py", "core/proxy.py",
    "core/stats.py", "network/clock.py", "sched/frontend.py",
    "sched/loop.py", "obs/decisions.py", "obs/events.py", "obs/health.py",
    "obs/instrument.py", "obs/spans.py", "obs/timeseries.py",
    "persistence/journal.py", "persistence/persister.py",
    "templates/manager.py",
))

#: Opts a module's classes into FP401 from its first five lines.
SERVE_PATH_PRAGMA = "concurrency: serve-path"

#: Methods that mutate a builtin container in place: a write to the
#: attribute they are called on, unless its type is a project class.
MUTATING_METHODS = frozenset((
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
    "update",
))

#: What makes a module-level binding mutable state.
_MUTABLE_FACTORIES = frozenset((
    "Counter", "OrderedDict", "bytearray", "defaultdict", "deque", "dict",
    "list", "set",
))
_MUTABLE_DISPLAYS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
)

_REGISTERED = re.compile(r"guarded-by:\s*[\w.]+|\bread-only\b|\bunshared\b")
_LOCK_CLASS_RE = re.compile(r"lock-class:\s*(\w+)")
_REGISTER_HINT = (
    'register it: @guarded_by("<lock>", ...) when a named lock protects '
    "it, @unshared for per-query/per-thread state, @read_only when it is "
    "set once during construction (comment forms: # guarded-by: <lock>, "
    "# unshared, # read-only)"
)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _span(
    text: str, source: str, line: int, col: int, end_line: int, end_col: int
) -> SourceSpan:
    lines = text.split("\n")
    start = sum(len(each) + 1 for each in lines[: line - 1]) + col
    end = sum(len(each) + 1 for each in lines[: end_line - 1]) + end_col
    snippet = text[start:end]
    snippet = snippet if len(snippet) <= 80 else snippet[:77] + "..."
    return SourceSpan(source, start, max(start, end), line, col + 1, snippet)


class Module:
    """One parsed Python file: imports, comments, and where it sits."""

    def __init__(self, path: pathlib.Path, text: str) -> None:
        self.path, self.text = path, text
        self.tree = ast.parse(text, filename=str(path))
        parts = path.as_posix().split("/")
        below = parts[::-1].index("repro") if "repro" in parts else 0
        #: Path segments below the (innermost) ``repro`` package.
        self.repro_parts = tuple(parts[len(parts) - below:])
        self.rel = "/".join(self.repro_parts) or path.name
        self.in_tests = any(p in ("tests", "conftest.py") for p in path.parts)
        self.serve_path = self.rel in SERVE_PATH_MODULES or (
            SERVE_PATH_PRAGMA in "\n".join(text.split("\n")[:5])
        )
        # "import time as t": t -> "time";  "from time import time as
        # now": now -> ("time", "time")
        self.module_aliases: dict[str, str] = {}
        self.imported_names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(self.tree):
            for alias in getattr(node, "names", ()):
                if isinstance(node, ast.Import):
                    key = alias.asname or alias.name.split(".")[0]
                    self.module_aliases[key] = alias.name
                elif isinstance(node, ast.ImportFrom):
                    self.imported_names[alias.asname or alias.name] = (
                        node.module or "", alias.name
                    )
        self.comments: dict[int, str] = {}
        self.code_lines: set[int] = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                self.comments[token.start[0]] = token.string
            elif token.type not in _NOT_CODE:
                self.code_lines.update(range(token.start[0], token.end[0] + 1))

    def qualified(self, func: ast.expr) -> tuple[str, str] | None:
        """``(module, name)`` a called name or ``alias.name`` denotes."""
        if isinstance(func, ast.Name):
            return self.imported_names.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module = self.module_aliases.get(func.value.id)
            return None if module is None else (module, func.attr)
        return None

    def comment_for(self, line: int) -> str:
        """The trailing comment of ``line``, or a comment-only line
        right above it."""
        comment = self.comments.get(line, "")
        if not comment and line - 1 not in self.code_lines:
            comment = self.comments.get(line - 1, "")
        return comment

    def is_named_lock(self, node: ast.expr | None) -> bool:
        """Whether ``node`` is ``named_lock("<role literal>")``."""
        if not (
            isinstance(node, ast.Call) and node.args
            and isinstance(getattr(node.args[0], "value", None), str)
        ):
            return False
        name = self.qualified(node.func)  # also "import repro.locking as l"
        if isinstance(node.func, ast.Attribute) and self.qualified(
            node.func.value  # from repro import locking
        ) == ("repro", "locking"):
            name = ("repro.locking", node.func.attr)
        return name == ("repro.locking", "named_lock") or (
            ast.unparse(node.func) == "repro.locking.named_lock"
        )

    def diagnostic(
        self, code: str, message: str, node: ast.stmt | ast.expr,
        hint: str = "",
    ) -> Diagnostic:
        source, line, col = self.path.as_posix(), node.lineno, node.col_offset
        end = (node.end_lineno or line, node.end_col_offset or col)
        span = _span(self.text, source, line, col, *end)
        return Diagnostic(code, severity_of(code), message, source, span, hint)

    def calls(self) -> Iterator[ast.Call]:
        return (n for n in ast.walk(self.tree) if isinstance(n, ast.Call))


# ------------------------------------------------------------------- FP301
def _is_wall_clock_call(module: Module, func: ast.expr) -> bool:
    qualified = module.qualified(func)
    if qualified is not None and qualified[0] == "time":
        return qualified[1] in WALL_CLOCK_TIME_FUNCS
    if getattr(func, "attr", None) not in WALL_CLOCK_DATETIME_FUNCS:
        return False
    if isinstance(func.value, ast.Name):  # from datetime import datetime
        owner = module.imported_names.get(func.value.id)
    else:  # import datetime; datetime.datetime.now()
        owner = module.qualified(func.value)
    return owner is not None and owner[0] == "datetime"


def wall_clock_rule(module: Module) -> Iterator[Diagnostic]:
    """FP301: wall-clock reads outside network/clock.py and obs/."""
    parts = module.repro_parts
    if parts[:1] == ("obs",) or parts == ("network", "clock.py"):
        return
    for call in module.calls():
        if _is_wall_clock_call(module, call.func):
            yield module.diagnostic(
                "FP301",
                "wall-clock call; experiment code must use the simulated "
                "clock (repro.network.clock) or repro.obs.wallclock",
                call,
                hint="import Stopwatch from repro.obs.wallclock for "
                "real-time measurement",
            )


# ------------------------------------------------------------------- FP305
def unseeded_random_rule(module: Module) -> Iterator[Diagnostic]:
    """FP305: unseeded / module-level randomness outside tests."""
    if module.in_tests:
        return
    for call in module.calls():
        origin, name = module.qualified(call.func) or ("", "")
        if origin != "random":
            continue
        if name not in ("Random", "SystemRandom"):
            problem = f"call to random.{name} draws from the global state"
        elif not (call.args or call.keywords):
            problem = f"random.{name}() without a seed; replays diverge"
        else:
            continue
        yield module.diagnostic(
            "FP305", problem, call,
            hint="construct random.Random(seed) with an explicit seed and "
            "pass the instance around",
        )


# ------------------------------------------------------------------- FP307
def non_atomic_write_rule(module: Module) -> Iterator[Diagnostic]:
    """FP307: whole-file writes outside persistence/ must be atomic."""
    if module.in_tests or module.repro_parts[:1] == ("persistence",):
        return
    for call in module.calls():
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = call.args[1] if len(call.args) >= 2 else None
            for keyword in call.keywords:
                mode = keyword.value if keyword.arg == "mode" else mode
            value = mode.value if isinstance(mode, ast.Constant) else None
            # "w"/"x" truncate or create whole files; "a" and "r+" do not.
            if not (isinstance(value, str) and value.startswith(("w", "x"))):
                continue
            problem = f'open(..., "{value}") truncates in place'
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text", "write_bytes"
        ):
            problem = f"{func.attr}() replaces the file non-atomically"
        else:
            continue
        yield module.diagnostic(
            "FP307", problem + "; a crash mid-write leaves a torn file", call,
            hint="use repro.persistence.atomic.atomic_write_text / "
            "atomic_write_bytes (temp file + os.replace)",
        )


# ------------------------------------------------------------------- FP309
def raw_lock_rule(module: Module) -> Iterator[Diagnostic]:
    """FP309: raw threading lock constructions outside repro/locking.py."""
    if module.in_tests or module.repro_parts == ("locking.py",):
        return
    for call in module.calls():
        origin, name = module.qualified(call.func) or ("", "")
        if origin == "threading" and name in THREADING_LOCK_FACTORIES:
            yield module.diagnostic(
                "FP309",
                f"threading.{name}() constructs an anonymous lock the "
                "lock-order sanitizer cannot see",
                call,
                hint='construct locks via repro.locking.named_lock("<role>")',
            )


RULES: tuple[Callable[[Module], Iterator[Diagnostic]], ...] = (
    wall_clock_rule,
    unseeded_random_rule,
    non_atomic_write_rule,
    raw_lock_rule,
)


# ------------------------------------------------------------------- FP401
def _type_name(node: ast.expr | None) -> str | None:
    """The bare class name an annotation or a constructor names."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = re.split(r"[\[|]", node.value.strip())[0]
        return text.strip().strip('"').rsplit(".", 1)[-1] or None
    if isinstance(node, ast.Subscript):
        return _type_name(node.value)
    if isinstance(node, ast.BinOp):  # X | None
        return _type_name(node.left)
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _constructed_type(value: ast.expr | None) -> str | None:
    """The class name if ``value`` is (or falls back to) a call."""
    if isinstance(value, ast.BoolOp):
        names = map(_constructed_type, reversed(value.values))
        return next((name for name in names if name is not None), None)
    if isinstance(value, ast.IfExp):
        return _constructed_type(value.body) or _constructed_type(
            value.orelse
        )
    return _type_name(value.func) if isinstance(value, ast.Call) else None


def _targets(stmt: ast.Assign | ast.AnnAssign) -> list[ast.expr]:
    return stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]


class ClassInfo:
    """A class's registrations, lock attributes, attribute types and
    methods (a module's top-level functions form a pseudo-class)."""

    def __init__(
        self, module: Module, node: ast.ClassDef | None = None
    ) -> None:
        self.module = module
        self.name = node.name if node else f"<{module.rel}>"
        self.bases: list[str] = []
        self.registered: set[str] = set()
        self.lock_attrs: set[str] = set()
        self.attr_types: dict[str, str] = {}
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        if node is None:
            return
        self.bases = [b for b in map(_type_name, node.bases) if b]
        # guarded_by("<lock>", *attrs), unshared(*attrs), read_only(*attrs)
        for decorator in node.decorator_list:
            kind = _type_name(getattr(decorator, "func", None))
            args = [
                arg.value for arg in getattr(decorator, "args", ())
                if isinstance(getattr(arg, "value", None), str)
            ]
            if kind in ("guarded_by", "unshared", "read_only"):
                self.registered.update(args[kind == "guarded_by":])
        for stmt in node.body:
            if isinstance(stmt, _FUNCTIONS):
                self.methods.setdefault(stmt.name, stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in _targets(stmt):
                    if isinstance(target, ast.Name):
                        self._note(target.id, stmt)
        for method in self.methods.values():
            for stmt in ast.walk(method):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    for target in _targets(stmt):
                        if isinstance(target, ast.Attribute) and getattr(
                            target.value, "id", None
                        ) == "self":
                            self._note(target.attr, stmt)

    def _note(self, attr: str, stmt: ast.Assign | ast.AnnAssign) -> None:
        comment = self.module.comment_for(stmt.lineno)
        if _REGISTERED.search(comment):
            self.registered.add(attr)
        if self.module.is_named_lock(stmt.value):
            self.lock_attrs.add(attr)
            return
        lock_class = _LOCK_CLASS_RE.search(comment)
        type_name = (
            (lock_class.group(1) if lock_class else None)
            or _type_name(getattr(stmt, "annotation", None))
            or _constructed_type(stmt.value)
        )
        if type_name is not None:
            self.attr_types.setdefault(attr, type_name)


class Ref(NamedTuple):
    """What an expression denotes: an instance of ``cls``, attribute
    ``attr`` of a ``cls`` instance, or a named lock."""

    kind: str  # "object" | "attr" | "lock"
    cls: str = ""
    attr: str = ""
    fresh: bool = False  # constructed inside the current function


class Project:
    """The class table of every linted module."""

    def __init__(self, modules: list[Module]) -> None:
        self.module_classes = [  # within a module the last definition wins
            list({
                node.name: ClassInfo(module, node)
                for node in module.tree.body
                if isinstance(node, ast.ClassDef)
            }.values())
            for module in modules
        ]
        infos = [info for infos in self.module_classes for info in infos]
        defined = collections.Counter(info.name for info in infos)
        self.classes = {  # a name defined in two modules resolves to nothing
            info.name: info for info in infos if defined[info.name] == 1
        }

    def resolve(self, name: str | None) -> ClassInfo | None:
        return self.classes.get(name) if name is not None else None

    def lookup(
        self, info: ClassInfo, table: str, attr: str
    ) -> ClassInfo | None:
        """The first class of ``info``'s bases chain (breadth first)
        whose ``table`` holds ``attr``."""
        queue, seen = [info], set()
        while queue:
            current = queue.pop(0)
            if current.name not in seen:
                seen.add(current.name)
                if attr in getattr(current, table):
                    return current
                queue.extend(filter(None, map(self.resolve, current.bases)))
        return None

    def attr_class(self, owner: str, attr: str) -> ClassInfo | None:
        """The project class an attribute of class ``owner`` holds."""
        info = self.resolve(owner)
        found = info and self.lookup(info, "attr_types", attr)
        return self.resolve(found.attr_types[attr]) if found else None


class _Walker:
    """Collects the attribute writes of one function body, visiting
    statements in source order and binding locals as it goes."""

    def __init__(
        self, project: Project, info: ClassInfo,
        function: ast.FunctionDef | ast.AsyncFunctionDef, writes: list,
    ) -> None:
        self.project, self.info, self.writes = project, info, writes
        self.in_init = function.name == "__init__"
        args = function.args
        self.locals = {
            arg.arg: Ref("object", name)
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            if (name := _type_name(arg.annotation)) is not None
        }
        for stmt in function.body:
            self.visit(stmt)

    def resolve(self, expr: ast.expr) -> Ref | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return Ref("object", self.info.name)
            return self.locals.get(expr.id)
        if self.info.module.is_named_lock(expr):
            return Ref("lock")
        base = self.resolve(expr.value) if isinstance(
            expr, ast.Attribute
        ) else None
        holder = self.holder(base)
        if holder is None:
            return None
        if self.project.lookup(holder, "lock_attrs", expr.attr):
            return Ref("lock")
        return Ref("attr", holder.name, expr.attr, base.fresh)

    def holder(self, base: Ref | None) -> ClassInfo | None:
        """The project class whose attribute ``base.<name>`` is."""
        if base is None or base.kind == "lock":
            return None
        if base.kind == "object":
            return self.project.resolve(base.cls)
        return self.project.attr_class(base.cls, base.attr)

    def write(self, ref: Ref, node: ast.stmt | ast.expr) -> None:
        if not ref.fresh:  # freshly constructed: not shared yet
            self.writes.append((self.info.module, node, ref, self.in_init))

    def target(self, target: ast.expr, value: ast.expr | None) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.target(element, None)
        elif isinstance(target, ast.Starred):
            self.target(target.value, None)
        elif isinstance(target, ast.Name):
            self.bind(target.id, value)
        elif isinstance(target, ast.Subscript):
            ref = self.resolve(target.value)
            if ref is not None and ref.kind == "attr":
                self.write(ref, target)
        elif isinstance(target, ast.Attribute):
            base = self.resolve(target.value)
            holder = self.holder(base)
            if holder is not None:
                ref = Ref("attr", holder.name, target.attr, base.fresh)
                self.write(ref, target)
            elif base is not None and base.kind == "attr":
                self.write(base, target)  # x.a.b = ... with a untyped

    def bind(self, name: str, value: ast.expr | None) -> None:
        self.locals.pop(name, None)
        ref = None
        if self.info.module.is_named_lock(value):
            ref = Ref("lock")
        elif isinstance(value, ast.Call):
            type_name = _type_name(value.func)
            if type_name and self.project.resolve(type_name):
                ref = Ref("object", type_name, fresh=True)
        elif isinstance(value, (ast.Name, ast.Attribute)):
            ref = self.resolve(value)
        if ref is not None:
            self.locals[name] = ref

    def call(self, call: ast.Call) -> None:
        """A container mutation (or ``next``) on an attribute."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "next" and call.args:
            ref = self.resolve(call.args[0])
        elif isinstance(func, ast.Attribute):
            ref = self.resolve(func.value)
            held = ref and ref.kind == "attr" and self.project.attr_class(
                ref.cls, ref.attr
            )
            if held and self.project.lookup(held, "methods", func.attr):
                return  # a method of a project class, not a mutation
            if func.attr not in MUTATING_METHODS:
                return
        else:
            return
        if ref is not None and ref.kind == "attr":
            self.write(ref, call)

    def visit(self, node: ast.AST) -> None:
        children: list[ast.AST] = []
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            augmented = isinstance(node, ast.AugAssign)
            for target in [node.target] if augmented else _targets(node):
                self.target(target, None if augmented else node.value)
            children = [node.value] if node.value is not None else []
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self.target(target, None)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.visit(node.iter)
            if isinstance(node.target, ast.Name):
                self.locals.pop(node.target.id, None)
            children = [*node.body, *node.orelse]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.visit(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    name = item.optional_vars.id
                    ref = self.resolve(item.context_expr)
                    self.locals.pop(name, None)
                    if ref is not None and ref.kind == "lock":
                        self.locals[name] = ref
            children = list(node.body)
        elif isinstance(node, _FUNCTIONS):  # a nested def: its body
            children = list(node.body)
        elif not isinstance(node, ast.ClassDef):
            if isinstance(node, ast.Call):
                self.call(node)
            children = list(ast.iter_child_nodes(node))
        for child in children:
            self.visit(child)


def _module_state(module: Module) -> Iterator[Diagnostic]:
    """Module-level mutables (or ``global``-rebound names) without a
    registration comment; ALL_CAPS constants and dunders are exempt."""
    rebound = {name for node in ast.walk(module.tree)
               if isinstance(node, ast.Global) for name in node.names}
    seen: set[str] = set()
    for stmt in module.tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        value = stmt.value
        mutable = isinstance(value, _MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call)
            and _type_name(value.func) in _MUTABLE_FACTORIES
        )
        for target in _targets(stmt):
            name = getattr(target, "id", "")
            bare = name.strip("_")
            constant = bare.isupper() or name[:2] == name[-2:] == "__"
            if not name or name in seen or constant or not (
                mutable or name in rebound
            ):
                continue
            seen.add(name)
            if not _REGISTERED.search(module.comment_for(stmt.lineno)):
                yield module.diagnostic(
                    "FP401",
                    f"module-level mutable '{name}' has no concurrency "
                    "registration",
                    stmt,
                    hint=_REGISTER_HINT,
                )


def shared_state_inventory(modules: list[Module]) -> list[Diagnostic]:
    """FP401 over every module but ``repro/locking.py`` (its own mutex
    cannot be a named lock)."""
    modules = [module for module in modules if module.rel != "locking.py"]
    project = Project(modules)
    diagnostics: list[Diagnostic] = []
    writes: list[tuple[Module, ast.stmt | ast.expr, Ref, bool]] = []
    for module, infos in zip(modules, project.module_classes):
        diagnostics.extend(_module_state(module))
        for info in infos:
            if info.name in project.classes:
                for method in info.methods.values():
                    _Walker(project, info, method, writes)
        pseudo = ClassInfo(module)  # writes through typed parameters
        for node in module.tree.body:
            if isinstance(node, _FUNCTIONS):
                _Walker(project, pseudo, node, writes)
    flagged: set[tuple[str, str]] = set()
    writes.sort(key=lambda w: (str(w[0].path), w[1].lineno, w[1].col_offset))
    for module, node, ref, in_init in writes:
        owner = project.resolve(ref.cls)
        if (
            owner is None
            or in_init  # construction is single-threaded
            or not (owner.module.serve_path or owner.registered
                    or owner.lock_attrs)
            or project.lookup(owner, "registered", ref.attr)
            or project.lookup(owner, "lock_attrs", ref.attr)
            or (ref.cls, ref.attr) in flagged
        ):
            continue
        flagged.add((ref.cls, ref.attr))
        diagnostics.append(
            module.diagnostic(
                "FP401",
                f"'{ref.cls}.{ref.attr}' is written outside __init__ but "
                "has no concurrency registration",
                node,
                hint=_REGISTER_HINT,
            )
        )
    return sorted(
        diagnostics,
        key=lambda d: (d.subject, d.span.line, d.span.column, d.code),
    )


# ------------------------------------------------------------------ driver
def _check(path: pathlib.Path, report: AnalysisReport) -> Module | None:
    """Parse ``path`` and run the per-file rules into ``report`` (an
    FP304 when it does not parse)."""
    text = path.read_text(encoding="utf-8")
    try:
        module = Module(path, text)
    except SyntaxError as exc:
        line, column = max(1, exc.lineno or 1), max(1, exc.offset or 1)
        span = _span(text, path.as_posix(), line, column - 1, line, column)
        message = f"cannot parse {path}: {exc.msg}"
        report.add(Diagnostic(
            "FP304", severity_of("FP304"), message, span.source, span
        ))
        return None
    for rule in RULES:
        report.diagnostics.extend(rule(module))
    return module


def lint_file(path: pathlib.Path) -> AnalysisReport:
    """The per-file rules (FP301-FP309) over one Python file."""
    report = AnalysisReport()
    _check(path, report)
    return report


def run_lint(paths: Sequence[str | pathlib.Path]) -> AnalysisReport:
    """Every rule over files and directories (recursing into ``*.py``),
    FP401 across all of them."""
    files: dict[pathlib.Path, pathlib.Path] = {}
    for path in map(pathlib.Path, paths):
        for child in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            files.setdefault(child.resolve(), child)
    report = AnalysisReport()
    modules = [m for m in (_check(p, report) for p in files.values()) if m]
    report.diagnostics.extend(shared_state_inventory(modules))
    return report


def main(argv: list[str]) -> int:
    """``[--json] [paths...]``; exit status 1 on any error."""
    paths = [arg for arg in argv if arg != "--json"] or [
        REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"
    ]
    report = run_lint(paths)
    if "--json" in argv:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.has_errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
