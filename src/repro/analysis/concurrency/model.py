"""The source model the concurrency checks run against.

Two passes over every analyzed file:

* **Pass 1** (:func:`build_project`) parses each module and extracts
  the *declarations*: classes with their concurrency registrations
  (decorators and comment conventions), lock attributes
  (``self._lock = named_lock("role")``), attribute types (constructor
  calls, annotations, ``# lock-class:`` comments), module-level
  mutable state, and every ``named_lock("...")`` role constructed
  anywhere (the lock-name universe for ``FP405``).

* **Pass 2** (:func:`summarize_methods`) walks every method body with
  a held-lock context and produces flat :class:`WriteSite` /
  :class:`CallSite` / :class:`AcquireSite` records — the only thing
  the checker and the lock-order graph ever look at.  The walker
  tracks local aliases (``c = self.cache`` and then ``c.store(...)``
  still resolves to the cache), resolves receiver chains up to two
  attributes deep through the project-wide class table, recognizes
  ``with`` blocks and the ``acquire()`` / ``try/finally release()``
  idiom as lock scopes, and treats objects freshly constructed in the
  current method as unshared.

Everything here is resolution by *bare class name*: a name bound to
two different classes across the tree becomes ambiguous and resolves
to nothing (the pass under-approximates rather than guesses).
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field

#: Methods that mutate a builtin container in place.  A call like
#: ``self._entries.pop(...)`` on an attribute whose type does *not*
#: resolve to a project class counts as a write to that attribute; on
#: a resolvable project class it is a method call analyzed in the
#: callee instead.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Constructor calls whose result is mutable module-level state.
_MUTABLE_FACTORIES = frozenset(
    {
        "Counter",
        "OrderedDict",
        "bytearray",
        "defaultdict",
        "deque",
        "dict",
        "list",
        "set",
    }
)

#: Modules (repro-relative) whose classes are on the serve path: every
#: instance attribute they write after ``__init__`` must be registered
#: (FP401).  Classes elsewhere opt in by carrying any registration or
#: a named lock.  ``core/description.py`` is deliberately absent: the
#: cache description is owned by ``CacheManager`` and mutated only
#: under ``proxy.cache`` — an ownership convention, documented in
#: DESIGN.md, rather than a per-attribute registration.
SERVE_PATH_MODULES = frozenset(
    {
        "admission/controller.py",
        "core/cache.py",
        "core/proxy.py",
        "core/stats.py",
        "network/clock.py",
        "sched/frontend.py",
        "sched/loop.py",
        "obs/decisions.py",
        "obs/events.py",
        "obs/health.py",
        "obs/instrument.py",
        "obs/spans.py",
        "obs/timeseries.py",
        "persistence/journal.py",
        "persistence/persister.py",
        "templates/manager.py",
    }
)

#: A module outside the pinned set (fixtures, future code) can opt its
#: classes into the FP401 inventory with this comment near the top.
SERVE_PATH_PRAGMA = "concurrency: serve-path"

#: Files never analyzed: the lock infrastructure itself (its internal
#: mutex cannot be a NamedLock without infinite regress).
EXEMPT_RELATIVE = frozenset({"locking.py"})

#: Registration kinds — mirrors :mod:`repro.locking`.
GUARDED = "guarded"
UNSHARED = "unshared"
READ_ONLY = "read-only"

_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([\w.]+)")
_LOCK_CLASS_RE = re.compile(r"lock-class:\s*(\w+)")
_UNSHARED_RE = re.compile(r"\bunshared\b")
_READ_ONLY_RE = re.compile(r"\bread-only\b")


# --------------------------------------------------------------------------
# declarations (pass 1)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Registration:
    """One attribute's declared concurrency discipline."""

    kind: str  # GUARDED | UNSHARED | READ_ONLY
    lock: str | None  # the named-lock role, for GUARDED
    line: int  # where the registration appears


@dataclass
class ClassModel:
    """One class declaration: registrations, locks, attribute types."""

    name: str
    module: "ModuleModel"
    #: the defining ClassDef, or the Module node for the pseudo-class
    #: that holds a module's top-level functions
    node: ast.AST
    bases: tuple[str, ...] = ()
    registrations: dict[str, Registration] = field(default_factory=dict)
    lock_attrs: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )

    @property
    def in_scope(self) -> bool:
        """Whether FP401 inventories this class's attribute writes."""
        return bool(
            self.module.serve_path or self.registrations or self.lock_attrs
        )


@dataclass
class ModuleState:
    """One module-level mutable binding and its waiver, if any."""

    name: str
    node: ast.stmt
    waiver: Registration | None


@dataclass
class ModuleModel:
    """One parsed source file plus its extracted declarations."""

    path: pathlib.Path
    rel: str  # repro-relative posix path, or the file name
    text: str
    tree: ast.Module
    serve_path: bool = False
    classes: dict[str, ClassModel] = field(default_factory=dict)
    module_state: list[ModuleState] = field(default_factory=list)
    named_locks: set[str] = field(default_factory=set)
    comments: dict[int, str] = field(default_factory=dict)
    code_lines: set[int] = field(default_factory=set)
    #: local names bound to repro.locking.named_lock
    lock_ctor_names: set[str] = field(default_factory=set)
    #: local names bound to the repro.locking module itself
    lock_module_names: set[str] = field(default_factory=set)
    _line_offsets: list[int] = field(default_factory=list)

    def span_args(self, node: ast.AST) -> tuple[int, int, int, int, str]:
        """(start, end, line, column, snippet) for an AST node."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end_lineno = getattr(node, "end_lineno", None) or lineno
        end_col = getattr(node, "end_col_offset", None)
        start = self._offset(lineno, col)
        if end_col is None:
            end = start + 1
        else:
            end = self._offset(end_lineno, end_col)
        snippet = self.text[start:end]
        if len(snippet) > 80:
            snippet = snippet[:77] + "..."
        return start, end, lineno, col + 1, snippet

    def _offset(self, line: int, column: int) -> int:
        index = min(max(line, 1), len(self._line_offsets)) - 1
        return min(self._line_offsets[index] + column, len(self.text))

    def comment_for(self, line: int) -> str:
        """The annotation comment governing a statement at ``line``.

        Either the trailing comment on the line itself, or a
        comment-only line immediately above it.
        """
        trailing = self.comments.get(line, "")
        if trailing:
            return trailing
        above = self.comments.get(line - 1, "")
        if above and (line - 1) not in self.code_lines:
            return above
        return ""

    def is_named_lock_call(self, node: ast.expr) -> str | None:
        """The role name if ``node`` is ``named_lock("<role>")``."""
        if not isinstance(node, ast.Call) or not node.args:
            return None
        func = node.func
        named = False
        if isinstance(func, ast.Name):
            named = func.id in self.lock_ctor_names
        elif isinstance(func, ast.Attribute) and func.attr == "named_lock":
            base = func.value
            if isinstance(base, ast.Name):
                named = base.id in self.lock_module_names
            elif isinstance(base, ast.Attribute):  # repro.locking.named_lock
                named = (
                    base.attr == "locking"
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "repro"
                )
        if not named:
            return None
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None


def _repro_relative(path: pathlib.Path) -> str:
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return path.name


def _collect_comments(
    text: str,
) -> tuple[dict[int, str], set[int]]:
    """Per-line comments and the set of lines carrying real code."""
    comments: dict[int, str] = {}
    code_lines: set[int] = set()
    skip = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return comments, code_lines
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comments[token.start[0]] = token.string.lstrip("# ").rstrip()
        elif token.type not in skip:
            for line in range(token.start[0], token.end[0] + 1):
                code_lines.add(line)
    return comments, code_lines


def _registration_from_comment(
    comment: str, line: int
) -> Registration | None:
    match = _GUARDED_BY_RE.search(comment)
    if match:
        return Registration(GUARDED, match.group(1), line)
    if _READ_ONLY_RE.search(comment):
        return Registration(READ_ONLY, None, line)
    if _UNSHARED_RE.search(comment):
        return Registration(UNSHARED, None, line)
    return None


def _type_name(annotation: ast.expr | None) -> str | None:
    """The bare base name of a type annotation, if it has one."""
    node = annotation
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        for stop in "[|":
            index = text.find(stop)
            if index >= 0:
                text = text[:index]
        text = text.strip().strip('"')
        return text.rsplit(".", 1)[-1] or None
    if isinstance(node, ast.Subscript):
        return _type_name(node.value)
    if isinstance(node, ast.BinOp):  # X | None
        return _type_name(node.left)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _constructed_type(value: ast.expr) -> str | None:
    """The class name if ``value`` is (or falls back to) a call."""
    if isinstance(value, ast.BoolOp):
        for candidate in reversed(value.values):
            name = _constructed_type(candidate)
            if name is not None:
                return name
        return None
    if isinstance(value, ast.IfExp):
        return _constructed_type(value.body) or _constructed_type(
            value.orelse
        )
    if isinstance(value, ast.Call):
        return _type_name(value.func)
    return None


def _decorator_registrations(node: ast.ClassDef) -> dict[str, Registration]:
    registrations: dict[str, Registration] = {}
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        args = [
            arg.value
            for arg in decorator.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ]
        if name == "guarded_by" and len(args) >= 2:
            for attr in args[1:]:
                registrations[attr] = Registration(
                    GUARDED, args[0], decorator.lineno
                )
        elif name == "unshared":
            for attr in args:
                registrations[attr] = Registration(
                    UNSHARED, None, decorator.lineno
                )
        elif name == "read_only":
            for attr in args:
                registrations[attr] = Registration(
                    READ_ONLY, None, decorator.lineno
                )
    return registrations


def _self_attr(target: ast.expr) -> str | None:
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _extract_class(module: ModuleModel, node: ast.ClassDef) -> ClassModel:
    klass = ClassModel(
        name=node.name,
        module=module,
        node=node,
        bases=tuple(
            name
            for name in (_type_name(base) for base in node.bases)
            if name is not None
        ),
        registrations=_decorator_registrations(node),
    )

    def note_assignment(
        attr: str, value: ast.expr | None, annotation: ast.expr | None,
        line: int,
    ) -> None:
        comment = module.comment_for(line)
        lock_class = _LOCK_CLASS_RE.search(comment)
        registration = _registration_from_comment(comment, line)
        if registration is not None:
            klass.registrations.setdefault(attr, registration)
        if value is not None:
            lock_name = module.is_named_lock_call(value)
            if lock_name is not None:
                klass.lock_attrs[attr] = lock_name
                return
        type_name = None
        if lock_class:
            type_name = lock_class.group(1)
        if type_name is None and annotation is not None:
            type_name = _type_name(annotation)
        if type_name is None and value is not None:
            type_name = _constructed_type(value)
        if type_name is not None:
            klass.attr_types.setdefault(attr, type_name)

    # Class body: dataclass fields, class attributes, methods.
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            note_assignment(
                stmt.target.id, stmt.value, stmt.annotation, stmt.lineno
            )
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    note_assignment(
                        target.id, stmt.value, None, stmt.lineno
                    )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            klass.methods.setdefault(stmt.name, stmt)

    # __init__ (and other methods): self-attribute declarations.  Only
    # top-of-method-body statements declare types/locks; conditional
    # assignments still pick up registration comments.
    for method in klass.methods.values():
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.AnnAssign):
                attr = _self_attr(stmt.target)
                if attr is not None:
                    note_assignment(
                        attr, stmt.value, stmt.annotation, stmt.lineno
                    )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        note_assignment(
                            attr, stmt.value, None, stmt.lineno
                        )
    return klass


def _mutable_initializer(value: ast.expr | None) -> bool:
    if value is None:
        return False
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
         ast.DictComp),
    ):
        return True
    if isinstance(value, ast.Call):
        name = _type_name(value.func)
        return name in _MUTABLE_FACTORIES
    return False


def _exempt_module_name(name: str) -> bool:
    """ALL_CAPS constants and dunders skip the module-state check."""
    if name.startswith("__") and name.endswith("__"):
        return True
    stripped = name.strip("_")
    return bool(stripped) and stripped.isupper()


def _extract_module_state(module: ModuleModel) -> None:
    rebound: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            rebound.update(node.names)
    seen: set[str] = set()
    for stmt in module.tree.body:
        targets: list[ast.Name] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets = [
                t for t in stmt.targets if isinstance(t, ast.Name)
            ]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets = [stmt.target]
            value = stmt.value
        for target in targets:
            name = target.id
            if name in seen or _exempt_module_name(name):
                continue
            if not (_mutable_initializer(value) or name in rebound):
                continue
            seen.add(name)
            waiver = _registration_from_comment(
                module.comment_for(stmt.lineno), stmt.lineno
            )
            module.module_state.append(ModuleState(name, stmt, waiver))


def _extract_imports(module: ModuleModel) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro.locking":
                for alias in node.names:
                    if alias.name == "named_lock":
                        module.lock_ctor_names.add(
                            alias.asname or alias.name
                        )
            elif node.module == "repro":
                for alias in node.names:
                    if alias.name == "locking":
                        module.lock_module_names.add(
                            alias.asname or alias.name
                        )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.locking" and alias.asname:
                    module.lock_module_names.add(alias.asname)


def parse_module(path: pathlib.Path, text: str) -> ModuleModel:
    """Pass 1 for one file; raises ``SyntaxError`` on unparseable."""
    tree = ast.parse(text, filename=str(path))
    comments, code_lines = _collect_comments(text)
    module = ModuleModel(
        path=path,
        rel=_repro_relative(path),
        text=text,
        tree=tree,
        comments=comments,
        code_lines=code_lines,
    )
    offsets = [0]
    for line in text.split("\n")[:-1]:
        offsets.append(offsets[-1] + len(line) + 1)
    module._line_offsets = offsets
    module.serve_path = module.rel in SERVE_PATH_MODULES or any(
        SERVE_PATH_PRAGMA in comment
        for line, comment in comments.items()
        if line <= 5
    )
    _extract_imports(module)
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            module.classes[node.name] = _extract_class(module, node)
    _extract_module_state(module)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            lock_name = module.is_named_lock_call(node)
            if lock_name is not None:
                module.named_locks.add(lock_name)
    return module


@dataclass
class Project:
    """Every analyzed module plus the project-wide resolution tables."""

    modules: list[ModuleModel] = field(default_factory=list)
    classes: dict[str, ClassModel] = field(default_factory=dict)
    ambiguous: set[str] = field(default_factory=set)
    lock_names: set[str] = field(default_factory=set)
    unparsed: list[tuple[pathlib.Path, SyntaxError]] = field(
        default_factory=list
    )

    def resolve_class(self, name: str | None) -> ClassModel | None:
        if name is None or name in self.ambiguous:
            return None
        return self.classes.get(name)

    def find_method(
        self, klass: ClassModel, method: str
    ) -> tuple[ClassModel, ast.FunctionDef | ast.AsyncFunctionDef] | None:
        """Resolve a method through the (bare-name) base-class chain."""
        queue = [klass]
        visited: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current.name in visited:
                continue
            visited.add(current.name)
            node = current.methods.get(method)
            if node is not None:
                return current, node
            for base in current.bases:
                parent = self.resolve_class(base)
                if parent is not None:
                    queue.append(parent)
        return None

    def lock_attr_of(self, klass: ClassModel, attr: str) -> str | None:
        """A class's named-lock attribute, searching base classes."""
        queue = [klass]
        visited: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current.name in visited:
                continue
            visited.add(current.name)
            if attr in current.lock_attrs:
                return current.lock_attrs[attr]
            for base in current.bases:
                parent = self.resolve_class(base)
                if parent is not None:
                    queue.append(parent)
        return None

    def attr_type_of(self, klass: ClassModel, attr: str) -> str | None:
        queue = [klass]
        visited: set[str] = set()
        while queue:
            current = queue.pop(0)
            if current.name in visited:
                continue
            visited.add(current.name)
            if attr in current.attr_types:
                return current.attr_types[attr]
            for base in current.bases:
                parent = self.resolve_class(base)
                if parent is not None:
                    queue.append(parent)
        return None

def collect_files(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    unique: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for candidate in files:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(candidate)
    return unique


def build_project(paths: list[pathlib.Path]) -> Project:
    """Pass 1 over every file under ``paths``."""
    project = Project()
    for path in collect_files(paths):
        if _repro_relative(path) in EXEMPT_RELATIVE:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        try:
            module = parse_module(path, text)
        except SyntaxError as exc:
            project.unparsed.append((path, exc))
            continue
        project.modules.append(module)
        project.lock_names.update(module.named_locks)
        for name, klass in module.classes.items():
            if name in project.classes:
                project.ambiguous.add(name)
            else:
                project.classes[name] = klass
    for name in project.ambiguous:
        project.classes.pop(name, None)
    return project


# --------------------------------------------------------------------------
# method summaries (pass 2)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Resolved:
    """What a receiver expression denotes, if anything."""

    kind: str  # "object" | "attr" | "lock"
    class_name: str = ""  # object: its class;  attr: the owner class
    attr: str = ""
    lock: str = ""
    fresh: bool = False  # constructed inside the current method


@dataclass
class WriteSite:
    """One write to ``owner.attr`` with the lexically held locks."""

    owner: str
    attr: str
    held: tuple[str, ...]
    node: ast.AST
    summary: "MethodSummary"

    @property
    def in_init(self) -> bool:
        return self.summary.name == "__init__"


@dataclass
class CallSite:
    """One resolved method call (``target_class.target_method``)."""

    target_class: str
    target_method: str
    held: tuple[str, ...]
    node: ast.AST
    same_class: bool
    summary: "MethodSummary"


@dataclass
class AcquireSite:
    """One lexical lock acquisition (``with`` or try/finally idiom)."""

    lock: str
    held_before: tuple[str, ...]
    node: ast.AST
    summary: "MethodSummary"


@dataclass
class MethodSummary:
    """Everything the checks need to know about one method body."""

    klass: ClassModel
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    writes: list[WriteSite] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    acquires: list[AcquireSite] = field(default_factory=list)

    @property
    def is_private(self) -> bool:
        return self.name.startswith("_") and not self.name.startswith("__")

    @property
    def key(self) -> tuple[str, str]:
        return (self.klass.name, self.name)


class _MethodWalker:
    """Pass 2 for one method: writes, calls, acquisitions."""

    def __init__(self, project: Project, summary: MethodSummary) -> None:
        self.project = project
        self.summary = summary
        self.module = summary.klass.module
        self.locals: dict[str, _Resolved] = {}
        for arg in self._all_args(summary.node):
            type_name = _type_name(arg.annotation)
            if type_name is not None:
                self.locals[arg.arg] = _Resolved(
                    "object", class_name=type_name
                )

    @staticmethod
    def _all_args(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.arg]:
        args = node.args
        return (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )

    # ------------------------------------------------------- resolution
    def _resolve(self, expr: ast.expr) -> _Resolved | None:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return _Resolved(
                    "object", class_name=self.summary.klass.name
                )
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Call):
            lock_name = self.module.is_named_lock_call(expr)
            if lock_name is not None:
                return _Resolved("lock", lock=lock_name)
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        base = self._resolve(expr.value)
        if base is None:
            return None
        if base.kind == "object":
            klass = self.project.resolve_class(base.class_name)
            if klass is None:
                return None
            lock = self.project.lock_attr_of(klass, expr.attr)
            if lock is not None:
                return _Resolved("lock", lock=lock)
            return _Resolved(
                "attr",
                class_name=klass.name,
                attr=expr.attr,
                fresh=base.fresh,
            )
        if base.kind == "attr":
            owner = self.project.resolve_class(base.class_name)
            if owner is None:
                return None
            type_name = self.project.attr_type_of(owner, base.attr)
            middle = self.project.resolve_class(type_name)
            if middle is None:
                return None
            lock = self.project.lock_attr_of(middle, expr.attr)
            if lock is not None:
                return _Resolved("lock", lock=lock)
            return _Resolved(
                "attr",
                class_name=middle.name,
                attr=expr.attr,
                fresh=base.fresh,
            )
        return None

    def _lock_name(self, expr: ast.expr) -> str | None:
        resolved = self._resolve(expr)
        if resolved is not None and resolved.kind == "lock":
            return resolved.lock
        return None

    # ------------------------------------------------------- recording
    def _record_write(
        self, resolved: _Resolved, node: ast.AST, held: tuple[str, ...]
    ) -> None:
        if resolved.fresh:
            return  # freshly constructed: not shared yet
        self.summary.writes.append(
            WriteSite(
                owner=resolved.class_name,
                attr=resolved.attr,
                held=held,
                node=node,
                summary=self.summary,
            )
        )

    def _record_acquire(
        self, lock: str, held: tuple[str, ...], node: ast.AST
    ) -> None:
        self.summary.acquires.append(
            AcquireSite(
                lock=lock, held_before=held, node=node,
                summary=self.summary,
            )
        )

    def _write_target(
        self, target: ast.expr, held: tuple[str, ...], value: ast.expr | None
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, held, None)
            return
        if isinstance(target, ast.Starred):
            self._write_target(target.value, held, None)
            return
        if isinstance(target, ast.Name):
            self._bind_local(target.id, value)
            return
        if isinstance(target, ast.Subscript):
            resolved = self._resolve(target.value)
            if resolved is not None and resolved.kind == "attr":
                self._record_write(resolved, target, held)
            return
        if not isinstance(target, ast.Attribute):
            return
        base = self._resolve(target.value)
        if base is None:
            return
        if base.kind == "object":
            klass = self.project.resolve_class(base.class_name)
            if klass is not None and not base.fresh:
                self._record_write(
                    _Resolved(
                        "attr", class_name=klass.name, attr=target.attr
                    ),
                    target,
                    held,
                )
            return
        if base.kind == "attr":
            owner = self.project.resolve_class(base.class_name)
            type_name = (
                self.project.attr_type_of(owner, base.attr)
                if owner is not None
                else None
            )
            middle = self.project.resolve_class(type_name)
            if middle is not None:
                # x.a.b = ... with a typed: a write to the inner class.
                self._record_write(
                    _Resolved(
                        "attr",
                        class_name=middle.name,
                        attr=target.attr,
                        fresh=base.fresh,
                    ),
                    target,
                    held,
                )
            else:
                # x.a.b = ... with a untyped: mutates the object in a.
                self._record_write(base, target, held)

    def _bind_local(self, name: str, value: ast.expr | None) -> None:
        self.locals.pop(name, None)
        if value is None:
            return
        lock_name = self.module.is_named_lock_call(value)
        if lock_name is not None:
            self.locals[name] = _Resolved("lock", lock=lock_name)
            return
        if isinstance(value, ast.Call):
            type_name = _type_name(value.func)
            if self.project.resolve_class(type_name) is not None:
                assert type_name is not None
                self.locals[name] = _Resolved(
                    "object", class_name=type_name, fresh=True
                )
            return
        if isinstance(value, (ast.Name, ast.Attribute)):
            resolved = self._resolve(value)
            if resolved is not None:
                if resolved.kind == "attr":
                    # Keep the alias as the attr location so mutating
                    # calls through it attribute to the owner.
                    self.locals[name] = resolved
                else:
                    self.locals[name] = resolved

    # --------------------------------------------------------- calls
    def _scan_calls(self, node: ast.AST, held: tuple[str, ...]) -> None:
        """Record method calls / container mutations in expressions."""
        for call in self._calls_in(node):
            self._handle_call(call, held)

    def _calls_in(self, node: ast.AST) -> list[ast.Call]:
        calls: list[ast.Call] = []
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and current is not node:
                continue  # nested defs are walked separately
            if isinstance(current, ast.Call):
                calls.append(current)
            for child in ast.iter_child_nodes(current):
                stack.append(child)
        return calls

    def _handle_call(self, call: ast.Call, held: tuple[str, ...]) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "next" and call.args:
                resolved = self._resolve(call.args[0])
                if resolved is not None and resolved.kind == "attr":
                    self._record_write(resolved, call, held)
                return
            klass = self.project.resolve_class(func.id)
            if klass is not None and "__init__" in klass.methods:
                self.summary.calls.append(
                    CallSite(
                        target_class=klass.name,
                        target_method="__init__",
                        held=held,
                        node=call,
                        same_class=False,
                        summary=self.summary,
                    )
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        receiver = self._resolve(func.value)
        if receiver is None:
            return
        if receiver.kind == "lock":
            return  # acquire()/release() handled at statement level
        if receiver.kind == "object":
            klass = self.project.resolve_class(receiver.class_name)
            if klass is None:
                return
            found = self.project.find_method(klass, method)
            if found is not None:
                same = (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                )
                self.summary.calls.append(
                    CallSite(
                        target_class=found[0].name,
                        target_method=method,
                        held=held,
                        node=call,
                        same_class=same,
                        summary=self.summary,
                    )
                )
            return
        # receiver.kind == "attr": a call on an attribute's value.
        owner = self.project.resolve_class(receiver.class_name)
        type_name = (
            self.project.attr_type_of(owner, receiver.attr)
            if owner is not None
            else None
        )
        target = self.project.resolve_class(type_name)
        if target is not None:
            found = self.project.find_method(target, method)
            if found is not None:
                self.summary.calls.append(
                    CallSite(
                        target_class=found[0].name,
                        target_method=method,
                        held=held,
                        node=call,
                        same_class=False,
                        summary=self.summary,
                    )
                )
                return
        if method in MUTATING_METHODS:
            self._record_write(receiver, call, held)

    # ----------------------------------------------------- statements
    def walk(self) -> None:
        self._walk_body(list(self.summary.node.body), ())

    def _acquire_release_lock(
        self, stmt: ast.stmt, method: str
    ) -> str | None:
        if not isinstance(stmt, ast.Expr):
            return None
        call = stmt.value
        if not isinstance(call, ast.Call):
            return None
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr != method:
            return None
        return self._lock_name(func.value)

    def _walk_body(
        self, body: list[ast.stmt], held: tuple[str, ...]
    ) -> None:
        index = 0
        while index < len(body):
            stmt = body[index]
            lock = self._acquire_release_lock(stmt, "acquire")
            if lock is not None and index + 1 < len(body):
                nxt = body[index + 1]
                if isinstance(nxt, ast.Try) and any(
                    self._acquire_release_lock(final, "release") == lock
                    for final in nxt.finalbody
                ):
                    self._record_acquire(lock, held, stmt)
                    inner = held if lock in held else held + (lock,)
                    self._walk_body(nxt.body, inner)
                    for handler in nxt.handlers:
                        self._walk_body(handler.body, inner)
                    self._walk_body(nxt.orelse, inner)
                    self._walk_body(nxt.finalbody, held)
                    index += 2
                    continue
            self._walk_stmt(stmt, held)
            index += 1

    def _walk_stmt(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                lock = self._lock_name(item.context_expr)
                if lock is not None:
                    self._record_acquire(lock, inner, item.context_expr)
                    if lock not in inner:
                        inner = inner + (lock,)
                    if isinstance(item.optional_vars, ast.Name):
                        self.locals[item.optional_vars.id] = _Resolved(
                            "lock", lock=lock
                        )
                else:
                    self._scan_calls(item.context_expr, held)
                    if isinstance(item.optional_vars, ast.Name):
                        self.locals.pop(item.optional_vars.id, None)
            self._walk_body(list(stmt.body), inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs later, possibly without the locks the
            # definition site holds: analyze it with nothing held.
            self._walk_body(list(stmt.body), ())
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._write_target(target, held, stmt.value)
            self._scan_calls(stmt.value, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._write_target(stmt.target, held, None)
            self._scan_calls(stmt.value, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._write_target(stmt.target, held, stmt.value)
            if stmt.value is not None:
                self._scan_calls(stmt.value, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(target, held, None)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_calls(stmt.test, held)
            self._walk_body(list(stmt.body), held)
            self._walk_body(list(stmt.orelse), held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls(stmt.iter, held)
            if isinstance(stmt.target, ast.Name):
                self.locals.pop(stmt.target.id, None)
            self._walk_body(list(stmt.body), held)
            self._walk_body(list(stmt.orelse), held)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(list(stmt.body), held)
            for handler in stmt.handlers:
                self._walk_body(list(handler.body), held)
            self._walk_body(list(stmt.orelse), held)
            self._walk_body(list(stmt.finalbody), held)
            return
        # Leaf statements: Expr, Return, Raise, Assert, ...
        self._scan_calls(stmt, held)


def summarize_methods(project: Project) -> dict[tuple[str, str], MethodSummary]:
    """Pass 2 over every method of every class in the project."""
    summaries: dict[tuple[str, str], MethodSummary] = {}
    for module in project.modules:
        for klass in module.classes.values():
            if klass.name in project.ambiguous:
                continue
            for name, node in klass.methods.items():
                summary = MethodSummary(klass=klass, name=name, node=node)
                _MethodWalker(project, summary).walk()
                summaries[summary.key] = summary
        # Module-level functions (recovery, harnesses): walked under a
        # per-module pseudo-class so their writes through typed
        # parameters are checked like everything else.
        functions = [
            stmt
            for stmt in module.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if functions:
            pseudo = ClassModel(
                name=f"<{module.rel}>", module=module, node=module.tree
            )
            for node in functions:
                summary = MethodSummary(
                    klass=pseudo, name=node.name, node=node
                )
                _MethodWalker(project, summary).walk()
                summaries[summary.key] = summary
    return summaries


def compute_entry_held(
    summaries: dict[tuple[str, str], MethodSummary],
    lock_universe: set[str],
) -> dict[tuple[str, str], frozenset[str]]:
    """Locks guaranteed held on entry to each *private* method.

    The "lock acquired in the caller, write in the callee" rule: a
    private method's entry-held set is the intersection, over every
    same-class call site, of the locks lexically held there plus the
    caller's own entry-held set.  A public method (or a private one
    nobody calls) is assumed entered with nothing held.  Computed as a
    greatest fixpoint so helper chains (``store`` -> ``_make_room`` ->
    ``_remove``) converge.
    """
    sites: dict[tuple[str, str], list[CallSite]] = {}
    for summary in summaries.values():
        for call in summary.calls:
            if not call.same_class:
                continue
            key = (call.target_class, call.target_method)
            target = summaries.get(key)
            if target is None or not target.is_private:
                continue
            sites.setdefault(key, []).append(call)

    top = frozenset(lock_universe)
    entry: dict[tuple[str, str], frozenset[str]] = {}
    for key, summary in summaries.items():
        if summary.is_private and key in sites:
            entry[key] = top
        else:
            entry[key] = frozenset()

    changed = True
    while changed:
        changed = False
        for key, call_sites in sites.items():
            combined: frozenset[str] | None = None
            for call in call_sites:
                caller_entry = entry.get(call.summary.key, frozenset())
                held = frozenset(call.held) | caller_entry
                combined = held if combined is None else combined & held
            new_value = combined if combined is not None else frozenset()
            if new_value != entry[key]:
                entry[key] = new_value
                changed = True
    return entry
