"""Custom AST lint rules enforcing repository invariants (FP3xx).

Invariants the generic tools cannot express:

* **FP301 — simulated time only.**  Experiment results must be
  reproducible, so nothing outside ``network/clock.py`` (the simulated
  clock) and ``obs/`` (real-wall-clock observability, explicitly about
  real time) may read the wall clock.  Code that legitimately needs a
  stopwatch imports :mod:`repro.obs.wallclock`.
* **FP302 — no float equality outside ``geometry/``.**  Region
  coordinates carry floating-point error; ``geometry/`` owns the
  epsilon discipline (``EPSILON``-tolerant comparisons) and everything
  else must go through it.  Comparing against a float literal with
  ``==``/``!=`` elsewhere is almost always a tolerance bug.
* **FP303 — typed error hierarchies.**  Inside ``templates/``,
  ``sqlparser/``, and ``relational/`` every raised exception must come
  from an ``errors`` module (the package's own or a lower layer's), so
  callers can catch one root type per layer.  ``NotImplementedError``
  (abstract methods) and ``AssertionError`` (unreachable guards) are
  idiomatic and allowed.
* **FP305 — seeded randomness only.**  Determinism (paper property 1
  and the fault subsystem's replay contract) dies the moment anything
  draws from Python's process-global random state: ``random.Random()``
  with no seed, module-level ``random.random()``-style calls, and bare
  ``from random import random`` calls are all forbidden outside test
  code.  Every legitimate use constructs ``random.Random(seed)`` with
  an explicit seed.
* **FP307 — atomic artifact writes.**  A plain ``open(path, "w")``
  (or ``Path.write_text`` / ``write_bytes``) leaves a truncated file
  behind if the process dies mid-write — exactly the torn state the
  persistence layer exists to survive.  Outside ``persistence/``
  (which owns the temp+rename discipline) every whole-file write must
  go through :func:`repro.persistence.atomic.atomic_write_text` /
  ``atomic_write_bytes``.  Append ("a") and update ("r+") modes are
  allowed: appends are the journal's own idiom and updates are
  in-place patches, not whole-file replacements.
* **FP308 — benchmarks report through BenchReporter.**  A bare
  ``print`` in a ``bench_*.py`` file is a result that escapes the
  unified bench schema: it reaches a terminal but never the
  ``*.bench.json`` documents the regression gate compares.  Benchmark
  modules must emit numbers via
  :class:`repro.perf.reporter.BenchReporter` (whose ``finish`` prints
  the one sanctioned summary table) and prose via ``record_result``.
* **FP309 — every lock has a name.**  The concurrency analyzer
  (:mod:`repro.analysis.concurrency`) reasons about locks by *role
  name* (``"proxy.cache"``, ``"persistence.journal"``, ...); a raw
  ``threading.Lock()`` / ``threading.RLock()`` is anonymous, so the
  guarded-write check cannot tie it to any ``guarded-by`` annotation
  and the lock-order graph cannot see it at all.  Outside
  ``repro/locking.py`` (which owns the one sanctioned constructor)
  every lock must be built with
  :func:`repro.locking.named_lock`.
* **FP310 — serve-path queues are bounded.**  The admission layer's
  whole premise is that backlog is a policy decision, not an accident
  of memory: a ``collections.deque`` without ``maxlen`` or a
  ``queue.Queue`` without ``maxsize`` in a serve-path module (the
  :data:`~repro.analysis.concurrency.SERVE_PATH_MODULES` set the
  concurrency analyzer pins) grows without bound under exactly the
  overload the proxy is supposed to shed.  ``queue.SimpleQueue``
  cannot be bounded at all and is always flagged there.
* **FP311 — flight-recorder events use pinned EV codes.**  The event
  timeline (:mod:`repro.obs.events`) is keyed by the stable
  ``EVENT_CODES`` registry, exactly like the FP diagnostic codes: a
  string-literal code outside the registry passed to ``emit`` /
  ``telemetry_event`` would raise at runtime on a real recorder — or
  worse, silently vanish into the null recorder on a disabled run.
  Codes must be the ``EV_*`` constants (or registry lookups such as
  ``BREAKER_EVENT_CODES[...]``).
* **FP312 — shard internals stay behind the router.**  The cluster
  package (:mod:`repro.cluster`) owns shard placement: the hash ring,
  the failover chain, and the warm-handoff codec are implementation
  details of the tier, and any module that imports
  ``repro.cluster.<submodule>`` directly is one refactor away from
  calling a shard that the ring no longer owns.  Outside
  ``repro/cluster/`` (and tests) only the package surface
  ``repro.cluster`` may be imported — shard-to-shard traffic must go
  through the :class:`~repro.cluster.router.ShardRouter`.
* **FP306 — stages are context managers.**  Calling
  ``Stage.__enter__`` / ``Stage.__exit__`` by hand breaks the
  open-stage stack on any exception path (the stage never pops, and
  every later stage nests under a corpse).  ``with obs.scope(...)``
  is the only sanctioned form; the rule flags *any* manual
  ``.__enter__()`` / ``.__exit__()`` attribute call outside ``obs/``
  and test code.

``run_lint`` walks Python files, applies every rule, and returns an
:class:`AnalysisReport`; ``tools/lint.py`` is the CI driver.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Callable, Iterator, Sequence

from repro.analysis.codes import severity_of
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    SourceSpan,
)

#: Wall-clock reading callables of the ``time`` module.
WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Wall-clock reading methods of ``datetime.datetime`` / ``datetime.date``.
WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Exceptions any package may raise regardless of hierarchy.
ALLOWED_BUILTIN_RAISES = frozenset(
    {"NotImplementedError", "AssertionError", "SystemExit"}
)

#: Packages whose raises must come from an errors module.
ERROR_HIERARCHY_PACKAGES = frozenset(
    {"templates", "sqlparser", "relational"}
)


def _repro_parts(path: pathlib.PurePath) -> tuple[str, ...]:
    """Path segments below the ``repro`` package, or () outside it."""
    parts = path.as_posix().split("/")
    if "repro" in parts:
        return tuple(parts[parts.index("repro") + 1:])
    return ()


def _node_span(
    node: ast.AST, text: str, source: str
) -> SourceSpan:
    """A span for an AST node, from its line/column position."""
    lines = text.split("\n")
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    start = sum(len(line) + 1 for line in lines[: lineno - 1]) + col
    end_lineno = getattr(node, "end_lineno", lineno) or lineno
    end_col = getattr(node, "end_col_offset", col) or col
    end = sum(len(line) + 1 for line in lines[: end_lineno - 1]) + end_col
    snippet = text[start:end]
    if len(snippet) > 80:
        snippet = snippet[:77] + "..."
    return SourceSpan(
        source=source,
        start=start,
        end=max(start, end),
        line=lineno,
        column=col + 1,
        snippet=snippet,
    )


class ModuleUnderLint:
    """One parsed Python file plus the import aliases the rules need."""

    def __init__(self, path: pathlib.Path, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.repro_parts = _repro_parts(path)
        # module alias -> real module name ("import time as t")
        self.module_aliases: dict[str, str] = {}
        # bare name -> (module, original name) ("from time import time")
        self.imported_names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[
                        alias.asname or alias.name.split(".")[0]
                    ] = alias.name
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = (
                        module,
                        alias.name,
                    )

    def diagnostic(
        self, code: str, message: str, node: ast.AST, hint: str = ""
    ) -> Diagnostic:
        source = self.path.as_posix()
        return Diagnostic(
            code=code,
            severity=severity_of(code),
            message=message,
            subject=source,
            span=_node_span(node, self.text, source),
            hint=hint,
        )


LintRule = Callable[[ModuleUnderLint], Iterator[Diagnostic]]


# ------------------------------------------------------------------- FP301
def _is_wall_clock_call(module: ModuleUnderLint, call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        imported = module.imported_names.get(func.id)
        if imported is not None:
            origin_module, origin_name = imported
            if origin_module == "time" and (
                origin_name in WALL_CLOCK_TIME_FUNCS
            ):
                return True
            if origin_module == "datetime" and origin_name in (
                "datetime", "date"
            ):
                return False  # the class itself, not a clock read
        return False
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name):
            real_module = module.module_aliases.get(value.id)
            if real_module == "time" and func.attr in WALL_CLOCK_TIME_FUNCS:
                return True
            # "from datetime import datetime; datetime.now()"
            imported = module.imported_names.get(value.id)
            if (
                imported is not None
                and imported[0] == "datetime"
                and func.attr in WALL_CLOCK_DATETIME_FUNCS
            ):
                return True
        # "import datetime; datetime.datetime.now()"
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and module.module_aliases.get(value.value.id) == "datetime"
            and func.attr in WALL_CLOCK_DATETIME_FUNCS
        ):
            return True
    return False


def wall_clock_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP301: wall-clock reads outside network/clock.py and obs/."""
    parts = module.repro_parts
    if parts and (parts[0] == "obs" or parts == ("network", "clock.py")):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and _is_wall_clock_call(module, node):
            yield module.diagnostic(
                "FP301",
                "wall-clock call; experiment code must use the simulated "
                "clock (repro.network.clock) or repro.obs.wallclock",
                node,
                hint="import Stopwatch from repro.obs.wallclock for "
                "real-time measurement",
            )


# ------------------------------------------------------------------- FP302
def _float_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.operand, ast.Constant
    ):
        return isinstance(node.operand.value, float)
    return False


def float_equality_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP302: ``==``/``!=`` against float literals outside geometry/."""
    parts = module.repro_parts
    if parts and parts[0] == "geometry":
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _float_operand(left) or _float_operand(right):
                yield module.diagnostic(
                    "FP302",
                    "float equality comparison; coordinates need the "
                    "EPSILON tolerance that repro.geometry owns",
                    node,
                    hint="compare via repro.geometry (regions/relations) "
                    "or an explicit tolerance",
                )


# ------------------------------------------------------------------- FP303
def _allowed_exception_names(module: ModuleUnderLint) -> set[str]:
    allowed = set(ALLOWED_BUILTIN_RAISES)
    for name, (origin_module, _) in module.imported_names.items():
        if origin_module == "errors" or origin_module.endswith(".errors"):
            allowed.add(name)
    # Classes defined in this module deriving (transitively) from an
    # allowed name are allowed too; declaration order covers chains.
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            base_names = {
                base.id
                for base in node.bases
                if isinstance(base, ast.Name)
            }
            if base_names & allowed:
                allowed.add(node.name)
    return allowed


def _is_errors_module(module: ModuleUnderLint) -> bool:
    return module.path.name == "errors.py"


def error_hierarchy_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP303: raises in templates/, sqlparser/, relational/."""
    parts = module.repro_parts
    if (
        len(parts) < 2
        or parts[0] not in ERROR_HIERARCHY_PACKAGES
        or _is_errors_module(module)
    ):
        return
    allowed = _allowed_exception_names(module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            name = exc.id
            # Lower-case names are re-raised variables; the original
            # raise site is where the hierarchy is enforced.
            if not name[:1].isupper() or name in allowed:
                continue
            yield module.diagnostic(
                "FP303",
                f"raises {name}, which does not come from an errors "
                f"module; {parts[0]}/ callers catch the layer's error "
                "root",
                node,
                hint=f"raise a repro.{parts[0]}.errors exception (or a "
                "lower layer's errors-module exception)",
            )
        elif isinstance(exc, ast.Attribute):
            value = exc.value
            from_errors = isinstance(value, ast.Name) and (
                module.module_aliases.get(value.id, "").endswith("errors")
                or value.id == "errors"
            )
            if not from_errors:
                yield module.diagnostic(
                    "FP303",
                    f"raises {ast.unparse(exc)}, which does not come "
                    "from an errors module",
                    node,
                )


# ------------------------------------------------------------------- FP305
def _seeded_constructor(call: ast.Call) -> bool:
    """``Random(seed)`` is fine; ``Random()`` shares no seed to replay."""
    return bool(call.args or call.keywords)


def unseeded_random_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP305: unseeded / module-level randomness outside tests."""
    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    hint = (
        "construct random.Random(seed) with an explicit seed and pass "
        "the instance around"
    )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            imported = module.imported_names.get(func.id)
            if imported is None or imported[0] != "random":
                continue
            origin_name = imported[1]
            if origin_name in ("Random", "SystemRandom"):
                if not _seeded_constructor(node):
                    yield module.diagnostic(
                        "FP305",
                        f"{origin_name}() without a seed; replays would "
                        "diverge run to run",
                        node,
                        hint=hint,
                    )
            else:
                yield module.diagnostic(
                    "FP305",
                    f"call to random.{origin_name} draws from the "
                    "process-global random state",
                    node,
                    hint=hint,
                )
        elif isinstance(func, ast.Attribute):
            value = func.value
            if not (
                isinstance(value, ast.Name)
                and module.module_aliases.get(value.id) == "random"
            ):
                continue
            if func.attr in ("Random", "SystemRandom"):
                if not _seeded_constructor(node):
                    yield module.diagnostic(
                        "FP305",
                        f"random.{func.attr}() without a seed; replays "
                        "would diverge run to run",
                        node,
                        hint=hint,
                    )
            else:
                yield module.diagnostic(
                    "FP305",
                    f"call to random.{func.attr} draws from the "
                    "process-global random state",
                    node,
                    hint=hint,
                )


# ------------------------------------------------------------------- FP306
def manual_context_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP306: manual ``__enter__``/``__exit__`` calls outside obs/."""
    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    parts = module.repro_parts
    if parts and parts[0] == "obs":
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "__enter__",
            "__exit__",
        ):
            yield module.diagnostic(
                "FP306",
                f"manual {func.attr}() call; stages (and context "
                "managers generally) must be entered with `with` so "
                "exception paths unwind the open-stage stack",
                node,
                hint="rewrite as `with obs.scope(...) as stage:` (or "
                "contextlib.ExitStack for dynamic lifetimes)",
            )


# ------------------------------------------------------------------- FP307
def _open_write_mode(call: ast.Call) -> str | None:
    """The mode string of an ``open()`` call when it truncates."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return None  # default "r"
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return None  # dynamic mode: out of scope
    # "w"/"x" truncate or create whole files; "a" and "r+" do not.
    if mode.value.startswith(("w", "x")):
        return mode.value
    return None


def non_atomic_write_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP307: whole-file writes outside persistence/ must be atomic."""
    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    parts = module.repro_parts
    if parts and parts[0] == "persistence":
        return
    hint = (
        "use repro.persistence.atomic.atomic_write_text / "
        "atomic_write_bytes (temp file + os.replace)"
    )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_write_mode(node)
            if mode is not None:
                yield module.diagnostic(
                    "FP307",
                    f'open(..., "{mode}") truncates in place; a crash '
                    "mid-write leaves a torn file",
                    node,
                    hint=hint,
                )
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            yield module.diagnostic(
                "FP307",
                f"{func.attr}() replaces the file non-atomically; a "
                "crash mid-write leaves a torn file",
                node,
                hint=hint,
            )


# ------------------------------------------------------------------- FP308
def bench_print_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP308: ``print`` calls in benchmark modules."""
    if not module.path.name.startswith("bench_"):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield module.diagnostic(
                "FP308",
                "print() in a benchmark; results that bypass "
                "BenchReporter never reach the *.bench.json documents "
                "the regression gate compares",
                node,
                hint="record numbers with bench_report(...).metric(...) "
                "and tables with record_result(...)",
            )


# ------------------------------------------------------------------- FP309
#: Lock-ish constructors of the ``threading`` module the rule covers.
THREADING_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def raw_lock_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP309: raw threading lock constructions outside repro/locking.py."""
    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    if module.repro_parts == ("locking.py",):
        return
    hint = (
        "construct locks via repro.locking.named_lock(\"<role>\") so the "
        "concurrency analyzer can name them"
    )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            imported = module.imported_names.get(func.id)
            if (
                imported is not None
                and imported[0] == "threading"
                and imported[1] in THREADING_LOCK_FACTORIES
            ):
                yield module.diagnostic(
                    "FP309",
                    f"threading.{imported[1]}() constructs an anonymous "
                    "lock the concurrency analyzer cannot name",
                    node,
                    hint=hint,
                )
        elif isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Name)
                and module.module_aliases.get(value.id) == "threading"
                and func.attr in THREADING_LOCK_FACTORIES
            ):
                yield module.diagnostic(
                    "FP309",
                    f"threading.{func.attr}() constructs an anonymous "
                    "lock the concurrency analyzer cannot name",
                    node,
                    hint=hint,
                )


# ------------------------------------------------------------------- FP310
#: ``queue`` module constructors that accept (and default to an
#: unbounded) ``maxsize``.
BOUNDABLE_QUEUE_FACTORIES = frozenset(
    {"Queue", "LifoQueue", "PriorityQueue"}
)


def _is_unbounded_maxsize(call: ast.Call) -> bool:
    """True when a queue constructor's maxsize is absent, 0, or < 0."""
    size: ast.expr | None = None
    if call.args:
        size = call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "maxsize":
            size = keyword.value
    if size is None:
        return True
    if isinstance(size, ast.Constant) and isinstance(size.value, int):
        return size.value <= 0
    if (
        isinstance(size, ast.UnaryOp)
        and isinstance(size.op, ast.USub)
        and isinstance(size.operand, ast.Constant)
    ):
        return True  # negative literal: unbounded by Queue's contract
    return False  # dynamic bound: trust the caller


def _deque_has_maxlen(call: ast.Call) -> bool:
    if len(call.args) >= 2:
        return True  # deque(iterable, maxlen)
    return any(keyword.arg == "maxlen" for keyword in call.keywords)


def _queue_factory_name(
    module: ModuleUnderLint, call: ast.Call
) -> str | None:
    """The ``queue``-module class a call constructs, if any."""
    func = call.func
    if isinstance(func, ast.Name):
        imported = module.imported_names.get(func.id)
        if imported is not None and imported[0] == "queue":
            return imported[1]
    elif isinstance(func, ast.Attribute):
        value = func.value
        if (
            isinstance(value, ast.Name)
            and module.module_aliases.get(value.id) == "queue"
        ):
            return func.attr
    return None


def _is_deque_call(module: ModuleUnderLint, call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        imported = module.imported_names.get(func.id)
        return (
            imported is not None
            and imported[0] == "collections"
            and imported[1] == "deque"
        )
    if isinstance(func, ast.Attribute):
        value = func.value
        return (
            isinstance(value, ast.Name)
            and module.module_aliases.get(value.id) == "collections"
            and func.attr == "deque"
        )
    return False


def unbounded_queue_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP310: unbounded deques/queues in serve-path modules."""
    # Imported lazily: repro.analysis.concurrency imports nothing from
    # this module, but keeping the lint rules importable on their own
    # is worth the local import.
    from repro.analysis.concurrency import (
        SERVE_PATH_MODULES,
        SERVE_PATH_PRAGMA,
    )

    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    rel = "/".join(module.repro_parts)
    if rel not in SERVE_PATH_MODULES and (
        SERVE_PATH_PRAGMA not in module.text
    ):
        return
    hint = (
        "bound the container (deque(maxlen=...), Queue(maxsize=...)) "
        "and shed the excess through repro.admission"
    )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if _is_deque_call(module, node) and not _deque_has_maxlen(node):
            yield module.diagnostic(
                "FP310",
                "deque() without maxlen on the serve path grows without "
                "bound under overload",
                node,
                hint=hint,
            )
            continue
        factory = _queue_factory_name(module, node)
        if factory in BOUNDABLE_QUEUE_FACTORIES and _is_unbounded_maxsize(
            node
        ):
            yield module.diagnostic(
                "FP310",
                f"queue.{factory} without a positive maxsize on the "
                "serve path grows without bound under overload",
                node,
                hint=hint,
            )
        elif factory == "SimpleQueue":
            yield module.diagnostic(
                "FP310",
                "queue.SimpleQueue cannot be bounded; the serve path "
                "needs a depth limit",
                node,
                hint=hint,
            )


# ------------------------------------------------------------------- FP311
#: Receiver names that mark a bare ``.emit`` as the flight recorder's
#: (the diagnostics layer has its own ``.emit(code, message, node)``).
EVENT_RECORDER_RECEIVERS = frozenset({"events", "recorder", "flight"})


def _is_event_emission(func: ast.Attribute, call: ast.Call) -> bool:
    """Whether a method call puts an event on the telemetry timeline.

    ``telemetry_event`` is unambiguous.  ``emit`` is shared with the
    diagnostics layer, so it only counts when the call carries the
    recorder's signature (an ``at_ms`` keyword) or the receiver is an
    events/recorder attribute (``self.events.emit``, ``recorder.emit``).
    """
    if func.attr == "telemetry_event":
        return True
    if func.attr != "emit":
        return False
    if any(keyword.arg == "at_ms" for keyword in call.keywords):
        return True
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id in EVENT_RECORDER_RECEIVERS
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in EVENT_RECORDER_RECEIVERS
    return False


def event_code_rule(module: ModuleUnderLint) -> Iterator[Diagnostic]:
    """FP311: flight-recorder emissions must use pinned EV codes.

    Flags flight-recorder ``emit`` / ``telemetry_event`` calls whose
    code argument is a string literal absent from
    :data:`repro.obs.events.EVENT_CODES`.  Codes that arrive as names
    (the ``EV_*`` constants) or subscripts
    (``BREAKER_EVENT_CODES[...]``) resolve at runtime against the same
    registry, so only literals are judged here; the recorder itself
    still rejects unknown codes loudly at runtime.
    """
    # Lazy for the same reason as FP310: keep the lint rules
    # importable without dragging in the subsystem they police.
    from repro.obs.events import EVENT_CODES

    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    if module.repro_parts == ("obs", "events.py"):
        return  # the registry module itself (docs, validation message)
    hint = (
        "use a pinned EV constant from repro.obs.events "
        f"(registry: {', '.join(sorted(EVENT_CODES))})"
    )
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if not _is_event_emission(func, node):
            continue
        code: ast.expr | None = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "code":
                code = keyword.value
        if (
            isinstance(code, ast.Constant)
            and isinstance(code.value, str)
            and code.value not in EVENT_CODES
        ):
            yield module.diagnostic(
                "FP311",
                f"event code {code.value!r} is not in the pinned "
                "EVENT_CODES registry; ad-hoc codes never reach "
                "dashboards or tests keyed on the timeline",
                node,
                hint=hint,
            )


# ------------------------------------------------------------------- FP312
def shard_internal_import_rule(
    module: ModuleUnderLint,
) -> Iterator[Diagnostic]:
    """FP312: ``repro.cluster.<submodule>`` imports outside the cluster.

    The cluster package's submodules (ring placement, failover, the
    handoff codec) are shard internals; everything else talks to the
    tier through the ``repro.cluster`` package surface so no module
    outside it can address a shard the ring no longer owns.
    """
    if any(part in ("tests", "conftest.py") for part in module.path.parts):
        return
    parts = module.repro_parts
    if parts and parts[0] == "cluster":
        return
    hint = (
        "import from the repro.cluster package surface; shard-to-shard "
        "traffic goes through the ShardRouter"
    )
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith(
                "repro.cluster."
            ):
                yield module.diagnostic(
                    "FP312",
                    f"direct import of shard internals ({node.module}); "
                    "only repro.cluster itself is a public surface "
                    "outside the cluster package",
                    node,
                    hint=hint,
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.cluster."):
                    yield module.diagnostic(
                        "FP312",
                        f"direct import of shard internals "
                        f"({alias.name}); only repro.cluster itself is "
                        "a public surface outside the cluster package",
                        node,
                        hint=hint,
                    )


ALL_RULES: tuple[LintRule, ...] = (
    wall_clock_rule,
    float_equality_rule,
    error_hierarchy_rule,
    unseeded_random_rule,
    manual_context_rule,
    non_atomic_write_rule,
    bench_print_rule,
    raw_lock_rule,
    unbounded_queue_rule,
    event_code_rule,
    shard_internal_import_rule,
)


# ------------------------------------------------------------------ driver
def _syntax_error_span(
    path: pathlib.Path, text: str, exc: SyntaxError
) -> SourceSpan:
    """A line:col span for an unparseable file, from the SyntaxError.

    ``SyntaxError.offset`` is already 1-based (like the column our
    spans carry), so the diagnostic renders in the same
    ``path:line:col`` style as every AST-anchored finding.
    """
    lines = text.split("\n")
    lineno = max(1, exc.lineno or 1)
    column = max(1, exc.offset or 1)
    start = sum(len(line) + 1 for line in lines[: lineno - 1]) + column - 1
    start = min(start, len(text))
    snippet = lines[lineno - 1] if lineno - 1 < len(lines) else ""
    if len(snippet) > 80:
        snippet = snippet[:77] + "..."
    return SourceSpan(
        source=path.as_posix(),
        start=start,
        end=min(len(text), start + max(1, len(snippet))),
        line=lineno,
        column=column,
        snippet=snippet,
    )


def lint_file(
    path: pathlib.Path, rules: Sequence[LintRule] = ALL_RULES
) -> AnalysisReport:
    """Run every rule over one Python file."""
    report = AnalysisReport()
    text = path.read_text(encoding="utf-8")
    try:
        module = ModuleUnderLint(path, text)
    except SyntaxError as exc:
        report.add(
            Diagnostic(
                code="FP304",
                severity=severity_of("FP304"),
                message=f"cannot parse {path}: {exc.msg}",
                subject=path.as_posix(),
                span=_syntax_error_span(path, text, exc),
            )
        )
        return report
    for rule in rules:
        for diagnostic in rule(module):
            report.add(diagnostic)
    return report


def run_lint(
    paths: Sequence[str | pathlib.Path],
    rules: Sequence[LintRule] = ALL_RULES,
) -> AnalysisReport:
    """Lint files and directories (recursing into ``*.py``)."""
    report = AnalysisReport()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                report.extend(lint_file(child, rules))
        else:
            report.extend(lint_file(path, rules))
    return report
