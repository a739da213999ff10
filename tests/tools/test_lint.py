"""``tools/lint.py``: the FP3xx rules on synthetic modules, and the
FP401 shared-state inventory on synthetic fixture modules.

The FP401 fixtures opt into the serve-path inventory with the
``# concurrency: serve-path`` pragma (prepended as line 1, so fixture
line numbers are body line + 1) and are checked like ``core/proxy.py``
without living at its path.
"""

import importlib.util
import pathlib
import textwrap
from collections import Counter

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "lint.py"
spec = importlib.util.spec_from_file_location("lint", TOOL)
lint_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_tool)
lint_file, run_lint = lint_tool.lint_file, lint_tool.run_lint

SRC_REPRO = (
    pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
)
PRAGMA = "# concurrency: serve-path\n"


def lint(tmp_path, relpath: str, source: str):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path)


def analyze(tmp_path, source, serve_path=True, name="fixture_module.py"):
    text = textwrap.dedent(source)
    if serve_path:
        text = PRAGMA + text
    path = tmp_path / name
    path.write_text(text)
    return run_lint([tmp_path])


class TestWallClockRule:
    def test_time_time_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "import time\nt = time.time()\n"
        )
        assert report.codes() == {"FP301"}
        (diagnostic,) = report
        assert diagnostic.span.line == 2

    def test_from_import_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "from time import perf_counter\nt = perf_counter()\n",
        )
        assert report.codes() == {"FP301"}

    def test_module_alias_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "import time as t\nx = t.monotonic()\n"
        )
        assert report.codes() == {"FP301"}

    def test_datetime_now_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "from datetime import datetime\nd = datetime.now()\n",
        )
        assert report.codes() == {"FP301"}

    def test_obs_package_exempt(self, tmp_path):
        report = lint(
            tmp_path, "repro/obs/x.py", "import time\nt = time.time()\n"
        )
        assert len(report) == 0

    def test_simulated_clock_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/network/clock.py",
            "import time\nt = time.time()\n",
        )
        assert len(report) == 0

    def test_time_sleep_is_not_a_clock_read(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "import time\ntime.sleep(1)\n"
        )
        assert len(report) == 0


class TestUnseededRandomRule:
    def test_module_level_call_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import random\nx = random.randrange(10)\n",
        )
        assert report.codes() == {"FP305"}

    def test_unseeded_constructor_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import random\nrng = random.Random()\n",
        )
        assert report.codes() == {"FP305"}

    def test_from_import_call_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/workload/x.py",
            "from random import random\nx = random()\n",
        )
        assert report.codes() == {"FP305"}

    def test_from_import_unseeded_random_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "from random import Random\nrng = Random()\n",
        )
        assert report.codes() == {"FP305"}

    def test_seeded_constructor_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "import random\nrng = random.Random(42)\n",
        )
        assert len(report) == 0

    def test_seeded_from_import_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "from random import Random\nrng = Random(seed)\n",
        )
        assert len(report) == 0

    def test_instance_methods_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/faults/x.py",
            "from random import Random\nrng = Random(1)\n"
            "x = rng.random()\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/core/x.py",
            "import random\nx = random.random()\n",
        )
        assert len(report) == 0


class TestNonAtomicWriteRule:
    def test_open_write_mode_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/harness/x.py",
            "with open(p, 'w') as h:\n    h.write(s)\n",
        )
        assert report.codes() == {"FP307"}
        (diagnostic,) = report
        assert "atomic_write_text" in diagnostic.hint

    def test_open_mode_keyword_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "h = open(p, mode='wb')\n",
        )
        assert report.codes() == {"FP307"}

    def test_exclusive_creation_flagged(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "h = open(p, 'x')\n")
        assert report.codes() == {"FP307"}

    def test_path_write_text_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "path.write_text(payload)\n"
        )
        assert report.codes() == {"FP307"}

    def test_path_write_bytes_flagged(self, tmp_path):
        report = lint(
            tmp_path, "repro/core/x.py", "path.write_bytes(payload)\n"
        )
        assert report.codes() == {"FP307"}

    def test_read_mode_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "a = open(p)\nb = open(p, 'rb')\n",
        )
        assert len(report) == 0

    def test_append_mode_allowed(self, tmp_path):
        # Appends are the journal's own idiom (obs/spans.py exports).
        report = lint(tmp_path, "repro/obs/x.py", "h = open(p, 'a')\n")
        assert len(report) == 0

    def test_update_mode_allowed(self, tmp_path):
        # In-place patches (the crash injector's bitflip) do not
        # truncate, so they cannot tear the whole file.
        report = lint(
            tmp_path, "repro/faults/x.py", "h = open(p, 'r+b')\n"
        )
        assert len(report) == 0

    def test_persistence_package_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/persistence/x.py",
            "with open(p, 'w') as h:\n    h.write(s)\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path, "tests/core/x.py", "path.write_text('x')\n"
        )
        assert len(report) == 0


class TestRawLockRule:
    def test_threading_lock_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import threading\nlock = threading.Lock()\n",
        )
        assert report.codes() == {"FP309"}
        (diagnostic,) = report
        assert diagnostic.span.line == 2

    def test_rlock_from_import_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/obs/x.py",
            "from threading import RLock\nlock = RLock()\n",
        )
        assert report.codes() == {"FP309"}

    def test_condition_and_semaphore_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import threading\n"
            "c = threading.Condition()\n"
            "s = threading.Semaphore(2)\n",
        )
        assert Counter(d.code for d in report.diagnostics) == {"FP309": 2}

    def test_module_alias_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "import threading as t\nlock = t.RLock()\n",
        )
        assert report.codes() == {"FP309"}

    def test_locking_module_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/locking.py",
            "import threading\nlock = threading.RLock()\n",
        )
        assert len(report) == 0

    def test_tests_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            "tests/test_x.py",
            "import threading\nlock = threading.Lock()\n",
        )
        assert len(report) == 0

    def test_named_lock_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "from repro.locking import named_lock\n"
            "lock = named_lock('proxy.cache')\n",
        )
        assert len(report) == 0

    def test_unrelated_lock_name_clean(self, tmp_path):
        # Only the threading module's factories count; a local helper
        # that happens to be called Lock is not this rule's business.
        report = lint(
            tmp_path,
            "repro/core/x.py",
            "from mylib import Lock\nlock = Lock()\n",
        )
        assert len(report) == 0


class TestDiagnosticFormatGolden:
    """Diagnostics render compiler-style with line AND column."""

    def test_rule_diagnostic_carries_line_and_column(self, tmp_path):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("import threading\nlock = threading.Lock()\n")
        report = lint_file(path)
        (diagnostic,) = report
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 8)
        rendered = diagnostic.format().splitlines()[0]
        assert rendered == (
            f"{path.as_posix()}:2:8: FP309 error: threading.Lock() "
            "constructs an anonymous lock the lock-order sanitizer "
            "cannot see"
        )

    def test_syntax_error_diagnostic_carries_line_and_column(
        self, tmp_path
    ):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("def broken(:\n")
        report = lint_file(path)
        (diagnostic,) = report
        assert diagnostic.code == "FP304"
        assert diagnostic.span is not None
        assert diagnostic.span.line == 1
        assert diagnostic.span.column >= 1
        first = diagnostic.format().splitlines()[0]
        assert first.startswith(
            f"{path.as_posix()}:1:{diagnostic.span.column}: "
            "FP304 error: cannot parse"
        )


class TestDriver:
    def test_fp304_syntax_error(self, tmp_path):
        report = lint(tmp_path, "repro/core/x.py", "def broken(:\n")
        assert report.codes() == {"FP304"}

    def test_run_lint_recurses_directories(self, tmp_path):
        (tmp_path / "repro" / "core").mkdir(parents=True)
        (tmp_path / "repro" / "core" / "a.py").write_text(
            "import time\nt = time.time()\n"
        )
        (tmp_path / "repro" / "core" / "b.py").write_text(
            "import random\nx = random.random()\n"
        )
        report = run_lint([tmp_path])
        assert report.codes() == {"FP301", "FP305"}

    def test_the_repository_is_lint_clean(self):
        report = run_lint([SRC_REPRO])
        assert not report.has_errors, report.render()

    def test_the_benchmarks_are_lint_clean(self):
        benchmarks = SRC_REPRO.parents[1] / "benchmarks"
        report = run_lint([benchmarks])
        assert not report.has_errors, report.render()


class TestInventoryFP401:
    def test_module_level_mutable_without_registration(self, tmp_path):
        report = analyze(
            tmp_path, "registry = {}\n", serve_path=False
        )
        (diagnostic,) = report
        assert diagnostic.code == "FP401"
        assert diagnostic.message == (
            "module-level mutable 'registry' has no concurrency "
            "registration"
        )
        assert (diagnostic.span.line, diagnostic.span.column) == (1, 1)

    def test_waivered_module_state_is_clean(self, tmp_path):
        report = analyze(
            tmp_path,
            "registry = {}  # unshared: rebuilt per run\n"
            "cache = []  # guarded-by: proxy.cache\n",
            serve_path=False,
        )
        assert len(report) == 0

    def test_constants_are_exempt(self, tmp_path):
        report = analyze(
            tmp_path,
            "KNOWN_CODES = {'FP401'}\n__all__ = ['x']\n",
            serve_path=False,
        )
        assert len(report) == 0

    def test_unregistered_instance_write(self, tmp_path):
        report = analyze(
            tmp_path,
            """\
            class Worker:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
        )
        (diagnostic,) = report
        assert diagnostic.code == "FP401"
        assert diagnostic.message == (
            "'Worker.count' is written outside __init__ but has no "
            "concurrency registration"
        )
        assert diagnostic.span.line == 7

    def test_init_only_writes_are_exempt(self, tmp_path):
        report = analyze(
            tmp_path,
            """\
            class Worker:
                def __init__(self):
                    self.count = 0
                    self.items = []
            """,
        )
        assert len(report) == 0

    def test_off_path_module_is_not_inventoried(self, tmp_path):
        report = analyze(
            tmp_path,
            """\
            class Helper:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
            serve_path=False,
        )
        assert len(report) == 0
