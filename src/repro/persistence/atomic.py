"""Atomic file replacement: temp file + ``os.replace``.

Every artifact the repository writes whole (snapshots, benchmark
tables, JSON dumps, trace files, stored result files) goes through
these helpers so an interrupted writer can never leave a truncated
file behind: readers see either the previous complete version or the
new complete version, nothing in between.  Lint rule FP307
(``tools/lint.py``) forbids
bare ``open(..., "w")`` / ``Path.write_text`` everywhere outside this
package; this module is the sanctioned replacement.

The temp file is created *in the destination directory* — ``os.replace``
is only atomic within one filesystem — under a dot-prefixed name that
directory scans for artifacts will not pick up.  ``fsync`` is optional
because most callers write reproducible artifacts (re-runnable on
loss), while the crash-consistent journal/snapshot machinery passes
``durable=True``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(
    path: str | Path, data: bytes, durable: bool = False
) -> None:
    """Replace ``path``'s contents with ``data`` atomically."""
    path = Path(path)
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: str | Path,
    text: str,
    encoding: str = "utf-8",
    durable: bool = False,
) -> None:
    """Replace ``path``'s contents with ``text`` atomically."""
    atomic_write_bytes(path, text.encode(encoding), durable=durable)
