"""Durable file writes for the tmp+``os.replace`` publication idiom.

``os.replace`` makes a publication *atomic* (readers see the old file
or the new one, never a mix), but not *durable*: after a crash plus
power loss the rename can survive while the temp's data blocks never
hit the platter, leaving a zero-length or partial file under a
committed name. Durability-critical records — the checkpoint store's
per-cell records — must therefore flush and ``os.fsync`` the temp
before renaming it.

The helper is byte-for-byte equivalent to ``Path.write_text`` plus the
fsync; callers keep their own pid-unique sibling-temp naming and
``os.replace`` so the publication idiom stays visible (and checkable)
at the call site. The FS002 analysis rule recognises it through its
call summaries.
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_write_text(
    path: Path, text: str, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` and fsync before returning."""
    with open(path, "w", encoding=encoding) as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())

