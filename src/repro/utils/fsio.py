"""The only module in ``repro`` that renames store files into place.

Two on-disk stores are shared between processes: the checkpoint
store's per-cell records (:mod:`repro.evalx.checkpoint`) and the
workload cache's program images and traces
(:mod:`repro.synth.workloads`). Both publish through
:func:`publish`. It writes a pid-unique sibling temp file, flushes it,
calls ``os.fsync`` on it, then moves it over the destination with
``os.replace``:

* readers see the old file or the new one, never a torn one;
* the fsync stops a crash plus power loss from leaving a committed name
  over data that never reached the disk;
* the sibling placement keeps the rename on one filesystem, where it is
  atomic, and the pid in the name stops concurrent writers from
  truncating each other's temp.

A temp left behind by a killed process is reaped by
:func:`repro.synth.workloads.sweep_orphan_tmp_files`, which every
experiment run calls before its first cell.

The CKP003 analysis rule forbids ``os.replace``/``os.rename`` everywhere
else in ``repro``, and an ``os.environ`` write anywhere, this module
included: no engine state reaches a worker through the environment.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO


def publish(destination: Path, write: Callable[[BinaryIO], object]) -> None:
    """Atomically and durably replace ``destination`` with ``write``'s output.

    ``write`` receives the temp file, open for binary writing. On any
    exception the temp is removed and the exception re-raised, leaving
    the previous destination (if any) untouched.
    """
    tmp_path = destination.with_name(
        f".{destination.name}.tmp-{os.getpid()}"
    )
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp_path, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, destination)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise

