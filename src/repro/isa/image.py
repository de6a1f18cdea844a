"""Binary program images: save/load Multiscalar executables.

An image stores a program's task table (:mod:`repro.isa.table`) column
by column, as the table holds it, so a program round-trips bit-exactly
through a file and loading one is an ``np.frombuffer`` per column plus
the table's checks. The decoded columns are read-only views of the
image bytes.

Layout (little-endian), format version 3:

```
u32 magic 'MSCX'   u16 version   u16 exit slots (4)   u32 entry   u32 tasks
int64 columns of one value per task, in this order:
    addrs  instruction_count  internal_branches  use_mask  create_mask
    n_exits
int64 columns of one row of exit-slot values per task (tasks x slots):
    cf_codes  targets  return_addrs        (-1 where an address is absent)
task names: utf-8, separated by NUL bytes
32 bytes: SHA-256 of every byte before it
```

The trailer makes any damaged or truncated image an :class:`EncodingError`
on load rather than a silently different program; so is an image of
another format version.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from repro.errors import EncodingError
from repro.isa.program import MultiscalarProgram
from repro.isa.table import COLUMNS, EXIT_SLOTS, TASK_COLUMNS, TaskTable

_MAGIC = 0x4D534358  # 'MSCX'
_VERSION = 3
_FILE_HEADER = struct.Struct("<IHHII")
_CHECKSUM_BYTES = hashlib.sha256().digest_size
_COLUMN_DTYPE = np.dtype("<i8")


def encode_program(program: MultiscalarProgram) -> bytes:
    """``program`` as image bytes, checksum trailer included."""
    table = program.table
    names = "\0".join(table.names)
    if names.count("\0") != len(table) - 1:
        raise EncodingError("a task name holds a NUL character")
    body = b"".join(
        [
            _FILE_HEADER.pack(
                _MAGIC, _VERSION, EXIT_SLOTS, program.entry, len(table)
            ),
            *(
                getattr(table, column).astype(_COLUMN_DTYPE).tobytes()
                for column in COLUMNS
            ),
            names.encode("utf-8"),
        ]
    )
    return body + hashlib.sha256(body).digest()


def decode_program(blob: bytes, name: str) -> MultiscalarProgram:
    """The program an :func:`encode_program` blob holds, named ``name``.

    Raises :class:`EncodingError` for anything that is not an intact
    version-3 image, and :class:`~repro.errors.TaskFormatError` for an
    intact one whose tasks break a rule of the executable format.
    """
    if len(blob) < _FILE_HEADER.size + _CHECKSUM_BYTES:
        raise EncodingError("image truncated: no file header")
    magic, version, slots, entry, n_tasks = _FILE_HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise EncodingError(f"bad magic {magic:#x}; not a program image")
    if version != _VERSION:
        raise EncodingError(f"unsupported image version {version}")
    end = len(blob) - _CHECKSUM_BYTES
    if hashlib.sha256(memoryview(blob)[:end]).digest() != blob[end:]:
        raise EncodingError("image checksum mismatch (damaged or truncated)")
    if slots != EXIT_SLOTS:
        raise EncodingError(f"{slots} exit slots per task, not {EXIT_SLOTS}")
    columns = {}
    offset = _FILE_HEADER.size
    for column in COLUMNS:
        shape = (n_tasks,) if column in TASK_COLUMNS else (n_tasks, slots)
        count = int(np.prod(shape))
        if offset + count * _COLUMN_DTYPE.itemsize > end:
            raise EncodingError(f"image truncated in column {column}")
        columns[column] = np.frombuffer(
            blob, _COLUMN_DTYPE, count, offset
        ).reshape(shape)
        offset += count * _COLUMN_DTYPE.itemsize
    names = blob[offset:end].decode("utf-8", errors="replace").split("\0")
    if len(names) != n_tasks:
        raise EncodingError(f"{len(names)} task names for {n_tasks} tasks")
    return MultiscalarProgram(name, TaskTable(names, **columns), entry)


def save_program(program: MultiscalarProgram, path: Path | str) -> int:
    """Write ``program`` to a binary image; returns bytes written."""
    blob = encode_program(program)
    Path(path).write_bytes(blob)
    return len(blob)


def load_program(path: Path | str, name: str = "") -> MultiscalarProgram:
    """Read a binary image written by :func:`save_program`."""
    return decode_program(Path(path).read_bytes(), name or str(path))
