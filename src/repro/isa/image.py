"""Binary program images: save/load Multiscalar executables.

A small container format (magic, version, entry point, task table) whose
per-task payload is the *actual header encoding* of
:mod:`repro.isa.encoding` — so an image's size reflects real header
overhead, and a program round-trips bit-exactly through a file. Tasks are
stored in task-flow-graph iteration order, so a decoded program iterates
its tasks as the encoded one did.

Layout (little-endian), format version 2:

```
u32 magic 'MSCX'   u16 version   u32 entry   u32 task_count
per task:
    u32 address    u32 instruction_count    u16 internal_branches
    u16 use_mask   u16 name_length          name bytes (utf-8)
    u16 header_bits                         header payload bytes
32 bytes: SHA-256 of every byte before it
```

The trailer makes any damaged or truncated image an :class:`EncodingError`
on load rather than a silently different program.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

from repro.errors import EncodingError
from repro.isa.encoding import decode_header, encode_header
from repro.isa.program import MultiscalarProgram
from repro.isa.task import StaticTask

_MAGIC = 0x4D534358  # 'MSCX'
_VERSION = 2
_FILE_HEADER = struct.Struct("<IHII")
_TASK_HEADER = struct.Struct("<IIHHH")
_BITS_FIELD = struct.Struct("<H")
_CHECKSUM_BYTES = hashlib.sha256().digest_size


def encode_program(program: MultiscalarProgram) -> bytes:
    """``program`` as image bytes, checksum trailer included."""
    chunks = [
        _FILE_HEADER.pack(
            _MAGIC, _VERSION, program.entry, program.static_task_count
        )
    ]
    for task in program.tfg:
        name_bytes = task.name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise EncodingError(f"task name too long: {task.name[:40]}...")
        chunks.append(
            _TASK_HEADER.pack(
                task.address,
                task.instruction_count,
                task.internal_branch_count,
                task.use_mask,
                len(name_bytes),
            )
        )
        chunks.append(name_bytes)
        value, width = encode_header(task.header)
        chunks.append(_BITS_FIELD.pack(width))
        chunks.append(value.to_bytes((width + 7) // 8, "little"))
    body = b"".join(chunks)
    return body + hashlib.sha256(body).digest()


def decode_program(blob: bytes, name: str) -> MultiscalarProgram:
    """The program an :func:`encode_program` blob holds, named ``name``.

    Raises :class:`EncodingError` for anything that is not an intact
    version-2 image.
    """
    if len(blob) < _FILE_HEADER.size + _CHECKSUM_BYTES:
        raise EncodingError("image truncated: no file header")
    magic, version, entry, task_count = _FILE_HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise EncodingError(f"bad magic {magic:#x}; not a program image")
    if version != _VERSION:
        raise EncodingError(f"unsupported image version {version}")
    end = len(blob) - _CHECKSUM_BYTES
    if hashlib.sha256(blob[:end]).digest() != blob[end:]:
        raise EncodingError("image checksum mismatch (damaged or truncated)")
    cursor = _FILE_HEADER.size
    tasks: list[StaticTask] = []
    for _ in range(task_count):
        try:
            (
                address, instruction_count, internal_branches,
                use_mask, name_length,
            ) = _TASK_HEADER.unpack_from(blob, cursor)
            cursor += _TASK_HEADER.size
            task_name = blob[cursor:cursor + name_length].decode(
                "utf-8", errors="replace"
            )
            cursor += name_length
            (width,) = _BITS_FIELD.unpack_from(blob, cursor)
            cursor += _BITS_FIELD.size
            n_bytes = (width + 7) // 8
            value = int.from_bytes(
                blob[cursor:cursor + n_bytes], "little"
            )
            cursor += n_bytes
        except struct.error as error:
            raise EncodingError(f"image truncated: {error}") from None
        tasks.append(
            StaticTask(
                address=address,
                header=decode_header(value, width),
                instruction_count=instruction_count,
                internal_branch_count=internal_branches,
                use_mask=use_mask,
                name=task_name,
            )
        )
    if cursor != end:
        raise EncodingError(
            f"{end - cursor} trailing bytes after the task table"
        )
    return MultiscalarProgram(name=name, tasks=tasks, entry=entry)


def save_program(program: MultiscalarProgram, path: Path | str) -> int:
    """Write ``program`` to a binary image; returns bytes written."""
    blob = encode_program(program)
    Path(path).write_bytes(blob)
    return len(blob)


def load_program(path: Path | str, name: str = "") -> MultiscalarProgram:
    """Read a binary image written by :func:`save_program`."""
    return decode_program(Path(path).read_bytes(), name or str(path))
