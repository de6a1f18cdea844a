"""Task-level execution traces.

A :class:`TaskTrace` is the record of one program run at task granularity:
for every dynamically executed task, which task it was, which header exit it
took, the exit's control-flow type, the next task's start address, and the
intra-task cost figures the timing simulator consumes. Storage is columnar
(numpy arrays) because the prediction simulators stream over hundreds of
thousands of records.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.errors import TraceError
from repro.isa.controlflow import CF_TYPE_CODES, CF_TYPE_FROM_CODE

__all__ = [
    "CF_TYPE_CODES", "CF_TYPE_FROM_CODE", "TaskTrace", "TraceBuilder",
]


def _columns_digest(arrays: dict, program_name: str) -> str:
    """SHA-256 over every column's name, dtype, shape, and bytes."""
    import hashlib

    digest = hashlib.sha256()
    digest.update(program_name.encode("utf-8"))
    for name in _FIELDS:
        column = np.asarray(arrays[name])
        digest.update(
            f"\n{name}:{column.dtype.str}:{column.shape}\n".encode("utf-8")
        )
        digest.update(column.tobytes())
    return digest.hexdigest()


_FIELDS = (
    "task_addr",
    "exit_index",
    "cf_type",
    "next_addr",
    "instructions",
    "internal_branches",
    "internal_mispredicts",
)
_DTYPES = {
    "task_addr": np.uint32,
    "exit_index": np.uint8,
    "cf_type": np.uint8,
    "next_addr": np.uint32,
    "instructions": np.uint16,
    "internal_branches": np.uint16,
    "internal_mispredicts": np.uint16,
}


@dataclass(frozen=True)
class TaskTrace:
    """Columnar task-level trace of one program execution.

    Attributes:
        task_addr: Start address of each executed task (uint32).
        exit_index: Header exit index taken, 0..3 (uint8).
        cf_type: Control-flow type code of the taken exit (uint8, see
            :data:`CF_TYPE_CODES`).
        next_addr: Start address of the following task (uint32).
        instructions: Instructions retired by this task execution (uint16).
        internal_branches: Intra-task conditional branches resolved (uint16).
        internal_mispredicts: Of those, how many the intra-task bimodal
            predictor missed (uint16).
        program_name: Name of the program that produced the trace.
    """

    task_addr: np.ndarray
    exit_index: np.ndarray
    cf_type: np.ndarray
    next_addr: np.ndarray
    instructions: np.ndarray
    internal_branches: np.ndarray
    internal_mispredicts: np.ndarray
    program_name: str = ""

    def __post_init__(self) -> None:
        length = len(self.task_addr)
        for name in _FIELDS:
            if len(getattr(self, name)) != length:
                raise TraceError(
                    f"trace column {name!r} has mismatched length"
                )

    def __len__(self) -> int:
        return len(self.task_addr)

    @property
    def dynamic_task_count(self) -> int:
        """Number of dynamic task executions (Table 2, 'Dynamic Tasks')."""
        return len(self)

    def distinct_tasks_seen(self) -> int:
        """Number of distinct static tasks executed (Table 2)."""
        return int(np.unique(self.task_addr).size)

    def total_instructions(self) -> int:
        """Instructions retired across the whole trace."""
        return int(self.instructions.sum(dtype=np.int64))

    def head(self, n: int) -> "TaskTrace":
        """Return a trace containing only the first ``n`` records."""
        if n < 0:
            raise TraceError("head length must be >= 0")
        return TaskTrace(
            **{name: getattr(self, name)[:n] for name in _FIELDS},
            program_name=self.program_name,
        )

    def save(self, path: Path | str | BinaryIO) -> None:
        """Save the trace as an uncompressed .npz to a path or binary file.

        Uncompressed, a 200k-task trace writes in about a hundredth of a
        second instead of a tenth and loads in half the time, for a file
        ten times larger (16 bytes per task). The file embeds a SHA-256
        checksum over every column, so a record damaged after its atomic
        publication (bad sector, torn copy, deliberate corruption in a
        test) is detected at load time instead of silently feeding wrong
        data to a simulator.
        """
        arrays = {name: getattr(self, name) for name in _FIELDS}
        np.savez(
            path,
            program_name=np.array(self.program_name),
            checksum=np.array(_columns_digest(arrays, self.program_name)),
            **arrays,
        )

    @classmethod
    def load(cls, path: Path | str) -> "TaskTrace":
        """Load a trace previously written by :meth:`save`.

        Raises :class:`~repro.errors.TraceError` when the embedded
        checksum does not match the loaded columns (files written
        before checksums existed load unverified). The trace cache
        treats that as a miss and regenerates.
        """
        with np.load(Path(path)) as data:
            missing = [name for name in _FIELDS if name not in data]
            if missing:
                raise TraceError(f"trace file missing columns: {missing}")
            arrays = {name: data[name] for name in _FIELDS}
            program_name = str(data["program_name"])
            if "checksum" in data:
                stored = str(data["checksum"])
                computed = _columns_digest(arrays, program_name)
                if stored != computed:
                    raise TraceError(
                        f"trace file {path} checksum mismatch "
                        f"({computed[:12]}... != {stored[:12]}...): "
                        "file damaged after write"
                    )
            return cls(**arrays, program_name=program_name)


class TraceBuilder:
    """Accumulates trace records and freezes them into a :class:`TaskTrace`.

    :attr:`columns` holds one list per trace column, in field order
    (``task_addr``, ``exit_index``, ``cf_type``, ``next_addr``,
    ``instructions``, ``internal_branches``, ``internal_mispredicts``).
    The executor appends to them directly, through bound ``append``
    methods, so recording a task costs no method call of this class.
    :meth:`build` saturates the three uint16 columns at 0xFFFF.
    """

    def __init__(self, program_name: str = "") -> None:
        self.program_name = program_name
        self.columns: tuple[list[int], ...] = tuple([] for _ in _FIELDS)

    def __len__(self) -> int:
        return len(self.columns[0])

    def append(
        self,
        task_addr: int,
        exit_index: int,
        cf_type_code: int,
        next_addr: int,
        instructions: int,
        internal_branches: int,
        internal_mispredicts: int,
    ) -> None:
        """Append one task-execution record."""
        record = (
            task_addr, exit_index, cf_type_code, next_addr, instructions,
            internal_branches, internal_mispredicts,
        )
        for column, value in zip(self.columns, record):
            column.append(value)

    def build(self) -> TaskTrace:
        """Freeze the accumulated records into an immutable trace."""
        arrays = {}
        for name, column in zip(_FIELDS, self.columns):
            dtype = _DTYPES[name]
            if dtype is np.uint16 and column and max(column) > 0xFFFF:
                column = [min(value, 0xFFFF) for value in column]
            arrays[name] = np.array(column, dtype=dtype)
        return TaskTrace(**arrays, program_name=self.program_name)
