"""A program's tasks as one table (paper §2.1).

The sequencer reads one fixed-format header per task: the control-flow
type of each exit, the targets the compiler placed there, the return
addresses of call exits, and the create mask. :class:`TaskTable` holds
those facts, and the rest of each task's static description, as int64
columns with one row per task in address order. A program stores
nothing else: its image holds the columns as they are
(:mod:`repro.isa.image`), the batched simulators read them directly,
and :meth:`TaskTable.tasks` builds :class:`~repro.isa.task.StaticTask`
objects for code that steps through tasks one at a time. Building a
table runs every check the task objects run, over whole columns at
once, and raises the same :class:`TaskFormatError`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from operator import itemgetter

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import SimulationError, TaskFormatError
from repro.isa.controlflow import (
    CF_TYPE_FROM_CODE,
    MAX_EXITS_PER_TASK,
    ControlFlowType,
)
from repro.isa.task import ADDRESS_MASK, StaticTask, TaskExit, TaskHeader
from repro.utils.memo import DerivedColumnCache, int64_column

#: An exit's absent header address: only BRANCH and CALL exits carry a
#: target, and only call exits a return address.
NO_ADDRESS = -1

#: Exit slots per row: the most exits a header may list.
EXIT_SLOTS = MAX_EXITS_PER_TASK

#: Columns of one value per task, then columns of one row of
#: :data:`EXIT_SLOTS` values per task; in this order in an image.
TASK_COLUMNS = (
    "addrs", "instruction_count", "internal_branches", "use_mask",
    "create_mask", "n_exits",
)
EXIT_COLUMNS = ("cf_codes", "targets", "return_addrs")
COLUMNS = TASK_COLUMNS + EXIT_COLUMNS

_CODES = tuple(CF_TYPE_FROM_CODE)
_TARGET_CODES = (ControlFlowType.BRANCH.code, ControlFlowType.CALL.code)
_CALL_CODES = (ControlFlowType.CALL.code, ControlFlowType.INDIRECT_CALL.code)

#: Rows and exit counts per (trace address column, table).
_COLUMNS = DerivedColumnCache()

#: A task as :meth:`TaskTable.from_rows` takes it: its first five
#: :data:`TASK_COLUMNS` values, its name, and its exits as
#: ``(cf_code, target, return_address)`` triples.
TaskRow = tuple[int, int, int, int, int, str, Sequence[tuple[int, int, int]]]


def _address(value: int | None) -> int:
    return NO_ADDRESS if value is None else value


def _optional(value: int) -> int | None:
    return None if value == NO_ADDRESS else value


def _fits(column: np.ndarray) -> np.ndarray:
    return (column >= 0) & (column <= ADDRESS_MASK)


def _static_task(
    address: int, count: int, branches: int, use_mask: int,
    create_mask: int, n_exits: int, codes: list[int], targets: list[int],
    returns: list[int], name: str,
) -> StaticTask:
    """One table row, as Python values in :data:`COLUMNS` order and its
    name, as a :class:`StaticTask`."""
    exits = tuple(
        TaskExit(CF_TYPE_FROM_CODE[code], _optional(target),
                 _optional(return_address))
        for code, target, return_address in zip(
            codes[:n_exits], targets[:n_exits], returns[:n_exits]
        )
    )
    return StaticTask(address, TaskHeader(exits, create_mask), count,
                      branches, use_mask, name)


class TaskTable:
    """Every static task of a program, one row per task in address order.

    Every column is a read-only int64 array. An exit column holds one row
    of :data:`EXIT_SLOTS` values per task: :data:`NO_ADDRESS` where an
    address is absent, and code 0 and no address in a spare slot, past
    the task's last exit.
    """

    addrs: np.ndarray
    instruction_count: np.ndarray
    internal_branches: np.ndarray
    use_mask: np.ndarray
    create_mask: np.ndarray
    n_exits: np.ndarray
    cf_codes: np.ndarray
    targets: np.ndarray
    return_addrs: np.ndarray
    names: tuple[str, ...]

    def __init__(self, names: Sequence[str], **columns: ArrayLike) -> None:
        for name in COLUMNS:
            column = np.asarray(columns[name], dtype=np.int64)
            column.flags.writeable = False
            setattr(self, name, column)
        self.names = tuple(names)
        self._check()

    @classmethod
    def from_rows(cls, rows: Iterable[TaskRow]) -> TaskTable:
        """The table of ``rows``, in any order (see :data:`TaskRow`)."""
        ordered = sorted(rows, key=itemgetter(0))
        *values, names, exits = zip(*ordered) if ordered else [()] * 7
        n = len(ordered)
        n_exits = np.fromiter(map(len, exits), np.int64, n)
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(exits)), np.int64
        ).reshape(-1, 3)
        task_of = np.repeat(np.arange(n), n_exits)
        slot = np.arange(len(flat)) - (np.cumsum(n_exits) - n_exits)[task_of]
        # A header with too many exits keeps its count, which the checks
        # reject, and the exits that fit.
        fits = slot < EXIT_SLOTS
        columns: dict[str, ArrayLike] = dict(zip(TASK_COLUMNS, values))
        columns["n_exits"] = n_exits
        for field, name in enumerate(EXIT_COLUMNS):
            fill = 0 if name == "cf_codes" else NO_ADDRESS
            column = np.full((n, EXIT_SLOTS), fill, dtype=np.int64)
            column[task_of[fits], slot[fits]] = flat[fits, field]
            columns[name] = column
        return cls(names, **columns)

    @classmethod
    def from_tasks(cls, tasks: Iterable[StaticTask]) -> TaskTable:
        """The table of ``tasks``, in any order."""
        return cls.from_rows(
            (
                task.address, task.instruction_count,
                task.internal_branch_count, task.use_mask,
                task.header.create_mask, task.name,
                [
                    (e.cf_type.code, _address(e.target),
                     _address(e.return_address))
                    for e in task.header.exits
                ],
            )
            for task in tasks
        )

    def task(self, row: int) -> StaticTask:
        """Row ``row`` as a :class:`StaticTask`."""
        return _static_task(
            *(getattr(self, c)[row].tolist() for c in COLUMNS),
            self.names[row],
        )

    def tasks(self) -> list[StaticTask]:
        """Every row as a :class:`StaticTask`, in row order."""
        return [
            _static_task(*row)
            for row in zip(
                *(getattr(self, c).tolist() for c in COLUMNS), self.names
            )
        ]

    def _check(self) -> None:
        """Every rule :class:`TaskExit`, :class:`TaskHeader` and
        :class:`StaticTask` check, on every row at once; and that the
        addresses strictly increase, so none repeats."""
        addrs, n_exits, codes = self.addrs, self.n_exits, self.cf_codes
        increasing = np.ones(len(addrs), dtype=bool)
        increasing[1:] = addrs[1:] > addrs[:-1]
        spare = np.arange(EXIT_SLOTS) >= n_exits[:, None]
        has_target = self.targets != NO_ADDRESS
        has_return = self.return_addrs != NO_ADDRESS
        rules = {
            "task addresses must strictly increase": increasing,
            "task address beyond 32 bits": _fits(addrs),
            "a task executes at least one instruction":
                self.instruction_count >= 1,
            "internal branch count must be >= 0": self.internal_branches >= 0,
            "use mask must be non-negative": self.use_mask >= 0,
            "create mask must be non-negative": self.create_mask >= 0,
            f"a task header must have 1..{EXIT_SLOTS} exits":
                (n_exits >= 1) & (n_exits <= EXIT_SLOTS),
            "unknown control-flow type": spare | np.isin(codes, _CODES),
            "a spare exit slot must be empty":
                ~spare | ((codes == 0) & ~has_target & ~has_return),
            "BRANCH and CALL exits, and only they, carry a target":
                spare | (has_target == np.isin(codes, _TARGET_CODES)),
            "call exits, and only they, carry a return address":
                spare | (has_return == np.isin(codes, _CALL_CODES)),
            "target beyond 32 bits": ~has_target | _fits(self.targets),
            "return address beyond 32 bits":
                ~has_return | _fits(self.return_addrs),
        }
        for message, ok in rules.items():
            self._require(ok, message)

    def _require(self, ok: np.ndarray, message: str) -> None:
        """Raise :class:`TaskFormatError` at the first row ``ok`` fails."""
        bad = np.flatnonzero(~(ok if ok.ndim == 1 else ok.all(axis=1)))
        if bad.size:
            raise TaskFormatError(
                f"task {int(self.addrs[bad[0]]):#x}: {message}"
            )

    def check_static_arcs(self) -> None:
        """Check that every header target is a task start address (the
        arcs of returns and indirect exits are only known at run time)."""
        _, known = self.lookup(self.targets)
        self._require(
            known | (self.targets == NO_ADDRESS),
            "a header target is not a task start address",
        )

    def __len__(self) -> int:
        return len(self.addrs)

    def __contains__(self, address: int) -> bool:
        row = int(np.searchsorted(self.addrs, address))
        return row < len(self.addrs) and int(self.addrs[row]) == address

    def lookup(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, known)`` per address; ``row`` is clamped where no task
        starts at the address."""
        rows = np.minimum(
            np.searchsorted(self.addrs, addrs), len(self.addrs) - 1
        )
        return rows, self.addrs[rows] == addrs

    def rows(self, task_addrs: np.ndarray) -> np.ndarray:
        """Table row of every step of a trace address column.

        Memoised per column, so the result is shared: do not mutate it.
        Raises :class:`SimulationError` if the trace references a task
        the program does not define.
        """
        return _COLUMNS.get(
            (task_addrs, self), "rows", lambda: self._rows(task_addrs)
        )

    def _rows(self, task_addrs: np.ndarray) -> np.ndarray:
        addrs = int64_column(task_addrs)
        rows, known = self.lookup(addrs)
        unknown = np.flatnonzero(~known)
        if unknown.size:
            raise SimulationError(
                f"trace references unknown task {int(addrs[unknown[0]]):#x}"
            )
        return rows

    def n_exits_column(self, task_addrs: np.ndarray) -> np.ndarray:
        """Header-exit count of every step of a trace address column.

        One shared object per (program, column), which the replays that
        key on its identity rely on: do not mutate it. Raises like
        :meth:`rows`.
        """
        return _COLUMNS.get(
            (task_addrs, self),
            "n-exits",
            lambda: self.n_exits[self.rows(task_addrs)],
        )
