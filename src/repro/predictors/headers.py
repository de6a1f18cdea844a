"""A program's task headers as one table (paper §2.1).

The sequencer reads one header per task: the control-flow type of each
exit, the targets the compiler placed there, the return addresses of
call exits, and the create mask. The batched simulators need those facts
for every trace step at once, so :func:`task_headers` flattens a
program's headers into columns sorted by task address, once per
program, and :meth:`TaskHeaders.rows` maps a trace's address column to
table rows with one ``searchsorted``. The stepped predictors read the
task objects themselves.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import SimulationError
from repro.isa.program import MultiscalarProgram
from repro.utils.memo import DerivedColumnCache, int64_column

#: An exit's absent header address: only RETURN and indirect exits lack
#: a target, and only call exits carry a return address.
NO_ADDRESS = -1

#: One table per program.
_TABLES = DerivedColumnCache()
#: Rows and exit counts per (trace address column, table).
_COLUMNS = DerivedColumnCache()


class TaskHeaders:
    """Every static task's header facts, one row per task in address order.

    ``addrs``, ``n_exits``, ``create_mask`` and ``use_mask`` hold one
    value per task; ``cf_codes``, ``targets`` and ``return_addrs`` one
    column per exit slot, with :data:`NO_ADDRESS` for an absent address
    and past a task's last exit.
    """

    __slots__ = (
        "addrs", "n_exits", "cf_codes", "targets", "return_addrs",
        "create_mask", "use_mask", "__weakref__",
    )

    def __init__(self, program: MultiscalarProgram) -> None:
        tasks = sorted(program.tfg, key=lambda task: task.address)

        def column(values: Iterable[int]) -> np.ndarray:
            return np.fromiter(values, dtype=np.int64)

        self.addrs = column(task.address for task in tasks)
        self.n_exits = column(len(task.header.exits) for task in tasks)
        self.create_mask = column(task.header.create_mask for task in tasks)
        self.use_mask = column(task.use_mask for task in tasks)
        # One flat pass over every exit, scattered into the 2-D columns
        # with a single fancy-indexed store per column.
        flat = [e for task in tasks for e in task.header.exits]
        rows = np.repeat(np.arange(len(tasks)), self.n_exits)
        row_starts = np.cumsum(self.n_exits) - self.n_exits
        cols = np.arange(len(flat)) - row_starts[rows]
        shape = (len(tasks), int(self.n_exits.max()))
        self.cf_codes = np.zeros(shape, dtype=np.int64)
        self.cf_codes[rows, cols] = column(
            e.cf_type.code for e in flat
        )
        self.targets = np.full(shape, NO_ADDRESS, dtype=np.int64)
        self.targets[rows, cols] = column(
            NO_ADDRESS if e.target is None else e.target for e in flat
        )
        self.return_addrs = np.full(shape, NO_ADDRESS, dtype=np.int64)
        self.return_addrs[rows, cols] = column(
            NO_ADDRESS if e.return_address is None else e.return_address
            for e in flat
        )

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


def task_headers(program: MultiscalarProgram) -> TaskHeaders:
    """The program's header table, built once per program."""
    return _TABLES.get(
        (program,), "task-headers", lambda: TaskHeaders(program)
    )
