"""The Multiscalar program container: a task table plus an entry point."""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from repro.errors import TaskFormatError
from repro.isa.encoding import header_bits
from repro.isa.table import NO_ADDRESS, TaskTable
from repro.isa.task import StaticTask
from repro.isa.tfg import TaskFlowGraph


class MultiscalarProgram:
    """A complete Multiscalar executable.

    The task table is the program's only storage. The task flow graph
    over :class:`StaticTask` objects, :attr:`tfg`, is built from it on
    first use, for code that steps through tasks one at a time.

    Attributes:
        name: Program label (benchmark name for synthetic workloads).
        table: Every task, one row each (:class:`TaskTable`).
        entry: Start address of the first task executed.
    """

    def __init__(
        self,
        name: str,
        tasks: TaskTable | Iterable[StaticTask],
        entry: int,
    ) -> None:
        self.name = name
        self.table = (
            tasks if isinstance(tasks, TaskTable)
            else TaskTable.from_tasks(tasks)
        )
        if entry not in self.table:
            raise TaskFormatError(
                f"entry address {entry:#x} is not a task start address"
            )
        self.entry = entry

    @functools.cached_property
    def tfg(self) -> TaskFlowGraph:
        """The task flow graph, its tasks built from the table."""
        return TaskFlowGraph(self.table.tasks())

    @property
    def static_task_count(self) -> int:
        """Number of static tasks in the executable (Table 2, 'Static Tasks')."""
        return len(self.table)

    def task(self, address: int) -> StaticTask:
        """Return the static task starting at ``address``, built from its
        table row."""
        if address not in self.table:
            raise TaskFormatError(f"no task at address {address:#x}")
        return self.table.task(int(np.searchsorted(self.table.addrs, address)))

    def __contains__(self, address: int) -> bool:
        return address in self.table

    def total_header_bits(self) -> int:
        """Total encoded size of all task headers, in bits.

        Quantifies the header overhead that the CTTB-only scheme of §5.4
        eliminates.
        """
        table = self.table
        return int(
            header_bits(
                table.n_exits,
                (table.targets != NO_ADDRESS).sum(axis=1),
                (table.return_addrs != NO_ADDRESS).sum(axis=1),
            ).sum()
        )

    def exit_arity_histogram(self) -> dict[int, int]:
        """Static histogram {n_exits: task count} (Figure 3, 'static' bars)."""
        counts = np.bincount(self.table.n_exits).tolist()
        return {n_exits: count for n_exits, count in enumerate(counts) if count}
