"""The task flow graph (TFG) — tasks at nodes, inter-task control flow on arcs.

"At a high level, program execution may be viewed as traversing a task flow
graph. [...] A TFG is analogous to a control flow graph built from a scalar
executable" (paper §2.1, Figure 1). Arcs for BRANCH/CALL exits are known
statically from headers; RETURN and INDIRECT_* arcs are discovered
dynamically, so the TFG supports adding observed arcs after construction.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator

from repro.errors import TaskFormatError
from repro.isa.table import TaskTable
from repro.isa.task import StaticTask


class TaskFlowGraph:
    """A directed graph over static tasks, keyed by task start address."""

    def __init__(self, tasks: Iterable[StaticTask] = ()) -> None:
        self._tasks: dict[int, StaticTask] = {}
        self._dynamic_arcs: dict[int, set[int]] = defaultdict(set)
        for task in tasks:
            self.add_task(task)

    def add_task(self, task: StaticTask) -> None:
        """Add a static task; its header's known targets are static arcs."""
        if task.address in self._tasks:
            raise TaskFormatError(
                f"duplicate task at address {task.address:#x}"
            )
        self._tasks[task.address] = task

    def __contains__(self, address: int) -> bool:
        return address in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[StaticTask]:
        return iter(self._tasks.values())

    def task(self, address: int) -> StaticTask:
        """Return the task starting at ``address``."""
        try:
            return self._tasks[address]
        except KeyError:
            raise TaskFormatError(f"no task at address {address:#x}") from None

    def addresses(self) -> list[int]:
        """All task start addresses, sorted."""
        return sorted(self._tasks)

    def record_dynamic_arc(self, source: int, target: int) -> None:
        """Record an observed inter-task transfer (return/indirect arcs)."""
        if source not in self._tasks:
            raise TaskFormatError(f"arc source {source:#x} is not a task")
        self._dynamic_arcs[source].add(target)

    def successors(self, address: int) -> set[int]:
        """All known successors of a task: static arcs plus observed arcs."""
        return self.static_successors(address) | self._dynamic_arcs[address]

    def static_successors(self, address: int) -> set[int]:
        """Successors known from the header alone."""
        return set(self.task(address).static_targets())

    def validate(self) -> None:
        """Check that every static arc points at a known task.

        Dynamic arcs may legitimately point outside the graph while it is
        still being discovered, so only static arcs are checked, by
        :meth:`TaskTable.check_static_arcs`.
        """
        TaskTable.from_tasks(self).check_static_arcs()
