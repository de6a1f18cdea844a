"""A program's task headers as one table (paper §2.1).

The sequencer reads one header per task: the control-flow type of each
exit, the targets the compiler placed there, the return addresses of
call exits, and the create mask. The batched simulators need those facts
for every trace step at once, and the program already stores them that
way: :func:`task_headers` returns its task table
(:class:`repro.isa.table.TaskTable`), columns sorted by task address,
whose :meth:`~repro.isa.table.TaskTable.rows` maps a trace's address
column to table rows with one ``searchsorted``. The stepped predictors
read the task objects themselves.
"""

from __future__ import annotations

from repro.isa.program import MultiscalarProgram
from repro.isa.table import NO_ADDRESS, TaskTable

__all__ = ["NO_ADDRESS", "task_headers"]


def task_headers(program: MultiscalarProgram) -> TaskTable:
    """The program's header table: its task table."""
    return program.table
