"""Multiscalar ISA model: tasks, headers, exits, and the task flow graph.

This package models the executable format described in §2.1 of the paper:
a Multiscalar executable is a set of *tasks* — encapsulated groups of
instructions with arbitrary internal control flow — each carrying a *task
header* that lists up to four exits. Every exit names its control-flow type
(Table 1 of the paper), an optional compiler-known target address, and an
optional return address for call-type exits. A program stores its tasks
as one :class:`TaskTable`, from which the task objects are built on request.
"""

from repro.isa.controlflow import (
    ControlFlowType,
    MAX_EXITS_PER_TASK,
    is_call_type,
    is_indirect_type,
    target_known_at_compile_time,
)
from repro.isa.encoding import EXIT_SPECIFIER_BITS, header_size_bits
from repro.isa.image import load_program, save_program
from repro.isa.program import MultiscalarProgram
from repro.isa.table import TaskTable
from repro.isa.task import StaticTask, TaskExit, TaskHeader
from repro.isa.tfg import TaskFlowGraph

__all__ = [
    "ControlFlowType",
    "MAX_EXITS_PER_TASK",
    "is_call_type",
    "is_indirect_type",
    "target_known_at_compile_time",
    "EXIT_SPECIFIER_BITS",
    "header_size_bits",
    "StaticTask",
    "TaskExit",
    "TaskHeader",
    "TaskFlowGraph",
    "TaskTable",
    "MultiscalarProgram",
    "save_program",
    "load_program",
]
