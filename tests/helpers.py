"""Hand-built miniature programs used across the test suite.

These construct tiny, fully deterministic ProgramCFGs so tests can assert
exact traces and prediction outcomes without depending on the synthetic
generator's sampling. The kill tests also share their fixtures from here:
:func:`run_with_hung_cell` pins a victim run with :func:`hang_forever`,
:func:`kill_process_group` kills it, and :func:`corrupt_file` damages a
record it left behind. The program-image tests compare programs with
:func:`assert_same_program` and damage images at :func:`column_offset` and
:func:`target_byte_offset`.
:data:`PARTIAL_AT_QUICK` names the claims whose pinned verdict at quick
length is PARTIAL, which the ``pinned`` fixture checks.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import signal
import subprocess
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.cfg.basicblock import BasicBlock, Terminator, TerminatorKind
from repro.cfg.graph import ControlFlowGraph, ProgramCFG
from repro.compiler import PartitionConfig, compile_program
from repro.compiler.compiled import CompiledProgram
from repro.isa.program import MultiscalarProgram
from repro.isa.table import (
    COLUMNS,
    EXIT_SLOTS,
    NO_ADDRESS,
    TASK_COLUMNS,
)
from repro.isa.task import StaticTask, TaskExit, TaskHeader
from repro.synth.behavior import ChoiceBehavior, FixedChoice
from repro.synth.executor import TraceExecutor
from repro.synth.trace import TaskTrace
from repro.synth.workloads import Workload
from repro.synth.profiles import BenchmarkProfile, PaperStats

#: The claims of :mod:`repro.evalx.claims` that are PARTIAL at their quick
#: length (the finding holds, but the measured value lies outside the band
#: the paper states); every other claim is pinned REPRODUCED.
PARTIAL_AT_QUICK = frozenset(
    {"figure8.ttb_poor", "table3.headers_beat_cttb_only", "table4.path_gains"}
)


def block(
    label: str,
    kind: TerminatorKind,
    successors: tuple[str, ...] = (),
    behavior: ChoiceBehavior | None = None,
    callee: str | None = None,
    callees: tuple[str, ...] = (),
    size: int = 4,
) -> BasicBlock:
    """Shorthand BasicBlock constructor."""
    return BasicBlock(
        label=label,
        terminator=Terminator(
            kind=kind,
            successors=successors,
            behavior=behavior,
            callee=callee,
            callees=callees,
        ),
        instruction_count=size,
    )


def straightline_program() -> ProgramCFG:
    """main: entry -> a -> b -> return. No branching at all."""
    cfg = ControlFlowGraph("main", entry_label="main.entry")
    cfg.add_block(block("main.entry", TerminatorKind.JUMP, ("main.a",)))
    cfg.add_block(block("main.a", TerminatorKind.JUMP, ("main.b",)))
    cfg.add_block(block("main.b", TerminatorKind.JUMP, ("main.ret",)))
    cfg.add_block(block("main.ret", TerminatorKind.RETURN))
    program = ProgramCFG(main="main")
    program.add_function(cfg)
    return program


def diamond_program(behavior: ChoiceBehavior | None = None) -> ProgramCFG:
    """main: a cond branch to two arms that re-join then return."""
    behavior = behavior or FixedChoice(0)
    cfg = ControlFlowGraph("main", entry_label="main.entry")
    cfg.add_block(block("main.entry", TerminatorKind.JUMP, ("main.cond",)))
    cfg.add_block(
        block(
            "main.cond",
            TerminatorKind.COND_BRANCH,
            ("main.then", "main.else"),
            behavior=behavior,
        )
    )
    cfg.add_block(block("main.then", TerminatorKind.JUMP, ("main.join",)))
    cfg.add_block(block("main.else", TerminatorKind.JUMP, ("main.join",)))
    cfg.add_block(block("main.join", TerminatorKind.JUMP, ("main.ret",)))
    cfg.add_block(block("main.ret", TerminatorKind.RETURN))
    program = ProgramCFG(main="main")
    program.add_function(cfg)
    return program


def call_program() -> ProgramCFG:
    """main calls f twice; f is a straight line. Exercises CALL/RETURN."""
    main = ControlFlowGraph("main", entry_label="main.entry")
    main.add_block(block("main.entry", TerminatorKind.JUMP, ("main.c1",)))
    main.add_block(
        block("main.c1", TerminatorKind.CALL, ("main.c2",), callee="f")
    )
    main.add_block(
        block("main.c2", TerminatorKind.CALL, ("main.ret",), callee="f")
    )
    main.add_block(block("main.ret", TerminatorKind.RETURN))
    f = ControlFlowGraph("f", entry_label="f.entry")
    f.add_block(block("f.entry", TerminatorKind.JUMP, ("f.ret",)))
    f.add_block(block("f.ret", TerminatorKind.RETURN))
    program = ProgramCFG(main="main")
    program.add_function(main)
    program.add_function(f)
    return program


def switch_program(behavior: ChoiceBehavior, arity: int = 3) -> ProgramCFG:
    """main: an indirect jump over ``arity`` cases, then return."""
    cfg = ControlFlowGraph("main", entry_label="main.entry")
    cases = tuple(f"main.case{i}" for i in range(arity))
    cfg.add_block(block("main.entry", TerminatorKind.JUMP, ("main.sw",)))
    cfg.add_block(
        block(
            "main.sw",
            TerminatorKind.INDIRECT_JUMP,
            cases,
            behavior=behavior,
        )
    )
    for case in cases:
        cfg.add_block(block(case, TerminatorKind.JUMP, ("main.ret",)))
    cfg.add_block(block("main.ret", TerminatorKind.RETURN))
    program = ProgramCFG(main="main")
    program.add_function(cfg)
    return program


def compile_small(
    program: ProgramCFG, max_blocks: int = 8
) -> CompiledProgram:
    """Compile a test program with a given task-size cap."""
    return compile_program(
        program,
        name="test",
        config=PartitionConfig(max_blocks_per_task=max_blocks),
    )


def run_trace(
    compiled: CompiledProgram, n_tasks: int, seed: int = 1
) -> TaskTrace:
    """Execute a compiled test program for ``n_tasks`` records."""
    return TraceExecutor(compiled, seed=seed).run(n_tasks)


_TEST_PROFILE = BenchmarkProfile(
    name="test",
    seed=0,
    paper=PaperStats("test", 0, 0, 0),
    n_hot_functions=1,
    n_cold_functions=0,
    call_levels=1,
    constructs_per_function=(1, 1),
)


def make_workload(
    compiled: CompiledProgram, trace: TaskTrace
) -> Workload:
    """Wrap a compiled program and trace as a Workload for the simulators."""
    return Workload(
        profile=_TEST_PROFILE, program=compiled.program, trace=trace
    )


#: Trace column dtypes, as the executor records them.
_TRACE_DTYPES = {
    "task_addr": np.uint32,
    "exit_index": np.uint8,
    "cf_type": np.uint8,
    "next_addr": np.uint32,
    "instructions": np.uint16,
    "internal_branches": np.uint16,
    "internal_mispredicts": np.uint16,
}


def trace_workload(
    exits_of: dict[int, Sequence[TaskExit]],
    task_addrs: Sequence[int],
    **columns: Sequence[int],
) -> Workload:
    """A Workload over a hand-written trace.

    The program holds one task per ``exits_of`` address, with those
    header exits; ``columns`` gives any other trace column by name, and
    every column not given is zero.
    """
    tasks = [
        StaticTask(address, TaskHeader(tuple(exits)))
        for address, exits in exits_of.items()
    ]
    program = MultiscalarProgram("test", tasks, entry=tasks[0].address)
    columns = dict(columns, task_addr=task_addrs)
    trace = TaskTrace(
        **{
            name: np.array(
                columns.get(name, [0] * len(task_addrs)), dtype=dtype
            )
            for name, dtype in _TRACE_DTYPES.items()
        }
    )
    return Workload(profile=_TEST_PROFILE, program=program, trace=trace)


def assert_same_program(decoded, built):
    """Same name, entry and task table: every column's dtype, shape and
    values, and every task name."""
    assert decoded.name == built.name
    assert decoded.entry == built.entry
    for column in COLUMNS:
        restored = getattr(decoded.table, column)
        original = getattr(built.table, column)
        assert restored.dtype == original.dtype, column
        np.testing.assert_array_equal(restored, original, err_msg=column)
    assert decoded.table.names == built.table.names


def column_offset(program, column, row, slot=0):
    """Image offset of one int64 field: ``column``'s value for ``row``
    (and exit ``slot``, in an exit column) of ``program``'s table.

    Walks the v3 layout: a 16-byte file header, then the int64 columns
    in :data:`repro.isa.table.COLUMNS` order, each ``tasks`` values long,
    or ``tasks`` rows of :data:`EXIT_SLOTS` in an exit column.
    """
    n_tasks = len(program.table)
    offset = 16
    for name in COLUMNS:
        width = 1 if name in TASK_COLUMNS else EXIT_SLOTS
        if name == column:
            return offset + 8 * (row * width + slot)
        offset += 8 * n_tasks * width
    raise AssertionError(f"no column {column!r}")


def target_byte_offset(program):
    """(offset, task): a byte inside ``task``'s first exit target field.

    ``task`` is the first task, in image order, whose first exit has a
    compile-time target; the byte is the field's least significant one.
    """
    targets = program.table.targets[:, 0]
    row = int(np.flatnonzero(targets != NO_ADDRESS)[0])
    return (
        column_offset(program, "targets", row),
        program.task(int(program.table.addrs[row])),
    )


def _live_group_members(pgid: int) -> list[int]:
    """Pids of processes in group ``pgid`` that have not exited (Linux)."""
    live = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            live.append(int(entry.name))
    return live


def kill_process_group(
    leader: subprocess.Popen, timeout: float = 30.0
) -> list[int]:
    """SIGKILL a session leader and every process in its group.

    ``leader`` must have been started with ``start_new_session=True`` so
    its pool workers share its process group and nothing else does.
    Returns the pids still alive once ``timeout`` seconds have passed
    (zombies awaiting their reaper count as dead): empty unless the kill
    left orphans behind.
    """
    try:
        os.killpg(leader.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group already exited
    leader.wait()
    deadline = time.monotonic() + timeout
    while (live := _live_group_members(leader.pid)) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    return live


def hang_forever(**kwargs) -> None:
    """A cell function that never returns: it pins a run for a kill."""
    while True:
        time.sleep(60)


def run_with_hung_cell(
    driver: str, prefix: str, cli: str, argv: Sequence[str]
) -> int:
    """Run ``cli``'s ``main(argv)`` with one cell of ``driver`` hung.

    Runs inside the victim process of a kill test, never in the test
    process itself. Every grid that ``driver``'s ``cells`` builds has
    its first cell whose label starts with ``prefix`` replaced by
    :func:`hang_forever`, so the run cannot finish before the kill
    lands. Pool workers unpickle that function by reference, so the
    repository root must be on the victim's ``PYTHONPATH``.
    """
    module = importlib.import_module(driver)
    build = module.cells

    def cells(*args, **kwargs):
        grid = build(*args, **kwargs)
        for index, cell in enumerate(grid):
            if cell.label.startswith(prefix):
                grid[index] = dataclasses.replace(cell, fn=hang_forever)
                break
        return grid

    module.cells = cells
    return importlib.import_module(cli).main(list(argv))


def hung_cli_command(
    driver: str, prefix: str, cli: str, argv: Sequence[str]
) -> list[str]:
    """The victim's command line: :func:`run_with_hung_cell` in a new
    interpreter, exiting with the CLI's status."""
    call = (
        f"run_with_hung_cell({driver!r}, {prefix!r}, {cli!r}, "
        f"{list(argv)!r})"
    )
    return [
        sys.executable,
        "-c",
        f"import sys; from tests.helpers import run_with_hung_cell; "
        f"sys.exit({call})",
    ]


def corrupt_file(path: str | Path, flip_bytes: int = 16) -> None:
    """Invert ``flip_bytes`` bytes in the middle of a non-empty file.

    Enough to defeat any checksum while keeping the length plausible,
    which is the damage a torn write or a bad sector leaves.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    start = len(data) // 2
    for offset in range(start, min(start + flip_bytes, len(data))):
        data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
