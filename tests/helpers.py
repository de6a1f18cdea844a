"""Hand-built miniature programs used across the test suite.

These construct tiny, fully deterministic ProgramCFGs so tests can assert
exact traces and prediction outcomes without depending on the synthetic
generator's sampling. The kill tests also share their fixtures from here:
:func:`run_with_hung_cell` pins a victim run with :func:`hang_forever`,
:func:`kill_process_group` kills it, and :func:`corrupt_file` damages a
record it left behind. The program-image tests compare programs with
:func:`assert_same_program` and damage images at :func:`target_byte_offset`.
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

from repro.cfg.basicblock import BasicBlock, Terminator, TerminatorKind
from repro.cfg.graph import ControlFlowGraph, ProgramCFG
from repro.compiler import PartitionConfig, compile_program
from repro.compiler.compiled import CompiledProgram
from repro.isa.encoding import encode_header
from repro.synth.behavior import ChoiceBehavior, FixedChoice
from repro.synth.executor import TraceExecutor
from repro.synth.trace import TaskTrace
from repro.synth.workloads import Workload
from repro.synth.profiles import BenchmarkProfile, PaperStats


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


def make_workload(
    compiled: CompiledProgram, trace: TaskTrace
) -> Workload:
    """Wrap a compiled program and trace as a Workload for the simulators."""
    profile = BenchmarkProfile(
        name="test",
        seed=0,
        paper=PaperStats("test", 0, 0, 0),
        n_hot_functions=1,
        n_cold_functions=0,
        call_levels=1,
        constructs_per_function=(1, 1),
    )
    return Workload(profile=profile, program=compiled.program, trace=trace)


def assert_same_program(decoded, built):
    """Field-for-field equality, task by task in TFG iteration order."""
    assert decoded.name == built.name
    assert decoded.entry == built.entry
    decoded_tasks, built_tasks = list(decoded.tfg), list(built.tfg)
    assert len(decoded_tasks) == len(built_tasks)
    for restored, original in zip(decoded_tasks, built_tasks):
        assert restored.address == original.address
        assert restored.header == original.header
        assert restored.instruction_count == original.instruction_count
        assert (
            restored.internal_branch_count == original.internal_branch_count
        )
        assert restored.use_mask == original.use_mask
        assert restored.name == original.name


def target_byte_offset(program):
    """(offset, task): a byte inside ``task``'s first exit target field.

    ``task`` is the first task, in image order, whose first exit has a
    compile-time target.

    Walks the v2 layout: a 14-byte file header, then per task a 14-byte
    task header, the name, a 2-byte header width and the header payload,
    whose first exit's target field covers payload bits 23..54.
    """
    offset = 14
    for task in program.tfg:
        payload = offset + 14 + len(task.name.encode("utf-8")) + 2
        if task.header.exits[0].target is not None:
            return payload + 4, task  # payload bits 32..39
        _, width = encode_header(task.header)
        offset = payload + (width + 7) // 8
    raise AssertionError("no task has a first-exit target")


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
