"""Hand-built miniature programs used across the test suite.

These construct tiny, fully deterministic ProgramCFGs so tests can assert
exact traces and prediction outcomes without depending on the synthetic
generator's sampling. The kill tests also share :func:`kill_process_group`
from here.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path

from repro.cfg.basicblock import BasicBlock, Terminator, TerminatorKind
from repro.cfg.graph import ControlFlowGraph, ProgramCFG
from repro.compiler import PartitionConfig, compile_program
from repro.compiler.compiled import CompiledProgram
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
    return Workload(profile=profile, compiled=compiled, trace=trace)


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
