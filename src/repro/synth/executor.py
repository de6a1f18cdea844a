"""Trace execution: run a compiled program and emit a task-level trace.

The executor interprets the compiler's block table
(:attr:`repro.compiler.compiled.CompiledProgram.table`), consulting each
decision point's behaviour model, and emits one
:class:`repro.synth.trace.TaskTrace` record every time control crosses a
task boundary. It also runs the intra-task bimodal predictor of §2.2
over internal conditional branches, recording per-task-execution
mispredict counts for the timing simulator.

The program never terminates on its own: when ``main`` returns, the executor
re-enters it (a driver loop), so traces of any length can be produced.
"""

from __future__ import annotations

from repro.cfg.basicblock import TerminatorKind
from repro.compiler.compiled import CompiledProgram
from repro.errors import SimulationError
from repro.isa.controlflow import ControlFlowType
from repro.synth.behavior import HISTORY_BITS, BehaviorContext
from repro.synth.trace import TaskTrace, TraceBuilder
from repro.utils.hashing import mix_hash
from repro.utils.rng import DeterministicRng

_JUMP = TerminatorKind.JUMP
_COND = TerminatorKind.COND_BRANCH
_CALL = TerminatorKind.CALL
_RETURN = TerminatorKind.RETURN
_IJUMP = TerminatorKind.INDIRECT_JUMP

_CF_BRANCH = ControlFlowType.BRANCH.code
_CF_CALL = ControlFlowType.CALL.code
_CF_RETURN = ControlFlowType.RETURN.code
_CF_IBRANCH = ControlFlowType.INDIRECT_BRANCH.code
_CF_ICALL = ControlFlowType.INDIRECT_CALL.code

_HISTORY_MASK = (1 << HISTORY_BITS) - 1


class TraceExecutor:
    """Executes a :class:`CompiledProgram` to produce task traces."""

    def __init__(
        self,
        compiled: CompiledProgram,
        seed: int = 0,
        phase_period: int = 20_000,
        record_dynamic_arcs: bool = False,
    ) -> None:
        self._compiled = compiled
        self._seed = seed
        self._phase_period = phase_period
        self._record_dynamic_arcs = record_dynamic_arcs

    def run(self, max_tasks: int) -> TaskTrace:
        """Execute until ``max_tasks`` task records have been emitted."""
        if max_tasks < 1:
            raise SimulationError("trace length must be >= 1")
        compiled = self._compiled
        table = compiled.table
        program = compiled.program
        ctx = BehaviorContext(
            rng=DeterministicRng(self._seed).fork("executor"),
            phase_period=self._phase_period,
        )
        builder = TraceBuilder(program_name=program.name)
        (
            append_task_addr, append_exit_index, append_cf_type,
            append_next_addr, append_instructions, append_branches,
            append_misses,
        ) = (column.append for column in builder.columns)
        note_task = ctx.task_window.append
        # The intra-task bimodal counter of every block, by block id.
        bimodal = [1] * len(table)
        tfg = program.tfg if self._record_dynamic_arcs else None

        main_entry = compiled.entry_block("main")
        # Call stack entries: (return block, saved_context_hash,
        # saved_loop_counters).
        stack: list[tuple] = []
        block = main_entry
        n_records = 0
        acc_insns = 0
        acc_branches = 0
        acc_misses = 0

        while n_records < max_tasks:
            acc_insns += block.instruction_count
            kind = block.kind
            if kind is _COND:
                # A block's kind guarantees its behaviour; its type
                # cannot say so.
                choice = block.behavior.choose(  # type: ignore[union-attr]
                    ctx, block.label
                )
                taken = choice == 0
                # BehaviorContext.note_branch_outcome, inlined.
                ctx.recent_outcomes = (
                    (ctx.recent_outcomes << 1) | taken
                ) & _HISTORY_MASK
                exit_index = block.successor_exit_index[choice]
                next_block = table[block.successors[choice]]
                if exit_index is None and block.is_internal_branch:
                    acc_branches += 1
                    counter = bimodal[block.id]
                    if (counter >= 2) != taken:
                        acc_misses += 1
                    bimodal[block.id] = (
                        min(3, counter + 1) if taken else max(0, counter - 1)
                    )
                cf_code = _CF_BRANCH
            elif kind is _JUMP:
                exit_index = block.successor_exit_index[0]
                next_block = table[block.successors[0]]
                cf_code = _CF_BRANCH
            elif kind is _RETURN:
                exit_index = block.terminator_exit_index
                cf_code = _CF_RETURN
                if stack:
                    next_block, ctx.context_hash, ctx.loop_counters = (
                        stack.pop()
                    )
                    ctx.call_depth -= 1
                else:
                    # main returned: the driver re-enters it.
                    next_block = main_entry
                    ctx.context_hash = 0
                    ctx.loop_counters = {}
            elif kind is _IJUMP:
                choice = block.behavior.choose(  # type: ignore[union-attr]
                    ctx, block.label
                )
                exit_index = block.terminator_exit_index
                cf_code = _CF_IBRANCH
                next_block = table[block.successors[choice]]
            else:  # CALL or INDIRECT_CALL
                if kind is _CALL:
                    next_block = table[block.callees[0]]
                    cf_code = _CF_CALL
                else:
                    choice = block.behavior.choose(  # type: ignore[union-attr]
                        ctx, block.label
                    )
                    next_block = table[block.callees[choice]]
                    cf_code = _CF_ICALL
                exit_index = block.terminator_exit_index
                stack.append(
                    (
                        table[block.successors[0]],
                        ctx.context_hash,
                        ctx.loop_counters,
                    )
                )
                ctx.context_hash = mix_hash(ctx.context_hash, block.call_hash)
                ctx.loop_counters = {}
                ctx.call_depth += 1

            if exit_index is None:  # an arc inside the task
                if next_block.task_address != block.task_address:
                    raise SimulationError(
                        f"internal arc {block.label!r} -> "
                        f"{next_block.label!r} crosses a task boundary"
                    )
                block = next_block
                continue
            task_addr = block.task_address
            next_task_addr = next_block.task_address
            note_task(task_addr)
            append_task_addr(task_addr)
            append_exit_index(exit_index)
            append_cf_type(cf_code)
            append_next_addr(next_task_addr)
            append_instructions(acc_insns)
            append_branches(acc_branches)
            append_misses(acc_misses)
            n_records += 1
            if tfg is not None:
                tfg.record_dynamic_arc(task_addr, next_task_addr)
            acc_insns = 0
            acc_branches = 0
            acc_misses = 0
            block = next_block

        return builder.build()
