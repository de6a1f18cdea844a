"""Compiled-program structures shared by the compiler and the executor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cfg.basicblock import TerminatorKind
from repro.errors import TaskFormatError
from repro.isa.program import MultiscalarProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.synth.behavior import ChoiceBehavior


@dataclass(slots=True)
class CompiledBlock:
    """One row of the block table: a basic block after task assignment
    and address layout, in the form the trace executor runs.

    A block refers to other blocks by id (its position in
    :attr:`CompiledProgram.table`), never by object, so the table holds
    no reference cycles and is freed as soon as it is dropped.

    Attributes:
        id: Position of this block in the table.
        label: Globally unique block label; behaviours key their
            per-site state by it.
        address: Byte address of the block's first instruction.
        task_address: Start address of the task containing this block.
        instruction_count: Instructions retired when the block executes.
        kind: The terminator's kind.
        successors: Ids of the intra-function successors, in the
            terminator's order: the target of a JUMP, (taken, not taken)
            of a COND_BRANCH, the cases of an INDIRECT_JUMP, the return
            point of a CALL or INDIRECT_CALL; none for a RETURN.
        callees: Entry-block ids of the functions a CALL (one) or an
            INDIRECT_CALL (its candidates) transfers to.
        behavior: Decides the successor (COND_BRANCH, INDIRECT_JUMP) or
            the callee (INDIRECT_CALL) at run time.
        successor_exit_index: For JUMP/COND_BRANCH terminators, one entry per
            successor arc: the task-header exit index if the arc leaves the
            task, or ``None`` for an internal arc.
        terminator_exit_index: For CALL/RETURN/INDIRECT_* terminators, the
            task-header exit index of the transfer (always an exit).
        is_internal_branch: True for conditional branches resolved entirely
            inside the task (both arcs internal) — these are the branches
            intra-task speculation predicts.
        call_hash: For CALL and INDIRECT_CALL blocks, the stable hash of
            the label, which the executor mixes into the calling-context
            hash; 0 otherwise.
    """

    id: int
    label: str
    address: int
    task_address: int
    instruction_count: int
    kind: TerminatorKind
    successors: tuple[int, ...] = ()
    callees: tuple[int, ...] = ()
    behavior: ChoiceBehavior | None = None
    successor_exit_index: tuple[int | None, ...] = ()
    terminator_exit_index: int | None = None
    is_internal_branch: bool = False
    call_hash: int = 0


@dataclass
class CompiledProgram:
    """A Multiscalar executable plus the block table for execution.

    Attributes:
        program: The static executable (its task table).
        blocks: All compiled blocks, keyed by globally unique label, in
            id order.
        function_entry: Function name -> entry block label.
        task_leader: Task start address -> leader block label.
        table: The same blocks as a list indexed by id: what the
            executor runs.
    """

    program: MultiscalarProgram
    blocks: dict[str, CompiledBlock]
    function_entry: dict[str, str]
    task_leader: dict[int, str] = field(default_factory=dict)
    table: list[CompiledBlock] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.table = list(self.blocks.values())
        for index, block in enumerate(self.table):
            if block.id != index:
                raise TaskFormatError(
                    f"block {block.label!r} has id {block.id}, "
                    f"not its table position {index}"
                )

    def entry_block(self, function: str) -> CompiledBlock:
        """Return the compiled entry block of ``function``."""
        try:
            label = self.function_entry[function]
        except KeyError:
            raise TaskFormatError(f"no compiled function {function!r}") from None
        return self.blocks[label]

    def block(self, label: str) -> CompiledBlock:
        """Return the compiled block with the given label."""
        try:
            return self.blocks[label]
        except KeyError:
            raise TaskFormatError(f"no compiled block {label!r}") from None
