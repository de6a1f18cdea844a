"""Basic blocks and their terminators.

A block is a straight-line run of instructions ending in exactly one
terminator. Terminator kinds map onto the paper's inter-task control-flow
types (Table 1) when a terminator's arc crosses a task boundary:

=================  ======================================
TerminatorKind     Control-flow type when it exits a task
=================  ======================================
JUMP               BRANCH (unconditional)
COND_BRANCH        BRANCH (conditional, exit when taken out of the task)
CALL               CALL
RETURN             RETURN
INDIRECT_JUMP      INDIRECT_BRANCH
INDIRECT_CALL      INDIRECT_CALL
=================  ======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import CFGError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.synth.behavior import ChoiceBehavior


class TerminatorKind(enum.Enum):
    """The kind of control transfer ending a basic block."""

    JUMP = "jump"
    COND_BRANCH = "cond_branch"
    CALL = "call"
    RETURN = "return"
    INDIRECT_JUMP = "indirect_jump"
    INDIRECT_CALL = "indirect_call"

    def __str__(self) -> str:
        return self.value


#: Terminator kinds that always end a task (their arcs must be task exits).
TASK_ENDING_KINDS = frozenset(
    {
        TerminatorKind.CALL,
        TerminatorKind.RETURN,
        TerminatorKind.INDIRECT_JUMP,
        TerminatorKind.INDIRECT_CALL,
    }
)

# Module-level names for the members checked once per block: reading a
# member off the enum class costs several times a global lookup.
_JUMP = TerminatorKind.JUMP
_COND_BRANCH = TerminatorKind.COND_BRANCH
_CALL = TerminatorKind.CALL
_RETURN = TerminatorKind.RETURN
_INDIRECT_JUMP = TerminatorKind.INDIRECT_JUMP
_INDIRECT_CALL = TerminatorKind.INDIRECT_CALL


@dataclass
class Terminator:
    """A typed control transfer.

    The meaning of the fields depends on ``kind``:

    * ``JUMP``: ``successors = (target,)``.
    * ``COND_BRANCH``: ``successors = (taken, not_taken)``; ``behavior``
      decides which at run time.
    * ``CALL``: ``callee`` names the called function; ``successors =
      (return_point,)`` is the intra-function continuation.
    * ``RETURN``: no successors; the executor pops its call stack.
    * ``INDIRECT_JUMP``: ``successors`` lists the possible case targets;
      ``behavior`` selects one.
    * ``INDIRECT_CALL``: ``callees`` lists possible called functions;
      ``behavior`` selects one; ``successors = (return_point,)``.
    """

    kind: TerminatorKind
    successors: tuple[str, ...] = ()
    callee: str | None = None
    callees: tuple[str, ...] = ()
    behavior: "ChoiceBehavior | None" = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is _JUMP and len(self.successors) != 1:
            raise CFGError("JUMP needs exactly one successor")
        if kind is _COND_BRANCH:
            if len(self.successors) != 2:
                raise CFGError("COND_BRANCH needs (taken, not_taken)")
            if self.behavior is None:
                raise CFGError("COND_BRANCH needs a behavior")
        if kind is _CALL:
            if self.callee is None or len(self.successors) != 1:
                raise CFGError("CALL needs a callee and a return point")
        if kind is _RETURN and self.successors:
            raise CFGError("RETURN has no intra-function successors")
        if kind is _INDIRECT_JUMP:
            if len(self.successors) < 1 or self.behavior is None:
                raise CFGError("INDIRECT_JUMP needs targets and a behavior")
        if kind is _INDIRECT_CALL:
            if not self.callees or len(self.successors) != 1:
                raise CFGError(
                    "INDIRECT_CALL needs candidate callees and a return point"
                )
            if self.behavior is None:
                raise CFGError("INDIRECT_CALL needs a behavior")


@dataclass
class BasicBlock:
    """A basic block: a label, an instruction count, and one terminator.

    ``instruction_count`` includes the terminator instruction.
    """

    label: str
    terminator: Terminator
    instruction_count: int = 4
    annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.instruction_count < 1:
            raise CFGError(
                f"block {self.label!r} must contain at least 1 instruction"
            )

    @property
    def ends_task(self) -> bool:
        """True if this block's terminator always terminates a task."""
        return self.terminator.kind in TASK_ENDING_KINDS
