"""Static tasks, task exits, and task headers (paper §2.1).

A :class:`StaticTask` is one node of the task flow graph: a start address,
a header describing up to four exits, a create mask (which registers the task
may write), and an instruction count used by the timing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TaskFormatError
from repro.isa.controlflow import (
    MAX_EXITS_PER_TASK,
    ControlFlowType,
    is_call_type,
    target_known_at_compile_time,
)

#: Addresses are 32 bits in the paper's environment.
ADDRESS_BITS = 32
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1


@dataclass(frozen=True)
class TaskExit:
    """One exit of a task header.

    Attributes:
        cf_type: The inter-task control-flow type terminating this exit.
        target: Target address if the compiler knows it (BRANCH/CALL),
            otherwise ``None`` — the field is "left null by the compiler".
        return_address: Address executed after a called routine returns;
            only present for CALL / INDIRECT_CALL exits. The hardware pushes
            it onto the return address stack.
    """

    cf_type: ControlFlowType
    target: int | None = None
    return_address: int | None = None

    def __post_init__(self) -> None:
        if target_known_at_compile_time(self.cf_type):
            if self.target is None:
                raise TaskFormatError(
                    f"{self.cf_type} exit must carry a compile-time target"
                )
        elif self.target is not None:
            raise TaskFormatError(
                f"{self.cf_type} exit cannot carry a compile-time target"
            )
        if is_call_type(self.cf_type):
            if self.return_address is None:
                raise TaskFormatError(
                    f"{self.cf_type} exit must carry a return address"
                )
        elif self.return_address is not None:
            raise TaskFormatError(
                f"{self.cf_type} exit cannot carry a return address"
            )
        for name, address in (("target", self.target),
                              ("return_address", self.return_address)):
            if address is not None and not 0 <= address <= ADDRESS_MASK:
                raise TaskFormatError(
                    f"{name} {address:#x} does not fit in {ADDRESS_BITS} bits"
                )


@dataclass(frozen=True)
class TaskHeader:
    """The task header loaded by the task-start instruction.

    Contains the create mask (a bit mask of registers the task may write) and
    the exit list. A legal header has between one and four exits.
    """

    exits: tuple[TaskExit, ...]
    create_mask: int = 0

    def __post_init__(self) -> None:
        if not 1 <= len(self.exits) <= MAX_EXITS_PER_TASK:
            raise TaskFormatError(
                f"a task header must have 1..{MAX_EXITS_PER_TASK} exits, "
                f"got {len(self.exits)}"
            )
        if self.create_mask < 0:
            raise TaskFormatError("create mask must be non-negative")

    @property
    def n_exits(self) -> int:
        """Number of exits declared in this header."""
        return len(self.exits)

    def exit_types(self) -> tuple[ControlFlowType, ...]:
        """The control-flow type of each exit, in header order."""
        return tuple(e.cf_type for e in self.exits)


@dataclass
class StaticTask:
    """A static task: one node of the program's task flow graph.

    Attributes:
        address: Start address of the task (address of its task-start
            instruction); this is the task's identity.
        header: The task header.
        instruction_count: Nominal number of dynamic instructions a single
            execution of this task retires; used by the timing simulator.
        internal_branch_count: Number of intra-task conditional branches a
            single execution resolves; used for intra-task speculation
            modelling.
        use_mask: Bit mask of registers the task may read before writing
            them (live-ins). The header's create mask covers writes; the
            use mask is microarchitectural metadata the dependence-aware
            timing model consumes (it is not part of the header).
        name: Optional human-readable label (function/region), for debugging.
    """

    address: int
    header: TaskHeader
    instruction_count: int = 16
    internal_branch_count: int = 2
    use_mask: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.address <= ADDRESS_MASK:
            raise TaskFormatError(
                f"task address {self.address:#x} does not fit in "
                f"{ADDRESS_BITS} bits"
            )
        if self.instruction_count < 1:
            raise TaskFormatError("a task executes at least one instruction")
        if self.internal_branch_count < 0:
            raise TaskFormatError("internal branch count must be >= 0")
        if self.use_mask < 0:
            raise TaskFormatError("use mask must be non-negative")

    @property
    def n_exits(self) -> int:
        """Number of exits in this task's header."""
        return self.header.n_exits

    def exit(self, index: int) -> TaskExit:
        """Return the exit at ``index`` (0-based header position)."""
        try:
            return self.header.exits[index]
        except IndexError:
            raise TaskFormatError(
                f"task {self.address:#x} has {self.n_exits} exits; "
                f"exit {index} does not exist"
            ) from None

    def static_targets(self) -> tuple[int, ...]:
        """Targets the compiler recorded in the header (BRANCH/CALL exits)."""
        return tuple(
            e.target for e in self.header.exits if e.target is not None
        )
