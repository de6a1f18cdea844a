"""The compile pipeline: ProgramCFG -> partition -> layout -> CompiledProgram.

Two passes, like any assembler: the first pass partitions every function and
assigns byte addresses to blocks (4 bytes per instruction); the second emits
one task-table row per region, whose header needs the task addresses of exit
targets, callee entries and return points, and the block table the trace
executor runs, whose rows name their successors and callees by block id.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.basicblock import BasicBlock, TerminatorKind
from repro.cfg.graph import ControlFlowGraph, ProgramCFG
from repro.compiler.compiled import CompiledBlock, CompiledProgram
from repro.compiler.partitioner import (
    PartitionConfig,
    Region,
    TaskPartitioner,
)
from repro.errors import PartitionError
from repro.isa.controlflow import ControlFlowType
from repro.isa.program import MultiscalarProgram
from repro.isa.table import NO_ADDRESS, TaskRow, TaskTable
from repro.utils.hashing import stable_hash

_BYTES_PER_INSTRUCTION = 4

# Module-level names for the enum members read once per block or exit:
# reading a member off its class costs several times more.
_JUMP = TerminatorKind.JUMP
_COND_BRANCH = TerminatorKind.COND_BRANCH
_CALL = TerminatorKind.CALL
_INDIRECT_CALL = TerminatorKind.INDIRECT_CALL
_BRANCH_CODE = ControlFlowType.BRANCH.code
_CALL_CODE = ControlFlowType.CALL.code
_INDIRECT_CALL_CODE = ControlFlowType.INDIRECT_CALL.code
_RETURN_EXIT = (ControlFlowType.RETURN.code, NO_ADDRESS, NO_ADDRESS)
_INDIRECT_BRANCH_EXIT = (
    ControlFlowType.INDIRECT_BRANCH.code, NO_ADDRESS, NO_ADDRESS
)


@dataclass
class _LaidOutFunction:
    """A partitioned function: its CFG and its regions in layout order."""

    cfg: ControlFlowGraph
    regions: list[Region]


def compile_program(
    program_cfg: ProgramCFG,
    name: str = "program",
    config: PartitionConfig | None = None,
) -> CompiledProgram:
    """Compile a scalar program CFG into a Multiscalar executable.

    Block labels must be globally unique across functions (the synthetic
    generator prefixes labels with the function name).
    """
    config = config or PartitionConfig()
    program_cfg.validate()

    laid_out, block_id, addresses = _layout(program_cfg, config)
    function_entry = {
        fn.cfg.function_name: fn.cfg.entry_label for fn in laid_out
    }
    function_entry_task = {
        function: addresses[block_id[label]]
        for function, label in function_entry.items()
    }
    function_entry_id = {
        function: block_id[label]
        for function, label in function_entry.items()
    }

    rows: list[TaskRow] = []
    blocks: dict[str, CompiledBlock] = {}
    task_leader: dict[int, str] = {}
    for laid in laid_out:
        block_of = laid.cfg.block
        for region in laid.regions:
            members = [block_of(label) for label in region.blocks]
            row = _task_row(
                laid.cfg, region, members, block_id, addresses,
                function_entry_task,
            )
            rows.append(row)
            task_leader[row[0]] = region.leader
            _compile_region_blocks(
                region, members, row[0], block_id, addresses,
                function_entry_id, blocks,
            )

    entry = function_entry_task[program_cfg.main]
    executable = MultiscalarProgram(
        name=name, tasks=TaskTable.from_rows(rows), entry=entry
    )
    executable.table.check_static_arcs()
    return CompiledProgram(
        program=executable,
        blocks=blocks,
        function_entry=function_entry,
        task_leader=task_leader,
    )


def _layout(
    program_cfg: ProgramCFG, config: PartitionConfig
) -> tuple[list[_LaidOutFunction], dict[str, int], list[int]]:
    """Partition all functions and assign global block addresses.

    Returns the laid-out functions, every compiled block's id by label
    (its position in layout order, which is also the order the second
    pass emits blocks in), and the block addresses by id.
    """
    laid_out: list[_LaidOutFunction] = []
    block_id: dict[str, int] = {}
    addresses: list[int] = []
    cursor = 0x1000  # leave a null page, as a linker would
    for cfg in program_cfg.functions():
        regions = TaskPartitioner(cfg, config).partition()
        block_of = cfg.block
        for region in regions:
            for label in region.blocks:
                if label in block_id:
                    raise PartitionError(
                        f"block label {label!r} is not globally unique"
                    )
                block_id[label] = len(addresses)
                addresses.append(cursor)
                cursor += (
                    block_of(label).instruction_count
                    * _BYTES_PER_INSTRUCTION
                )
        laid_out.append(_LaidOutFunction(cfg=cfg, regions=regions))
    return laid_out, block_id, addresses


def _task_row(
    cfg: ControlFlowGraph,
    region: Region,
    members: list[BasicBlock],
    block_id: dict[str, int],
    addresses: list[int],
    function_entry_task: dict[str, int],
) -> TaskRow:
    """The task-table row (header included) of one region.

    ``members`` are the region's blocks, in ``region.blocks`` order.
    """
    exits: list[tuple[int, int, int]] = []
    for descriptor in region.exit_descriptors:
        kind = descriptor[0]
        if kind == "branch":
            exits.append(
                (_BRANCH_CODE, addresses[block_id[descriptor[1]]], NO_ADDRESS)
            )
        elif kind == "call":
            _, callee, return_label = descriptor
            exits.append(
                (
                    _CALL_CODE,
                    function_entry_task[callee],
                    addresses[block_id[return_label]],
                )
            )
        elif kind == "return":
            exits.append(_RETURN_EXIT)
        elif kind == "ibranch":
            exits.append(_INDIRECT_BRANCH_EXIT)
        elif kind == "icall":
            block = cfg.block(descriptor[1])
            exits.append(
                (
                    _INDIRECT_CALL_CODE,
                    NO_ADDRESS,
                    addresses[block_id[block.terminator.successors[0]]],
                )
            )
        else:  # pragma: no cover - descriptor forms are produced above
            raise PartitionError(f"unknown exit descriptor {descriptor!r}")
    # The create mask unions every register any block of the task may
    # write (paper §2.1: "which registers may have new values created
    # within the task"); the use mask unions possible reads and feeds the
    # dependence-aware timing model.
    create_mask = 0
    use_mask = 0
    instruction_count = 0
    for block in members:
        annotations = block.annotations
        create_mask |= annotations.get("defs_mask", 0)
        use_mask |= annotations.get("uses_mask", 0)
        instruction_count += block.instruction_count
    return (
        addresses[block_id[region.leader]],
        instruction_count,
        len(region.internal_branch_blocks),
        use_mask & 0xFFFF,
        create_mask & 0xFFFF,
        f"{cfg.function_name}:{region.leader}",
        exits,
    )


def _compile_region_blocks(
    region: Region,
    members: list[BasicBlock],
    task_address: int,
    block_id: dict[str, int],
    addresses: list[int],
    function_entry_id: dict[str, int],
    out: dict[str, CompiledBlock],
) -> None:
    """Emit the table rows of one region's blocks: exit indices from the
    partitioner, successors and callees as block ids."""
    for label, block, exits in zip(region.blocks, members, region.block_exits):
        terminator = block.terminator
        kind = terminator.kind
        callees: tuple[int, ...] = ()
        call_hash = 0
        if kind is _JUMP or kind is _COND_BRANCH:
            successor_exit_index = exits
            terminator_exit_index = None
        else:
            successor_exit_index = ()
            terminator_exit_index = exits[0]
            if kind is _CALL:
                # Terminator checks that a CALL names its callee.
                callee: str = terminator.callee  # type: ignore[assignment]
                callees = (function_entry_id[callee],)
                call_hash = stable_hash(label)
            elif kind is _INDIRECT_CALL:
                callees = tuple(
                    [function_entry_id[callee] for callee in terminator.callees]
                )
                call_hash = stable_hash(label)
        index = block_id[label]
        out[label] = CompiledBlock(
            index,
            label,
            addresses[index],
            task_address,
            block.instruction_count,
            kind,
            tuple([block_id[successor] for successor in terminator.successors]),
            callees,
            terminator.behavior,
            successor_exit_index,
            terminator_exit_index,
            kind is _COND_BRANCH and exits == (None, None),
            call_hash,
        )
