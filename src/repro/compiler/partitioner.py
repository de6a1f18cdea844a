"""Task partitioning: group basic blocks into tasks with at most four exits.

The partitioner mirrors the constraints of the paper's executable format
(§2.1): a task is an arbitrary connected sub-graph of a function's CFG, every
control transfer leaving the task is one of at most four *exit points*, call
/ return / indirect transfers always terminate tasks, and every exit target
must itself be the start of a task.

Algorithm (per function, reachable blocks only):

1. Seed the *leader* set — blocks that must start a task: the function entry,
   every successor of a task-ending terminator (call return points, indirect
   jump case targets), and every block with two or more predecessors.
   Because multi-predecessor blocks are leaders, every non-leader has exactly
   one predecessor, so tasks are trees rooted at leaders.
2. Grow a region from each leader over arcs to non-leader blocks.
3. Enforce limits: while any region has more than four distinct exit points
   or more than ``max_blocks_per_task`` blocks, promote its deepest
   non-leader block to a leader and regrow. Promotion strictly shrinks a
   region and a single-block region has at most two exit points, so this
   terminates.

Step 3 is a worklist. A promoted block's only predecessor lies in its own
region, so promotion changes just that region — it splits in two — and
only those two halves are regrown and rechecked. Regions are a pure
function of the leader set, and splits of different regions commute, so
the order in which violations are fixed does not change the result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cfg.analysis import reachable_blocks
from repro.cfg.basicblock import TerminatorKind
from repro.cfg.graph import ControlFlowGraph
from repro.errors import PartitionError
from repro.isa.controlflow import MAX_EXITS_PER_TASK

#: Exit descriptor: a hashable identity for one task exit point.
#: Forms: ("branch", target_label), ("call", callee, return_label),
#: ("return",), ("ibranch", block_label), ("icall", block_label).
ExitDescriptor = tuple

# Module-level names for the kinds tested once per block: reading a
# member off the enum class costs several times more.
_COND_BRANCH = TerminatorKind.COND_BRANCH
_RETURN = TerminatorKind.RETURN
_CALL = TerminatorKind.CALL
_INDIRECT_JUMP = TerminatorKind.INDIRECT_JUMP
#: Terminator kinds whose arcs may stay inside a task: every kind not in
#: :data:`~repro.cfg.basicblock.TASK_ENDING_KINDS`. A tuple, so a
#: membership test compares identities instead of hashing the member.
_BRANCHING_KINDS = (TerminatorKind.JUMP, _COND_BRANCH)


@dataclass(frozen=True)
class PartitionConfig:
    """Tunables for the partitioner.

    Attributes:
        max_blocks_per_task: Upper bound on blocks grouped into one task.
            Small caps produce many small tasks (compress-like); large caps
            produce fewer, bigger tasks.
        max_exits_per_task: Header exit limit; the ISA fixes this at 4.
    """

    max_blocks_per_task: int = 8
    max_exits_per_task: int = MAX_EXITS_PER_TASK

    def __post_init__(self) -> None:
        if self.max_blocks_per_task < 1:
            raise PartitionError("max_blocks_per_task must be >= 1")
        if not 1 <= self.max_exits_per_task <= MAX_EXITS_PER_TASK:
            raise PartitionError(
                f"max_exits_per_task must be in 1..{MAX_EXITS_PER_TASK}"
            )


@dataclass
class Region:
    """One task-to-be: a leader and the blocks grouped under it.

    ``blocks`` is in BFS order from the leader; ``exit_descriptors`` is in
    first-encounter order and becomes the header's exit list order.
    ``block_exits`` holds, for each block in ``blocks`` order, the header
    exit index of each of its arcs: one entry per successor of a JUMP or
    COND_BRANCH (``None`` for an arc that stays inside the task), and one
    entry, the transfer's exit, for every other terminator.
    """

    leader: str
    blocks: list[str]
    exit_descriptors: list[ExitDescriptor]
    internal_branch_blocks: list[str]
    block_exits: list[tuple[int | None, ...]]


class TaskPartitioner:
    """Partitions one function CFG into task regions."""

    def __init__(self, cfg: ControlFlowGraph, config: PartitionConfig) -> None:
        self._cfg = cfg
        self._config = config
        self._reachable = reachable_blocks(cfg)
        #: Every block's terminator, by label.
        self._terminator = {block.label: block.terminator for block in cfg}
        #: One object per distinct ``Region.block_exits`` entry: a
        #: function's blocks share a handful of them.
        self._shared_exits: dict[
            tuple[int | None, ...], tuple[int | None, ...]
        ] = {}

    def partition(self) -> list[Region]:
        """Return the task regions of this function, in layout order.

        Layout order is: the entry's region first, then remaining regions in
        discovery (BFS over the region graph) order.
        """
        leaders = self._initial_leaders()
        regions = self._grow_regions(leaders)
        pending = list(regions)
        while pending:
            region = regions[pending.pop()]
            if not self._violates(region):
                continue
            promoted = self._pick_split_block(region)
            leaders.add(promoted)
            kept = self._grow_one(region.leader, leaders)
            split = self._grow_one(promoted, leaders)
            _check_split(region, kept, split)
            regions[region.leader] = kept
            regions[promoted] = split
            pending += [region.leader, promoted]
        return self._layout_order(regions)

    def _initial_leaders(self) -> set[str]:
        """Blocks that must start a task, before any split promotions."""
        leaders = {self._cfg.entry_label}
        pred_counts = dict.fromkeys(self._reachable, 0)
        for label in self._reachable:
            terminator = self._terminator[label]
            for successor in terminator.successors:
                if successor in pred_counts:
                    pred_counts[successor] += 1
            if terminator.kind not in _BRANCHING_KINDS:
                # Call return points and indirect case targets begin tasks.
                leaders.update(
                    s for s in terminator.successors
                    if s in self._reachable
                )
        leaders.update(
            label for label, count in pred_counts.items() if count >= 2
        )
        return leaders

    def _grow_regions(self, leaders: set[str]) -> dict[str, Region]:
        """Grow a region from every reachable leader."""
        regions: dict[str, Region] = {}
        assigned: set[str] = set()
        for leader in sorted(leaders & self._reachable):
            region = self._grow_one(leader, leaders)
            regions[leader] = region
            for label in region.blocks:
                if label in assigned and label != leader:
                    raise PartitionError(
                        f"block {label!r} assigned to two regions"
                    )
                assigned.add(label)
        unassigned = self._reachable - assigned
        if unassigned:
            raise PartitionError(
                f"blocks never assigned to a region: {sorted(unassigned)}"
            )
        return regions

    def _grow_one(self, leader: str, leaders: set[str]) -> Region:
        """BFS from ``leader``, absorbing non-leader blocks, collecting exits."""
        terminator_of = self._terminator
        blocks = [leader]  # also the BFS queue: appended while iterated
        member = {leader}
        descriptors: list[ExitDescriptor] = []
        internal_branches: list[str] = []
        block_exits: list[tuple[int | None, ...]] = []
        shared = self._shared_exits.setdefault
        for label in blocks:
            terminator = terminator_of[label]
            kind = terminator.kind
            if kind in _BRANCHING_KINDS:
                # JUMP or COND_BRANCH: arcs may be internal or exits.
                arc_exits: list[int | None] = []
                for successor in terminator.successors:
                    if successor in leaders or successor in member:
                        # Arc to a leader (or back into the region's own
                        # leader) leaves the task.
                        if successor in member and successor != leader:
                            arc_exits.append(None)
                            continue
                        descriptor: ExitDescriptor = ("branch", successor)
                        if descriptor in descriptors:
                            arc_exits.append(descriptors.index(descriptor))
                        else:
                            arc_exits.append(len(descriptors))
                            descriptors.append(descriptor)
                    else:
                        member.add(successor)
                        blocks.append(successor)
                        arc_exits.append(None)
                exits = tuple(arc_exits)
                block_exits.append(shared(exits, exits))
                if kind is _COND_BRANCH and exits == (None, None):
                    internal_branches.append(label)
                continue
            if kind is _RETURN:
                descriptor = ("return",)
            elif kind is _CALL:
                descriptor = (
                    "call", terminator.callee, terminator.successors[0]
                )
            elif kind is _INDIRECT_JUMP:
                descriptor = ("ibranch", label)
            else:  # INDIRECT_CALL
                descriptor = ("icall", label)
            if descriptor in descriptors:
                exits = (descriptors.index(descriptor),)
            else:
                exits = (len(descriptors),)
                descriptors.append(descriptor)
            block_exits.append(shared(exits, exits))
        return Region(
            leader=leader,
            blocks=blocks,
            exit_descriptors=descriptors,
            internal_branch_blocks=internal_branches,
            block_exits=block_exits,
        )

    def _violates(self, region: Region) -> bool:
        """Whether ``region`` breaks the exit or size limit."""
        return (
            len(region.exit_descriptors) > self._config.max_exits_per_task
            or len(region.blocks) > self._config.max_blocks_per_task
        )

    def _pick_split_block(self, region: Region) -> str:
        """Choose the block to promote to leader when splitting ``region``.

        The last block in BFS order is the farthest from the leader;
        promoting it peels work off the bottom of the region.
        """
        for label in reversed(region.blocks):
            if label != region.leader:
                return label
        raise PartitionError(
            f"single-block region {region.leader!r} violates task limits; "
            "this indicates an ISA-incompatible basic block"
        )

    def _layout_order(self, regions: dict[str, Region]) -> list[Region]:
        """Order regions: entry region first, then BFS over region targets."""
        order: list[Region] = []
        visited: set[str] = set()
        queue = deque([self._cfg.entry_label])
        while queue:
            leader = queue.popleft()
            if leader in visited or leader not in regions:
                continue
            visited.add(leader)
            region = regions[leader]
            order.append(region)
            for label in region.blocks:
                for successor in self._terminator[label].successors:
                    if successor in regions and successor not in visited:
                        queue.append(successor)
        # Regions only reachable through calls/returns from elsewhere keep a
        # stable order after the connected ones.
        for leader in sorted(regions):
            if leader not in visited:
                order.append(regions[leader])
                visited.add(leader)
        return order


def _check_split(old: Region, kept: Region, split: Region) -> None:
    """The two halves of a split hold exactly the old region's blocks.

    The local form of :meth:`TaskPartitioner._grow_regions`' check that
    every reachable block is assigned to exactly one region.
    """
    remaining = set(old.blocks)
    for label in kept.blocks + split.blocks:
        if label not in remaining:
            raise PartitionError(f"block {label!r} assigned to two regions")
        remaining.remove(label)
    if remaining:
        raise PartitionError(
            f"blocks never assigned to a region: {sorted(remaining)}"
        )
