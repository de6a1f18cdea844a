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
    """

    leader: str
    blocks: list[str]
    exit_descriptors: list[ExitDescriptor]
    internal_branch_blocks: list[str]


class TaskPartitioner:
    """Partitions one function CFG into task regions."""

    def __init__(self, cfg: ControlFlowGraph, config: PartitionConfig) -> None:
        self._cfg = cfg
        self._config = config
        self._reachable = reachable_blocks(cfg)

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
        pred_counts = {label: 0 for label in self._reachable}
        for label in self._reachable:
            block = self._cfg.block(label)
            for successor in block.terminator.successors:
                if successor in pred_counts:
                    pred_counts[successor] += 1
            if block.ends_task:
                # Call return points and indirect case targets begin tasks.
                leaders.update(
                    s for s in block.terminator.successors
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
        blocks = [leader]
        member = {leader}
        descriptors: list[ExitDescriptor] = []
        seen_descriptors: set[ExitDescriptor] = set()
        internal_branches: list[str] = []
        queue = deque([leader])

        def note(descriptor: ExitDescriptor) -> None:
            if descriptor not in seen_descriptors:
                seen_descriptors.add(descriptor)
                descriptors.append(descriptor)

        while queue:
            label = queue.popleft()
            block = self._cfg.block(label)
            terminator = block.terminator
            kind = terminator.kind
            if kind is TerminatorKind.RETURN:
                note(("return",))
            elif kind is TerminatorKind.CALL:
                note(("call", terminator.callee, terminator.successors[0]))
            elif kind is TerminatorKind.INDIRECT_JUMP:
                note(("ibranch", label))
            elif kind is TerminatorKind.INDIRECT_CALL:
                note(("icall", label))
            else:  # JUMP or COND_BRANCH: arcs may be internal or exits
                internal_arcs = 0
                for successor in terminator.successors:
                    if successor in leaders or successor in member:
                        # Arc to a leader (or back into the region's own
                        # leader) leaves the task.
                        if successor in member and successor != leader:
                            internal_arcs += 1
                            continue
                        note(("branch", successor))
                    else:
                        member.add(successor)
                        blocks.append(successor)
                        queue.append(successor)
                        internal_arcs += 1
                if (
                    kind is TerminatorKind.COND_BRANCH
                    and internal_arcs == len(terminator.successors)
                ):
                    internal_branches.append(label)
        return Region(
            leader=leader,
            blocks=blocks,
            exit_descriptors=descriptors,
            internal_branch_blocks=internal_branches,
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
                for successor in self._cfg.block(label).terminator.successors:
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
