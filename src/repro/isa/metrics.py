"""Program-level metrics over Multiscalar executables.

Summarises the static structure of a task flow graph: arity and fan-out
histograms, exit-type mix, header overhead, and static reachability from
the entry task. Used by the workload explorer and available to users
evaluating their own tasking strategies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.isa.program import MultiscalarProgram


@dataclass(frozen=True)
class ProgramMetrics:
    """Static structure summary of one executable.

    Attributes:
        task_count: Static tasks in the executable.
        arity_histogram: {n_exits: task count}.
        exit_type_counts: {type name: static exit count}.
        mean_instructions_per_task: Average nominal task body size.
        fanout_histogram: {n_static_successors: task count} — how many
            distinct header targets each task declares.
        statically_reachable: Tasks reachable from the entry following
            header (static) arcs only; returns and indirect arcs are
            invisible statically, so this is a lower bound on the hot set.
        header_bytes: Total encoded header overhead.
    """

    task_count: int
    arity_histogram: dict[int, int]
    exit_type_counts: dict[str, int]
    mean_instructions_per_task: float
    fanout_histogram: dict[int, int]
    statically_reachable: int
    header_bytes: int

    @property
    def mean_exits_per_task(self) -> float:
        """Average header exits per task."""
        total = sum(k * v for k, v in self.arity_histogram.items())
        return total / self.task_count if self.task_count else 0.0

    @property
    def static_reach_fraction(self) -> float:
        """Share of tasks reachable via static arcs alone."""
        if not self.task_count:
            return 0.0
        return self.statically_reachable / self.task_count


def compute_program_metrics(program: MultiscalarProgram) -> ProgramMetrics:
    """Measure the static structure of ``program``."""
    arity: Counter = Counter()
    types: Counter = Counter()
    fanout: Counter = Counter()
    total_instructions = 0
    for task in program.tfg:
        arity[task.n_exits] += 1
        total_instructions += task.instruction_count
        for task_exit in task.header.exits:
            types[str(task_exit.cf_type)] += 1
        fanout[len(set(task.static_targets()))] += 1
    task_count = program.static_task_count

    reachable: set[int] = set()
    stack = [program.entry]
    while stack:
        address = stack.pop()
        if address in reachable:
            continue
        reachable.add(address)
        for successor in program.tfg.static_successors(address):
            if successor not in reachable:
                stack.append(successor)
        # Call exits also make their return point statically known.
        for task_exit in program.tfg.task(address).header.exits:
            return_address = task_exit.return_address
            if (
                return_address is not None
                and return_address in program
                and return_address not in reachable
            ):
                stack.append(return_address)

    return ProgramMetrics(
        task_count=task_count,
        arity_histogram=dict(sorted(arity.items())),
        exit_type_counts=dict(sorted(types.items())),
        mean_instructions_per_task=(
            total_instructions / task_count if task_count else 0.0
        ),
        fanout_histogram=dict(sorted(fanout.items())),
        statically_reachable=len(reachable),
        header_bytes=program.total_header_bits() // 8,
    )


def format_metrics(metrics: ProgramMetrics) -> str:
    """Render metrics as a short report."""
    type_mix = ", ".join(
        f"{name} {count}" for name, count in metrics.exit_type_counts.items()
    )
    return "\n".join(
        [
            f"tasks: {metrics.task_count} "
            f"(mean {metrics.mean_exits_per_task:.2f} exits, "
            f"{metrics.mean_instructions_per_task:.1f} insns)",
            f"arity: {metrics.arity_histogram}",
            f"fan-out: {metrics.fanout_histogram}",
            f"exit types: {type_mix}",
            f"statically reachable: {metrics.statically_reachable} "
            f"({metrics.static_reach_fraction:.0%})",
            f"header overhead: {metrics.header_bytes} bytes",
        ]
    )
