"""Reusable statistics over workloads: the numbers behind Figures 3 and 4.

Shared by the figure drivers, the workload explorer, and validation, so
exit-arity and exit-type distributions are computed one way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.controlflow import ControlFlowType, MAX_EXITS_PER_TASK
from repro.synth.trace import CF_TYPE_CODES
from repro.synth.workloads import Workload

#: Exit types in the paper's presentation order.
EXIT_TYPES = (
    ControlFlowType.BRANCH,
    ControlFlowType.CALL,
    ControlFlowType.RETURN,
    ControlFlowType.INDIRECT_BRANCH,
    ControlFlowType.INDIRECT_CALL,
)

_ARITIES = tuple(range(1, MAX_EXITS_PER_TASK + 1))


@dataclass(frozen=True)
class WorkloadStats:
    """Distributions over one workload, static and dynamic views.

    All four maps hold fractions summing to 1.0:

    Attributes:
        static_arity: {n_exits: fraction of static tasks}.
        dynamic_arity: {n_exits: fraction of dynamic task executions}.
        static_types: {type name: fraction of static header exits}.
        dynamic_types: {type name: fraction of dynamic exits taken}.
        instructions_per_task: Mean instructions per dynamic task.
    """

    static_arity: dict[int, float]
    dynamic_arity: dict[int, float]
    static_types: dict[str, float]
    dynamic_types: dict[str, float]
    instructions_per_task: float

    @property
    def dynamic_indirect_share(self) -> float:
        """Dynamic fraction of INDIRECT_BRANCH + INDIRECT_CALL exits."""
        return (
            self.dynamic_types[str(ControlFlowType.INDIRECT_BRANCH)]
            + self.dynamic_types[str(ControlFlowType.INDIRECT_CALL)]
        )


def compute_stats(workload: Workload) -> WorkloadStats:
    """Measure all Figure 3/4 distributions for one workload."""
    program = workload.program
    trace = workload.trace

    arity_counts = dict.fromkeys(_ARITIES, 0)
    type_counts = dict.fromkeys(EXIT_TYPES, 0)
    for task in program.tfg:
        arity_counts[task.n_exits] += 1
        for task_exit in task.header.exits:
            type_counts[task_exit.cf_type] += 1
    n_static = sum(arity_counts.values())
    n_exits_static = sum(type_counts.values())
    static_arity = {k: v / n_static for k, v in arity_counts.items()}
    static_types = {
        str(t): type_counts[t] / n_exits_static for t in EXIT_TYPES
    }

    n_exits_of = workload.exit_counts()
    dynamic_arity_counts = dict.fromkeys(_ARITIES, 0)
    addrs, freqs = np.unique(trace.task_addr, return_counts=True)
    for addr, freq in zip(addrs.tolist(), freqs.tolist()):
        dynamic_arity_counts[n_exits_of[addr]] += freq
    n_dynamic = sum(dynamic_arity_counts.values())
    dynamic_arity = {
        k: v / n_dynamic for k, v in dynamic_arity_counts.items()
    }

    codes, counts = np.unique(trace.cf_type, return_counts=True)
    by_code = dict(zip(codes.tolist(), counts.tolist()))
    dynamic_types = {
        str(t): by_code.get(CF_TYPE_CODES[t], 0) / n_dynamic
        for t in EXIT_TYPES
    }

    return WorkloadStats(
        static_arity=static_arity,
        dynamic_arity=dynamic_arity,
        static_types=static_types,
        dynamic_types=dynamic_types,
        instructions_per_task=trace.total_instructions() / len(trace),
    )
