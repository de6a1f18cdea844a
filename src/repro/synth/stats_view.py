"""Reusable statistics over workloads: the numbers behind Figures 3 and 4.

Shared by the figure drivers, the workload explorer, and validation, so
exit-arity and exit-type distributions are computed one way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.controlflow import ControlFlowType, MAX_EXITS_PER_TASK
from repro.predictors.headers import task_headers
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


def _fractions(counts: np.ndarray, keys) -> dict:
    """``{key: counts[i] / counts.sum()}`` over ``keys``, in their order."""
    values = counts.tolist()
    total = sum(values)
    return {key: value / total for key, value in zip(keys, values)}


def compute_stats(workload: Workload) -> WorkloadStats:
    """Measure all Figure 3/4 distributions for one workload.

    Counts come from the program's header table
    (:func:`repro.predictors.headers.task_headers`) and the trace's
    columns, one ``np.bincount`` each.
    """
    trace = workload.trace
    table = task_headers(workload.program)
    type_names = [str(t) for t in EXIT_TYPES]
    codes = [t.code for t in EXIT_TYPES]
    n_types = max(codes) + 1

    def arity(n_exits: np.ndarray) -> dict[int, float]:
        counts = np.bincount(n_exits, minlength=MAX_EXITS_PER_TASK + 1)
        return _fractions(counts[list(_ARITIES)], _ARITIES)

    declared = (
        np.arange(table.cf_codes.shape[1]) < table.n_exits[:, None]
    )
    static_codes = np.bincount(table.cf_codes[declared], minlength=n_types)
    dynamic_codes = np.bincount(trace.cf_type, minlength=n_types)

    return WorkloadStats(
        static_arity=arity(table.n_exits),
        dynamic_arity=arity(table.n_exits_column(trace.task_addr)),
        static_types=_fractions(static_codes[codes], type_names),
        dynamic_types=_fractions(dynamic_codes[codes], type_names),
        instructions_per_task=trace.total_instructions() / len(trace),
    )
