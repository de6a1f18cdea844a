"""The Multiscalar timing model: sequencer + ring + FIFO commit.

For each dynamic task *i* the model computes three times:

* ``start_i = max(dispatch_i, unit_free_i)`` — the sequencer hands the task
  to the next ring unit once both the prediction pipeline and the unit are
  ready;
* ``finish_i = max(start_i + exec_i, finish_{i-1} + forward_i)`` — execution
  takes ``exec_i`` cycles, but a fraction of the task (``forward_fraction``)
  cannot complete until its program-order predecessor has forwarded
  registers and memory;
* ``commit_i = max(finish_i, commit_{i-1} + commit_interval)`` — strictly
  FIFO retirement.

``exec_i = startup + ceil(instructions / issue_width) +
intra_mispredicts × penalty`` comes from the trace.

Prediction enters through the dispatch time of the *next* task: a correct
prediction lets the sequencer dispatch ``dispatch_interval`` cycles later;
a misprediction is discovered only when task *i* completes, so the correct
successor dispatches at ``finish_i + task_mispredict_penalty`` and all
younger (wrong-path) work is squashed — which is precisely how better task
predictors buy IPC in Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.base import NextTaskPredictor
from repro.predictors.headers import task_headers
from repro.sim.functional import (
    batched_task_prediction_column,
    checked_trace,
)
from repro.sim.timing.config import TimingConfig
from repro.sim.timing.scan import (
    CODE_CORRECT,
    CODE_GATED,
    CODE_MISPREDICT,
    max_plus_timing_scan,
)
from repro.synth.workloads import Workload
from repro.utils.memo import DerivedColumnCache, int64_column

#: Cycle columns per (trace, config knobs) — identical for every
#: predictor scheme swept over the same trace.
_CYCLE_CACHE = DerivedColumnCache()


@dataclass(frozen=True)
class TimingResult:
    """Outcome of a timing run.

    Attributes:
        cycles: Total cycles to commit the whole trace.
        instructions: Instructions retired.
        tasks: Dynamic tasks committed.
        task_mispredicts: Next-task predictions that were wrong.
        intra_mispredicts: Intra-task branch mispredicts (from the trace).
    """

    cycles: int
    instructions: int
    tasks: int
    task_mispredicts: int
    intra_mispredicts: int
    mispredict_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def task_mispredict_rate(self) -> float:
        """Fraction of tasks whose successor was mispredicted."""
        return self.task_mispredicts / self.tasks if self.tasks else 0.0

    @property
    def mispredict_stall_fraction(self) -> float:
        """Share of total cycles spent waiting on sequencer redirects."""
        return (
            self.mispredict_stall_cycles / self.cycles if self.cycles
            else 0.0
        )


def simulate_timing(
    workload: Workload,
    predictor: NextTaskPredictor,
    config: TimingConfig | None = None,
    limit: int | None = None,
    confidence_gate=None,
) -> TimingResult:
    """Replay the workload's trace through the timing model.

    ``predictor`` supplies next-task predictions exactly as in the
    functional simulator (predict, then update with the actual outcome —
    the §3.1 idealisations).

    ``confidence_gate`` optionally enables speculation control: an
    estimator with a ``batch_gate_columns`` form (e.g.
    :class:`repro.predictors.confidence.ResettingConfidenceEstimator`).
    A low-confidence prediction is not acted on — the sequencer waits for
    the task to resolve (losing overlap) instead of speculating (risking
    a squash). High-confidence predictions dispatch as usual.

    The run is evaluated column-wise: phase A resolves every per-task
    prediction outcome as numpy columns (the batched predictors never
    mutate their objects); phase B evaluates the timing recurrences in
    one max-plus scan (:mod:`repro.sim.timing.scan`). Bit-identical to
    the stepped loop of :func:`repro.sim.reference.simulate_timing`.
    """
    config = config or TimingConfig()
    trace = checked_trace(workload, limit)
    predicted = batched_task_prediction_column(workload, predictor, trace)
    correct = predicted == int64_column(trace.next_addr)

    instructions = int64_column(trace.instructions)
    intra_misses = int64_column(trace.internal_mispredicts)

    def cycle_columns() -> tuple[np.ndarray, np.ndarray]:
        exec_col = (
            config.task_startup_cycles
            + -(-instructions // config.issue_width)  # ceil division
            + intra_misses * config.intra_mispredict_penalty
        )
        forward_col = (config.forward_fraction * exec_col).astype(np.int64)
        return exec_col, forward_col

    exec_cycles, forward_stalls = _CYCLE_CACHE.get(
        (trace.instructions, trace.internal_mispredicts),
        (
            "cycles",
            config.task_startup_cycles,
            config.issue_width,
            config.intra_mispredict_penalty,
            config.forward_fraction,
        ),
        cycle_columns,
    )
    if config.dependence_aware:
        headers = task_headers(workload.program)

        def dependence_mask() -> np.ndarray:
            rows = headers.rows(trace.task_addr)
            prev_create = np.empty(len(rows), dtype=np.int64)
            prev_create[:1] = 0xFFFF  # pre-trace state feeds task 0
            prev_create[1:] = headers.create_mask[rows[:-1]]
            return (prev_create & headers.use_mask[rows]) != 0

        dependent = _CYCLE_CACHE.get(
            (trace.task_addr, headers), "dependence", dependence_mask
        )
        forward_stalls = np.where(dependent, forward_stalls, 0)

    codes = np.where(correct, CODE_CORRECT, CODE_MISPREDICT)
    if confidence_gate is not None:
        gated = ~confidence_gate.batch_gate_columns(trace.task_addr, correct)
        codes = np.where(gated, CODE_GATED, codes)
    cycles, stalls = max_plus_timing_scan(
        exec_cycles,
        forward_stalls,
        codes,
        config.n_units,
        config.dispatch_interval,
        config.task_mispredict_penalty,
        config.commit_interval,
    )
    return TimingResult(
        cycles=cycles,
        instructions=int(instructions.sum()),
        tasks=len(instructions),
        task_mispredicts=int((codes == CODE_MISPREDICT).sum()),
        intra_mispredicts=int(intra_misses.sum()),
        mispredict_stall_cycles=stalls,
    )
