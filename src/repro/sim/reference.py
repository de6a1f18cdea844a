"""Step-by-step reference simulators: the oracle of the batched kernels.

Each function here drives its models through their ``predict``/``update``
interface one trace record at a time — the paper's §3.1 methodology
spelled out literally — and returns the same record as the production
simulator of the same name:

* :func:`simulate_exit_prediction`,
  :func:`simulate_indirect_target_prediction` and
  :func:`simulate_task_prediction` (:mod:`repro.sim.functional`);
* :func:`simulate_speculative_exit_prediction` (:mod:`repro.sim.relaxed`;
  its stepped loop is shared, since it is also the production kernel of
  the ``"squash"`` and ``"none"`` repair policies);
* :func:`simulate_confidence` (:mod:`repro.predictors.confidence`);
* :func:`simulate_timing` (:mod:`repro.sim.timing.machine`), on the
  :class:`ProcessingRing` it steps.

:func:`simulate_timing_detailed` is a cycle-stepped model of the same
machine that cross-validates the analytic timing model.

Only tests and ``benchmarks/test_perf.py`` import this module (a test
fails if any module under ``repro`` does). The loops mutate the objects
they drive, as hardware would, and cost microseconds per task: run them
on short traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.predictors.base import ExitPredictor, NextTaskPredictor
from repro.predictors.confidence import (
    ConfidenceStats,
    ResettingConfidenceEstimator,
)
from repro.predictors.speculative import SpeculativePathPredictor
from repro.sim.functional import (
    _INDIRECT_CODES,
    exit_count_column,
    task_prediction_stats,
)
from repro.sim.relaxed import RelaxedPredictionStats, speculative_loop
from repro.sim.result import (
    ExitPredictionStats,
    TargetPredictionStats,
    TaskPredictionStats,
)
from repro.sim.timing.config import TimingConfig
from repro.sim.timing.machine import TimingResult
from repro.synth.workloads import Workload


def _trace(workload: Workload, limit: int | None):
    return workload.trace if limit is None else workload.trace.head(limit)


def simulate_exit_prediction(
    workload: Workload,
    predictor: ExitPredictor,
    limit: int | None = None,
) -> ExitPredictionStats:
    """Stepped :func:`repro.sim.functional.simulate_exit_prediction`."""
    trace = _trace(workload, limit)
    n_exits_col = exit_count_column(workload, trace.task_addr)
    predict = predictor.predict
    update = predictor.update
    misses = 0
    multiway_trials = 0
    for addr, actual, n_exits in zip(
        trace.task_addr.tolist(),
        trace.exit_index.tolist(),
        n_exits_col.tolist(),
    ):
        predicted = predict(addr, n_exits)
        if n_exits > 1:
            multiway_trials += 1
            if predicted != actual:
                misses += 1
        elif predicted != actual:  # cannot happen for legal traces
            raise SimulationError(
                f"single-exit task {addr:#x} took exit {actual}"
            )
        update(addr, n_exits, actual)
    return ExitPredictionStats(
        trials=len(trace.task_addr),
        misses=misses,
        multiway_trials=multiway_trials,
        multiway_misses=misses,
        states_touched=predictor.states_touched(),
        storage_bits=predictor.storage_bits(),
    )


def simulate_indirect_target_prediction(
    workload: Workload,
    buffer,
    limit: int | None = None,
) -> TargetPredictionStats:
    """Stepped :func:`repro.sim.functional.simulate_indirect_target_prediction`.

    Every retired task is fed to ``observe_step`` so path-indexed buffers
    track program progress; predictions happen only at indirect exits.
    """
    trace = _trace(workload, limit)
    indirect_mask = np.isin(trace.cf_type, _INDIRECT_CODES)
    misses = 0
    for addr, is_indirect, next_addr in zip(
        trace.task_addr.tolist(),
        indirect_mask.tolist(),
        trace.next_addr.tolist(),
    ):
        if is_indirect:
            if buffer.predict(addr) != next_addr:
                misses += 1
            buffer.update(addr, next_addr)
        buffer.observe_step(addr)
    return TargetPredictionStats(
        trials=int(indirect_mask.sum()),
        misses=misses,
        entries_touched=buffer.entries_touched(),
        storage_bits=buffer.storage_bits(),
    )


def simulate_task_prediction(
    workload: Workload,
    predictor: NextTaskPredictor,
    limit: int | None = None,
) -> TaskPredictionStats:
    """Stepped :func:`repro.sim.functional.simulate_task_prediction`."""
    trace = _trace(workload, limit)
    predict = predictor.predict
    update = predictor.update
    wrong = []
    for addr, actual_exit, cf_code, next_addr in zip(
        trace.task_addr.tolist(),
        trace.exit_index.tolist(),
        trace.cf_type.tolist(),
        trace.next_addr.tolist(),
    ):
        wrong.append(predict(addr) != next_addr)
        update(addr, actual_exit, cf_code, next_addr)
    return task_prediction_stats(
        trace, np.array(wrong, dtype=bool), predictor.storage_bits()
    )


def simulate_speculative_exit_prediction(
    workload: Workload,
    predictor: SpeculativePathPredictor,
    wrong_path_depth: int = 4,
    limit: int | None = None,
) -> RelaxedPredictionStats:
    """Stepped :func:`repro.sim.relaxed.simulate_speculative_exit_prediction`,
    under any repair policy."""
    return speculative_loop(
        workload, predictor, wrong_path_depth, _trace(workload, limit)
    )


def simulate_confidence(
    workload: Workload,
    predictor: ExitPredictor,
    estimator: ResettingConfidenceEstimator,
    limit: int | None = None,
) -> ConfidenceStats:
    """Stepped :func:`repro.predictors.confidence.simulate_confidence`."""
    trace = _trace(workload, limit)
    n_exits_of = workload.exit_counts()
    trials = high = high_correct = low_incorrect = 0
    for addr, actual in zip(
        trace.task_addr.tolist(), trace.exit_index.tolist()
    ):
        n_exits = n_exits_of[addr]
        correct = predictor.predict(addr, n_exits) == actual
        trials += 1
        if estimator.is_high_confidence(addr):
            high += 1
            high_correct += correct
        else:
            low_incorrect += not correct
        estimator.update(addr, correct)
        predictor.update(addr, n_exits, actual)
    return ConfidenceStats(
        trials=trials,
        high_confidence=high,
        high_correct=high_correct,
        low_confidence=trials - high,
        low_incorrect=low_incorrect,
    )


class ProcessingRing:
    """The circular queue of processing units (paper §2.2, Figure 2).

    "The processing units are arranged in a ring [...] The ring operates
    as a circular queue with a head and a tail pointer. Tasks commit in
    strictly FIFO order." For the task-granularity model the ring only
    needs to answer one question per dispatch: when does the unit about
    to receive task *i* become free — i.e., when did its previous
    occupant (task *i − n_units*) commit? The max-plus scan of
    :mod:`repro.sim.timing.scan` eliminates it analytically.
    """

    def __init__(self, n_units: int) -> None:
        if n_units < 1:
            raise SimulationError("a ring needs at least one unit")
        self._n_units = n_units
        self._unit_free_at = [0] * n_units
        self._next_unit = 0
        self._last_commit = 0

    @property
    def n_units(self) -> int:
        """Number of processing units in the ring."""
        return self._n_units

    @property
    def last_commit_time(self) -> int:
        """Cycle at which the most recently committed task retired."""
        return self._last_commit

    def unit_free_time(self) -> int:
        """Cycle at which the unit next in round-robin order is free."""
        return self._unit_free_at[self._next_unit]

    def occupy_and_commit(self, commit_time: int) -> None:
        """Advance the tail onto the next unit; record when it will retire.

        In the analytic model a task's unit is busy from dispatch until
        the task commits, so recording the commit time both occupies the
        unit and schedules its release.
        """
        if commit_time < self._last_commit:
            raise SimulationError(
                "tasks must commit in FIFO order "
                f"({commit_time} < {self._last_commit})"
            )
        self._unit_free_at[self._next_unit] = commit_time
        self._next_unit = (self._next_unit + 1) % self._n_units
        self._last_commit = commit_time

    def squash_speculative(self, restart_time: int) -> None:
        """Free every unit holding squashed (uncommitted) work.

        After a task misprediction resolves, all younger tasks are
        discarded; their units become available at the restart time.
        """
        for unit in range(self._n_units):
            if self._unit_free_at[unit] > restart_time:
                self._unit_free_at[unit] = restart_time


def simulate_timing(
    workload: Workload,
    predictor: NextTaskPredictor,
    config: TimingConfig | None = None,
    limit: int | None = None,
    confidence_gate=None,
) -> TimingResult:
    """Stepped :func:`repro.sim.timing.simulate_timing`.

    ``confidence_gate`` is driven through ``is_high_confidence`` and
    ``update``, one task at a time.
    """
    config = config or TimingConfig()
    trace = _trace(workload, limit)
    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    cf_codes = trace.cf_type.tolist()
    next_addrs = trace.next_addr.tolist()
    instructions = trace.instructions.tolist()
    intra_misses = trace.internal_mispredicts.tolist()

    ring = ProcessingRing(config.n_units)
    predict = predictor.predict
    update = predictor.update

    dependence_masks: dict[int, tuple[int, int]] | None = None
    if config.dependence_aware:
        dependence_masks = {
            task.address: (task.header.create_mask, task.use_mask)
            for task in workload.program.tfg
        }

    issue_width = config.issue_width
    startup = config.task_startup_cycles
    intra_penalty = config.intra_mispredict_penalty
    forward_fraction = config.forward_fraction
    dispatch_interval = config.dispatch_interval
    mispredict_penalty = config.task_mispredict_penalty
    commit_interval = config.commit_interval

    dispatch = 0
    prev_finish = 0
    prev_commit = 0
    prev_create_mask = 0xFFFF  # the pre-trace machine state feeds task 0
    task_mispredicts = 0
    mispredict_stalls = 0

    for i, addr in enumerate(task_addrs):
        exec_cycles = (
            startup
            + -(-instructions[i] // issue_width)  # ceil division
            + intra_misses[i] * intra_penalty
        )
        start = max(dispatch, ring.unit_free_time())
        forward_stall = int(forward_fraction * exec_cycles)
        if dependence_masks is not None:
            create_mask, use_mask = dependence_masks[addr]
            if not prev_create_mask & use_mask:
                forward_stall = 0
            prev_create_mask = create_mask
        finish = max(start + exec_cycles, prev_finish + forward_stall)
        commit = max(finish, prev_commit + commit_interval)
        ring.occupy_and_commit(commit)

        next_addr = next_addrs[i]
        predicted = predict(addr)
        update(addr, actual_exits[i], cf_codes[i], next_addr)
        correct = predicted == next_addr
        gated = False
        if confidence_gate is not None:
            gated = not confidence_gate.is_high_confidence(addr)
            confidence_gate.update(addr, correct)
        if gated:
            # Speculation control: don't act on a low-confidence
            # prediction — wait for the task to resolve. No squash and no
            # redirect penalty, but all overlap with the successor is lost.
            dispatch = finish
        elif correct:
            dispatch = dispatch + dispatch_interval
        else:
            task_mispredicts += 1
            restart = finish + mispredict_penalty
            ring.squash_speculative(restart)
            mispredict_stalls += max(
                0, restart - (dispatch + dispatch_interval)
            )
            dispatch = restart
        prev_finish = finish
        prev_commit = commit

    return TimingResult(
        cycles=prev_commit,
        instructions=sum(instructions),
        tasks=len(task_addrs),
        task_mispredicts=task_mispredicts,
        intra_mispredicts=sum(intra_misses),
        mispredict_stall_cycles=mispredict_stalls,
    )


_IDLE, _EXECUTING, _WAIT_FORWARD, _DONE = range(4)


class _Unit:
    """One processing unit's cycle-visible state."""

    __slots__ = ("state", "record", "remaining", "busy_cycles")

    def __init__(self) -> None:
        self.state = _IDLE
        self.record = -1
        self.remaining = 0
        self.busy_cycles = 0


@dataclass(frozen=True)
class DetailedTimingResult:
    """Outcome of a cycle-stepped run.

    Beyond the analytic model's counters, reports machine-occupancy
    statistics gathered per cycle.
    """

    cycles: int
    instructions: int
    tasks: int
    task_mispredicts: int
    unit_utilisation: float
    mean_window_occupancy: float

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


def simulate_timing_detailed(
    workload: Workload,
    predictor: NextTaskPredictor,
    config: TimingConfig | None = None,
    limit: int | None = None,
    max_cycles: int | None = None,
) -> DetailedTimingResult:
    """Replay a trace through a cycle-stepped model of the machine.

    The analytic model (:mod:`repro.sim.timing.machine`) computes task
    times with a closed-form recurrence. This one simulates the same
    machine cycle by cycle with explicit microarchitectural state — a
    global sequencer with a dispatch port, processing units with
    busy/stalled status, a FIFO commit port, and squash handling — the
    way the paper's "detailed timing simulator" worked. It is slower but
    reports occupancy statistics the analytic model cannot (unit
    utilisation, window occupancy), and cross-checks it: both models
    must agree on IPC to within a modest margin (enforced by tests).

    Model per task, as in the analytic version: execution takes
    ``startup + ceil(insns / width) + intra_mispredicts * penalty``
    cycles; a task cannot complete until its program-order predecessor
    has finished, plus the forwarding fraction of its own execution
    (a ``WAIT_FORWARD`` stall at the end of execution); commit is FIFO
    at one task per ``commit_interval``; a task mispredict redirects the
    sequencer when the mispredicted task completes.
    """
    config = config or TimingConfig()
    trace = _trace(workload, limit)
    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    cf_codes = trace.cf_type.tolist()
    next_addrs = trace.next_addr.tolist()
    instructions = trace.instructions.tolist()
    intra_misses = trace.internal_mispredicts.tolist()
    n_records = len(task_addrs)
    if max_cycles is None:
        # Generous ceiling: fully serial execution plus penalties.
        max_cycles = 50 * sum(instructions) + 10_000

    exec_cycles = [
        config.task_startup_cycles
        + -(-instructions[i] // config.issue_width)
        + intra_misses[i] * config.intra_mispredict_penalty
        for i in range(n_records)
    ]
    finish_time = [-1] * n_records

    units = [_Unit() for _ in range(config.n_units)]
    head = 0          # next record to commit
    next_dispatch = 0  # next record to hand to a unit
    dispatch_ready_at = 0
    next_commit_ok_at = 0
    committed = 0
    task_mispredicts = 0
    # Prediction bookkeeping: resolve at dispatch (the §3.1 idealisation —
    # structures update immediately), but the *timing* consequence lands
    # when the mispredicted task finishes.
    redirect_after_record = -1  # record whose completion redirects
    occupancy_accum = 0
    busy_accum = 0

    cycle = 0
    while committed < n_records:
        cycle += 1
        if cycle > max_cycles:
            raise SimulationError(
                "detailed timing model exceeded its cycle ceiling; "
                "check configuration"
            )

        # --- execute phase -------------------------------------------------
        for unit in units:
            if unit.state == _EXECUTING:
                unit.busy_cycles += 1
                unit.remaining -= 1
                if unit.remaining <= 0:
                    unit.state = _WAIT_FORWARD
            if unit.state == _WAIT_FORWARD:
                record = unit.record
                predecessor_done = (
                    record == 0 or finish_time[record - 1] >= 0
                )
                if predecessor_done:
                    earliest = (
                        0 if record == 0
                        else finish_time[record - 1]
                        + int(config.forward_fraction * exec_cycles[record])
                    )
                    if cycle >= earliest:
                        unit.state = _DONE
                        finish_time[record] = cycle
                        if record == redirect_after_record:
                            # Mispredict resolves: redirect the sequencer.
                            # (Wrong-path successors were never dispatched
                            # — the trace holds only the actual path — so
                            # the squash is implicit in the dispatch
                            # stall, as in the analytic model.)
                            dispatch_ready_at = (
                                cycle + config.task_mispredict_penalty
                            )
                            redirect_after_record = -1

        # --- commit phase --------------------------------------------------
        if head < n_records and cycle >= next_commit_ok_at:
            for unit in units:
                if unit.state == _DONE and unit.record == head:
                    unit.state = _IDLE
                    unit.record = -1
                    committed += 1
                    head += 1
                    next_commit_ok_at = cycle + config.commit_interval
                    break

        # --- dispatch phase ------------------------------------------------
        if (
            next_dispatch < n_records
            and redirect_after_record < 0
            and cycle >= dispatch_ready_at
        ):
            free = next(
                (unit for unit in units if unit.state == _IDLE), None
            )
            if free is not None:
                record = next_dispatch
                free.state = _EXECUTING
                free.record = record
                free.remaining = exec_cycles[record]
                next_dispatch += 1
                dispatch_ready_at = cycle + config.dispatch_interval
                predicted = predictor.predict(task_addrs[record])
                predictor.update(
                    task_addrs[record],
                    actual_exits[record],
                    cf_codes[record],
                    next_addrs[record],
                )
                if predicted != next_addrs[record]:
                    task_mispredicts += 1
                    redirect_after_record = record

        # --- statistics ----------------------------------------------------
        occupancy_accum += sum(
            1 for unit in units if unit.state in (_EXECUTING, _WAIT_FORWARD)
        )
        busy_accum += sum(
            1 for unit in units if unit.state == _EXECUTING
        )

    return DetailedTimingResult(
        cycles=cycle,
        instructions=sum(instructions),
        tasks=n_records,
        task_mispredicts=task_mispredicts,
        unit_utilisation=busy_accum / (cycle * config.n_units),
        mean_window_occupancy=occupancy_accum / cycle,
    )
