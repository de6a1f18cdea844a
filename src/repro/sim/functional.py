"""Trace-driven functional simulation of inter-task prediction.

Implements the paper's methodology (§3.1) exactly:

* **Update timing** — predictor structures are updated immediately after
  each prediction; no staleness is modelled.
* **Pollution** — simulation never proceeds past a mispredicted task, so
  history always reflects the actual path (equivalent to a recovery
  mechanism that repairs prediction state perfectly). Concretely, every
  ``predict`` is followed by an ``update`` with the actual outcome.

Three entry points mirror the paper's three measurement kinds: exit
prediction (Figures 6/7/10/11), indirect target prediction (Figures 8/12),
and full next-task address prediction (Table 3).

Each simulator runs one batched kernel per predictor, bit-identical to
driving the predictor's ``predict``/``update`` pair once per trace record
(the stepped reference in :mod:`repro.sim.reference`, which only tests
and benchmarks use). Every exit predictor computes its whole prediction
column itself (``ExitPredictor.batch_column``), which serves both the
statistics and the next-task, confidence and timing simulators; target
buffers expose their per-step entries as small integer ids
(``batch_slot_ids``), replayed by
:func:`repro.predictors.ttb.replay_target_entries`. Header facts come
from one table per program (:mod:`repro.predictors.headers`). The
kernels replace per-step tuple hashing and method dispatch with numpy
preprocessing plus a tight integer loop over only the steps that can
miss.

Kernels never mutate the predictor object; a predictor that must be
inspected after simulation should be driven through the reference. The
one shared effect is the random tie-break stream of VC-RANDOM automata:
the batched replay draws from it exactly as the loop would — the same
``choice`` calls, at the same steps, in trace order — so a run consumes
the stream either way and leaves it in the same state.

Every simulator returns its zero result for an empty trace and raises
:class:`SimulationError` for a trace that references a task the program
does not define.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.predictors.base import ExitPredictor, NextTaskPredictor
from repro.predictors.headers import task_headers
from repro.predictors.ttb import replay_target_entries
from repro.sim.result import (
    ExitPredictionStats,
    TargetPredictionStats,
    TaskPredictionStats,
)
from repro.isa.controlflow import CF_TYPE_FROM_CODE
from repro.synth.trace import TaskTrace
from repro.synth.workloads import Workload
from repro.utils.memo import int64_column

#: Codes of INDIRECT_BRANCH / INDIRECT_CALL in trace arrays.
_INDIRECT_CODES = (3, 4)


def checked_trace(workload: Workload, limit: int | None) -> TaskTrace:
    """The workload's trace, or its first ``limit`` records.

    Raises :class:`SimulationError` if the trace references a task the
    program doesn't define.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    task_headers(workload.program).rows(trace.task_addr)
    return trace


def exit_count_column(
    workload: Workload, task_addrs: np.ndarray
) -> np.ndarray:
    """Per-step header-exit counts of a trace address column.

    Read from the program's header table
    (:func:`repro.predictors.headers.task_headers`) and shared per
    (program, address column): do not mutate it. Raises
    :class:`SimulationError` if the trace references a task the program
    doesn't define.
    """
    return task_headers(workload.program).n_exits_column(task_addrs)


def _check_single_exit_legality(
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    multiway: np.ndarray,
) -> None:
    """A single-exit task can only ever take exit 0 in a legal trace."""
    bad = np.flatnonzero(~multiway & (actual_exits != 0))
    if bad.size:
        step = int(bad[0])
        raise SimulationError(
            f"single-exit task {int(task_addrs[step]):#x} took exit "
            f"{int(actual_exits[step])}"
        )


def batched_exit_prediction_column(
    predictor: ExitPredictor,
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> np.ndarray:
    """Per-step predicted exits via the predictor's batched kernel.

    Returns the full int64 column a sequence of ``predict``/``update``
    pairs would produce — 0 at single-exit steps, clamped into the legal
    range at multiway ones — without mutating the predictor. This is the
    exit-choice half of the task predictors and of the confidence and
    timing simulators.
    """
    _check_single_exit_legality(task_addrs, actual_exits, n_exits_col > 1)
    return predictor.batch_column(task_addrs, actual_exits, n_exits_col)[0]


def simulate_exit_prediction(
    workload: Workload,
    predictor: ExitPredictor,
    limit: int | None = None,
) -> ExitPredictionStats:
    """Run ``predictor`` over the workload's trace; return accuracy stats.

    Raises :class:`SimulationError` when a single-exit task is recorded
    taking another exit (a corrupt trace).
    """
    trace = checked_trace(workload, limit)
    n_exits_col = exit_count_column(workload, trace.task_addr)
    multiway = n_exits_col > 1
    _check_single_exit_legality(trace.task_addr, trace.exit_index, multiway)
    predicted, states = predictor.batch_column(
        trace.task_addr, trace.exit_index, n_exits_col
    )
    misses = int((predicted != int64_column(trace.exit_index)).sum())
    return ExitPredictionStats(
        trials=len(trace.task_addr),
        misses=misses,
        multiway_trials=int(multiway.sum()),
        multiway_misses=misses,
        states_touched=states,
        storage_bits=predictor.storage_bits(),
    )


def simulate_indirect_target_prediction(
    workload: Workload,
    buffer,
    limit: int | None = None,
) -> TargetPredictionStats:
    """Measure a TTB/CTTB on the workload's indirect exits.

    ``buffer`` is any target buffer of :mod:`repro.predictors.ttb`.
    Predictions happen only at INDIRECT_BRANCH / INDIRECT_CALL exits, but
    a path-indexed buffer (``observes_steps``) shifts every retired task
    into its path register, so its slot column is computed over the whole
    trace; a history-free one only needs the indirect rows.
    """
    trace = checked_trace(workload, limit)
    indirect_steps = np.flatnonzero(np.isin(trace.cf_type, _INDIRECT_CODES))
    if buffer.observes_steps:
        slot_ids = buffer.batch_slot_ids(trace.task_addr)[indirect_steps]
    else:
        slot_ids = buffer.batch_slot_ids(trace.task_addr[indirect_steps])
    _, hit = replay_target_entries(
        slot_ids, trace.next_addr[indirect_steps].astype(np.int64)
    )
    return TargetPredictionStats(
        trials=int(indirect_steps.size),
        misses=int(hit.size - hit.sum()),
        entries_touched=int(np.unique(slot_ids).size),
        storage_bits=buffer.storage_bits(),
    )


def batched_task_prediction_column(
    workload: Workload,
    predictor: NextTaskPredictor,
    trace,
) -> np.ndarray:
    """Per-step predicted next-task addresses.

    Composes the predictor's exit-choice column (when it has an exit
    predictor) with its batched address resolution
    (``batch_predicted_addrs``). The predictor object is not mutated;
    only freshly constructed predictors may be batched. Shared by
    :func:`simulate_task_prediction` and the timing simulator.
    """
    predicted_exits = None
    exit_predictor = predictor.exit_predictor
    if exit_predictor is not None:
        predicted_exits = batched_exit_prediction_column(
            exit_predictor,
            trace.task_addr,
            trace.exit_index,
            exit_count_column(workload, trace.task_addr),
        )
    return predictor.batch_predicted_addrs(
        trace.task_addr,
        predicted_exits,
        trace.exit_index,
        trace.cf_type,
        trace.next_addr,
    )


def task_prediction_stats(
    trace, wrong: np.ndarray, storage_bits: int
) -> TaskPredictionStats:
    """Table 3's record from a trace and its per-step miss mask."""
    n_codes = max(CF_TYPE_FROM_CODE) + 1
    code_trials = np.bincount(trace.cf_type, minlength=n_codes)
    code_misses = np.bincount(trace.cf_type[wrong], minlength=n_codes)
    type_names = {
        code: str(cf_type) for code, cf_type in CF_TYPE_FROM_CODE.items()
    }
    return TaskPredictionStats(
        trials=len(trace.task_addr),
        address_misses=int(wrong.sum()),
        misses_by_type={
            type_names[code]: int(count)
            for code, count in enumerate(code_misses)
            if count
        },
        trials_by_type={
            type_names[code]: int(count)
            for code, count in enumerate(code_trials)
            if count
        },
        storage_bits=storage_bits,
    )


def simulate_task_prediction(
    workload: Workload,
    predictor: NextTaskPredictor,
    limit: int | None = None,
) -> TaskPredictionStats:
    """Measure full next-task-address prediction accuracy (Table 3)."""
    trace = checked_trace(workload, limit)
    predicted = batched_task_prediction_column(workload, predictor, trace)
    wrong = predicted != int64_column(trace.next_addr)
    return task_prediction_stats(trace, wrong, predictor.storage_bits())
