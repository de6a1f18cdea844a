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

Each simulator has two execution strategies that produce bit-identical
statistics:

* a **generic loop** that drives any predictor through its
  ``predict``/``update`` interface, one trace record at a time; and
* a **batched kernel** used when the predictor advertises an exact
  vectorized equivalent — the ideal (alias-free) and PHT exit predictors
  and the target buffers expose their per-step table keys as dense
  integer ids (``batch_plan`` / ``batch_slot_ids``), and stateless
  predictors expose whole-column predictions (``predict_column``). The
  kernels replace per-step tuple hashing and method dispatch with numpy
  preprocessing plus a tight integer loop over only the steps that can
  miss.

Every exit predictor's plan goes through one replay, :func:`_replay_plan`,
which serves both the statistics and the prediction column. A plan pairs
the key ids with the automaton's batched form: a tabulated state machine
for LE/LEH, or the factored voting-counter replay
(:class:`~repro.predictors.automata.VotingCountersReplay`) for all four
VC automata, so none of Figure 6's automata runs the per-task loop.

Pass ``vectorize=False`` to force the generic loop (the equivalence tests
do exactly that). Batched kernels never mutate the predictor object; a
predictor that must be inspected after simulation should be driven with
``vectorize=False``. The one shared effect is the random tie-break
stream of VC-RANDOM automata: the batched replay draws from it exactly
as the loop would — the same ``choice`` calls, at the same steps, in
trace order — so a run consumes the stream either way and leaves it in
the same state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.predictors.automata import AutomatonTable, VotingCountersReplay
from repro.predictors.base import ExitPredictor, NextTaskPredictor
from repro.predictors.pht import PackedPatternTable
from repro.sim.result import (
    ExitPredictionStats,
    TargetPredictionStats,
    TaskPredictionStats,
)
from repro.synth.trace import CF_TYPE_FROM_CODE
from repro.synth.workloads import Workload
from repro.utils.memo import REUSE_BYTES, DerivedColumnCache, int64_column

#: Exit-count columns per (workload, trace address column) — shared by
#: every predictor scheme swept over the same trace.
_EXIT_COUNT_CACHE = DerivedColumnCache()

#: Multiway-step group ids per (group-id column, exit-count column): every
#: automaton replayed over one grouping reads the same ids object, so the
#: replays also share its segment sort (``repro.utils.scan.group_segments``).
#: Only groupings replayed more than once are kept: a one-off replay's
#: ids, and the sort anchored on them, die with the replay.
_MULTIWAY_IDS = DerivedColumnCache(
    max_bytes=REUSE_BYTES, admit_on_repeat=True
)

#: Codes of INDIRECT_BRANCH / INDIRECT_CALL in trace arrays.
_INDIRECT_CODES = (3, 4)

#: Hysteresis bounds of a target-buffer entry (see ``_TargetEntry``).
_TARGET_COUNTER_MAX = 3


def exit_count_column(
    workload: Workload, task_addrs: np.ndarray
) -> np.ndarray:
    """Per-step header-exit counts as a numpy column.

    Vectorizes the address -> exit-count mapping once per trace instead
    of a dict lookup per step, and memoises the column per (workload,
    address column) — the result is shared, do not mutate it. Raises
    :class:`SimulationError` if the trace references a task the program
    doesn't define.
    """
    return _EXIT_COUNT_CACHE.get(
        (workload, task_addrs),
        "exit-count",
        lambda: _exit_count_column(workload, task_addrs),
    )


def _exit_count_column(
    workload: Workload, task_addrs: np.ndarray
) -> np.ndarray:
    addrs = int64_column(task_addrs)
    if addrs.size == 0:
        return np.zeros(0, dtype=np.int64)
    counts = workload.exit_counts()
    if not counts:
        raise SimulationError(
            f"trace references unknown task {int(addrs[0]):#x}"
        )
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    pos = np.minimum(np.searchsorted(keys, addrs), len(keys) - 1)
    mismatched = np.flatnonzero(keys[pos] != addrs)
    if mismatched.size:
        missing = int(addrs[mismatched[0]])
        raise SimulationError(
            f"trace references unknown task {missing:#x}"
        )
    return vals[pos]


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


def _replay_plan(
    plan: tuple[np.ndarray, AutomatonTable | VotingCountersReplay],
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Run a predictor's ``batch_plan`` over a whole trace.

    The plan is ``(group_ids, automaton)``: a dense table-entry id per
    step (one automaton per id) and the automaton's batched form. Only
    multiway steps touch the table. Returns the full int64 column a
    sequence of ``predict``/``update`` pairs would produce — 0 at
    single-exit steps, clamped into the task's legal exit range at
    multiway ones — and the number of entries touched, bit-identical to
    the step-by-step loop.

    A tabulated automaton replays through :class:`PackedPatternTable`.
    Every entry starts in the tabulated initial state, which is also what
    an untouched entry predicts — a first touch reads prediction 0
    exactly like the dict-of-automata reference, whether the entry was
    pre-created by a ``predict`` or is made on the fly by ``update``.
    Voting counters replay factored (:class:`VotingCountersReplay`),
    which applies the plan's own first-touch rule.
    """
    multiway = np.asarray(n_exits_col) > 1
    _check_single_exit_legality(task_addrs, actual_exits, multiway)
    group_ids, automaton = plan
    steps = np.flatnonzero(multiway)
    predicted = np.zeros(len(task_addrs), dtype=np.int64)
    if not steps.size:
        return predicted, 0
    ids = _MULTIWAY_IDS.get(
        (group_ids, n_exits_col), "multiway-ids", lambda: group_ids[steps]
    )
    exits = int64_column(actual_exits)[steps]
    if isinstance(automaton, AutomatonTable):
        packed = PackedPatternTable(automaton, int(ids.max()) + 1)
        raw = packed.predictions_of(packed.replay(ids, exits))
        touched = packed.states_touched()
    else:
        raw, touched = automaton.replay(ids, exits)
    predicted[steps] = np.minimum(raw, int64_column(n_exits_col)[steps] - 1)
    return predicted, touched


def batched_exit_prediction_column(
    predictor: ExitPredictor,
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> np.ndarray | None:
    """Per-step predicted exits via the predictor's batched kernel.

    Returns the full int64 column a sequence of ``predict``/``update``
    pairs would produce — 0 at single-exit steps, clamped into the legal
    range at multiway ones — without mutating the predictor, or None when
    it advertises no exact batched form. This is the exit-choice half of
    the batched task predictors and the timing simulator's fast path.
    """
    plan_fn = getattr(predictor, "batch_plan", None)
    if plan_fn is not None:
        plan = plan_fn(task_addrs, actual_exits)
        if plan is None:
            return None
        return _replay_plan(plan, task_addrs, actual_exits, n_exits_col)[0]
    column_fn = getattr(predictor, "predict_column", None)
    if column_fn is not None:
        return np.asarray(
            column_fn(task_addrs, n_exits_col), dtype=np.int64
        )
    return None


def _batched_exit_stats(
    predictor: ExitPredictor,
    task_addrs: np.ndarray,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> ExitPredictionStats | None:
    """Run a batched kernel if the predictor supports one, else None."""
    multiway = n_exits_col > 1
    plan_fn = getattr(predictor, "batch_plan", None)
    if plan_fn is not None:
        plan = plan_fn(task_addrs, actual_exits)
        if plan is None:
            return None
        predicted, states = _replay_plan(
            plan, task_addrs, actual_exits, n_exits_col
        )
        misses = int((predicted != int64_column(actual_exits)).sum())
        return ExitPredictionStats(
            trials=len(task_addrs),
            misses=misses,
            multiway_trials=int(multiway.sum()),
            multiway_misses=misses,
            states_touched=states,
            storage_bits=predictor.storage_bits(),
        )
    column_fn = getattr(predictor, "predict_column", None)
    if column_fn is not None:
        predicted = np.asarray(
            column_fn(task_addrs, n_exits_col), dtype=np.int64
        )
        wrong = predicted != int64_column(actual_exits)
        bad = np.flatnonzero(~multiway & wrong)
        if bad.size:
            step = int(bad[0])
            raise SimulationError(
                f"single-exit task {int(task_addrs[step]):#x} took exit "
                f"{int(actual_exits[step])}"
            )
        misses = int((wrong & multiway).sum())
        return ExitPredictionStats(
            trials=len(task_addrs),
            misses=misses,
            multiway_trials=int(multiway.sum()),
            multiway_misses=misses,
            states_touched=predictor.states_touched(),
            storage_bits=predictor.storage_bits(),
        )
    return None


def simulate_exit_prediction(
    workload: Workload,
    predictor: ExitPredictor,
    limit: int | None = None,
    vectorize: bool = True,
) -> ExitPredictionStats:
    """Run ``predictor`` over the workload's trace; return accuracy stats.

    Uses the predictor's batched kernel when it advertises an exact one
    (see the module docstring); set ``vectorize=False`` to force the
    step-by-step loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    n_exits_col = exit_count_column(workload, trace.task_addr)
    if vectorize:
        stats = _batched_exit_stats(
            predictor, trace.task_addr, trace.exit_index, n_exits_col
        )
        if stats is not None:
            return stats

    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    exit_counts = n_exits_col.tolist()

    predict = predictor.predict
    update = predictor.update
    trials = len(task_addrs)
    misses = 0
    multiway_trials = 0
    multiway_misses = 0
    for addr, actual, n_exits in zip(task_addrs, actual_exits, exit_counts):
        predicted = predict(addr, n_exits)
        if n_exits > 1:
            multiway_trials += 1
            if predicted != actual:
                misses += 1
                multiway_misses += 1
        elif predicted != actual:  # cannot happen for legal traces
            raise SimulationError(
                f"single-exit task {addr:#x} took exit {actual}"
            )
        update(addr, n_exits, actual)
    return ExitPredictionStats(
        trials=trials,
        misses=misses,
        multiway_trials=multiway_trials,
        multiway_misses=multiway_misses,
        states_touched=predictor.states_touched(),
        storage_bits=predictor.storage_bits(),
    )


def _target_group_kernel(
    group_ids: np.ndarray, next_addrs: np.ndarray
) -> tuple[int, int]:
    """Replay hysteresis target entries over pre-grouped indirect steps.

    ``group_ids`` are dense buffer-slot ids at each indirect exit, in
    trace order. Returns ``(misses, entries_touched)`` — bit-identical to
    driving a buffer's ``predict``/``update`` pair per indirect step.
    """
    if not len(group_ids):
        return 0, 0
    n_groups = int(group_ids.max()) + 1
    target_of = [0] * n_groups
    counter_of = [0] * n_groups
    seen = bytearray(n_groups)
    misses = 0
    entries = 0
    for group, actual in zip(group_ids.tolist(), next_addrs.tolist()):
        if seen[group]:
            stored = target_of[group]
            if stored != actual:
                misses += 1
                counter = counter_of[group]
                if counter > 0:
                    counter_of[group] = counter - 1
                else:
                    target_of[group] = actual
                    counter_of[group] = 1
            elif counter_of[group] < _TARGET_COUNTER_MAX:
                counter_of[group] += 1
        else:
            # Compulsory miss: predict() returns None, update() allocates.
            seen[group] = 1
            entries += 1
            misses += 1
            target_of[group] = actual
            counter_of[group] = 1
    return misses, entries


def simulate_indirect_target_prediction(
    workload: Workload,
    buffer,
    limit: int | None = None,
    vectorize: bool = True,
) -> TargetPredictionStats:
    """Measure a TTB/CTTB on the workload's indirect exits.

    ``buffer`` is any object with the target-buffer interface
    (``predict``/``update``/``observe_step``/``entries_touched``/
    ``storage_bits``). Every retired task is fed to ``observe_step`` so
    path-indexed buffers track program progress; predictions happen only at
    INDIRECT_BRANCH / INDIRECT_CALL exits. Buffers that advertise
    ``batch_slot_ids`` run through a batched kernel instead (identical
    results); ``vectorize=False`` forces the step loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    indirect_mask = np.isin(trace.cf_type, _INDIRECT_CODES)
    indirect_steps = np.flatnonzero(indirect_mask)

    if vectorize:
        batch_fn = getattr(buffer, "batch_slot_ids", None)
        if batch_fn is not None:
            if getattr(buffer, "observes_steps", True):
                # Path-indexed slots depend on every step; compute the
                # full column, then keep the indirect rows.
                slot_ids = batch_fn(trace.task_addr)
                if slot_ids is not None:
                    slot_ids = slot_ids[indirect_steps]
            else:
                # History-free slots: only the indirect rows matter.
                slot_ids = batch_fn(trace.task_addr[indirect_steps])
            if slot_ids is not None:
                misses, entries = _target_group_kernel(
                    slot_ids,
                    trace.next_addr[indirect_steps].astype(np.int64),
                )
                return TargetPredictionStats(
                    trials=int(indirect_steps.size),
                    misses=misses,
                    entries_touched=entries,
                    storage_bits=buffer.storage_bits(),
                )

    trials = int(indirect_steps.size)
    misses = 0
    if not getattr(buffer, "observes_steps", True):
        # The buffer ignores non-indirect steps; only visit indirect ones.
        task_addrs = trace.task_addr[indirect_steps].tolist()
        next_addrs = trace.next_addr[indirect_steps].tolist()
        for addr, next_addr in zip(task_addrs, next_addrs):
            if buffer.predict(addr) != next_addr:
                misses += 1
            buffer.update(addr, next_addr)
    else:
        task_addrs = trace.task_addr.tolist()
        next_addrs = trace.next_addr.tolist()
        flags = indirect_mask.tolist()
        for addr, is_indirect, next_addr in zip(
            task_addrs, flags, next_addrs
        ):
            if is_indirect:
                if buffer.predict(addr) != next_addr:
                    misses += 1
                buffer.update(addr, next_addr)
            buffer.observe_step(addr)
    return TargetPredictionStats(
        trials=trials,
        misses=misses,
        entries_touched=buffer.entries_touched(),
        storage_bits=buffer.storage_bits(),
    )


def batched_task_prediction_column(
    workload: Workload,
    predictor: NextTaskPredictor,
    trace,
) -> np.ndarray | None:
    """Per-step predicted next-task addresses, or None.

    Composes the predictor's exit-choice column (when it has an exit
    predictor) with its batched address resolution
    (``batch_predicted_addrs``). The predictor object is not mutated;
    only freshly constructed predictors may be batched. Shared by
    :func:`simulate_task_prediction` and the timing simulator's fast
    path.

    Every decline happens before the exit replay: that replay draws
    VC-RANDOM tie-breaks from the predictor's shared stream, and the
    stepped loop a decline falls back to must start from an unused one.
    So a predictor with an exit predictor must first show that its
    address side batches (its ``batch_slot_ids``).
    """
    batch_fn = getattr(predictor, "batch_predicted_addrs", None)
    if batch_fn is None:
        return None
    predicted_exits = None
    exit_predictor = getattr(predictor, "exit_predictor", None)
    if exit_predictor is not None:
        slot_fn = getattr(predictor, "batch_slot_ids", None)
        if slot_fn is None or slot_fn(trace.task_addr) is None:
            return None
        n_exits_col = exit_count_column(workload, trace.task_addr)
        predicted_exits = batched_exit_prediction_column(
            exit_predictor, trace.task_addr, trace.exit_index, n_exits_col
        )
        if predicted_exits is None:
            return None
    return batch_fn(
        trace.task_addr,
        predicted_exits,
        trace.exit_index,
        trace.cf_type,
        trace.next_addr,
    )


def simulate_task_prediction(
    workload: Workload,
    predictor: NextTaskPredictor,
    limit: int | None = None,
    vectorize: bool = True,
) -> TaskPredictionStats:
    """Measure full next-task-address prediction accuracy (Table 3).

    Uses the predictor's batched column when it advertises an exact one
    (see the module docstring); ``vectorize=False`` forces the loop.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    if vectorize:
        predicted = batched_task_prediction_column(
            workload, predictor, trace
        )
        if predicted is not None:
            wrong = predicted != int64_column(trace.next_addr)
            n_codes = max(CF_TYPE_FROM_CODE) + 1
            code_trials = np.bincount(trace.cf_type, minlength=n_codes)
            code_misses = np.bincount(
                trace.cf_type[wrong], minlength=n_codes
            )
            type_names = {
                code: str(cf_type)
                for code, cf_type in CF_TYPE_FROM_CODE.items()
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
                storage_bits=predictor.storage_bits(),
            )

    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()
    cf_codes = trace.cf_type.tolist()
    next_addrs = trace.next_addr.tolist()

    # The per-type trial counts don't depend on the predictor; count them
    # vectorized and keep the inner loop free of string conversions by
    # indexing miss counters with the raw control-flow code.
    n_codes = max(CF_TYPE_FROM_CODE) + 1
    code_trials = np.bincount(trace.cf_type, minlength=n_codes)
    misses_by_code = [0] * n_codes

    predict = predictor.predict
    update = predictor.update
    misses = 0
    for addr, actual_exit, cf_code, next_addr in zip(
        task_addrs, actual_exits, cf_codes, next_addrs
    ):
        if predict(addr) != next_addr:
            misses += 1
            misses_by_code[cf_code] += 1
        update(addr, actual_exit, cf_code, next_addr)

    type_names = {
        code: str(cf_type) for code, cf_type in CF_TYPE_FROM_CODE.items()
    }
    trials_by_type = {
        type_names[code]: int(count)
        for code, count in enumerate(code_trials)
        if count
    }
    misses_by_type = {
        type_names[code]: count
        for code, count in enumerate(misses_by_code)
        if count
    }
    return TaskPredictionStats(
        trials=len(task_addrs),
        address_misses=misses,
        misses_by_type=misses_by_type,
        trials_by_type=trials_by_type,
        storage_bits=predictor.storage_bits(),
    )
