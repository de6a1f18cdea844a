"""Relaxed-idealisation simulation: history pollution and repair.

The main functional simulator applies the paper's §3.1 idealisations. This
module drops the *pollution* idealisation: when an exit prediction is
wrong, the sequencer keeps predicting down the wrong path for a while
(bounded by the number of speculative tasks the ring can hold), shifting
wrong-path task addresses into the history register, before the mispredict
resolves and the repair policy runs.

Wrong-path task addresses are derived the way the hardware would derive
them: follow the predicted exit's header target; a wrong path ends early
if it reaches an exit whose target the header does not give (returns and
indirect transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors.folding import DolcSpec, _ALIGN_SHIFT
from repro.predictors.pht import PackedPatternTable
from repro.predictors.speculative import SpeculativePathPredictor
from repro.sim.functional import exit_count_column
from repro.synth.workloads import Workload
from repro.utils.bits import bit_mask
from repro.utils.memo import DerivedColumnCache, int64_column

#: Header columns per program, shared by every relaxed run over it.
_HEADER_CACHE = DerivedColumnCache()

#: Sentinel for "this exit's target is not in the header" (the walk stops).
_NO_TARGET = -1


@dataclass(frozen=True)
class RelaxedPredictionStats:
    """Outcome of a speculative-history run.

    Attributes:
        trials: Dynamic task predictions of the committed (actual) path.
        misses: Wrong exit predictions on the committed path.
        wrong_path_predictions: Extra predictions issued down wrong paths
            (pure pollution; they have no accuracy of their own).
    """

    trials: int
    misses: int
    wrong_path_predictions: int

    @property
    def miss_rate(self) -> float:
        """Committed-path miss rate (comparable to the ideal simulator's)."""
        return self.misses / self.trials if self.trials else 0.0


class _HeaderColumns:
    """Per-program header facts for the batched wrong-path walk."""

    __slots__ = ("addrs", "n_exits", "targets")

    def __init__(self, program) -> None:
        tasks = sorted(program.tfg, key=lambda task: task.address)
        self.addrs = np.array(
            [task.address for task in tasks], dtype=np.int64
        )
        self.n_exits = np.array(
            [task.n_exits for task in tasks], dtype=np.int64
        )
        max_exits = int(self.n_exits.max()) if tasks else 1
        self.targets = np.full(
            (len(tasks), max_exits), _NO_TARGET, dtype=np.int64
        )
        for row, task in enumerate(tasks):
            for col, e in enumerate(task.header.exits):
                if e.target is not None:
                    self.targets[row, col] = e.target

    def rows_of(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, known)`` per address; row is clamped when unknown."""
        rows = np.searchsorted(self.addrs, addrs)
        rows = np.minimum(rows, max(len(self.addrs) - 1, 0))
        known = (
            self.addrs[rows] == addrs if len(self.addrs)
            else np.zeros(len(addrs), dtype=bool)
        )
        return rows, known


def _dolc_index_rows(
    spec: DolcSpec,
    current: np.ndarray,
    window: np.ndarray | None,
    n_path: np.ndarray | None,
) -> np.ndarray:
    """Vectorized :meth:`DolcSpec.index` over per-row path windows.

    ``window`` holds each row's path register contents (most recent
    last, ``spec.depth`` columns); ``n_path`` is how many of those
    entries are real (cold-start rows have fewer — absent tasks
    contribute zero bits, as in the scalar method).
    """
    out = np.zeros(len(current), dtype=np.int64)
    field_width = spec.index_bits

    def fold_in(values: np.ndarray, width: int, position: int) -> None:
        remaining, shift = width, position
        chunk = values
        while remaining > 0:
            offset = shift % field_width
            take = min(field_width - offset, remaining)
            np.bitwise_xor(
                out, (chunk & bit_mask(take)) << offset, out=out
            )
            chunk = chunk >> take
            shift += take
            remaining -= take

    fold_in(
        (current >> _ALIGN_SHIFT) & bit_mask(spec.current_bits),
        spec.current_bits,
        0,
    )
    position = spec.current_bits
    if spec.depth >= 1:
        last = np.where(n_path >= 1, window[:, -1], 0)
        fold_in(
            (last >> _ALIGN_SHIFT) & bit_mask(spec.last_bits),
            spec.last_bits,
            position,
        )
        position += spec.last_bits
        if spec.older_bits:
            older_mask = bit_mask(spec.older_bits)
            for back in range(2, spec.depth + 1):
                older = np.where(n_path >= back, window[:, -back], 0)
                fold_in(
                    (older >> _ALIGN_SHIFT) & older_mask,
                    spec.older_bits,
                    position,
                )
                position += spec.older_bits
    return out


def _perfect_repair_stats(
    workload: Workload,
    predictor: SpeculativePathPredictor,
    wrong_path_depth: int,
    trace,
) -> RelaxedPredictionStats:
    """Columnwise speculative run under the ``"perfect"`` repair policy.

    Perfect repair restores the committed-path history after every
    mispredict, so the committed prediction stream is a straight PHT
    replay over the D-O-L-C index column, and each wrong-path excursion
    can be replayed afterwards against the PHT state of its origin step
    (wrong-path predictions never train, so excursions don't interact).
    ``"squash"`` and ``"none"`` leave pollution in the history register,
    which couples every step to the trace's miss pattern — those run
    :func:`speculative_loop`, which is also this kernel's reference.
    """
    spec = predictor.spec
    table = predictor.pht_table
    headers = _HEADER_CACHE.get(
        (workload,),
        "relaxed-headers",
        lambda: _HeaderColumns(workload.program),
    )
    addrs = int64_column(trace.task_addr)
    actual_exits = int64_column(trace.exit_index)
    n = len(addrs)
    if n == 0:
        return RelaxedPredictionStats(0, 0, 0)
    rows, _ = headers.rows_of(addrs)  # every task is known (validated)
    n_exits_col = headers.n_exits[rows]

    # Committed stream: perfect repair keeps the path register equal to
    # the committed-path tail at every step, so the index column is the
    # plain D-O-L-C fold and the PHT replay is exact.
    index_col = spec.index_column(trace.task_addr)
    multiway = n_exits_col > 1
    steps = np.flatnonzero(multiway)
    predicted = np.zeros(n, dtype=np.int64)
    pre_states = np.zeros(steps.size, dtype=np.int64)
    if steps.size:
        packed = PackedPatternTable(
            table, int(index_col[steps].max()) + 1
        )
        pre_states = packed.replay(index_col[steps], actual_exits[steps])
        predicted[steps] = np.minimum(
            packed.predictions_of(pre_states), n_exits_col[steps] - 1
        )
    wrong = predicted != actual_exits
    misses = int(wrong.sum())

    # Wrong-path walks: replayed level by level across all misses at
    # once. A walk at origin step i reads PHT entries as trained by
    # multiway steps j < i (step i itself trains at resolve, *after* its
    # walk), answered per level with one combined-key searchsorted over
    # the committed update stream.
    post_states = table.transitions[
        pre_states, actual_exits[steps]
    ].astype(np.int64)
    stride = np.int64(n + 1)
    update_keys = index_col[steps] * stride + steps
    update_order = np.argsort(update_keys)
    update_keys = update_keys[update_order]
    update_states = post_states[update_order]
    update_index = index_col[steps][update_order]

    origin = np.flatnonzero(wrong)
    wrong_path_predictions = 0
    if origin.size and wrong_path_depth > 0:
        current = headers.targets[rows[origin], predicted[origin]]
        depth = spec.depth
        if depth:
            # Path register contents just after step i's own predict:
            # the last `depth` committed addresses, most recent last.
            window = np.zeros((origin.size, depth), dtype=np.int64)
            for k in range(depth):
                lag = depth - 1 - k
                valid = origin >= lag
                window[valid, k] = addrs[origin[valid] - lag]
            n_path = np.minimum(origin + 1, depth)
        else:
            window = None
            n_path = None
        for _ in range(wrong_path_depth):
            live = current != _NO_TARGET
            if not live.any():
                break
            current = current[live]
            origin = origin[live]
            if depth:
                window = window[live]
                n_path = n_path[live]
            walk_rows, walk_known = headers.rows_of(current)
            if not walk_known.all():
                keep = walk_known
                current = current[keep]
                origin = origin[keep]
                walk_rows = walk_rows[keep]
                if depth:
                    window = window[keep]
                    n_path = n_path[keep]
                if not len(current):
                    break
            walk_exits = headers.n_exits[walk_rows]
            index = _dolc_index_rows(spec, current, window, n_path)
            query = index * stride + origin
            pos = np.searchsorted(update_keys, query) - 1
            hit = (pos >= 0) & (update_index[np.maximum(pos, 0)] == index)
            states = np.where(
                hit, update_states[np.maximum(pos, 0)], 0
            )
            walk_predicted = np.where(
                walk_exits > 1,
                np.minimum(
                    table.predictions[states],
                    np.maximum(walk_exits - 1, 0),
                ),
                0,
            )
            wrong_path_predictions += len(current)
            if depth:
                window = np.concatenate(
                    (window[:, 1:], current[:, None]), axis=1
                )
                n_path = np.minimum(n_path + 1, depth)
            current = headers.targets[walk_rows, walk_predicted]

    return RelaxedPredictionStats(
        trials=n,
        misses=misses,
        wrong_path_predictions=wrong_path_predictions,
    )


def simulate_speculative_exit_prediction(
    workload: Workload,
    predictor: SpeculativePathPredictor,
    wrong_path_depth: int = 4,
    limit: int | None = None,
) -> RelaxedPredictionStats:
    """Run a speculative-history predictor with wrong-path pollution.

    ``wrong_path_depth`` bounds how many wrong-path tasks are fetched and
    predicted before the mispredict resolves — in hardware this is at most
    the number of speculative processing units.

    The repair policy picks the kernel. ``"perfect"`` is evaluated as a
    batched PHT replay plus a level-synchronous wrong-path walk, and the
    predictor object is not mutated. ``"squash"`` and ``"none"`` have no
    batched form yet and run :func:`speculative_loop`, which mutates the
    predictor as real hardware would.
    """
    trace = workload.trace if limit is None else workload.trace.head(limit)
    exit_count_column(workload, trace.task_addr)  # rejects unknown tasks
    if predictor.repair_policy == "perfect":
        return _perfect_repair_stats(
            workload, predictor, wrong_path_depth, trace
        )
    return speculative_loop(workload, predictor, wrong_path_depth, trace)


def speculative_loop(
    workload: Workload,
    predictor: SpeculativePathPredictor,
    wrong_path_depth: int,
    trace,
) -> RelaxedPredictionStats:
    """The stepped speculative run: predict, pollute, resolve per task.

    Serves every repair policy, so it is the production kernel of
    ``"squash"`` and ``"none"`` and the reference
    (:func:`repro.sim.reference.simulate_speculative_exit_prediction`)
    of the batched ``"perfect"`` replay.
    """
    info: dict[int, tuple[int, tuple]] = {}
    for task in workload.program.tfg:
        info[task.address] = (
            task.n_exits,
            tuple(e.target for e in task.header.exits),
        )

    task_addrs = trace.task_addr.tolist()
    actual_exits = trace.exit_index.tolist()

    trials = 0
    misses = 0
    wrong_path_predictions = 0
    for addr, actual in zip(task_addrs, actual_exits):
        n_exits, targets = info[addr]
        predicted = predictor.predict(addr, n_exits)
        trials += 1
        wrong = predicted != actual
        if wrong:
            misses += 1
            wrong_path_predictions += _pollute(
                predictor, info, targets[predicted], wrong_path_depth
            )
        predictor.resolve(addr, n_exits, actual, was_wrong_path=wrong)
    return RelaxedPredictionStats(
        trials=trials,
        misses=misses,
        wrong_path_predictions=wrong_path_predictions,
    )


def _pollute(
    predictor: SpeculativePathPredictor,
    info: dict[int, tuple[int, tuple]],
    wrong_target: int | None,
    depth: int,
) -> int:
    """Predict down the wrong path, polluting history; return step count.

    Wrong-path predictions are never resolved (the hardware squashes those
    tasks before completion), so they train nothing — they only shift
    addresses into the speculative history register.
    """
    steps = 0
    current = wrong_target
    while current is not None and steps < depth:
        entry = info.get(current)
        if entry is None:
            break
        n_exits, targets = entry
        predicted = predictor.predict_wrong_path(current, n_exits)
        steps += 1
        current = targets[predicted]
    return steps
