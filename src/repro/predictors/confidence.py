"""Confidence estimation for task predictions.

The same authors' companion work (Jacobson, Bennett, Sharma & Smith,
"Assigning Confidence to Conditional Branch Predictions", MICRO-29 1996)
attaches a *confidence estimator* to a predictor: a table of resetting
counters that count consecutive correct predictions per history context.
A prediction is high-confidence when its counter has reached a threshold.

In a Multiscalar machine this gates speculation depth: a low-confidence
task prediction is a good place to stop allocating processing units (a
mispredicted task squashes all younger work). The ``ext_confidence``
experiment measures the classic quality metrics:

* coverage — fraction of predictions flagged high-confidence;
* high-confidence accuracy;
* PVN (predictive value of a negative) — fraction of low-confidence
  predictions that indeed miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.base import ExitPredictor
from repro.predictors.folding import DolcSpec
from repro.synth.workloads import Workload
from repro.utils.memo import int64_column
from repro.utils.scan import group_segments


class ResettingConfidenceEstimator:
    """A table of resetting counters indexed by the path-history hash.

    ``update`` saturates the counter on a correct prediction and clears it
    on a miss; ``is_high_confidence`` compares against the threshold. This
    is the MICRO-96 paper's best small estimator (resetting counters beat
    saturating ones because one miss voids accumulated trust).
    """

    def __init__(
        self,
        spec: DolcSpec,
        threshold: int = 4,
        counter_max: int = 15,
    ) -> None:
        if threshold < 1:
            raise PredictorConfigError("threshold must be >= 1")
        if counter_max < threshold:
            raise PredictorConfigError("counter_max must be >= threshold")
        self._spec = spec
        self._threshold = threshold
        self._counter_max = counter_max
        self._counters: dict[int, int] = {}
        self._path: list[int] = []

    @property
    def threshold(self) -> int:
        """Counter value at which a prediction counts as high-confidence."""
        return self._threshold

    def _slot(self, task_addr: int) -> int:
        return self._spec.index(task_addr, self._path)

    def is_high_confidence(self, task_addr: int) -> bool:
        """Query confidence for the upcoming prediction at this task."""
        return (
            self._counters.get(self._slot(task_addr), 0) >= self._threshold
        )

    def update(self, task_addr: int, correct: bool) -> None:
        """Train on the prediction outcome and advance the path register."""
        slot = self._slot(task_addr)
        if correct:
            counter = self._counters.get(slot, 0)
            if counter < self._counter_max:
                self._counters[slot] = counter + 1
        else:
            self._counters[slot] = 0
        if self._spec.depth:
            self._path.append(task_addr)
            if len(self._path) > self._spec.depth:
                del self._path[0]

    def storage_bits(self) -> int:
        """Full-capacity cost: one counter per table entry."""
        bits_per_counter = max(1, self._counter_max.bit_length())
        return self._spec.table_entries * bits_per_counter

    def batch_gate_columns(
        self, task_addrs: np.ndarray, correct: np.ndarray
    ) -> np.ndarray:
        """Per-step high-confidence flags for a whole prediction run.

        ``correct[i]`` is the outcome fed to ``update`` at step ``i``;
        the returned boolean column holds what ``is_high_confidence``
        would have answered just before that update. A slot's counter is
        its run of correct outcomes since its last miss, saturated at
        ``counter_max >= threshold``, so the flag is simply "that run is
        at least ``threshold``" — exact for any counter width. Only valid
        for a freshly constructed estimator; the object is not mutated.
        """
        slots = self._spec.index_column(int64_column(task_addrs))
        order, starts = group_segments(slots)
        hits = np.asarray(correct, dtype=bool)[order]
        # A run restarts at a slot's first step and after each miss.
        restarts = starts.copy()
        restarts[1:] |= ~hits[:-1]
        positions = np.arange(len(hits), dtype=np.int64)
        run_start = np.maximum.accumulate(np.where(restarts, positions, 0))
        flags = np.empty(len(hits), dtype=bool)
        flags[order] = positions - run_start >= self._threshold
        return flags


@dataclass(frozen=True)
class ConfidenceStats:
    """Quality metrics of a confidence estimator over one run."""

    trials: int
    high_confidence: int
    high_correct: int
    low_confidence: int
    low_incorrect: int

    @property
    def coverage(self) -> float:
        """Fraction of predictions flagged high-confidence."""
        return self.high_confidence / self.trials if self.trials else 0.0

    @property
    def high_confidence_accuracy(self) -> float:
        """Accuracy among high-confidence predictions (PVP)."""
        if not self.high_confidence:
            return 0.0
        return self.high_correct / self.high_confidence

    @property
    def pvn(self) -> float:
        """Fraction of low-confidence predictions that actually missed."""
        if not self.low_confidence:
            return 0.0
        return self.low_incorrect / self.low_confidence


def simulate_confidence(
    workload: Workload,
    predictor: ExitPredictor,
    estimator: ResettingConfidenceEstimator,
    limit: int | None = None,
) -> ConfidenceStats:
    """Run predictor + estimator over a trace; return quality metrics.

    The predictor's batched exit column gives every step's outcome, and
    the estimator's batched gate column (:meth:`ResettingConfidenceEstimator.
    batch_gate_columns`) its confidence; neither object is mutated. The
    step-by-step reference is :func:`repro.sim.reference.simulate_confidence`.
    """
    # Imported here: the batched drivers live in the simulation layer,
    # which depends on this package — not the other way around.
    from repro.sim.functional import (
        batched_exit_prediction_column,
        checked_trace,
        exit_count_column,
    )

    trace = checked_trace(workload, limit)
    n_exits_col = exit_count_column(workload, trace.task_addr)
    predicted = batched_exit_prediction_column(
        predictor, trace.task_addr, trace.exit_index, n_exits_col
    )
    correct = predicted == int64_column(trace.exit_index)
    confident = estimator.batch_gate_columns(trace.task_addr, correct)
    trials = len(correct)
    high = int(confident.sum())
    return ConfidenceStats(
        trials=trials,
        high_confidence=high,
        high_correct=int((confident & correct).sum()),
        low_confidence=trials - high,
        low_incorrect=int((~confident & ~correct).sum()),
    )
