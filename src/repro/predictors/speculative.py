"""Speculative-history path prediction: relaxing the §3.1 idealisations.

The paper's functional methodology makes two idealisations:

* *Update timing* — predictor structures update immediately with actual
  outcomes (no staleness);
* *Pollution* — simulation never continues past a mispredict, so history
  always reflects the actual path (equivalent to perfect repair).

Real hardware shifts *predicted* outcomes into the history register at
prediction time (the sequencer runs far ahead of resolution) and must
repair it when a task mispredict resolves. This module implements that
machinery so the cost of imperfect repair can be measured:

* :class:`SpeculativePathPredictor` — a path-based exit predictor whose
  path register advances with *predicted* next-task addresses, with three
  repair policies on mispredict resolution:

  - ``"perfect"``  — restore the exact pre-speculation history (checkpoint
    per in-flight prediction, as real Multiscalar hardware with history
    checkpointing would); equivalent to the paper's idealisation.
  - ``"squash"``   — clear the history register entirely (cheap hardware).
  - ``"none"``     — leave the polluted history in place (no repair).

Automaton updates still happen at resolution time with actual outcomes
(non-speculative, as in two-level branch predictors — §4.1). The automaton
must tabulate (:func:`repro.predictors.automata.tabulate_automaton`): the
batched perfect-repair replay runs the table, so a predictor built around
one that does not is rejected with :class:`PredictorConfigError`.
"""

from __future__ import annotations

from collections import deque

from repro.errors import PredictorConfigError
from repro.predictors.automata import (
    AutomatonTable,
    automaton_table,
    make_automaton_factory,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.pht import PatternHistoryTable

REPAIR_POLICIES = ("perfect", "squash", "none")


class SpeculativePathPredictor:
    """Path-based exit predictor with speculative history management.

    Unlike :class:`repro.predictors.exit_predictors.PathExitPredictor`,
    whose ``update`` both trains the automaton and advances the history
    with the actual outcome, this class splits the lifecycle the way the
    hardware pipeline does:

    1. ``predict(task_addr, n_exits)`` — returns the exit index, and
       *speculatively* shifts the current task into the path register.
    2. ``resolve(task_addr, n_exits, actual_exit, was_wrong_path)`` —
       called at task completion: trains the automaton and, when the
       downstream prediction proved wrong, applies the repair policy.
    """

    def __init__(
        self,
        spec: DolcSpec,
        repair: str = "perfect",
        automaton: str = "LEH-2",
        max_in_flight: int = 8,
    ) -> None:
        if repair not in REPAIR_POLICIES:
            raise PredictorConfigError(
                f"repair must be one of {REPAIR_POLICIES}, got {repair!r}"
            )
        if max_in_flight < 1:
            raise PredictorConfigError("max_in_flight must be >= 1")
        self._spec = spec
        self._repair = repair
        self._pht = PatternHistoryTable(
            spec.index_bits, make_automaton_factory(automaton)
        )
        table = automaton_table(self._pht.factory)
        if table is None:
            raise PredictorConfigError(
                f"automaton {automaton!r} does not tabulate, so the "
                "batched speculative replay cannot run it"
            )
        self._table = table
        self._path: deque[int] = deque(maxlen=max(1, spec.depth))
        # Checkpoints of the path register, one per unresolved prediction,
        # oldest first. Real hardware bounds these by the ring size.
        self._checkpoints: deque[tuple[int, tuple[int, ...]]] = deque(
            maxlen=max_in_flight
        )

    @property
    def spec(self) -> DolcSpec:
        """The index specification in force."""
        return self._spec

    @property
    def repair_policy(self) -> str:
        """The history-repair policy in force."""
        return self._repair

    @property
    def pht_factory(self):
        """The automaton factory populating PHT entries."""
        return self._pht.factory

    @property
    def pht_table(self) -> AutomatonTable:
        """The entries' tabulated automaton, for the batched replay."""
        return self._table

    def predict(self, task_addr: int, n_exits: int) -> int:
        """Predict the exit and speculatively advance the path register."""
        index = self._spec.index(task_addr, self._path)
        if n_exits == 1:
            prediction = 0
        else:
            prediction = min(
                self._pht.entry(index).predict(), n_exits - 1
            )
        if self._spec.depth:
            self._checkpoints.append((task_addr, tuple(self._path)))
            self._path.append(task_addr)
        return prediction

    def predict_wrong_path(self, task_addr: int, n_exits: int) -> int:
        """Predict a task the sequencer fetched down a wrong path.

        Shifts the (wrong) task into the speculative history like any other
        prediction, but takes no checkpoint and will never be resolved —
        the hardware squashes such tasks before they complete.
        """
        index = self._spec.index(task_addr, self._path)
        prediction = self._pht.entry(index).predict() if n_exits > 1 else 0
        if self._spec.depth:
            self._path.append(task_addr)
        return min(prediction, max(0, n_exits - 1))

    def resolve(
        self,
        task_addr: int,
        n_exits: int,
        actual_exit: int,
        was_wrong_path: bool,
    ) -> None:
        """Train on the resolved outcome; repair history on a mispredict.

        ``was_wrong_path`` is True when the prediction made *at this task*
        turned out wrong, so everything shifted into the history after it
        was wrong-path speculation.
        """
        if n_exits > 1:
            checkpoint_path = self._checkpoint_for(task_addr)
            index = self._spec.index(
                task_addr,
                checkpoint_path if checkpoint_path is not None
                else self._path,
            )
            self._pht.entry(index).update(actual_exit)
        if was_wrong_path and self._spec.depth:
            self._apply_repair(task_addr)
        self._drop_checkpoint(task_addr)

    def _checkpoint_for(self, task_addr: int) -> tuple[int, ...] | None:
        for addr, path in self._checkpoints:
            if addr == task_addr:
                return path
        return None

    def _drop_checkpoint(self, task_addr: int) -> None:
        for i, (addr, _) in enumerate(self._checkpoints):
            if addr == task_addr:
                del self._checkpoints[i]
                return

    def _apply_repair(self, task_addr: int) -> None:
        if self._repair == "none":
            return
        if self._repair == "squash":
            self._path.clear()
            return
        # perfect: restore the checkpoint taken when this task was
        # predicted, then replay the task itself (it did execute).
        checkpoint = self._checkpoint_for(task_addr)
        if checkpoint is not None:
            self._path.clear()
            self._path.extend(checkpoint)
            self._path.append(task_addr)

    def states_touched(self) -> int:
        """Distinct PHT entries exercised."""
        return self._pht.states_touched()

    def storage_bits(self) -> int:
        """PHT storage (checkpoints are microarchitectural state)."""
        return self._pht.storage_bits()
