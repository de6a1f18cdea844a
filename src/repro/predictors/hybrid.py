"""Tournament (hybrid) exit prediction.

Figure 7 shows no single history scheme wins everywhere: PATH dominates
except on sc, where per-task cyclic behaviour favours PER. A McFarling-style
tournament predictor [10] resolves this at run time: a chooser table of
2-bit counters, indexed by task address, tracks which component has been
more accurate *for this task* and selects it. This is a natural extension
the paper leaves open; the ``ext_hybrid`` experiment measures it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.base import ExitPredictor
from repro.utils.bits import bit_mask
from repro.utils.memo import int64_column
from repro.utils.scan import group_segments, sorted_fsm_scan

_ALIGN_SHIFT = 2
_CHOOSER_MAX = 3
_CHOOSER_INIT = 2  # weakly prefer the first component

#: Chooser inputs of the batched replay, and its transition table.
_SECOND_RIGHT, _FIRST_RIGHT, _BOTH_WRONG = range(3)
_CHOOSER_TRANSITIONS = np.array(
    [
        [max(0, counter - 1), min(_CHOOSER_MAX, counter + 1), counter]
        for counter in range(_CHOOSER_MAX + 1)
    ],
    dtype=np.int8,
)


class TournamentExitPredictor(ExitPredictor):
    """Selects between two exit predictors with a per-task chooser.

    The chooser counter saturates toward the component that has been
    correct when the two disagreed (agreeing outcomes teach it nothing,
    exactly as in McFarling's combining predictor).

    The components must not share a random tie-break stream. The stepped
    ``predict`` interleaves their draws step by step, while the batched
    kernel replays each component's whole column in turn; with one stream
    each, both orders draw the same values and leave every stream in the
    same state.
    """

    def __init__(
        self,
        first: ExitPredictor,
        second: ExitPredictor,
        chooser_index_bits: int = 12,
    ) -> None:
        if chooser_index_bits < 1:
            raise PredictorConfigError("chooser needs >= 1 index bit")
        self._first = first
        self._second = second
        self._chooser_index_bits = chooser_index_bits
        self._chooser: dict[int, int] = {}
        self._pending: tuple[int, int] | None = None

    @property
    def components(self) -> tuple[ExitPredictor, ExitPredictor]:
        """The (first, second) component predictors."""
        return self._first, self._second

    def _slot(self, task_addr: int) -> int:
        return (task_addr >> _ALIGN_SHIFT) & bit_mask(
            self._chooser_index_bits
        )

    def predict(self, task_addr: int, n_exits: int) -> int:
        first_prediction = self._first.predict(task_addr, n_exits)
        second_prediction = self._second.predict(task_addr, n_exits)
        self._pending = (first_prediction, second_prediction)
        counter = self._chooser.get(self._slot(task_addr), _CHOOSER_INIT)
        return (
            first_prediction if counter >= 2 else second_prediction
        )

    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        if self._pending is not None and n_exits > 1:
            first_prediction, second_prediction = self._pending
            first_correct = first_prediction == actual_exit
            second_correct = second_prediction == actual_exit
            if first_correct != second_correct:
                slot = self._slot(task_addr)
                counter = self._chooser.get(slot, _CHOOSER_INIT)
                if first_correct:
                    counter = min(_CHOOSER_MAX, counter + 1)
                else:
                    counter = max(0, counter - 1)
                self._chooser[slot] = counter
        self._pending = None
        self._first.update(task_addr, n_exits, actual_exit)
        self._second.update(task_addr, n_exits, actual_exit)

    def states_touched(self) -> int:
        return (
            self._first.states_touched()
            + self._second.states_touched()
            + len(self._chooser)
        )

    def storage_bits(self) -> int:
        chooser_bits = (1 << self._chooser_index_bits) * 2
        return (
            self._first.storage_bits()
            + self._second.storage_bits()
            + chooser_bits
        )

    def batch_column(
        self,
        task_addrs: np.ndarray,
        actual_exits: np.ndarray,
        n_exits_col: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Both components' columns, combined by :meth:`batch_choose`."""
        (first, first_touched), (second, second_touched) = (
            component.batch_column(task_addrs, actual_exits, n_exits_col)
            for component in self.components
        )
        predicted, chooser_touched = self.batch_choose(
            task_addrs,
            n_exits_col > 1,
            int64_column(actual_exits),
            first,
            second,
        )
        return predicted, first_touched + second_touched + chooser_touched

    def batch_choose(
        self,
        task_addrs: np.ndarray,
        multiway: np.ndarray,
        actual_exits: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Replay the chooser over both components' prediction columns.

        ``first``/``second`` are the components' per-step predictions
        (their own ``batch_column``). Only multiway steps where the two
        disagree matter: elsewhere either answer is the same and the
        chooser does not train. Those steps replay each slot's 2-bit
        counter with one segmented FSM scan. Returns the tournament's
        prediction column and the number of chooser entries created.
        Only valid for a freshly constructed predictor; the object is
        not mutated.
        """
        predicted = first.copy()
        steps = np.flatnonzero(multiway & (first != second))
        if not steps.size:
            return predicted, 0
        slots = (int64_column(task_addrs)[steps] >> _ALIGN_SHIFT) & bit_mask(
            self._chooser_index_bits
        )
        actual = actual_exits[steps]
        first_right = first[steps] == actual
        second_right = second[steps] == actual
        inputs = np.where(
            first_right,
            _FIRST_RIGHT,
            np.where(second_right, _SECOND_RIGHT, _BOTH_WRONG),
        )
        order, starts = group_segments(slots)
        sorted_counters = sorted_fsm_scan(
            starts,
            inputs[order],
            _CHOOSER_TRANSITIONS,
            np.full(int(starts.sum()), _CHOOSER_INIT),
        )
        counters = np.empty(steps.size, dtype=np.int64)
        counters[order] = sorted_counters
        predicted[steps] = np.where(
            counters >= 2, first[steps], second[steps]
        )
        trained = np.unique(slots[first_right != second_right]).size
        return predicted, trained
