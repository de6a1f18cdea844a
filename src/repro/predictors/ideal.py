"""Ideal (alias-free) history-generation schemes (paper §5.2, Figure 7).

The paper compares GLOBAL / PER / PATH under *ideal* implementations: "no
aliasing in any of the data structures" — every distinct (task, history)
combination gets its own prediction automaton. These classes realise that
with unbounded dictionaries:

* :class:`IdealGlobalPredictor` — key = (task, last D exit indices taken
  globally).
* :class:`IdealPerTaskPredictor` — key = (task, last D exit indices taken
  *by this task*): one history register and one pattern table per static
  task (Yeh's PAp).
* :class:`IdealPathPredictor` — key = (task, addresses of the last D
  tasks): uniquely identified paths.

At depth 0 all three degenerate to one automaton per static task, which is
why the Figure 7 curves share their leftmost point.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.automata import (
    BatchPlan,
    MultiwayAutomaton,
    batch_automaton,
    resolve_factory,
)
from repro.predictors.pht import PlannedExitPredictor
from repro.utils.memo import int64_column
from repro.utils.windows import (
    group_by_global_history,
    group_by_path,
    group_by_per_key_history,
)


class _IdealPredictorBase(PlannedExitPredictor):
    """Shared machinery: an unbounded key -> automaton map."""

    def __init__(
        self,
        depth: int,
        automaton: str | Callable[[], MultiwayAutomaton],
        update_on_single_exit: bool,
    ) -> None:
        if depth < 0:
            raise PredictorConfigError("history depth must be >= 0")
        self._depth = depth
        self._factory = resolve_factory(automaton)
        # predict() answers 0 for a key it has never updated, without
        # consulting (or building) an automaton: no tie-break draw.
        self._batched = batch_automaton(
            self._factory, draw_on_first_touch=False
        )
        self._update_on_single_exit = update_on_single_exit
        self._table: dict[tuple, MultiwayAutomaton] = {}

    @property
    def depth(self) -> int:
        """Configured history depth."""
        return self._depth

    def _key(self, task_addr: int) -> tuple:
        raise NotImplementedError

    def _advance_history(self, task_addr: int, actual_exit: int) -> None:
        raise NotImplementedError

    def predict(self, task_addr: int, n_exits: int) -> int:
        if n_exits == 1 and not self._update_on_single_exit:
            return 0
        automaton = self._table.get(self._key(task_addr))
        if automaton is None:
            return 0
        return min(automaton.predict(), n_exits - 1)

    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        if n_exits > 1 or self._update_on_single_exit:
            key = self._key(task_addr)
            automaton = self._table.get(key)
            if automaton is None:
                automaton = self._table[key] = self._factory()
            automaton.update(actual_exit)
        self._advance_history(task_addr, actual_exit)

    def states_touched(self) -> int:
        return len(self._table)

    def storage_bits(self) -> int:
        return 0  # unbounded by definition

    # -- batched simulation support ------------------------------------

    def _batch_group_ids(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> np.ndarray:
        """Per-step table keys as dense integer ids."""
        raise NotImplementedError

    def batch_plan(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> BatchPlan:
        """Plan a batched run: per-step key ids plus the automaton.

        :meth:`batch_column` uses the dense key ids in place of this
        predictor's key tuples and replays the automaton through its
        batched form (:func:`batch_automaton`, built when the predictor
        is, so a configuration without one is rejected there). Only
        valid for a freshly constructed predictor: the replay does not
        read or write ``self._table``.
        """
        ids = self._batch_group_ids(
            int64_column(task_addrs),
            int64_column(actual_exits),
        )
        return BatchPlan(ids, self._batched, self._update_on_single_exit)


class IdealGlobalPredictor(_IdealPredictorBase):
    """Alias-free GLOBAL: global exit history, unique automaton per state."""

    def __init__(
        self,
        depth: int,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
        update_on_single_exit: bool = False,
    ) -> None:
        super().__init__(depth, automaton, update_on_single_exit)
        self._history: deque[int] = deque(maxlen=depth) if depth else deque()

    def _key(self, task_addr: int) -> tuple:
        return (task_addr, tuple(self._history))

    def _advance_history(self, task_addr: int, actual_exit: int) -> None:
        if self._depth:
            self._history.append(actual_exit)

    def _batch_group_ids(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> np.ndarray:
        return group_by_global_history(
            task_addrs, actual_exits, self._depth
        )


class IdealPerTaskPredictor(_IdealPredictorBase):
    """Alias-free PER: one exit-history register per static task (PAp)."""

    def __init__(
        self,
        depth: int,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
        update_on_single_exit: bool = False,
    ) -> None:
        super().__init__(depth, automaton, update_on_single_exit)
        self._histories: dict[int, deque[int]] = {}

    def _task_history(self, task_addr: int) -> deque[int]:
        history = self._histories.get(task_addr)
        if history is None:
            history = self._histories[task_addr] = deque(maxlen=self._depth)
        return history

    def _key(self, task_addr: int) -> tuple:
        if not self._depth:
            return (task_addr, ())
        return (task_addr, tuple(self._task_history(task_addr)))

    def _advance_history(self, task_addr: int, actual_exit: int) -> None:
        if self._depth:
            self._task_history(task_addr).append(actual_exit)

    def _batch_group_ids(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> np.ndarray:
        return group_by_per_key_history(
            task_addrs, actual_exits, self._depth
        )


class IdealPathPredictor(_IdealPredictorBase):
    """Alias-free PATH: the last D task addresses identify the path."""

    def __init__(
        self,
        depth: int,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
        update_on_single_exit: bool = False,
    ) -> None:
        super().__init__(depth, automaton, update_on_single_exit)
        self._path: deque[int] = deque(maxlen=depth) if depth else deque()

    def _key(self, task_addr: int) -> tuple:
        return (task_addr, tuple(self._path))

    def _advance_history(self, task_addr: int, actual_exit: int) -> None:
        if self._depth:
            self._path.append(task_addr)

    def _batch_group_ids(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> np.ndarray:
        return group_by_path(task_addrs, self._depth)
