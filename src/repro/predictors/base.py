"""Predictor interfaces shared by the simulators.

Two levels of prediction exist, matching the paper:

* :class:`ExitPredictor` — given the current task, predict which of its (up
  to four) header exits will be taken. Drives Figures 6, 7, 10, 11.
* :class:`NextTaskPredictor` — predict the start *address* of the next task
  (exit choice plus target resolution through header / RAS / CTTB, or the
  headerless CTTB-only scheme). Drives Table 3 and the timing simulator.

Both follow the paper's functional-simulation methodology (§3.1): the
simulator calls ``predict`` then immediately ``update`` with the actual
outcome — updates are not delayed, and history repair after a mispredict is
perfect (history always reflects the actual path).

``predict``/``update`` are the reference semantics, driven step by step
by :mod:`repro.sim.reference`. The production simulators run each
predictor's exact batched form instead, which never mutates the object:
``batch_column`` for exit predictors and ``batch_predicted_addrs`` for
next-task predictors. Both are abstract, so every predictor has one.
"""

from __future__ import annotations

import abc

import numpy as np


class ExitPredictor(abc.ABC):
    """Predicts the header exit index taken by the current task."""

    @abc.abstractmethod
    def predict(self, task_addr: int, n_exits: int) -> int:
        """Return the predicted exit index, in ``range(n_exits)``."""

    @abc.abstractmethod
    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        """Record the actual outcome and advance any history state.

        Called exactly once after each ``predict`` with the same task.
        """

    def states_touched(self) -> int:
        """Number of distinct predictor states (PHT entries / history keys)
        exercised so far — the quantity plotted in Figure 11."""
        return 0

    @abc.abstractmethod
    def batch_column(
        self,
        task_addrs: np.ndarray,
        actual_exits: np.ndarray,
        n_exits_col: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Predicted exit of every step of a trace, and states touched.

        ``n_exits_col`` holds each step's header exit count. Returns the
        int64 column one ``predict``/``update`` pair per step would
        produce, and what :meth:`states_touched` would then report.
        Only valid for a freshly constructed predictor; the object is
        not mutated.
        """

    def storage_bits(self) -> int:
        """Hardware storage this configuration implies, in bits.

        Ideal (unbounded) predictors return 0, meaning "not a hardware
        budget"; finite predictors report their table sizes.
        """
        return 0


class NextTaskPredictor(abc.ABC):
    """Predicts the start address of the next task."""

    @abc.abstractmethod
    def predict(self, task_addr: int) -> int:
        """Return the predicted next-task start address."""

    @abc.abstractmethod
    def update(
        self,
        task_addr: int,
        actual_exit: int,
        actual_cf_code: int,
        actual_next_addr: int,
    ) -> None:
        """Record the actual exit index, control-flow type code and target.

        ``actual_cf_code`` uses :data:`repro.isa.controlflow.CF_TYPE_CODES`.
        Called exactly once after each ``predict`` with the same task.
        """

    def storage_bits(self) -> int:
        """Total hardware storage of all component structures, in bits."""
        return 0

    @property
    def exit_predictor(self) -> ExitPredictor | None:
        """The exit-choice component, if the scheme has one."""
        return None

    @abc.abstractmethod
    def batch_predicted_addrs(
        self,
        task_addrs: np.ndarray,
        predicted_exits: np.ndarray | None,
        actual_exits: np.ndarray,
        cf_codes: np.ndarray,
        next_addrs: np.ndarray,
    ) -> np.ndarray:
        """Predicted next-task address of every step of a trace.

        ``predicted_exits`` is the :attr:`exit_predictor`'s batched
        column (None when there is none); the remaining columns are the
        trace's actual outcomes, which drive training exactly as per-step
        ``update`` calls would. Only valid for a freshly constructed
        predictor; the object is not mutated.
        """
