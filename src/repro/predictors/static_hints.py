"""Profile-guided static exit prediction: the do-nothing-dynamic baseline.

Before spending kilobytes of PHT, a compiler could simply profile the
program and write each task's most-frequent exit into its header as a hint
bit pair — static prediction in the Ball/Larus tradition. This module
implements that baseline: a profiling pass over a training prefix of the
trace, then fixed per-task predictions.

Its accuracy ceiling is exactly the per-task exit *bias*; every dynamic
scheme in the paper exists to beat it by exploiting history. The
``ext_static`` experiment measures the gap.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.base import ExitPredictor
from repro.synth.trace import TaskTrace
from repro.utils.memo import int64_column


class StaticHintExitPredictor(ExitPredictor):
    """Predicts each task's profiled most-frequent exit, forever.

    Build one with :meth:`profile_from_trace`. Tasks never seen during
    profiling predict exit 0 (the compiler's default hint).
    """

    def __init__(self, hints: dict[int, int]) -> None:
        for address, exit_index in hints.items():
            if exit_index < 0:
                raise PredictorConfigError(
                    f"hint for task {address:#x} is negative"
                )
        self._hints = dict(hints)

    @classmethod
    def profile_from_trace(
        cls, trace: TaskTrace, training_fraction: float = 0.5
    ) -> "StaticHintExitPredictor":
        """Profile the leading ``training_fraction`` of ``trace``.

        The returned predictor should then be evaluated on the *remaining*
        records (or a different run) to avoid testing on training data —
        the ``ext_static`` experiment does exactly that.
        """
        if not 0.0 < training_fraction <= 1.0:
            raise PredictorConfigError(
                "training fraction must be in (0, 1]"
            )
        n_train = max(1, int(len(trace) * training_fraction))
        counts: dict[int, Counter] = {}
        for addr, exit_index in zip(
            trace.task_addr[:n_train].tolist(),
            trace.exit_index[:n_train].tolist(),
        ):
            counts.setdefault(addr, Counter())[exit_index] += 1
        hints = {
            addr: counter.most_common(1)[0][0]
            for addr, counter in counts.items()
        }
        return cls(hints)

    @property
    def n_hints(self) -> int:
        """Number of tasks with a profiled hint."""
        return len(self._hints)

    def predict(self, task_addr: int, n_exits: int) -> int:
        hint = self._hints.get(task_addr, 0)
        return min(hint, n_exits - 1)

    def predict_column(
        self, task_addrs: np.ndarray, n_exits_col: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`predict` over whole trace columns.

        Static hints never adapt, so a batch of predictions is exact.
        """
        addrs = int64_column(task_addrs)
        if self._hints:
            keys = np.fromiter(
                self._hints.keys(), dtype=np.int64, count=len(self._hints)
            )
            vals = np.fromiter(
                self._hints.values(), dtype=np.int64, count=len(self._hints)
            )
            order = np.argsort(keys)
            keys, vals = keys[order], vals[order]
            pos = np.clip(
                np.searchsorted(keys, addrs), 0, len(keys) - 1
            )
            hints = np.where(keys[pos] == addrs, vals[pos], 0)
        else:
            hints = np.zeros(len(addrs), dtype=np.int64)
        return np.minimum(
            hints, int64_column(n_exits_col) - 1
        )

    def batch_column(
        self,
        task_addrs: np.ndarray,
        actual_exits: np.ndarray,
        n_exits_col: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        return self.predict_column(task_addrs, n_exits_col), self.n_hints

    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        """Static prediction never adapts; hints are fixed at compile time."""

    def states_touched(self) -> int:
        return self.n_hints

    def storage_bits(self) -> int:
        """Hardware cost: two hint bits per header (charged per hint)."""
        return 2 * self.n_hints
