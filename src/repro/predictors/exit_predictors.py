"""Real (finite-table) exit predictors (paper §5.2, §6.3).

Four history-generation schemes over a shared pattern history table:

* :class:`PathExitPredictor` — the paper's winner: PHT indexed by the
  D-O-L-C(F) fold of the preceding task addresses plus the current one.
* :class:`SimpleExitPredictor` — task address only (Table 4's "Simple");
  exactly a depth-0 path predictor.
* :class:`GlobalExitPredictor` — a single global register of 2-bit exit
  outcomes, hashed with the current task address (exit-based history).
* :class:`PerTaskExitPredictor` — PAp-style: a table of per-task history
  registers selected by task address, then a PHT (§5.2's PER, with the
  finite history-register table the paper describes for real
  implementations).

The paper omits real GLOBAL/PER results for space, noting that real PATH
beats even the *ideal* versions of the others; the index hashing used here
for GLOBAL/PER is therefore our own (gshare-style fold), documented in
DESIGN.md.

All schemes implement the single-exit-task optimisation of §6.1: one-exit
tasks are predicted without consulting or updating the PHT (toggle with
``update_on_single_exit=True`` for the ablation benchmark).

Every configuration has an exact batched form (``batch_plan``); one that
would not — an automaton that neither tabulates nor factors, or a
GLOBAL/PER history key wider than an int64 column — is rejected with
:class:`PredictorConfigError` when the predictor is constructed.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.automata import (
    AutomatonTable,
    BatchPlan,
    MultiwayAutomaton,
    VotingCountersReplay,
    batch_automaton,
    resolve_factory,
)
from repro.predictors.folding import DolcSpec
from repro.predictors.pht import PatternHistoryTable, PlannedExitPredictor
from repro.utils.bits import bit_mask, fold_xor
from repro.utils.memo import DerivedColumnCache, int64_column
from repro.utils.windows import lag_columns

#: Per-key history columns per (trace columns, depth/index geometry) —
#: identical for every PER-scheme predictor swept over one trace.
_HISTORY_CACHE = DerivedColumnCache()

_ALIGN_SHIFT = 2  # word-aligned task addresses


def _fold_to(value: int, width: int, index_bits: int) -> int:
    """Fold a ``width``-bit value down to ``index_bits`` by XOR.

    Pads the width up to a multiple of ``index_bits`` first, so any
    combination of history and address bits can be reduced to a table index.
    """
    if width <= index_bits:
        return value & bit_mask(index_bits)
    folds = -(-width // index_bits)  # ceil
    return fold_xor(value, folds * index_bits, folds)


def _fold_column(
    values: np.ndarray, width: int, index_bits: int
) -> np.ndarray:
    """Vectorized :func:`_fold_to` over an int64 column."""
    if width <= index_bits:
        return values & bit_mask(index_bits)
    folds = -(-width // index_bits)  # ceil
    mask = bit_mask(index_bits)
    out = np.zeros_like(values)
    for i in range(folds):
        np.bitwise_xor(out, (values >> (i * index_bits)) & mask, out=out)
    return out


def _history_index_column(
    task_addrs: np.ndarray, history: np.ndarray, depth: int, index_bits: int
) -> np.ndarray:
    """Vectorized ``_index`` of GLOBAL and PER: each step's history
    register folded with its task's address bits."""
    addr_bits = (int64_column(task_addrs) >> _ALIGN_SHIFT) & bit_mask(
        index_bits
    )
    return _fold_column(
        (history << index_bits) | addr_bits, 2 * depth + index_bits, index_bits
    )


def _history_register(
    exits: np.ndarray, depth: int, keys: np.ndarray | None = None
) -> np.ndarray:
    """Exit-history register contents just before each step.

    The register holds the last ``depth`` exits, 2 bits each, the most
    recent lowest — of every earlier step, or of the earlier steps with
    the same key when ``keys`` selects one register per step. A cold
    register reads 0.
    """
    history = np.zeros(len(exits), dtype=np.int64)
    for lag, column in enumerate(lag_columns(exits, depth, keys)):
        history |= column << (2 * lag)
    return history


def _pht_batch_automaton(
    pht: PatternHistoryTable,
) -> AutomatonTable | VotingCountersReplay:
    """Batched form of a PHT's entries (see :func:`batch_automaton`).

    ``predict`` creates a missing entry, so a first touch predicts from a
    fresh automaton — for random voting counters, a draw over all four
    tied exits.
    """
    return batch_automaton(pht.factory, draw_on_first_touch=True)


def _check_key_width(depth: int, index_bits: int) -> None:
    """Reject a history geometry whose combined key overflows int64."""
    if depth < 0:
        raise PredictorConfigError("history depth must be >= 0")
    if 2 * depth + index_bits > 62:
        raise PredictorConfigError(
            f"{depth} exits of history plus a {index_bits}-bit index "
            "exceed the 62-bit key the batched kernel folds"
        )


class PathExitPredictor(PlannedExitPredictor):
    """Path-based exit predictor with DOLC index construction (§6)."""

    def __init__(
        self,
        spec: DolcSpec,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
        update_on_single_exit: bool = False,
    ) -> None:
        self._spec = spec
        self._pht = PatternHistoryTable(
            spec.index_bits, resolve_factory(automaton)
        )
        self._batched = _pht_batch_automaton(self._pht)
        self._update_on_single_exit = update_on_single_exit
        self._path: deque[int] = deque(maxlen=max(1, spec.depth))
        # The DOLC fold is the predictor's hottest operation; predict()
        # caches its index so the paired update() (same task, same path)
        # doesn't recompute it. Invalidated whenever the path shifts.
        self._cached_index: tuple[int, int] | None = None

    @property
    def spec(self) -> DolcSpec:
        """The index specification in force."""
        return self._spec

    def _index(self, task_addr: int) -> int:
        cached = self._cached_index
        if cached is not None and cached[0] == task_addr:
            return cached[1]
        index = self._spec.index(task_addr, self._path)
        self._cached_index = (task_addr, index)
        return index

    def predict(self, task_addr: int, n_exits: int) -> int:
        if n_exits == 1 and not self._update_on_single_exit:
            return 0
        prediction = self._pht.entry(self._index(task_addr)).predict()
        return min(prediction, n_exits - 1)

    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        if n_exits > 1 or self._update_on_single_exit:
            self._pht.entry(self._index(task_addr)).update(actual_exit)
        if self._spec.depth:
            self._path.append(task_addr)
            self._cached_index = None

    def states_touched(self) -> int:
        return self._pht.states_touched()

    def storage_bits(self) -> int:
        return self._pht.storage_bits()

    def batch_plan(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> BatchPlan:
        """Plan a batched run: per-step PHT indices plus the automaton.

        Same contract as the ideal predictors' ``batch_plan`` (see
        :mod:`repro.predictors.ideal`): only valid for a freshly
        constructed predictor. The path register shifts on every retired
        task, so the per-step indices are exactly
        :meth:`DolcSpec.index_column` over the full address column.
        """
        addrs = int64_column(task_addrs)
        return BatchPlan(
            self._spec.index_column(addrs),
            self._batched,
            self._update_on_single_exit,
        )


class SimpleExitPredictor(PathExitPredictor):
    """Task-address-indexed predictor: Table 4's "Simple" baseline."""

    def __init__(
        self,
        index_bits: int = 14,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
    ) -> None:
        super().__init__(
            DolcSpec(depth=0, older_bits=0, last_bits=0,
                     current_bits=index_bits, folds=1),
            automaton=automaton,
        )


class GlobalExitPredictor(PlannedExitPredictor):
    """Exit-based global history predictor (GLOBAL of §5.2), finite table.

    The global register holds the last ``depth`` exit indices, 2 bits each;
    the PHT index folds the register together with the current task address.
    """

    def __init__(
        self,
        depth: int,
        index_bits: int = 14,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
        update_on_single_exit: bool = False,
    ) -> None:
        _check_key_width(depth, index_bits)
        self._depth = depth
        self._index_bits = index_bits
        self._pht = PatternHistoryTable(
            index_bits, resolve_factory(automaton)
        )
        self._batched = _pht_batch_automaton(self._pht)
        self._update_on_single_exit = update_on_single_exit
        self._history = 0
        self._history_mask = bit_mask(2 * depth) if depth else 0

    def _index(self, task_addr: int) -> int:
        addr_bits = (task_addr >> _ALIGN_SHIFT) & bit_mask(self._index_bits)
        if not self._depth:
            return addr_bits
        combined = (self._history << self._index_bits) | addr_bits
        return _fold_to(
            combined, 2 * self._depth + self._index_bits, self._index_bits
        )

    def predict(self, task_addr: int, n_exits: int) -> int:
        if n_exits == 1 and not self._update_on_single_exit:
            return 0
        prediction = self._pht.entry(self._index(task_addr)).predict()
        return min(prediction, n_exits - 1)

    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        if n_exits > 1 or self._update_on_single_exit:
            self._pht.entry(self._index(task_addr)).update(actual_exit)
        if self._depth:
            self._history = (
                (self._history << 2) | actual_exit
            ) & self._history_mask

    def states_touched(self) -> int:
        return self._pht.states_touched()

    def storage_bits(self) -> int:
        return self._pht.storage_bits() + 2 * self._depth

    def batch_plan(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> BatchPlan:
        """Plan a batched run: per-step PHT indices plus the automaton.

        Same fresh-predictor contract as :meth:`PathExitPredictor.batch_plan`.
        The history register shifts on every update, so each step's index
        folds the register state built from *all* preceding exits.
        """
        history = _history_register(int64_column(actual_exits), self._depth)
        return BatchPlan(
            _history_index_column(
                task_addrs, history, self._depth, self._index_bits
            ),
            self._batched,
            self._update_on_single_exit,
        )


class PerTaskExitPredictor(PlannedExitPredictor):
    """Per-task exit history predictor (PER of §5.2), finite tables.

    A history-register table (HRT) of ``2**hrt_index_bits`` registers is
    selected by task address; each register records the last ``depth`` exits
    of the tasks mapping to it. The PHT index folds the selected register
    with the current task address. This approximates — but, as the paper
    notes, does not guarantee — a one-to-one task/history relationship.
    """

    def __init__(
        self,
        depth: int,
        index_bits: int = 14,
        hrt_index_bits: int = 12,
        automaton: str | Callable[[], MultiwayAutomaton] = "LEH-2",
        update_on_single_exit: bool = False,
    ) -> None:
        _check_key_width(depth, index_bits)
        self._depth = depth
        self._index_bits = index_bits
        self._hrt_index_bits = hrt_index_bits
        self._pht = PatternHistoryTable(
            index_bits, resolve_factory(automaton)
        )
        self._batched = _pht_batch_automaton(self._pht)
        self._update_on_single_exit = update_on_single_exit
        self._hrt: dict[int, int] = {}
        self._history_mask = bit_mask(2 * depth) if depth else 0

    def _hrt_index(self, task_addr: int) -> int:
        return (task_addr >> _ALIGN_SHIFT) & bit_mask(self._hrt_index_bits)

    def _index(self, task_addr: int) -> int:
        addr_bits = (task_addr >> _ALIGN_SHIFT) & bit_mask(self._index_bits)
        if not self._depth:
            return addr_bits
        history = self._hrt.get(self._hrt_index(task_addr), 0)
        combined = (history << self._index_bits) | addr_bits
        return _fold_to(
            combined, 2 * self._depth + self._index_bits, self._index_bits
        )

    def predict(self, task_addr: int, n_exits: int) -> int:
        if n_exits == 1 and not self._update_on_single_exit:
            return 0
        prediction = self._pht.entry(self._index(task_addr)).predict()
        return min(prediction, n_exits - 1)

    def update(self, task_addr: int, n_exits: int, actual_exit: int) -> None:
        if n_exits > 1 or self._update_on_single_exit:
            self._pht.entry(self._index(task_addr)).update(actual_exit)
        if self._depth:
            hrt_index = self._hrt_index(task_addr)
            history = self._hrt.get(hrt_index, 0)
            self._hrt[hrt_index] = (
                (history << 2) | actual_exit
            ) & self._history_mask

    def states_touched(self) -> int:
        return self._pht.states_touched()

    def storage_bits(self) -> int:
        hrt_bits = (1 << self._hrt_index_bits) * 2 * self._depth
        return self._pht.storage_bits() + hrt_bits

    def batch_plan(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> BatchPlan:
        """Plan a batched run: per-step PHT indices plus the automaton.

        Same fresh-predictor contract as :meth:`PathExitPredictor.batch_plan`.
        Each step reads the history register its task address selects, so
        the history column is computed per HRT slot.
        """
        addrs = int64_column(task_addrs)
        keys = (addrs >> _ALIGN_SHIFT) & bit_mask(self._hrt_index_bits)
        history = _HISTORY_CACHE.get(
            (task_addrs, actual_exits),
            ("per-history", self._depth, self._hrt_index_bits),
            lambda: _history_register(
                int64_column(actual_exits), self._depth, keys
            ),
        )
        return BatchPlan(
            _history_index_column(
                task_addrs, history, self._depth, self._index_bits
            ),
            self._batched,
            self._update_on_single_exit,
        )
