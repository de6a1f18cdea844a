"""Pattern history table: a table of multi-way prediction automata.

Entries are created lazily — untouched indices cost nothing in simulation
and the number of touched entries is itself a measured quantity (Figure 11).
Hardware storage accounting always charges the full table, of course.

Two representations coexist:

* :class:`PatternHistoryTable` — the object-per-entry reference used by
  the step-by-step simulators.
* :class:`PackedPatternTable` — a struct-of-arrays twin for the batched
  kernels: all entry state lives in one flat int64 column (one tabulated
  automaton state id per touched entry), advanced whole-trace-at-a-time
  by the segmented FSM scan. Bit-identical to the reference by
  construction, since its transition table is enumerated from live
  automaton objects.

Every table-of-automata exit predictor (the PHT schemes and the ideal,
alias-free ones) is a :class:`PlannedExitPredictor`: its batched form is
a :class:`~repro.predictors.automata.BatchPlan`, and :func:`replay_plan`
runs every such plan.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from repro.errors import PredictorConfigError
from repro.predictors.automata import (
    AutomatonTable,
    BatchPlan,
    MultiwayAutomaton,
)
from repro.predictors.base import ExitPredictor
from repro.utils.memo import REUSE_BYTES, DerivedColumnCache, int64_column
from repro.utils.scan import final_fsm_states, segmented_fsm_scan

#: Multiway-step group ids per (group-id column, exit-count column): every
#: automaton replayed over one grouping reads the same ids object, so the
#: replays also share its segment sort (``repro.utils.scan.group_segments``).
#: Only groupings replayed more than once are kept: a one-off replay's
#: ids, and the sort anchored on them, die with the replay.
_MULTIWAY_IDS = DerivedColumnCache(
    max_bytes=REUSE_BYTES, admit_on_repeat=True
)


class PatternHistoryTable:
    """A 2^index_bits-entry table of prediction automata."""

    def __init__(
        self,
        index_bits: int,
        automaton_factory: Callable[[], MultiwayAutomaton],
    ) -> None:
        if index_bits < 1:
            raise PredictorConfigError("PHT needs >= 1 index bit")
        self._index_bits = index_bits
        self._factory = automaton_factory
        self._entries: dict[int, MultiwayAutomaton] = {}

    @property
    def index_bits(self) -> int:
        """Width of the table index."""
        return self._index_bits

    @property
    def factory(self) -> Callable[[], MultiwayAutomaton]:
        """The automaton factory populating new entries."""
        return self._factory

    @property
    def n_entries(self) -> int:
        """Total table capacity."""
        return 1 << self._index_bits

    def entry(self, index: int) -> MultiwayAutomaton:
        """Return the automaton at ``index``, creating it on first touch."""
        if not 0 <= index < self.n_entries:
            raise PredictorConfigError(
                f"index {index} out of range for {self._index_bits}-bit PHT"
            )
        automaton = self._entries.get(index)
        if automaton is None:
            automaton = self._entries[index] = self._factory()
        return automaton

    def states_touched(self) -> int:
        """Distinct entries exercised so far (Figure 11's 'states touched')."""
        return len(self._entries)

    def storage_bits(self) -> int:
        """Full-capacity storage cost in bits."""
        return self.n_entries * self._factory().bits_per_entry()


class PackedPatternTable:
    """Struct-of-arrays PHT: one automaton-state id per entry.

    Entries are addressed by *dense group ids* (``0..n_groups-1``), the
    factorized form of whatever index the owning predictor computes.
    State advances in whole-trace batches through :meth:`replay`; calling
    it several times over consecutive trace slices yields exactly the
    states a single call over the concatenation would — which is what
    makes checkpoint-resumed batched runs bit-identical to straight ones.
    """

    def __init__(self, table: AutomatonTable, n_groups: int) -> None:
        if n_groups < 0:
            raise PredictorConfigError("need n_groups >= 0")
        self._table = table
        self._states = np.zeros(n_groups, dtype=np.int64)
        self._touched = np.zeros(n_groups, dtype=bool)

    @property
    def table(self) -> AutomatonTable:
        """The tabulated automaton driving every entry."""
        return self._table

    def replay(
        self, group_ids: np.ndarray, inputs: np.ndarray
    ) -> np.ndarray:
        """Advance every touched entry through a trace slice.

        Returns the pre-update state of each step's entry — the state
        its prediction reads — and leaves the column holding the
        post-trace states, ready for the next slice.
        """
        pre_states = segmented_fsm_scan(
            group_ids,
            inputs,
            self._table.transitions,
            initial_states=self._states,
        )
        self._states = final_fsm_states(
            group_ids,
            inputs,
            self._table.transitions,
            pre_states,
            len(self._states),
            initial_states=self._states,
        )
        if len(group_ids):
            self._touched[group_ids] = True
        return pre_states

    def predictions_of(self, states: np.ndarray) -> np.ndarray:
        """Predicted exit of each state id in ``states``."""
        return self._table.predictions[states]

    def states_touched(self) -> int:
        """Distinct entries exercised so far (Figure 11's metric)."""
        return int(self._touched.sum())


def replay_plan(
    plan: BatchPlan,
    actual_exits: np.ndarray,
    n_exits_col: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Run a predictor's ``batch_plan`` over a whole trace.

    The plan holds a dense table-entry id per step (one automaton per
    id) and the automaton's batched form. Only multiway steps touch the
    table, unless the plan trains on every step. Returns the full int64
    column a sequence of ``predict``/``update`` pairs would produce — 0
    at single-exit steps, clamped into the task's legal exit range
    elsewhere — and the number of entries touched, bit-identical to the
    step-by-step loop.

    A tabulated automaton replays through :class:`PackedPatternTable`.
    Every entry starts in the tabulated initial state, which is also what
    an untouched entry predicts — a first touch reads prediction 0
    exactly like the dict-of-automata reference, whether the entry was
    pre-created by a ``predict`` or is made on the fly by ``update``.
    Voting counters replay factored
    (:class:`~repro.predictors.automata.VotingCountersReplay`), which
    applies the plan's own first-touch rule.
    """
    group_ids, automaton, every_step = plan
    predicted = np.zeros(len(n_exits_col), dtype=np.int64)
    if every_step:
        steps = np.arange(len(n_exits_col))
        ids = group_ids
    else:
        steps = np.flatnonzero(n_exits_col > 1)
        ids = _MULTIWAY_IDS.get(
            (group_ids, n_exits_col),
            "multiway-ids",
            lambda: group_ids[steps],
        )
    if not steps.size:
        return predicted, 0
    exits = int64_column(actual_exits)[steps]
    if isinstance(automaton, AutomatonTable):
        packed = PackedPatternTable(automaton, int(ids.max()) + 1)
        raw = packed.predictions_of(packed.replay(ids, exits))
        touched = packed.states_touched()
    else:
        raw, touched = automaton.replay(ids, exits)
    predicted[steps] = np.minimum(raw, int64_column(n_exits_col)[steps] - 1)
    return predicted, touched


class PlannedExitPredictor(ExitPredictor):
    """An exit predictor whose batched form is a :class:`BatchPlan`."""

    @abc.abstractmethod
    def batch_plan(
        self, task_addrs: np.ndarray, actual_exits: np.ndarray
    ) -> BatchPlan:
        """Per-step table-entry ids plus the entries' batched automaton.

        Only valid for a freshly constructed predictor; the object is
        not mutated.
        """

    def batch_column(
        self,
        task_addrs: np.ndarray,
        actual_exits: np.ndarray,
        n_exits_col: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        return replay_plan(
            self.batch_plan(task_addrs, actual_exits),
            actual_exits,
            n_exits_col,
        )
