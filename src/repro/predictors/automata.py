"""Multi-way prediction automata (paper §5.1, Figure 6).

Scalar branch predictors use 2-bit saturating counters, but a Multiscalar
task has up to four exits, so predicting the taken exit is a multi-way
branching problem. The paper evaluates seven automata, which stratify into
three tiers:

* worst: last exit (LE);
* middle: 2-bit voting counters (MRU or random tie-break) and LEH-1;
* best: 3-bit voting counters (both tie-breaks) and LEH-2.

LEH-2 matches the 3-bit voting counters using fewer bits, so the paper (and
this library) adopts it as the default automaton.
"""

from __future__ import annotations

import abc
from collections.abc import Callable

import numpy as np

from repro.errors import PredictorConfigError
from repro.isa.controlflow import MAX_EXITS_PER_TASK
from repro.utils.rng import DeterministicRng
from repro.utils.scan import MAX_SCAN_STATES, group_segments, sorted_fsm_scan


class MultiwayAutomaton(abc.ABC):
    """One PHT entry: predicts an exit index in 0..3 and learns outcomes."""

    @abc.abstractmethod
    def predict(self) -> int:
        """Return the currently predicted exit index."""

    @abc.abstractmethod
    def update(self, actual: int) -> None:
        """Train on the actual exit index."""

    @classmethod
    @abc.abstractmethod
    def bits_per_entry(cls_or_self) -> int:
        """Storage cost of one PHT entry, in bits."""

    def state_key(self) -> tuple | None:
        """Hashable snapshot of the automaton's state, or None.

        Two automata with equal keys must behave identically forever —
        the contract :func:`tabulate_automaton` relies on to enumerate
        the reachable state space. Return None when the state cannot be
        captured (e.g. it includes a shared random stream), which makes
        the automaton non-tabulatable.
        """
        return None


class LastExit(MultiwayAutomaton):
    """Predict whatever exit was taken last time this entry was used (LE).

    A degenerate voting counter with 1-bit counters; cheapest and least
    accurate of the seven automata.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = 0

    def predict(self) -> int:
        return self._last

    def update(self, actual: int) -> None:
        self._last = actual

    def state_key(self) -> tuple:
        return (self._last,)

    @classmethod
    def bits_per_entry(cls) -> int:
        return 2  # an exit number


class LastExitHysteresis(MultiwayAutomaton):
    """Last exit plus a small confidence counter (LEH).

    The counter increments on correct predictions and decrements on
    incorrect ones; the stored exit is replaced only when the counter is
    zero *and* the prediction was wrong — so a proven prediction survives
    a single anomalous outcome (1-bit) or two (2-bit).
    """

    __slots__ = ("_exit", "_confidence", "_max_confidence", "_bits")

    def __init__(self, hysteresis_bits: int = 2) -> None:
        if hysteresis_bits < 1:
            raise PredictorConfigError("hysteresis needs >= 1 bit")
        self._bits = hysteresis_bits
        self._exit = 0
        self._confidence = 0
        self._max_confidence = (1 << hysteresis_bits) - 1

    def predict(self) -> int:
        return self._exit

    def update(self, actual: int) -> None:
        if actual == self._exit:
            if self._confidence < self._max_confidence:
                self._confidence += 1
        elif self._confidence > 0:
            self._confidence -= 1
        else:
            self._exit = actual
            self._confidence = 0

    def state_key(self) -> tuple:
        return (self._exit, self._confidence)

    def bits_per_entry(self) -> int:
        return 2 + self._bits


class VotingCounters(MultiwayAutomaton):
    """One saturating counter per exit; the highest counter wins (VC).

    Ties are broken either toward the most-recently-used exit among the tied
    ones (``tie_break='mru'``, which costs extra storage) or randomly
    (``tie_break='random'``). On an outcome, the actual exit's counter
    increments and all others decrement.
    """

    __slots__ = ("_counters", "_bits", "_max", "_tie_break", "_rng", "_mru")

    def __init__(
        self,
        counter_bits: int = 2,
        tie_break: str = "mru",
        rng: DeterministicRng | None = None,
    ) -> None:
        if counter_bits < 1:
            raise PredictorConfigError("counters need >= 1 bit")
        if tie_break not in ("mru", "random"):
            raise PredictorConfigError(
                f"tie_break must be 'mru' or 'random', got {tie_break!r}"
            )
        if tie_break == "random" and rng is None:
            raise PredictorConfigError("random tie-break needs an rng")
        self._bits = counter_bits
        self._max = (1 << counter_bits) - 1
        self._counters = [0] * MAX_EXITS_PER_TASK
        self._tie_break = tie_break
        self._rng = rng
        self._mru = 0

    def predict(self) -> int:
        counters = self._counters
        best = max(counters)
        tied = [i for i, c in enumerate(counters) if c == best]
        if len(tied) == 1:
            return tied[0]
        if self._tie_break == "mru":
            return self._mru if self._mru in tied else tied[0]
        return self._rng.choice(tied)

    def update(self, actual: int) -> None:
        counters = self._counters
        for i in range(MAX_EXITS_PER_TASK):
            if i == actual:
                if counters[i] < self._max:
                    counters[i] += 1
            elif counters[i] > 0:
                counters[i] -= 1
        self._mru = actual

    def state_key(self) -> tuple | None:
        # The random tie-break draws from a stream shared across every
        # entry of the predictor, so a per-entry key cannot capture its
        # behaviour. The batched exit predictors do not tabulate voting
        # counters at all (batch_replay factors the state into four
        # counters and an MRU register, which also covers the 437-state
        # VC3-MRU no int8 table holds); the key serves the speculative
        # replay, which still tabulates.
        if self._tie_break != "mru":
            return None
        return (*self._counters, self._mru)

    def bits_per_entry(self) -> int:
        mru_bits = 2 if self._tie_break == "mru" else 0
        return MAX_EXITS_PER_TASK * self._bits + mru_bits

    def batch_replay(
        self, draw_on_first_touch: bool
    ) -> VotingCountersReplay:
        """Exact batched form of a table of entries configured like this.

        ``draw_on_first_touch`` is the owning table's first-touch rule
        (see :class:`VotingCountersReplay`).
        """
        rng = self._rng if self._tie_break == "random" else None
        return VotingCountersReplay(self._bits, rng, draw_on_first_touch)


#: The seven automata of Figure 6, keyed by the paper's labels.
AUTOMATON_SPECS = (
    "LE",
    "VC2-MRU",
    "VC2-RANDOM",
    "LEH-1",
    "VC3-MRU",
    "VC3-RANDOM",
    "LEH-2",
)


def make_automaton_factory(
    spec: str, rng: DeterministicRng | None = None
) -> Callable[[], MultiwayAutomaton]:
    """Return a zero-argument factory for the named automaton.

    ``rng`` is required for the random tie-break variants; all entries of a
    predictor share the stream, as hardware would share one LFSR.

    The hysteresis family generalises beyond the paper's two points: any
    ``LEH-<k>`` with ``k >= 1`` names a last-exit automaton with a k-bit
    confidence counter, which is the hysteresis axis of the design-space
    search (:mod:`repro.predictors.design_space`).
    """
    if spec == "LE":
        return LastExit
    if spec.startswith("LEH-"):
        try:
            hysteresis_bits = int(spec[4:])
        except ValueError:
            hysteresis_bits = 0
        if hysteresis_bits >= 1:
            return lambda: LastExitHysteresis(hysteresis_bits)
    if spec in ("VC2-MRU", "VC3-MRU"):
        bits = 2 if spec.startswith("VC2") else 3
        return lambda: VotingCounters(bits, tie_break="mru")
    if spec in ("VC2-RANDOM", "VC3-RANDOM"):
        if rng is None:
            rng = DeterministicRng(0).fork("vc-random")
        bits = 2 if spec.startswith("VC2") else 3
        return lambda: VotingCounters(bits, tie_break="random", rng=rng)
    raise PredictorConfigError(
        f"unknown automaton {spec!r}; known: {AUTOMATON_SPECS}"
    )


class AutomatonTable:
    """Exact tabular form of an automaton's reachable state space.

    ``transitions[s, x]`` is the next state from state ``s`` on training
    input ``x``; ``predictions[s]`` is what state ``s`` predicts. State 0
    is the freshly constructed automaton. Produced by
    :func:`tabulate_automaton` for the segmented FSM scans in
    :mod:`repro.utils.scan`.
    """

    __slots__ = ("transitions", "predictions")

    def __init__(self, transitions, predictions) -> None:
        self.transitions = transitions
        self.predictions = predictions

    @property
    def n_states(self) -> int:
        """Reachable states, including the initial one."""
        return len(self.predictions)


def tabulate_automaton(
    factory: Callable[[], MultiwayAutomaton],
    n_inputs: int,
) -> AutomatonTable | None:
    """Enumerate an automaton's state machine by probing a live instance.

    Breadth-first search from the freshly constructed state: every
    reachable state is reproduced by replaying its discovery input
    sequence on a new instance, then probed with each input in
    ``range(n_inputs)``. Keying on :meth:`MultiwayAutomaton.state_key`
    (rather than modelling the update rule separately) makes the table
    bit-identical to the object by construction.

    Returns None when the automaton declines tabulation (``state_key() is
    None``) or the reachable space exceeds
    :data:`repro.utils.scan.MAX_SCAN_STATES`, the segmented scan's int8
    state ceiling.
    """
    if factory().state_key() is None:
        return None

    def replay(sequence: tuple[int, ...]) -> MultiwayAutomaton:
        automaton = factory()
        for value in sequence:
            automaton.update(value)
        return automaton

    recipes: list[tuple[int, ...]] = [()]
    ids: dict[tuple, int] = {factory().state_key(): 0}
    transitions: list[list[int]] = []
    predictions: list[int] = []
    cursor = 0
    while cursor < len(recipes):
        recipe = recipes[cursor]
        automaton = replay(recipe)
        predictions.append(automaton.predict())
        row = []
        for value in range(n_inputs):
            successor = replay(recipe + (value,))
            key = successor.state_key()
            state = ids.get(key)
            if state is None:
                if len(recipes) >= MAX_SCAN_STATES:
                    return None
                state = ids[key] = len(recipes)
                recipes.append(recipe + (value,))
            row.append(state)
        transitions.append(row)
        cursor += 1
    return AutomatonTable(
        transitions=np.array(transitions, dtype=np.int8),
        predictions=np.array(predictions, dtype=np.int64),
    )


#: Bit of each exit in a tie mask.
_EXIT_BITS = np.array([1 << i for i in range(MAX_EXITS_PER_TASK)])
#: Exits tied for the highest counter, per tie mask (bit i set: exit i).
_TIED_EXITS = tuple(
    tuple(i for i in range(MAX_EXITS_PER_TASK) if mask >> i & 1)
    for mask in range(1 << MAX_EXITS_PER_TASK)
)
#: Lowest exit of each tie mask: the prediction unless the MRU exit or a
#: random draw overrides it.
_FIRST_TIED = np.array([tied[0] if tied else 0 for tied in _TIED_EXITS])
#: Whether a tie mask holds more than one exit.
_IS_TIE = np.array([len(tied) > 1 for tied in _TIED_EXITS])


class VotingCountersReplay:
    """Exact batched replay of a table of :class:`VotingCounters` entries.

    An entry's state factors into parts that never interact:

    * each exit's counter is its own saturating counter, stepped up by
      ``actual == i`` and down otherwise — a ``2**bits``-state automaton
      the segmented FSM scan replays, one scan per exit over one shared
      group sort;
    * the MRU register is just the entry's previous input.

    The prediction is then a vectorised argmax over the four pre-update
    counters, ties going to the MRU exit when it is tied and to the
    lowest tied exit otherwise. A prediction never feeds back into the
    counters, so the random tie-break is exact too: ``rng.choice(tied)``
    is called on the predictor's shared stream at the tie steps only, in
    trace order, exactly as the stepped loop calls it — the stream ends
    in the same state.

    ``rng`` is the predictor's shared tie-break stream, or None for the
    MRU tie-break. ``draw_on_first_touch`` carries the owning table's
    first-touch rule. A PHT creates its entry in ``predict``, so an
    entry's first prediction comes from a fresh automaton, whose four
    zero counters tie (a draw, for the random variant). An ideal table
    answers 0 for a key it has never updated without consulting an
    automaton (no draw).
    """

    __slots__ = ("_transitions", "_rng", "_draw_on_first_touch")

    def __init__(
        self,
        counter_bits: int,
        rng: DeterministicRng | None,
        draw_on_first_touch: bool,
    ) -> None:
        top = (1 << counter_bits) - 1
        counts = np.arange(top + 1)
        # Input 0: another exit was taken; input 1: this exit was taken.
        self._transitions = np.stack(
            [np.maximum(counts - 1, 0), np.minimum(counts + 1, top)],
            axis=1,
        ).astype(np.int8)
        self._rng = rng
        self._draw_on_first_touch = draw_on_first_touch

    def replay(
        self, group_ids: np.ndarray, inputs: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Predict and train every step of a grouped trace.

        ``group_ids[i]`` names the entry step ``i`` touches and
        ``inputs[i]`` is the exit it trains on. Returns the exit each
        step predicts before its update, in trace order, and the number
        of distinct entries touched.
        """
        n = len(group_ids)
        if n == 0:
            return np.zeros(0, dtype=np.int64), 0
        order, starts = group_segments(group_ids)
        exits = inputs[order]
        # Pre-update counter values, one column per exit.
        counters = np.column_stack(
            [
                sorted_fsm_scan(
                    starts, (exits == i).view(np.int8), self._transitions
                )
                for i in range(MAX_EXITS_PER_TASK)
            ]
        )
        tied = counters == counters.max(axis=1, keepdims=True)
        tie_masks = tied @ _EXIT_BITS
        predicted = np.empty(n, dtype=np.int64)
        rng = self._rng
        if rng is None:
            # MRU tie-break: the MRU exit if it is tied, else the lowest.
            mru = np.empty(n, dtype=np.int64)
            mru[1:] = exits[:-1]
            mru[starts] = 0  # a fresh entry's register reads exit 0
            predicted[order] = np.where(
                tied[np.arange(n), mru], mru, _FIRST_TIED[tie_masks]
            )
        else:
            predicted[order] = _FIRST_TIED[tie_masks]
            draws = _IS_TIE[tie_masks]
            if not self._draw_on_first_touch:
                draws &= ~starts
            masks = np.empty(n, dtype=np.int64)
            masks[order] = np.where(draws, tie_masks, 0)
            steps = np.flatnonzero(masks)
            choice = rng.choice
            predicted[steps] = [
                choice(_TIED_EXITS[mask]) for mask in masks[steps].tolist()
            ]
        return predicted, int(starts.sum())


def batch_automaton(
    factory: Callable[[], MultiwayAutomaton], draw_on_first_touch: bool
) -> AutomatonTable | VotingCountersReplay | None:
    """The exact batched form of the automaton ``factory`` builds.

    Voting counters replay factored (:class:`VotingCountersReplay`,
    which takes the table's ``draw_on_first_touch`` rule); every other
    automaton tabulates (:func:`tabulate_automaton`), or returns None
    when it cannot.
    """
    sample = factory()
    if type(sample) is VotingCounters:
        return sample.batch_replay(draw_on_first_touch)
    return tabulate_automaton(factory, MAX_EXITS_PER_TASK)
