"""Runtime behaviour models for synthetic control flow.

Every conditional branch, indirect jump, and indirect call in a generated
program carries a :class:`ChoiceBehavior` that decides, at execution time,
which successor arc is followed. The behaviours are the knobs that make the
synthetic workloads *predictable in the same ways real programs are*:

* :class:`LoopBehavior` — deterministic trip counts (loops end predictably);
  trip counts may vary with calling context, which path history can see but
  per-task history cannot.
* :class:`PeriodicChoice` — per-site cyclic outcome patterns; exactly the
  behaviour per-task (PER / PAp-style) history captures best.
* :class:`HistoryParityChoice` — outcome correlated with recent global
  control flow; what GLOBAL/PATH history captures.
* :class:`ContextChoice` — outcome determined by the calling context (the
  call stack), which only *path* history approximates; this is what makes a
  correlated target buffer beat a plain one for indirect jumps (§5.3).
* :class:`BiasedChoice` — data-dependent noise: the irreducible miss floor.
* :class:`PhaseChoice` — slowly drifting program phases.
* :class:`DepthGuardChoice` — bounded recursion (xlisp-style call trees).

All behaviours read and update only the shared :class:`BehaviorContext`,
which the executor owns.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from repro.errors import WorkloadError
from repro.utils.hashing import stable_hash
from repro.utils.rng import DeterministicRng

#: Width of the global outcome-history window behaviours may correlate with.
HISTORY_BITS = 16
_HISTORY_MASK = (1 << HISTORY_BITS) - 1


@dataclass
class BehaviorContext:
    """Mutable runtime state shared by all behaviours of one execution.

    The executor creates one context per run and threads it through every
    behaviour decision.

    Attributes:
        rng: Deterministic random stream for noisy behaviours.
        steps: Count of behaviour decisions made so far.
        phase: Program phase counter; advances every ``phase_period`` steps.
        phase_period: Steps per phase.
        recent_outcomes: Bit history of recent conditional-branch outcomes.
        context_hash: Hash of the current call stack, maintained
            incrementally by the executor (push/pop).
        call_depth: Current call-stack depth.
        loop_counters: Per-activation loop state; the executor swaps in the
            current frame's dict on call/return. Maps behaviour key ->
            [iterations_done, trips_this_activation].
        site_counters: Global per-site counters for periodic behaviours.
        task_window: Start addresses of the most recently retired tasks,
            oldest first; maintained by the executor at every task boundary.
            Behaviours correlated with this window are the synthetic
            analogue of real code whose outcome depends on *how control got
            here* — the structure path-based predictors exploit.
    """

    rng: DeterministicRng
    phase_period: int = 20_000
    steps: int = 0
    phase: int = 0
    recent_outcomes: int = 0
    context_hash: int = 0
    call_depth: int = 0
    loop_counters: dict = field(default_factory=dict)
    site_counters: dict = field(default_factory=dict)
    task_window: deque = field(default_factory=lambda: deque(maxlen=8))

    def note_task(self, task_addr: int) -> None:
        """Record a retired task's start address in the path window."""
        self.task_window.append(task_addr)

    def window_hash(self, k: int) -> int:
        """Deterministic hash of the last ``k`` window entries."""
        value = 0x9E3779B9
        window = self.task_window
        skip = len(window) - k
        for addr in islice(window, skip, None) if skip > 0 else window:
            value = ((value * 31) ^ addr) & 0xFFFFFFFF
        return value

    def note_decision(self) -> None:
        """Advance the step/phase clocks; called once per behaviour decision."""
        self.steps += 1
        if self.steps % self.phase_period == 0:
            self.phase += 1

    def note_branch_outcome(self, taken: bool) -> None:
        """Shift a conditional-branch outcome into the global history."""
        self.recent_outcomes = (
            (self.recent_outcomes << 1) | (1 if taken else 0)
        ) & _HISTORY_MASK


class ChoiceBehavior(abc.ABC):
    """Decides which successor arc a control transfer follows at run time."""

    @abc.abstractmethod
    def choose(self, ctx: BehaviorContext, key: str) -> int:
        """Return the successor index taken for this execution.

        ``key`` is the deciding block's (globally unique) label, so
        behaviours can keep per-site state in the context.
        """


class FixedChoice(ChoiceBehavior):
    """Always takes the same successor. Useful for tests and dead arms."""

    def __init__(self, index: int = 0) -> None:
        if index < 0:
            raise WorkloadError("choice index must be >= 0")
        self._index = index

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        return self._index


class BiasedChoice(ChoiceBehavior):
    """Random outcome with a fixed bias: irreducible data-dependent noise.

    ``p_first`` is the probability of taking successor 0. With ``n_choices``
    greater than two the remaining probability spreads uniformly.
    """

    def __init__(self, p_first: float, n_choices: int = 2) -> None:
        if not 0.0 <= p_first <= 1.0:
            raise WorkloadError(f"bias must be in [0, 1], got {p_first}")
        if n_choices < 2:
            raise WorkloadError("a biased choice needs >= 2 successors")
        self._p_first = p_first
        self._n_choices = n_choices

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        if ctx.rng.uniform() < self._p_first:
            return 0
        if self._n_choices == 2:
            return 1
        return 1 + ctx.rng.randint(0, self._n_choices - 2)


class LoopBehavior(ChoiceBehavior):
    """A loop-header branch: successor 0 repeats the body, 1 exits.

    The trip count for each activation is drawn from ``trip_counts`` by the
    calling-context hash, so the *same* loop iterates, say, 3 times when
    reached down one call path and 7 down another — information visible to
    path history.
    """

    def __init__(self, trip_counts: tuple[int, ...]) -> None:
        if not trip_counts or any(t < 1 for t in trip_counts):
            raise WorkloadError("trip counts must be positive")
        self._trip_counts = trip_counts

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        state = ctx.loop_counters.get(key)
        if state is None:
            trips = self._trip_counts[
                (ctx.context_hash ^ len(self._trip_counts))
                % len(self._trip_counts)
            ]
            state = [0, trips]
            ctx.loop_counters[key] = state
        state[0] += 1
        if state[0] < state[1]:
            return 0
        del ctx.loop_counters[key]  # activation over; rearm for the next one
        return 1


class PeriodicChoice(ChoiceBehavior):
    """Cycles a fixed outcome pattern per site: pure per-task cyclic behaviour.

    This is what a per-task (PAp-style) history predictor captures best,
    because the pattern's phase is local to the site and invisible to global
    path history.
    """

    def __init__(self, pattern: tuple[int, ...]) -> None:
        if not pattern or any(i < 0 for i in pattern):
            raise WorkloadError("pattern must be non-empty, indices >= 0")
        self._pattern = pattern

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        position = ctx.site_counters.get(key, 0)
        ctx.site_counters[key] = position + 1
        return self._pattern[position % len(self._pattern)]


class HistoryParityChoice(ChoiceBehavior):
    """Outcome = parity of selected recent-branch-history bits, plus noise.

    Directly rewards predictors that retain deep global history: with enough
    depth the outcome is a deterministic function of what the predictor saw.
    """

    def __init__(self, mask: int, noise: float = 0.0) -> None:
        if mask <= 0 or mask > _HISTORY_MASK:
            raise WorkloadError(
                f"mask must select bits within {HISTORY_BITS}-bit history"
            )
        if not 0.0 <= noise <= 1.0:
            raise WorkloadError("noise must be in [0, 1]")
        self._mask = mask
        self._noise = noise

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        parity = bin(ctx.recent_outcomes & self._mask).count("1") & 1
        if self._noise and ctx.rng.uniform() < self._noise:
            parity ^= 1
        return parity


class PhaseChoice(ChoiceBehavior):
    """Selects a successor by program phase: slowly drifting targets.

    Between phase changes the choice is constant per site, so any adaptive
    predictor learns it; at phase boundaries every site retrains — this
    produces the transient mispredicts real phase changes cause.
    """

    def __init__(self, n_choices: int, noise: float = 0.0) -> None:
        if n_choices < 2:
            raise WorkloadError("a phase choice needs >= 2 successors")
        if not 0.0 <= noise <= 1.0:
            raise WorkloadError("noise must be in [0, 1]")
        self._n_choices = n_choices
        self._noise = noise
        self._salts: dict[str, int] = {}

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        if self._noise and ctx.rng.uniform() < self._noise:
            return ctx.rng.randint(0, self._n_choices - 1)
        return (ctx.phase * 2654435761 + self._salt(key)) % self._n_choices

    def _salt(self, key: str) -> int:
        salt = self._salts.get(key)
        if salt is None:
            salt = self._salts[key] = stable_hash(key)
        return salt


class ContextChoice(ChoiceBehavior):
    """Selects a successor from the calling context: switch-on-argument.

    Models C idioms like dispatching on an operation code passed by the
    caller: the target is a deterministic function of *how the program got
    here*. Path-based history (and hence a correlated target buffer)
    captures this; a plain task-address-indexed buffer cannot (§5.3).
    """

    def __init__(self, n_choices: int, noise: float = 0.0) -> None:
        if n_choices < 2:
            raise WorkloadError("a context choice needs >= 2 successors")
        if not 0.0 <= noise <= 1.0:
            raise WorkloadError("noise must be in [0, 1]")
        self._n_choices = n_choices
        self._noise = noise
        self._salts: dict[str, int] = {}

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        if self._noise and ctx.rng.uniform() < self._noise:
            return ctx.rng.randint(0, self._n_choices - 1)
        salt = self._salts.get(key)
        if salt is None:
            salt = self._salts[key] = stable_hash(key)
        return ((ctx.context_hash * 40503) ^ salt) % self._n_choices


class PathCorrelatedChoice(ChoiceBehavior):
    """Branch outcome determined by the recent *task path*, plus noise.

    The outcome is a deterministic function of the addresses of the last
    ``window`` tasks — the synthetic analogue of a branch whose direction
    depends on which code path reached it. A path-history predictor with
    depth >= ``window`` can learn it exactly; exit-based global history can
    only approximate it (different predecessor tasks may share an exit
    pattern), and per-task history cannot see it at all. This is the
    behaviour class that separates PATH from GLOBAL and PER (paper §5.2).
    """

    def __init__(self, window: int, noise: float = 0.0) -> None:
        if window < 1:
            raise WorkloadError("window must be >= 1")
        if not 0.0 <= noise <= 1.0:
            raise WorkloadError("noise must be in [0, 1]")
        self._window = window
        self._noise = noise
        self._salts: dict[str, int] = {}

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        salt = self._salts.get(key)
        if salt is None:
            salt = self._salts[key] = stable_hash(key)
        outcome = (ctx.window_hash(self._window) ^ salt) >> 7 & 1
        if self._noise and ctx.rng.uniform() < self._noise:
            outcome ^= 1
        return outcome


class TaskWindowChoice(ChoiceBehavior):
    """Indirect target determined by the recent task path, plus noise.

    Same correlation structure as :class:`PathCorrelatedChoice` but over
    ``n_choices`` successors: the model for switch statements whose case
    depends on how control arrived. A path-indexed CTTB learns these
    targets; a task-address-indexed TTB sees one hot entry thrash between
    targets (paper §5.3).
    """

    def __init__(self, n_choices: int, window: int, noise: float = 0.0) -> None:
        if n_choices < 2:
            raise WorkloadError("a window choice needs >= 2 successors")
        if window < 1:
            raise WorkloadError("window must be >= 1")
        if not 0.0 <= noise <= 1.0:
            raise WorkloadError("noise must be in [0, 1]")
        self._n_choices = n_choices
        self._window = window
        self._noise = noise
        self._salts: dict[str, int] = {}

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        if self._noise and ctx.rng.uniform() < self._noise:
            return ctx.rng.randint(0, self._n_choices - 1)
        salt = self._salts.get(key)
        if salt is None:
            salt = self._salts[key] = stable_hash(key)
        return ((ctx.window_hash(self._window) ^ salt) >> 5) % self._n_choices


class DepthGuardChoice(ChoiceBehavior):
    """Guards a recursive call: successor 0 recurses while depth allows.

    Below ``max_depth`` the decision is a deterministic function of the
    recent task path (recursion over a data structure follows from how the
    structure was reached), randomised with probability ``noise``; at or
    beyond the bound the guard always takes successor 1, so recursion
    terminates no matter what the random stream does. ``p_continue`` biases
    the path-correlated decision toward recursing.
    """

    def __init__(
        self,
        max_depth: int,
        p_continue: float = 0.7,
        noise: float = 0.1,
    ) -> None:
        if max_depth < 1:
            raise WorkloadError("max recursion depth must be >= 1")
        if not 0.0 <= p_continue <= 1.0:
            raise WorkloadError("p_continue must be in [0, 1]")
        if not 0.0 <= noise <= 1.0:
            raise WorkloadError("noise must be in [0, 1]")
        self._max_depth = max_depth
        self._p_continue = p_continue
        self._noise = noise
        self._salts: dict[str, int] = {}

    def choose(self, ctx: BehaviorContext, key: str) -> int:
        ctx.note_decision()
        if ctx.call_depth >= self._max_depth:
            return 1
        if self._noise and ctx.rng.uniform() < self._noise:
            return 0 if ctx.rng.uniform() < self._p_continue else 1
        salt = self._salts.get(key)
        if salt is None:
            salt = self._salts[key] = stable_hash(key)
        # Map a path-window hash onto [0, 1) and compare with the bias, so
        # the recurse decision is deterministic per path but still biased.
        draw = ((ctx.window_hash(3) ^ salt) & 0xFFFF) / 65536.0
        return 0 if draw < self._p_continue else 1
