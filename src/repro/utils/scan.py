"""Segmented finite-state-machine scans over grouped trace columns.

The realistic predictors keep their state in tables of small automata —
LE/LEH entries in a PHT, voting counters — and the scalar simulators
advance that state one trace record at a time. When an
automaton's reachable state space is small, its whole per-entry history
can instead be replayed as a *function-composition scan*: each trace step
is a state-transition function ``f_i(s) = T[s, input_i]``, and the state
an entry is in just before step ``i`` is the composition of every earlier
``f`` of the same entry applied to the initial state.

Representing each function as a length-``S`` lookup vector makes
composition a gather (``(g ∘ f)[s] = g[f[s]]``). A segment start is a
*constant* function pinning the state to its group's initial value, so
compositions may cross segment boundaries freely. Every step is one row
of a small step table — row ``x`` applies input ``x``, row
``n_inputs + s`` pins the state to ``s`` — stored as one code, the row's
offset in the flat table, so applying a step to a state is one gather.
The whole sorted trace is then evaluated by a chunked three-pass scan
over the code column cut into chunks of ``K`` steps: compose each
chunk's ``K`` steps as ``S``-wide rows across all chunks at once,
propagate chunk-entry states sequentially, re-run values inside every
chunk, writing each step's state over its code. That is ``O(n · S)``
numpy work with ``O(K + n/K)`` Python iterations — no log factor and no
per-step Python — and the code column is the scan's only ``n``-sized
array.

The scan is *exact*: transition tables are enumerated by driving a real
automaton object through every reachable state
(:func:`repro.predictors.automata.tabulate_automaton`), so the kernel is
bit-identical to the object-at-a-time reference by construction.
"""

from __future__ import annotations

import numpy as np

from repro.utils.memo import REUSE_BYTES, DerivedColumnCache
from repro.utils.sort import stable_argsort

_SEGMENTS = DerivedColumnCache(max_bytes=REUSE_BYTES)

#: State-space ceiling for tabulation. It keeps every state id inside an
#: automaton table's int8 transitions, and above it the scan's ``n · S``
#: composition work outweighs the Python loop it replaces.
MAX_SCAN_STATES = 64


def group_segments(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a trace's steps for the segmented scans: ``(order, starts)``.

    ``order`` stably sorts the steps by group, so each group's steps form
    one contiguous segment in trace order; ``starts[k]`` is True where
    sorted step ``k`` opens its group's segment. The result is memoised
    per group-id column (by identity), so scans of several automata over
    the same grouping share one sort. It is shared: do not mutate it.
    """
    return _SEGMENTS.get(
        (group_ids,), "segments", lambda: _sort_segments(group_ids)
    )


def _sort_segments(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = stable_argsort(group_ids)
    grouped = group_ids[order]
    starts = np.empty(len(grouped), dtype=bool)
    starts[:1] = True
    starts[1:] = grouped[1:] != grouped[:-1]
    return order, starts


def segmented_fsm_scan(
    group_ids: np.ndarray,
    inputs: np.ndarray,
    transitions: np.ndarray,
    initial_states: np.ndarray | None = None,
) -> np.ndarray:
    """Pre-update automaton state at every step of a grouped trace.

    ``group_ids[i]`` names the table entry step ``i`` touches (dense ids,
    ``0..G-1``); ``inputs[i]`` is the training input the step applies to
    that entry; ``transitions[s, x]`` is the automaton's next state from
    state ``s`` on input ``x``. Returns ``states`` where ``states[i]`` is
    the entry's state *before* step ``i``'s update — i.e. the state its
    prediction is read from — with every entry starting in
    ``initial_states[group]`` (state 0 when omitted).

    Equivalent to, but much faster than::

        table = defaultdict(int)
        for i in range(n):
            states[i] = table[group_ids[i]]
            table[group_ids[i]] = transitions[states[i], inputs[i]]
    """
    n = len(group_ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order, starts = group_segments(group_ids)
    start_states: np.ndarray | None = None
    if initial_states is not None:
        start_states = initial_states[group_ids[order[starts]]]
    sorted_states = sorted_fsm_scan(
        starts, inputs[order], transitions, start_states
    )
    states = np.empty(n, dtype=np.int64)
    states[order] = sorted_states
    return states


def sorted_fsm_scan(
    starts: np.ndarray,
    inputs: np.ndarray,
    transitions: np.ndarray,
    start_states: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`segmented_fsm_scan` over steps already sorted by group.

    ``starts`` and ``inputs`` are in the sorted order of
    :func:`group_segments`; ``start_states`` holds each segment's initial
    state, one per True in ``starts`` (state 0 when omitted). The first
    step must open a segment (``starts[0]``), every input must name a
    column of ``transitions`` and every start state one of its rows.
    Returns the pre-update states in the same sorted order.
    """
    n = len(starts)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not starts[0]:
        raise ValueError(
            "sorted_fsm_scan needs starts[0] True: the first sorted step "
            "must open a segment"
        )
    n_states, n_inputs = transitions.shape
    _require_ids("inputs", inputs, n_inputs)
    if start_states is not None:
        _require_ids("start_states", start_states, n_states)

    # Step table: row x applies input x, row n_inputs + s pins the state
    # to s. Step k of the sorted trace maps the state before step k - 1's
    # update to the state before step k's: it applies input k - 1, or
    # pins the segment's initial state where step k opens a segment.
    table = np.empty((n_inputs + n_states, n_states), dtype=np.int64)
    table[:n_inputs] = transitions.T
    table[n_inputs:] = np.arange(n_states)[:, None]
    flat = table.reshape(-1)

    # Chunk geometry: K = sqrt(n / 8) steps per chunk, so pass 1 and
    # pass 3 run K row-wide steps each and pass 2 one Python step per
    # chunk, about sqrt(8n).
    chunk = max(int((n / 8) ** 0.5), 1)
    n_chunks = -(-n // chunk)

    # Each step as one code, its table row times n_states, so applying
    # it to a state s is flat[code + s]. Pads pin state 0; nothing reads
    # their states. Pass 3 writes every step's state over its code, so
    # this column is also the result.
    codes = np.full(n_chunks * chunk, n_inputs, dtype=np.int64)
    codes[1:n] = inputs[: n - 1]
    if start_states is None:
        codes[:n][starts] = n_inputs
    else:
        codes[:n][starts] = np.add(start_states, n_inputs, dtype=np.int64)
    codes *= n_states
    # steps[k] views step k of every chunk.
    steps = codes.reshape(n_chunks, chunk).T

    # Pass 1: composed[s, m] is chunk m's state after its steps so far,
    # entered in state s. Each step's codes are copied to one contiguous
    # row before the S-row add reads them. Every index is in range, so
    # take's "clip" never clips; unlike the default mode, it writes to
    # ``out`` unbuffered.
    row = np.empty(n_chunks, dtype=np.int64)
    composed = flat.take(steps[0] + np.arange(n_states)[:, None])
    index = np.empty_like(composed)
    for k in range(1, chunk):
        row[...] = steps[k]
        np.add(row, composed, out=index)
        flat.take(index, out=composed, mode="clip")

    # Pass 2: the state each chunk is entered in, sequentially (the first
    # chunk opens with a segment start, so 0 is a safe seed).
    by_state = composed.tolist()
    entries = []
    state = 0
    for m in range(n_chunks):
        entries.append(state)
        state = by_state[state][m]

    # Pass 3: re-run every chunk's steps on values, from its entry state;
    # each step's codes are read for the last time here and take its
    # states.
    current = np.array(entries, dtype=np.int64)
    for k in range(chunk):
        np.add(steps[k], current, out=row)
        flat.take(row, out=current, mode="clip")
        steps[k] = current
    return codes[:n]


def _require_ids(name: str, ids: np.ndarray, count: int) -> None:
    """Reject a column of :func:`sorted_fsm_scan` ids outside ``0..count-1``."""
    if len(ids) and not 0 <= int(ids.min()) <= int(ids.max()) < count:
        raise ValueError(
            f"sorted_fsm_scan needs every one of {name} in 0..{count - 1}"
        )


def final_fsm_states(
    group_ids: np.ndarray,
    inputs: np.ndarray,
    transitions: np.ndarray,
    pre_states: np.ndarray,
    n_groups: int,
    initial_states: np.ndarray | None = None,
) -> np.ndarray:
    """State of every entry after the last step of a scanned trace.

    Complements :func:`segmented_fsm_scan` for chunked (checkpoint /
    resume) replays: the returned vector feeds the next chunk's
    ``initial_states``. Entries never touched keep their initial state.
    """
    if initial_states is None:
        finals = np.zeros(n_groups, dtype=np.int64)
    else:
        finals = initial_states.astype(np.int64).copy()
    if len(group_ids):
        # Trace order + numpy's documented repeated-index rule (the last
        # assignment wins) leave each entry at its final post-update state.
        post = transitions[pre_states, inputs].astype(np.int64)
        finals[group_ids] = post
    return finals
