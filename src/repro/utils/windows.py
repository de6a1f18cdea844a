"""Vectorized history grouping for the batched simulators.

The ideal (alias-free) predictors key their tables by tuples of recent
history — the last ``D`` exit indices, the last ``D`` task addresses, or
the last ``D`` exits *of the current task*. The batched simulation
kernels need those keys for every trace step at once, as dense integer
ids usable as flat-array indices.

The pipeline, chosen for speed on hundreds of thousands of steps:

1. **Factorize** each value domain once (:func:`factorize`): one sort of
   the base sequence maps arbitrary addresses to dense codes.
2. Build **trailing-window columns** of shifted codes. Codes are offset
   by one so 0 can mean "no history yet": a row recorded before ``D``
   outcomes exist is left-padded with zeros, which keeps short histories
   distinct from full-depth ones exactly the way tuples of different
   lengths are distinct dictionary keys.
3. **Bit-pack** the columns into as few int64 words as possible
   (:func:`group_columns`): with dense codes, a depth-7 exit history plus
   the task address usually fits one word, so grouping costs a single
   argsort instead of a lexicographic sort over eight columns.

The three ideal groupings are memoised per (trace columns, depth), and
so are their building blocks (each column's codes, every trailing
address window): a sweep keys every automaton at one depth (Figure 6),
every depth-matched ideal predictor (Figure 7) and the ideal CTTB
(Figure 8) by the same grouping of the same trace. The ids are shared:
do not mutate them.
"""

from __future__ import annotations

import numpy as np

from repro.utils.memo import REUSE_BYTES, DerivedColumnCache

_GROUPINGS = DerivedColumnCache(max_bytes=REUSE_BYTES)


def factorize(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Map a 1-D sequence to dense codes ``0..K-1``; returns ``(codes, K)``.

    Equal values share a code. Codes are assigned in sorted-value order,
    but callers should treat them as opaque group labels.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = ranked[1:] != ranked[:-1]
    ranked_codes = np.cumsum(change, dtype=np.int64) - 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = ranked_codes
    return codes, int(ranked_codes[-1]) + 1


def _field_bits(cardinality: int) -> int:
    """Bits needed to store one field with ``cardinality`` distinct values."""
    return max(1, int(cardinality - 1).bit_length())


def group_columns(
    columns: list[tuple[np.ndarray, int]],
) -> tuple[np.ndarray, int]:
    """Dense row ids over parallel code columns.

    ``columns`` is a list of ``(codes, cardinality)`` pairs where every
    code lies in ``range(cardinality)``. Rows (one per index, reading one
    code from each column) get equal ids iff they are equal in every
    column. Columns are bit-packed into 62-bit words first, so the common
    case costs a single sort.
    """
    if not columns:
        raise ValueError("group_columns needs at least one column")
    packed: list[np.ndarray] = []
    word: np.ndarray | None = None
    used_bits = 0
    for codes, cardinality in columns:
        bits = _field_bits(cardinality)
        if word is None or used_bits + bits > 62:
            if word is not None:
                packed.append(word)
            word = np.asarray(codes, dtype=np.int64).copy()
            used_bits = bits
        else:
            word = (word << bits) | codes
            used_bits += bits
    packed.append(word)
    if len(packed) == 1:
        return factorize(packed[0])
    matrix = np.column_stack(packed)
    n = len(matrix)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.lexsort(matrix.T[::-1])
    ranked = matrix[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ranked_ids = np.cumsum(change, dtype=np.int64) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = ranked_ids
    return ids, int(ranked_ids[-1]) + 1


def _window_columns(
    codes: np.ndarray, cardinality: int, depth: int
) -> list[tuple[np.ndarray, int]]:
    """Trailing-window columns of a code sequence, one per history lag.

    Column ``lag`` holds ``codes[i - lag] + 1`` at row ``i`` (0 where the
    sequence hasn't produced that many items yet) — the vectorized
    equivalent of a ``deque(maxlen=depth)`` snapshot taken before step
    ``i`` is appended.
    """
    n = len(codes)
    columns = []
    for lag in range(1, depth + 1):
        column = np.zeros(n, dtype=np.int64)
        if lag < n:
            column[lag:] = codes[: n - lag] + 1
        columns.append((column, cardinality + 1))
    return columns


def _per_key_window_columns(
    key_codes: np.ndarray,
    codes: np.ndarray,
    cardinality: int,
    depth: int,
) -> list[tuple[np.ndarray, int]]:
    """Trailing-window columns of each key's own code subsequence.

    Like :func:`_window_columns`, but row ``i``'s window reads only
    earlier steps with the same ``key_codes[i]`` — the vectorized
    equivalent of one ``deque(maxlen=depth)`` per distinct key. Used by
    the PER (per-task history) predictor.
    """
    n = len(codes)
    if n == 0 or depth == 0:
        return [
            (np.zeros(n, dtype=np.int64), cardinality + 1)
        ] * depth
    order = np.argsort(key_codes, kind="stable")
    sorted_keys = key_codes[order]
    sorted_codes = codes[order]
    # Occurrence index of each step within its key's subsequence. The
    # stable sort keeps each key's steps contiguous and in trace order.
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_keys[1:] != sorted_keys[:-1]
    group_start = np.maximum.accumulate(
        np.where(new_group, np.arange(n), 0)
    )
    occurrence = np.arange(n) - group_start
    columns = []
    for lag in range(1, depth + 1):
        column = np.zeros(n, dtype=np.int64)
        if lag < n:
            column[lag:] = sorted_codes[: n - lag] + 1
        # A lag crossing into the previous key's segment is history that
        # doesn't exist for this key yet.
        column[occurrence < lag] = 0
        unsorted = np.empty(n, dtype=np.int64)
        unsorted[order] = column
        columns.append((unsorted, cardinality + 1))
    return columns


def _combine_windows(
    ids: np.ndarray, cardinality: int, lag: int
) -> tuple[np.ndarray, int]:
    """Ids of window pairs ``(window ending at i - lag, window at i)``.

    A step whose left window would start before the sequence gets a
    distinct "absent" marker, preserving the short-history distinctions.
    """
    n = len(ids)
    shifted = np.full(n, -1, dtype=np.int64)
    if lag < n:
        shifted[lag:] = ids[: n - lag]
    return factorize((shifted + 1) * cardinality + ids)


def group_by_path(addrs: np.ndarray, depth: int) -> np.ndarray:
    """Dense ids of ``(addr_i, last depth addresses before step i)``.

    The key is a contiguous trailing window of length ``depth + 1``, so
    it's built by recursive doubling: window ids double in length each
    round by pairing a window with a (possibly overlapping) earlier one.
    Address cardinality is too high for the bit-packing of
    :func:`group_columns`, and ~log2(depth) factorize passes over small-
    cardinality ids beat a lexicographic sort over depth + 1 columns.
    Every window is memoised per (address column, length), so depths
    share their power-of-two prefixes.
    """
    return _path_window(addrs, depth + 1)[0]


def _path_window(addrs: np.ndarray, length: int) -> tuple[np.ndarray, int]:
    """Ids and cardinality of each step's trailing ``length``-address
    window: the largest shorter power-of-two window paired with an
    earlier one, exactly as the doubling recursion builds it."""
    if length <= 1:
        return _codes(addrs)
    half = 1 << ((length - 1).bit_length() - 1)
    return _GROUPINGS.get(
        (addrs,),
        ("path", length),
        lambda: _combine_windows(*_path_window(addrs, half), length - half),
    )


def _codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`factorize` of a trace column, memoised per column."""
    return _GROUPINGS.get((values,), "codes", lambda: factorize(values))


def group_by_global_history(
    addrs: np.ndarray, outcomes: np.ndarray, depth: int
) -> np.ndarray:
    """Dense ids of ``(addr_i, last depth outcomes before step i)``.

    Memoised per (address column, outcome column, depth).
    """
    return _GROUPINGS.get(
        (addrs, outcomes),
        ("global", depth),
        lambda: _global_history_ids(addrs, outcomes, depth),
    )


def _global_history_ids(
    addrs: np.ndarray, outcomes: np.ndarray, depth: int
) -> np.ndarray:
    addr_codes, addr_card = _codes(addrs)
    outcome_codes, outcome_card = _codes(outcomes)
    columns = [(addr_codes, addr_card)]
    columns += _window_columns(outcome_codes, outcome_card, depth)
    ids, _ = group_columns(columns)
    return ids


def group_by_per_key_history(
    addrs: np.ndarray, outcomes: np.ndarray, depth: int
) -> np.ndarray:
    """Dense ids of ``(addr_i, last depth outcomes of addr_i before i)``.

    Memoised per (address column, outcome column, depth).
    """
    return _GROUPINGS.get(
        (addrs, outcomes),
        ("per-key", depth),
        lambda: _per_key_history_ids(addrs, outcomes, depth),
    )


def _per_key_history_ids(
    addrs: np.ndarray, outcomes: np.ndarray, depth: int
) -> np.ndarray:
    addr_codes, addr_card = _codes(addrs)
    outcome_codes, outcome_card = _codes(outcomes)
    columns = [(addr_codes, addr_card)]
    columns += _per_key_window_columns(
        addr_codes, outcome_codes, outcome_card, depth
    )
    ids, _ = group_columns(columns)
    return ids
