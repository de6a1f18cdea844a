"""Vectorized history grouping for the batched simulators.

The ideal (alias-free) predictors key their tables by tuples of recent
history — the last ``D`` exit indices, the last ``D`` task addresses, or
the last ``D`` exits *of the current task*. The batched simulation
kernels need those keys for every trace step at once, as dense integer
ids usable as flat-array indices.

The pipeline, chosen for speed on hundreds of thousands of steps:

1. **Factorize** each value domain once (:func:`factorize`, from
   :mod:`repro.utils.sort`): a presence table, or one sort where the
   values span too wide a range, maps arbitrary addresses to dense
   codes.
2. Build **trailing-window columns** of shifted codes
   (:func:`lag_columns`, which also builds the real GLOBAL/PER history
   registers and the D-O-L-C path). Codes are offset by one so 0 can
   mean "no history yet": a row recorded before ``D`` outcomes exist is
   left-padded with zeros, which keeps short histories distinct from
   full-depth ones exactly the way tuples of different lengths are
   distinct dictionary keys.
3. **Bit-pack** the columns into as few int64 words as possible
   (:func:`group_columns`): with dense codes, a depth-7 exit history plus
   the task address usually fits one word, so grouping costs a single
   factorize instead of a lexicographic sort over eight columns.

The three ideal groupings are memoised per (trace columns, depth), and
so are their building blocks (each column's codes, every trailing
address window): a sweep keys every automaton at one depth (Figure 6),
every depth-matched ideal predictor (Figure 7) and the ideal CTTB
(Figure 8) by the same grouping of the same trace. The ids are shared:
do not mutate them.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.utils.memo import REUSE_BYTES, DerivedColumnCache
from repro.utils.sort import factorize, stable_argsort

_GROUPINGS = DerivedColumnCache(max_bytes=REUSE_BYTES)


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


def lag_columns(
    values: np.ndarray, depth: int, keys: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Trailing-window columns of ``values``, most recent first.

    Column ``lag`` (1 to ``depth``) holds, at row ``i``, the value
    ``lag`` rows before ``i`` — counting only rows with the same
    ``keys`` value when ``keys`` is given — and 0 where there are fewer
    than ``lag`` such rows. That is a ``deque(maxlen=depth)`` (one per
    key) read newest first just before row ``i`` is appended; a caller
    whose values can be 0 offsets them so that 0 means "no history".
    The per-key form costs one stable sort. Columns are built one at a
    time, as the caller consumes them.
    """
    n = len(values)
    keyed = keys is not None and n > 0
    if keyed:
        # A stable sort keeps each key's rows contiguous and in order;
        # a lag reaching back past the key's first row reads nothing.
        order = stable_argsort(keys)
        values = values[order]
        sorted_keys = keys[order]
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = sorted_keys[1:] != sorted_keys[:-1]
        positions = np.arange(n)
        occurrence = positions - np.maximum.accumulate(
            np.where(new_key, positions, 0)
        )
    for lag in range(1, depth + 1):
        column = np.zeros(n, dtype=np.int64)
        if lag < n:
            column[lag:] = values[: n - lag]
        if keyed:
            column[occurrence < lag] = 0
            unsorted = np.empty(n, dtype=np.int64)
            unsorted[order] = column
            column = unsorted
        yield column


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
        lambda: _history_ids(addrs, outcomes, depth, per_key=False),
    )


def group_by_per_key_history(
    addrs: np.ndarray, outcomes: np.ndarray, depth: int
) -> np.ndarray:
    """Dense ids of ``(addr_i, last depth outcomes of addr_i before i)``.

    Memoised per (address column, outcome column, depth).
    """
    return _GROUPINGS.get(
        (addrs, outcomes),
        ("per-key", depth),
        lambda: _history_ids(addrs, outcomes, depth, per_key=True),
    )


def _history_ids(
    addrs: np.ndarray, outcomes: np.ndarray, depth: int, per_key: bool
) -> np.ndarray:
    addr_codes, addr_card = _codes(addrs)
    outcome_codes, outcome_card = _codes(outcomes)
    windows = lag_columns(
        outcome_codes + 1, depth, addr_codes if per_key else None
    )
    ids, _ = group_columns(
        [(addr_codes, addr_card)]
        + [(window, outcome_card + 1) for window in windows]
    )
    return ids
