"""Identity-keyed memoisation for columns derived from trace arrays.

A paper sweep runs many predictor configurations over the *same*
workload traces, and every batched run re-derives columns that depend
only on the trace and static program facts — history groupings,
path-index columns, header tables, return-address timelines, segment
sorts. Those inputs are ndarrays (unhashable) and programs (alive for
the whole sweep), so the cache keys on the *object identities* of its
anchor inputs and holds only weak references to them: an entry is
dropped as soon as one of its anchors dies, live entries are evicted
least-recently-used first once the cache fills, and a recycled ``id``
can never alias a dead anchor because the stored weak references are
revalidated on every hit.

Anchor a value on the objects it is a pure function of, and on objects
that live as long as the value is useful: trace columns, programs, and
workloads (``load_workload`` hands out one ``Workload`` per
(registered profile, length), so values anchored on it are shared by
every cell of a sweep).

Each cache is bounded twice: by entry count, and optionally by the
bytes of the ndarrays its values hold. A value larger than the whole
byte budget is returned uncached. A cache built with
``admit_on_repeat`` keeps a value only from its key's second request
on, so values nobody asks for twice never hold memory. Every cache adds
its hits, misses and evictions to process-wide counters
(:func:`memo_counters`).

Cached values are shared between callers and must be treated as
immutable; callers that need a private copy must copy explicitly.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Hashable

import numpy as np

#: Entry-count bound: an insert at this size evicts the LRU entry.
_PRUNE_THRESHOLD = 256

#: Byte budget of each cross-cell reuse cache (ideal groupings, replay
#: ids, segment sorts): a few dozen columns of grid-length (20k-task)
#: traces, and no single column of a paper-length one.
REUSE_BYTES = 4 << 20

#: Placeholder value of a key requested once by an ``admit_on_repeat``
#: cache.
_SEEN_ONCE = object()

#: Per-process hit/miss/eviction totals over every cache; observability
#: only (the experiment engine reports their deltas per cell).
_memo_stats = {"memo_hits": 0, "memo_misses": 0, "memo_evictions": 0}


def memo_counters() -> dict[str, int]:
    """Snapshot of this process's derived-column cache counters."""
    return dict(_memo_stats)


def _nbytes(value: Any) -> int:
    """Bytes of the ndarrays a cached value holds, directly or in a tuple.

    Any other object counts as zero bytes: only the entry bound limits it.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(item) for item in value)
    return 0


class DerivedColumnCache:
    """Memoise ``build()`` results keyed by anchor identity + a tag.

    ``anchors`` are the objects the derived value is a pure function of
    (trace columns, programs, workloads); ``tag`` carries any hashable
    non-object parameters (specs, depths, config tuples). Anchors that
    cannot be weak-referenced simply bypass the cache.

    The cache is bounded: an insert that would exceed
    ``_PRUNE_THRESHOLD`` entries, or ``max_bytes`` bytes of ndarrays
    when given, evicts least recently used entries first (O(1) each).
    An evicted value is simply rebuilt on the next request. With
    ``admit_on_repeat``, a key's first request only records that it was
    seen; the value is kept from the second request on.
    """

    def __init__(
        self, max_bytes: int | None = None, admit_on_repeat: bool = False
    ) -> None:
        # Insertion/refresh order doubles as recency order: a hit moves
        # its key to the end, so the front is always the LRU candidate.
        self._entries: dict[tuple, tuple[tuple, Any, int]] = {}
        self._max_bytes = max_bytes
        self._admit_on_repeat = admit_on_repeat
        self._bytes = 0

    def get(
        self,
        anchors: tuple,
        tag: Hashable,
        build: Callable[[], Any],
    ) -> Any:
        key = (tuple(id(anchor) for anchor in anchors), tag)
        seen = not self._admit_on_repeat
        entry = self._entries.pop(key, None)
        if entry is not None:
            refs, value, size = entry
            live = all(
                ref() is anchor for ref, anchor in zip(refs, anchors)
            )
            if live and value is not _SEEN_ONCE:
                self._entries[key] = entry  # re-insert: most recent
                _memo_stats["memo_hits"] += 1
                return value
            # A first-request marker, or a dead anchor's recycled id.
            self._bytes -= size
            seen = seen or live
        _memo_stats["memo_misses"] += 1
        value = build()
        try:
            refs = tuple(self._anchor_ref(anchor, key) for anchor in anchors)
        except TypeError:
            return value
        stored = value if seen else _SEEN_ONCE
        size = _nbytes(stored)
        if self._max_bytes is not None and size > self._max_bytes:
            return value
        self._evict(size)
        self._entries[key] = (refs, stored, size)
        self._bytes += size
        return value

    def _anchor_ref(self, anchor: Any, key: tuple) -> weakref.ref:
        """A weak reference to ``anchor`` that drops ``key``'s entry
        when the anchor dies, so no value outlives its anchors."""

        def discard(dead: weakref.ref) -> None:
            entry = self._entries.get(key)
            if entry is not None and any(ref is dead for ref in entry[0]):
                del self._entries[key]
                self._bytes -= entry[2]

        return weakref.ref(anchor, discard)

    def _evict(self, incoming: int) -> None:
        """Drop least-recently-used entries until ``incoming`` bytes fit.

        Popping from the front is O(1) per eviction.
        """
        budget = self._max_bytes
        while self._entries and (
            len(self._entries) >= _PRUNE_THRESHOLD
            or (budget is not None and self._bytes + incoming > budget)
        ):
            _, _, size = self._entries.pop(next(iter(self._entries)))
            self._bytes -= size
            _memo_stats["memo_evictions"] += 1


_INT64_CACHE = DerivedColumnCache()


def int64_column(values: Any) -> np.ndarray:
    """``np.asarray(values, dtype=int64)`` with a canonical result.

    Trace columns are stored at their natural narrow widths (uint8 /
    uint16 / uint32), so a plain ``asarray`` widens to a *new* object on
    every call — which would defeat every identity-keyed cache anchored
    on the widened column. This helper returns the *same* int64 array for
    the same source object, making widened columns usable as cache
    anchors. The result is shared: treat it as read-only.
    """
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return arr
    return _INT64_CACHE.get(
        (values,), "int64", lambda: arr.astype(np.int64)
    )
