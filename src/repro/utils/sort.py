"""Exact sort kernels for integer trace columns: one function per contract.

* :func:`factorize` — dense codes. Equal values share a code, and codes
  follow sorted-value order. The codes depend only on the values, so a
  column whose span (``max - min + 1``) is at most
  :data:`TABLE_SPAN_FACTOR` times its length needs no sort at all: a
  presence table over the span and its running count give every value
  its rank. A wider column takes NumPy's default (unstable) argsort;
  how ties are ordered cannot change a code.
* :func:`stable_argsort` — a stable order, identical to
  ``np.argsort(keys, kind="stable")``. NumPy radix-sorts 16-bit keys, so
  non-negative keys below ``2**16`` sort as one ``uint16`` pass; any
  other column takes the stable sort of its own dtype.

Both choose their path from the column alone (its span, sign and
length), and every path returns the same values.
"""

from __future__ import annotations

import numpy as np

#: A column takes the presence-table path when its span is at most this
#: many times its length. At the bound the table still beats the sort
#: (300k rows: 8 ms against 13 ms), and its temporaries, 8-byte codes
#: plus a 4-byte running count per value of the span, stay near the
#: sort's: about 28 bytes per row against 25.
TABLE_SPAN_FACTOR = 4

#: Largest span the table path takes: its running counts are int32.
_MAX_TABLE_SPAN = np.iinfo(np.int32).max


def factorize(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Map a 1-D integer column to dense codes ``0..K-1``; returns
    ``(codes, K)``.

    Equal values share a code, and codes are assigned in sorted-value
    order: ``codes`` and ``K`` equal ``np.unique(values,
    return_inverse=True)``'s inverse and length. Callers should still
    treat the codes as opaque group labels.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    low = int(values.min())
    span = int(values.max()) - low + 1  # Python ints: no overflow
    if span > min(TABLE_SPAN_FACTOR * n, _MAX_TABLE_SPAN):
        return _sorted_codes(values)
    # Mark each present offset, then count in place: the running count
    # at an offset is one more than its value's code.
    codes = np.subtract(values, low, dtype=np.int64)
    ranks = np.zeros(span, dtype=np.int32)
    ranks[codes] = 1
    np.cumsum(ranks, out=ranks)
    codes[...] = ranks[codes]
    codes -= 1
    return codes, int(ranks[-1])


def _sorted_codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`factorize` by an unstable argsort."""
    n = len(values)
    order = np.argsort(values)
    ranked = values[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=change[1:])
    del ranked
    ranked_codes = np.cumsum(change, dtype=np.int64)
    ranked_codes -= 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = ranked_codes
    return codes, int(ranked_codes[-1]) + 1


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, radix-sorted as ``uint16``
    where every key is non-negative and below ``2**16``."""
    keys = np.asarray(keys)
    if keys.size and 0 <= int(keys.min()) and int(keys.max()) < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")
