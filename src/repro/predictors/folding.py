"""The D-O-L-C (F) path index construction (paper §6.1–6.2, Figure 9).

A real path-based predictor cannot index its table with full task addresses.
The paper builds an *intermediate index* by concatenating:

* ``C`` low bits of the **C**\\ urrent task's address,
* ``L`` low bits of the **L**\\ ast task's address (Current − 1), and
* ``O`` low bits of each **O**\\ lder task (Current − 2 … Current − D),

then XOR-folds it into ``F`` equal sub-fields to produce the final table
index. Low-order address bits are preferred because they are the most likely
to differ between tasks, and older tasks contribute fewer bits because
recent control flow is more relevant (§6.1's two design heuristics).

Task addresses are word-aligned (4-byte instructions), so the two
always-zero low bits are stripped before bit extraction.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import PredictorConfigError
from repro.utils.bits import bit_mask, fold_xor
from repro.utils.memo import DerivedColumnCache, int64_column
from repro.utils.windows import lag_columns

#: Path-index columns per (trace address column, spec) — every predictor
#: sharing a spec over the same trace reuses one folded column.
_INDEX_COLUMN_CACHE = DerivedColumnCache()

_SPEC_RE = re.compile(
    r"^\s*(\d+)-(\d+)-(\d+)-(\d+)\s*\(\s*(\d+)\s*\)\s*$"
)

#: Strip the always-zero byte-offset bits of word-aligned task addresses.
_ALIGN_SHIFT = 2


@dataclass(frozen=True)
class DolcSpec:
    """A path-predictor index specification, written ``D-O-L-C (F)``.

    Attributes:
        depth: Number of preceding tasks in the path (D). 0 means no path
            history: the index uses current-task bits only.
        older_bits: Bits contributed by each task older than the last (O).
        last_bits: Bits contributed by the immediately preceding task (L).
        current_bits: Bits contributed by the current task (C).
        folds: Number of XOR-folded sub-fields (F).
    """

    depth: int
    older_bits: int
    last_bits: int
    current_bits: int
    folds: int = 1

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise PredictorConfigError("depth must be >= 0")
        for name in ("older_bits", "last_bits", "current_bits"):
            if getattr(self, name) < 0:
                raise PredictorConfigError(f"{name} must be >= 0")
        if self.folds < 1:
            raise PredictorConfigError("fold count must be >= 1")
        if self.depth == 0 and (self.older_bits or self.last_bits):
            raise PredictorConfigError(
                "depth 0 cannot take bits from preceding tasks"
            )
        if self.depth >= 1 and self.last_bits == 0 and self.older_bits:
            raise PredictorConfigError(
                "older tasks cannot contribute bits when the last task "
                "contributes none"
            )
        if self.intermediate_bits == 0:
            raise PredictorConfigError("index would be empty")
        if self.intermediate_bits % self.folds != 0:
            raise PredictorConfigError(
                f"intermediate index of {self.intermediate_bits} bits is "
                f"not divisible into {self.folds} folds"
            )

    @classmethod
    def parse(cls, text: str) -> "DolcSpec":
        """Parse the paper's notation, e.g. ``"6-5-8-9(3)"``.

        The four numbers are D, O, L, C; the parenthesised number is F.
        """
        match = _SPEC_RE.match(text)
        if not match:
            raise PredictorConfigError(
                f"cannot parse DOLC spec {text!r}; expected 'D-O-L-C(F)'"
            )
        d, o, l, c, f = (int(g) for g in match.groups())
        return cls(depth=d, older_bits=o, last_bits=l, current_bits=c, folds=f)

    @property
    def intermediate_bits(self) -> int:
        """Width of the intermediate index: (D−1)·O + L + C (C when D=0)."""
        if self.depth == 0:
            return self.current_bits
        return (self.depth - 1) * self.older_bits + self.last_bits \
            + self.current_bits

    @property
    def index_bits(self) -> int:
        """Width of the final, folded table index."""
        return self.intermediate_bits // self.folds

    @property
    def table_entries(self) -> int:
        """Number of entries in a table indexed by this spec."""
        return 1 << self.index_bits

    def index(self, current_addr: int, path: Sequence[int]) -> int:
        """Compute the table index for ``current_addr`` given ``path``.

        ``path`` holds the addresses of preceding tasks, most recent
        **last**; only the last ``depth`` entries are used. A shorter path
        (cold start) contributes zero bits for the missing tasks.
        """
        intermediate = (current_addr >> _ALIGN_SHIFT) & bit_mask(
            self.current_bits
        )
        position = self.current_bits
        if self.depth >= 1:
            n = len(path)
            if n >= 1:
                last = (path[n - 1] >> _ALIGN_SHIFT) & bit_mask(
                    self.last_bits
                )
                intermediate |= last << position
            position += self.last_bits
            if self.older_bits:
                older_mask = bit_mask(self.older_bits)
                for back in range(2, self.depth + 1):
                    if n >= back:
                        older = (path[n - back] >> _ALIGN_SHIFT) & older_mask
                        intermediate |= older << position
                    position += self.older_bits
        return fold_xor(intermediate, self.intermediate_bits, self.folds)

    def index_column(self, task_addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index` over a whole trace at once.

        ``task_addrs[i]`` is the current address of step ``i`` and its
        path is ``task_addrs[:i]`` — the layout of every predictor that
        shifts each retired task into its path register. Returns the
        int64 column of folded table indices, bit-identical to calling
        :meth:`index` per step with a growing path.

        The result is memoised per (address column, spec): a sweep that
        runs several predictors with one spec over one trace folds the
        column once. The returned array is shared — do not mutate it.
        """

        def fold() -> np.ndarray:
            addrs = int64_column(task_addrs)
            return self.fold_columns(addrs, lag_columns(addrs, self.depth))

        return _INDEX_COLUMN_CACHE.get((task_addrs,), self, fold)

    def fold_columns(
        self, current: np.ndarray, path: Iterable[np.ndarray]
    ) -> np.ndarray:
        """Vectorized :meth:`index` over rows of explicit path columns.

        ``current`` holds each row's current task address; ``path``
        yields one column per preceding task, most recent first, with 0
        where a row's path is shorter (a missing task contributes no
        bits, as in :meth:`index`). Columns past ``depth`` are not read.

        Instead of materialising the up-to-63-bit intermediate index,
        each contribution is folded *incrementally*: bits destined for
        absolute position ``p`` of the intermediate index land XORed at
        ``p mod index_bits`` of the output, which is algebraically the
        same fold and keeps every array operation inside int64.
        """
        out = np.zeros(len(current), dtype=np.int64)
        field_width = self.index_bits

        def fold_in(values: np.ndarray, width: int, position: int) -> None:
            # XOR the low ``width`` bits of each task's word address at
            # intermediate-index offset ``position`` into the output,
            # splitting them wherever they straddle a fold boundary.
            remaining, shift = width, position
            chunk = values >> _ALIGN_SHIFT
            while remaining > 0:
                offset = shift % field_width
                take = min(field_width - offset, remaining)
                np.bitwise_xor(
                    out, (chunk & bit_mask(take)) << offset, out=out
                )
                chunk = chunk >> take
                shift += take
                remaining -= take

        fold_in(current, self.current_bits, 0)
        position = self.current_bits
        widths = [self.last_bits] + [self.older_bits] * (self.depth - 1)
        for width, column in zip(widths[: self.depth], path):
            if not width:  # no older task contributes either
                break
            fold_in(column, width, position)
            position += width
        return out

    def __str__(self) -> str:
        return (
            f"{self.depth}-{self.older_bits}-{self.last_bits}-"
            f"{self.current_bits}({self.folds})"
        )
