"""Deterministic random-number streams.

Every stochastic component of the library (workload generation, random
tie-breaking in voting counters) draws from a :class:`DeterministicRng` so
that experiments are exactly reproducible from a seed. The class is a thin,
explicit wrapper over :class:`random.Random` — we intentionally avoid global
RNG state.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Sequence
from itertools import accumulate
from typing import TypeVar

from repro.utils.hashing import stable_hash

T = TypeVar("T")


class DeterministicRng:
    """A seeded random stream with the handful of draws the library needs."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        #: ``uniform()`` returns a float in [0, 1). It is the stream's own
        #: ``random`` method, bound once, so a draw is a single call.
        self.uniform = self._random.random

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Return an independent stream derived from this seed and ``label``.

        Forking lets subsystems own private streams so that adding draws in
        one subsystem does not perturb another. The derivation uses a
        process-independent hash, so forked streams are reproducible across
        runs (Python's built-in ``hash`` is salted per process).
        """
        derived = stable_hash(f"{self._seed}:{label}")
        return DeterministicRng(derived)

    # randint, choice and weighted_choice draw exactly what
    # random.Random's randint, choice and choices(k=1) draw, through the
    # same public primitives (getrandbits and random), without their
    # layers of calls and argument checks.

    def _below(self, n: int) -> int:
        """An integer in [0, n): rejection sampling over ``getrandbits``."""
        getrandbits = self._random.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def randint(self, lo: int, hi: int) -> int:
        """Return an integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self._below(hi - lo + 1)

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly random element of ``items``."""
        if not len(items):
            raise IndexError("cannot choose from an empty sequence")
        return items[self._below(len(items))]

    def weighted_choice(
        self,
        items: Sequence[T],
        weights: Sequence[float] | None = None,
        *,
        cum_weights: Sequence[float] | None = None,
    ) -> T:
        """Return an element of ``items`` drawn with the given weights.

        Pass ``cum_weights`` (the running sums of the weights) instead
        of ``weights`` to draw from one table many times without summing
        it each time.
        """
        if cum_weights is None:
            if weights is None:
                raise TypeError("weighted_choice needs weights")
            cum_weights = list(accumulate(weights))
        elif weights is not None:
            raise TypeError("pass weights or cum_weights, not both")
        if len(cum_weights) != len(items):
            raise ValueError("one weight per item is required")
        total = cum_weights[-1] + 0.0
        if not total > 0.0:
            raise ValueError("weights must sum to more than zero")
        return items[
            bisect(cum_weights, self._random.random() * total, 0, len(items) - 1)
        ]

    def shuffle(self, items: list[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def sample_geometric(self, p: float, cap: int) -> int:
        """Return a geometric draw >= 1 capped at ``cap``.

        Used for loop trip counts and call fan-out in the workload generator.
        """
        count = 1
        while count < cap and self._random.random() >= p:
            count += 1
        return count
