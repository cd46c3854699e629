"""Count-Min Sketch heavy-hitter tracking — the space-saving alternative.

CoT adopts the space-saving algorithm for its tracker; the other
standard streaming heavy-hitter machinery is a Count-Min Sketch (Cormode
& Muthukrishnan 2005) paired with a top-k heap. This module implements
that alternative so the design choice can be evaluated rather than
asserted:

* :class:`CountMinSketch` — the ``d × w`` counter matrix with
  conservative-update support; estimates are overestimates with error
  ≤ ``e/w · N`` at probability ``1 - e^-d``.
* :class:`CMSTopK` — a CoT-shaped tracker facade: ``offer`` a key,
  keep the approximate top-``k`` in an indexed heap.

``benchmarks/bench_tracker_comparison.py`` and
``tests/test_countmin.py`` compare recall and per-op cost against
:class:`~repro.core.tracker.CoTTracker` (space-saving, with no cached
keys) at equal memory: space-saving's per-key error bound makes it the
better fit for CoT's *small* trackers, which is the reproduction's
evidence for the paper's choice.
"""

from __future__ import annotations

import math
import random
from typing import Generic, Hashable, TypeVar

from repro.core.heap import IndexedMinHeap
from repro.errors import ConfigurationError

K = TypeVar("K", bound=Hashable)

__all__ = ["CountMinSketch", "CMSTopK"]

_MERSENNE_PRIME = (1 << 61) - 1


class CountMinSketch(Generic[K]):
    """A ``depth × width`` Count-Min Sketch with conservative update.

    Parameters
    ----------
    width:
        counters per row (``w``); the overestimation bound is ``N·e/w``
        for the classic analysis.
    depth:
        number of hash rows (``d``); failure probability ``e^-d``.
    conservative:
        update only the minimal counters (tighter estimates at the same
        memory; the default, as used in networking practice).
    seed:
        seeds the pairwise-independent hash family.
    """

    def __init__(
        self,
        width: int,
        depth: int = 4,
        conservative: bool = True,
        seed: int | None = None,
    ) -> None:
        if width < 1 or depth < 1:
            raise ConfigurationError("width and depth must be >= 1")
        self._width = width
        self._depth = depth
        self._conservative = conservative
        self._rows = [[0.0] * width for _ in range(depth)]
        rng = random.Random(seed)
        # (a, b) pairs for ax+b mod p mod w universal hashing.
        self._hashes = [
            (rng.randrange(1, _MERSENNE_PRIME), rng.randrange(_MERSENNE_PRIME))
            for _ in range(depth)
        ]
        self._stream_length = 0.0

    @classmethod
    def from_error(
        cls, epsilon: float, delta: float = 0.01, **kw
    ) -> "CountMinSketch[K]":
        """Size the sketch for error ``epsilon·N`` with prob. ``1-delta``."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ConfigurationError("epsilon and delta must be in (0, 1)")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width, depth, **kw)

    # ----------------------------------------------------------- properties

    @property
    def width(self) -> int:
        """Counters per row."""
        return self._width

    @property
    def depth(self) -> int:
        """Number of hash rows."""
        return self._depth

    @property
    def stream_length(self) -> float:
        """Total weight offered so far."""
        return self._stream_length

    @property
    def counter_cells(self) -> int:
        """Total memory in counters (for equal-memory comparisons)."""
        return self._width * self._depth

    # ------------------------------------------------------------------ ops

    def _buckets(self, key: K) -> list[int]:
        h = hash(key) & ((1 << 61) - 1)
        return [
            ((a * h + b) % _MERSENNE_PRIME) % self._width
            for a, b in self._hashes
        ]

    def add(self, key: K, weight: float = 1.0) -> float:
        """Record one occurrence; returns the new estimate."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._stream_length += weight
        buckets = self._buckets(key)
        current = min(
            self._rows[row][bucket] for row, bucket in enumerate(buckets)
        )
        target = current + weight
        for row, bucket in enumerate(buckets):
            if self._conservative:
                if self._rows[row][bucket] < target:
                    self._rows[row][bucket] = target
            else:
                self._rows[row][bucket] += weight
        return target if self._conservative else current + weight

    def estimate(self, key: K) -> float:
        """Point query: an overestimate of the key's true count."""
        return min(
            self._rows[row][bucket]
            for row, bucket in enumerate(self._buckets(key))
        )

    def scale(self, factor: float) -> None:
        """Multiply every counter (decay support, mirroring the tracker)."""
        if not 0 < factor <= 1:
            raise ConfigurationError("factor must be in (0, 1]")
        for row in self._rows:
            for i in range(len(row)):
                row[i] *= factor
        self._stream_length *= factor


class CMSTopK(Generic[K]):
    """Approximate top-``k`` tracking over a Count-Min Sketch.

    The standard construction: every offered key is estimated via the
    sketch; a key enters the candidate heap when its estimate beats the
    heap minimum. Unlike space-saving there is **no subset guarantee** —
    hash collisions can both inflate cold keys into the heap and keep the
    heap's minimum too high for warm keys to enter.
    """

    def __init__(
        self,
        k: int,
        sketch: CountMinSketch[K] | None = None,
        width: int | None = None,
        depth: int = 4,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        if sketch is None:
            sketch = CountMinSketch(width or max(8 * k, 64), depth, seed=seed)
        self._k = k
        self.sketch = sketch
        self._heap: IndexedMinHeap[K] = IndexedMinHeap()

    @property
    def k(self) -> int:
        """Tracked top-k size."""
        return self._k

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, key: K) -> bool:
        return key in self._heap

    def offer(self, key: K, weight: float = 1.0) -> float:
        """Record one occurrence; maintain the candidate heap."""
        estimate = self.sketch.add(key, weight)
        if key in self._heap:
            self._heap.update(key, estimate)
        elif len(self._heap) < self._k:
            self._heap.push(key, estimate)
        elif estimate > self._heap.min_priority():
            self._heap.pop()
            self._heap.push(key, estimate)
        return estimate

    def top(self, n: int | None = None) -> list[tuple[K, float]]:
        """The tracked keys with estimates, hottest first.

        Equal estimates keep the order the keys entered the candidate
        heap (a stable sort over its insertion-order iteration).
        """
        ordered = sorted(self._heap.items(), key=lambda kv: -kv[1])
        return ordered[: (n if n is not None else self._k)]

    def memory_cells(self) -> int:
        """Counters + heap entries (for equal-memory comparisons)."""
        return self.sketch.counter_cells + len(self._heap)
