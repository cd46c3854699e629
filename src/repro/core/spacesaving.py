"""The space-saving heavy-hitter sketch (Metwally, Agrawal, El Abbadi 2005).

CoT's tracker is built on space-saving (paper Section 4.2, Algorithm 1).
This module provides the *classic* counter-based sketch with its textbook
guarantees, used directly by the workload-analysis tooling and by tests that
validate the bounds; the CoT-specific two-set variant that additionally
supports the dual-cost hotness model and cache pinning lives in
:mod:`repro.core.tracker`.

Guarantees (for a sketch of ``m`` counters over a stream of length ``N``):

* every key with true frequency > ``N / m`` is in the sketch,
* for every monitored key, ``count - error <= true_count <= count``,
* the per-key overestimation ``error`` never exceeds ``N / m``.

These are exactly the properties the hypothesis suite in
``tests/test_spacesaving.py`` checks against brute-force counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

from repro.core.heap import IndexedMinHeap
from repro.errors import ConfigurationError

K = TypeVar("K", bound=Hashable)

__all__ = ["SpaceSaving", "TrackedCount"]


@dataclass(frozen=True)
class TrackedCount(Generic[K]):
    """A monitored key with its (over-)estimated count and error bound."""

    key: K
    count: float
    error: float

    @property
    def guaranteed_count(self) -> float:
        """A lower bound on the key's true frequency."""
        return self.count - self.error


class SpaceSaving(Generic[K]):
    """Classic space-saving sketch with ``capacity`` monitored counters.

    ``offer(key, weight)`` processes one stream item. When the sketch is
    full and an unmonitored key arrives, the minimum-count key is evicted
    and the newcomer inherits its count (recorded as the newcomer's
    ``error``) plus the offered weight.
    """

    __slots__ = ("_capacity", "_heap", "_errors", "_stream_length")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("space-saving capacity must be >= 1")
        self._capacity = capacity
        self._heap: IndexedMinHeap[K] = IndexedMinHeap()
        self._errors: dict[K, float] = {}
        self._stream_length = 0.0

    # ------------------------------------------------------------------ api

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously monitored keys."""
        return self._capacity

    @property
    def stream_length(self) -> float:
        """Total weight offered so far (``N``)."""
        return self._stream_length

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, key: K) -> bool:
        return key in self._heap

    def offer(self, key: K, weight: float = 1.0) -> float:
        """Process one occurrence of ``key``; returns its new count."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._stream_length += weight
        if key in self._heap:
            new_count = self._heap.priority_of(key) + weight
            self._heap.update(key, new_count)
            return new_count
        if len(self._heap) < self._capacity:
            self._heap.push(key, weight)
            self._errors[key] = 0.0
            return weight
        victim, victim_count = self._heap.pop()
        del self._errors[victim]
        new_count = victim_count + weight
        self._heap.push(key, new_count)
        self._errors[key] = victim_count
        return new_count

    def offer_all(self, keys: Iterable[K]) -> None:
        """Process a whole stream of unit-weight occurrences."""
        for key in keys:
            self.offer(key)

    def count_of(self, key: K) -> float:
        """Estimated (over-)count of a monitored key."""
        return self._heap.priority_of(key)

    def error_of(self, key: K) -> float:
        """Overestimation bound recorded when ``key`` entered the sketch."""
        return self._errors[key]

    def entries(self) -> Iterator[TrackedCount[K]]:
        """All monitored keys, in arbitrary order."""
        for key, count in self._heap.items():
            yield TrackedCount(key, count, self._errors[key])

    def top(self, k: int) -> list[TrackedCount[K]]:
        """The ``k`` highest-count monitored keys, descending by count.

        Equal counts order by the smaller error; a full tie goes to the
        key monitored longest (the sort is stable over the heap's
        insertion-order iteration).
        """
        ordered = sorted(self.entries(), key=lambda e: (-e.count, e.error))
        return ordered[:k]

    def frequent(self, phi: float) -> list[TrackedCount[K]]:
        """Keys whose estimated count exceeds ``phi * stream_length``.

        This is the epsilon-approximate frequent-elements query: the result
        contains every key with true frequency above the threshold (no false
        negatives) and may contain keys whose true frequency is above
        ``(phi - 1/capacity) * N``.
        """
        if not 0 < phi < 1:
            raise ValueError("phi must be in (0, 1)")
        threshold = phi * self._stream_length
        return [e for e in self.entries() if e.count > threshold]

    def min_count(self) -> float:
        """The smallest monitored count (0 when the sketch is not full)."""
        if len(self._heap) < self._capacity:
            return 0.0
        return self._heap.min_priority()

    def clear(self) -> None:
        """Forget everything, including the stream length."""
        self._heap.clear()
        self._errors.clear()
        self._stream_length = 0.0
