"""Least-Frequently-Used replacement (Section 3 baseline).

Implemented the way the paper describes it — a min-heap over in-cache
frequencies, O(log C) per access. Frequency state exists only for cached
keys, which is precisely the limitation the paper highlights: LFU "cannot
develop a wider perspective about the hotness distribution outside of its
static cache size", and old frequency builds up with no aging.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

from repro.core.heap import IndexedMinHeap
from repro.policies.base import MISSING, CachePolicy

__all__ = ["LFUCache"]


class LFUCache(CachePolicy):
    """In-cache LFU using an indexed min-heap keyed by access frequency.

    Newly admitted keys start at frequency 1; the heap root (the least
    frequently used cached key) is the eviction victim. Ties are broken by
    insertion order (older entries evicted first), which matches the usual
    min-heap implementation the paper assumes.
    """

    name = "lfu"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._heap: IndexedMinHeap[Hashable] = IndexedMinHeap()
        self._values: dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    def cached_keys(self) -> Iterator[Hashable]:
        return iter(list(self._values))

    def cached_items(self) -> Iterator[tuple[Hashable, Any]]:
        return iter(list(self._values.items()))

    def frequency_of(self, key: Hashable) -> float:
        """Current in-cache frequency counter of ``key`` (test hook)."""
        return self._heap.priority_of(key)

    def _lookup(self, key: Hashable) -> Any:
        if key not in self._values:
            return MISSING
        self._heap.update_delta(key, 1.0)
        return self._values[key]

    def _admit(self, key: Hashable, value: Any) -> None:
        if key in self._values:
            self._values[key] = value
            self._heap.update_delta(key, 1.0)
            return
        if len(self._values) >= self._capacity:
            victim, _freq = self._heap.pop()
            del self._values[victim]
            self.stats.record_eviction()
            self._notify_evicted(victim)
        self._heap.push(key, 1.0)
        self._values[key] = value
        self.stats.record_insertion()

    def run_stream(self, keys: Iterable[Hashable]) -> None:
        """Batched read-only stream: lookup + admit-on-miss, loop-inlined.

        Per-key semantics are exactly the base implementation's; the
        method/attribute resolution and stats calls are hoisted so the
        shadow simulations of the adaptive arbiter stay cheap.

        Twin kept on a number: 1.30-1.41x min / 1.35-1.46x median against
        the better plain loop (``benchmarks/run_stream_twins.py``, three
        runs on the lazily-settling heap, which took more off the shared
        heap work than off the loop overhead the twin removes; ROADMAP
        item 3b's bar is 1.10x).
        """
        values = self._values
        heap = self._heap
        bump = heap.update_delta
        push = heap.push
        pop = heap.pop
        cstat = self.stats
        capacity = self._capacity
        for key in keys:
            if key in values:
                bump(key, 1.0)
                cstat.hits += 1
                cstat.epoch_hits += 1
                continue
            cstat.misses += 1
            cstat.epoch_misses += 1
            if capacity == 0:
                continue
            if len(values) >= capacity:
                victim, _freq = pop()
                del values[victim]
                cstat.evictions += 1
                self._notify_evicted(victim)
            push(key, 1.0)
            values[key] = key
            cstat.insertions += 1

    def _invalidate(self, key: Hashable) -> bool:
        if key not in self._values:
            return False
        del self._values[key]
        self._heap.remove(key)
        return True

    def _resize(self, capacity: int) -> None:
        while len(self._values) > capacity:
            victim, _freq = self._heap.pop()
            del self._values[victim]
            self.stats.record_eviction()
            self._notify_evicted(victim)
