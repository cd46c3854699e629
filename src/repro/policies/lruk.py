"""LRU-K replacement (O'Neil, O'Neil & Weikum, SIGMOD 1993).

The CoT paper compares against LRU-2 configured with a *history* the same
size as CoT's tracker. LRU-K evicts the cached key whose K-th most recent
reference is oldest ("maximum backward K-distance"); keys referenced fewer
than K times are evicted first, in LRU order among themselves. Reference
history is retained for evicted keys in a bounded *history* structure so a
key re-admitted shortly after eviction keeps its K-distance — this is the
"retained information" of the original paper and the "history" the CoT
paper refers to.

Implementation notes
--------------------
Each key keeps its last ``k`` reference times (a global logical clock).
The eviction order is maintained in an indexed min-heap whose priority is
the K-th most recent reference time; keys with fewer than ``k`` references
get priority ``last_time - _INFANT_OFFSET``, which (a) sorts every infant
key below any mature key and (b) orders infants among themselves by plain
LRU — exactly the paper's tie-breaking rule, in O(log C) per operation.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Hashable, Iterable, Iterator

from repro.core.heap import IndexedMinHeap
from repro.errors import ConfigurationError
from repro.policies.base import MISSING, CachePolicy

__all__ = ["LRUKCache"]

#: Offset that pushes keys with < k references below all mature keys while
#: preserving LRU order among them. Larger than any realistic clock value.
_INFANT_OFFSET = 2.0**62


class LRUKCache(CachePolicy):
    """LRU-K cache with bounded retained history.

    Parameters
    ----------
    capacity:
        number of cache-lines.
    k:
        how many past references to keep per key (the paper's experiments
        use ``k=2``, i.e. LRU-2, "the most responsive LRU-k").
    history_capacity:
        how many *evicted* keys retain their reference history. The CoT
        paper configures this equal to CoT's tracker size. ``0`` disables
        retained information.
    """

    name = "lru2"

    def __init__(self, capacity: int, k: int = 2, history_capacity: int = 0) -> None:
        super().__init__(capacity)
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        if history_capacity < 0:
            raise ConfigurationError("history_capacity must be >= 0")
        self._k = k
        self._history_capacity = history_capacity
        self._clock = 0.0
        self._values: dict[Hashable, Any] = {}
        self._refs: dict[Hashable, deque[float]] = {}
        # retained info for evicted keys, ordered by last reference (LRU out)
        self._history: OrderedDict[Hashable, deque[float]] = OrderedDict()
        self._heap: IndexedMinHeap[Hashable] = IndexedMinHeap()

    # ----------------------------------------------------------- inspection

    @property
    def k(self) -> int:
        """The K in LRU-K."""
        return self._k

    @property
    def history_capacity(self) -> int:
        """Maximum number of evicted keys with retained history."""
        return self._history_capacity

    @property
    def history_size(self) -> int:
        """Evicted keys currently retaining history (test hook)."""
        return len(self._history)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    def cached_keys(self) -> Iterator[Hashable]:
        return iter(list(self._values))

    def cached_items(self) -> Iterator[tuple[Hashable, Any]]:
        return iter(list(self._values.items()))

    # -------------------------------------------------------------- helpers

    def _tick(self) -> float:
        self._clock += 1.0
        return self._clock

    def _priority(self, refs: deque[float]) -> float:
        """Backward K-distance priority: K-th last time, or infant rank."""
        if len(refs) >= self._k:
            return refs[0]  # deque holds the last k refs; [0] is the k-th last
        return refs[-1] - _INFANT_OFFSET

    def _touch(self, key: Hashable) -> None:
        refs = self._refs[key]
        refs.append(self._tick())
        self._heap.update(key, self._priority(refs))

    def _remember(self, key: Hashable, refs: deque[float]) -> None:
        """Retain an evicted key's reference history (bounded, LRU-out)."""
        if self._history_capacity == 0:
            return
        self._history[key] = refs
        self._history.move_to_end(key)
        while len(self._history) > self._history_capacity:
            self._history.popitem(last=False)

    # ------------------------------------------------------------ policy ops

    def _lookup(self, key: Hashable) -> Any:
        if key in self._values:
            self._touch(key)
            return self._values[key]
        # The reference for a missed access is recorded by ``_admit`` once
        # the fetched value is offered (recording it here as well would
        # double-count the access and make history keys instantly mature).
        return MISSING

    def _admit(self, key: Hashable, value: Any) -> None:
        if key in self._values:
            self._values[key] = value
            self._touch(key)
            return
        refs = self._history.pop(key, None)
        if refs is None:
            refs = deque(maxlen=self._k)
        refs.append(self._tick())
        if len(self._values) >= self._capacity:
            self._evict_one()
        self._values[key] = value
        self._refs[key] = refs
        self._heap.push(key, self._priority(refs))
        self.stats.record_insertion()

    def run_stream(self, keys: Iterable[Hashable]) -> None:
        """Batched read-only stream: lookup + admit-on-miss, loop-inlined.

        The hit path fuses ``_touch`` (clock tick, reference append, heap
        reposition); misses replay ``_admit`` with the priority rule
        inlined. Per-key semantics are exactly the base implementation's.

        Twin kept on a number: 1.24-1.32x min / 1.10-1.29x median against
        the better plain loop (``benchmarks/run_stream_twins.py``, three
        runs on the lazily-settling heap; ROADMAP item 3b's bar is 1.10x).
        """
        values = self._values
        refs_map = self._refs
        heap = self._heap
        heap_update = heap.update
        heap_push = heap.push
        history_pop = self._history.pop
        cstat = self.stats
        capacity = self._capacity
        k = self._k
        for key in keys:
            refs = refs_map.get(key)
            if refs is not None:
                self._clock = clock = self._clock + 1.0
                refs.append(clock)
                heap_update(
                    key, refs[0] if len(refs) >= k else clock - _INFANT_OFFSET
                )
                cstat.hits += 1
                cstat.epoch_hits += 1
                continue
            cstat.misses += 1
            cstat.epoch_misses += 1
            if capacity == 0:
                continue
            refs = history_pop(key, None)
            if refs is None:
                refs = deque(maxlen=k)
            self._clock = clock = self._clock + 1.0
            refs.append(clock)
            if len(values) >= capacity:
                self._evict_one()
            values[key] = key
            refs_map[key] = refs
            heap_push(
                key, refs[0] if len(refs) >= k else clock - _INFANT_OFFSET
            )
            cstat.insertions += 1

    def _evict_one(self) -> None:
        victim, _prio = self._heap.pop()
        del self._values[victim]
        victim_refs = self._refs.pop(victim)
        self._remember(victim, victim_refs)
        self.stats.record_eviction()
        self._notify_evicted(victim)

    def _invalidate(self, key: Hashable) -> bool:
        if key not in self._values:
            # Stale history for updated keys is dropped as well.
            self._history.pop(key, None)
            return False
        del self._values[key]
        self._refs.pop(key)
        self._heap.remove(key)
        return True

    def _resize(self, capacity: int) -> None:
        while len(self._values) > capacity:
            self._evict_one()
