"""An indexed min-heap that settles lazily, built on stdlib ``heapq``.

The paper's tracker and cache (Section 4) are min-heaps ordered by key
hotness, paired with a hashmap so any key can be found in O(1) and
re-prioritized. The tracker heap (``S_{k-c}``), the cache heap (``S_c``)
and the LFU / LRU-K / sketch baselines share this one.

Every answer a caller takes from the heap is a *minimum*, so nothing needs
the array ordered between two minimum queries. Each key owns one entry
``[snapshot, seq, key, priority]``; the array is a ``heapq`` heap of
entries ordered by ``(snapshot, seq)``, where ``snapshot`` is a lower bound
of the key's true ``priority``:

* **raising** a priority (every read, every LFU / LRU-K hit) writes the
  number and touches no heap;
* **lowering** it below the snapshot pushes a fresh entry for the key and
  leaves the old one in the array, stale; ``remove`` just forgets the key;
* a **minimum query** first settles the root: a stale root is dropped, a
  root whose priority ran ahead of its snapshot is re-sunk at its true
  priority by one C ``heapreplace``, and a root whose snapshot *is* its
  priority is the minimum — every other live entry's truth is >= its own
  snapshot, which is >= the root's.

Ties in priority are broken by insertion sequence number, so behaviour is
deterministic: reproducible experiments, checkable property tests.
"""

from __future__ import annotations

import heapq
from heapq import heapify, heappop, heappush, heapreplace
from typing import Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)

__all__ = ["IndexedMinHeap"]

#: Stale entries the array may hold beyond one per live key before it is
#: rebuilt; the constant keeps small heaps from rebuilding every decrease.
_STALE_SLACK = 64


class IndexedMinHeap(Generic[K]):
    """Min-heap over ``(priority, seq)`` pairs with a key→entry index.

    ``update`` / ``update_delta`` re-prioritize a key (free when the
    priority rises); ``min_priority()`` is the paper's ``h_min`` when this
    is the cache heap. There is no built-in capacity: Algorithm 3 resizes
    dynamically, so capacity policy lives in the callers.
    """

    __slots__ = ("_heap", "_entries", "_next_seq")

    def __init__(self) -> None:
        # A key's live entry is the one ``_entries`` maps it to; any other
        # entry in ``_heap`` is stale. Seqs are unique per key, so only a
        # key's own entries can tie on (snapshot, seq): the comparison then
        # falls to ``key == key`` and the floats, never to two unlike keys.
        self._heap: list[list] = []
        self._entries: dict[K, list] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Keys in insertion (seq) order, read live: mutating the heap
        mid-iteration is undefined — take an explicit ``list(...)`` first."""
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, key: K, priority: float) -> None:
        """Insert ``key`` with ``priority``. Raises if already present."""
        if key in self._entries:
            raise ValueError(f"key already in heap: {key!r}")
        entry = [priority, self._next_seq, key, priority]
        self._next_seq += 1
        self._entries[key] = entry
        heappush(self._heap, entry)

    def peek(self) -> tuple[K, float]:
        """Return ``(key, priority)`` of the minimum without removing it."""
        entry = self._settle()
        return entry[2], entry[3]

    def pop(self) -> tuple[K, float]:
        """Remove and return ``(key, priority)`` of the minimum."""
        entry = self._settle()
        heappop(self._heap)
        del self._entries[entry[2]]
        self._bound_stale()
        return entry[2], entry[3]

    def replace(self, key: K, priority: float) -> tuple[K, float]:
        """Evict the minimum and insert ``key`` in one C ``heapreplace``.

        Returns the evicted ``(key, priority)`` pair: space-saving
        replacement fused. The array layout differs from pop-then-push,
        but every decision depends only on the layout-independent
        (priority, seq) total order, so callers cannot tell.
        """
        if key in self._entries:
            raise ValueError(f"key already in heap: {key!r}")
        old = self._settle()
        del self._entries[old[2]]
        entry = [priority, self._next_seq, key, priority]
        self._next_seq += 1
        self._entries[key] = entry
        heapreplace(self._heap, entry)
        return old[2], old[3]

    def remove(self, key: K) -> float:
        """Remove an arbitrary ``key``; returns its priority."""
        priority = self._entries.pop(key)[3]
        self._bound_stale()
        return priority

    def update(self, key: K, priority: float) -> None:
        """Set ``key``'s priority."""
        entry = self._entries[key]
        entry[3] = priority
        if priority < entry[0]:
            self._lower(entry)

    def update_delta(self, key: K, delta: float) -> float:
        """Add ``delta`` to ``key``'s priority; returns the new priority.

        The data-plane fast path (Equation 1's ``+r_w`` / ``-u_w``): a read
        only writes the number; the array hears of it when the key next
        reaches the root.
        """
        entry = self._entries[key]
        entry[3] = priority = entry[3] + delta
        if priority < entry[0]:
            self._lower(entry)
        return priority

    def priority_of(self, key: K) -> float:
        """Return the current priority of ``key``."""
        return self._entries[key][3]

    def min_priority(self) -> float:
        """Priority of the heap minimum (``h_min`` for a CoT cache heap)."""
        return self._settle()[3]

    def items(self) -> Iterator[tuple[K, float]]:
        """Iterate ``(key, priority)`` pairs; the rules of :meth:`__iter__`."""
        return ((key, entry[3]) for key, entry in self._entries.items())

    def clear(self) -> None:
        """Remove every key."""
        self._heap.clear()
        self._entries.clear()

    def scale_priorities(self, factor: float) -> None:
        """Multiply every priority by ``factor``, keeping the heap ordered.

        Used by half-life decay. A uniform positive scaling keeps distinct
        reals in order, but two distinct *floats* can round to one value
        (7.0 and the next float up are both 2.1 after ``* 0.3``) and the
        tie then goes to the older seq — so the array is rebuilt from the
        scaled truths rather than scaled in place.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        for entry in self._entries.values():
            entry[3] *= factor
        self._rebuild()

    def nsmallest(self, n: int) -> list[tuple[K, float]]:
        """Return the ``n`` smallest ``(key, priority)`` pairs, ascending.

        O(n log k), not a full sort: the resizing controller asks for
        small prefixes of large trackers every epoch.
        """
        truths = ((e[3], e[1], key) for key, e in self._entries.items())
        pairs = heapq.nsmallest(n, truths)
        return [(key, priority) for priority, _seq, key in pairs]

    def _settle(self) -> list:
        """Make the root the live entry of the true minimum; return it."""
        heap, entries = self._heap, self._entries
        while heap:
            entry = heap[0]
            if entries.get(entry[2]) is not entry:
                heappop(heap)
            elif entry[0] != entry[3]:
                entry[0] = entry[3]
                heapreplace(heap, entry)
            else:
                return entry
        raise IndexError("minimum of an empty heap")

    def _lower(self, entry: list) -> None:
        """``entry`` fell below its snapshot: its key gets a fresh entry at
        the new priority, same seq, and the old one goes stale in place."""
        priority = entry[3]
        fresh = [priority, entry[1], entry[2], priority]
        self._entries[entry[2]] = fresh
        heappush(self._heap, fresh)
        self._bound_stale()

    def _bound_stale(self) -> None:
        if len(self._heap) > 2 * len(self._entries) + _STALE_SLACK:
            self._rebuild()

    def _rebuild(self) -> None:
        """Re-heapify from the live entries, snapshots set to the truth."""
        heap = self._heap = list(self._entries.values())
        for entry in heap:
            entry[0] = entry[3]
        heapify(heap)

    def check_invariants(self) -> None:
        """Assert structural invariants (used by tests, not hot paths)."""
        heap = self._heap
        assert len(heap) <= 2 * len(self._entries) + _STALE_SLACK
        in_array = {id(entry) for entry in heap}
        assert len(in_array) == len(heap), "an entry is in the array twice"
        for key, entry in self._entries.items():
            assert id(entry) in in_array, f"live entry of {key!r} not in the array"
            assert entry[2] == key and entry[0] <= entry[3], f"bad entry: {entry!r}"
        for i in range(1, len(heap)):
            parent = heap[(i - 1) >> 1]
            assert parent[:2] <= heap[i][:2], f"heap order violated at {i}"
