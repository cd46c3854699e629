"""An indexed binary min-heap with O(log n) arbitrary updates.

Both the space-saving tracker and CoT's cache (Section 4 of the paper) are
described as min-heaps ordered by key hotness, paired with a hashmap so any
key can be located in O(1) and re-prioritized in O(log n). This module
provides that structure once, so the tracker heap (``S_{k-c}``) and the cache
heap (``S_c``) share a single battle-tested implementation.

Ties in priority are broken by insertion sequence number, which makes heap
behaviour fully deterministic — important both for reproducible experiments
and for property-based tests.
"""

from __future__ import annotations

import heapq
from typing import Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)

__all__ = ["IndexedMinHeap"]


class IndexedMinHeap(Generic[K]):
    """Binary min-heap over ``(priority, seq)`` pairs with a key→slot index.

    Supports the operations CoT needs:

    * ``push(key, priority)`` — insert a new key.
    * ``peek()`` / ``pop()`` — inspect / remove the minimum-priority key.
    * ``update(key, priority)`` — change a key's priority in place.
    * ``remove(key)`` — delete an arbitrary key.
    * ``min_priority()`` — the paper's ``h_min`` when used as the cache heap.

    The heap intentionally has no built-in capacity: CoT's resizing algorithm
    (Algorithm 3) changes capacities dynamically, so capacity policy lives in
    the callers (:mod:`repro.core.tracker`, :mod:`repro.core.cache`).
    """

    __slots__ = ("_keys", "_priorities", "_seqs", "_pos", "_next_seq")

    def __init__(self) -> None:
        self._keys: list[K] = []
        self._priorities: list[float] = []
        self._seqs: list[int] = []
        self._pos: dict[K, int] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------ api

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: K) -> bool:
        return key in self._pos

    def __iter__(self) -> Iterator[K]:
        """Iterate keys in arbitrary (heap array) order.

        Iterates the live array without a snapshot copy — read-only
        consumers (invariant checks, metrics exports, top-k queries)
        dominate, and paying an O(n) copy per iteration showed up in
        profiles. Mutating the heap mid-iteration is undefined; callers
        that need that take an explicit ``list(...)`` themselves.
        """
        return iter(self._keys)

    def __bool__(self) -> bool:
        return bool(self._keys)

    def push(self, key: K, priority: float) -> None:
        """Insert ``key`` with ``priority``. Raises if already present."""
        if key in self._pos:
            raise ValueError(f"key already in heap: {key!r}")
        self._keys.append(key)
        self._priorities.append(priority)
        self._seqs.append(self._next_seq)
        self._next_seq += 1
        idx = len(self._keys) - 1
        self._pos[key] = idx
        self._sift_up(idx)

    def peek(self) -> tuple[K, float]:
        """Return ``(key, priority)`` of the minimum without removing it."""
        if not self._keys:
            raise IndexError("peek on empty heap")
        return self._keys[0], self._priorities[0]

    def pop(self) -> tuple[K, float]:
        """Remove and return ``(key, priority)`` of the minimum."""
        if not self._keys:
            raise IndexError("pop on empty heap")
        key, priority = self._keys[0], self._priorities[0]
        self._delete_at(0)
        return key, priority

    def replace(self, key: K, priority: float) -> tuple[K, float]:
        """Evict the minimum and insert ``key`` in one sift (heapreplace).

        Returns the evicted ``(key, priority)`` pair. This is the
        space-saving replacement step fused: a ``pop`` (full-depth sift of
        the displaced last element) plus a ``push`` (long sift-up, because
        the newcomer inherits the victim's near-minimal priority) collapse
        into a single root overwrite that rarely sinks more than a level.
        The resulting array layout differs from pop-then-push, but every
        ordering decision depends only on the (priority, seq) total order,
        which is layout-independent — so tracker behaviour is unchanged.
        """
        if not self._keys:
            raise IndexError("replace on empty heap")
        if key in self._pos:
            raise ValueError(f"key already in heap: {key!r}")
        old_key, old_priority = self._keys[0], self._priorities[0]
        del self._pos[old_key]
        self._keys[0] = key
        self._priorities[0] = priority
        self._seqs[0] = self._next_seq
        self._next_seq += 1
        self._pos[key] = 0
        self._sift_down(0)
        return old_key, old_priority

    def remove(self, key: K) -> float:
        """Remove an arbitrary ``key``; returns its priority."""
        idx = self._pos[key]
        priority = self._priorities[idx]
        self._delete_at(idx)
        return priority

    def update(self, key: K, priority: float) -> None:
        """Set ``key``'s priority and restore heap order."""
        idx = self._pos[key]
        old = self._priorities[idx]
        self._priorities[idx] = priority
        if priority < old:
            self._sift_up(idx)
        elif priority > old:
            self._sift_down(idx)

    def update_delta(self, key: K, delta: float) -> float:
        """Add ``delta`` to ``key``'s priority; returns the new priority.

        The data-plane fast path: CoT's Equation 1 moves a key's hotness
        by a constant ``+r_w`` (read) or ``-u_w`` (update) per access, so
        the common case is a single signed shift. The delta's sign alone
        decides the sift direction, saving the old-vs-new comparison and
        a redundant priority read on every tracked access.
        """
        idx = self._pos[key]
        priorities = self._priorities
        priority = priorities[idx] + delta
        priorities[idx] = priority
        if delta > 0:
            # Leaf fast-exit: a read makes a key hotter, and the hottest
            # keys live at the leaves of a min-heap — on skewed workloads
            # most tracked reads touch a leaf and need no sift at all.
            if 2 * idx + 1 < len(priorities):
                self._sift_down(idx)
        elif delta < 0:
            self._sift_up(idx)
        return priority

    def priority_of(self, key: K) -> float:
        """Return the current priority of ``key``."""
        return self._priorities[self._pos[key]]

    def min_priority(self) -> float:
        """Priority of the heap minimum (``h_min`` for a CoT cache heap)."""
        if not self._keys:
            raise IndexError("min_priority on empty heap")
        return self._priorities[0]

    def items(self) -> Iterator[tuple[K, float]]:
        """Iterate ``(key, priority)`` pairs in arbitrary order.

        Like :meth:`__iter__`, this reads the live arrays without a
        snapshot; mutation during iteration is undefined.
        """
        return zip(self._keys, self._priorities)

    def clear(self) -> None:
        """Remove every key."""
        self._keys.clear()
        self._priorities.clear()
        self._seqs.clear()
        self._pos.clear()

    def scale_priorities(self, factor: float) -> None:
        """Multiply every priority by ``factor``, keeping the heap ordered.

        Used by the half-life decay algorithm, which halves all hotness
        values at once. A uniform positive scaling keeps distinct reals in
        order, but two distinct *floats* can round to one value (7.0 and
        the next float up are both 2.1 after ``* 0.3``); the tie then goes
        to the older sequence number, which may be the child's. So the
        heap is re-sifted bottom-up — no element moves unless a tie arose.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        for i in range(len(self._priorities)):
            self._priorities[i] *= factor
        for i in range(len(self._priorities) // 2 - 1, -1, -1):
            self._sift_down(i)

    def nsmallest(self, n: int) -> list[tuple[K, float]]:
        """Return the ``n`` smallest ``(key, priority)`` pairs, ascending.

        ``heapq.nsmallest`` is O(n log k) versus the O(n log n) full sort
        it replaces — the difference matters for the resizing controller,
        which asks for small prefixes of large trackers every epoch.
        """
        pairs = heapq.nsmallest(
            n, zip(self._priorities, self._seqs, self._keys)
        )
        return [(key, priority) for priority, _seq, key in pairs]

    # ------------------------------------------------------------ internals

    def _less(self, i: int, j: int) -> bool:
        pi, pj = self._priorities[i], self._priorities[j]
        if pi != pj:
            return pi < pj
        return self._seqs[i] < self._seqs[j]

    def _swap(self, i: int, j: int) -> None:
        keys, prios, seqs = self._keys, self._priorities, self._seqs
        keys[i], keys[j] = keys[j], keys[i]
        prios[i], prios[j] = prios[j], prios[i]
        seqs[i], seqs[j] = seqs[j], seqs[i]
        self._pos[keys[i]] = i
        self._pos[keys[j]] = j

    # The sift loops are the innermost code of every tracked access, so
    # they bind the backing arrays to locals and inline the (priority,
    # seq) comparison instead of calling ``_less``/``_swap`` per level —
    # method dispatch dominated ``update()`` in profiles. Both use the
    # classic "hole" technique: the moving element is held aside and
    # written once at its final slot, halving list/dict writes.

    def _sift_up(self, idx: int) -> None:
        keys, prios, seqs = self._keys, self._priorities, self._seqs
        pos = self._pos
        key, prio, seq = keys[idx], prios[idx], seqs[idx]
        while idx > 0:
            parent = (idx - 1) >> 1
            pp = prios[parent]
            if prio < pp or (prio == pp and seq < seqs[parent]):
                pk = keys[parent]
                keys[idx] = pk
                prios[idx] = pp
                seqs[idx] = seqs[parent]
                pos[pk] = idx
                idx = parent
            else:
                break
        keys[idx] = key
        prios[idx] = prio
        seqs[idx] = seq
        pos[key] = idx

    def _sift_down(self, idx: int) -> None:
        keys, prios, seqs = self._keys, self._priorities, self._seqs
        pos = self._pos
        n = len(keys)
        key, prio, seq = keys[idx], prios[idx], seqs[idx]
        child = 2 * idx + 1
        while child < n:
            cp = prios[child]
            right = child + 1
            if right < n:
                rp = prios[right]
                if rp < cp or (rp == cp and seqs[right] < seqs[child]):
                    child = right
                    cp = rp
            if cp < prio or (cp == prio and seqs[child] < seq):
                ck = keys[child]
                keys[idx] = ck
                prios[idx] = cp
                seqs[idx] = seqs[child]
                pos[ck] = idx
                idx = child
                child = 2 * idx + 1
            else:
                break
        keys[idx] = key
        prios[idx] = prio
        seqs[idx] = seq
        pos[key] = idx

    def _delete_at(self, idx: int) -> None:
        last = len(self._keys) - 1
        key = self._keys[idx]
        if idx != last:
            self._swap(idx, last)
        self._keys.pop()
        self._priorities.pop()
        self._seqs.pop()
        del self._pos[key]
        if idx < len(self._keys):
            # The element swapped into ``idx`` may violate order either way.
            moved = self._keys[idx]
            self._sift_up(idx)
            self._sift_down(self._pos[moved])

    def check_invariants(self) -> None:
        """Assert structural invariants (used by tests, not hot paths)."""
        n = len(self._keys)
        assert len(self._priorities) == n and len(self._seqs) == n
        assert len(self._pos) == n
        for key, idx in self._pos.items():
            assert self._keys[idx] == key, "position map out of sync"
        for i in range(1, n):
            parent = (i - 1) >> 1
            assert not self._less(i, parent), f"heap order violated at {i}"
