"""CoT's two-set heavy-hitter tracker (paper Sections 4.2-4.3).

The paper describes one logical tracker of ``K`` keys whose minimum cached
hotness ``h_min`` splits it into the cached set ``S_c`` (size ``C``) and the
tracked-but-not-cached set ``S_{k-c}`` (size ``K - C``). We materialize the
two sets as two :class:`~repro.core.heap.IndexedMinHeap` instances:

* the **cache heap** holds ``S_c``; its minimum is ``h_min``;
* the **rest heap** holds ``S_{k-c}``; its minimum is the space-saving victim.

Both settle lazily (:mod:`repro.core.heap`): a read writes the key's
hotness and moves nothing, and a heap is only put in order at its root,
when ``h_min`` or a victim is asked for.

This layout realizes two paper invariants *by construction*:

* ``S_c ⊆ S_k`` — a cached key can never be evicted from the tracker,
  because space-saving replacement (Algorithm 1 lines 2-4) always evicts
  from the rest heap;
* the ``h_min`` split — membership in ``S_c`` vs ``S_{k-c}`` is explicit
  rather than recomputed from hotness comparisons.

The tracker stores only metadata (:class:`~repro.core.hotness.KeyStats`,
two counters per key — the paper's 8 bytes/node accounting); values cached
at the front end live in :class:`repro.core.cache.CoTCache`.
"""

from __future__ import annotations

import heapq
import math
from heapq import heapreplace
from typing import Generic, Hashable, Iterator, TypeVar

from repro.core.heap import IndexedMinHeap
from repro.core.hotness import READ_WEIGHT, UPDATE_WEIGHT, AccessType, KeyStats
from repro.errors import ConfigurationError, KeyNotTrackedError

K = TypeVar("K", bound=Hashable)

__all__ = ["CoTTracker"]


class CoTTracker(Generic[K]):
    """Space-saving tracker with an embedded exact top-``C`` cached set.

    Parameters
    ----------
    tracker_capacity:
        ``K`` — total number of tracked keys (cached + not cached).
    cache_capacity:
        ``C`` — number of keys that may be marked cached. Must satisfy
        ``0 <= C < K`` (``C`` may be 0: tracking without caching, used by
        the resizing controller's ratio-discovery phase).
    """

    def __init__(self, tracker_capacity: int, cache_capacity: int) -> None:
        if tracker_capacity < 1:
            raise ConfigurationError("tracker capacity must be >= 1")
        if cache_capacity < 0:
            raise ConfigurationError("cache capacity must be >= 0")
        if cache_capacity >= tracker_capacity:
            raise ConfigurationError(
                f"cache capacity ({cache_capacity}) must be < tracker "
                f"capacity ({tracker_capacity}) so replacement victims exist"
            )
        self._tracker_capacity = tracker_capacity
        self._cache_capacity = cache_capacity
        self._cache_heap: IndexedMinHeap[K] = IndexedMinHeap()
        self._rest_heap: IndexedMinHeap[K] = IndexedMinHeap()
        self._stats: dict[K, KeyStats] = {}

    # ----------------------------------------------------------- properties

    @property
    def tracker_capacity(self) -> int:
        """``K`` — maximum number of tracked keys."""
        return self._tracker_capacity

    @property
    def cache_capacity(self) -> int:
        """``C`` — maximum number of cached keys."""
        return self._cache_capacity

    def __len__(self) -> int:
        return len(self._cache_heap) + len(self._rest_heap)

    def __contains__(self, key: K) -> bool:
        return key in self._stats

    @property
    def cached_count(self) -> int:
        """Current ``|S_c|``."""
        return len(self._cache_heap)

    @property
    def tracked_only_count(self) -> int:
        """Current ``|S_{k-c}|``."""
        return len(self._rest_heap)

    def is_cached(self, key: K) -> bool:
        """True when ``key`` is in ``S_c``."""
        return key in self._cache_heap

    def h_min(self) -> float:
        """Minimum hotness among cached keys (paper's ``h_min``).

        Returns ``-inf`` while the cache has free capacity, so that any
        tracked key qualifies for insertion (Algorithm 2 line 6 always
        admits keys into a non-full cache).
        """
        if len(self._cache_heap) < self._cache_capacity:
            return -math.inf
        if not self._cache_heap:
            return math.inf  # cache capacity is 0: nothing ever qualifies
        return self._cache_heap.min_priority()

    def hotness_of(self, key: K) -> float:
        """Current hotness of a tracked key.

        Returns the incrementally-maintained value, which equals the
        key's heap priority exactly (same sequence of float operations),
        so admission comparisons against ``h_min`` are self-consistent.
        """
        stats = self._stats.get(key)
        if stats is None:
            raise KeyNotTrackedError(key)
        return stats.hot

    def stats_of(self, key: K) -> KeyStats:
        """Raw counters of a tracked key."""
        stats = self._stats.get(key)
        if stats is None:
            raise KeyNotTrackedError(key)
        return stats

    # ------------------------------------------------------------- tracking

    def track(self, key: K, access: AccessType = AccessType.READ) -> float:
        """Algorithm 1 (``track_key``): record one access, return hotness.

        If ``key`` is untracked and the tracker is full, the coldest
        *non-cached* key is evicted and ``key`` inherits its hotness (the
        "benefit of the doubt", line 4). The hotness then moves by the
        access's constant delta (``+r_w`` / ``-u_w``) — no Equation 1
        recompute. A tracked key's owning heap takes the delta (a read
        writes a number and moves nothing); an untracked key enters its
        heap already at ``inherited + delta``, so Algorithm 1 re-heaps
        once per access.
        """
        stats = self._stats.get(key)
        is_read = access is AccessType.READ
        delta = READ_WEIGHT if is_read else -UPDATE_WEIGHT
        if stats is None:
            stats = self._admit(key, delta)
        elif stats.cached:
            stats.hot = self._cache_heap.update_delta(key, delta)
        else:
            stats.hot = self._rest_heap.update_delta(key, delta)
        if is_read:
            stats.read_count += 1.0
        else:
            stats.update_count += 1.0
        return stats.hot

    def _admit(self, key: K, delta: float) -> KeyStats:
        """Insert an untracked key at ``inherited + delta``, in one heap op.

        Evicts the space-saving victim when the tracker is full. The
        caller still owes the access's counter bump; ``hot`` and the heap
        priority already include ``delta``. Entering at the inherited
        hotness and applying the delta afterwards would cost a second
        heap operation — and, for an update, leave a stale root-level
        entry behind on every written untracked key. Fast path: a full
        tracker with a rest-heap victim (every long-tail miss) settles
        the root once with ``IndexedMinHeap.replace`` and
        ``KeyStats.seed_from_hotness`` inlined around it; the helpers stay
        as each step's tested form and for the all-cached corner.
        """
        stats = KeyStats()
        if len(self._stats) >= self._tracker_capacity:
            rest = self._rest_heap
            entries = rest._entries
            if entries:
                root = rest._settle()
                stats.read_count = max(root[3], 0.0) / READ_WEIGHT
                stats.hot = stats.read_count * READ_WEIGHT
                stats.hot = hot = stats.hot + delta
                victim = root[2]
                del entries[victim]
                del self._stats[victim]
                entries[key] = entry = [hot, rest._next_seq, key, hot]
                rest._next_seq += 1
                heapreplace(rest._heap, entry)
                self._stats[key] = stats
                return stats
            # Degenerate corner (all tracked keys are cached, possible
            # transiently while the resizing controller shrinks K before
            # C): sacrifice the coldest cached key.
            victim, victim_hotness = self._cache_heap.pop()
            del self._stats[victim]
            stats.seed_from_hotness(victim_hotness)
        stats.hot += delta
        self._rest_heap.push(key, stats.hot)
        self._stats[key] = stats
        return stats

    # ----------------------------------------------------- cache membership

    def qualifies_for_cache(self, key: K) -> bool:
        """Algorithm 2 line 6: should this tracked key enter the cache?"""
        if self._cache_capacity == 0:
            return False
        stats = self._stats.get(key)
        if stats is None:
            raise KeyNotTrackedError(key)
        if stats.cached:
            return False
        return stats.hot > self.h_min()

    def promote(self, key: K) -> K | None:
        """Move ``key`` from ``S_{k-c}`` into ``S_c``.

        If the cache is full, the coldest cached key is demoted back into
        ``S_{k-c}`` and returned, so the caller can drop its cached value.
        Returns ``None`` when no demotion was necessary.
        """
        stats = self._stats.get(key)
        if stats is None:
            raise KeyNotTrackedError(key)
        if stats.cached:
            return None
        demoted: K | None = None
        if len(self._cache_heap) >= self._cache_capacity:
            if self._cache_capacity == 0:
                raise ConfigurationError("cannot promote with cache capacity 0")
            demoted, demoted_hotness = self._cache_heap.pop()
            self._rest_heap.push(demoted, demoted_hotness)
            self._stats[demoted].cached = False
        hotness = self._rest_heap.remove(key)
        self._cache_heap.push(key, hotness)
        stats.cached = True
        return demoted

    def demote(self, key: K) -> None:
        """Move ``key`` from ``S_c`` back into ``S_{k-c}``."""
        stats = self._stats.get(key)
        if stats is None or not stats.cached:
            raise KeyNotTrackedError(key)
        hotness = self._cache_heap.remove(key)
        self._rest_heap.push(key, hotness)
        stats.cached = False

    def evict(self, key: K) -> None:
        """Forget ``key`` entirely (used on delete/invalidation)."""
        stats = self._stats.get(key)
        if stats is None:
            raise KeyNotTrackedError(key)
        if stats.cached:
            self._cache_heap.remove(key)
        else:
            self._rest_heap.remove(key)
        del self._stats[key]

    # -------------------------------------------------------------- queries

    def cached_keys(self) -> Iterator[K]:
        """Iterate ``S_c`` in arbitrary order."""
        return iter(self._cache_heap)

    def tracked_only_keys(self) -> Iterator[K]:
        """Iterate ``S_{k-c}`` in arbitrary order."""
        return iter(self._rest_heap)

    def tracked_keys(self) -> Iterator[K]:
        """Iterate the whole tracked set ``S_k``."""
        yield from self._cache_heap
        yield from self._rest_heap

    def top(self, n: int) -> list[tuple[K, float]]:
        """The ``n`` hottest tracked keys, descending by hotness.

        ``heapq.nlargest`` keeps this O(n log k) rather than sorting the
        entire tracked set; ties preserve the stats-dict insertion order
        (matching the stable full sort this replaces).
        """
        pairs = heapq.nlargest(
            n,
            ((s.hot, -i, k) for i, (k, s) in enumerate(self._stats.items())),
        )
        return [(k, hot) for hot, _i, k in pairs]

    # ------------------------------------------------------------- resizing

    def resize(self, tracker_capacity: int, cache_capacity: int) -> list[K]:
        """Change ``K`` and ``C``; returns the cached keys that were dropped.

        Shrinking evicts coldest-first: first the rest heap is trimmed to
        the new ``K - |S_c|`` budget, then (if ``C`` shrank below ``|S_c|``)
        the coldest cached keys are evicted outright. Evicted *cached* keys
        are returned so the value store can release them.
        """
        if tracker_capacity < 1:
            raise ConfigurationError("tracker capacity must be >= 1")
        if cache_capacity < 0 or cache_capacity >= tracker_capacity:
            raise ConfigurationError(
                "cache capacity must satisfy 0 <= C < tracker capacity"
            )
        self._tracker_capacity = tracker_capacity
        self._cache_capacity = cache_capacity

        dropped_cached: list[K] = []
        while len(self._cache_heap) > cache_capacity:
            # Demote rather than delete: the key stays tracked (it may well
            # be hotter than rest-heap keys) but its cached value is dropped.
            key, hotness = self._cache_heap.pop()
            self._rest_heap.push(key, hotness)
            self._stats[key].cached = False
            dropped_cached.append(key)
        while len(self) > tracker_capacity:
            if self._rest_heap:
                key, _hotness = self._rest_heap.pop()
                del self._stats[key]
            else:  # pragma: no cover - unreachable: C < K is enforced
                break
        return dropped_cached

    def decay(self, factor: float) -> None:
        """Scale every key's counters and hotness by ``factor``.

        Implements the half-life decay hook of Algorithm 3 line 11 (the
        paper triggers it but leaves the mechanism to cited work; see
        :mod:`repro.core.decay` for the policies built on this primitive).

        A uniform scale preserves heap order only when all hotness values
        share a sign; with the dual-cost model values may be negative, and
        scaling by ``0 < factor <= 1`` still preserves order because it is
        a monotonic map. Each heap rescales its priorities and re-heapifies.
        """
        if not 0 < factor <= 1:
            raise ConfigurationError("decay factor must be in (0, 1]")
        for stats in self._stats.values():
            stats.decay(factor)
        self._cache_heap.scale_priorities(factor)
        self._rest_heap.scale_priorities(factor)

    # ----------------------------------------------------------- validation

    def check_invariants(self) -> None:
        """Assert the structural invariants (test hook)."""
        self._cache_heap.check_invariants()
        self._rest_heap.check_invariants()
        assert len(self._cache_heap) <= self._cache_capacity
        assert len(self) <= self._tracker_capacity
        assert set(self._stats) == set(self._cache_heap) | set(self._rest_heap)
        for key, stats in self._stats.items():
            in_cache = key in self._cache_heap
            in_rest = key in self._rest_heap
            assert in_cache != in_rest, f"key {key!r} in both/neither heap"
            assert stats.cached == in_cache, f"stale cached flag for {key!r}"
        for heap in (self._cache_heap, self._rest_heap):
            for key, priority in heap.items():
                stats = self._stats[key]
                # Heap priority and the incremental hotness are maintained
                # by the same delta stream and must agree exactly ...
                assert priority == stats.hot, f"hot/priority drift for {key!r}"
                # ... and both must match an Equation 1 recompute up to
                # float associativity (delta accumulation vs. counter
                # products can differ by ulps once a decay has scaled
                # them, as a non-power-of-two ExponentialDecay rate does).
                expected = stats.hotness()
                assert math.isclose(priority, expected, rel_tol=1e-9, abs_tol=1e-9)
