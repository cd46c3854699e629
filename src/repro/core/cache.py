"""CoT's cache replacement policy (paper Algorithm 2).

:class:`CoTCache` combines the two-set tracker of
:mod:`repro.core.tracker` with a value store for the cached keys, behind
the same :class:`~repro.policies.base.CachePolicy` interface every baseline
implements. Per access:

1. ``track_key`` (Algorithm 1) updates the key's hotness in the tracker;
2. a cached key is served locally (its cache-heap position is adjusted
   implicitly, because both heaps are ordered by the same hotness);
3. a missed key fetched from the back end is *admitted only if its hotness
   exceeds* ``h_min``, the minimum hotness among cached keys — this is the
   filter that keeps cold and noisy long-tail keys out of the small cache.

The cache also exposes the per-epoch signals Algorithm 3 consumes:
``epoch_cache_hits`` (hits on ``S_c``) and ``epoch_tracker_hits`` (hits on
``S_{k-c}``), from which the controller derives ``alpha_c`` and
``alpha_{k-c}``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.core.hotness import READ_WEIGHT, AccessType
from repro.core.tracker import CoTTracker
from repro.errors import ConfigurationError
from repro.policies.base import MISSING, CachePolicy

__all__ = ["CoTCache"]

#: Default tracker:cache ratio when none is given. The paper maintains
#: ``K >= 2C`` as the floor and discovers the workload's ideal ratio
#: (16:1 for Zipf 0.9, 8:1 for 0.99, 4:1 for 1.2) at run time.
DEFAULT_TRACKER_RATIO = 2


def _key_as_value(key: Hashable) -> Hashable:
    """The hit-rate harnesses' loader: the key is its own payload."""
    return key


class CoTCache(CachePolicy):
    """Cache-on-Track replacement policy (Algorithms 1 + 2).

    Parameters
    ----------
    capacity:
        ``C`` — number of cache-lines.
    tracker_capacity:
        ``K`` — number of tracked keys. Defaults to
        ``max(2, DEFAULT_TRACKER_RATIO * capacity)``. Must exceed
        ``capacity`` so space-saving victims exist.
    """

    name = "cot"

    def __init__(self, capacity: int, tracker_capacity: int | None = None) -> None:
        super().__init__(capacity)
        if tracker_capacity is None:
            tracker_capacity = max(2, DEFAULT_TRACKER_RATIO * capacity)
        if tracker_capacity <= capacity:
            raise ConfigurationError(
                f"tracker capacity ({tracker_capacity}) must exceed cache "
                f"capacity ({capacity})"
            )
        self._tracker: CoTTracker[Hashable] = CoTTracker(tracker_capacity, capacity)
        self._values: dict[Hashable, Any] = {}
        self.epoch_tracker_hits = 0

    # ----------------------------------------------------------- inspection

    @property
    def tracker(self) -> CoTTracker[Hashable]:
        """The underlying two-set tracker (read-mostly; tests and tuning)."""
        return self._tracker

    @property
    def tracker_capacity(self) -> int:
        """``K`` — current tracker capacity."""
        return self._tracker.tracker_capacity

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    def cached_keys(self) -> Iterator[Hashable]:
        # No snapshot copy: read-only consumers dominate and the value
        # dict raises on concurrent mutation anyway; callers that drop
        # keys mid-iteration take an explicit list(...) themselves.
        return iter(self._values)

    def cached_items(self) -> Iterator[tuple[Hashable, Any]]:
        return iter(list(self._values.items()))

    def warm_seed(self, items: Iterable[tuple[Hashable, Any]]) -> None:
        """Seed from a retiring policy's cached set (warm handoff).

        A plain ``_admit`` would reject every key: nothing is tracked yet,
        so no key qualifies. Track each key once (a read) first, then
        offer it — the seeded keys all carry hotness 1 and fill the cache
        in iteration order until capacity, after which ``h_min`` gating
        applies as usual.
        """
        if self._capacity == 0:
            return
        for key, value in items:
            self._tracker.track(key, AccessType.READ)
            self._admit(key, value)

    def h_min(self) -> float:
        """Minimum hotness among cached keys (admission threshold)."""
        return self._tracker.h_min()

    def hotness_of(self, key: Hashable) -> float:
        """Hotness of a tracked key (raises if untracked)."""
        return self._tracker.hotness_of(key)

    # ------------------------------------------------------------ policy ops

    def _lookup(self, key: Hashable) -> Any:
        if key in self._tracker and not self._tracker.is_cached(key):
            self.epoch_tracker_hits += 1
        self._tracker.track(key, AccessType.READ)
        if key in self._values:
            return self._values[key]
        return MISSING

    def _admit(self, key: Hashable, value: Any) -> None:
        if key in self._values:
            self._values[key] = value
            return
        # ``track`` ran during the lookup — but in batched paths
        # (get_many) later keys of the same batch may have evicted this
        # one from the tracker again; an untracked key is by definition
        # too cold to cache.
        if key not in self._tracker:
            return
        if not self._tracker.qualifies_for_cache(key):
            return
        demoted = self._tracker.promote(key)
        if demoted is not None:
            self._values.pop(demoted, None)
            self.stats.record_eviction()
            self._notify_evicted(demoted)
        self._values[key] = value
        self.stats.record_insertion()

    def get_or_admit(self, key: Hashable, loader: Callable[[Hashable], Any]) -> Any:
        """Fused Algorithm 1 + 2 access: track → hit-check → qualify → promote.

        Behaviourally identical to ``lookup`` followed by ``admit`` on a
        miss (same hit/miss/eviction/promotion decisions, same statistics),
        but the key is resolved exactly once against the tracker's stats
        dict and once against the owning heap's entry index, instead of
        the 4-6 redundant probes the split path pays. A tracked key's read
        moves a number and no heap; an untracked key enters the rest heap
        already at ``inherited + r_w`` (one C ``heapreplace``). ``loader``
        runs only on a miss and must not re-enter this policy.
        """
        tracker = self._tracker
        stats = tracker._stats.get(key)
        cstat = self.stats
        if stats is not None:
            stats.read_count += 1.0
            # ``update_delta`` inlined, as the heap's raise: ``+r_w`` is
            # positive and an entry's snapshot is a lower bound
            # of its priority, so a read never takes its ``_lower`` branch.
            if stats.cached:
                entry = tracker._cache_heap._entries[key]
                stats.hot = entry[3] = entry[3] + READ_WEIGHT
                cstat.hits += 1
                cstat.epoch_hits += 1
                return self._values[key]
            self.epoch_tracker_hits += 1
            entry = tracker._rest_heap._entries[key]
            stats.hot = hot = entry[3] = entry[3] + READ_WEIGHT
        else:
            stats = tracker._admit(key, READ_WEIGHT)
            stats.read_count += 1.0
            hot = stats.hot
        cstat.misses += 1
        cstat.epoch_misses += 1
        value = loader(key)
        # Admission filter (Algorithm 2 line 6): a non-full cache admits
        # anything tracked (h_min == -inf); a full one requires h > h_min.
        # Size and settled root are read off the heap's fields: ``len()``
        # and ``min_priority()`` are a frame each, on every miss.
        cache_heap = tracker._cache_heap
        capacity = tracker._cache_capacity
        if capacity == 0:
            return value
        if len(cache_heap._entries) < capacity or hot > cache_heap._settle()[3]:
            demoted = tracker.promote(key)
            if demoted is not None:
                self._values.pop(demoted, None)
                cstat.evictions += 1
                self._notify_evicted(demoted)
            self._values[key] = value
            cstat.insertions += 1
        return value

    def run_stream(self, keys: Iterable[Hashable]) -> None:
        """Batched read-only stream: ``get_or_admit`` per key, key as value.

        No hand-inlined twin: a loop-inlined copy of the fused access
        read 1.02x min / 1.05x median against this loop
        (``benchmarks/run_stream_twins.py``; 1.05-1.08x on the perf
        gate's hotter 10k-key stream), under ROADMAP item 3b's 1.10x bar.
        """
        get_or_admit = self.get_or_admit
        for key in keys:
            get_or_admit(key, _key_as_value)

    def record_update(self, key: Hashable) -> None:
        """Update access: penalize hotness (Equation 1) and invalidate."""
        self._tracker.track(key, AccessType.UPDATE)
        self.invalidate(key)

    def _invalidate(self, key: Hashable) -> bool:
        """Drop the cached value; the key stays tracked with its history."""
        if key not in self._values:
            return False
        del self._values[key]
        if self._tracker.is_cached(key):
            self._tracker.demote(key)
        return True

    def _resize(self, capacity: int) -> None:
        tracker_capacity = max(self._tracker.tracker_capacity, capacity + 1)
        self.set_sizes(capacity, tracker_capacity)

    # --------------------------------------------------------- CoT-specific

    def set_sizes(self, cache_capacity: int, tracker_capacity: int) -> None:
        """Resize cache and tracker together (the controller's primitive)."""
        if tracker_capacity <= cache_capacity:
            raise ConfigurationError("tracker capacity must exceed cache capacity")
        dropped = self._tracker.resize(tracker_capacity, cache_capacity)
        for key in dropped:
            if self._values.pop(key, MISSING) is not MISSING:
                self.stats.record_eviction()
                self._notify_evicted(key)
        self._capacity = cache_capacity

    def decay(self, factor: float) -> None:
        """Scale all tracked hotness by ``factor`` (:mod:`repro.core.decay`)."""
        self._tracker.decay(factor)

    def reset_epoch(self) -> None:
        """Zero the per-epoch hit counters (cache + tracker)."""
        self.stats.reset_epoch()
        self.epoch_tracker_hits = 0

    def alpha_c(self) -> float:
        """Average hits per cache-line this epoch (``alpha_c``)."""
        if self._capacity == 0:
            return 0.0
        return self.stats.epoch_hits / self._capacity

    def alpha_k_c(self) -> float:
        """Average hits per tracked-not-cached line this epoch."""
        span = self._tracker.tracker_capacity - self._capacity
        if span <= 0:
            return 0.0
        return self.epoch_tracker_hits / span

    def check_invariants(self) -> None:
        """Assert cache/tracker consistency (test hook)."""
        self._tracker.check_invariants()
        assert set(self._values) == set(self._tracker.cached_keys())
        assert len(self._values) <= self._capacity
