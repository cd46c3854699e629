"""Tests for the cache-order ablation policy and eviction listeners."""

from __future__ import annotations

import random

import pytest

from repro.core.cache import CoTCache
from repro.errors import ConfigurationError
from repro.policies.arc import ARCCache
from repro.policies.base import MISSING
from repro.policies.lfu import LFUCache
from repro.policies.lru import LRUCache
from repro.policies.lruk import LRUKCache
from repro.policies.tracked_lru import TrackedLRUCache


def access(policy, key):
    if policy.lookup(key) is MISSING:
        policy.admit(key, key)


class TestTrackedLRU:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrackedLRUCache(8, tracker_capacity=8)

    def test_admission_filter_matches_cot(self):
        """The filter is identical: a once-seen cold key cannot enter a
        full cache whose occupants are hotter."""
        policy = TrackedLRUCache(1, tracker_capacity=8)
        for _ in range(5):
            access(policy, "hot")
        access(policy, "cold")
        assert "hot" in policy and "cold" not in policy

    def test_eviction_is_lru_not_hotness(self):
        """Contrast with CoT: when an admitted key forces an eviction,
        the *least recently used* cached key goes — even if it is hotter
        than the other occupant."""
        policy = TrackedLRUCache(2, tracker_capacity=16)
        for _ in range(10):
            access(policy, "hot-but-stale")
        access(policy, "recent-a")
        # warm a contender above h_min so it qualifies
        for _ in range(12):
            policy.lookup("contender")
        policy.admit("contender", "v")
        assert "contender" in policy
        assert "hot-but-stale" not in policy  # LRU victim despite hotness
        # CoT at the same state would have evicted the *coldest* key.
        cot = CoTCache(2, tracker_capacity=16)
        for _ in range(10):
            access(cot, "hot-but-stale")
        access(cot, "recent-a")
        for _ in range(12):
            cot.lookup("contender")
        cot.admit("contender", "v")
        assert "hot-but-stale" in cot
        assert "recent-a" not in cot

    def test_capacity_and_consistency_under_stream(self):
        policy = TrackedLRUCache(4, tracker_capacity=32)
        rng = random.Random(3)
        for _ in range(2000):
            key = rng.randrange(50)
            access(policy, key)
            if rng.random() < 0.05:
                policy.record_update(key)
        assert len(policy) <= 4
        # Tracker's cached set mirrors the value store.
        cached = set(policy.cached_keys())
        tracker_cached = set(policy._tracker.cached_keys())
        assert cached == tracker_cached

    def test_resize(self):
        policy = TrackedLRUCache(4, tracker_capacity=16)
        for key in "abcd":
            access(policy, key)
        policy.resize(2)
        assert len(policy) == 2


class TestEvictionListeners:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LRUCache(2),
            lambda: LFUCache(2),
            lambda: ARCCache(2),
            lambda: LRUKCache(2, k=2, history_capacity=8),
            lambda: CoTCache(2, tracker_capacity=16),
            lambda: TrackedLRUCache(2, tracker_capacity=16),
        ],
        ids=["lru", "lfu", "arc", "lru2", "cot", "tracked_lru"],
    )
    def test_listener_sees_every_capacity_eviction(self, factory):
        policy = factory()
        evicted: list[object] = []
        policy.eviction_listeners.append(evicted.append)
        rng = random.Random(11)
        for _ in range(600):
            key = rng.randrange(30)
            # Warm keys so admission filters (CoT/tracked) let keys in.
            policy.lookup(key)
            policy.lookup(key)
            policy.admit(key, key)
        assert len(evicted) == policy.stats.evictions
        assert len(policy) <= 2

    def test_listener_sees_resize_evictions(self):
        policy = LRUCache(4)
        evicted: list[object] = []
        policy.eviction_listeners.append(evicted.append)
        for key in "abcd":
            access(policy, key)
        policy.resize(1)
        assert sorted(evicted) == ["a", "b", "c"]

    def test_invalidation_not_reported(self):
        """Caller-initiated invalidations are not 'evictions'."""
        policy = LRUCache(2)
        evicted: list[object] = []
        policy.eviction_listeners.append(evicted.append)
        access(policy, "a")
        policy.invalidate("a")
        assert evicted == []
