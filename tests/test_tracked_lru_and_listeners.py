"""Tests for the policies' eviction listeners."""

from __future__ import annotations

import random

import pytest

from repro.core.cache import CoTCache
from repro.policies.arc import ARCCache
from repro.policies.base import MISSING
from repro.policies.lfu import LFUCache
from repro.policies.lru import LRUCache
from repro.policies.lruk import LRUKCache


def access(policy, key):
    if policy.lookup(key) is MISSING:
        policy.admit(key, key)


class TestEvictionListeners:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LRUCache(2),
            lambda: LFUCache(2),
            lambda: ARCCache(2),
            lambda: LRUKCache(2, k=2, history_capacity=8),
            lambda: CoTCache(2, tracker_capacity=16),
        ],
        ids=["lru", "lfu", "arc", "lru2", "cot"],
    )
    def test_listener_sees_every_capacity_eviction(self, factory):
        policy = factory()
        evicted: list[object] = []
        policy.eviction_listeners.append(evicted.append)
        rng = random.Random(11)
        for _ in range(600):
            key = rng.randrange(30)
            # Warm keys so CoT's admission filter lets keys in.
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
