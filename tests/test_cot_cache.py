"""Tests for CoT's replacement policy (Algorithm 2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CoTCache
from repro.errors import ConfigurationError
from repro.policies.base import MISSING


class TestConstruction:
    def test_default_tracker_is_double(self):
        cache = CoTCache(8)
        assert cache.tracker_capacity == 16

    def test_tracker_must_exceed_cache(self):
        with pytest.raises(ConfigurationError):
            CoTCache(8, tracker_capacity=8)

    def test_zero_capacity(self):
        cache = CoTCache(0, tracker_capacity=2)
        assert cache.lookup("a") is MISSING
        cache.admit("a", 1)
        assert len(cache) == 0


class TestAlgorithm2:
    def test_miss_then_admit_into_free_cache(self):
        cache = CoTCache(2, tracker_capacity=8)
        assert cache.lookup("a") is MISSING
        cache.admit("a", "va")
        assert cache.lookup("a") == "va"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_cold_key_cannot_displace_hot_key(self):
        cache = CoTCache(1, tracker_capacity=8)
        for _ in range(5):
            cache.lookup("hot")
        cache.admit("hot", "vh")
        # One access to a cold key: hotness 1 < hot's 5+ -> declined.
        assert cache.lookup("cold") is MISSING
        cache.admit("cold", "vc")
        assert "cold" not in cache
        assert "hot" in cache

    def test_warming_key_eventually_displaces(self):
        cache = CoTCache(1, tracker_capacity=8)
        cache.lookup("old")
        cache.lookup("old")
        cache.admit("old", "vo")
        # "new" needs hotness strictly above old's to enter.
        for _ in range(4):
            cache.lookup("new")
        cache.admit("new", "vn")
        assert "new" in cache
        assert "old" not in cache
        assert cache.stats.evictions == 1

    def test_hits_update_hotness_and_order(self):
        cache = CoTCache(2, tracker_capacity=8)
        for key in ("a", "b"):
            cache.lookup(key)
            cache.admit(key, key)
        for _ in range(3):
            cache.lookup("b")
        assert cache.h_min() == cache.hotness_of("a")

    def test_tracker_hits_counted(self):
        cache = CoTCache(1, tracker_capacity=8)
        cache.lookup("a")
        cache.admit("a", 1)
        cache.lookup("b")         # b now tracked, not cached
        assert cache.epoch_tracker_hits == 0
        cache.lookup("b")         # second access: tracked-not-cached hit
        assert cache.epoch_tracker_hits == 1

    def test_record_update_penalizes_and_invalidates(self):
        cache = CoTCache(2, tracker_capacity=8)
        cache.lookup("a")
        cache.lookup("a")
        cache.admit("a", 1)
        hot_before = cache.hotness_of("a")
        cache.record_update("a")
        assert "a" not in cache
        assert cache.hotness_of("a") == hot_before - 1.0
        assert cache.stats.invalidations == 1

    def test_frequently_updated_key_stays_out(self):
        cache = CoTCache(1, tracker_capacity=8)
        for _ in range(4):
            cache.lookup("readonly")
        cache.admit("readonly", 1)
        # "churny" gets reads but also heavy updates -> net hotness low.
        for _ in range(5):
            cache.lookup("churny")
            cache.record_update("churny")
        cache.lookup("churny")
        cache.admit("churny", 2)
        assert "churny" not in cache
        assert "readonly" in cache

    def test_invalidate_keeps_tracking(self):
        cache = CoTCache(2, tracker_capacity=8)
        cache.lookup("a")
        cache.admit("a", 1)
        cache.invalidate("a")
        assert "a" not in cache
        assert cache.hotness_of("a") == 1.0  # still tracked

    def test_admit_refreshes_value(self):
        cache = CoTCache(2, tracker_capacity=8)
        cache.lookup("a")
        cache.admit("a", "v1")
        cache.admit("a", "v2")
        assert cache.lookup("a") == "v2"


class TestResizing:
    def test_set_sizes_shrink_drops_values(self):
        cache = CoTCache(4, tracker_capacity=16)
        for key in "abcd":
            cache.lookup(key)
            cache.admit(key, key)
        cache.set_sizes(1, 4)
        assert len(cache) <= 1
        assert cache.capacity == 1
        assert cache.tracker_capacity == 4
        cache.check_invariants()

    def test_set_sizes_validation(self):
        cache = CoTCache(4)
        with pytest.raises(ConfigurationError):
            cache.set_sizes(4, 4)

    def test_policy_resize_hook(self):
        cache = CoTCache(4, tracker_capacity=16)
        cache.resize(8)
        assert cache.capacity == 8
        assert cache.tracker_capacity == 16

    def test_alpha_metrics(self):
        cache = CoTCache(2, tracker_capacity=6)
        cache.lookup("a")
        cache.admit("a", 1)
        cache.lookup("a")
        cache.lookup("a")
        assert cache.alpha_c() == pytest.approx(1.0)  # 2 hits / 2 lines
        cache.lookup("b")
        cache.lookup("b")
        assert cache.alpha_k_c() == pytest.approx(0.25)  # 1 hit / 4 lines
        cache.reset_epoch()
        assert cache.alpha_c() == 0.0
        assert cache.epoch_tracker_hits == 0

    def test_decay(self):
        cache = CoTCache(2, tracker_capacity=8)
        for _ in range(4):
            cache.lookup("a")
        cache.decay(0.5)
        assert cache.hotness_of("a") == pytest.approx(2.0)


class TestHitRateSanity:
    def test_beats_lru_on_skewed_stream(self):
        from repro.policies.lru import LRUCache

        rng = random.Random(7)
        population = list(range(200))
        weights = [1.0 / (i + 1) for i in population]
        cot = CoTCache(8, tracker_capacity=64)
        lru = LRUCache(8)
        for _ in range(20_000):
            key = rng.choices(population, weights)[0]
            for policy in (cot, lru):
                if policy.lookup(key) is MISSING:
                    policy.admit(key, key)
        assert cot.stats.hit_rate > lru.stats.hit_rate

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariants_under_random_mixed_stream(self, seed):
        rng = random.Random(seed)
        cache = CoTCache(4, tracker_capacity=12)
        for _ in range(500):
            key = rng.randrange(30)
            action = rng.random()
            if action < 0.75:
                if cache.lookup(key) is MISSING:
                    cache.admit(key, key)
            elif action < 0.9:
                cache.record_update(key) if key in cache.tracker else None
            else:
                cache.invalidate(key)
        cache.check_invariants()
        assert len(cache) <= 4
