"""Interface-contract tests run against every policy uniformly.

The experiment harnesses treat all policies through the same
:class:`~repro.policies.base.CachePolicy` surface; these tests pin down
the shared behaviour so a policy bug cannot silently skew a comparison.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CoTCache
from repro.errors import ConfigurationError
from repro.policies.arc import ARCCache
from repro.policies.base import MISSING
from repro.policies.lfu import LFUCache
from repro.policies.lru import LRUCache
from repro.policies.lruk import LRUKCache
from repro.policies.registry import POLICY_NAMES, make_policy

CAPACITY = 8


def make_all():
    return [
        LRUCache(CAPACITY),
        LFUCache(CAPACITY),
        ARCCache(CAPACITY),
        LRUKCache(CAPACITY, k=2, history_capacity=32),
        CoTCache(CAPACITY, tracker_capacity=32),
    ]


@pytest.fixture(params=["lru", "lfu", "arc", "lru2", "cot"])
def policy(request):
    return make_policy(request.param, CAPACITY, tracker_capacity=32)


class TestContract:
    def test_empty_lookup_misses(self, policy):
        assert policy.lookup("nothing") is MISSING
        assert policy.stats.misses == 1

    def test_lookup_after_admit_hits(self, policy):
        policy.lookup("k")
        policy.admit("k", "v")
        assert policy.lookup("k") == "v"
        assert policy.stats.hits == 1

    def test_capacity_never_exceeded(self, policy):
        rng = random.Random(5)
        for _ in range(500):
            key = rng.randrange(50)
            if policy.lookup(key) is MISSING:
                policy.admit(key, key)
            assert len(policy) <= CAPACITY

    def test_contains_has_no_stats_side_effect(self, policy):
        policy.lookup("k")
        policy.admit("k", "v")
        before = (policy.stats.hits, policy.stats.misses)
        assert "k" in policy
        assert "ghost" not in policy
        assert (policy.stats.hits, policy.stats.misses) == before

    def test_cached_keys_matches_contains(self, policy):
        rng = random.Random(6)
        for _ in range(100):
            key = rng.randrange(20)
            if policy.lookup(key) is MISSING:
                policy.admit(key, key)
        for key in policy.cached_keys():
            assert key in policy

    def test_invalidate_removes(self, policy):
        policy.lookup("k")
        policy.admit("k", "v")
        if "k" in policy:  # CoT may have declined nothing here; all admit
            policy.invalidate("k")
        assert "k" not in policy

    def test_record_update_removes_cached_copy(self, policy):
        policy.lookup("k")
        policy.admit("k", "v")
        policy.record_update("k")
        assert "k" not in policy

    def test_resize_to_zero_then_back(self, policy):
        for key in "abcd":
            policy.lookup(key)
            policy.admit(key, key)
        policy.resize(0)
        assert len(policy) == 0
        policy.resize(4)
        policy.lookup("x")
        policy.admit("x", 1)

    def test_resize_negative_raises(self, policy):
        with pytest.raises(ConfigurationError):
            policy.resize(-1)

    def test_hit_rate_bounds(self, policy):
        rng = random.Random(8)
        for _ in range(300):
            key = rng.randrange(10)
            if policy.lookup(key) is MISSING:
                policy.admit(key, key)
        assert 0.0 <= policy.stats.hit_rate <= 1.0
        assert policy.stats.accesses == 300

    @pytest.mark.parametrize("name", POLICY_NAMES)
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_ops_never_crash(self, name, seed):
        policy = make_policy(name, CAPACITY, tracker_capacity=32)
        rng = random.Random(seed)
        for _ in range(300):
            key = rng.randrange(25)
            roll = rng.random()
            if roll < 0.7:
                if policy.lookup(key) is MISSING:
                    policy.admit(key, key)
            elif roll < 0.85:
                policy.record_update(key)
            elif roll < 0.95:
                policy.invalidate(key)
            else:
                policy.resize(rng.choice([2, 4, 8, 16]))
            assert len(policy) <= policy.capacity


class TestRegistry:
    def test_policy_names_constant(self):
        assert POLICY_NAMES == ("lru", "lfu", "arc", "lru2", "cot")

    def test_make_all_names(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, 4, tracker_capacity=16)
            assert policy.capacity == 4

    def test_lru2_history_defaults_to_tracker(self):
        policy = make_policy("lru2", 4, tracker_capacity=64)
        assert policy.history_capacity == 64

    def test_aliases(self):
        assert make_policy("LRU-2", 4).k == 2
        assert make_policy("none", 0).capacity == 0
        assert make_policy("TPC", 2, hot_keys=[1, 2]).hot_set == frozenset({1, 2})

    def test_perfect_requires_hot_keys(self):
        with pytest.raises(ConfigurationError):
            make_policy("perfect", 2)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_policy("mystery", 2)
