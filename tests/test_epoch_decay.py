"""Tests for epoch records and the decay policies."""

from __future__ import annotations

import pytest

from repro.core.cache import CoTCache
from repro.core.decay import HALF_LIFE, ExponentialDecay, HalfLifeDecay, NoDecay
from repro.core.epoch import EpochRecord, EpochSnapshot
from repro.errors import ConfigurationError


def snapshot(**kw) -> EpochSnapshot:
    defaults = dict(
        index=3,
        cache_capacity=8,
        tracker_capacity=32,
        imbalance=1.25,
        alpha_c=4.5,
        alpha_k_c=0.5,
        accesses=5000,
    )
    defaults.update(kw)
    return EpochSnapshot(**defaults)


class TestEpochRecord:
    def test_as_row(self):
        record = EpochRecord(
            snapshot=snapshot(),
            decision="expand",
            phase="size_search",
            alpha_target=4.5,
            new_cache_capacity=16,
            new_tracker_capacity=64,
        )
        row = record.as_row()
        assert row["epoch"] == 3
        assert row["cache"] == 8
        assert row["new_cache"] == 16
        assert row["decision"] == "expand"
        assert record.index == 3

    def test_snapshot_frozen(self):
        snap = snapshot()
        with pytest.raises(AttributeError):
            snap.imbalance = 2.0  # type: ignore[misc]


def hot_cache() -> CoTCache:
    cache = CoTCache(2, tracker_capacity=8)
    for _ in range(8):
        cache.lookup("k")
    return cache


class TestDecayPolicies:
    def test_no_decay(self):
        cache = hot_cache()
        before = cache.hotness_of("k")
        NoDecay().on_trigger(cache)
        NoDecay().on_epoch(cache)
        assert cache.hotness_of("k") == before

    def test_half_life(self):
        cache = hot_cache()
        before = cache.hotness_of("k")
        policy = HalfLifeDecay()
        policy.on_trigger(cache)
        assert cache.hotness_of("k") == pytest.approx(before / 2)
        assert policy.triggers == 1
        policy.on_epoch(cache)  # no continuous component
        assert cache.hotness_of("k") == pytest.approx(before / 2)

    def test_exponential_epoch_aging(self):
        cache = hot_cache()
        before = cache.hotness_of("k")
        policy = ExponentialDecay(rate=0.9)
        policy.on_epoch(cache)
        assert cache.hotness_of("k") == pytest.approx(before * 0.9)

    def test_exponential_trigger(self):
        cache = hot_cache()
        before = cache.hotness_of("k")
        policy = ExponentialDecay(rate=1.0)
        policy.on_epoch(cache)  # rate 1.0: no continuous aging
        assert cache.hotness_of("k") == before
        policy.on_trigger(cache)
        assert cache.hotness_of("k") == before * HALF_LIFE
        assert policy.triggers == 1

    def test_exponential_validation(self):
        with pytest.raises(ConfigurationError):
            ExponentialDecay(rate=0.0)

    def test_decay_preserves_cache_order(self):
        cache = CoTCache(2, tracker_capacity=8)
        for _ in range(5):
            cache.lookup("hot")
        cache.admit("hot", 1)
        cache.lookup("warm")
        cache.admit("warm", 2)
        HalfLifeDecay().on_trigger(cache)
        cache.check_invariants()
        assert cache.hotness_of("hot") > cache.hotness_of("warm")
