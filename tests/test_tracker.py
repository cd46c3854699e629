"""Tests for CoT's two-set tracker (Algorithm 1 + the h_min split)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotness import UPDATE_WEIGHT, AccessType
from repro.core.tracker import CoTTracker
from repro.errors import ConfigurationError, KeyNotTrackedError


def make_tracker(k=8, c=2, **kw) -> CoTTracker[str]:
    return CoTTracker(k, c, **kw)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoTTracker(0, 0)
        with pytest.raises(ConfigurationError):
            CoTTracker(4, -1)
        with pytest.raises(ConfigurationError):
            CoTTracker(4, 4)  # cache must be < tracker
        with pytest.raises(ConfigurationError):
            CoTTracker(4, 5)

    def test_zero_cache_capacity_allowed(self):
        tracker = CoTTracker(4, 0)
        tracker.track("a")
        assert not tracker.qualifies_for_cache("a")
        assert tracker.h_min() == math.inf


class TestTracking:
    def test_track_returns_hotness(self):
        tracker = make_tracker()
        assert tracker.track("a") == 1.0
        assert tracker.track("a") == 2.0

    def test_update_access_decreases_hotness(self):
        tracker = make_tracker()
        tracker.track("a")
        tracker.track("a")
        assert tracker.track("a", AccessType.UPDATE) == 1.0

    def test_eviction_picks_coldest_non_cached(self):
        tracker = make_tracker(k=3, c=1)
        tracker.track("hot")
        tracker.track("hot")
        tracker.track("hot")
        tracker.promote("hot")
        tracker.track("warm")
        tracker.track("warm")
        tracker.track("cold")
        # Tracker is full; new key must evict "cold" (coldest non-cached).
        tracker.track("new")
        assert "cold" not in tracker
        assert "hot" in tracker and "warm" in tracker and "new" in tracker

    def test_benefit_of_the_doubt(self):
        tracker = make_tracker(k=2, c=0)
        tracker.track("a")
        tracker.track("a")          # hotness 2
        tracker.track("b")          # hotness 1
        tracker.track("c")          # evicts b (hotness 1), inherits 1, +1
        assert tracker.hotness_of("c") == pytest.approx(2.0)

    @pytest.mark.parametrize("full", [False, True])
    def test_first_access_update_enters_at_inherited_minus_u_w(self, full):
        """An untracked key first seen by an UPDATE enters its heap already
        at ``inherited - u_w``: one heap operation, below the old root.
        ``inherited - u_w`` is neither ``inherited`` nor 0 in both cases."""
        tracker = CoTTracker(3, 1)
        inherited = 0.0
        if full:
            for key, reads in (("a", 4), ("b", 3), ("c", 2)):
                for _ in range(reads):
                    tracker.track(key)
            inherited = 2.0  # "c", two reads, is the victim
        assert tracker.track("w", AccessType.UPDATE) == inherited - UPDATE_WEIGHT
        assert tracker.hotness_of("w") == inherited - UPDATE_WEIGHT
        assert "c" not in tracker
        tracker.check_invariants()
        # ... and is the next space-saving victim: nothing is colder.
        assert tracker.tracked_only_count == (3 if full else 1)
        while len(tracker) < 3:
            tracker.track(f"filler-{len(tracker)}")
        tracker.track("next")
        assert "w" not in tracker
        tracker.check_invariants()

    def test_hotness_of_untracked_raises(self):
        with pytest.raises(KeyNotTrackedError):
            make_tracker().hotness_of("ghost")

    def test_stats_of(self):
        tracker = make_tracker()
        tracker.track("a")
        tracker.track("a", AccessType.UPDATE)
        stats = tracker.stats_of("a")
        assert stats.read_count == 1.0
        assert stats.update_count == 1.0


class TestHminSplit:
    def test_h_min_with_free_capacity_is_minus_inf(self):
        tracker = make_tracker(k=8, c=2)
        tracker.track("a")
        assert tracker.h_min() == -math.inf

    def test_h_min_is_cache_minimum(self):
        tracker = make_tracker(k=8, c=2)
        for _ in range(3):
            tracker.track("a")
        for _ in range(2):
            tracker.track("b")
        tracker.promote("a")
        tracker.promote("b")
        assert tracker.h_min() == 2.0

    def test_qualifies_requires_strictly_hotter(self):
        tracker = make_tracker(k=8, c=1)
        tracker.track("a")
        tracker.track("a")
        tracker.promote("a")
        tracker.track("b")
        tracker.track("b")  # equal hotness: does not qualify
        assert not tracker.qualifies_for_cache("b")
        tracker.track("b")
        assert tracker.qualifies_for_cache("b")

    def test_cached_key_never_qualifies(self):
        tracker = make_tracker()
        tracker.track("a")
        tracker.promote("a")
        assert not tracker.qualifies_for_cache("a")


class TestPromoteDemote:
    def test_promote_moves_between_sets(self):
        tracker = make_tracker()
        tracker.track("a")
        assert not tracker.is_cached("a")
        assert tracker.promote("a") is None
        assert tracker.is_cached("a")
        assert tracker.cached_count == 1
        assert tracker.tracked_only_count == 0

    def test_promote_full_cache_demotes_coldest(self):
        tracker = make_tracker(k=8, c=1)
        tracker.track("a")
        tracker.promote("a")
        tracker.track("b")
        tracker.track("b")
        demoted = tracker.promote("b")
        assert demoted == "a"
        assert tracker.is_cached("b")
        assert not tracker.is_cached("a")
        assert "a" in tracker  # still tracked

    def test_promote_untracked_raises(self):
        with pytest.raises(KeyNotTrackedError):
            make_tracker().promote("ghost")

    def test_promote_with_zero_capacity_raises(self):
        tracker = CoTTracker(4, 0)
        tracker.track("a")
        with pytest.raises(ConfigurationError):
            tracker.promote("a")

    def test_demote(self):
        tracker = make_tracker()
        tracker.track("a")
        tracker.promote("a")
        tracker.demote("a")
        assert not tracker.is_cached("a")
        assert "a" in tracker

    def test_demote_uncached_raises(self):
        tracker = make_tracker()
        tracker.track("a")
        with pytest.raises(KeyNotTrackedError):
            tracker.demote("a")

    def test_evict_removes_entirely(self):
        tracker = make_tracker()
        tracker.track("a")
        tracker.promote("a")
        tracker.evict("a")
        assert "a" not in tracker
        with pytest.raises(KeyNotTrackedError):
            tracker.evict("a")


class TestResizeAndDecay:
    def test_resize_validation(self):
        tracker = make_tracker()
        with pytest.raises(ConfigurationError):
            tracker.resize(0, 0)
        with pytest.raises(ConfigurationError):
            tracker.resize(4, 4)

    def test_shrink_demotes_cached_and_returns_them(self):
        tracker = make_tracker(k=8, c=4)
        for key in "abcd":
            tracker.track(key)
            tracker.promote(key)
        dropped = tracker.resize(4, 1)
        assert len(dropped) == 3
        assert tracker.cached_count == 1
        assert len(tracker) <= 4

    def test_shrink_keeps_hottest_cached(self):
        tracker = make_tracker(k=8, c=2)
        for _ in range(5):
            tracker.track("hot")
        tracker.track("cold")
        tracker.promote("hot")
        tracker.promote("cold")
        tracker.resize(4, 1)
        assert tracker.is_cached("hot")
        assert not tracker.is_cached("cold")

    def test_grow_is_lossless(self):
        tracker = make_tracker(k=4, c=1)
        for key in "abc":
            tracker.track(key)
        before = set(tracker.tracked_keys())
        tracker.resize(16, 4)
        assert set(tracker.tracked_keys()) == before

    def test_decay_halves_everything(self):
        tracker = make_tracker()
        for _ in range(4):
            tracker.track("a")
        tracker.promote("a")
        tracker.decay(0.5)
        assert tracker.hotness_of("a") == pytest.approx(2.0)
        tracker.check_invariants()

    def test_decay_validation(self):
        with pytest.raises(ConfigurationError):
            make_tracker().decay(0.0)
        with pytest.raises(ConfigurationError):
            make_tracker().decay(1.5)

    def test_top(self):
        tracker = make_tracker()
        for count, key in [(3, "a"), (1, "b"), (2, "c")]:
            for _ in range(count):
                tracker.track(key)
        assert [k for k, _ in tracker.top(2)] == ["a", "c"]


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 24), st.integers(1, 8))
    def test_random_stream_keeps_invariants(self, seed, k, c_raw):
        c = min(c_raw, k - 1)
        rng = random.Random(seed)
        tracker: CoTTracker[int] = CoTTracker(k, c)
        for _ in range(400):
            key = rng.randrange(40)
            access = AccessType.UPDATE if rng.random() < 0.1 else AccessType.READ
            tracker.track(key, access)
            if (
                c > 0
                and key in tracker
                and not tracker.is_cached(key)
                and tracker.qualifies_for_cache(key)
            ):
                tracker.promote(key)
            tracker.check_invariants()
        assert len(tracker) <= k
        assert tracker.cached_count <= c

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_skewed_stream_caches_hot_keys(self, seed):
        """After a skewed stream, the cached set must be the true head."""
        rng = random.Random(seed)
        tracker: CoTTracker[int] = CoTTracker(32, 4)
        # Key i gets weight proportional to 2^-i over 16 keys.
        population = list(range(16))
        weights = [2.0 ** (-i) for i in population]
        for _ in range(2000):
            key = rng.choices(population, weights)[0]
            tracker.track(key)
            if not tracker.is_cached(key) and tracker.qualifies_for_cache(key):
                tracker.promote(key)
        cached = set(tracker.cached_keys())
        # The two hottest keys are unambiguous; they must be cached.
        assert {0, 1} <= cached
