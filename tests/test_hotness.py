"""Tests for the dual-cost hotness model (Equation 1)."""

from __future__ import annotations

from repro.core.cache import CoTCache
from repro.core.decay import HALF_LIFE
from repro.core.hotness import READ_WEIGHT, UPDATE_WEIGHT, AccessType, KeyStats
from repro.core.tracker import CoTTracker


class TestHotnessModel:
    def test_defaults(self):
        """Every experiment weighs reads and updates at 1, and a Case-2
        trigger halves (Algorithm 3 line 11)."""
        assert READ_WEIGHT == 1.0
        assert UPDATE_WEIGHT == 1.0
        assert HALF_LIFE == 0.5

    def test_equation_1(self):
        stats = KeyStats()
        stats.read_count, stats.update_count = 10.0, 2.0
        assert stats.hotness() == 10 * READ_WEIGHT - 2 * UPDATE_WEIGHT

    def test_delta_read(self):
        """The fused read adds ``r_w`` on each of its three paths."""
        cache = CoTCache(1, tracker_capacity=4)
        cache.get_or_admit("a", str)  # untracked: enters at r_w, admitted
        assert cache.hotness_of("a") == READ_WEIGHT
        cache.get_or_admit("a", str)  # cached hit
        assert cache.hotness_of("a") == 2 * READ_WEIGHT
        cache.get_or_admit("b", str)
        cache.get_or_admit("b", str)  # tracked, not cached (2 > h_min fails)
        assert cache.hotness_of("b") == 2 * READ_WEIGHT
        assert "b" not in cache
        cache.check_invariants()

    def test_delta_update_is_negative(self):
        cache = CoTCache(1, tracker_capacity=4)
        cache.get_or_admit("a", str)
        cache.get_or_admit("a", str)
        cache.record_update("a")
        assert cache.hotness_of("a") == 2 * READ_WEIGHT - UPDATE_WEIGHT
        cache.record_update("w")  # untracked: enters at -u_w
        assert cache.hotness_of("w") == -UPDATE_WEIGHT
        cache.check_invariants()


class TestKeyStats:
    def test_initial(self):
        stats = KeyStats()
        assert stats.read_count == 0.0
        assert stats.update_count == 0.0
        assert stats.hot == stats.hotness() == 0.0

    def test_record_read(self):
        tracker: CoTTracker[str] = CoTTracker(4, 1)
        tracker.track("a")
        tracker.track("a")
        stats = tracker.stats_of("a")
        assert stats.read_count == 2.0
        assert stats.hot == stats.hotness() == 2.0

    def test_record_update_penalizes(self):
        tracker: CoTTracker[str] = CoTTracker(4, 1)
        tracker.track("a")
        tracker.track("a", AccessType.UPDATE)
        tracker.track("a", AccessType.UPDATE)
        stats = tracker.stats_of("a")
        assert (stats.read_count, stats.update_count) == (1.0, 2.0)
        assert stats.hot == stats.hotness() == 1.0 - 2.0

    def test_decay_halves_hotness(self):
        stats = KeyStats()
        stats.read_count, stats.update_count = 8.0, 2.0
        stats.hot = before = stats.hotness()
        stats.decay(HALF_LIFE)
        assert stats.hot == stats.hotness() == before / 2

    def test_seed_from_hotness_reproduces_value(self):
        stats = KeyStats()
        stats.seed_from_hotness(7.0)
        assert stats.hot == stats.hotness() == 7.0
        assert stats.update_count == 0.0

    def test_seed_from_negative_hotness_clamps_to_zero(self):
        # A victim with net-negative hotness must not seed the newcomer
        # with negative reads.
        stats = KeyStats()
        stats.seed_from_hotness(-3.0)
        assert stats.read_count == 0.0
        assert stats.hotness() == 0.0
