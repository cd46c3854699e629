"""Tests for the Count-Min Sketch tracker and its comparison with CoTTracker."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.countmin import CMSTopK, CountMinSketch
from repro.core.tracker import CoTTracker
from repro.errors import ConfigurationError
from repro.workloads.zipfian import ZipfianGenerator


class TestCountMinSketch:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(0)
        with pytest.raises(ConfigurationError):
            CountMinSketch(8, 0)
        with pytest.raises(ConfigurationError):
            CountMinSketch.from_error(0.0)

    def test_from_error_sizing(self):
        sketch = CountMinSketch.from_error(0.01, 0.01)
        assert sketch.width >= 272  # ceil(e/0.01)
        assert sketch.depth >= 5    # ceil(ln 100)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch(8).add("a", 0)

    def test_estimates_never_underestimate(self):
        sketch: CountMinSketch[int] = CountMinSketch(64, 4, seed=1)
        truth = Counter()
        gen = ZipfianGenerator(200, theta=1.0, seed=2)
        for key in gen.keys(3000):
            sketch.add(key)
            truth[key] += 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
    def test_overestimate_bound(self, stream):
        width, depth = 64, 4
        sketch: CountMinSketch[int] = CountMinSketch(width, depth, seed=3)
        truth = Counter()
        for key in stream:
            sketch.add(key)
            truth[key] += 1
        # Classic bound (non-conservative): err <= N * e / w whp; the
        # conservative variant only tightens it. Allow the full bound.
        bound = len(stream) * 2.72 / width + 1e-9
        for key, count in truth.items():
            assert sketch.estimate(key) - count <= bound + len(stream) * 0.05

    def test_conservative_tighter_than_plain(self):
        stream = list(ZipfianGenerator(500, theta=1.0, seed=4).keys(5000))
        conservative: CountMinSketch[int] = CountMinSketch(
            32, 4, conservative=True, seed=5
        )
        plain: CountMinSketch[int] = CountMinSketch(
            32, 4, conservative=False, seed=5
        )
        truth = Counter(stream)
        for key in stream:
            conservative.add(key)
            plain.add(key)
        err_conservative = sum(
            conservative.estimate(k) - c for k, c in truth.items()
        )
        err_plain = sum(plain.estimate(k) - c for k, c in truth.items())
        assert err_conservative <= err_plain

    def test_scale(self):
        sketch: CountMinSketch[str] = CountMinSketch(16, 2, seed=6)
        for _ in range(8):
            sketch.add("k")
        sketch.scale(0.5)
        assert sketch.estimate("k") == pytest.approx(4.0)
        with pytest.raises(ConfigurationError):
            sketch.scale(0)


class TestCMSTopK:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CMSTopK(0)

    def test_tracks_hottest_on_strong_skew(self):
        tracker: CMSTopK[int] = CMSTopK(8, width=1024, seed=7)
        gen = ZipfianGenerator(2_000, theta=1.4, seed=8)
        for key in gen.keys(30_000):
            tracker.offer(key)
        top_keys = [k for k, _ in tracker.top(4)]
        assert 0 in top_keys and 1 in top_keys

    def test_heap_bounded(self):
        tracker: CMSTopK[int] = CMSTopK(4, width=64, seed=9)
        for key in range(500):
            tracker.offer(key)
        assert len(tracker) <= 4

    def test_membership_and_memory(self):
        tracker: CMSTopK[str] = CMSTopK(2, width=32, depth=2, seed=10)
        tracker.offer("a")
        assert "a" in tracker
        assert tracker.memory_cells() == 32 * 2 + 1


class TestTrackerVsCMS:
    """The design-choice evidence: at CoT-sized (small) trackers,
    CoT's space-saving tracker recalls the true top-k better per unit
    memory."""

    @staticmethod
    def _recall(found: list[int], truth: list[int]) -> float:
        return len(set(found) & set(truth)) / len(truth)

    def test_tracker_beats_cms_at_equal_small_memory(self):
        k = 16
        stream = list(ZipfianGenerator(20_000, theta=0.9, seed=11).keys(60_000))
        true_top = [key for key, _ in Counter(stream).most_common(k)]

        # A tracker of m keys and no cache vs CMS with the same cell budget.
        budget = 256  # cells
        tracker: CoTTracker[int] = CoTTracker(budget // 2, 0)  # 2 cells per entry
        cms: CMSTopK[int] = CMSTopK(k, width=(budget - k) // 4, depth=4, seed=12)
        for key in stream:
            tracker.track(key)
            cms.offer(key)
        tracker_recall = self._recall([key for key, _ in tracker.top(k)], true_top)
        cms_recall = self._recall([key for key, _ in cms.top(k)], true_top)
        assert tracker_recall >= cms_recall
        assert tracker_recall >= 0.8  # space-saving is near-exact here

    def test_both_converge_with_ample_memory(self):
        k = 8
        stream = list(ZipfianGenerator(5_000, theta=1.2, seed=13).keys(40_000))
        true_top = [key for key, _ in Counter(stream).most_common(k)]
        tracker: CoTTracker[int] = CoTTracker(2048, 0)
        cms: CMSTopK[int] = CMSTopK(k, width=8192, depth=5, seed=14)
        for key in stream:
            tracker.track(key)
            cms.offer(key)
        assert self._recall([key for key, _ in tracker.top(k)], true_top) >= 0.9
        assert self._recall([key for key, _ in cms.top(k)], true_top) >= 0.9
