"""Space-saving's guarantees (Metwally et al. 2005), checked on CoTTracker.

CoT's tracker is space-saving with the cached top-``C`` kept inside it
(paper Section 4.2, Algorithm 1). Over a read-only stream of length
``N``, a tracker of ``K`` keys, ``C`` of them cacheable, keeps the
classic sketch's bounds with ``K - C`` counters in the sketch's place:

* every tracked key's hotness is at least its true count;
* it overestimates that count by at most ``N / (K - C)``;
* every key whose true count exceeds ``N / (K - C)`` is tracked.

The victim comes from the rest heap, which holds at least ``K - C`` keys
once the tracker is full and whose hotness sums to at most ``N``. With
keys promoted the way :class:`~repro.core.cache.CoTCache` promotes them,
no rest key is hotter than a cached one, so the victim's hotness (what a
newcomer inherits) never falls. Each property below is checked by brute
force at ``C = 0`` (the classic sketch) and at ``C > 0``.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tracker import CoTTracker

streams = st.lists(st.integers(0, 30), min_size=1, max_size=400)
heavy_streams = st.lists(st.integers(0, 20), min_size=10, max_size=400)


@st.composite
def shapes(draw) -> tuple[int, int]:
    """``(K, C)`` with ``0 < C < K <= 12``."""
    k = draw(st.integers(2, 12))
    return k, draw(st.integers(1, k - 1))


def run(stream: list[int], k: int, c: int) -> CoTTracker[int]:
    """Track ``stream`` as reads, promoting as CoTCache does on a miss."""
    tracker: CoTTracker[int] = CoTTracker(k, c)
    for key in stream:
        tracker.track(key)
        if tracker.qualifies_for_cache(key):
            tracker.promote(key)
    return tracker


def assert_overestimates(stream: list[int], k: int, c: int) -> None:
    tracker, truth = run(stream, k, c), Counter(stream)
    for key in tracker.tracked_keys():
        assert tracker.hotness_of(key) >= truth[key]


def assert_error_bounded(stream: list[int], k: int, c: int) -> None:
    tracker, truth = run(stream, k, c), Counter(stream)
    bound = len(stream) / (k - c)
    for key in tracker.tracked_keys():
        assert tracker.hotness_of(key) - truth[key] <= bound + 1e-9


def assert_heavy_keys_tracked(stream: list[int], k: int, c: int) -> None:
    tracker = run(stream, k, c)
    threshold = len(stream) / (k - c)
    for key, count in Counter(stream).items():
        if count > threshold:
            assert key in tracker


class TestGuarantees:
    """The textbook space-saving guarantees, verified by brute force."""

    @settings(max_examples=60, deadline=None)
    @given(streams, st.integers(2, 12))
    # A key evicted and tracked again: it must inherit at least its count.
    @example([0, 0, 1, 2, 1], 2)
    def test_overestimate_never_underestimates(self, stream, capacity):
        assert_overestimates(stream, capacity, 0)

    @settings(max_examples=60, deadline=None)
    @given(streams, shapes())
    @example([0, 0, 0, 1, 2, 3, 1], (3, 1))
    def test_overestimate_never_underestimates_with_cached_keys(self, stream, shape):
        assert_overestimates(stream, *shape)

    @settings(max_examples=60, deadline=None)
    @given(streams, st.integers(2, 12))
    def test_error_bounded_by_n_over_m(self, stream, capacity):
        assert_error_bounded(stream, capacity, 0)

    @settings(max_examples=60, deadline=None)
    @given(streams, shapes())
    def test_error_bounded_by_n_over_k_minus_c(self, stream, shape):
        assert_error_bounded(stream, *shape)

    @settings(max_examples=60, deadline=None)
    @given(heavy_streams, st.integers(2, 12))
    def test_heavy_keys_always_monitored(self, stream, capacity):
        """Any key with frequency > N/K must be tracked."""
        assert_heavy_keys_tracked(stream, capacity, 0)

    @settings(max_examples=60, deadline=None)
    @given(heavy_streams, shapes())
    def test_heavy_keys_always_monitored_with_cached_keys(self, stream, shape):
        """Any key with frequency > N/(K - C) must be tracked."""
        assert_heavy_keys_tracked(stream, *shape)

    def test_skewed_stream_top_k_is_exact(self):
        """On a strongly skewed stream the tracker's top-k is the true top-k."""
        stream = []
        for rank in range(20):
            stream.extend([rank] * (2 ** (12 - rank) if rank < 12 else 1))
        for c in (0, 4, 8):
            top = [key for key, _hot in run(stream, 16, c).top(5)]
            assert top == [0, 1, 2, 3, 4], c
