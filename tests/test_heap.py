"""Unit and property tests for the indexed min-heap."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heap import IndexedMinHeap


class TestBasics:
    def test_empty(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        assert len(heap) == 0
        assert not heap
        assert "x" not in heap

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedMinHeap().peek()

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedMinHeap().pop()

    def test_min_priority_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedMinHeap().min_priority()

    def test_push_and_peek(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("a", 3.0)
        heap.push("b", 1.0)
        heap.push("c", 2.0)
        assert heap.peek() == ("b", 1.0)
        assert len(heap) == 3
        assert "a" in heap and "b" in heap and "c" in heap

    def test_duplicate_push_raises(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("a", 1.0)
        with pytest.raises(ValueError):
            heap.push("a", 2.0)

    def test_pop_order(self):
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        values = [5, 3, 8, 1, 9, 2, 7]
        for v in values:
            heap.push(v, float(v))
        popped = [heap.pop()[0] for _ in range(len(values))]
        assert popped == sorted(values)

    def test_tie_break_is_insertion_order(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("first", 1.0)
        heap.push("second", 1.0)
        heap.push("third", 1.0)
        assert [heap.pop()[0] for _ in range(3)] == ["first", "second", "third"]

    def test_update_decrease_moves_to_root(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        for key, p in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
            heap.push(key, p)
        heap.update("c", 0.5)
        assert heap.peek() == ("c", 0.5)

    def test_update_increase_sinks(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        for key, p in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
            heap.push(key, p)
        heap.update("a", 10.0)
        assert heap.pop()[0] == "b"
        assert heap.pop()[0] == "c"
        assert heap.pop() == ("a", 10.0)

    def test_update_unknown_key_raises(self):
        with pytest.raises(KeyError):
            IndexedMinHeap().update("ghost", 1.0)

    def test_remove_middle(self):
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        for v in [4, 2, 6, 1, 5]:
            heap.push(v, float(v))
        assert heap.remove(4) == 4.0
        assert 4 not in heap
        assert [heap.pop()[0] for _ in range(4)] == [1, 2, 5, 6]

    def test_remove_root(self):
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        for v in [3, 1, 2]:
            heap.push(v, float(v))
        heap.remove(1)
        assert heap.peek()[0] == 2

    def test_priority_of(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("k", 7.5)
        assert heap.priority_of("k") == 7.5

    def test_items_and_iter(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        assert dict(heap.items()) == {"a": 1.0, "b": 2.0}
        assert set(heap) == {"a", "b"}

    def test_clear(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("a", 1.0)
        heap.clear()
        assert len(heap) == 0
        heap.push("a", 2.0)  # reusable after clear
        assert heap.peek() == ("a", 2.0)

    def test_scale_priorities(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("a", 4.0)
        heap.push("b", 2.0)
        heap.scale_priorities(0.5)
        assert heap.priority_of("a") == 2.0
        assert heap.priority_of("b") == 1.0
        assert heap.peek()[0] == "b"

    def test_scale_priorities_reorders_a_rounding_tie(self):
        """Found by ``test_stateful``'s CoT machine: distinct priorities
        that round to one float after scaling tie on sequence number,
        and the older entry may be the child."""
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        heap.push("older", math.nextafter(7.0, 8.0))
        heap.push("newer", 7.0)
        assert heap.peek()[0] == "newer"
        heap.scale_priorities(0.3)
        assert heap.priority_of("older") == heap.priority_of("newer") == 2.1
        heap.check_invariants()
        assert heap.peek()[0] == "older"

    def test_scale_priorities_negative_raises(self):
        heap: IndexedMinHeap[str] = IndexedMinHeap()
        with pytest.raises(ValueError):
            heap.scale_priorities(-1.0)

    def test_nsmallest(self):
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        for v in [5, 1, 4, 2, 3]:
            heap.push(v, float(v))
        assert heap.nsmallest(3) == [(1, 1.0), (2, 2.0), (3, 3.0)]
        # nsmallest must not mutate the heap
        assert len(heap) == 5


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 50), st.floats(-1e6, 1e6)), max_size=200))
    def test_matches_reference_sort(self, pairs):
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        reference: dict[int, float] = {}
        for key, priority in pairs:
            if key in reference:
                heap.update(key, priority)
            else:
                heap.push(key, priority)
            reference[key] = priority
            heap.check_invariants()
        popped = []
        while heap:
            popped.append(heap.pop())
        assert sorted(p for _, p in popped) == pytest.approx(
            sorted(reference.values())
        )
        assert {k for k, _ in popped} == set(reference)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_random_mixed_operations_keep_invariants(self, seed):
        rng = random.Random(seed)
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        alive: set[int] = set()
        next_key = 0
        for _ in range(300):
            op = rng.random()
            if op < 0.5 or not alive:
                heap.push(next_key, rng.uniform(-100, 100))
                alive.add(next_key)
                next_key += 1
            elif op < 0.75:
                key = rng.choice(sorted(alive))
                heap.update(key, rng.uniform(-100, 100))
            elif op < 0.9:
                key = rng.choice(sorted(alive))
                heap.remove(key)
                alive.discard(key)
            else:
                key, _ = heap.pop()
                alive.discard(key)
            heap.check_invariants()
        assert len(heap) == len(alive)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=100))
    def test_min_priority_is_global_min(self, priorities):
        heap: IndexedMinHeap[int] = IndexedMinHeap()
        for i, p in enumerate(priorities):
            heap.push(i, p)
        assert heap.min_priority() == min(priorities)
