"""Unit and property tests for the indexed min-heap."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import heap as heap_module
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


class TestLazySettlingDifferential:
    """Every operation against a plain list whose minimum is ``min`` by
    ``(priority, seq)`` — the total order the heap promises, with none of
    its machinery (snapshots, stale entries, rebuilds)."""

    STEPS = 24_000

    def setup_method(self):
        self.heap: IndexedMinHeap[int] = IndexedMinHeap()
        self.model: dict[int, list] = {}  # key -> [priority, seq]
        self.next_seq = 0
        self.next_key = 0

    # -- the model's side of each operation ------------------------------

    def model_min(self) -> int:
        return min(self.model, key=lambda k: tuple(self.model[k]))

    def model_insert(self, key: int, priority: float) -> None:
        self.model[key] = [priority, self.next_seq]
        self.next_seq += 1

    # -- one compared step each ------------------------------------------

    def push(self, priority: float) -> None:
        key = self.next_key
        self.next_key += 1
        self.heap.push(key, priority)
        self.model_insert(key, priority)

    def pop(self) -> None:
        victim = self.model_min()
        assert self.heap.pop() == (victim, self.model.pop(victim)[0])

    def replace(self, priority: float) -> None:
        victim = self.model_min()
        key = self.next_key
        self.next_key += 1
        assert self.heap.replace(key, priority) == (
            victim, self.model.pop(victim)[0]
        )
        self.model_insert(key, priority)

    def update(self, key: int, priority: float) -> None:
        self.heap.update(key, priority)
        self.model[key][0] = priority

    def shift(self, key: int, delta: float) -> None:
        self.model[key][0] += delta
        assert self.heap.update_delta(key, delta) == self.model[key][0]

    def remove(self, key: int) -> None:
        assert self.heap.remove(key) == self.model.pop(key)[0]

    def scale(self, factor: float) -> None:
        self.heap.scale_priorities(factor)
        for slot in self.model.values():
            slot[0] *= factor

    def compare(self) -> None:
        heap, model = self.heap, self.model
        assert len(heap) == len(model)
        if model:
            minimum = self.model_min()
            assert heap.peek() == (minimum, model[minimum][0])
        else:
            assert not heap

    def compare_fully(self) -> None:
        heap, model = self.heap, self.model
        heap.check_invariants()
        by_order = sorted(model, key=lambda k: tuple(model[k]))
        assert heap.nsmallest(7) == [(k, model[k][0]) for k in by_order[:7]]
        assert heap.min_priority() == model[by_order[0]][0]
        assert dict(heap.items()) == {k: slot[0] for k, slot in model.items()}
        # Iteration is insertion order: the seq order ties are broken by.
        assert list(heap) == sorted(model, key=lambda k: model[k][1])
        probe = by_order[len(by_order) // 2]
        assert probe in heap and heap.priority_of(probe) == model[probe][0]

    def backing_list_is_bounded(self) -> bool:
        return len(self.heap._heap) <= 2 * len(self.heap) + heap_module._STALE_SLACK

    # -- scripted episodes the random walk cannot be trusted to hit ------

    def stale_twin_episode(self) -> None:
        """A decrease, then increases back to the same priority: settling
        lifts the live entry onto the (snapshot, seq) of its stale twin,
        and the pair must still come out once, in the model's place."""
        key = self.model_min()
        before = self.model[key][0]

        def copies() -> int:
            return sum(1 for entry in self.heap._heap if entry[2] == key)

        copies_before = copies()
        self.shift(key, -2.0)
        assert copies() == copies_before + 1
        self.compare()
        for _ in range(2):
            self.shift(key, 1.0)
        assert self.model[key][0] == before
        self.compare()
        self.heap.check_invariants()
        self.pop()
        self.compare()
        assert key not in self.heap

    def deep_removal_episode(self) -> None:
        """Remove the key whose live entry sits deepest in the backing array."""
        heap = self.heap
        assert len(heap._heap) > 64
        last = next(e for e in reversed(heap._heap) if heap._entries.get(e[2]) is e)
        self.remove(last[2])
        self.compare()
        assert last in self.heap._heap  # forgotten, not dug out
        self.heap.check_invariants()

    def rebuild_episode(self, rng: random.Random) -> None:
        """Decreases pile up stale entries until the array is rebuilt."""
        limit = 2 * len(self.heap) + heap_module._STALE_SLACK + 2
        for _ in range(limit):
            key = rng.choice(list(self.model))
            below_snapshot = self.heap._entries[key][0] - 1.0
            self.update(key, below_snapshot)
            self.compare()
            if len(self.heap._heap) == len(self.heap):
                break
        else:
            pytest.fail("no rebuild within the stale bound")
        self.compare_fully()

    # -- the walk ---------------------------------------------------------

    def test_matches_a_linear_min_model(self):
        rng = random.Random(20_261_001)
        episodes = {
            6_000: self.stale_twin_episode,
            12_000: self.deep_removal_episode,
            18_000: lambda: self.rebuild_episode(rng),
        }
        def draw() -> float:
            # Integer-valued priorities in a narrow band: ties on priority
            # are the rule, so seq decides most minima.
            return float(rng.randrange(-8, 40))

        for _ in range(300):
            self.push(draw())
        for step in range(self.STEPS):
            if step in episodes:
                episodes[step]()
            op = rng.random()
            key = rng.choice(list(self.model)) if self.model else None
            if key is None or op < 0.22:
                self.push(draw())
            elif op < 0.32 and len(self.model) > 250:
                self.pop()
            elif op < 0.40:
                self.replace(draw())
            elif op < 0.48:
                self.update(key, draw())
            elif op < 0.74:
                self.shift(key, 1.0)
            elif op < 0.87:
                self.shift(key, float(-rng.randrange(1, 4)))
            elif op < 0.995 and len(self.model) > 250:
                self.remove(key)
            elif op >= 0.995:
                self.scale(rng.choice((0.5, 0.3)))
            self.compare()
            assert self.backing_list_is_bounded()
            if step % 500 == 0:
                self.compare_fully()
        self.compare_fully()
        assert self.backing_list_is_bounded()
        while self.model:
            self.pop()
        assert not self.heap and not self.heap._heap
