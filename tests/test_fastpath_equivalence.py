"""Decision-equivalence: optimized fast path vs. a from-scratch reference.

The PR's hard constraint is that every optimization — incremental hotness
deltas, the fused ``get_or_admit``/``run_stream`` access path, root-replace
tracker admission, inlined heap sifts — changes *how fast* decisions are
made, never *which* decisions are made. This module proves it against
:class:`ReferenceCoT`, an independent reimplementation of Algorithms 1 + 2
that shares no code with the optimized data plane:

* plain dicts instead of indexed heaps;
* hotness recomputed from the raw counters (Equation 1) on every use
  instead of carried incrementally;
* victims found by linear ``min`` scans with an explicit
  ``(hotness, insertion-seq)`` tie-break — the same total order the
  ``IndexedMinHeap`` root realizes.

Under the default unit-weight model every hotness value is an
integer-valued float, so recomputed and incrementally-accumulated hotness
are *exactly* equal and the comparison demands identical decision
sequences, not just similar hit rates. Each trace checks, per access, the
full decision tuple (hit / miss / admitted / demoted-victim), and at the
end the exact cached set, tracked set, and per-key hotness.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CoTCache
from repro.engine import (
    PolicySpec,
    PolicyStreamRunner,
    Scale,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.workloads.mixer import OperationMixer
from repro.workloads.request import OpType
from repro.workloads.zipfian import ZipfianGenerator

KEY_SPACE = 4_096
ACCESSES = 100_000
CAPACITY = 128
TRACKER = 512


class ReferenceCoT:
    """Algorithms 1 + 2 in the most literal form (unit weights only).

    State is four dicts and a value set; the only ordering structure is
    an insertion-sequence number per heap, because the optimized
    ``IndexedMinHeap`` breaks hotness ties by push order and a faithful
    reference must pick the same victims. Sequence numbers advance exactly
    when the optimized tracker pushes (or root-replaces) into the
    corresponding heap: tracker admission and demotion re-push into the
    rest heap; promotion pushes into the cache heap; in-place hotness
    updates keep the existing number.
    """

    def __init__(self, capacity: int, tracker_capacity: int) -> None:
        self.capacity = capacity
        self.tracker_capacity = tracker_capacity
        self.reads: dict[int, float] = {}
        self.updates: dict[int, float] = {}
        self.cached: dict[int, int] = {}  # key -> cache-heap insertion seq
        self.rest: dict[int, int] = {}  # key -> rest-heap insertion seq
        self.values: set = set()
        self._cache_seq = 0
        self._rest_seq = 0

    # ------------------------------------------------------------ internals

    def _hot(self, key) -> float:
        """Equation 1, recomputed from the counters (unit weights)."""
        return self.reads[key] - self.updates[key]

    def _rest_push(self, key) -> None:
        self.rest[key] = self._rest_seq
        self._rest_seq += 1

    def _cache_push(self, key) -> None:
        self.cached[key] = self._cache_seq
        self._cache_seq += 1

    def _rest_victim(self):
        """Space-saving victim: coldest rest key, earliest-pushed on ties."""
        return min(self.rest, key=lambda k: (self._hot(k), self.rest[k]))

    def _cache_victim(self):
        """Coldest cached key, earliest-pushed on ties (demotion target)."""
        return min(self.cached, key=lambda k: (self._hot(k), self.cached[k]))

    def _admit_tracker(self, key) -> None:
        """Algorithm 1 lines 2-4: make room, inherit the victim's hotness."""
        inherited = 0.0
        if len(self.reads) >= self.tracker_capacity:
            assert self.rest, "reference never runs the all-cached corner"
            victim = self._rest_victim()
            inherited = max(self._hot(victim), 0.0)
            del self.reads[victim], self.updates[victim], self.rest[victim]
        self.reads[key] = inherited
        self.updates[key] = 0.0
        self._rest_push(key)

    def _promote(self, key):
        """Algorithm 2 line 7; returns the demoted key (or None)."""
        demoted = None
        if len(self.cached) >= self.capacity:
            demoted = self._cache_victim()
            del self.cached[demoted]
            self._rest_push(demoted)
            self.values.discard(demoted)
        del self.rest[key]
        self._cache_push(key)
        self.values.add(key)
        return demoted

    # ------------------------------------------------------------- protocol

    def access(self, key) -> tuple:
        """One read; returns the decision tuple the optimized side must match."""
        if key in self.reads:
            self.reads[key] += 1.0
            if key in self.cached:
                return ("hit",)
        else:
            self._admit_tracker(key)
            self.reads[key] += 1.0
        hot = self._hot(key)
        qualifies = len(self.cached) < self.capacity or hot > min(
            map(self._hot, self.cached)
        )
        if not qualifies:
            return ("miss", False, None)
        return ("miss", True, self._promote(key))

    def update(self, key) -> tuple:
        """One write: hotness penalty plus local invalidation."""
        if key not in self.reads:
            self._admit_tracker(key)
        self.updates[key] += 1.0
        invalidated = key in self.values
        if invalidated:
            self.values.discard(key)
            del self.cached[key]
            self._rest_push(key)
        return ("update", invalidated)

    def decay(self, factor: float) -> None:
        """Half-life decay: scale the raw counters (exact for 0.5)."""
        for key in self.reads:
            self.reads[key] *= factor
            self.updates[key] *= factor

    def set_sizes(self, capacity: int, tracker_capacity: int) -> tuple:
        """The controller's resize: demote coldest-first down to ``C``,
        then drop the coldest non-cached keys down to ``K``."""
        self.capacity = capacity
        self.tracker_capacity = tracker_capacity
        dropped = []
        while len(self.cached) > capacity:
            key = self._cache_victim()
            del self.cached[key]
            self._rest_push(key)
            self.values.discard(key)
            dropped.append(key)
        while len(self.reads) > tracker_capacity:
            victim = self._rest_victim()
            del self.reads[victim], self.updates[victim], self.rest[victim]
        return ("resize", dropped)


# --------------------------------------------------------------- optimized


def drive_read(cache: CoTCache, key, evicted: list) -> tuple:
    """Run one fused read and express it as a reference decision tuple."""
    stats = cache.stats
    hits_before = stats.hits
    insertions_before = stats.insertions
    value = cache.get_or_admit(key, lambda k: k)
    assert value == key
    if stats.hits != hits_before:
        return ("hit",)
    admitted = stats.insertions != insertions_before
    return ("miss", admitted, evicted.pop() if evicted else None)


def drive_update(cache: CoTCache, key) -> tuple:
    invalidated = key in cache
    cache.record_update(key)
    assert key not in cache
    return ("update", invalidated)


def drive_resize(
    cache: CoTCache, capacity: int, tracker_capacity: int, evicted: list
) -> tuple:
    cache.set_sizes(capacity, tracker_capacity)
    dropped, evicted[:] = list(evicted), []
    return ("resize", dropped)


def replay(cache: CoTCache, ref: ReferenceCoT, requests, evicted: list) -> None:
    """Drive both sides through a get/set request list, decision by decision."""
    for i, request in enumerate(requests):
        if request.op is OpType.GET:
            expected = ref.access(request.key)
            actual = drive_read(cache, request.key, evicted)
        else:
            expected = ref.update(request.key)
            actual = drive_update(cache, request.key)
        assert actual == expected, f"divergence at request {i}"
    assert not evicted


def assert_same_end_state(cache: CoTCache, ref: ReferenceCoT) -> None:
    """Beyond the per-access decisions: identical final structures."""
    assert set(cache.cached_keys()) == ref.values
    tracker = cache.tracker
    assert set(tracker.tracked_keys()) == set(ref.reads)
    assert set(tracker.cached_keys()) == set(ref.cached)
    for key in ref.reads:
        # Exact float equality: unit-weight hotness is integer-valued, so
        # the incremental accumulation cannot drift from the recompute.
        assert tracker.hotness_of(key) == ref._hot(key)
    tracker.check_invariants()


# ------------------------------------------------------------------ traces


@pytest.mark.parametrize("theta", [0.9, 0.99, 1.2])
def test_read_trace_equivalence(theta: float) -> None:
    """100k-read Zipfian traces: identical decision sequences end to end."""
    keys = ZipfianGenerator(KEY_SPACE, theta=theta, seed=7).keys_array(ACCESSES)
    cache = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    ref = ReferenceCoT(CAPACITY, TRACKER)
    evicted: list = []
    cache.eviction_listeners.append(evicted.append)
    for i, key in enumerate(keys):
        expected = ref.access(key)
        actual = drive_read(cache, key, evicted)
        assert actual == expected, f"divergence at access {i} (key {key})"
    assert not evicted
    assert_same_end_state(cache, ref)


def test_ycsb_b_trace_equivalence() -> None:
    """YCSB-B mix (95% read / 5% update) through the same comparison."""
    mixer = OperationMixer(
        ZipfianGenerator(KEY_SPACE, theta=0.99, seed=11),
        read_fraction=0.95,
        seed=13,
    )
    cache = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    ref = ReferenceCoT(CAPACITY, TRACKER)
    evicted: list = []
    cache.eviction_listeners.append(evicted.append)
    for i, request in enumerate(mixer.next_requests(ACCESSES)):
        if request.op is OpType.GET:
            expected = ref.access(request.key)
            actual = drive_read(cache, request.key, evicted)
        else:
            expected = ref.update(request.key)
            actual = drive_update(cache, request.key)
        assert actual == expected, f"divergence at request {i}"
    assert not evicted
    assert_same_end_state(cache, ref)


def test_uniform_trace_equivalence() -> None:
    """Uniform reads over 1M keys: nearly every access is an untracked
    key entering at ``min + 1`` (the rest heap's maximum, not its root)
    and one in four promotes — admission churn the Zipf traces lack."""
    rng = random.Random(17)
    cache = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    ref = ReferenceCoT(CAPACITY, TRACKER)
    evicted: list = []
    cache.eviction_listeners.append(evicted.append)
    accesses = 30_000
    for i in range(accesses):
        key = rng.randrange(1_000_000)
        expected = ref.access(key)
        actual = drive_read(cache, key, evicted)
        assert actual == expected, f"divergence at access {i} (key {key})"
    assert not evicted
    assert cache.stats.hits < accesses // 100
    assert cache.stats.insertions > accesses // 5
    assert_same_end_state(cache, ref)


def test_ycsb_a_trace_equivalence() -> None:
    """YCSB-A mix (50% update): every other request lowers a hotness —
    the heap's decrease path — and written untracked keys enter below
    the rest-heap root."""
    mixer = OperationMixer(
        ZipfianGenerator(KEY_SPACE, theta=0.99, seed=23),
        read_fraction=0.5,
        seed=29,
    )
    cache = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    ref = ReferenceCoT(CAPACITY, TRACKER)
    evicted: list = []
    cache.eviction_listeners.append(evicted.append)
    replay(cache, ref, mixer.next_requests(60_000), evicted)
    assert_same_end_state(cache, ref)


def test_decay_and_resize_interleaved_trace_equivalence() -> None:
    """YCSB-B with a half-life decay every 5k requests and the sizes
    shrunk, shrunk again and regrown in between: both heaps are rebuilt
    and drained from the root in mid-stream."""
    mixer = OperationMixer(
        ZipfianGenerator(KEY_SPACE, theta=0.99, seed=31),
        read_fraction=0.95,
        seed=37,
    )
    sizes = [(64, 256), (24, 96), (CAPACITY, TRACKER), (96, 640)]
    cache = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    ref = ReferenceCoT(CAPACITY, TRACKER)
    evicted: list = []
    cache.eviction_listeners.append(evicted.append)
    requests = mixer.next_requests(60_000)
    for chunk in range(12):
        replay(cache, ref, requests[chunk * 5_000 : (chunk + 1) * 5_000], evicted)
        cache.decay(0.5)
        ref.decay(0.5)
        if chunk % 3 == 2:
            capacity, tracker_capacity = sizes[chunk // 3]
            expected = ref.set_sizes(capacity, tracker_capacity)
            actual = drive_resize(cache, capacity, tracker_capacity, evicted)
            assert actual == expected, f"divergence at the resize after chunk {chunk}"
        assert_same_end_state(cache, ref)


def test_run_stream_matches_get_or_admit() -> None:
    """The loop-inlined batch path equals per-key fused accesses exactly."""
    keys = ZipfianGenerator(KEY_SPACE, theta=0.99, seed=21).keys_array(50_000)
    batched = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    fused = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    batched.run_stream(keys)
    for key in keys:
        fused.get_or_admit(key, lambda k: k)
    assert batched.stats.hits == fused.stats.hits
    assert batched.stats.misses == fused.stats.misses
    assert batched.stats.evictions == fused.stats.evictions
    assert batched.stats.insertions == fused.stats.insertions
    assert set(batched.cached_keys()) == set(fused.cached_keys())
    assert {k: batched.tracker.hotness_of(k) for k in batched.tracker.tracked_keys()} == {
        k: fused.tracker.hotness_of(k) for k in fused.tracker.tracked_keys()
    }
    batched.check_invariants()
    fused.check_invariants()


def test_split_lookup_admit_matches_fused() -> None:
    """The generic lookup/admit composition equals the fused path exactly."""
    keys = ZipfianGenerator(KEY_SPACE, theta=1.2, seed=33).keys_array(50_000)
    from repro.policies.base import MISSING

    split = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    fused = CoTCache(CAPACITY, tracker_capacity=TRACKER)
    for key in keys:
        if split.lookup(key) is MISSING:
            split.admit(key, key)
        fused.get_or_admit(key, lambda k: k)
    assert split.stats.hits == fused.stats.hits
    assert split.stats.misses == fused.stats.misses
    assert split.stats.evictions == fused.stats.evictions
    assert set(split.cached_keys()) == set(fused.cached_keys())
    split.check_invariants()
    fused.check_invariants()


@settings(max_examples=25, deadline=None)
@given(
    theta=st.sampled_from([0.9, 0.99, 1.2, 1.5]),
    seed=st.integers(min_value=0, max_value=2**16),
    capacity=st.integers(min_value=2, max_value=64),
    accesses=st.integers(min_value=1, max_value=4_000),
)
def test_engine_stream_matches_reference(theta, seed, capacity, accesses):
    """Property: a :class:`PolicyStreamRunner` run declared through a
    :class:`ScenarioSpec` makes exactly the decisions of
    :class:`ReferenceCoT` on the same trace, for arbitrary seeds, sizes
    and skews — the engine's fused chunked drive adds no decision drift
    over the literal per-access reference."""
    tracker = 4 * capacity
    key_space = 512
    spec = ScenarioSpec(
        scale=Scale.tiny().scaled(key_space=key_space, accesses=accesses),
        workload=WorkloadSpec(dist=f"zipf-{theta}"),
        policy=PolicySpec(name="cot", cache_lines=capacity, tracker_lines=tracker),
        seed=seed,
    )
    result = PolicyStreamRunner().run(spec)

    ref = ReferenceCoT(capacity, tracker)
    keys = ZipfianGenerator(key_space, theta=theta, seed=seed).keys_array(accesses)
    hits = sum(1 for key in keys if ref.access(key) == ("hit",))
    telemetry = result.telemetry
    assert telemetry.total_requests == accesses
    assert telemetry.hits == hits
    assert telemetry.misses == accesses - hits
    assert_same_end_state(result.policy, ref)


def test_get_many_matches_sequential_gets() -> None:
    """The batched client path (probe → per-shard prefetch → in-order
    ``get_or_admit``) must make exactly the decisions of sequential
    ``get`` calls — including duplicate keys inside one batch and
    mid-batch evictions invalidating a prefetch."""
    from repro.cluster.cluster import CacheCluster
    from repro.cluster.client import FrontEndClient
    from repro.workloads.base import format_key

    def new_client():
        cluster = CacheCluster(num_servers=4, virtual_nodes=256, value_size=1)
        policy = CoTCache(32, tracker_capacity=128)
        return FrontEndClient(cluster, policy), cluster

    batched, batched_cluster = new_client()
    sequential, sequential_cluster = new_client()
    generator = ZipfianGenerator(2_000, theta=1.1, seed=41)
    raw = [format_key(k) for k in generator.keys_array(20_000)]
    offset = 0
    for batch_size in (1, 7, 64, 256, 512) * 12:
        batch = raw[offset : offset + batch_size]
        offset += batch_size
        values = batched.get_many(batch)
        for key in batch:
            assert sequential.get(key) == values[key]
    b_stats, s_stats = batched.policy.stats, sequential.policy.stats
    assert b_stats.hits == s_stats.hits
    assert b_stats.misses == s_stats.misses
    assert b_stats.insertions == s_stats.insertions
    assert b_stats.evictions == s_stats.evictions
    assert set(batched.policy.cached_keys()) == set(
        sequential.policy.cached_keys()
    )
    b_tracker, s_tracker = batched.policy.tracker, sequential.policy.tracker
    assert {k: b_tracker.hotness_of(k) for k in b_tracker.tracked_keys()} == {
        k: s_tracker.hotness_of(k) for k in s_tracker.tracked_keys()
    }
    # Load accounting is internally consistent on both paths: the
    # monitor's client-side lookup counts equal the shards' served gets.
    assert batched.monitor.total_loads() == batched_cluster.loads()
    assert sequential.monitor.total_loads() == sequential_cluster.loads()
    # Batching may only *reduce* shard traffic (duplicates of a
    # non-admitted key are fetched once per batch, not once per access).
    for shard, lookups in batched.monitor.total_loads().items():
        assert lookups <= sequential.monitor.total_loads()[shard]
    batched.policy.check_invariants()
