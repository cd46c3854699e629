"""Micro-benchmarks: per-operation cost of every data-plane component.

These are true multi-round pytest-benchmark measurements (unlike the
experiment benches, which time one full harness run). They back the
paper's overhead argument — Section 5.3 shows heap-based front-end
caches add no measurable cost against a 244 µs RTT; here the absolute
per-op costs are pinned so regressions are visible.
"""

from __future__ import annotations

import pytest

from repro.cluster.hashring import ConsistentHashRing
from repro.core.cache import CoTCache
from repro.core.tracker import CoTTracker
from repro.engine import (
    PolicySpec,
    PolicyStreamRunner,
    Scale,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.policies.base import MISSING
from repro.policies.registry import make_policy
from repro.workloads.mixer import OperationMixer
from repro.workloads.scrambled import ScrambledZipfianGenerator
from repro.workloads.zipfian import ZipfianGenerator

KEYS = 10_000
OPS_PER_ROUND = 2_000
ENGINE_ACCESSES = 20_000


@pytest.fixture(scope="module")
def key_stream():
    generator = ZipfianGenerator(KEYS, theta=0.99, seed=42)
    return generator.keys_array(100_000)


@pytest.mark.parametrize("name", ["lru", "lfu", "arc", "lru2", "cot"])
def bench_policy_lookup_admit(benchmark, key_stream, name):
    """Steady-state cost of one lookup+admit access, via the fused path.

    Drives ``run_stream`` — the data-plane entry the experiment harnesses
    use — so the measurement includes each policy's fused fast path where
    one exists (CoT) and the generic lookup/admit composition elsewhere.
    """
    policy = make_policy(name, 512, tracker_capacity=2048)
    # Warm the policy so steady-state (mixed hit/miss) cost is measured.
    policy.run_stream(key_stream[:20_000])
    cursor = [20_000]

    def run():
        start = cursor[0] % (len(key_stream) - OPS_PER_ROUND)
        policy.run_stream(key_stream[start:start + OPS_PER_ROUND])
        cursor[0] += OPS_PER_ROUND

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND
    benchmark.extra_info["hit_rate"] = round(policy.stats.hit_rate, 4)


def bench_tracker_track(benchmark, key_stream):
    tracker: CoTTracker[int] = CoTTracker(2048, 0)
    cursor = [0]

    def run():
        start = cursor[0] % (len(key_stream) - OPS_PER_ROUND)
        for key in key_stream[start:start + OPS_PER_ROUND]:
            tracker.track(key)
        cursor[0] += OPS_PER_ROUND

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND


def bench_hash_ring_lookup(benchmark, key_stream):
    ring = ConsistentHashRing([f"cache-{i}" for i in range(8)], virtual_nodes=2048)
    keys = [f"usertable:{k}" for k in key_stream[:OPS_PER_ROUND]]

    def run():
        for key in keys:
            ring.server_for(key)

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND


def bench_hash_ring_replica_lookup(benchmark, key_stream):
    """Replica-set resolution (hot-key tier): one bisect + table fetch.

    Pins the successor-table optimisation of
    ``ConsistentHashRing.lookup_replicas`` — the amortised cost must stay
    at primary-lookup levels (one bisect), not grow with the replica
    count the way the naive per-call ring walk would.
    """
    ring = ConsistentHashRing([f"cache-{i}" for i in range(8)], virtual_nodes=2048)
    keys = [f"usertable:{k}" for k in key_stream[:OPS_PER_ROUND]]
    ring.lookup_replicas(keys[0], 3)  # build the r=3 successor table once

    def run():
        for key in keys:
            ring.lookup_replicas(key, 3)

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND


def bench_zipfian_generation(benchmark):
    generator = ZipfianGenerator(1_000_000, theta=0.99, seed=1)

    def run():
        for _ in range(OPS_PER_ROUND):
            generator.next_key()

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND


def bench_request_mix_generation(benchmark):
    """Cost of materializing mixed request objects (the PR 5 slots target).

    Times ``OperationMixer.next_requests`` end to end — key draw, wire-key
    formatting and one slotted :class:`Request` allocation per operation —
    the allocation-heaviest loop of the sim and mixed-cluster drives.
    Before/after the ``__slots__`` sweep this is the line to compare.
    """
    generator = ZipfianGenerator(KEYS, theta=0.99, seed=7)
    mixer = OperationMixer(generator, seed=11)

    def run():
        mixer.next_requests(OPS_PER_ROUND)

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND


def bench_scrambled_zipfian_generation(benchmark):
    generator = ScrambledZipfianGenerator(1_000_000, seed=1)

    def run():
        for _ in range(OPS_PER_ROUND):
            generator.next_key()

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = OPS_PER_ROUND


def bench_engine_policy_stream(benchmark):
    """Per-access cost of a whole engine-path run (spec → runner → snapshot).

    Each timed round executes a complete ``PolicyStreamRunner`` scenario —
    policy construction, generator seeding, the fused chunked drive and
    the telemetry snapshot — so the number is directly comparable to
    ``bench_policy_lookup_admit[cot]``: the gap between the two is the
    engine's total per-run overhead amortized over the stream.
    """
    spec = ScenarioSpec(
        scale=Scale.smoke().scaled(
            name="bench", key_space=KEYS, accesses=ENGINE_ACCESSES
        ),
        workload=WorkloadSpec(dist="zipf-0.99"),
        policy=PolicySpec(name="cot", cache_lines=512, tracker_lines=2048),
    )
    runner = PolicyStreamRunner()

    def run():
        runner.run(spec)

    benchmark(run)
    benchmark.extra_info["ops_per_round"] = ENGINE_ACCESSES


def bench_cot_resize_cycle(benchmark, key_stream):
    """Cost of a full double-then-halve resize at a realistic size."""
    cache = CoTCache(512, tracker_capacity=2048)
    for key in key_stream[:30_000]:
        if cache.lookup(key) is MISSING:
            cache.admit(key, key)

    def run():
        cache.set_sizes(1024, 4096)
        cache.set_sizes(512, 2048)

    benchmark(run)
