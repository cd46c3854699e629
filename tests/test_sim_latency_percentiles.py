"""Tests for tail-latency reporting in the end-to-end simulation.

The paper motivates CoT with tail-latency damage from load-imbalance;
the simulator therefore reports p50/p99, read off its request-latency
histogram, and these tests pin that the tail contracts when a front-end
cache removes the hot-shard bottleneck.
"""

from __future__ import annotations

from repro.engine import (
    PolicySpec,
    Scale,
    ScenarioSpec,
    SimRunner,
    TopologySpec,
    WorkloadSpec,
)
from repro.policies.lru import LRUCache
from repro.policies.nullcache import NullCache
from repro.workloads.mixer import OperationMixer
from repro.workloads.zipfian import ZipfianGenerator


def build(policy_factory, clients=6, reqs=800):
    def mixer(i):
        return OperationMixer(
            ZipfianGenerator(2_000, theta=1.3, seed=40 + i), seed=90 + i
        )

    spec = ScenarioSpec(
        scale=Scale.tiny(),
        workload=WorkloadSpec(mixer_factory=mixer),
        policy=PolicySpec(factory=policy_factory),
        topology=TopologySpec(num_servers=4, num_clients=clients),
        requests_per_client=reqs,
    )
    return SimRunner().run(spec)


class TestTailLatency:
    def test_percentiles_ordered(self):
        telemetry = build(lambda i: NullCache()).telemetry
        assert 0 < telemetry.p50_latency <= telemetry.p99_latency
        assert telemetry.p50_latency <= telemetry.mean_latency * 3

    def test_cache_contracts_the_tail(self):
        bare = build(lambda i: NullCache()).telemetry
        cached = build(lambda i: LRUCache(64)).telemetry
        # The tail contracts dramatically: the cached p99 beats even the
        # bare *median*, because the hot-shard queue (a tail phenomenon)
        # is what the front-end cache removes.
        assert cached.p99_latency < bare.p99_latency
        assert cached.p99_latency < bare.p50_latency * 2

    def test_per_client_recorders_populated(self):
        result = build(lambda i: NullCache(), clients=2, reqs=100)
        for client in result.sim_clients:
            assert client.latency_histogram.count == 100
            assert client.latency_histogram.mean > 0
        assert result.telemetry.total_requests == 200
