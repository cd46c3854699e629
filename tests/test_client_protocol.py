"""Tests for the client-driven protocol (paper Section 2)."""

from __future__ import annotations

import pytest

from repro.cluster.client import FrontEndClient
from repro.cluster.cluster import CacheCluster
from repro.core.cache import CoTCache
from repro.policies.lru import LRUCache
from repro.policies.nullcache import NullCache
from repro.workloads.base import format_key
from repro.workloads.request import OpType, Request


@pytest.fixture
def cluster():
    return CacheCluster(num_servers=4, virtual_nodes=64, value_size=10)


class TestReadPath:
    def test_first_get_populates_both_tiers(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        value = client.get("k1")
        assert value is not None
        backend = cluster.server_for("k1")
        assert "k1" in backend           # caching layer populated
        assert "k1" in client.policy     # local cache populated
        assert cluster.storage.stats.reads == 1

    def test_second_get_is_local(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        client.get("k1")
        lookups_before = client.monitor.total_lookups()
        client.get("k1")
        assert client.monitor.total_lookups() == lookups_before
        assert client.policy.stats.hits == 1

    def test_local_miss_layer_hit_skips_storage(self, cluster):
        # Client B reads a key client A already pulled into the layer.
        a = FrontEndClient(cluster, LRUCache(4), client_id="a")
        b = FrontEndClient(cluster, LRUCache(4), client_id="b")
        a.get("k1")
        reads_before = cluster.storage.stats.reads
        b.get("k1")
        assert cluster.storage.stats.reads == reads_before

    def test_null_cache_always_routes(self, cluster):
        client = FrontEndClient(cluster, NullCache())
        client.get("k1")
        client.get("k1")
        assert client.monitor.total_lookups() == 2

    def test_monitor_counts_by_owner(self, cluster):
        client = FrontEndClient(cluster, NullCache())
        for i in range(50):
            client.get(f"key-{i}")
        loads = client.monitor.total_loads()
        assert sum(loads.values()) == 50
        for server_id, count in loads.items():
            assert count == cluster.server(server_id).stats.gets


class TestWritePath:
    def test_set_invalidates_everywhere(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        client.get("k1")
        client.set("k1", "new-value")
        assert "k1" not in client.policy
        assert "k1" not in cluster.server_for("k1")
        assert cluster.storage.get("k1") == "new-value"

    def test_set_does_not_count_as_lookup(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        client.set("k1", "v")
        assert client.monitor.total_lookups() == 0

    def test_cot_update_penalty_via_protocol(self, cluster):
        client = FrontEndClient(cluster, CoTCache(4, tracker_capacity=16))
        client.get("k1")
        hot_before = client.policy.hotness_of("k1")
        client.set("k1", "v2")
        assert client.policy.hotness_of("k1") == hot_before - 1.0

    def test_read_after_write_returns_new_value(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        client.get("k1")
        client.set("k1", "v2")
        assert client.get("k1") == "v2"

    def test_delete(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        client.get("k1")
        client.delete("k1")
        assert "k1" not in client.policy
        assert "k1" not in cluster.server_for("k1")

    def test_base_protocol_alone_can_serve_stale(self, cluster):
        """The paper's model (§2): a write invalidates only the writer's
        local copy, so another front end keeps serving its own."""
        a = FrontEndClient(cluster, LRUCache(8), client_id="a")
        b = FrontEndClient(cluster, LRUCache(8), client_id="b")
        key = format_key(1)
        old = a.get(key)
        b.get(key)
        a.set(key, "new")
        assert b.get(key) == old  # stale local hit


class TestExecuteAndMetrics:
    def test_execute_dispatch(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        assert client.execute(Request(OpType.GET, "k")) is not None
        assert client.execute(Request(OpType.SET, "k", value="v")) is None
        assert client.execute(Request(OpType.DELETE, "k")) is None

    def test_hit_rate_metric(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4))
        client.get("k")
        client.get("k")
        assert client.local_hit_rate() == 0.5

    def test_local_imbalance_metric(self, cluster):
        client = FrontEndClient(cluster, NullCache())
        for i in range(100):
            client.get(f"key-{i}")
        assert client.local_imbalance() >= 1.0

    def test_repr(self, cluster):
        client = FrontEndClient(cluster, LRUCache(4), client_id="f1")
        assert "f1" in repr(client)
